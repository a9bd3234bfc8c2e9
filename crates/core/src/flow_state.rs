//! Per-flow state and housekeeping (the paper's "Flow State" block).
//!
//! The prototype stores 512 bits of per-flow information addressed by the
//! flow ID, and a housekeeping function "periodically checks and removes
//! timeout flow entries to allow new flow entries to be stored",
//! signalling `Del_req` to the update block. [`FlowStateStore`] models
//! the record store (NetFlow-style counters) and [`FlowStateStore::expire_idle`]
//! implements the timeout scan.

use std::collections::BTreeMap;
use std::ops::Bound;

use flowlut_traffic::FlowKey;

use crate::fid::FlowId;

/// A NetFlow-style per-flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FlowRecord {
    /// Flow identity.
    pub key: FlowKey,
    /// Timestamp of the first packet (ns).
    pub first_seen_ns: u64,
    /// Timestamp of the most recent packet (ns).
    pub last_seen_ns: u64,
    /// System cycle of the most recent packet — the recency stamp the
    /// TTL-expiry scan and pressure eviction compare against.
    pub last_touch_sys: u64,
    /// Packets observed.
    pub packets: u64,
    /// Layer-1 bytes observed.
    pub bytes: u64,
}

impl FlowRecord {
    /// Creates a record from the flow's first packet.
    pub fn first_packet(key: FlowKey, now_ns: u64, now_sys: u64, frame_bytes: u64) -> Self {
        FlowRecord {
            key,
            first_seen_ns: now_ns,
            last_seen_ns: now_ns,
            last_touch_sys: now_sys,
            packets: 1,
            bytes: frame_bytes,
        }
    }

    /// Folds one more packet into the record.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if time runs backwards.
    pub fn update(&mut self, now_ns: u64, now_sys: u64, frame_bytes: u64) {
        debug_assert!(now_ns >= self.last_seen_ns, "time ran backwards");
        self.last_seen_ns = now_ns;
        self.last_touch_sys = now_sys;
        self.packets += 1;
        self.bytes += frame_bytes;
    }

    /// Nanoseconds since the last packet.
    pub fn idle_ns(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.last_seen_ns)
    }

    /// Flow duration so far.
    pub fn duration_ns(&self) -> u64 {
        self.last_seen_ns - self.first_seen_ns
    }
}

/// The per-flow record store, addressed by [`FlowId`].
///
/// Records live in a `BTreeMap` so iteration order is deterministic and
/// the incremental expiry/pressure scans can resume from a [`FlowId`]
/// cursor in O(log n) ([`FlowStateStore::scan_after`]). The ID space is
/// capacity-bounded (packed table/CAM locations), so cursors stay dense.
#[derive(Debug, Default)]
pub struct FlowStateStore {
    records: BTreeMap<FlowId, FlowRecord>,
}

impl FlowStateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FlowStateStore::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are live.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records the packet that *created* flow `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a record (the flow table must not remint
    /// a live ID — this guards invariant 2 of DESIGN.md).
    pub fn on_new_flow(
        &mut self,
        id: FlowId,
        key: FlowKey,
        now_ns: u64,
        now_sys: u64,
        frame_bytes: u64,
    ) {
        let prev = self.records.insert(
            id,
            FlowRecord::first_packet(key, now_ns, now_sys, frame_bytes),
        );
        assert!(prev.is_none(), "flow ID {id} reused while record live");
    }

    /// Installs a pre-existing record under a (possibly new) ID — the
    /// restore/rescale path, which must preserve the record's counters
    /// and timestamps instead of minting a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a record, like
    /// [`on_new_flow`](Self::on_new_flow).
    pub fn adopt(&mut self, id: FlowId, record: FlowRecord) {
        let prev = self.records.insert(id, record);
        assert!(prev.is_none(), "flow ID {id} reused while record live");
    }

    /// Builds a store from pre-existing records in one bulk B-tree
    /// build: the restore path's [`adopt`](Self::adopt), for records that
    /// arrive in ID order (any order is accepted; sorted input sorts in
    /// linear time).
    ///
    /// # Errors
    ///
    /// Returns an ID that appears more than once in `records`.
    pub(crate) fn from_records(mut records: Vec<(FlowId, FlowRecord)>) -> Result<Self, FlowId> {
        records.sort_unstable_by_key(|&(id, _)| id);
        if let Some(pair) = records.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(pair[0].0);
        }
        Ok(FlowStateStore {
            records: records.into_iter().collect(),
        })
    }

    /// Records a packet of an existing flow.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no record (a hit on an ID that was never
    /// created means table and state store diverged).
    pub fn on_packet(&mut self, id: FlowId, now_ns: u64, now_sys: u64, frame_bytes: u64) {
        self.records
            .get_mut(&id)
            .unwrap_or_else(|| panic!("no record for {id}"))
            .update(now_ns, now_sys, frame_bytes);
    }

    /// The record for `id`, if any.
    pub fn get(&self, id: FlowId) -> Option<&FlowRecord> {
        self.records.get(&id)
    }

    /// Removes and returns the record for `id`.
    pub fn remove(&mut self, id: FlowId) -> Option<FlowRecord> {
        self.records.remove(&id)
    }

    /// Non-destructive housekeeping scan: returns the flows idle for
    /// longer than `timeout_ns`, in deterministic (ID) order, *without*
    /// removing their records.
    ///
    /// The update block validates each candidate again at deletion time
    /// (the flow may have received traffic since the scan) and removes
    /// the record together with the table entry — keeping record store
    /// and table atomically consistent under in-flight traffic.
    pub fn idle_candidates(&self, now_ns: u64, timeout_ns: u64) -> Vec<(FlowId, FlowRecord)> {
        let mut out = Vec::new();
        self.idle_candidates_into(now_ns, timeout_ns, &mut out);
        out
    }

    /// [`idle_candidates`](Self::idle_candidates) into a caller-provided
    /// buffer (cleared and refilled), so the periodic housekeeping scan
    /// reuses one allocation across invocations. Same deterministic ID
    /// order (the record store iterates in ID order).
    pub fn idle_candidates_into(
        &self,
        now_ns: u64,
        timeout_ns: u64,
        out: &mut Vec<(FlowId, FlowRecord)>,
    ) {
        out.clear();
        out.extend(
            self.records
                .iter()
                .filter(|(_, r)| r.idle_ns(now_ns) > timeout_ns)
                .map(|(&id, r)| (id, *r)),
        );
    }

    /// The housekeeping scan: removes every record idle for longer than
    /// `timeout_ns` and returns them (each removal is a `Del_req` for the
    /// update block).
    pub fn expire_idle(&mut self, now_ns: u64, timeout_ns: u64) -> Vec<(FlowId, FlowRecord)> {
        let expired: Vec<FlowId> = self
            .records
            .iter()
            .filter(|(_, r)| r.idle_ns(now_ns) > timeout_ns)
            .map(|(&id, _)| id)
            .collect();
        let mut out: Vec<(FlowId, FlowRecord)> = expired
            .into_iter()
            .map(|id| (id, self.records.remove(&id).expect("collected above")))
            .collect();
        // Deterministic order for reproducible simulations.
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Iterates over live `(id, record)` pairs in ascending ID order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowRecord)> {
        self.records.iter().map(|(&id, r)| (id, r))
    }

    /// One step of an incremental scan: up to `stride` records strictly
    /// after `cursor` (from the start when `cursor` is `None`), in ID
    /// order, plus the cursor to resume from. A returned cursor of
    /// `None` means the scan reached the end and should wrap around.
    pub fn scan_after(
        &self,
        cursor: Option<FlowId>,
        stride: usize,
    ) -> (Vec<(FlowId, FlowRecord)>, Option<FlowId>) {
        let mut out = Vec::new();
        let next = self.scan_after_into(cursor, stride, &mut out);
        (out, next)
    }

    /// [`scan_after`](Self::scan_after) into a caller-provided buffer
    /// (cleared and refilled), so per-cycle incremental scans reuse one
    /// allocation. Returns the cursor to resume from.
    pub fn scan_after_into(
        &self,
        cursor: Option<FlowId>,
        stride: usize,
        out: &mut Vec<(FlowId, FlowRecord)>,
    ) -> Option<FlowId> {
        let range = match cursor {
            Some(c) => self.records.range((Bound::Excluded(c), Bound::Unbounded)),
            None => self.records.range(..),
        };
        out.clear();
        out.extend(range.take(stride).map(|(&id, r)| (id, *r)));
        if out.len() < stride {
            None
        } else {
            out.last().map(|(id, _)| *id)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::fid::Location;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn fid(i: u32) -> FlowId {
        FlowId::encode(Location::Cam(i), 2)
    }

    #[test]
    fn record_accumulates() {
        let mut r = FlowRecord::first_packet(key(1), 1000, 200, 72);
        r.update(2000, 400, 100);
        r.update(5000, 1000, 72);
        assert_eq!(r.packets, 3);
        assert_eq!(r.bytes, 244);
        assert_eq!(r.duration_ns(), 4000);
        assert_eq!(r.idle_ns(6000), 1000);
        assert_eq!(r.last_touch_sys, 1000);
    }

    #[test]
    fn store_lifecycle() {
        let mut s = FlowStateStore::new();
        s.on_new_flow(fid(1), key(1), 0, 0, 72);
        s.on_packet(fid(1), 10, 2, 72);
        assert_eq!(s.get(fid(1)).unwrap().packets, 2);
        assert_eq!(s.get(fid(1)).unwrap().last_touch_sys, 2);
        assert_eq!(s.len(), 1);
        let r = s.remove(fid(1)).unwrap();
        assert_eq!(r.packets, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn expire_removes_only_idle() {
        let mut s = FlowStateStore::new();
        s.on_new_flow(fid(1), key(1), 0, 0, 72); // idle since 0
        s.on_new_flow(fid(2), key(2), 0, 0, 72);
        s.on_packet(fid(2), 9_000, 1_800, 72); // refreshed
        let expired = s.expire_idle(10_000, 5_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, fid(1));
        assert_eq!(s.len(), 1);
        assert!(s.get(fid(2)).is_some());
    }

    #[test]
    fn expire_is_deterministic_order() {
        let mut s = FlowStateStore::new();
        for i in (0..10).rev() {
            s.on_new_flow(fid(i), key(u64::from(i)), 0, 0, 72);
        }
        let expired = s.expire_idle(1_000_000, 1);
        let ids: Vec<FlowId> = expired.iter().map(|(id, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn scan_after_walks_in_strides_and_signals_wraparound() {
        let mut s = FlowStateStore::new();
        for i in 0..7 {
            s.on_new_flow(fid(i), key(u64::from(i)), 0, 0, 72);
        }
        let (batch, cur) = s.scan_after(None, 3);
        assert_eq!(
            batch.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![fid(0), fid(1), fid(2)]
        );
        assert_eq!(cur, Some(fid(2)));
        let (batch, cur) = s.scan_after(cur, 3);
        assert_eq!(
            batch.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![fid(3), fid(4), fid(5)]
        );
        let (batch, cur) = s.scan_after(cur, 3);
        assert_eq!(batch.len(), 1, "tail batch");
        assert_eq!(batch[0].0, fid(6));
        assert_eq!(cur, None, "end of keyspace wraps the cursor");
        let (batch, _) = s.scan_after(None, 100);
        assert_eq!(batch.len(), 7);
    }

    #[test]
    fn adopt_preserves_counters() {
        let mut s = FlowStateStore::new();
        let mut r = FlowRecord::first_packet(key(5), 100, 20, 72);
        r.update(900, 180, 1500);
        s.adopt(fid(5), r);
        let got = s.get(fid(5)).unwrap();
        assert_eq!(got.packets, 2);
        assert_eq!(got.bytes, 1572);
        assert_eq!(got.first_seen_ns, 100);
        assert_eq!(got.last_touch_sys, 180);
    }

    fn contents(s: &FlowStateStore) -> Vec<(FlowId, FlowRecord)> {
        s.iter().map(|(id, r)| (id, *r)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Building from a batch gives the store that adopting the same
        /// records one at a time would, for IDs in any order; a repeated
        /// ID is returned instead.
        #[test]
        fn from_records_matches_sequential_adopt(
            ids in prop::collection::vec(0u32..400, 0..24),
        ) {
            let record = |i: u32| FlowRecord::first_packet(key(u64::from(i)), u64::from(i), 0, 72);
            let mut seen = BTreeSet::new();
            let repeated: BTreeSet<u32> = ids.iter().copied().filter(|&i| !seen.insert(i)).collect();
            let result = FlowStateStore::from_records(ids.iter().map(|&i| (fid(i), record(i))).collect());
            if repeated.is_empty() {
                let store = result.expect("distinct IDs are accepted");
                let mut sequential = FlowStateStore::new();
                for &i in &ids {
                    sequential.adopt(fid(i), record(i));
                }
                prop_assert_eq!(contents(&store), contents(&sequential));
                prop_assert_eq!(store.len(), ids.len());
            } else {
                let id = result.expect_err("a repeated ID is rejected");
                prop_assert!(repeated.iter().any(|&i| fid(i) == id), "{id} is not repeated");
            }
        }
    }

    #[test]
    #[should_panic(expected = "reused while record live")]
    fn double_create_panics() {
        let mut s = FlowStateStore::new();
        s.on_new_flow(fid(1), key(1), 0, 0, 72);
        s.on_new_flow(fid(1), key(2), 1, 1, 72);
    }

    #[test]
    #[should_panic(expected = "no record for")]
    fn packet_for_unknown_id_panics() {
        let mut s = FlowStateStore::new();
        s.on_packet(fid(9), 0, 0, 72);
    }
}
