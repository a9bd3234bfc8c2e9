//! Per-flow state (the paper's "Flow State" block).
//!
//! The prototype stores 512 bits of per-flow information addressed by the
//! flow ID, and a housekeeping function "periodically checks and removes
//! timeout flow entries to allow new flow entries to be stored",
//! signalling `Del_req` to the update block. [`FlowRecord`] is that
//! information (NetFlow-style counters). As in the hardware, the flow ID
//! addresses it directly: [`HashCamTable`](crate::HashCamTable) keeps each
//! resident flow's counters beside its key, in the slot the ID names
//! ([`HashCamTable::record`](crate::HashCamTable::record)). The
//! housekeeping is [`ExpiryPolicy`](crate::config::ExpiryPolicy): its
//! scan, like the pressure scan, sweeps resident slots in ID order
//! ([`HashCamTable::records_after`](crate::HashCamTable::records_after))
//! and queues a deletion for each flow idle past the timeout.

use flowlut_traffic::FlowKey;

/// A NetFlow-style per-flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    #[cfg(test)]
    pub fn first_packet(key: FlowKey, now_ns: u64, now_sys: u64, frame_bytes: u64) -> Self {
        FlowCounters::first_packet(now_ns, now_sys, frame_bytes).with_key(key)
    }

    /// Folds one more packet into the record.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if time runs backwards.
    pub fn update(&mut self, now_ns: u64, now_sys: u64, frame_bytes: u64) {
        let mut counters = FlowCounters::of(self);
        counters.update(now_ns, now_sys, frame_bytes);
        *self = counters.with_key(self.key);
    }

    /// Flow duration so far.
    pub fn duration_ns(&self) -> u64 {
        self.last_seen_ns - self.first_seen_ns
    }
}

/// A [`FlowRecord`] without its key: what the table stores beside each
/// resident key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FlowCounters {
    pub(crate) first_seen_ns: u64,
    pub(crate) last_seen_ns: u64,
    pub(crate) last_touch_sys: u64,
    pub(crate) packets: u64,
    pub(crate) bytes: u64,
}

impl FlowCounters {
    /// The counters after a flow's first packet.
    pub(crate) fn first_packet(now_ns: u64, now_sys: u64, frame_bytes: u64) -> Self {
        FlowCounters {
            first_seen_ns: now_ns,
            last_seen_ns: now_ns,
            last_touch_sys: now_sys,
            packets: 1,
            bytes: frame_bytes,
        }
    }

    /// The counters of `record`.
    pub(crate) fn of(record: &FlowRecord) -> Self {
        FlowCounters {
            first_seen_ns: record.first_seen_ns,
            last_seen_ns: record.last_seen_ns,
            last_touch_sys: record.last_touch_sys,
            packets: record.packets,
            bytes: record.bytes,
        }
    }

    /// The record of flow `key` with these counters.
    pub(crate) fn with_key(self, key: FlowKey) -> FlowRecord {
        FlowRecord {
            key,
            first_seen_ns: self.first_seen_ns,
            last_seen_ns: self.last_seen_ns,
            last_touch_sys: self.last_touch_sys,
            packets: self.packets,
            bytes: self.bytes,
        }
    }

    /// Folds one more packet in.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if time runs backwards.
    pub(crate) fn update(&mut self, now_ns: u64, now_sys: u64, frame_bytes: u64) {
        debug_assert!(now_ns >= self.last_seen_ns, "time ran backwards");
        self.last_seen_ns = now_ns;
        self.last_touch_sys = now_sys;
        self.packets += 1;
        self.bytes += frame_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::{FlowId, Location};
    use crate::table::{HashCamTable, TableConfig};
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn table() -> HashCamTable {
        HashCamTable::new(TableConfig::test_small())
    }

    /// Inserts flow `i` with the counters of its first packet at `now`.
    fn create(t: &mut HashCamTable, i: u64, now: u64) -> FlowId {
        t.insert_flow(key(i), FlowCounters::first_packet(now, now / 5, 72))
            .expect("the small table has room")
    }

    #[test]
    fn record_accumulates() {
        let mut r = FlowRecord::first_packet(key(1), 1000, 200, 72);
        r.update(2000, 400, 100);
        r.update(5000, 1000, 72);
        assert_eq!(r.packets, 3);
        assert_eq!(r.bytes, 244);
        assert_eq!(r.duration_ns(), 4000);
        assert_eq!(r.last_seen_ns, 5000);
        assert_eq!(r.last_touch_sys, 1000);
    }

    #[test]
    fn store_lifecycle() {
        let mut t = table();
        let id = create(&mut t, 1, 0);
        t.record_packet(id, &key(1), false, 10, 2, 72);
        assert_eq!(t.record(id).unwrap().packets, 2);
        assert_eq!(t.record(id).unwrap().last_touch_sys, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.delete(&key(1)), Some(id));
        assert_eq!(t.record(id), None);
        assert!(t.is_empty());
        // A new flow in the freed slot starts from fresh counters.
        let again = t.insert(key(1)).unwrap();
        assert_eq!(again, id);
        assert_eq!(t.record(id).unwrap().packets, 0);
    }

    #[test]
    fn expire_removes_only_idle() {
        let mut t = table();
        let idle = create(&mut t, 1, 0); // idle since 0
        let busy = create(&mut t, 2, 0);
        t.record_packet(busy, &key(2), false, 9_000, 1_800, 72); // refreshed

        // The expiry scan's rule: idle for more than the timeout, in
        // system cycles.
        let expired: Vec<FlowId> = t
            .records_after(None)
            .filter(|(_, r)| 2_000 - r.last_touch_sys > 1_000)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(expired, vec![idle]);
    }

    #[test]
    fn expire_is_deterministic_order() {
        let mut t = table();
        for i in (0..40).rev() {
            create(&mut t, i, 0);
        }
        let ids: Vec<FlowId> = t.records_after(None).map(|(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 40);
    }

    #[test]
    fn scan_after_walks_in_strides_and_signals_wraparound() {
        let mut t = table();
        let mut ids: Vec<FlowId> = (0..7).map(|i| create(&mut t, i, 0)).collect();
        ids.sort();
        let mut batch = Vec::new();
        let mut stride = |cursor| {
            let next = t.scan_after_into(cursor, 3, &mut batch);
            (batch.iter().map(|(id, _)| *id).collect::<Vec<_>>(), next)
        };
        let (got, cur) = stride(None);
        assert_eq!(got, ids[0..3]);
        assert_eq!(cur, Some(ids[2]));
        let (got, cur) = stride(cur);
        assert_eq!(got, ids[3..6]);
        let (got, cur) = stride(cur);
        assert_eq!(got, ids[6..], "tail batch");
        assert_eq!(cur, None, "end of keyspace wraps the cursor");
        assert_eq!(t.scan_after_into(None, 100, &mut batch), None);
        assert_eq!(batch.len(), 7);
    }

    #[test]
    fn adopt_preserves_counters() {
        let mut t = table();
        let mut r = FlowRecord::first_packet(key(5), 100, 20, 72);
        r.update(900, 180, 1500);
        let id = t.insert_flow(r.key, FlowCounters::of(&r)).unwrap();
        assert_eq!(t.record(id), Some(r));
        let got = t.record(id).unwrap();
        assert_eq!(got.packets, 2);
        assert_eq!(got.bytes, 1572);
        assert_eq!(got.first_seen_ns, 100);
        assert_eq!(got.last_touch_sys, 180);
    }

    #[test]
    #[should_panic(expected = "does not hold the completing key")]
    fn double_create_panics() {
        // A new flow's ID names the slot its insert filled; a flow ID
        // whose slot holds another key cannot be reminted.
        let mut t = table();
        let id = create(&mut t, 1, 0);
        t.record_packet(id, &key(2), true, 1, 1, 72);
    }

    #[test]
    #[should_panic(expected = "does not hold the completing key")]
    fn packet_for_unknown_id_panics() {
        let mut t = table();
        t.record_packet(
            FlowId::encode(Location::Cam(9), 2),
            &key(9),
            false,
            0,
            0,
            72,
        );
    }
}
