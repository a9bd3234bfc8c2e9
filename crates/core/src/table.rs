//! The functional Hash-CAM flow lookup table (Figure 1 of the paper).
//!
//! This layer implements the *semantics* of the paper's table — a
//! two-choice hash table whose halves live in two separate memories, with
//! bucket overflow spilling to a small CAM — independent of timing. The
//! cycle-level simulator ([`sim`](crate::sim)) drives the same structure
//! through the DDR3 model; downstream users who just want a
//! memory-efficient flow table use this type directly.
//!
//! Lookup follows the paper's three pipeline stages with early exit:
//! CAM first, then `Hash1 → Mem1`, then `Hash2 → Mem2`. Insertion places
//! a key in the first free slot of its Mem1 bucket, then its Mem2 bucket,
//! then the CAM; [`InsertError::TableFull`] reports exhaustion of all
//! three.
//!
//! Each memory's buckets live in one line store, one line per resident
//! bucket, in the [`codec`] wire format. That is the one copy of each
//! bucket: the simulator's memory models carry no data, and its Flow
//! Match reads a bucket's line here unless a write of the bucket has
//! not landed yet.

use flowlut_cam::Cam;
use flowlut_hash::PairHasher;
use flowlut_traffic::{FlowKey, MAX_KEY_BYTES};

use crate::codec;
use crate::error::{ConfigError, InsertError};
use crate::fid::{FlowId, Location, PathId};
use crate::flow_state::{FlowCounters, FlowRecord};
use crate::storage::SparseStorage;

/// Sizing and hashing parameters of a [`HashCamTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Buckets in each memory half.
    pub buckets_per_mem: u32,
    /// Entry slots per bucket (the paper's `K`).
    pub entries_per_bucket: u8,
    /// Overflow CAM capacity.
    pub cam_capacity: usize,
    /// Bytes per entry slot in the DDR3 wire format
    /// (`1 + max key bytes`, rounded to hardware-friendly widths).
    pub entry_slot_bytes: usize,
    /// Seed for the two H3 hash functions.
    pub hash_seed: u64,
}

impl TableConfig {
    /// The FPGA prototype's sizing: 8 M entry capacity (2 memories ×
    /// 2 Mi buckets × K = 2), a 1 Ki-entry overflow CAM, 16-byte slots
    /// (IPv4 5-tuples), so one bucket = one 32-byte BL8 burst.
    pub fn prototype_8m() -> Self {
        TableConfig {
            buckets_per_mem: 1 << 21,
            entries_per_bucket: 2,
            cam_capacity: 1024,
            entry_slot_bytes: 16,
            hash_seed: 0x5EED,
        }
    }

    /// A small configuration for tests: 256 buckets × K = 2 per memory,
    /// 16-entry CAM.
    pub fn test_small() -> Self {
        TableConfig {
            buckets_per_mem: 256,
            entries_per_bucket: 2,
            cam_capacity: 16,
            entry_slot_bytes: 16,
            hash_seed: 0x5EED,
        }
    }

    /// Total entry slots across both memories plus the CAM.
    pub fn capacity(&self) -> u64 {
        2 * u64::from(self.buckets_per_mem) * u64::from(self.entries_per_bucket)
            + self.cam_capacity as u64
    }

    /// Bucket size in bytes (before burst padding).
    pub fn bucket_bytes(&self) -> usize {
        usize::from(self.entries_per_bucket) * self.entry_slot_bytes
    }

    /// Bursts per bucket for a given burst payload size.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn bursts_per_bucket(&self, burst_bytes: usize) -> u32 {
        assert!(burst_bytes > 0);
        (self.bucket_bytes().div_ceil(burst_bytes)) as u32
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero dimensions or slots too narrow to
    /// hold any key.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buckets_per_mem == 0 {
            return Err(ConfigError::new("buckets_per_mem must be non-zero"));
        }
        if self.entries_per_bucket == 0 {
            return Err(ConfigError::new("entries_per_bucket must be non-zero"));
        }
        if self.cam_capacity == 0 {
            return Err(ConfigError::new(
                "cam_capacity must be non-zero (the scheme requires an overflow CAM)",
            ));
        }
        if self.entry_slot_bytes < 2 {
            return Err(ConfigError::new(
                "entry_slot_bytes must hold a length byte plus at least one key byte",
            ));
        }
        Ok(())
    }
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig::prototype_8m()
    }
}

/// At which pipeline stage a lookup matched — drives both statistics and
/// the simulator's early-exit timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupStage {
    /// Stage 1: overflow CAM.
    Cam,
    /// Stage 2: Hash1 bucket in Mem1 (path A).
    MemA,
    /// Stage 3: Hash2 bucket in Mem2 (path B).
    MemB,
}

/// Occupancy breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Entries resident in Mem1 (path A) buckets.
    pub mem_a: u64,
    /// Entries resident in Mem2 (path B) buckets.
    pub mem_b: u64,
    /// Entries resident in the overflow CAM.
    pub cam: u64,
}

impl Occupancy {
    /// Total resident entries.
    pub fn total(&self) -> u64 {
        self.mem_a + self.mem_b + self.cam
    }
}

impl std::ops::AddAssign for Occupancy {
    /// Region-wise accumulation — multi-channel aggregators sum
    /// per-shard occupancies into one system-level view.
    fn add_assign(&mut self, other: Occupancy) {
        self.mem_a += other.mem_a;
        self.mem_b += other.mem_b;
        self.cam += other.cam;
    }
}

/// Table statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Hits per stage.
    pub hits_cam: u64,
    /// Hits in Mem1.
    pub hits_mem_a: u64,
    /// Hits in Mem2.
    pub hits_mem_b: u64,
    /// Lookups that missed all three stages.
    pub misses: u64,
    /// Successful insertions.
    pub inserts: u64,
    /// Insertions that spilled to the CAM (both buckets full).
    pub cam_spills: u64,
    /// Insertions rejected with `TableFull`.
    pub full_rejections: u64,
    /// Deletions.
    pub deletes: u64,
}

/// The Hash-CAM table (functional layer).
///
/// Buckets are stored sparsely, so an 8 M-entry configuration costs
/// memory proportional to its *resident* flows, not its capacity. Each
/// memory's resident buckets are lines of one sparse line store, the
/// line number being the bucket index. A line is the bucket's `K`
/// slots, each `entry_slot_bytes` wide in the [`codec`] wire format
/// ([`bucket_bytes`](Self::bucket_bytes)): the bucket's DRAM bytes. A
/// bucket that deletion empties releases its line, which the next new
/// bucket of that memory takes before the store grows.
///
/// A key no slot can hold ([`codec::check_fit`]) is never resident:
/// lookups answer `None` and inserts refuse it with
/// [`InsertError::KeyDoesNotFit`], before H3, which is built for keys of
/// up to `entry_slot_bytes − 1` bytes, sees it.
///
/// Each slot also holds its flow's [`FlowRecord`] counters, so the flow
/// ID addresses per-flow state directly ([`record`](Self::record)), as
/// FID_GEN intends. One bit per bucket of each memory and per CAM slot
/// marks the resident ones; walks in flow-ID order
/// ([`records_after`](Self::records_after)) sweep those bits by address,
/// as the expiry scan sweeps flow-state memory.
#[derive(Debug)]
pub struct HashCamTable {
    cfg: TableConfig,
    hasher: PairHasher,
    /// Per memory: each resident bucket as the line of its index.
    mems: [SparseStorage; 2],
    /// The counters of each slot's flow: per memory, `K` per arena line
    /// of its store (line × K + slot), then one per CAM slot.
    counters: [Vec<FlowCounters>; 3],
    /// Resident buckets of Mem1 and Mem2, then occupied CAM slots.
    occupied: [Occupied; 3],
    mem_counts: [u64; 2],
    cam: Cam<FlowKey>,
    stats: TableStats,
}

/// Index of the CAM's bitmap in [`HashCamTable::occupied`], after the
/// two memories'.
const CAM_REGION: usize = 2;

/// Where a resident flow's key and counters sit. Arena lines fit `u32`,
/// as a memory has at most `u32::MAX` buckets.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// At this CAM slot.
    Cam(u32),
    /// At slot `slot` of arena line `line` of `path`'s store.
    Mem { path: PathId, line: u32, slot: u8 },
}

/// One bit per unit (a bucket, or a CAM slot), plus a summary bit per
/// 64-unit word, so a walk skips an empty stretch of 4,096 units with
/// one load. The bits are allocated on first need — by
/// [`HashCamTable::reserve`] before a bulk load, or by the first unit
/// set — so a table that never holds a flow pays nothing for them.
#[derive(Debug)]
struct Occupied {
    units: usize,
    /// Empty until allocated; then one bit per unit.
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl Occupied {
    fn new(units: usize) -> Self {
        Occupied {
            units,
            words: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Allocates the bits, all clear, unless they already are.
    fn allocate(&mut self) {
        if self.words.is_empty() {
            let words = self.units.div_ceil(64);
            self.words = vec![0; words];
            self.summary = vec![0; words.div_ceil(64)];
        }
    }

    fn insert(&mut self, unit: usize) {
        self.allocate();
        let word = unit / 64;
        self.words[word] |= 1 << (unit % 64);
        self.summary[word / 64] |= 1 << (word % 64);
    }

    fn remove(&mut self, unit: usize) {
        let word = unit / 64;
        // Unallocated bits hold no unit to clear.
        let Some(bits) = self.words.get_mut(word) else {
            return;
        };
        *bits &= !(1 << (unit % 64));
        if *bits == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
    }

    /// The first set unit at or after `from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.words.get(word)? & (!0 << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        // The next non-empty word, found through the summary.
        let next = word + 1;
        let mut at = next / 64;
        let mut mask = !0 << (next % 64);
        while let Some(&summary) = self.summary.get(at) {
            let bits = summary & mask;
            if bits != 0 {
                let word = at * 64 + bits.trailing_zeros() as usize;
                return Some(word * 64 + self.words[word].trailing_zeros() as usize);
            }
            at += 1;
            mask = !0;
        }
        None
    }

    /// Set units in ascending order, from `from` on.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(from), move |&unit| self.next_from(unit + 1))
    }
}

impl HashCamTable {
    /// Creates a table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`TableConfig::validate`] first for fallible handling.
    pub fn new(cfg: TableConfig) -> Self {
        cfg.validate().expect("invalid table configuration");
        let key_bits = 8 * (cfg.entry_slot_bytes - 1);
        let store = || SparseStorage::with_line_bytes(cfg.bucket_bytes());
        HashCamTable {
            cfg,
            hasher: PairHasher::h3_pair(key_bits, cfg.hash_seed),
            mems: [store(), store()],
            counters: [
                Vec::new(),
                Vec::new(),
                vec![FlowCounters::default(); cfg.cam_capacity],
            ],
            occupied: Self::empty_bitmaps(&cfg),
            mem_counts: [0, 0],
            cam: Cam::new(cfg.cam_capacity),
            stats: TableStats::default(),
        }
    }

    fn empty_bitmaps(cfg: &TableConfig) -> [Occupied; 3] {
        let buckets = cfg.buckets_per_mem as usize;
        [
            Occupied::new(buckets),
            Occupied::new(buckets),
            Occupied::new(cfg.cam_capacity),
        ]
    }

    /// Configuration in force.
    #[inline]
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Number of resident flows.
    pub fn len(&self) -> u64 {
        self.mem_counts[0] + self.mem_counts[1] + self.cam.len() as u64
    }

    /// `true` when no flows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy breakdown per region.
    pub fn occupancy(&self) -> Occupancy {
        Occupancy {
            mem_a: self.mem_counts[0],
            mem_b: self.mem_counts[1],
            cam: self.cam.len() as u64,
        }
    }

    /// Load factor over total capacity.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.cfg.capacity() as f64
    }

    /// The bucket pair `(Mem1 bucket, Mem2 bucket)` for `key`.
    pub fn hash_pair(&self, key: &FlowKey) -> (u32, u32) {
        self.hasher
            .bucket_pair(key.as_bytes(), self.cfg.buckets_per_mem)
    }

    /// The raw 32-bit hash pair for `key`, before bucket reduction.
    ///
    /// [`bucket_pair_from_hashes`](Self::bucket_pair_from_hashes) applied
    /// to these values equals [`hash_pair`](Self::hash_pair); the timed
    /// simulator keeps raw hashes around because the load balancer uses
    /// hash bits directly.
    pub fn raw_hashes(&self, key: &FlowKey) -> (u32, u32) {
        self.hasher.hashes(key.as_bytes())
    }

    /// The bucket pair derived from externally supplied raw hashes
    /// (Table II(A)'s hash-override stimulus).
    pub fn bucket_pair_from_hashes(&self, h1: u32, h2: u32) -> (u32, u32) {
        let b = u64::from(self.cfg.buckets_per_mem);
        (
            ((u64::from(h1) * b) >> 32) as u32,
            ((u64::from(h2) * b) >> 32) as u32,
        )
    }

    /// The bucket pair of `key`, or `None` for a key no slot can hold,
    /// which is never resident.
    fn buckets_of(&self, key: &FlowKey) -> Option<(u32, u32)> {
        codec::check_fit(key, self.cfg.entry_slot_bytes).ok()?;
        Some(self.hash_pair(key))
    }

    /// Three-stage lookup with early exit: the CAM, then `key`'s Mem1
    /// bucket, then its Mem2 bucket.
    pub fn lookup(&mut self, key: &FlowKey) -> Option<(FlowId, LookupStage)> {
        match self.buckets_of(key) {
            Some((b1, b2)) => self.lookup_with_buckets(key, b1, b2),
            None => {
                self.stats.lookups += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stage-1-only search: is `key` resident in the overflow CAM?
    ///
    /// The timed simulator drives the three lookup stages separately (the
    /// CAM is on-chip and answers in one system cycle, the memory stages
    /// go through DDR3), so it needs the CAM stage in isolation. Does not
    /// touch [`TableStats`] — the simulator keeps its own counters.
    pub fn cam_peek(&self, key: &FlowKey) -> Option<FlowId> {
        self.cam
            .peek(key)
            .map(|slot| FlowId::encode(Location::Cam(slot as u32), self.cfg.entries_per_bucket))
    }

    /// Lookup without statistics (for assertions).
    pub fn peek(&self, key: &FlowKey) -> Option<FlowId> {
        self.cam_peek(key).or_else(|| {
            let (b1, b2) = self.buckets_of(key)?;
            self.find_in_buckets(key, b1, b2)
        })
    }

    /// The Mem1-then-Mem2 half of [`peek`](Self::peek), on given buckets.
    fn find_in_buckets(&self, key: &FlowKey, b1: u32, b2: u32) -> Option<FlowId> {
        [(PathId::A, b1), (PathId::B, b2)]
            .into_iter()
            .find_map(|(path, bucket)| {
                let slot = self.find_in_bucket(path, bucket, key)?;
                Some(FlowId::encode(
                    Location::Mem { path, bucket, slot },
                    self.cfg.entries_per_bucket,
                ))
            })
    }

    /// Inserts `key`, preferring its Mem1 bucket, then Mem2, then the CAM
    /// ("Mem Updt" in Figure 1).
    ///
    /// # Errors
    ///
    /// [`InsertError::Duplicate`] if the key is already resident (with
    /// its existing ID); [`InsertError::TableFull`] if both buckets and
    /// the CAM are full; [`InsertError::KeyDoesNotFit`] if no slot can
    /// hold the key.
    pub fn insert(&mut self, key: FlowKey) -> Result<FlowId, InsertError> {
        self.insert_flow(key, FlowCounters::default())
    }

    /// [`insert`](Self::insert) with the flow's counters: preload and
    /// rescale install flows whose record already exists.
    ///
    /// The CAM and Mem2 are searched first, so that the Mem1 bucket,
    /// which takes most new flows, is probed once: found or claimed,
    /// then searched. A key found in Mem2 is looked for in Mem1 as well,
    /// which answers first, as in [`peek`](Self::peek).
    pub(crate) fn insert_flow(
        &mut self,
        key: FlowKey,
        counters: FlowCounters,
    ) -> Result<FlowId, InsertError> {
        codec::check_fit(&key, self.cfg.entry_slot_bytes)?;
        let (b1, b2) = self.hash_pair(&key);
        let existing = self.cam_peek(&key).or_else(|| {
            self.find_in_bucket(PathId::B, b2, &key)?;
            self.find_in_buckets(&key, b1, b2)
        });
        if let Some(existing) = existing {
            return Err(InsertError::Duplicate(existing));
        }
        let k = self.cfg.entries_per_bucket;
        let line = self.claim_bucket(PathId::A, b1);
        let bucket = self.slots(PathId::A, line);
        if let Some(slot) = codec::find_key(bucket, self.cfg.entry_slot_bytes, usize::from(k), &key)
        {
            let at = Location::Mem {
                path: PathId::A,
                bucket: b1,
                slot,
            };
            return Err(InsertError::Duplicate(FlowId::encode(at, k)));
        }
        match self.place_in(PathId::A, b1, line, &key, counters)? {
            Some(id) => Ok(id),
            None => self.insert_at_order(key, counters, &[(PathId::B, b2)]),
        }
    }

    /// Inserts with externally supplied bucket indices, trying `prefer`'s
    /// bucket first. The timed simulator uses this to model the paper's
    /// per-path update blocks: the Flow Match that detects the final miss
    /// (on the LU2 path) raises `Ins_req` to *its own* path's Updt, so
    /// new flows land on the second-lookup path when space permits.
    ///
    /// # Errors
    ///
    /// As for [`insert`](Self::insert).
    ///
    /// # Panics
    ///
    /// Panics if a bucket index is out of range.
    pub fn insert_with_buckets_preferring(
        &mut self,
        key: FlowKey,
        b1: u32,
        b2: u32,
        prefer: PathId,
    ) -> Result<FlowId, InsertError> {
        assert!(
            b1 < self.cfg.buckets_per_mem && b2 < self.cfg.buckets_per_mem,
            "bucket index out of range"
        );
        codec::check_fit(&key, self.cfg.entry_slot_bytes)?;
        if let Some(existing) = self.peek(&key) {
            return Err(InsertError::Duplicate(existing));
        }
        let order = match prefer {
            PathId::A => [(PathId::A, b1), (PathId::B, b2)],
            PathId::B => [(PathId::B, b2), (PathId::A, b1)],
        };
        self.insert_at_order(key, FlowCounters::default(), &order)
    }

    /// Lookup with externally supplied bucket indices (for flows inserted
    /// via hash overrides, whose buckets differ from `hash_pair`).
    pub fn lookup_with_buckets(
        &mut self,
        key: &FlowKey,
        b1: u32,
        b2: u32,
    ) -> Option<(FlowId, LookupStage)> {
        self.stats.lookups += 1;
        if let Some(slot) = self.cam.peek(key) {
            self.stats.hits_cam += 1;
            return Some((
                FlowId::encode(Location::Cam(slot as u32), self.cfg.entries_per_bucket),
                LookupStage::Cam,
            ));
        }
        for (path, bucket, stage) in [
            (PathId::A, b1, LookupStage::MemA),
            (PathId::B, b2, LookupStage::MemB),
        ] {
            if let Some(slot) = self.find_in_bucket(path, bucket, key) {
                match path {
                    PathId::A => self.stats.hits_mem_a += 1,
                    PathId::B => self.stats.hits_mem_b += 1,
                }
                return Some((
                    FlowId::encode(
                        Location::Mem { path, bucket, slot },
                        self.cfg.entries_per_bucket,
                    ),
                    stage,
                ));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Places `key`, which every caller has checked fits a slot, in the
    /// first free slot of `order`'s buckets, else in the CAM; returns its
    /// ID.
    fn insert_at_order(
        &mut self,
        key: FlowKey,
        counters: FlowCounters,
        order: &[(PathId, u32)],
    ) -> Result<FlowId, InsertError> {
        for &(path, bucket) in order {
            let line = self.claim_bucket(path, bucket);
            if let Some(id) = self.place_in(path, bucket, line, &key, counters)? {
                return Ok(id);
            }
        }
        // Both buckets full: spill to the CAM.
        let k = self.cfg.entries_per_bucket;
        match self.cam.insert(key) {
            Ok(slot) => {
                self.counters[CAM_REGION][slot] = counters;
                self.occupied[CAM_REGION].insert(slot);
                self.stats.inserts += 1;
                self.stats.cam_spills += 1;
                Ok(FlowId::encode(Location::Cam(slot as u32), k))
            }
            Err(_) => {
                self.stats.full_rejections += 1;
                Err(InsertError::TableFull)
            }
        }
    }

    /// Places `key` in the first free slot of `path`'s `bucket`, whose
    /// arena line is `line`; `None` when the bucket is full.
    fn place_in(
        &mut self,
        path: PathId,
        bucket: u32,
        line: usize,
        key: &FlowKey,
        counters: FlowCounters,
    ) -> Result<Option<FlowId>, InsertError> {
        let k = self.cfg.entries_per_bucket;
        let free = self
            .slots(path, line)
            .chunks_exact(self.cfg.entry_slot_bytes)
            .position(codec::is_free);
        let Some(slot) = free else {
            return Ok(None);
        };
        codec::write_slot(self.slot_mut(path, line, slot), key)?;
        self.counters[path.index()][line * usize::from(k) + slot] = counters;
        self.mem_counts[path.index()] += 1;
        self.stats.inserts += 1;
        let slot = slot as u8;
        Ok(Some(FlowId::encode(
            Location::Mem { path, bucket, slot },
            k,
        )))
    }

    /// Looks `key` up and inserts it on miss — the paper's per-packet
    /// flow processing operation.
    ///
    /// Returns the flow ID and `true` if the key was newly inserted.
    ///
    /// # Errors
    ///
    /// [`InsertError::TableFull`] and [`InsertError::KeyDoesNotFit`] as
    /// for [`insert`](Self::insert).
    pub fn lookup_or_insert(&mut self, key: FlowKey) -> Result<(FlowId, bool), InsertError> {
        if let Some((id, _)) = self.lookup(&key) {
            return Ok((id, false));
        }
        codec::check_fit(&key, self.cfg.entry_slot_bytes)?;
        let (b1, b2) = self.hash_pair(&key);
        let order = [(PathId::A, b1), (PathId::B, b2)];
        self.insert_at_order(key, FlowCounters::default(), &order)
            .map(|id| (id, true))
    }

    /// Removes `key`, returning its former ID.
    pub fn delete(&mut self, key: &FlowKey) -> Option<FlowId> {
        let fid = self.peek(key)?;
        self.delete_at(fid, key).then_some(fid)
    }

    /// Removes the flow at `fid` if that slot holds `key`, without
    /// hashing the key: a flow placed by a hash override sits outside
    /// its key's hash buckets. Returns whether it removed the flow.
    pub(crate) fn delete_at(&mut self, fid: FlowId, key: &FlowKey) -> bool {
        let Some(at) = self
            .locate(fid)
            .filter(|&at| self.holds(at, key.as_bytes()))
        else {
            return false;
        };
        *self.counters_at(at) = FlowCounters::default();
        match at {
            Slot::Cam(slot) => {
                self.cam.delete_slot(slot as usize);
                self.occupied[CAM_REGION].remove(slot as usize);
            }
            Slot::Mem { path, line, slot } => {
                let line = line as usize;
                codec::clear_slot(self.slot_mut(path, line, usize::from(slot)));
                let emptied = self
                    .slots(path, line)
                    .chunks_exact(self.cfg.entry_slot_bytes)
                    .all(codec::is_free);
                if let (true, Location::Mem { bucket, .. }) =
                    (emptied, fid.decode(self.cfg.entries_per_bucket))
                {
                    self.mems[path.index()].release_line(bucket);
                    self.occupied[path.index()].remove(bucket as usize);
                }
                self.mem_counts[path.index()] -= 1;
            }
        }
        self.stats.deletes += 1;
        true
    }

    /// Places the flow whose key's bytes are `key` at an exact
    /// `location`, with `counters`: the checkpoint-restore path. A bucket
    /// is claimed once, and the key's bytes go into its slot as they
    /// come; only a CAM slot, which holds a [`FlowKey`], makes one.
    ///
    /// Bypasses hashing and statistics — the caller guarantees the
    /// placement came from an identically configured table, so the
    /// bucket pair would hash the same anyway; validation here is purely
    /// structural (bounds, double occupancy, a key some slot and some
    /// [`FlowKey`] hold).
    ///
    /// # Errors
    ///
    /// Returns a static description, and places nothing, when the
    /// location is out of range or already occupied, or when no slot can
    /// hold the key.
    pub(crate) fn restore_at(
        &mut self,
        loc: Location,
        key: &[u8],
        counters: FlowCounters,
    ) -> Result<(), &'static str> {
        if !codec::fits(key.len(), self.cfg.entry_slot_bytes) || key.len() > MAX_KEY_BYTES {
            return Err("flow key does not fit a slot");
        }
        match loc {
            Location::Cam(slot) => {
                let key = FlowKey::new(key).map_err(|_| "flow key does not fit a slot")?;
                self.cam.restore_at(slot as usize, key)?;
                self.occupied[CAM_REGION].insert(slot as usize);
                self.counters[CAM_REGION][slot as usize] = counters;
            }
            Location::Mem { path, bucket, slot } => {
                if bucket >= self.cfg.buckets_per_mem {
                    return Err("bucket index out of range");
                }
                if slot >= self.cfg.entries_per_bucket {
                    return Err("bucket slot out of range");
                }
                // An occupied slot's bucket is resident: the claim adds
                // no line then.
                let line = self.claim_bucket(path, bucket);
                let slot = usize::from(slot);
                let bytes = self.slot_mut(path, line, slot);
                if !codec::is_free(bytes) {
                    return Err("bucket slot already occupied");
                }
                codec::fill_slot(bytes, key);
                let k = usize::from(self.cfg.entries_per_bucket);
                self.counters[path.index()][line * k + slot] = counters;
                self.mem_counts[path.index()] += 1;
            }
        }
        Ok(())
    }

    /// A bucket's `K` slots in the [`codec`] wire format: its DRAM bytes
    /// before burst padding. `None` for a bucket that holds no flow
    /// (every slot free — DRAM's all-zero reset state), so readers never
    /// allocate.
    pub fn bucket_bytes(&self, path: PathId, bucket: u32) -> Option<&[u8]> {
        let line = self.mems[path.index()].line_index(bucket)?;
        Some(self.slots(path, line))
    }

    /// The slot `fid` names, if its bucket is resident (a CAM slot need
    /// only be in range).
    fn locate(&self, fid: FlowId) -> Option<Slot> {
        match fid.decode(self.cfg.entries_per_bucket) {
            Location::Cam(slot) => {
                ((slot as usize) < self.cam.capacity()).then_some(Slot::Cam(slot))
            }
            Location::Mem { path, bucket, slot } => {
                let line = self.mems[path.index()].line_index(bucket)? as u32;
                Some(Slot::Mem { path, line, slot })
            }
        }
    }

    /// `true` when `at` holds the key `key` (its bytes).
    fn holds(&self, at: Slot, key: &[u8]) -> bool {
        match at {
            Slot::Cam(slot) => self
                .cam
                .entry(slot as usize)
                .is_some_and(|k| k.as_bytes() == key),
            Slot::Mem { path, line, slot } => {
                codec::holds(self.slot_bytes(path, line as usize, usize::from(slot)), key)
            }
        }
    }

    /// The record of the flow resident at `fid`: its key, and the
    /// counters the simulator's completions have folded in (all zero for
    /// a flow inserted through this functional layer).
    pub fn record(&self, fid: FlowId) -> Option<FlowRecord> {
        let at = self.locate(fid)?;
        let key = match at {
            Slot::Cam(slot) => *self.cam.entry(slot as usize)?,
            Slot::Mem { path, line, slot } => {
                codec::read_slot(self.slot_bytes(path, line as usize, usize::from(slot)))?
            }
        };
        let (region, i) = self.counter_index(at);
        Some(self.counters[region][i].with_key(key))
    }

    /// Folds one completed packet into the counters of the flow at
    /// `fid`: the first packet of a new flow (`new_flow`) starts them
    /// afresh, any later one updates them.
    ///
    /// # Panics
    ///
    /// Panics unless `fid`'s slot holds `key`. A completion's flow ID is
    /// the slot its lookup matched or its insert filled, and the flow
    /// stays there until it completes: the same-key waiting list holds
    /// its other descriptors, the simulator's own deletions skip keys in
    /// flight, and a user deletion waits while a descriptor of its key
    /// is in the Request Filter or the sequencer queue. No input reaches
    /// this panic.
    pub(crate) fn record_packet(
        &mut self,
        fid: FlowId,
        key: &FlowKey,
        new_flow: bool,
        now_ns: u64,
        now_sys: u64,
        frame_bytes: u64,
    ) {
        let Some(at) = self
            .locate(fid)
            .filter(|&at| self.holds(at, key.as_bytes()))
        else {
            panic!("{fid} does not hold the completing key");
        };
        let counters = self.counters_at(at);
        if new_flow {
            *counters = FlowCounters::first_packet(now_ns, now_sys, frame_bytes);
        } else {
            counters.update(now_ns, now_sys, frame_bytes);
        }
    }

    /// Resident flows strictly after `cursor` (from the first when
    /// `None`), in ascending [`FlowId`] order: Mem1 buckets ascending
    /// (slots ascending within each), then Mem2, then CAM slots. A
    /// cursor need not be resident.
    pub fn records_after(
        &self,
        cursor: Option<FlowId>,
    ) -> impl Iterator<Item = (FlowId, FlowRecord)> + '_ {
        let k = self.cfg.entries_per_bucket;
        // The first position the walk may yield: region, unit, slot.
        let (region, unit, slot) = match cursor.map(|id| id.decode(k)) {
            None => (0, 0, 0),
            Some(Location::Mem { path, bucket, slot }) => {
                (path.index(), bucket as usize, usize::from(slot) + 1)
            }
            Some(Location::Cam(slot)) => (CAM_REGION, slot as usize + 1, 0),
        };
        let start = move |r: usize| if r == region { (unit, slot) } else { (0, 0) };
        let mems = [PathId::A, PathId::B]
            .into_iter()
            .filter(move |path| path.index() >= region)
            .flat_map(move |path| {
                let (first, first_slot) = start(path.index());
                self.occupied[path.index()]
                    .iter_from(first)
                    .flat_map(move |bucket| {
                        let from = if bucket == first { first_slot } else { 0 };
                        self.bucket_records(path, bucket as u32, from)
                    })
            });
        let cam = self.occupied[CAM_REGION]
            .iter_from(start(CAM_REGION).0)
            .filter_map(move |slot| {
                let key = *self.cam.entry(slot)?;
                let id = FlowId::encode(Location::Cam(slot as u32), k);
                Some((id, self.counters[CAM_REGION][slot].with_key(key)))
            });
        mems.chain(cam)
    }

    /// The records of `bucket`'s slots from `from` on.
    fn bucket_records(
        &self,
        path: PathId,
        bucket: u32,
        from: usize,
    ) -> impl Iterator<Item = (FlowId, FlowRecord)> + '_ {
        let k = self.cfg.entries_per_bucket;
        let line = self.mems[path.index()].line_index(bucket);
        line.into_iter().flat_map(move |line| {
            (from..usize::from(k)).filter_map(move |slot| {
                let key = codec::read_slot(self.slot_bytes(path, line, slot))?;
                let counters = self.counters[path.index()][line * usize::from(k) + slot];
                let slot = slot as u8;
                Some((
                    FlowId::encode(Location::Mem { path, bucket, slot }, k),
                    counters.with_key(key),
                ))
            })
        })
    }

    /// Up to `stride` records strictly after `cursor`, in ID order, into
    /// `out` (cleared first): one step of an incremental scan. Returns
    /// the cursor to resume from — the last record returned when the
    /// stride filled, `None` when the walk reached the end and should
    /// wrap around.
    pub(crate) fn scan_after_into(
        &self,
        cursor: Option<FlowId>,
        stride: usize,
        out: &mut Vec<(FlowId, FlowRecord)>,
    ) -> Option<FlowId> {
        out.clear();
        out.extend(self.records_after(cursor).take(stride));
        if out.len() < stride {
            None
        } else {
            out.last().map(|(id, _)| *id)
        }
    }

    /// Reserves room for `additional` more resident flows in `path`'s
    /// memory, so a bulk load of known size grows its store and counters
    /// once: a line per flow, but no more lines than the memory has
    /// buckets. A bulk load also allocates the occupancy bitmaps up
    /// front, whatever its size.
    pub(crate) fn reserve(&mut self, path: PathId, additional: usize) {
        for bits in &mut self.occupied {
            bits.allocate();
        }
        let lines = additional.min(self.cfg.buckets_per_mem as usize);
        self.mems[path.index()].reserve(lines);
        self.counters[path.index()].reserve(lines * usize::from(self.cfg.entries_per_bucket));
    }

    /// Removes every flow.
    pub fn clear(&mut self) {
        for (mem, counters) in self.mems.iter_mut().zip(&mut self.counters) {
            mem.clear();
            counters.clear();
        }
        self.counters[CAM_REGION].fill(FlowCounters::default());
        self.occupied = Self::empty_bitmaps(&self.cfg);
        self.mem_counts = [0, 0];
        self.cam.clear();
    }

    fn find_in_bucket(&self, path: PathId, bucket: u32, key: &FlowKey) -> Option<u8> {
        let bytes = self.bucket_bytes(path, bucket)?;
        let k = usize::from(self.cfg.entries_per_bucket);
        codec::find_key(bytes, self.cfg.entry_slot_bytes, k, key)
    }

    /// The `K` slots of arena line `line` of `path`'s store.
    fn slots(&self, path: PathId, line: usize) -> &[u8] {
        self.mems[path.index()].line_at(line)
    }

    /// The bytes of slot `slot` of arena line `line` of `path`'s store.
    fn slot_bytes(&self, path: PathId, line: usize, slot: usize) -> &[u8] {
        let width = self.cfg.entry_slot_bytes;
        &self.slots(path, line)[slot * width..(slot + 1) * width]
    }

    fn slot_mut(&mut self, path: PathId, line: usize, slot: usize) -> &mut [u8] {
        let width = self.cfg.entry_slot_bytes;
        &mut self.mems[path.index()].line_at_mut(line)[slot * width..(slot + 1) * width]
    }

    /// Which of `counters` holds the counters of slot `at`, and where.
    fn counter_index(&self, at: Slot) -> (usize, usize) {
        match at {
            Slot::Cam(slot) => (CAM_REGION, slot as usize),
            Slot::Mem { path, line, slot } => {
                let k = usize::from(self.cfg.entries_per_bucket);
                (path.index(), line as usize * k + usize::from(slot))
            }
        }
    }

    /// The counters of the flow at `at`.
    fn counters_at(&mut self, at: Slot) -> &mut FlowCounters {
        let (region, i) = self.counter_index(at);
        &mut self.counters[region][i]
    }

    /// The arena line of `bucket` in `path`'s store, claiming an all-zero
    /// line, with zero counters, when the bucket is not resident yet.
    fn claim_bucket(&mut self, path: PathId, bucket: u32) -> usize {
        let p = path.index();
        let line = self.mems[p].claim_line(bucket);
        self.occupied[p].insert(bucket as usize);
        let k = usize::from(self.cfg.entries_per_bucket);
        if self.counters[p].len() <= line * k {
            self.counters[p].resize((line + 1) * k, FlowCounters::default());
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;
    use std::collections::HashSet;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn table() -> HashCamTable {
        HashCamTable::new(TableConfig::test_small())
    }

    #[test]
    fn insert_then_lookup() {
        let mut t = table();
        let id = t.insert(key(1)).unwrap();
        let (found, stage) = t.lookup(&key(1)).unwrap();
        assert_eq!(found, id);
        assert!(matches!(stage, LookupStage::MemA | LookupStage::MemB));
        assert_eq!(t.lookup(&key(2)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected_with_existing_id() {
        let mut t = table();
        let id = t.insert(key(1)).unwrap();
        assert_eq!(t.insert(key(1)), Err(InsertError::Duplicate(id)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_or_insert_reports_novelty() {
        let mut t = table();
        let (id1, new1) = t.lookup_or_insert(key(7)).unwrap();
        assert!(new1);
        let (id2, new2) = t.lookup_or_insert(key(7)).unwrap();
        assert!(!new2);
        assert_eq!(id1, id2);
    }

    #[test]
    fn delete_makes_room() {
        let mut t = table();
        t.insert(key(1)).unwrap();
        let id = t.delete(&key(1)).unwrap();
        assert_eq!(t.peek(&key(1)), None);
        assert!(t.is_empty());
        // Re-insert lands in the same location (bucket unchanged).
        assert_eq!(t.insert(key(1)).unwrap(), id);
        assert_eq!(t.delete(&key(999)), None);
    }

    #[test]
    fn reserve_is_capped_at_the_tables_buckets() {
        let mut t = table();
        assert!(t.occupied.iter().all(|bits| bits.words.is_empty()));
        t.reserve(PathId::B, usize::MAX);
        assert_eq!(
            t.occupied[0].words.len(),
            256 / 64,
            "reserve allocates the bitmaps"
        );
        // Only that memory reserves its store and counters, for no more
        // lines than it has buckets. A `HashMap` rounds its room up to a
        // power-of-two bucket array at 7/8 load, so its index may hold up
        // to twice what it was asked for.
        let cfg = *t.config();
        let buckets = cfg.buckets_per_mem as usize;
        let (arena, index) = t.mems[PathId::B.index()].capacity();
        assert!(arena <= buckets && index <= 2 * buckets);
        let slots = buckets * usize::from(cfg.entries_per_bucket);
        assert!(t.counters[PathId::B.index()].capacity() <= slots);
        assert_eq!(t.mems[PathId::A.index()].capacity(), (0, 0));
        assert_eq!(t.counters[PathId::A.index()].capacity(), 0);
    }

    #[test]
    fn collision_overflow_reaches_cam() {
        // Force every key into bucket (0, 0): both buckets fill at K = 2
        // each, the rest spill to the CAM.
        let mut t = table();
        for i in 0..6 {
            t.insert_with_buckets_preferring(key(i), 0, 0, PathId::A)
                .unwrap();
        }
        let occ = t.occupancy();
        assert_eq!(occ.mem_a, 2);
        assert_eq!(occ.mem_b, 2);
        assert_eq!(occ.cam, 2);
        assert_eq!(t.stats().cam_spills, 2);
        // All six keys findable via their forced buckets; CAM entries hit
        // at stage 1 (plain `lookup` would re-hash and miss the memory
        // residents, which is why override flows use bucket-aware lookup).
        for i in 0..6 {
            assert!(t.lookup_with_buckets(&key(i), 0, 0).is_some(), "key {i}");
        }
    }

    #[test]
    fn table_full_when_cam_exhausted() {
        let mut t = table();
        let spill = 4 + t.config().cam_capacity as u64;
        for i in 0..spill {
            t.insert_with_buckets_preferring(key(i), 3, 7, PathId::A)
                .unwrap();
        }
        assert_eq!(
            t.insert_with_buckets_preferring(key(spill), 3, 7, PathId::A),
            Err(InsertError::TableFull)
        );
        assert_eq!(t.stats().full_rejections, 1);
    }

    #[test]
    fn early_exit_stage_order() {
        let mut t = table();
        // A CAM-resident key must report stage Cam even though it would
        // also match nothing in memory.
        for i in 0..4 {
            t.insert_with_buckets_preferring(key(i), 5, 5, PathId::A)
                .unwrap();
        }
        t.insert_with_buckets_preferring(key(4), 5, 5, PathId::A)
            .unwrap(); // spills to CAM
        let (_, stage) = t.lookup(&key(4)).unwrap();
        assert_eq!(stage, LookupStage::Cam);
    }

    #[test]
    fn occupancy_accumulates_region_wise() {
        let mut a = Occupancy {
            mem_a: 1,
            mem_b: 2,
            cam: 3,
        };
        a += Occupancy {
            mem_a: 10,
            mem_b: 20,
            cam: 30,
        };
        assert_eq!(
            a,
            Occupancy {
                mem_a: 11,
                mem_b: 22,
                cam: 33,
            }
        );
        assert_eq!(a.total(), 66);
    }

    #[test]
    fn occupancy_sums_to_len() {
        let mut t = table();
        for i in 0..100 {
            t.insert(key(i)).unwrap();
        }
        assert_eq!(t.occupancy().total(), t.len());
        assert_eq!(t.len(), 100);
        assert!(t.load_factor() > 0.0);
    }

    #[test]
    fn iter_yields_every_key_once() {
        let mut t = table();
        let mut expect = HashSet::new();
        for i in 0..50 {
            t.insert(key(i)).unwrap();
            expect.insert(key(i));
        }
        let got: HashSet<FlowKey> = t.records_after(None).map(|(_, r)| r.key).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn iter_locations_match_peek() {
        let mut t = table();
        for i in 0..20 {
            t.insert(key(i)).unwrap();
        }
        for (id, r) in t.records_after(None) {
            assert_eq!(t.peek(&r.key), Some(id));
        }
    }

    #[test]
    fn two_choice_balances_better_than_single_bucket() {
        // Statistical smoke test: with 400 keys into 2×256 buckets of
        // K = 2 (cap 1024 + CAM), two-choice should produce few CAM
        // spills.
        let mut t = table();
        for i in 0..400 {
            let _ = t.insert(key(i));
        }
        let occ = t.occupancy();
        assert!(
            occ.cam <= 8,
            "two-choice spilled {} of 400 keys to CAM",
            occ.cam
        );
    }

    #[test]
    fn clear_resets() {
        let mut t = table();
        for i in 0..10 {
            t.insert(key(i)).unwrap();
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.peek(&key(3)), None);
    }

    #[test]
    fn stats_hit_rate() {
        let mut t = table();
        t.insert(key(1)).unwrap();
        t.lookup(&key(1));
        t.lookup(&key(2));
        let s = t.stats();
        assert_eq!(
            (s.lookups, s.hits_cam + s.hits_mem_a + s.hits_mem_b),
            (2, 1)
        );
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn bucket_bytes_default_empty() {
        let mut t = table();
        let (b1, _) = t.hash_pair(&key(1));
        assert_eq!(t.bucket_bytes(PathId::A, b1), None);
        t.insert(key(1)).unwrap();
        let bytes = t.bucket_bytes(PathId::A, b1).expect("resident");
        assert_eq!(bytes.len(), 2 * 16);
        assert_eq!(codec::read_slot(&bytes[..16]), Some(key(1)));
        assert!(codec::is_free(&bytes[16..]));
        t.delete(&key(1));
        assert_eq!(t.bucket_bytes(PathId::A, b1), None, "emptied buckets leave");
    }

    #[test]
    fn a_key_wider_than_a_slot_is_never_resident() {
        let mut t = table();
        // 16-byte slots hold keys of up to 15 bytes; H3 is built for
        // those, and would panic on hashing a wider one.
        let wide = FlowKey::new(&[7u8; 20]).unwrap();
        let refused = InsertError::KeyDoesNotFit {
            key_bytes: 20,
            slot_bytes: 16,
        };
        assert_eq!(t.insert(wide), Err(refused));
        assert_eq!(
            t.insert_with_buckets_preferring(wide, 1, 2, PathId::A),
            Err(refused)
        );
        assert_eq!(t.lookup_or_insert(wide), Err(refused));
        assert_eq!(t.lookup(&wide), None);
        assert_eq!(t.peek(&wide), None);
        assert_eq!(t.delete(&wide), None);
        let empty = FlowKey::default();
        assert!(matches!(
            t.insert(empty),
            Err(InsertError::KeyDoesNotFit { key_bytes: 0, .. })
        ));
        for loc in [
            Location::Cam(0),
            Location::Mem {
                path: PathId::B,
                bucket: 3,
                slot: 0,
            },
        ] {
            assert_eq!(
                t.restore_at(loc, wide.as_bytes(), FlowCounters::default())
                    .err(),
                Some("flow key does not fit a slot")
            );
        }
        assert!(t.is_empty());
        assert_eq!(
            t.bucket_bytes(PathId::B, 3),
            None,
            "a refusal claims no bucket"
        );
        let widest = FlowKey::new(&[7u8; 15]).unwrap();
        assert!(t.insert(widest).is_ok());
        assert!(t.peek(&widest).is_some());
    }

    #[test]
    fn invalid_configs_rejected() {
        for bad in [
            TableConfig {
                buckets_per_mem: 0,
                ..TableConfig::test_small()
            },
            TableConfig {
                entries_per_bucket: 0,
                ..TableConfig::test_small()
            },
            TableConfig {
                cam_capacity: 0,
                ..TableConfig::test_small()
            },
            TableConfig {
                entry_slot_bytes: 1,
                ..TableConfig::test_small()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn prototype_capacity_is_8m_plus_cam() {
        let c = TableConfig::prototype_8m();
        assert_eq!(c.capacity(), (1 << 23) + 1024);
        assert_eq!(c.bursts_per_bucket(32), 1);
    }

    #[test]
    fn restore_at_rebuilds_identical_placements() {
        let mut live = table();
        for i in 0..20 {
            let _ = live.insert(key(i));
        }
        let placements: Vec<(FlowKey, Location)> = live
            .records_after(None)
            .map(|(id, r)| (r.key, id.decode(2)))
            .collect();

        let mut restored = table();
        let counters = FlowCounters::first_packet(5, 6, 7);
        for &(k, loc) in &placements {
            restored
                .restore_at(loc, k.as_bytes(), counters)
                .expect("placement valid");
        }
        assert_eq!(restored.occupancy().total(), live.occupancy().total());
        for (k, loc) in placements {
            let id = FlowId::encode(loc, 2);
            assert_eq!(restored.peek(&k), Some(id));
            assert_eq!(restored.record(id), Some(counters.with_key(k)));
        }
        // Double restore at the same location is rejected.
        let (id0, r0) = restored.records_after(None).next().expect("non-empty");
        assert!(restored
            .restore_at(id0.decode(2), r0.key.as_bytes(), counters)
            .is_err());
    }

    #[test]
    fn restore_at_rejects_out_of_range() {
        let mut t = table();
        let bad_bucket = Location::Mem {
            path: PathId::A,
            bucket: t.config().buckets_per_mem,
            slot: 0,
        };
        let counters = FlowCounters::default();
        assert!(t
            .restore_at(bad_bucket, key(1).as_bytes(), counters)
            .is_err());
        let bad_slot = Location::Mem {
            path: PathId::B,
            bucket: 0,
            slot: t.config().entries_per_bucket,
        };
        assert!(t.restore_at(bad_slot, key(1).as_bytes(), counters).is_err());
    }
}

#[cfg(test)]
mod model {
    //! The line-store layout against a plain reference: every resident bucket
    //! as its own `Vec` of slots, the CAM as a slot vector filled
    //! lowest-first, and the flow records in a `BTreeMap` keyed by flow
    //! ID. Each bucket's bytes are checked against the reference slots
    //! encoded here, without `codec`.

    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use std::ops::Bound;

    use flowlut_traffic::{FiveTuple, FlowKey};
    use proptest::prelude::*;

    use super::*;

    const KEYS: u64 = 16;
    const BUCKETS: u32 = 4;
    const K: u8 = 2;
    const CAM: usize = 3;
    const SLOT_BYTES: usize = 16;

    fn config() -> TableConfig {
        TableConfig {
            buckets_per_mem: BUCKETS,
            entries_per_bucket: K,
            cam_capacity: CAM,
            entry_slot_bytes: SLOT_BYTES,
            ..TableConfig::test_small()
        }
    }

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        /// `insert_flow` with the counters of a first packet.
        InsertFlow(u64),
        /// `insert_with_buckets_preferring` on forced buckets: few
        /// buckets, so they fill, spill to the CAM, and empty on delete.
        InsertForced(u64, u32, u32, PathId),
        Delete(u64),
        /// With the counters of a first packet; includes out-of-range
        /// buckets, slots and CAM slots.
        RestoreAt(u64, Location),
        /// A completion of a resident flow (skipped for an absent key).
        Packet(u64, bool, u16),
        Clear,
    }

    fn path() -> impl Strategy<Value = PathId> {
        prop_oneof![Just(PathId::A), Just(PathId::B)]
    }

    fn location() -> impl Strategy<Value = Location> {
        prop_oneof![
            (path(), 0..BUCKETS + 2, 0..K + 1).prop_map(|(path, bucket, slot)| Location::Mem {
                path,
                bucket,
                slot
            }),
            (0..CAM as u32 + 2).prop_map(Location::Cam),
        ]
    }

    /// Forced inserts, deletes and packets are listed twice to weight
    /// them.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..KEYS).prop_map(Op::Insert),
            (0..KEYS).prop_map(Op::InsertFlow),
            (0..KEYS, 0..BUCKETS, 0..BUCKETS, path())
                .prop_map(|(k, b1, b2, p)| Op::InsertForced(k, b1, b2, p)),
            (0..KEYS, 0..BUCKETS, 0..BUCKETS, path())
                .prop_map(|(k, b1, b2, p)| Op::InsertForced(k, b1, b2, p)),
            (0..KEYS).prop_map(Op::Delete),
            (0..KEYS).prop_map(Op::Delete),
            (0..KEYS, location()).prop_map(|(k, loc)| Op::RestoreAt(k, loc)),
            (0..KEYS, any::<bool>(), 1..1500u16).prop_map(|(k, n, b)| Op::Packet(k, n, b)),
            (0..KEYS, any::<bool>(), 1..1500u16).prop_map(|(k, n, b)| Op::Packet(k, n, b)),
            Just(Op::Clear),
        ]
    }

    #[derive(Debug)]
    struct Reference {
        buckets: HashMap<(PathId, u32), Vec<Option<FlowKey>>>,
        cam: Vec<Option<FlowKey>>,
        records: BTreeMap<FlowId, FlowRecord>,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                buckets: HashMap::new(),
                cam: vec![None; CAM],
                records: BTreeMap::new(),
            }
        }

        fn peek(&self, (b1, b2): (u32, u32), key: &FlowKey) -> Option<Location> {
            if let Some(slot) = self.cam.iter().position(|s| s.as_ref() == Some(key)) {
                return Some(Location::Cam(slot as u32));
            }
            [(PathId::A, b1), (PathId::B, b2)]
                .into_iter()
                .find_map(|(path, bucket)| {
                    let slots = self.buckets.get(&(path, bucket))?;
                    let slot = slots.iter().position(|s| s.as_ref() == Some(key))? as u8;
                    Some(Location::Mem { path, bucket, slot })
                })
        }

        fn insert(
            &mut self,
            order: [(PathId, u32); 2],
            key: FlowKey,
            counters: FlowCounters,
        ) -> Option<Location> {
            let loc = self.place(order, key)?;
            self.records.insert(id(loc), counters.with_key(key));
            Some(loc)
        }

        fn place(&mut self, order: [(PathId, u32); 2], key: FlowKey) -> Option<Location> {
            for (path, bucket) in order {
                let slots = self
                    .buckets
                    .entry((path, bucket))
                    .or_insert_with(|| vec![None; usize::from(K)]);
                if let Some(free) = slots.iter().position(Option::is_none) {
                    slots[free] = Some(key);
                    let slot = free as u8;
                    return Some(Location::Mem { path, bucket, slot });
                }
            }
            let free = self.cam.iter().position(Option::is_none)?;
            self.cam[free] = Some(key);
            Some(Location::Cam(free as u32))
        }

        fn delete(&mut self, (b1, b2): (u32, u32), key: &FlowKey) -> Option<Location> {
            let loc = self.unplace((b1, b2), key)?;
            self.records.remove(&id(loc));
            Some(loc)
        }

        fn unplace(&mut self, (b1, b2): (u32, u32), key: &FlowKey) -> Option<Location> {
            if let Some(slot) = self.cam.iter().position(|s| s.as_ref() == Some(key)) {
                self.cam[slot] = None;
                return Some(Location::Cam(slot as u32));
            }
            for (path, bucket) in [(PathId::A, b1), (PathId::B, b2)] {
                let Some(slots) = self.buckets.get_mut(&(path, bucket)) else {
                    continue;
                };
                if let Some(slot) = slots.iter().position(|s| s.as_ref() == Some(key)) {
                    slots[slot] = None;
                    if slots.iter().all(Option::is_none) {
                        self.buckets.remove(&(path, bucket));
                    }
                    let slot = slot as u8;
                    return Some(Location::Mem { path, bucket, slot });
                }
            }
            None
        }

        fn restore_at(&mut self, key: FlowKey, loc: Location, counters: FlowCounters) -> bool {
            let target = match loc {
                Location::Cam(slot) => self.cam.get_mut(slot as usize),
                Location::Mem { path, bucket, slot } if bucket < BUCKETS && slot < K => self
                    .buckets
                    .entry((path, bucket))
                    .or_insert_with(|| vec![None; usize::from(K)])
                    .get_mut(usize::from(slot)),
                Location::Mem { .. } => None,
            };
            match target {
                Some(free @ None) => {
                    *free = Some(key);
                    self.records.insert(id(loc), counters.with_key(key));
                    true
                }
                _ => false,
            }
        }

        fn occupancy(&self) -> Occupancy {
            let count = |path| {
                self.buckets
                    .iter()
                    .filter(|((p, _), _)| *p == path)
                    .map(|(_, slots)| slots.iter().flatten().count() as u64)
                    .sum()
            };
            Occupancy {
                mem_a: count(PathId::A),
                mem_b: count(PathId::B),
                cam: self.cam.iter().flatten().count() as u64,
            }
        }

        fn placements(&self) -> Vec<(FlowKey, Location)> {
            let mem = self.buckets.iter().flat_map(|(&(path, bucket), slots)| {
                slots.iter().enumerate().filter_map(move |(slot, s)| {
                    let slot = slot as u8;
                    s.map(|key| (key, Location::Mem { path, bucket, slot }))
                })
            });
            let cam = self
                .cam
                .iter()
                .enumerate()
                .filter_map(|(slot, s)| s.map(|key| (key, Location::Cam(slot as u32))));
            let mut placements: Vec<_> = mem.chain(cam).collect();
            placements.sort_by_key(|&(_, loc)| id(loc));
            placements
        }
    }

    fn id(loc: Location) -> FlowId {
        FlowId::encode(loc, K)
    }

    /// `slots` in the wire format: per slot a length byte, the key
    /// bytes, zero padding.
    fn encode(slots: &[Option<FlowKey>]) -> Vec<u8> {
        let mut bytes = vec![0u8; slots.len() * SLOT_BYTES];
        for (i, key) in slots.iter().enumerate() {
            if let Some(key) = key {
                let at = i * SLOT_BYTES;
                bytes[at] = key.len() as u8;
                bytes[at + 1..at + 1 + key.len()].copy_from_slice(key.as_bytes());
            }
        }
        bytes
    }

    /// Every location of the model's geometry, plus cursors past the end
    /// of each memory and of the CAM.
    fn cursors() -> Vec<FlowId> {
        let mut all = Vec::new();
        for path in [PathId::A, PathId::B] {
            for bucket in 0..=BUCKETS {
                for slot in 0..K {
                    all.push(id(Location::Mem { path, bucket, slot }));
                }
            }
        }
        all.extend((0..=CAM as u32).map(|slot| id(Location::Cam(slot))));
        all
    }

    fn bit(bits: &Occupied, unit: usize) -> bool {
        bits.words
            .get(unit / 64)
            .is_some_and(|word| word >> (unit % 64) & 1 == 1)
    }

    /// Each memory's resident buckets own distinct arena lines of its
    /// store, and the arena never grew past `peak` lines (the most
    /// buckets of that memory resident at once), so emptied lines were
    /// reused. Empty slots, and so released lines, are all zero and hold
    /// zero counters, and each bitmap bit is set exactly when its bucket
    /// or CAM slot is resident, with a summary bit exactly over each
    /// non-empty word.
    fn assert_slab_consistent(t: &HashCamTable, peak: [usize; 2]) {
        let k = usize::from(K);
        for path in [PathId::A, PathId::B] {
            let p = path.index();
            let lines = t.counters[p].len() / k;
            assert!(lines <= peak[p], "{lines} lines for {} buckets", peak[p]);
            let mut owned = Vec::new();
            for bucket in 0..BUCKETS {
                let line = t.mems[p].line_index(bucket);
                let set = bit(&t.occupied[p], bucket as usize);
                assert_eq!(set, line.is_some(), "bucket {bucket} of {path}");
                owned.extend(line);
            }
            let resident = owned.len();
            owned.sort_unstable();
            owned.dedup();
            assert_eq!(owned.len(), resident, "lines shared");
            assert!(owned.iter().all(|&line| line < lines));
            for line in 0..lines {
                for slot in 0..k {
                    let bytes = t.slot_bytes(path, line, slot);
                    if codec::is_free(bytes) {
                        assert!(bytes.iter().all(|&b| b == 0), "{path} line {line}");
                        let counters = t.counters[p][line * k + slot];
                        assert_eq!(counters, FlowCounters::default(), "{path} line {line}");
                    }
                }
            }
        }
        for slot in 0..CAM {
            let resident = t.cam.entry(slot).is_some();
            assert_eq!(
                bit(&t.occupied[CAM_REGION], slot),
                resident,
                "CAM slot {slot}"
            );
            if !resident {
                assert_eq!(t.counters[CAM_REGION][slot], FlowCounters::default());
            }
        }
        for bits in &t.occupied {
            for (w, &word) in bits.words.iter().enumerate() {
                assert_eq!(bits.summary[w / 64] >> (w % 64) & 1 == 1, word != 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn slab_table_matches_per_bucket_reference(
            ops in prop::collection::vec(op(), 1..120),
            strides in prop::collection::vec(1..6usize, 8),
        ) {
            let mut t = HashCamTable::new(config());
            let mut r = Reference::new();
            let mut peak = [0; 2];
            let mut out = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                // A clock that never runs backwards, for the counters.
                let now = step as u64 * 100;
                match op {
                    Op::Insert(i) => {
                        let pair = t.hash_pair(&key(i));
                        let expected = match r.peek(pair, &key(i)) {
                            Some(loc) => Err(InsertError::Duplicate(id(loc))),
                            None => r
                                .insert([(PathId::A, pair.0), (PathId::B, pair.1)], key(i), FlowCounters::default())
                                .map(id)
                                .ok_or(InsertError::TableFull),
                        };
                        prop_assert_eq!(t.insert(key(i)), expected);
                    }
                    Op::InsertFlow(i) => {
                        let counters = FlowCounters::first_packet(now, step as u64, i);
                        let pair = t.hash_pair(&key(i));
                        let expected = match r.peek(pair, &key(i)) {
                            Some(loc) => Err(InsertError::Duplicate(id(loc))),
                            None => r
                                .insert([(PathId::A, pair.0), (PathId::B, pair.1)], key(i), counters)
                                .map(id)
                                .ok_or(InsertError::TableFull),
                        };
                        prop_assert_eq!(t.insert_flow(key(i), counters), expected);
                    }
                    Op::InsertForced(i, b1, b2, prefer) => {
                        let expected = match r.peek(t.hash_pair(&key(i)), &key(i)) {
                            Some(loc) => Err(InsertError::Duplicate(id(loc))),
                            None => {
                                let order = match prefer {
                                    PathId::A => [(PathId::A, b1), (PathId::B, b2)],
                                    PathId::B => [(PathId::B, b2), (PathId::A, b1)],
                                };
                                r.insert(order, key(i), FlowCounters::default())
                                    .map(id)
                                    .ok_or(InsertError::TableFull)
                            }
                        };
                        let got = t.insert_with_buckets_preferring(key(i), b1, b2, prefer);
                        prop_assert_eq!(got, expected);
                    }
                    Op::Delete(i) => {
                        let expected = r.delete(t.hash_pair(&key(i)), &key(i)).map(id);
                        prop_assert_eq!(t.delete(&key(i)), expected);
                    }
                    Op::RestoreAt(i, loc) => {
                        let counters = FlowCounters::first_packet(now, step as u64, i);
                        let accepted = r.restore_at(key(i), loc, counters);
                        let got = t.restore_at(loc, key(i).as_bytes(), counters);
                        prop_assert_eq!(got.is_ok(), accepted, "{:?}", loc);
                    }
                    Op::Packet(i, new_flow, bytes) => {
                        if let Some(fid) = r.peek(t.hash_pair(&key(i)), &key(i)).map(id) {
                            let bytes = u64::from(bytes);
                            let record = r.records.get_mut(&fid).expect("placed flows have records");
                            if new_flow {
                                *record = FlowRecord::first_packet(key(i), now, step as u64, bytes);
                            } else {
                                record.update(now, step as u64, bytes);
                            }
                            t.record_packet(fid, &key(i), new_flow, now, step as u64, bytes);
                        }
                    }
                    Op::Clear => {
                        t.clear();
                        r = Reference::new();
                        peak = [0; 2];
                    }
                }
                for (p, path) in [PathId::A, PathId::B].into_iter().enumerate() {
                    let resident = r.buckets.keys().filter(|&&(q, _)| q == path).count();
                    peak[p] = peak[p].max(resident);
                }
                for path in [PathId::A, PathId::B] {
                    for bucket in 0..BUCKETS {
                        let expected = r.buckets.get(&(path, bucket)).map(|slots| encode(slots));
                        prop_assert_eq!(t.bucket_bytes(path, bucket), expected.as_deref());
                    }
                }
                for i in 0..KEYS {
                    let expected = r.peek(t.hash_pair(&key(i)), &key(i)).map(id);
                    prop_assert_eq!(t.peek(&key(i)), expected);
                }
                prop_assert_eq!(t.occupancy(), r.occupancy());
                let placements: Vec<_> = t
                    .records_after(None)
                    .map(|(fid, record)| (record.key, fid.decode(K)))
                    .collect();
                prop_assert_eq!(placements, r.placements());
                let walk: Vec<_> = r.records.iter().map(|(&id, &r)| (id, r)).collect();
                prop_assert_eq!(t.records_after(None).collect::<Vec<_>>(), walk);
                for (n, cursor) in cursors().into_iter().enumerate() {
                    prop_assert_eq!(t.record(cursor), r.records.get(&cursor).copied());
                    let stride = strides[n % strides.len()];
                    let resume = t.scan_after_into(Some(cursor), stride, &mut out);
                    let expected: Vec<_> = r
                        .records
                        .range((Bound::Excluded(cursor), Bound::Unbounded))
                        .take(stride)
                        .map(|(&id, &r)| (id, r))
                        .collect();
                    prop_assert_eq!(&out, &expected, "stride {} after {}", stride, cursor);
                    let full = expected.len() == stride;
                    prop_assert_eq!(resume, expected.last().map(|(id, _)| *id).filter(|_| full));
                }
                assert_slab_consistent(&t, peak);
            }
        }

        /// The bitmap's next-set-unit search against a set, over enough
        /// units to span several summary words.
        #[test]
        fn occupied_finds_the_next_set_unit(
            ops in prop::collection::vec((any::<bool>(), 0..3 * 4096usize), 1..200),
            probes in prop::collection::vec(0..3 * 4096 + 70usize, 16),
        ) {
            let mut bits = Occupied::new(3 * 4096 - 5);
            let mut set = BTreeSet::new();
            for (add, unit) in ops {
                let unit = unit.min(3 * 4096 - 6);
                if add {
                    bits.insert(unit);
                    set.insert(unit);
                } else {
                    bits.remove(unit);
                    set.remove(&unit);
                }
                for &from in &probes {
                    prop_assert_eq!(bits.next_from(from), set.range(from..).next().copied());
                }
            }
            prop_assert_eq!(bits.iter_from(0).collect::<Vec<_>>(), set.into_iter().collect::<Vec<_>>());
        }
    }
}
