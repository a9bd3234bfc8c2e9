//! Multi-path multi-hashing lookup — the paper's stated future work.
//!
//! The conclusion proposes: *"A multi-path multi-hashing lookup could be
//! considered to replace the current dual-hash scheme, for operating at
//! a higher Ethernet link rate."* [`MultiHashTable`] generalises the
//! two-choice [`HashCamTable`](crate::table::HashCamTable) to `d`
//! memories with `d` independent hash functions: lookups pipeline
//! CAM → Mem₁ → … → Mem_d with early exit, and insertion takes the first
//! free candidate bucket before spilling to the CAM.
//!
//! The trade the generalisation explores (the `multipath_*` rows of the
//! `ablations` bench): more paths raise the usable load factor and cut CAM spill,
//! but each additional path adds a memory channel and raises the
//! worst-case probes per lookup — exactly the dimensioning question a
//! >40 GbE design would face.

use std::collections::HashMap;

use flowlut_cam::Cam;
use flowlut_hash::{H3Hash, HashFunction};
use flowlut_traffic::FlowKey;

use crate::error::{ConfigError, InsertError};

/// A location in the d-path table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiLocation {
    /// Overflow CAM slot.
    Cam(u32),
    /// Memory `path` (0-based), bucket, slot.
    Mem {
        /// Which of the `d` memories.
        path: u8,
        /// Bucket index within that memory.
        bucket: u32,
        /// Entry slot within the bucket.
        slot: u8,
    },
}

/// Configuration for [`MultiHashTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiHashConfig {
    /// Number of paths/memories (the paper's scheme is `d = 2`).
    pub paths: u8,
    /// Buckets per memory.
    pub buckets_per_mem: u32,
    /// Entry slots per bucket.
    pub entries_per_bucket: u8,
    /// Overflow CAM capacity.
    pub cam_capacity: usize,
    /// Hash seed.
    pub hash_seed: u64,
}

impl MultiHashConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero dimensions or fewer than two
    /// paths (one path is the single-hash baseline, not this structure).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.paths < 2 {
            return Err(ConfigError::new("multi-path table needs at least 2 paths"));
        }
        if self.buckets_per_mem == 0 || self.entries_per_bucket == 0 {
            return Err(ConfigError::new("table dimensions must be non-zero"));
        }
        if self.cam_capacity == 0 {
            return Err(ConfigError::new("cam_capacity must be non-zero"));
        }
        Ok(())
    }

    /// Total capacity across memories and CAM.
    pub fn capacity(&self) -> u64 {
        u64::from(self.paths) * u64::from(self.buckets_per_mem) * u64::from(self.entries_per_bucket)
            + self.cam_capacity as u64
    }
}

/// Statistics of the d-path table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiHashStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Memory-bucket probes issued across all lookups (the bandwidth
    /// currency; early exit keeps this below `d` per lookup on average).
    pub probes: u64,
    /// Hits at any stage.
    pub hits: u64,
    /// Inserts that spilled to the CAM.
    pub cam_spills: u64,
    /// Inserts rejected as full.
    pub full_rejections: u64,
}

/// The d-path multi-hashing table (functional layer).
#[derive(Debug)]
pub struct MultiHashTable {
    cfg: MultiHashConfig,
    hashes: Vec<H3Hash>,
    mems: Vec<HashMap<u32, Vec<Option<FlowKey>>>>,
    counts: Vec<u64>,
    cam: Cam<FlowKey>,
    stats: MultiHashStats,
}

impl MultiHashTable {
    /// Creates a table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`MultiHashConfig::validate`] for fallible handling.
    pub fn new(cfg: MultiHashConfig) -> Self {
        cfg.validate().expect("invalid multi-hash configuration");
        MultiHashTable {
            hashes: (0..cfg.paths)
                .map(|i| {
                    H3Hash::with_seed(
                        8 * flowlut_traffic::MAX_KEY_BYTES,
                        cfg.hash_seed ^ (0xD00 + u64::from(i)),
                    )
                })
                .collect(),
            mems: (0..cfg.paths).map(|_| HashMap::new()).collect(),
            counts: vec![0; usize::from(cfg.paths)],
            cam: Cam::new(cfg.cam_capacity),
            cfg,
            stats: MultiHashStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MultiHashStats {
        &self.stats
    }

    /// Resident keys.
    pub fn len(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.cam.len() as u64
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load factor over total capacity.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.cfg.capacity() as f64
    }

    fn bucket_of(&self, path: usize, key: &FlowKey) -> u32 {
        self.hashes[path].bucket(key.as_bytes(), self.cfg.buckets_per_mem)
    }

    /// Pipelined lookup with early exit: CAM first, then each memory in
    /// path order. Returns the location and the number of memory probes
    /// this lookup needed (0 for CAM hits).
    pub fn lookup(&mut self, key: &FlowKey) -> Option<(MultiLocation, u32)> {
        self.stats.lookups += 1;
        if let Some(slot) = self.cam.peek(key) {
            self.stats.hits += 1;
            return Some((MultiLocation::Cam(slot as u32), 0));
        }
        for path in 0..usize::from(self.cfg.paths) {
            self.stats.probes += 1;
            let bucket = self.bucket_of(path, key);
            if let Some(slots) = self.mems[path].get(&bucket) {
                if let Some(slot) = slots.iter().position(|s| s.as_ref() == Some(key)) {
                    self.stats.hits += 1;
                    return Some((
                        MultiLocation::Mem {
                            path: path as u8,
                            bucket,
                            slot: slot as u8,
                        },
                        path as u32 + 1,
                    ));
                }
            }
        }
        None
    }

    /// Inserts `key` into the first candidate bucket with a free slot,
    /// spilling to the CAM when all `d` buckets are full.
    ///
    /// # Errors
    ///
    /// [`InsertError::Duplicate`] is **not** detected here (callers
    /// search first, as the hardware does); [`InsertError::TableFull`]
    /// when every bucket and the CAM are full.
    pub fn insert(&mut self, key: FlowKey) -> Result<MultiLocation, InsertError> {
        let k = usize::from(self.cfg.entries_per_bucket);
        for path in 0..usize::from(self.cfg.paths) {
            let bucket = self.bucket_of(path, &key);
            let slots = self.mems[path]
                .entry(bucket)
                .or_insert_with(|| vec![None; k]);
            if let Some(slot) = slots.iter().position(|s| s.is_none()) {
                slots[slot] = Some(key);
                self.counts[path] += 1;
                return Ok(MultiLocation::Mem {
                    path: path as u8,
                    bucket,
                    slot: slot as u8,
                });
            }
        }
        match self.cam.insert(key) {
            Ok(slot) => {
                self.stats.cam_spills += 1;
                Ok(MultiLocation::Cam(slot as u32))
            }
            Err(_) => {
                self.stats.full_rejections += 1;
                Err(InsertError::TableFull)
            }
        }
    }

    /// Removes `key`, returning its former location.
    pub fn delete(&mut self, key: &FlowKey) -> Option<MultiLocation> {
        if let Some(slot) = self.cam.delete(key) {
            return Some(MultiLocation::Cam(slot as u32));
        }
        for path in 0..usize::from(self.cfg.paths) {
            let bucket = self.bucket_of(path, key);
            if let Some(slots) = self.mems[path].get_mut(&bucket) {
                if let Some(slot) = slots.iter().position(|s| s.as_ref() == Some(key)) {
                    slots[slot] = None;
                    if slots.iter().all(|s| s.is_none()) {
                        self.mems[path].remove(&bucket);
                    }
                    self.counts[path] -= 1;
                    return Some(MultiLocation::Mem {
                        path: path as u8,
                        bucket,
                        slot: slot as u8,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn cfg(paths: u8, buckets: u32) -> MultiHashConfig {
        MultiHashConfig {
            paths,
            buckets_per_mem: buckets,
            entries_per_bucket: 2,
            cam_capacity: 64,
            hash_seed: 0xFACE,
        }
    }

    #[test]
    fn roundtrip() {
        let mut t = MultiHashTable::new(cfg(3, 64));
        let loc = t.insert(key(1)).unwrap();
        let (found, probes) = t.lookup(&key(1)).unwrap();
        assert_eq!(found, loc);
        assert!(probes <= 3);
        assert_eq!(t.delete(&key(1)), Some(loc));
        assert!(t.lookup(&key(1)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn more_paths_spill_less_at_same_capacity() {
        // Equal memory capacity (3072 slots), loaded to 85% of it, with
        // a CAM roomy enough that neither configuration saturates it.
        let spills = |paths: u8| {
            let buckets = 1536 / u32::from(paths);
            let mut t = MultiHashTable::new(MultiHashConfig {
                cam_capacity: 1024,
                ..cfg(paths, buckets)
            });
            let n = (3072.0 * 0.85) as u64;
            for i in 0..n {
                let _ = t.insert(key(i));
            }
            t.stats().cam_spills
        };
        let d2 = spills(2);
        let d4 = spills(4);
        assert!(
            d4 < d2,
            "4 paths should spill less than 2 at equal capacity: {d4} vs {d2}"
        );
    }

    #[test]
    fn early_exit_keeps_probes_low_on_hits() {
        let mut t = MultiHashTable::new(cfg(4, 256));
        for i in 0..500 {
            t.insert(key(i)).unwrap();
        }
        let before = *t.stats();
        for i in 0..500 {
            assert!(t.lookup(&key(i)).is_some());
        }
        let probes = t.stats().probes - before.probes;
        let per_lookup = probes as f64 / 500.0;
        // Most keys land on the first path at low load: early exit keeps
        // the average well below d = 4.
        assert!(per_lookup < 2.0, "probes/lookup {per_lookup}");
    }

    #[test]
    fn misses_cost_d_probes() {
        let mut t = MultiHashTable::new(cfg(3, 64));
        let before = t.stats().probes;
        assert!(t.lookup(&key(9999)).is_none());
        assert_eq!(t.stats().probes - before, 3);
    }

    #[test]
    fn table_full_reported() {
        let mut t = MultiHashTable::new(MultiHashConfig {
            paths: 2,
            buckets_per_mem: 1,
            entries_per_bucket: 1,
            cam_capacity: 1,
            hash_seed: 0,
        });
        let mut full = false;
        for i in 0..10 {
            if t.insert(key(i)).is_err() {
                full = true;
                break;
            }
        }
        assert!(full);
        assert!(t.stats().full_rejections > 0);
    }

    #[test]
    fn config_validation() {
        assert!(cfg(1, 64).validate().is_err());
        assert!(cfg(2, 0).validate().is_err());
        assert!(cfg(2, 64).validate().is_ok());
        assert_eq!(cfg(2, 64).capacity(), 2 * 64 * 2 + 64);
    }
}
