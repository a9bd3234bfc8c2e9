//! Two-function cuckoo hashing with kick-out insertion.

use flowlut_core::backend::FlowStore;
use flowlut_hash::{H3Hash, HashFunction};
use flowlut_traffic::FlowKey;

use crate::traits::{full_error, FullError, OpStats};

/// A two-table cuckoo hash (Thinh et al., the paper's reference \[7\]).
///
/// Lookup probes exactly two buckets — the O(1) guarantee that makes
/// cuckoo attractive — but insertion may *displace* resident keys in a
/// chain of kicks, bounded by `max_kicks`. The paper's stated drawback,
/// "the nondeterministic time to build up a hash table", is directly
/// observable here via [`OpStats::relocations`].
#[derive(Debug)]
pub struct CuckooTable {
    hashes: [H3Hash; 2],
    tables: [Vec<Option<FlowKey>>; 2],
    /// Homeless victims of aborted kick chains (a small on-chip stash,
    /// as practical cuckoo implementations keep).
    stash: Vec<FlowKey>,
    stash_capacity: usize,
    max_kicks: usize,
    len: usize,
    stats: OpStats,
}

impl CuckooTable {
    /// Creates a cuckoo table with two sub-tables of `buckets_per_table`
    /// single-entry cells each. `_k` is accepted for interface symmetry
    /// with the bucketised baselines but classic cuckoo uses one cell per
    /// bucket, so it must be ≥ 1 and only 1 is modelled.
    ///
    /// # Panics
    ///
    /// Panics if `buckets_per_table`, `_k` or `max_kicks` is zero.
    pub fn new(buckets_per_table: u32, _k: usize, max_kicks: usize, seed: u64) -> Self {
        assert!(buckets_per_table > 0 && _k > 0 && max_kicks > 0);
        CuckooTable {
            hashes: [
                H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0xA5A5),
                H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0x5A5A),
            ],
            tables: [
                vec![None; buckets_per_table as usize],
                vec![None; buckets_per_table as usize],
            ],
            stash: Vec::new(),
            stash_capacity: 8,
            max_kicks,
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn cell_of(&self, table: usize, key: &FlowKey) -> usize {
        self.hashes[table].bucket(key.as_bytes(), self.tables[table].len() as u32) as usize
    }
}

impl FlowStore for CuckooTable {
    fn name(&self) -> &'static str {
        "cuckoo"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        if self.contains(&key) {
            return Ok(false);
        }
        self.stats.inserts += 1;
        let mut cur = key;
        let mut table = 0usize;
        for _ in 0..=self.max_kicks {
            let cell = self.cell_of(table, &cur);
            self.stats.mem_reads += 1;
            match self.tables[table][cell] {
                None => {
                    self.tables[table][cell] = Some(cur);
                    self.stats.mem_writes += 1;
                    self.len += 1;
                    return Ok(true);
                }
                Some(resident) => {
                    // Kick the resident out and continue with it in the
                    // other table.
                    self.tables[table][cell] = Some(cur);
                    self.stats.mem_writes += 1;
                    self.stats.relocations += 1;
                    cur = resident;
                    table ^= 1;
                }
            }
        }
        // Kick budget exhausted: `cur` is the homeless victim of the
        // chain. Park it in the stash so no resident key is ever lost;
        // a full stash means the structure has genuinely failed.
        if self.stash.len() < self.stash_capacity {
            self.stash.push(cur);
            self.stats.cam_spills += 1;
            self.len += 1; // the new key landed; the victim stays resident
            Ok(true)
        } else {
            // Stash full: the chain tail is dropped, exactly as a
            // hardware pipeline with a full victim buffer would drop it.
            // The new key *is* resident; one previously resident key was
            // lost (net length unchanged).
            self.stats.rejected += 1;
            Err(full_error(self, key))
        }
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.stats.lookups += 1;
        self.stats.mem_reads += 2;
        if self.stash.contains(key) {
            return true;
        }
        (0..2).any(|t| {
            let cell = self.cell_of(t, key);
            self.tables[t][cell].as_ref() == Some(key)
        })
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        self.stats.mem_reads += 2;
        if let Some(i) = self.stash.iter().position(|k| k == key) {
            self.stash.swap_remove(i);
            self.len -= 1;
            return true;
        }
        for t in 0..2 {
            let cell = self.cell_of(t, key);
            if self.tables[t][cell].as_ref() == Some(key) {
                self.tables[t][cell] = None;
                self.stats.mem_writes += 1;
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn len(&self) -> u64 {
        self.len as u64
    }

    fn capacity(&self) -> u64 {
        (self.tables[0].len() + self.tables[1].len() + self.stash_capacity) as u64
    }

    fn op_stats(&self) -> OpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn roundtrip() {
        let mut t = CuckooTable::new(128, 1, 100, 1);
        t.insert(key(1)).unwrap();
        assert!(t.contains(&key(1)));
        assert!(t.remove(&key(1)));
        assert!(!t.contains(&key(1)));
    }

    #[test]
    fn lookup_is_exactly_two_probes() {
        let mut t = CuckooTable::new(128, 1, 100, 1);
        for i in 0..50 {
            t.insert(key(i)).unwrap();
        }
        let before = t.op_stats().mem_reads;
        for i in 0..50 {
            assert!(t.contains(&key(i)));
        }
        assert_eq!(t.op_stats().mem_reads - before, 100);
    }

    #[test]
    fn kicks_happen_and_membership_survives() {
        let mut t = CuckooTable::new(64, 1, 500, 3);
        let mut inserted = Vec::new();
        for i in 0..60 {
            if t.insert(key(i)).is_ok() {
                inserted.push(i);
            }
        }
        assert!(
            t.op_stats().relocations > 0,
            "50%-loaded cuckoo should have kicked at least once"
        );
        for &i in &inserted {
            assert!(t.contains(&key(i)), "key {i} lost after kicks");
        }
    }

    #[test]
    fn build_time_is_nondeterministic_in_load() {
        // The paper's criticism: kick chains grow with load. Compare the
        // relocation count for the first vs the last quarter of inserts.
        let mut t = CuckooTable::new(256, 1, 1000, 9);
        let mut early = 0;
        let mut late = 0;
        for i in 0..200 {
            let before = t.op_stats().relocations;
            let _ = t.insert(key(i));
            let kicks = t.op_stats().relocations - before;
            if i < 50 {
                early += kicks;
            } else if i >= 150 {
                late += kicks;
            }
        }
        assert!(
            late > early,
            "kick pressure must rise with load: early {early}, late {late}"
        );
    }

    #[test]
    fn insert_fails_when_kick_budget_exhausted() {
        // Tiny table, force failure.
        let mut t = CuckooTable::new(4, 1, 8, 2);
        let failed = (0..40).find(|&i| t.insert(key(i)).is_err());
        let i = failed.expect("overloading an 8-cell cuckoo must fail");
        assert!(
            (0..=i).any(|j| !t.contains(&key(j))),
            "failed inserts drop chain tails"
        );
    }
}
