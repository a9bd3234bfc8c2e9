//! Conventional single-hash bucket table.

use flowlut_core::backend::FlowStore;
use flowlut_hash::{H3Hash, HashFunction};
use flowlut_traffic::FlowKey;

use crate::traits::{full_error, FullError, OpStats};

/// A single-hash-function table with `buckets` buckets of `k` slots.
///
/// The "conventional single hash method" the related-work section
/// contrasts against: one probe per lookup, but collisions pile into one
/// bucket with no second choice, so the usable load factor before
/// insertion failures is poor — which the comparison benches quantify.
#[derive(Debug)]
pub struct SingleHashTable {
    hash: H3Hash,
    buckets: Vec<Vec<Option<FlowKey>>>,
    k: usize,
    len: usize,
    stats: OpStats,
}

impl SingleHashTable {
    /// Creates a table with `buckets` buckets of `k` entries, hashing
    /// with an H3 function derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `k` is zero.
    pub fn new(buckets: u32, k: usize, seed: u64) -> Self {
        assert!(buckets > 0 && k > 0, "dimensions must be non-zero");
        SingleHashTable {
            hash: H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed),
            buckets: (0..buckets).map(|_| vec![None; k]).collect(),
            k,
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn bucket_of(&self, key: &FlowKey) -> usize {
        self.hash.bucket(key.as_bytes(), self.buckets.len() as u32) as usize
    }
}

impl FlowStore for SingleHashTable {
    fn name(&self) -> &'static str {
        "single-hash"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        if self.contains(&key) {
            return Ok(false);
        }
        self.stats.inserts += 1;
        let b = self.bucket_of(&key);
        self.stats.mem_reads += 1; // read-modify-write of the bucket
        if let Some(slot) = self.buckets[b].iter().position(|s| s.is_none()) {
            self.buckets[b][slot] = Some(key);
            self.stats.mem_writes += 1;
            self.len += 1;
            Ok(true)
        } else {
            self.stats.rejected += 1;
            Err(full_error(self, key))
        }
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.stats.lookups += 1;
        self.stats.mem_reads += 1;
        let b = self.bucket_of(key);
        self.buckets[b].iter().any(|s| s.as_ref() == Some(key))
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        let b = self.bucket_of(key);
        self.stats.mem_reads += 1;
        if let Some(slot) = self.buckets[b].iter().position(|s| s.as_ref() == Some(key)) {
            self.buckets[b][slot] = None;
            self.stats.mem_writes += 1;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> u64 {
        self.len as u64
    }

    fn capacity(&self) -> u64 {
        (self.buckets.len() * self.k) as u64
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
    fn insert_contains_remove() {
        let mut t = SingleHashTable::new(64, 2, 1);
        t.insert(key(1)).unwrap();
        assert!(t.contains(&key(1)));
        assert!(!t.contains(&key(2)));
        assert!(t.remove(&key(1)));
        assert!(!t.remove(&key(1)));
        assert!(t.is_empty());
    }

    #[test]
    fn one_probe_per_lookup() {
        let mut t = SingleHashTable::new(64, 2, 1);
        for i in 0..20 {
            t.insert(key(i)).unwrap();
        }
        let before = t.op_stats().mem_reads;
        for i in 0..20 {
            t.contains(&key(i));
        }
        assert_eq!(t.op_stats().mem_reads - before, 20);
    }

    #[test]
    fn fails_at_modest_load_factor() {
        // With 64 buckets x 2 and random keys, failures typically start
        // well before 100% load — the structural weakness the paper
        // motivates two-choice hashing with.
        let mut t = SingleHashTable::new(64, 2, 2);
        let mut failed_at = None;
        for i in 0..128 {
            if t.insert(key(i)).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        let at = failed_at.expect("single hash should fail before full");
        assert!(at < 120, "failed at {at}");
    }
}
