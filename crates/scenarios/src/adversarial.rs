//! Adversarial collision mining: the SYN-flood analogue.
//!
//! The Hash-CAM's worst case is an attacker who knows (or probes) the
//! table's hash functions and sends flows whose *both* bucket choices
//! land in a small region of the table, defeating two-choice load
//! balancing and pushing every colliding key onto the CAM overflow
//! path. [`CollisionMiner`] constructs exactly that key set offline: it
//! rebuilds the table's `PairHasher` from the public `TableConfig`
//! parameters and enumerates candidate 5-tuples, keeping those whose
//! bucket pair falls entirely inside the first `target_buckets` buckets
//! of both memories.
//!
//! Mining cost is geometric: a candidate passes with probability
//! `(target_buckets / table_buckets)²`, so mining `n` keys costs about
//! `n · (table_buckets / target_buckets)²` hash evaluations — seconds
//! of work for bench-scale tables, which is the point: the attack is
//! cheap for the attacker and worst-case for the table.

#[cfg(test)]
use flowlut_core::table::TableConfig;
use flowlut_hash::PairHasher;
use flowlut_traffic::{FiveTuple, FlowKey};

/// Mines flow keys that collide under a Hash-CAM table's H3 bucket pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionMiner {
    /// Buckets per memory of the victim table (`buckets_per_mem`).
    pub table_buckets: u32,
    /// Size of the attacked region: both bucket choices of every mined
    /// key fall in `[0, target_buckets)`. Smaller is nastier (and costs
    /// proportionally more mining).
    pub target_buckets: u32,
    /// The victim table's hash seed.
    pub hash_seed: u64,
    /// The victim table's `entry_slot_bytes` (fixes the H3 circuit
    /// width, `8 * (slot_bytes - 1)` bits).
    pub slot_bytes: usize,
}

impl CollisionMiner {
    /// A miner targeting the table described by `cfg` — the attacker's
    /// view being exactly the public table geometry.
    #[cfg(test)]
    pub fn for_table(cfg: &TableConfig, target_buckets: u32) -> Self {
        CollisionMiner {
            table_buckets: cfg.buckets_per_mem,
            target_buckets,
            hash_seed: cfg.hash_seed,
            slot_bytes: cfg.entry_slot_bytes,
        }
    }

    /// The hasher this miner attacks — identical construction to
    /// `HashCamTable::new`.
    fn hasher(&self) -> PairHasher {
        PairHasher::h3_pair(8 * (self.slot_bytes - 1), self.hash_seed)
    }

    /// Candidates [`mine`](Self::mine) tries for `count` keys: 64× the
    /// expected cost plus a floor, saturating rather than overflowing
    /// for a region too small to mine.
    fn budget(&self, count: usize) -> u64 {
        let ratio = u64::from(self.table_buckets / self.target_buckets) + 1;
        (count as u64)
            .saturating_mul(ratio.saturating_mul(ratio))
            .saturating_mul(64)
            .saturating_add(65_536)
    }

    /// Mines `count` distinct keys whose bucket pairs both land in the
    /// target region. `salt` offsets the candidate space so different
    /// scenarios mine disjoint key sets.
    ///
    /// # Panics
    ///
    /// Panics if `target_buckets` is zero or exceeds `table_buckets`,
    /// or if the candidate budget (64× the expected mining cost) is
    /// exhausted — which indicates an implausible parameter choice, not
    /// a run-time condition.
    pub fn mine(&self, count: usize, salt: u64) -> Vec<FlowKey> {
        assert!(
            self.target_buckets > 0 && self.target_buckets <= self.table_buckets,
            "target region must be within the table"
        );
        let hasher = self.hasher();
        let budget = self.budget(count);
        let mut out = Vec::with_capacity(count);
        let salt = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..budget {
            if out.len() == count {
                return out;
            }
            let key = FlowKey::from(FiveTuple::from_index(i ^ salt));
            let (b1, b2) = hasher.bucket_pair(key.as_bytes(), self.table_buckets);
            if b1 < self.target_buckets && b2 < self.target_buckets {
                out.push(key);
            }
        }
        panic!(
            "collision mining budget exhausted: {} of {count} keys after {budget} candidates \
             (table_buckets={}, target_buckets={})",
            out.len(),
            self.table_buckets,
            self.target_buckets,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_core::backend::FlowStore;
    use flowlut_core::HashCamTable;

    fn small_cfg() -> TableConfig {
        TableConfig::test_small()
    }

    #[test]
    fn mined_keys_land_in_target_region() {
        let cfg = small_cfg();
        let miner = CollisionMiner::for_table(&cfg, 4);
        let keys = miner.mine(32, 7);
        assert_eq!(keys.len(), 32);
        let hasher = PairHasher::h3_pair(8 * (cfg.entry_slot_bytes - 1), cfg.hash_seed);
        for k in &keys {
            let (b1, b2) = hasher.bucket_pair(k.as_bytes(), cfg.buckets_per_mem);
            assert!(b1 < 4 && b2 < 4, "key escaped the region: ({b1}, {b2})");
        }
    }

    #[test]
    fn mined_keys_are_distinct_and_deterministic() {
        let miner = CollisionMiner::for_table(&small_cfg(), 8);
        let a = miner.mine(16, 1);
        let b = miner.mine(16, 1);
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 16);
        assert_ne!(a, miner.mine(16, 2), "salt shifts the candidate space");
    }

    #[test]
    fn budget_saturates_for_a_one_bucket_region_of_the_widest_table() {
        // table / target + 1 = 2^32, whose square does not fit in u64.
        let miner = CollisionMiner {
            table_buckets: u32::MAX,
            target_buckets: 1,
            hash_seed: 1,
            slot_bytes: 16,
        };
        assert_eq!(miner.budget(1), u64::MAX);
        assert_eq!(
            CollisionMiner::for_table(&small_cfg(), 4).budget(24),
            24 * 65 * 65 * 64 + 65_536
        );
    }

    /// The attack works: mined keys overflow the targeted region into
    /// the CAM, where uniformly random keys at the same count would not
    /// spill at all.
    #[test]
    fn mined_keys_force_cam_spills_on_the_real_table() {
        let cfg = small_cfg();
        let mut table = HashCamTable::new(cfg);
        // Region capacity is 2 mems × target × K slots = 2·4·2 = 16 for
        // test_small (256 buckets, K=2); 24 keys must spill ≥ 8 to CAM.
        let keys = CollisionMiner::for_table(&cfg, 4).mine(24, 3);
        for k in keys {
            let _ = FlowStore::insert(&mut table, k);
        }
        let spills = FlowStore::op_stats(&table).cam_spills;
        assert!(spills >= 8, "expected ≥8 CAM spills, got {spills}");
    }
}
