//! Property tests for the shard-routing invariants ISSUE 3 calls out:
//!
//! (a) routing is a pure function of the key (no hidden state, no
//!     dependence on arrival order or load);
//! (b) every key lands in exactly one shard;
//! (c) summed per-shard occupancy equals the total resident flow count
//!     after arbitrary insert/delete interleavings.

use std::collections::HashSet;

use proptest::prelude::*;

use flowlut_core::{HashCamTable, TableConfig};
use flowlut_engine::ShardRouter;
use flowlut_traffic::{FiveTuple, FlowKey};

fn key_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..=13)
}

proptest! {
    /// (a) Routing is a pure function of the key: the same key always
    /// routes identically, across calls and across router instances
    /// built with the same parameters.
    #[test]
    fn routing_is_pure(
        bytes in key_bytes(),
        shards in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let r1 = ShardRouter::new(shards, seed);
        let r2 = ShardRouter::new(shards, seed);
        let key = FlowKey::new(&bytes).unwrap();
        let first = r1.route(&key);
        prop_assert_eq!(r1.route(&key), first);
        prop_assert_eq!(r2.route(&key), first, "route must depend only on (shards, seed, key)");
        prop_assert_eq!(r1.route_bytes(&bytes), first);
    }

    /// (b) Every key lands in exactly one shard: the routed index is in
    /// range.
    #[test]
    fn every_key_in_exactly_one_shard(
        indices in prop::collection::hash_set(0u64..1_000_000, 1..200),
        shards in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let router = ShardRouter::new(shards, seed);
        for i in indices {
            prop_assert!(router.route(&FlowKey::from(FiveTuple::from_index(i))) < shards);
        }
    }

    /// (c) After a random interleaving of inserts and deletes applied
    /// through the router to per-shard tables, the summed per-shard
    /// occupancy equals the resident-set size of a reference model.
    #[test]
    fn occupancy_sums_to_resident_flows(
        ops in prop::collection::vec((any::<bool>(), 0u64..96), 1..400),
        shards in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let router = ShardRouter::new(shards, seed);
        let mut tables: Vec<HashCamTable> = (0..shards)
            .map(|_| HashCamTable::new(TableConfig::test_small()))
            .collect();
        let mut model: HashSet<u64> = HashSet::new();
        for (is_insert, i) in ops {
            let key = FlowKey::from(FiveTuple::from_index(i));
            let shard = router.route(&key);
            if is_insert {
                if model.insert(i) {
                    tables[shard].insert(key).expect("96 keys cannot fill test_small");
                }
            } else if model.remove(&i) {
                prop_assert!(tables[shard].delete(&key).is_some(), "model and table disagree");
            }
        }
        let summed: u64 = tables.iter().map(|t| t.occupancy().total()).sum();
        prop_assert_eq!(summed, model.len() as u64);
        // And each shard holds exactly the keys routed to it.
        for (s, table) in tables.iter().enumerate() {
            let expect = model
                .iter()
                .filter(|&&i| router.route(&FlowKey::from(FiveTuple::from_index(i))) == s)
                .count() as u64;
            prop_assert_eq!(table.len(), expect, "shard {} occupancy drifted", s);
        }
    }
}
