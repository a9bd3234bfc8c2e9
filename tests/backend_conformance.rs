//! Cross-backend conformance: every [`FlowStore`] in the workspace —
//! six related-work baselines, the paper's functional table, the timed
//! single-channel simulator, and the sharded engine — answers one
//! generated insert/lookup/remove sequence *identically* (exact
//! membership, upsert semantics), while its [`OpStats`] stay monotone
//! and merge-consistent (per-op deltas merged in sequence equal the
//! final counters).
//!
//! The key universe is small (24 keys) and every structure is sized
//! far below its failure point, so a divergence is a semantics bug, not
//! a capacity artefact.

use proptest::prelude::*;
use std::collections::HashSet;

use flowlut::core::{SimConfig, TableConfig};
use flowlut::traffic::{FiveTuple, FlowKey};
use flowlut::{ExpiryPolicy, FlowEventKind, FlowStore, OpStats};

fn key(i: u64) -> FlowKey {
    FlowKey::from(FiveTuple::from_index(i))
}

fn key_strategy() -> impl Strategy<Value = FlowKey> {
    // Small universe so sequences revisit keys (duplicate inserts,
    // removes of absent keys, re-inserts after removal).
    (0u64..24).prop_map(key)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(FlowKey),
    Lookup(FlowKey),
    Remove(FlowKey),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Lookup),
        key_strategy().prop_map(Op::Remove),
    ]
}

/// Every backend in the workspace, sized generously for a 24-key
/// universe (the timed backends use the fast test configuration), with
/// `expiry` configured on the timed ones. The functional structures
/// have no clock to age against — the expiry test gates on
/// [`FlowStore::as_pipeline`].
fn registry(expiry: Option<ExpiryPolicy>) -> Vec<Box<dyn FlowStore>> {
    flowlut::backends(SimConfig {
        table: TableConfig {
            buckets_per_mem: 64,
            entries_per_bucket: 4,
            cam_capacity: 64,
            entry_slot_bytes: 16,
            hash_seed: 99,
        },
        expiry,
        ..SimConfig::test_small()
    })
}

/// Idle timeout for the expiry conformance arm: far above the cycle
/// cost of the synchronous [`FlowStore`] inserts that seed the table
/// (so nothing expires *during* seeding), far below the idle stretch.
const EXPIRY_TIMEOUT_SYS: u64 = 50_000;

/// Cycles past the idle timeout by which every idle flow must have
/// expired. Each flow was last touched before the idle stretch starts,
/// so all are past the timeout `EXPIRY_TIMEOUT_SYS` cycles into it. One
/// sweep of the scan then visits the whole population, under 24 flows
/// at stride 4: 6 cycles, and one more to wrap. The update unit deletes
/// one nominee per cycle, under 24 cycles, and a deletion's bucket write
/// leaves its batch by the 64-cycle BWr timeout: under 100 cycles in
/// all, so this margin leaves room forty times over.
const EXPIRY_MARGIN_SYS: u64 = 4_096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_backends_agree_and_account_monotonically(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        let mut backends = registry(None);
        let mut model: HashSet<FlowKey> = HashSet::new();
        // Per-backend: stats after the previous op, and the running merge
        // of per-op deltas.
        let mut prev: Vec<OpStats> = backends.iter().map(|b| b.op_stats()).collect();
        let initial = prev.clone();
        let mut merged: Vec<OpStats> = vec![OpStats::default(); backends.len()];

        for op in &ops {
            // Reference-model answer for this op.
            let expected = match *op {
                Op::Insert(k) => model.insert(k),
                Op::Lookup(k) => model.contains(&k),
                Op::Remove(k) => model.remove(&k),
            };
            for (i, b) in backends.iter_mut().enumerate() {
                let got = match *op {
                    Op::Insert(k) => b.insert(k).unwrap_or_else(|e| {
                        panic!("{} unexpectedly full: {e}", b.name())
                    }),
                    Op::Lookup(k) => b.contains(&k),
                    Op::Remove(k) => b.remove(&k),
                };
                prop_assert_eq!(
                    got, expected,
                    "{} diverged on {:?}", b.name(), op
                );
                prop_assert_eq!(
                    b.len(), model.len() as u64,
                    "{} occupancy diverged", b.name()
                );
                // Monotone accounting: no counter ever decreases.
                let now = b.op_stats();
                prop_assert!(
                    now.dominates(&prev[i]),
                    "{} op_stats went backwards: {:?} -> {:?}",
                    b.name(), prev[i], now
                );
                merged[i].merge(&now.delta_since(&prev[i]));
                prev[i] = now;
            }
        }

        // Merge-consistency: the per-op deltas folded in sequence equal
        // the lifetime counters.
        for (i, b) in backends.iter().enumerate() {
            let mut reconstructed = initial[i];
            reconstructed.merge(&merged[i]);
            prop_assert_eq!(
                reconstructed, b.op_stats(),
                "{} merged deltas disagree with final counters", b.name()
            );
        }

        // Final membership sweep over the whole universe.
        for i in 0..24 {
            let k = key(i);
            let expected = model.contains(&k);
            for b in backends.iter_mut() {
                prop_assert_eq!(b.contains(&k), expected, "{} final sweep", b.name());
            }
        }
    }

    /// Expiry conformance, capability-gated: every backend takes the
    /// same flow population, then the timed backends (the ones whose
    /// [`FlowStore::as_pipeline`] answers `Some`) idle past the
    /// configured TTL and must agree exactly — every seeded flow
    /// expires, is counted once in `expired_ttl`, raises exactly one
    /// `ExpiredTtl` event carrying its key, and leaves the table.
    /// Functional backends have no clock and are skipped by the gate.
    #[test]
    fn timed_backends_expire_idle_flows_identically(
        keys in prop::collection::hash_set(0u64..24, 1..24usize)
    ) {
        let mut backends = registry(Some(ExpiryPolicy {
            idle_timeout_cycles: EXPIRY_TIMEOUT_SYS,
            scan_stride: 4,
        }));
        let expected_keys: HashSet<FlowKey> = keys.iter().map(|&i| key(i)).collect();
        let population = expected_keys.len() as u64;

        for b in backends.iter_mut() {
            // Deterministic seeding order across backends.
            let mut sorted: Vec<u64> = keys.iter().copied().collect();
            sorted.sort_unstable();
            for i in sorted {
                let fresh = b
                    .insert(key(i))
                    .unwrap_or_else(|e| panic!("{} unexpectedly full: {e}", b.name()));
                prop_assert!(fresh, "{} saw a duplicate on first insert", b.name());
            }
            prop_assert_eq!(b.len(), population, "{} seeded occupancy", b.name());

            let name = b.name();
            let Some(pipe) = b.as_pipeline() else {
                continue; // functional structure: no clock, nothing ages
            };
            // Idle long enough for every flow to cross the TTL and for
            // the amortized scan (stride records/cycle) to sweep them.
            pipe.tick_many(EXPIRY_TIMEOUT_SYS + EXPIRY_MARGIN_SYS);

            let progress = pipe.poll();
            prop_assert_eq!(
                progress.stats.expired_ttl, population,
                "{} expired_ttl counter", name
            );
            prop_assert_eq!(
                progress.stats.pressure_evicted, 0,
                "{} must not confuse expiry with eviction", name
            );
            let events = pipe.poll_events();
            prop_assert_eq!(events.len() as u64, population, "{} one event per flow", name);
            let mut seen: HashSet<FlowKey> = HashSet::new();
            for e in &events {
                prop_assert_eq!(e.kind, FlowEventKind::ExpiredTtl, "{} event kind", name);
                prop_assert!(seen.insert(e.key), "{} duplicate event for {:?}", name, e.key);
            }
            prop_assert_eq!(&seen, &expected_keys, "{} event keys", name);
            prop_assert_eq!(
                pipe.poll_events().len(), 0,
                "{} events must drain exactly once", name
            );

            prop_assert_eq!(b.len(), 0, "{} expired flows must leave the table", name);
            for k in &expected_keys {
                prop_assert!(!b.contains(k), "{} still answers for an expired flow", name);
            }
        }
    }
}
