//! Scenario-matrix conformance: declarative scenarios are deterministic
//! (same spec + seed → identical descriptor streams), drive every backend in the workspace
//! to identical end-state membership when sized within capacity, and —
//! for the adversarial collision flood — provably push the paper's
//! Hash-CAM onto its overflow path while the drop/overflow counters
//! introduced on [`OpStats`] fire on every backend under overfill.

use proptest::prelude::*;
use std::collections::HashSet;

use flowlut::core::{FlowLutSim, HashCamTable, SimConfig, TableConfig};
use flowlut::scenarios::{Scenario, ScenarioRunner};
use flowlut::traffic::{FiveTuple, FlowKey};
use flowlut::FlowStore;

/// The conformance-sized table every backend is matched to (capacity
/// 2·64·4 + 64 = 576 keys).
fn conformance_table() -> TableConfig {
    TableConfig {
        buckets_per_mem: 64,
        entries_per_bucket: 4,
        cam_capacity: 64,
        entry_slot_bytes: 16,
        hash_seed: 99,
    }
}

/// Every backend in the workspace at matched capacity.
fn registry() -> Vec<Box<dyn FlowStore>> {
    flowlut::backends(SimConfig {
        table: conformance_table(),
        ..SimConfig::test_small()
    })
}

/// A benign scenario well under the 576-key conformance capacity: at
/// most ~220 distinct flows across all stages.
fn benign_scenario(seed: u64) -> Scenario {
    Scenario::new("benign-mix", seed)
        .uniform(60, 300)
        .zipf(60, 0.98, 300)
        .elephant_mice(4, 56, 0.8, 300)
        .churn(30, 0.02, 300)
        .burst(30, 16, 300)
}

/// End-state contract for one backend: the two-choice hashcam family
/// must hold *every* offered flow of a benign scenario (that is the
/// paper's claim); constrained baselines (e.g. single-hash, whose
/// per-bucket bound can overflow far below total capacity) must satisfy
/// `missing ≤ rejected` — every missing flow is accounted for by an
/// explicit rejection, never silently lost — and be exact whenever they
/// rejected nothing.
fn assert_end_state(backend: &mut dyn FlowStore, offered: &HashSet<FlowKey>, rejected: u64) {
    let name = backend.name();
    let missing = offered.iter().filter(|k| !backend.contains(k)).count() as u64;
    if name.starts_with("hashcam") {
        assert_eq!(rejected, 0, "{name}: benign scenario must not hit capacity");
    }
    assert!(
        missing <= rejected,
        "{name}: {missing} flows vanished with only {rejected} rejections"
    );
    if rejected == 0 {
        assert_eq!(missing, 0, "{name}: flow missing without a rejection");
        assert_eq!(
            backend.len(),
            offered.len() as u64,
            "{name}: resident count diverges"
        );
    }
}

#[test]
fn all_backends_agree_on_end_state_membership() {
    let scenario = benign_scenario(7);
    let descs = scenario.generate();
    let offered: HashSet<FlowKey> = descs.iter().map(|d| d.key).collect();
    assert!(offered.len() < 576, "scenario must fit every backend");

    let runner = ScenarioRunner::new();
    for backend in registry().iter_mut() {
        let report = runner.run_stream(&scenario.name, &descs, backend.as_mut());
        assert_end_state(backend.as_mut(), &offered, report.rejected);
        // Probe absent keys from a disjoint index range.
        for i in 0..32u64 {
            let absent = FlowKey::from(FiveTuple::from_index(0xFFFF_0000 + i));
            assert!(
                !offered.contains(&absent) && !backend.contains(&absent),
                "{}: phantom membership",
                backend.name()
            );
        }
    }
}

#[test]
fn adversarial_flood_forces_the_cam_overflow_path() {
    let cfg = TableConfig::test_small();
    // Region capacity 2·4·2 = 16 slots; 24 mined keys must spill.
    let scenario = Scenario::new("flood", 11).adversarial_for(&cfg, 24, 4, 2);
    let runner = ScenarioRunner::new();

    // Functional table: spills counted by the new OpStats field.
    let mut table = HashCamTable::new(cfg);
    let r = runner.run(&scenario, &mut table);
    assert!(
        r.cam_spills >= 8,
        "expected ≥8 CAM spills, got {}",
        r.cam_spills
    );
    assert!(r.overflow_rate() > 0.0);

    // Cycle-stepped prototype: live CAM occupancy observed mid-run.
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let r = runner.run(&scenario, &mut sim);
    assert!(r.timed);
    assert!(r.cam_high_water > 0, "CAM occupancy never rose under flood");
}

/// Satellite: the drop/overflow counters surface uniformly. Overfilling
/// any backend far past a tiny capacity must increment `rejected`, and
/// the CAM/stash-bearing structures must count spills on the way there.
#[test]
fn overfill_increments_rejected_on_every_backend() {
    let tiny = TableConfig {
        buckets_per_mem: 2,
        entries_per_bucket: 2,
        cam_capacity: 2,
        entry_slot_bytes: 16,
        hash_seed: 7,
    };
    let mut backends = flowlut::backends(SimConfig {
        table: tiny,
        ..SimConfig::test_small()
    });

    // 400 distinct flows into ≤ 18-key structures: every backend must
    // reject, monotonically.
    let scenario = Scenario::new("overfill", 3).uniform(400, 400);
    let runner = ScenarioRunner::new();
    for backend in backends.iter_mut() {
        let name = backend.name();
        let before = backend.op_stats();
        let report = runner.run(&scenario, backend.as_mut());
        let after = backend.op_stats();
        assert!(
            report.rejected > 0,
            "{name}: overfill produced no rejections"
        );
        assert!(
            after.dominates(&before),
            "{name}: OpStats regressed across the run"
        );
        assert_eq!(
            after.delta_since(&before).rejected,
            report.rejected,
            "{name}: report and op-stats delta disagree"
        );
        if matches!(
            name,
            "hashcam (this paper)"
                | "hashcam-sim"
                | "hashcam-sharded"
                | "cuckoo"
                | "one-move"
                | "bloom+cam"
                | "simultaneous-hashcam"
        ) {
            assert!(
                report.cam_spills > 0,
                "{name}: CAM/stash-bearing backend spilled nothing under overfill"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same spec + seed → identical descriptor streams, and a
    /// different seed perturbs the stream.
    #[test]
    fn scenario_generation_is_byte_identical(
        seed in any::<u64>(),
        flows in 1u64..200,
        packets in 1usize..400,
        exponent in 0.5f64..1.5,
    ) {
        let scenario = Scenario::new("prop", seed)
            .uniform(flows, packets)
            .zipf(flows, exponent, packets);
        let a = scenario.generate();
        let b = scenario.generate();
        prop_assert_eq!(&a, &b);

        let other = Scenario::new("prop", seed ^ 1)
            .uniform(flows, packets)
            .zipf(flows, exponent, packets);
        prop_assert_ne!(a, other.generate());
    }

    /// Every backend ends a benign generated scenario with consistent
    /// membership (exact for the hashcam family, rejection-accounted
    /// for constrained baselines), for arbitrary seeds.
    #[test]
    fn backends_converge_for_any_seed(seed in any::<u64>()) {
        let scenario = benign_scenario(seed);
        let descs = scenario.generate();
        let offered: HashSet<FlowKey> = descs.iter().map(|d| d.key).collect();
        let runner = ScenarioRunner::new();
        for backend in registry().iter_mut() {
            let report = runner.run_stream(&scenario.name, &descs, backend.as_mut());
            assert_end_state(backend.as_mut(), &offered, report.rejected);
        }
    }
}
