//! Cross-crate integration: traffic → core → ddr3, checked for
//! semantic consistency end to end.

use std::collections::HashMap;

use flowlut::core::{FlowLutSim, LoadBalancerPolicy, SimConfig};
use flowlut::ddr3::{MemorySpec, SramParams};
use flowlut::engine::EngineConfig;
use flowlut::service::{FlowService, ServiceConfig};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::workloads::MatchRateWorkload;
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
use flowlut::{CheckpointError, FlowPipeline, RescaleError, SessionError};

fn small_cfg() -> SimConfig {
    let mut cfg = SimConfig::test_small();
    cfg.table.buckets_per_mem = 8192;
    cfg.table.cam_capacity = 256;
    let MemorySpec::Ddr3(ddr3) = &mut cfg.memory else {
        panic!("the test configuration is DDR3");
    };
    ddr3.geometry.rows = 512;
    cfg
}

/// A realistic trace runs to completion with every invariant holding:
/// flow-ID validity, record/table agreement, and per-flow completion
/// ordering.
#[test]
fn fabric_trace_consistency() {
    let mut sim = FlowLutSim::new(small_cfg());
    let trace = FabricTraceProfile::european_2012().generate(10_000);
    let report = sim.start_run().run(&trace).expect("fresh session");
    assert_eq!(report.completed, 10_000);
    assert_eq!(report.stats.drops, 0, "table sized for the trace");

    // 1. Every descriptor resolved with a flow ID the table can confirm.
    assert_eq!(sim.completions().len(), 10_000);
    let mut per_flow_last_seq: HashMap<FlowKey, u64> = HashMap::new();
    for d in sim.completions() {
        let fid = d.fid.expect("no drops");
        assert_eq!(
            sim.table().peek(&d.desc.key),
            Some(fid),
            "table and completion disagree for {:?}",
            d.desc.key
        );
        // 2. Per-flow completion order equals arrival order.
        if let Some(prev) = per_flow_last_seq.insert(d.desc.key, d.desc.seq) {
            assert!(prev < d.desc.seq, "per-flow order violated");
        }
    }

    // 3. Flow records agree with the table and with packet conservation.
    assert_eq!(
        sim.table().records_after(None).count() as u64,
        sim.table().len()
    );
    let packet_sum: u64 = sim
        .table()
        .records_after(None)
        .map(|(_, r)| r.packets)
        .sum();
    assert_eq!(packet_sum, 10_000, "every packet accounted to one flow");

    // 4. The new-flow count matches the trace's distinct keys.
    let distinct: std::collections::HashSet<FlowKey> = trace.iter().map(|d| d.key).collect();
    assert_eq!(
        report.stats.inserted_mem + report.stats.inserted_cam,
        distinct.len() as u64
    );
}

/// The realised miss rate tracks the workload's configured match rate.
#[test]
fn realised_miss_rate_matches_workload() {
    for match_rate in [0.0, 0.5, 1.0] {
        let mut sim = FlowLutSim::new(small_cfg());
        let set = MatchRateWorkload {
            table_size: 1_000,
            queries: 2_000,
            match_rate,
            seed: 11,
        }
        .build();
        sim.preload(set.preload.iter().copied()).unwrap();
        let report = sim.start_run().run(&set.queries).expect("fresh session");
        // Matching queries repeat keys, so duplicates of a *fresh* key
        // can also match; compare against the workload's realised rate.
        let measured_miss = report.stats.miss_rate();
        let expected_miss = 1.0 - match_rate;
        assert!(
            (measured_miss - expected_miss).abs() < 0.06,
            "match_rate {match_rate}: measured miss {measured_miss}"
        );
    }
}

/// Deterministic reproduction: identical configuration and workload give
/// identical reports.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut sim = FlowLutSim::new(small_cfg());
        let trace = FabricTraceProfile::european_2012().generate(3_000);
        let r = sim.start_run().run(&trace).expect("fresh session");
        (r.sys_cycles, r.stats, sim.table().len())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// Load-balancer policies all process the same trace correctly (same
/// resolutions, different timing).
#[test]
fn load_balancers_agree_on_semantics() {
    let trace = FabricTraceProfile::european_2012().generate(2_000);
    let mut results = Vec::new();
    for policy in [
        LoadBalancerPolicy::HashSplit,
        LoadBalancerPolicy::FixedRatio {
            path_a_permille: 300,
        },
    ] {
        let mut cfg = small_cfg();
        cfg.load_balancer = policy;
        let mut sim = FlowLutSim::new(cfg);
        let report = sim.start_run().run(&trace).expect("fresh session");
        // Semantics: identical new-flow count and zero drops regardless
        // of which path looked first.
        results.push((
            report.stats.inserted_mem + report.stats.inserted_cam,
            report.stats.drops,
        ));
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}

/// Packets for the same flow arriving back-to-back (the waiting-list
/// path) never produce duplicate table entries.
#[test]
fn burst_of_same_flow_is_single_entry() {
    let mut sim = FlowLutSim::new(small_cfg());
    let key = FlowKey::from(FiveTuple::from_index(42));
    let burst: Vec<PacketDescriptor> = (0..200).map(|s| PacketDescriptor::new(s, key)).collect();
    let report = sim.start_run().run(&burst).expect("fresh session");
    assert_eq!(report.completed, 200);
    assert_eq!(sim.table().len(), 1);
    let records: Vec<_> = sim.table().records_after(None).collect();
    assert_eq!(records.len(), 1);
    let (_, record) = records[0];
    assert_eq!(record.packets, 200);
}

/// Interleaved deletes and traffic stay consistent.
#[test]
fn deletes_interleaved_with_traffic() {
    let mut sim = FlowLutSim::new(small_cfg());
    let keys: Vec<FlowKey> = (0..100)
        .map(|i| FlowKey::from(FiveTuple::from_index(i)))
        .collect();
    let descs: Vec<PacketDescriptor> = keys
        .iter()
        .enumerate()
        .map(|(s, k)| PacketDescriptor::new(s as u64, *k))
        .collect();
    sim.start_run().run(&descs).expect("fresh session");
    assert_eq!(sim.table().len(), 100);

    // Delete the even keys while re-offering the odd ones.
    for k in keys.iter().step_by(2) {
        let fid = sim.table().peek(k).expect("resident");
        sim.delete_flow(fid, *k).expect("room for a user deletion");
    }
    let odd: Vec<PacketDescriptor> = keys
        .iter()
        .skip(1)
        .step_by(2)
        .enumerate()
        .map(|(s, k)| PacketDescriptor::new(s as u64, *k))
        .collect();
    let report = sim.start_run().run(&odd).expect("fresh session");
    // Drain any remaining deletes.
    for _ in 0..2_000 {
        sim.tick();
    }
    assert_eq!(sim.table().len(), 50);
    assert_eq!(
        report.stats.lu1_hits
            + report.stats.lu2_hits
            + report.stats.cam_hits
            + report.stats.inserted_mem
            + report.stats.inserted_cam,
        50
    );
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(sim.table().peek(k).is_some(), i % 2 == 1, "key {i}");
    }
}

/// A service whose memory never answers a read is an error, not a panic
/// or a hang: its drain reports the stall, and checkpoint and rescale,
/// which need a settled engine, refuse.
#[test]
fn a_stalled_service_returns_errors() {
    let mut cfg = EngineConfig::test_small();
    cfg.shards = 1;
    let mut sram = SramParams::ideal_200mhz();
    sram.read_latency = u64::MAX / 4;
    cfg.shard.memory = MemorySpec::Sram(sram);
    let mut svc = FlowService::new(ServiceConfig::new(cfg)).expect("valid configuration");
    let key = FlowKey::from(FiveTuple::from_index(1));
    svc.handle()
        .send(PacketDescriptor::new(0, key))
        .expect("queue open");
    assert!(matches!(
        svc.drain(),
        Err(SessionError::Stalled {
            completed: 0,
            in_pipeline: 1,
            ..
        })
    ));
    assert_eq!(
        svc.checkpoint().err(),
        Some(CheckpointError::NotQuiescent { in_pipeline: 1 })
    );
    assert_eq!(
        svc.rescale_double().err(),
        Some(RescaleError::NotQuiescent { in_pipeline: 1 })
    );
}
