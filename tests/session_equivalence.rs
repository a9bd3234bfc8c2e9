//! The typed streaming [`Session`] is the one batch driver of the timed
//! backends, and [`RunReport`] its one report. These tests pin a second
//! run on a warm simulator and on a warm engine to golden reports —
//! cycle counts, every counter, occupancy — whether the run is driven
//! by hand (`offer` + `finish`) or by [`Session::run`], and check that
//! misuse of a drained session is a typed error.

use flowlut::core::{FlowLutSim, Occupancy, SimConfig, SimStats};
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::PacketDescriptor;
use flowlut::{FlowPipeline, RunReport, Session, SessionError};

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

/// Runs 1 000 fabric packets on `pipe`, then reports a second session
/// over the next 1 000, driven by hand or by [`Session::run`].
fn second_run(pipe: &mut dyn FlowPipeline, by_hand: bool) -> RunReport {
    let first = trace(1_000);
    let second: Vec<PacketDescriptor> = trace(2_000).split_off(1_000);
    Session::new(pipe).run(&first).expect("fresh session");
    let mut session = Session::new(pipe);
    if by_hand {
        session.offer(&second).expect("fresh session");
        session.finish()
    } else {
        session.run(&second).expect("fresh session")
    }
}

#[test]
fn equivalence_holds_across_repeated_runs() {
    // The session differences statistics against the run start, so the
    // second session on a warm instance reports the second run alone.
    let sim = RunReport {
        backend: "hashcam-sim",
        channels: 1,
        sys_cycles: 3798,
        elapsed_ns: 18990.0,
        completed: 1000,
        mdesc_per_s: 52.65929436545551,
        mean_latency_ns: 840.455,
        stats: SimStats {
            offered: 1000,
            admitted: 1000,
            completed: 1000,
            cam_hits: 2,
            lu1_hits: 15,
            lu2_hits: 538,
            inserted_mem: 285,
            drops: 160,
            lu1_per_path: [460, 538],
            reads_issued: 1981,
            writes_issued: 283,
            filter_hold_cycles: 2480,
            same_key_holds: 307,
            bwr_count_releases: 12,
            bwr_timeout_releases: 47,
            total_latency_sys: 168091,
            max_latency_sys: 706,
            ..SimStats::default()
        },
        occupancy: Occupancy {
            mem_a: 416,
            mem_b: 447,
            cam: 16,
        },
    };
    let engine = RunReport {
        backend: "hashcam-sharded",
        channels: 2,
        sys_cycles: 2904,
        elapsed_ns: 14520.0,
        completed: 1000,
        mdesc_per_s: 68.87052341597796,
        mean_latency_ns: 607.27,
        stats: SimStats {
            offered: 1000,
            admitted: 1000,
            completed: 1000,
            lu1_hits: 8,
            lu2_hits: 553,
            inserted_mem: 415,
            inserted_cam: 24,
            lu1_per_path: [461, 539],
            reads_issued: 1992,
            writes_issued: 412,
            filter_hold_cycles: 2875,
            same_key_holds: 314,
            bwr_count_releases: 22,
            bwr_timeout_releases: 49,
            total_latency_sys: 121454,
            max_latency_sys: 489,
            ..SimStats::default()
        },
        occupancy: Occupancy {
            mem_a: 470,
            mem_b: 540,
            cam: 26,
        },
    };
    for by_hand in [true, false] {
        let mut s = FlowLutSim::new(SimConfig::test_small());
        assert_eq!(second_run(&mut s, by_hand), sim, "by hand: {by_hand}");
        let mut e = ShardedFlowLut::new(EngineConfig::test_small());
        assert_eq!(second_run(&mut e, by_hand), engine, "by hand: {by_hand}");
    }
}

#[test]
fn drained_session_rejects_further_use() {
    // Lifecycle misuse is a typed error, not a panic or silent no-op.
    let descs = trace(200);
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let mut s = Session::new(&mut sim);
    s.offer(&descs).expect("fresh session");
    s.drain().expect("first drain");
    assert_eq!(s.drain(), Err(SessionError::AlreadyDrained));
    assert_eq!(s.push(descs[0]), Err(SessionError::Drained));
    assert_eq!(s.offer(&descs), Err(SessionError::Drained));
    // finish() still produces the report for the completed work.
    let report = s.finish();
    assert_eq!(report.completed, 200);
}
