//! What does the flow LUT gain from a faster memory technology?
//!
//! The paper's prototype is built on DDR3-1066E; PR 7 put that
//! controller behind the pluggable [`MemoryModel`] trait, alongside a
//! DDR4-2400-class bank-group model, an HBM2-style many-channel model
//! and an idealized SRAM bound. This scenario drives the *same*
//! warm-table workload through a single channel of each technology,
//! selected by `SimConfig::memory`, and compares throughput and
//! latency — the single-channel half of the `memory` bench's headroom
//! study.
//!
//! Run with: `cargo run --release --example memory_explorer`
//! (pass `--smoke` for a scaled-down CI run-check)

use flowlut::core::{FlowLutSim, SimConfig};
use flowlut::ddr3::{DramParams, MemorySpec};
use flowlut::traffic::workloads::{MatchRateSet, MatchRateWorkload};
use flowlut::{FlowPipeline, Session};

/// A warm table at the paper's steady state: 75 % of queries hit.
fn workload(smoke: bool) -> MatchRateSet {
    let scale = if smoke { 10 } else { 1 };
    MatchRateWorkload {
        table_size: 10_000 / scale,
        queries: 16_000 / scale,
        match_rate: 0.75,
        seed: 40,
    }
    .build()
}

fn describe(spec: &MemorySpec) -> &'static str {
    match spec {
        MemorySpec::Ddr3(_) => "paper prototype controller (DDR3-1066E class)",
        MemorySpec::Ddr4(_) => "DDR4-2400 class, 4 bank groups (tCCD_S/tCCD_L)",
        MemorySpec::Hbm2(_) => "HBM2-style, 8 narrow channels, low tRC",
        MemorySpec::Sram(_) => "idealized fixed-latency SRAM (QDR-like)",
    }
}

/// One channel on `memory`, offered one descriptor per system cycle.
fn saturated(memory: MemorySpec) -> FlowLutSim {
    let cfg = SimConfig {
        memory,
        ..SimConfig::default()
    };
    FlowLutSim::new(SimConfig {
        input_rate_mhz: cfg.sys_clock_mhz(),
        ..cfg
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let set = workload(smoke);
    println!("One flow-LUT channel, four memory technologies, one workload:\n");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>15}",
        "model", "sys MHz", "sys cycles", "Mdesc/s", "mean lat (ns)"
    );
    println!("{}", "-".repeat(60));

    let mut baseline = None;
    for spec in MemorySpec::defaults() {
        // Saturating offer: one descriptor per system cycle; the memory
        // pipeline, not the sequencer, sets the throughput.
        let rate = spec.sys_clock_mhz();
        let mut sim = saturated(spec);
        sim.preload(set.preload.iter().copied()).unwrap();
        let report = sim.start_run().run(&set.queries).expect("fresh session");
        println!(
            "{:>6} {:>10.2} {:>12} {:>12.2} {:>15.1}   {}",
            spec.name(),
            rate,
            report.sys_cycles,
            report.mdesc_per_s,
            report.mean_latency_ns,
            describe(&spec)
        );
        if let MemorySpec::Ddr3(_) = spec {
            baseline = Some(report.mdesc_per_s);
        }
    }

    if let Some(base) = baseline {
        println!(
            "\nThe DDR3 ceiling is the paper's: one channel cannot hold 400GbE \
             ({base:.0} Mdesc/s vs 595 Mpps needed)."
        );
        println!(
            "Faster silicon narrows the gap but no single channel closes it — \
             see the `memory` bench for the full model x shard sweep."
        );
    }

    // The same knob accepts a hand-tuned spec, not just presets.
    let mut p = DramParams::ddr4_2400();
    p.t_rfc += 100; // a slower-refresh (denser) DDR4 die
    let spec = MemorySpec::Ddr4(p);
    spec.validate().expect("perturbed spec stays consistent");
    let mut sim = saturated(spec);
    sim.preload(set.preload.iter().copied()).unwrap();
    let report = Session::new(&mut sim)
        .run(&set.queries)
        .expect("fresh session");
    println!(
        "\ncustom spec (DDR4, tRFC +100): {:.2} Mdesc/s — refresh overhead visible.",
        report.mdesc_per_s
    );
}
