//! Memory-technology headroom study: model × shard-count sweep.
//!
//! Runs the same Table II(B)-style workload (75 % match rate) through
//! [`ShardedFlowLut`] for every default [`MemorySpec`] — the calibrated
//! DDR3-1066E prototype controller, the DDR4-2400-class bank-group
//! model, the HBM2-style many-channel model and the idealized SRAM
//! bound — at 1 / 2 / 4 / 8 shards, with every shard offered its full
//! system-clock rate (saturation). Each point is scored against the
//! 400 GbE line-rate requirement of 595 Mpps (64 B frames), answering
//! the question the paper's §6 discussion leaves open: how many
//! channels does each memory technology need to hold line rate?
//!
//! Writes the machine-readable `BENCH_memory.json` consumed by the
//! perf-snapshot CI step (`cargo xtask lint` checks its schema).
//!
//! Modes: default (full sweep), `--quick` (CI perf snapshot), `--smoke`
//! (run-check only; numbers not meaningful).

use std::io::Write as _;

use flowlut_bench::{json_path, quick_mode, smoke_mode};
use flowlut_core::{FlowPipeline, RunReport};
use flowlut_ddr3::MemorySpec;
use flowlut_engine::{EngineConfig, ShardedFlowLut};
use flowlut_traffic::workloads::MatchRateWorkload;

/// 400 GbE at minimum-size (64 B) frames: 400e9 / ((64 + 20) * 8) bits.
const LINE_RATE_MPPS: f64 = 595.0;

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One sweep point.
struct Point {
    model: &'static str,
    shards: usize,
    per_shard_rate_mhz: f64,
    report: RunReport,
}

impl Point {
    fn headroom(&self) -> f64 {
        self.report.mdesc_per_s / LINE_RATE_MPPS
    }

    fn holds_line_rate(&self) -> bool {
        self.report.mdesc_per_s >= LINE_RATE_MPPS
    }
}

fn main() {
    let (mode, table_size, queries) = if smoke_mode() {
        ("smoke", 1_000, 800)
    } else if quick_mode() {
        ("quick", 10_000, 16_000)
    } else {
        ("full", 10_000, 32_000)
    };
    println!("Memory-technology headroom study: model x shard-count sweep ({mode} mode)");
    println!(
        "workload: {table_size}-flow preload, {queries} queries at 75% match; \
         each shard offered its full system clock; line rate {LINE_RATE_MPPS} Mpps (400GbE)\n"
    );

    let workload = MatchRateWorkload {
        table_size,
        queries,
        match_rate: 0.75,
        seed: 40,
    };
    let set = workload.build();

    let mut points: Vec<Point> = Vec::new();
    for spec in MemorySpec::defaults() {
        for shards in SHARD_SWEEP {
            let mut cfg = EngineConfig::prototype(shards);
            cfg.shard.memory = spec;
            let per_shard_rate_mhz = cfg.sys_clock_mhz();
            cfg.shard.input_rate_mhz = per_shard_rate_mhz;
            let mut engine = ShardedFlowLut::new(cfg);
            engine
                .preload(set.preload.iter().copied())
                .expect("preload fits the prototype table");
            let report = engine.start_run().run(&set.queries).expect("fresh session");
            points.push(Point {
                model: spec.name(),
                shards,
                per_shard_rate_mhz,
                report,
            });
        }
    }

    println!(
        "{:>6} {:>7} {:>12} {:>14} {:>10} {:>10}",
        "model", "shards", "Mdesc/s", "mean lat (ns)", "headroom", "400GbE?"
    );
    println!("{}", "-".repeat(66));
    for p in &points {
        println!(
            "{:>6} {:>7} {:>12.2} {:>14.1} {:>9.2}x {:>10}",
            p.model,
            p.shards,
            p.report.mdesc_per_s,
            p.report.mean_latency_ns,
            p.headroom(),
            if p.holds_line_rate() {
                "holds"
            } else {
                "below"
            },
        );
    }

    // Per-model verdict: fewest shards in the sweep that hold 595 Mpps.
    println!("\nshards needed for 400GbE line rate (within the 1-8 sweep):");
    let mut verdicts: Vec<(&str, Option<usize>)> = Vec::new();
    for model in MemorySpec::defaults().map(|s| s.name()) {
        let min_shards = points
            .iter()
            .find(|p| p.model == model && p.holds_line_rate())
            .map(|p| p.shards);
        match min_shards {
            Some(n) => println!("  {model:>5}: {n} shards"),
            None => println!("  {model:>5}: not reached at 8 shards"),
        }
        verdicts.push((model, min_shards));
    }

    // Acceptance: the idealized bound must dominate the technology it
    // bounds at every shard count.
    let sram_ge_ddr3 = SHARD_SWEEP.iter().all(|&s| {
        let at = |model: &str| {
            points
                .iter()
                .find(|p| p.model == model && p.shards == s)
                .map_or(0.0, |p| p.report.mdesc_per_s)
        };
        at("sram") >= at("ddr3")
    });
    println!(
        "\nSRAM >= DDR3 throughput at every shard count: {}",
        if sram_ge_ddr3 { "yes" } else { "NO" }
    );

    let path = json_path("BENCH_memory.json", mode == "quick");
    match write_json(&path, mode, &workload, &points, &verdicts, sram_ge_ddr3) {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("error: could not save {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Serialises the sweep by hand — the workspace has no JSON dependency,
/// and the schema is flat enough that formatting beats vendoring one.
fn write_json(
    path: &std::path::Path,
    mode: &str,
    w: &MatchRateWorkload,
    points: &[Point],
    verdicts: &[(&str, Option<usize>)],
    sram_ge_ddr3: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"memory\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"workload\": {{\"table_size\": {}, \"queries\": {}, \"match_rate\": {}, \"seed\": {}}},",
        w.table_size, w.queries, w.match_rate, w.seed
    )?;
    writeln!(f, "  \"line_rate_mpps\": {LINE_RATE_MPPS},")?;
    writeln!(f, "  \"results\": [")?;
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        writeln!(
            f,
            "    {{\"model\": \"{}\", \"shards\": {}, \
             \"per_shard_input_rate_mhz\": {:.4}, \"mdesc_per_s\": {:.4}, \
             \"mean_latency_ns\": {:.2}, \"headroom_vs_400gbe\": {:.4}, \
             \"holds_line_rate\": {}, \"completed\": {}}}{}",
            p.model,
            p.shards,
            p.per_shard_rate_mhz,
            r.mdesc_per_s,
            r.mean_latency_ns,
            p.headroom(),
            p.holds_line_rate(),
            r.completed,
            if i + 1 == points.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"verdicts\": {{")?;
    for (i, (model, min_shards)) in verdicts.iter().enumerate() {
        let value = min_shards.map_or("null".to_string(), |n| n.to_string());
        writeln!(
            f,
            "    \"{model}\": {{\"min_shards_for_400gbe\": {value}}}{}",
            if i + 1 == verdicts.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  }},")?;
    writeln!(f, "  \"acceptance_sram_ge_ddr3\": {sram_ge_ddr3}")?;
    writeln!(f, "}}")?;
    Ok(())
}
