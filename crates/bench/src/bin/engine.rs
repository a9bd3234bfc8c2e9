//! Sharded flow-LUT engine: multi-channel scaling sweep.
//!
//! Not a paper artefact — the first beyond-the-paper experiment. Runs
//! one workload (Table II(B)-style, 75 % match rate) through
//! [`ShardedFlowLut`] at 1 / 2 / 4 / 8 shards, each shard offered the
//! paper's maximum 100 MHz, and reports aggregate throughput, speedup
//! over the single-channel baseline, latency and balance. Writes the
//! machine-readable `BENCH_engine.json` consumed by the perf-snapshot
//! CI step, so the throughput trajectory is recorded from this PR on.
//!
//! Modes: default (full sweep), `--quick` (CI perf snapshot), `--smoke`
//! (run-check only; numbers not meaningful).

use std::io::Write as _;

use flowlut_bench::{json_path, quick_mode, smoke_mode};
use flowlut_core::{FlowPipeline, RunReport};
use flowlut_engine::{EngineConfig, EngineSnapshot, ShardedFlowLut};
use flowlut_traffic::workloads::MatchRateWorkload;

/// One sweep point: the run's report and the engine's per-shard view
/// after it (cumulative counters, so per-run on a fresh engine).
struct Point {
    shards: usize,
    report: RunReport,
    snapshot: EngineSnapshot,
}

fn main() {
    let (mode, table_size, queries) = if smoke_mode() {
        ("smoke", 1_000, 800)
    } else if quick_mode() {
        ("quick", 10_000, 16_000)
    } else {
        ("full", 10_000, 40_000)
    };
    println!("Sharded flow-LUT engine: multi-channel scaling sweep ({mode} mode)");
    println!(
        "workload: {table_size}-flow preload, {queries} queries at 75% match; \
         each shard offered 100 MHz\n"
    );

    let workload = MatchRateWorkload {
        table_size,
        queries,
        match_rate: 0.75,
        seed: 40,
    };
    let set = workload.build();

    let mut points: Vec<Point> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut engine = ShardedFlowLut::new(EngineConfig::prototype(shards));
        engine
            .preload(set.preload.iter().copied())
            .expect("preload fits the prototype table");
        let report = engine.start_run().run(&set.queries).expect("fresh session");
        points.push(Point {
            shards,
            report,
            snapshot: engine.snapshot(),
        });
    }

    let base = points[0].report.mdesc_per_s;
    println!(
        "{:>6} {:>12} {:>9} {:>14} {:>11} {:>15}",
        "shards", "Mdesc/s", "speedup", "mean lat (ns)", "imbalance", "splitter stalls"
    );
    println!("{}", "-".repeat(72));
    for p in &points {
        println!(
            "{:>6} {:>12.2} {:>8.2}x {:>14.1} {:>11.3} {:>15}",
            p.shards,
            p.report.mdesc_per_s,
            p.report.mdesc_per_s / base,
            p.report.mean_latency_ns,
            p.snapshot.imbalance(),
            p.snapshot.splitter_stall_cycles,
        );
    }

    let speedup_at = |n: usize| {
        points
            .iter()
            .find(|p| p.shards == n)
            .map_or(0.0, |p| p.report.mdesc_per_s / base)
    };
    let meets = speedup_at(4) >= 2.0;
    println!(
        "\n4-shard speedup over single channel: {:.2}x (acceptance floor 2.0x: {})",
        speedup_at(4),
        if meets { "met" } else { "NOT met" }
    );

    let path = json_path("BENCH_engine.json", mode == "quick");
    match write_json(&path, mode, &workload, &points, base, meets) {
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
    base: f64,
    meets: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"engine\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"workload\": {{\"table_size\": {}, \"queries\": {}, \"match_rate\": {}, \"seed\": {}}},",
        w.table_size, w.queries, w.match_rate, w.seed
    )?;
    writeln!(f, "  \"per_shard_input_rate_mhz\": 100.0,")?;
    writeln!(f, "  \"single_channel_mdesc_per_s\": {base:.4},")?;
    writeln!(f, "  \"results\": [")?;
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        writeln!(
            f,
            "    {{\"shards\": {}, \"mdesc_per_s\": {:.4}, \"speedup\": {:.4}, \
             \"mean_latency_ns\": {:.2}, \"imbalance\": {:.4}, \
             \"splitter_stall_cycles\": {}, \"completed\": {}}}{}",
            p.shards,
            r.mdesc_per_s,
            r.mdesc_per_s / base,
            r.mean_latency_ns,
            p.snapshot.imbalance(),
            p.snapshot.splitter_stall_cycles,
            r.completed,
            if i + 1 == points.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"acceptance_4_shards_ge_2x\": {meets}")?;
    writeln!(f, "}}")?;
    Ok(())
}
