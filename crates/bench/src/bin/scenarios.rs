//! Scenario matrix: declarative workloads × every backend.
//!
//! Runs the six canonical scenarios — uniform, Zipf-skewed (the fabric
//! trace law), elephant/mice, flow churn, burst trains, and the
//! adversarial collision flood (mined keys whose *both* H3 bucket
//! choices land in a 4-bucket region of the victim table, on top of a
//! realistic Zipf background fill) — through all nine backends: the
//! paper's functional Hash-CAM table, the cycle-stepped prototype, the
//! 2-channel sharded engine, and every related-work baseline. Each
//! scenario's descriptor stream is materialised once and replayed
//! identically into every backend.
//!
//! The flood is the table's raison d'être: two-choice balancing is
//! defeated by construction, the colliding keys spill onto the CAM
//! overflow path, and the table keeps answering — while capacity-matched
//! baselines visibly drop flows. The JSON records drop/overflow/expiry
//! rates and CAM high-water occupancy per (scenario, backend) cell.
//!
//! Writes the machine-readable `BENCH_scenarios.json` consumed by the
//! perf-snapshot CI step (`cargo xtask lint` checks its schema).
//!
//! Modes: default (full sweep), `--quick` (CI perf snapshot), `--smoke`
//! (run-check only; numbers not meaningful).

use std::io::Write as _;

use flowlut::core::{SimConfig, TableConfig};
use flowlut::scenarios::{Scenario, ScenarioReport, ScenarioRunner};
use flowlut_bench::{json_path, quick_mode, smoke_mode};

/// The six canonical scenarios, sized for `packets` per stage. Flow
/// populations target ~60 % of the `test_small` capacity (1040 keys),
/// so realistic scenarios fit every capacity-matched backend while the
/// adversarial flood separates them.
fn scenario_set(packets: usize) -> Vec<Scenario> {
    let cfg = TableConfig::test_small();
    vec![
        Scenario::new("uniform", 101).uniform(600, packets),
        Scenario::new("zipf-fabric", 102).zipf(600, 0.98, packets),
        Scenario::new("elephant-mice", 103).elephant_mice(8, 600, 0.8, packets),
        Scenario::new("churn", 104).churn(400, 0.04, packets),
        Scenario::new("burst", 105).burst(300, 32, packets),
        Scenario::new("adversarial-flood", 106)
            .zipf(600, 0.98, packets)
            .adversarial_for(&cfg, 24, 4, 2),
    ]
}

fn main() {
    let (mode, packets) = if smoke_mode() {
        ("smoke", 300)
    } else if quick_mode() {
        ("quick", 3_000)
    } else {
        ("full", 10_000)
    };
    println!("Scenario matrix: declarative workloads x every backend ({mode} mode)");
    println!(
        "six scenarios, {packets} packets per stage, one stream per scenario \
         replayed into all nine backends at matched capacity\n"
    );

    let runner = ScenarioRunner::new();
    let scenarios = scenario_set(packets);
    let mut rows: Vec<ScenarioReport> = Vec::new();
    for scenario in &scenarios {
        // Materialise once; every backend sees the identical stream.
        let descs = scenario.generate();
        for backend in flowlut::backends(SimConfig::test_small()).iter_mut() {
            rows.push(runner.run_stream(&scenario.name, &descs, backend.as_mut()));
        }
    }

    println!(
        "{:>17} {:>21} {:>8} {:>9} {:>10} {:>10} {:>8} {:>12}",
        "scenario", "backend", "offered", "resident", "drop rate", "overflow", "cam hwm", "Mdesc/s"
    );
    println!("{}", "-".repeat(103));
    for r in &rows {
        println!(
            "{:>17} {:>21} {:>8} {:>9} {:>9.4} {:>10.4} {:>8} {:>12.2}",
            r.scenario,
            r.backend,
            r.offered,
            r.resident_end,
            r.drop_rate(),
            r.overflow_rate(),
            r.cam_high_water,
            r.mdesc_per_s,
        );
    }

    // Acceptance 1: the flood exercises the paper table's CAM overflow
    // path (functional spill counters) and shows up as live CAM
    // occupancy on the cycle-stepped prototype.
    let flood = |backend: &str| {
        rows.iter()
            .find(|r| r.scenario == "adversarial-flood" && r.backend == backend)
            .expect("flood row present for every backend")
    };
    let table_row = flood("hashcam (this paper)");
    let sim_row = flood("hashcam-sim");
    let cam_exercised = table_row.overflow_rate() > 0.0 && sim_row.cam_high_water > 0;

    // Acceptance 2: under the same flood, at least one capacity-matched
    // baseline drops a larger fraction of flows than the paper's table.
    let hashcam_drop = table_row.drop_rate();
    let worst_baseline = rows
        .iter()
        .filter(|r| r.scenario == "adversarial-flood" && !r.backend.starts_with("hashcam"))
        .max_by(|a, b| a.drop_rate().total_cmp(&b.drop_rate()))
        .expect("baseline flood rows present");
    let baseline_degrades = worst_baseline.drop_rate() > hashcam_drop;

    println!(
        "\nflood exercises the Hash-CAM overflow path: {} \
         (table overflow rate {:.4}, sim CAM high-water {})",
        if cam_exercised { "yes" } else { "NO" },
        table_row.overflow_rate(),
        sim_row.cam_high_water,
    );
    println!(
        "a baseline degrades beyond the table under flood: {} \
         ({} drops {:.4} vs table {:.4})",
        if baseline_degrades { "yes" } else { "NO" },
        worst_baseline.backend,
        worst_baseline.drop_rate(),
        hashcam_drop,
    );

    let path = json_path("BENCH_scenarios.json", mode == "quick");
    match write_json(
        &path,
        mode,
        packets,
        &rows,
        cam_exercised,
        baseline_degrades,
    ) {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("error: could not save {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Serialises the matrix by hand — the workspace has no JSON dependency,
/// and the schema is flat enough that formatting beats vendoring one.
fn write_json(
    path: &std::path::Path,
    mode: &str,
    packets: usize,
    rows: &[ScenarioReport],
    cam_exercised: bool,
    baseline_degrades: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"scenarios\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(f, "  \"packets_per_stage\": {packets},")?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            f,
            "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"offered\": {}, \
             \"completed\": {}, \"distinct_flows\": {}, \"resident_end\": {}, \
             \"rejected\": {}, \"cam_spills\": {}, \"expired\": {}, \"evicted\": {}, \
             \"cam_high_water\": {}, \"drop_rate\": {:.6}, \"overflow_rate\": {:.6}, \
             \"mdesc_per_s\": {:.4}, \"timed\": {}}}{}",
            r.scenario,
            r.backend,
            r.offered,
            r.completed,
            r.distinct_flows,
            r.resident_end,
            r.rejected,
            r.cam_spills,
            r.expired,
            r.evicted,
            r.cam_high_water,
            r.drop_rate(),
            r.overflow_rate(),
            r.mdesc_per_s,
            r.timed,
            if i + 1 == rows.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(
        f,
        "  \"acceptance_adversarial_cam_exercised\": {cam_exercised},"
    )?;
    writeln!(f, "  \"acceptance_baseline_degrades\": {baseline_degrades}")?;
    writeln!(f, "}}")?;
    Ok(())
}
