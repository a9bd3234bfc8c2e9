//! Declarative scenario sweep: one spec, every backend.
//!
//! Builds a scenario — a realistic Zipf background fill followed by an
//! adversarial collision flood mined against the table's own H3 bucket
//! functions — and runs it through the whole comparison registry with
//! one [`ScenarioRunner`]: the paper's functional Hash-CAM table, the
//! cycle-stepped prototype, the 2-shard engine, and all six
//! related-work baselines. One spec, one stream,
//! nine verdicts: the Hash-CAM absorbs the flood on its CAM overflow
//! path while capacity-constrained baselines start dropping flows.
//!
//! Run with: `cargo run --release --example scenario_sweep`
//! (pass `--smoke` for a scaled-down CI run-check)

use flowlut::core::{SimConfig, TableConfig};
use flowlut::scenarios::{Scenario, ScenarioRunner};

fn main() {
    // Scaled-down run-check: shrink the background fill only.
    let fill = if std::env::args().any(|a| a == "--smoke") {
        400
    } else {
        4000
    };
    // Realistic background (the fabric-trace law), then 24 keys whose
    // both bucket choices land in 4 buckets, offered twice. The
    // attacker's knowledge is just the public table config.
    let scenario = Scenario::new("flood-vs-fill", 2014)
        .zipf(600, 0.98, fill)
        .adversarial_for(&TableConfig::test_small(), 24, 4, 2);

    println!("scenario `{}` (seed {}):", scenario.name, scenario.seed);
    for stage in &scenario.stages {
        println!("  - {} stage, {} packets", stage.kind(), stage.packets());
    }
    println!();

    // Materialise once; every backend replays the identical stream.
    let descs = scenario.generate();
    let runner = ScenarioRunner::new();
    println!(
        "{:>21} {:>8} {:>9} {:>10} {:>10} {:>8}",
        "backend", "offered", "resident", "drop rate", "overflow", "cam hwm"
    );
    println!("{}", "-".repeat(72));
    let mut table_overflow = 0.0f64;
    let mut worst_baseline_drop = 0.0f64;
    for backend in flowlut::backends(SimConfig::test_small()).iter_mut() {
        let r = runner.run_stream(&scenario.name, &descs, backend.as_mut());
        println!(
            "{:>21} {:>8} {:>9} {:>9.4} {:>10.4} {:>8}",
            r.backend,
            r.offered,
            r.resident_end,
            r.drop_rate(),
            r.overflow_rate(),
            r.cam_high_water,
        );
        if r.backend == "hashcam (this paper)" {
            table_overflow = r.overflow_rate();
        } else if !r.backend.starts_with("hashcam") {
            worst_baseline_drop = worst_baseline_drop.max(r.drop_rate());
        }
    }

    println!(
        "\nthe flood lands on the Hash-CAM's overflow path (overflow rate {table_overflow:.4}) \
         while the worst baseline drops {worst_baseline_drop:.4} of offered flows"
    );
    assert!(
        table_overflow > 0.0,
        "adversarial stage failed to exercise the CAM"
    );
}
