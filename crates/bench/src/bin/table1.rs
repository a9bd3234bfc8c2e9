//! Regenerates **Table I** — on-chip resource usage on the Stratix V
//! prototype device — from the resource model (see DESIGN.md for the
//! substitution rationale: the constants are calibrated to the paper's
//! fitter report; the model's value is how totals move with
//! configuration).

use flowlut_bench::{print_comparison, Row};
use flowlut_core::resource::{self, paper_table1};
use flowlut_core::SimConfig;

fn main() {
    let cfg = SimConfig::default();
    let est = resource::estimate(&cfg);

    println!("Table I: resource usage on Stratix V 5SGXEA7N2F45C2");
    println!("(resource-model ESTIMATE, not a synthesis result)\n");
    println!("{:<52} {:>10} {:>14}", "component", "ALMs", "memory bits");
    println!("{}", "-".repeat(80));
    for line in &est.lines {
        println!(
            "{:<52} {:>10} {:>14}",
            line.component, line.cost.alms, line.cost.memory_bits
        );
    }
    println!("{}", "-".repeat(80));

    let rows = vec![
        Row::new(
            "Logic utilization (ALMs)",
            paper_table1::ALMS as f64,
            est.total.alms as f64,
        ),
        Row::new(
            "Block memory bits",
            paper_table1::MEMORY_BITS as f64,
            est.total.memory_bits as f64,
        ),
        Row::new(
            "Total registers",
            paper_table1::REGISTERS as f64,
            est.total.registers as f64,
        ),
        Row::new(
            "Total PLLs",
            f64::from(paper_table1::PLLS),
            f64::from(est.plls),
        ),
        Row::new(
            "Total DLLs",
            f64::from(paper_table1::DLLS),
            f64::from(est.dlls),
        ),
    ];
    print_comparison("Table I: paper vs model", "count", &rows);
    flowlut_bench::save_comparison("table1", &rows);
    println!(
        "\nutilization: ALMs {:.1}% (paper 13%), memory bits {:.1}% (paper 5%)",
        100.0 * est.alm_utilization(),
        100.0 * est.memory_utilization()
    );
}
