//! Regenerates **Table II(A)** — performance tests with defined hash
//! patterns: load balancing and bank selection.
//!
//! The paper drives the sequencer with 10 k raw-hash stimuli and reports
//! the worst-case average processing rate over an input-rate sweep of
//! 60–100 MHz. Rows: random hashes under balanced load, and the unique
//! bank-increment pattern at path-A loads of 50 %, 25 % and 0 %.

use flowlut_bench::{print_comparison, Row};
use flowlut_core::{FlowLutSim, FlowPipeline, LoadBalancerPolicy, SimConfig};
use flowlut_ddr3::Ddr3Params;
use flowlut_traffic::workloads::{HashPattern, HashPatternWorkload};

/// Runs one Table II(A) row: sweeps the input rate like the paper and
/// returns the worst-case average processing rate plus the realised
/// path-A load share.
fn run_row(pattern: HashPattern, policy: LoadBalancerPolicy) -> (f64, f64) {
    // See table2b: the sweep finds the rate at which the system, not the
    // source, is the bottleneck.
    let mut best = 0.0f64;
    let mut share = 0.0;
    for input_mhz in [60.0, 80.0, 100.0] {
        let cfg = SimConfig {
            load_balancer: policy,
            input_rate_mhz: input_mhz,
            ..SimConfig::default()
        };
        let buckets = cfg.table.buckets_per_mem;
        let banks = Ddr3Params::default().geometry.banks;
        let mut sim = FlowLutSim::new(cfg);
        let w = HashPatternWorkload {
            pattern,
            count: flowlut_bench::scaled(10_000),
            buckets,
            banks,
            seed: 0xA11CE,
        };
        let report = sim.start_run().run(&w.build()).expect("fresh session");
        if report.mdesc_per_s > best {
            best = report.mdesc_per_s;
            share = report.stats.load_share_a();
        }
    }
    (best, share)
}

fn main() {
    println!("Table II(A): performance tests with defined hash patterns");
    println!("10k descriptors per row; input rate swept 60-100 MHz; worst case reported\n");

    let rows = [
        (
            "Random hash (load balanced)",
            HashPattern::RandomHash,
            LoadBalancerPolicy::HashSplit,
            44.05,
            0.508,
        ),
        (
            "Unique hash, bank increment, 50.0% on A",
            HashPattern::BankIncrement,
            LoadBalancerPolicy::FixedRatio {
                path_a_permille: 500,
            },
            44.59,
            0.500,
        ),
        (
            "Unique hash, bank increment, 25.0% on A",
            HashPattern::BankIncrement,
            LoadBalancerPolicy::FixedRatio {
                path_a_permille: 250,
            },
            41.09,
            0.250,
        ),
        (
            "Unique hash, bank increment, 0% on A",
            HashPattern::BankIncrement,
            LoadBalancerPolicy::FixedRatio { path_a_permille: 0 },
            36.53,
            0.0,
        ),
    ];

    let mut out = Vec::new();
    for (label, pattern, policy, paper, paper_share) in rows {
        let (mdesc, share) = run_row(pattern, policy);
        println!(
            "{label:<42} load A: measured {:>5.1}% (paper {:>5.1}%)",
            100.0 * share,
            100.0 * paper_share
        );
        out.push(Row::new(label, paper, mdesc));
    }
    print_comparison("Table II(A): processing rate", "Mdesc/s", &out);
    flowlut_bench::save_comparison("table2a", &out);
    println!(
        "\nshape checks: random ~= bank-increment at 50% load; rate degrades \
         monotonically as load skews to one path (paper: 44.6 -> 41.1 -> 36.5)."
    );
}
