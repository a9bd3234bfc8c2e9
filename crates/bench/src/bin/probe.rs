//! Quick calibration probe (not a paper experiment): prints Table II-style
//! numbers for the default configuration so calibration drift is visible
//! during development.

use flowlut_core::LoadBalancerPolicy;
use flowlut_core::{FlowLutSim, FlowPipeline, SimConfig};
use flowlut_traffic::workloads::{HashPattern, HashPatternWorkload, MatchRateWorkload};

fn main() {
    println!("== Table II(B) probe: miss-rate sweep, 10k preload, 10k queries ==");
    for miss in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let cfg = SimConfig::default();
        let mut sim = FlowLutSim::new(cfg);
        let w = MatchRateWorkload {
            table_size: flowlut_bench::scaled(10_000),
            queries: flowlut_bench::scaled(10_000),
            match_rate: 1.0 - miss,
            seed: 1,
        };
        let set = w.build();
        sim.preload(set.preload.iter().copied()).unwrap();
        let r = sim.start_run().run(&set.queries).expect("fresh session");
        println!(
            "miss {:>5.0}% -> {:>6.2} Mdesc/s (lu1 {} lu2 {} ins {} cam {} drops {})",
            miss * 100.0,
            r.mdesc_per_s,
            r.stats.lu1_hits,
            r.stats.lu2_hits,
            r.stats.inserted_mem,
            r.stats.inserted_cam,
            r.stats.drops
        );
    }

    println!("== Table II(A) probe: hash patterns ==");
    for (name, pattern, permille) in [
        ("random, balanced", HashPattern::RandomHash, 500u16),
        ("increment, 50%", HashPattern::BankIncrement, 500),
        ("increment, 25%", HashPattern::BankIncrement, 250),
        ("increment, 0%", HashPattern::BankIncrement, 0),
    ] {
        let cfg = SimConfig {
            load_balancer: LoadBalancerPolicy::FixedRatio {
                path_a_permille: permille,
            },
            ..SimConfig::default()
        };
        let buckets = cfg.table.buckets_per_mem;
        let mut sim = FlowLutSim::new(cfg);
        let w = HashPatternWorkload {
            pattern,
            count: flowlut_bench::scaled(10_000),
            buckets,
            banks: 8,
            seed: 3,
        };
        let r = sim.start_run().run(&w.build()).expect("fresh session");
        println!(
            "{name:>18}: {:>6.2} Mdesc/s (load A {:.1}%)",
            r.mdesc_per_s,
            100.0 * r.stats.load_share_a()
        );
    }
}
