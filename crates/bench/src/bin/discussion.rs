//! Regenerates the **§V-B discussion** numbers: 40 GbE packet-rate
//! requirements, the sustained-throughput claim at realistic miss rates,
//! the 8 M-flow steady-state argument, and the product comparison.

use flowlut_bench::{print_comparison, Row};
use flowlut_core::{FlowLutSim, FlowPipeline, SimConfig};
use flowlut_traffic::fabric::{new_flow_ratio, FabricTraceProfile};
use flowlut_traffic::linerate::{EthernetLink, MIN_L1_PACKET_BYTES, STANDARD_IFG_BYTES};
use flowlut_traffic::workloads::MatchRateWorkload;

fn measured_rate_at_miss(miss: f64) -> f64 {
    let cfg = SimConfig::default();
    let mut sim = FlowLutSim::new(cfg);
    let w = MatchRateWorkload {
        table_size: flowlut_bench::scaled(10_000),
        queries: flowlut_bench::scaled(10_000),
        match_rate: 1.0 - miss,
        seed: 0xD15C,
    };
    let set = w.build();
    sim.preload(set.preload.iter().copied()).unwrap();
    sim.start_run()
        .run(&set.queries)
        .expect("fresh session")
        .mdesc_per_s
}

fn main() {
    println!("Discussion (Section V-B): 40GbE feasibility\n");

    // 1. Line-rate arithmetic.
    let link = EthernetLink::forty_gbe();
    let rows = vec![
        Row::new(
            "40G, 72B L1 packets, 12B IFG (Mpps)",
            59.52,
            link.min_packet_rate_standard_ifg_mpps(),
        ),
        Row::new(
            "40G, 72B L1 packets, 1B IFG worst case (Mpps)",
            68.49,
            link.min_packet_rate_worst_case_mpps(),
        ),
    ];
    print_comparison("Packet-rate requirements", "Mpps", &rows);
    flowlut_bench::save_comparison("discussion_requirements", &rows);

    // 2. Sustained lookup rate vs the requirement.
    println!("\nSustained processing rate vs miss rate (10k-entry table):");
    let req = link.min_packet_rate_standard_ifg_mpps();
    for miss in [0.5, 0.4, 0.25, 0.02] {
        let rate = measured_rate_at_miss(miss);
        let verdict = if rate >= req {
            "meets 40G"
        } else {
            "below 40G"
        };
        println!(
            "  miss {:>4.0}% -> {rate:>6.2} Mdesc/s ({verdict}, requirement {req:.2})",
            miss * 100.0
        );
    }

    // 3. Steady-state miss rate from the fabric trace: with a large
    // table, the new-flow (miss) fraction drops below a few percent.
    let trace_len = flowlut_bench::scaled(1_000_000);
    let trace = FabricTraceProfile::european_2012().generate(trace_len);
    let steady_miss = new_flow_ratio(&trace, trace_len);
    println!(
        "\nsteady-state new-flow fraction on the fabric trace: {:.2}% \
         (paper: <=2% at 8M concurrent flows)",
        100.0 * steady_miss
    );
    let rate_low_miss = measured_rate_at_miss(steady_miss.min(0.05));
    let gbps =
        EthernetLink::achievable_gbps(rate_low_miss, MIN_L1_PACKET_BYTES, STANDARD_IFG_BYTES);
    println!(
        "at that miss rate the engine sustains {rate_low_miss:.2} Mdesc/s = {gbps:.1} Gbps \
         of 72-byte packets (paper: >94 Mdesc/s -> >50 Gbps)"
    );

    // 4. Product comparison (datasheet figures the paper cites).
    println!("\nComparison points cited by the paper:");
    println!("  this work            : 8M flows, >=70 Mlookup/s, 40GbE+ target");
    println!("  Cisco Catalyst 6500 Supervisor 2TXL: 1M flow entries");
    println!("  Netronome NFP3240    : 8M flow entries at 20 Gbps");
}
