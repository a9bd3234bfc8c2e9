//! Related-work shoot-out: every backend through one generic loop.
//!
//! Builds the full comparison set — the paper's functional Hash-CAM
//! table, the cycle-stepped single-channel prototype, the 2-shard
//! multi-channel engine, and all six related-work baselines — behind
//! `Box<dyn FlowStore>` with [`flowlut::backends`], then drives each
//! through the *same* measurement loop: (1) how far it loads before its
//! first insertion failure, (2) DRAM probes per lookup at the achieved
//! load, (3) relocation overhead, and — for the timed backends — (4) the
//! streamed processing rate. No per-structure match arms anywhere: the
//! loop branches only on the [`FlowPipeline`] *capability*.
//!
//! Run with: `cargo run --release --example baseline_comparison`

use flowlut::core::SimConfig;
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
use flowlut::Session;

fn key(i: u64) -> FlowKey {
    FlowKey::from(FiveTuple::from_index(i))
}

fn main() {
    println!(
        "{:<22} {:>9} {:>14} {:>13} {:>12} {:>10}",
        "structure", "capacity", "load@1st fail", "reads/lookup", "relocations", "Mdesc/s"
    );
    println!("{}", "-".repeat(85));

    for mut backend in flowlut::backends(SimConfig::test_small()) {
        let capacity = backend.capacity();

        // Phase 1: load until the first insertion failure. The unified
        // FullError tells us how full the structure was when it refused.
        let mut first_fail = None;
        for i in 0..2 * capacity {
            if let Err(e) = backend.insert(key(i)) {
                debug_assert_eq!(e.occupancy, backend.len());
                first_fail = Some(i);
                break;
            }
        }
        let fail_load = first_fail.map_or(1.0, |n| n as f64 / capacity as f64);
        let resident = backend.len();

        // Phase 2: probes per lookup at the achieved load. Functional
        // stores answer membership queries (half hits, half misses);
        // timed backends stream resident keys through a paced session,
        // which also yields their processing rate.
        let before = backend.op_stats();
        let mut rate = None;
        match backend.as_pipeline() {
            Some(pipe) => {
                let descs = PacketDescriptor::sequence((0..resident).map(key));
                let report = Session::new(pipe).run(&descs).expect("fresh session");
                rate = Some(report.mdesc_per_s);
            }
            None => {
                for i in 0..resident / 2 {
                    backend.contains(&key(i));
                }
                for i in 8 * capacity..8 * capacity + resident / 2 {
                    backend.contains(&key(i));
                }
            }
        }
        let delta = backend.op_stats().delta_since(&before);
        let reads_per_lookup = delta.mem_reads as f64 / delta.lookups.max(1) as f64;

        let stats = backend.op_stats();
        println!(
            "{:<22} {:>9} {:>13.1}% {:>13.2} {:>12} {:>10}",
            backend.name(),
            capacity,
            100.0 * fail_load,
            reads_per_lookup,
            stats.relocations,
            rate.map_or_else(|| "-".into(), |r: f64| format!("{r:.1}")),
        );
    }

    println!(
        "\nreading the table: the paper's scheme loads deep (two choices + CAM), \
         needs no insert-time relocations (vs cuckoo/one-move), and its early \
         exit keeps DRAM reads/lookup below the simultaneous Hash-CAM's 2.0; \
         the timed rows show the same structure sustaining line-rate streams, \
         and sharding multiplying the rate."
    );
}
