//! Quickstart: the flow table in five minutes.
//!
//! Builds a Hash-CAM flow table, processes a handful of packets the way
//! a flow processor would (upsert per packet), inspects where entries
//! landed, and streams the same packets through the cycle-accurate
//! simulator for timing — all through the unified `FlowStore` API, plus
//! the typed core API where the richer detail (flow IDs, per-flow state)
//! lives.
//!
//! Run with: `cargo run --example quickstart`

use flowlut::core::{FlowLutSim, HashCamTable, SimConfig, TableConfig};
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
use flowlut::{FlowStore, Session};

fn main() {
    // ----- Functional layer: any backend, one API -----
    // Every backend is a `FlowStore`; swap in a `ShardedFlowLut` or
    // `BaselineKind::Cuckoo.build(&config)` without touching the loop.
    let mut functional = HashCamTable::new(TableConfig::test_small());
    let table: &mut dyn FlowStore = &mut functional;

    let flows = [
        FiveTuple::new([10, 0, 0, 1], [192, 168, 1, 1], 443, 51000, 6),
        FiveTuple::new([10, 0, 0, 2], [192, 168, 1, 1], 443, 51001, 6),
        FiveTuple::new([10, 0, 0, 3], [8, 8, 8, 8], 53, 41000, 17),
    ];

    println!("processing packets through the functional table:");
    for (i, tuple) in flows.iter().enumerate() {
        let key = FlowKey::from(*tuple);
        // First packet of each flow creates an entry...
        let created = table.insert(key).expect("table has room");
        println!("  pkt {i}: {tuple} (new flow: {created})");
        // ...subsequent packets match it.
        assert!(!table.insert(key).expect("table has room"));
        assert!(table.contains(&key));
    }
    println!(
        "occupancy: {} of {} slots; {:.2} DRAM reads per lookup so far\n",
        table.len(),
        table.capacity(),
        table.op_stats().reads_per_lookup()
    );

    // ----- Typed core API: flow IDs and placement detail -----
    let mut typed = HashCamTable::new(TableConfig::test_small());
    for tuple in &flows {
        let (fid, created) = typed
            .lookup_or_insert(FlowKey::from(*tuple))
            .expect("table has room");
        assert!(created);
        println!("  {tuple} -> {fid}");
    }
    let occ = typed.occupancy();
    println!(
        "placement: {} in Mem1, {} in Mem2, {} in CAM (load factor {:.4})\n",
        occ.mem_a,
        occ.mem_b,
        occ.cam,
        typed.load_factor()
    );

    // ----- Timed layer: the same packets against simulated DDR3 -----
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let descriptors: Vec<PacketDescriptor> = flows
        .iter()
        .cycle()
        .take(60)
        .enumerate()
        .map(|(seq, t)| PacketDescriptor::new(seq as u64, FlowKey::from(*t)))
        .collect();
    let report = Session::new(&mut sim)
        .run(&descriptors)
        .expect("fresh session");
    println!(
        "timed simulation of {} packets over 3 flows ({} channel):",
        report.completed, report.channels
    );
    println!(
        "  {:.2} Mdesc/s at a 200 MHz system clock",
        report.mdesc_per_s
    );
    println!(
        "  new flows: {}, matched: {}, mean latency {:.0} ns",
        report.stats.inserted_mem + report.stats.inserted_cam,
        report.stats.lu1_hits + report.stats.lu2_hits + report.stats.cam_hits,
        report.mean_latency_ns
    );
}
