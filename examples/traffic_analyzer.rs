//! The Figure 7 system: a real-time traffic analyzer around the flow
//! LUT — packet buffer, event engine and stats engine.
//!
//! Streams normal fabric traffic, then injects a port-scan-like surge of
//! single-packet flows, and shows the event engine catching it.
//!
//! Run with: `cargo run --release --example traffic_analyzer`

use flowlut::analyzer::{AnalyzerConfig, Event, EventThresholds, TrafficAnalyzer};
use flowlut::core::SimConfig;
use flowlut::ddr3::{Ddr3Params, Geometry, MemorySpec};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};

fn main() {
    let mut cfg = SimConfig::test_small();
    cfg.table.buckets_per_mem = 16_384;
    cfg.table.cam_capacity = 512;
    // The 64-row test part is too small for 16 K buckets per memory.
    cfg.memory = MemorySpec::Ddr3(Ddr3Params {
        geometry: Geometry {
            banks: 8,
            rows: 1024,
            cols: 32,
            bus_width_bits: 32,
            burst_length: 8,
        },
        ..Ddr3Params::default()
    });
    let mut analyzer = TrafficAnalyzer::new(AnalyzerConfig {
        sim: cfg,
        buffer_depth: 20_000,
        thresholds: EventThresholds {
            elephant_bytes: 5_000,
            surge_new_flow_fraction: 0.7,
            table_load_factor: 0.9,
        },
    });

    // Phase 1: normal fabric traffic.
    let normal = FabricTraceProfile::european_2012().generate(15_000);
    let out = analyzer.process(&normal);
    println!(
        "phase 1: {} fabric packets at {:.1} Mdesc/s",
        out.processed, out.mdesc_per_s
    );
    println!(
        "  events: {:?}",
        out.events.iter().map(event_name).collect::<Vec<_>>()
    );

    // Phase 2: a scan — thousands of single-packet flows.
    let scan: Vec<PacketDescriptor> = (0..4_000)
        .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(1_000_000 + i))))
        .collect();
    let out = analyzer.process(&scan);
    println!("\nphase 2: {} scan packets injected", out.processed);
    for e in &out.events {
        match e {
            Event::NewFlowSurge { fraction } => {
                println!(
                    "  !! NEW-FLOW SURGE: {:.0}% of batch created flows (scan symptom)",
                    fraction * 100.0
                )
            }
            other => println!("  event: {}", event_name(other)),
        }
    }
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, Event::NewFlowSurge { .. })),
        "the scan must trip the surge detector"
    );

    // Stats engine report.
    let stats = analyzer.stats();
    println!("\n== stats engine ==");
    println!(
        "  packets: {}, bytes: {}",
        stats.total_packets(),
        stats.total_bytes()
    );
    println!(
        "  new flows: {}, matched: {}",
        stats.new_flows(),
        stats.matched()
    );
    println!("  protocol mix: {:?}", stats.protocol_mix());
    println!("  flow-size distribution:");
    for (class, count) in stats.flow_size_distribution() {
        println!("    {class:?}: {count}");
    }
    println!("  top flows: {:?}", stats.top_flows(3));
}

fn event_name(e: &Event) -> &'static str {
    match e {
        Event::ElephantFlow { .. } => "ElephantFlow",
        Event::NewFlowSurge { .. } => "NewFlowSurge",
        Event::TablePressure { .. } => "TablePressure",
        Event::FlowDrops { .. } => "FlowDrops",
    }
}
