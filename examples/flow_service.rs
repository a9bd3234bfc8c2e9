//! The long-running flow service end to end: multi-producer ingest with
//! backpressure, engine-level flow aging, a consistent checkpoint, a
//! warm restart proven bit-identical, and an online 2→4 shard rescale
//! with zero flow loss.
//!
//! Run with: `cargo run --release --example flow_service`
//! (pass `--smoke` for a scaled-down CI run-check)

use flowlut::core::{ExpiryPolicy, PressurePolicy, SimConfig};
use flowlut::engine::EngineConfig;
use flowlut::service::{FlowService, ServiceConfig};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::FlowEventKind;

fn config() -> ServiceConfig {
    let mut shard = SimConfig::test_small();
    shard.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 20_000, // 100 us at the 5 ns system clock
        scan_stride: 8,
    });
    shard.pressure = Some(PressurePolicy {
        cam_high_water: 12,
        scan_batch: 8,
        victim_cap: 256,
    });
    let mut engine = EngineConfig::test_small();
    engine.shard = shard;
    ServiceConfig::new(engine)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let packets = if smoke { 4_000 } else { 20_000 };
    let trace = FabricTraceProfile::european_2012().generate(packets);
    let (first_half, second_half) = trace.split_at(packets / 2);

    // ---- Phase 1: ingest through the bounded queue ----
    let mut svc = FlowService::new(config()).expect("valid config");
    let producers: Vec<_> = first_half
        .chunks(first_half.len().div_ceil(4))
        .map(|chunk| {
            let handle = svc.handle();
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for d in chunk {
                    handle.send(d).expect("queue open"); // blocks when full
                }
            })
        })
        .collect();
    while svc.poll().stats.completed < first_half.len() as u64 {
        svc.pump(256);
    }
    for p in producers {
        p.join().expect("producer thread");
    }
    let progress = svc.poll();
    println!(
        "ingested {} packets from 4 producer threads: {} flows live",
        progress.stats.completed,
        svc.engine().occupancy().total(),
    );

    // ---- Phase 2: age — idle time expires flows, events fire ----
    svc.pump(60_000);
    let events = svc.events();
    let expired = events
        .iter()
        .filter(|e| e.kind == FlowEventKind::ExpiredTtl)
        .count();
    let evicted = svc.take_victims();
    println!(
        "after 0.3 ms idle: {} TTL-expiry events, {} pressure victims, {} flows live",
        expired,
        evicted.len(),
        svc.engine().occupancy().total(),
    );

    // ---- Phase 3: checkpoint, then prove the restore bit-identical ----
    let blob = svc.checkpoint().expect("quiesced service checkpoints");
    println!("checkpoint: {} bytes", blob.len());
    let mut restored = FlowService::restore(config(), &blob).expect("blob restores");
    {
        // Chunked so the bounded queue never wedges the single-threaded
        // replay; both services see the identical send/pump schedule.
        let h_live = svc.handle();
        let h_rest = restored.handle();
        for chunk in second_half.chunks(2_048) {
            for d in chunk {
                h_live.send(*d).expect("queue open");
                h_rest.send(*d).expect("queue open");
            }
            svc.drain().expect("the service drains");
            restored.drain().expect("the service drains");
        }
    }
    assert_eq!(
        svc.engine().snapshot(),
        restored.engine().snapshot(),
        "restored replay must be bit-identical to the live instance"
    );
    println!(
        "warm restart: replayed {} packets on live and restored — snapshots bit-identical",
        second_half.len()
    );

    // ---- Phase 4: online rescale 2 -> 4 shards, zero loss ----
    let flows_before = restored.engine().occupancy().total();
    let report = restored.rescale_double().expect("rescale fits");
    assert_eq!(restored.engine().occupancy().total(), flows_before);
    println!(
        "rescale: {} -> {} shards, {} flows rehomed in {} drain cycles, zero loss",
        report.old_shards, report.new_shards, report.migrated_flows, report.drained_cycles
    );

    // The widened service keeps serving: resident flows still hit.
    let h = restored.handle();
    for d in first_half.iter().take(500) {
        h.send(*d).expect("queue open");
    }
    restored.drain().expect("the service drains");
    println!(
        "post-rescale: {} descriptors completed in total on {} shards",
        restored.poll().stats.completed,
        report.new_shards
    );
}
