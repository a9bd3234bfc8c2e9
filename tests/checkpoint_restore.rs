//! Warm-restart and online-rescale guarantees of the sharded engine:
//!
//! * a [`ShardedFlowLut::checkpoint`] blob restores to an engine whose
//!   replay is **bit-identical** to the live instance continuing past
//!   the checkpoint — every snapshot field, every report counter — with
//!   DRAM refresh off and on;
//! * checkpoint, restore and rescale cost the same at any cycle: a
//!   simulator and an engine at cycle 2^40 checkpoint, restore, rescale
//!   and replay as they do at cycle 0;
//! * the blob itself round-trips byte-identically (restore → checkpoint
//!   is a fixed point), so checkpoint chains never drift — at one shard
//!   and at more shards than the host has cores, which restore on
//!   fewer executors than shards;
//! * functional inserts keep every shard on the engine clock, so an
//!   engine they filled checkpoints to a blob its restore accepts;
//! * [`ShardedFlowLut::rescale_double`] rehomes every resident flow
//!   onto the doubled shard set with zero descriptor loss — including
//!   descriptors still in flight when the rescale is requested — and
//!   lands each flow on **exactly one** shard, the one the widened
//!   router owns it under.

use std::collections::HashSet;

use flowlut::core::checkpoint::Fnv64;
use flowlut::core::{ExpiryPolicy, FlowLutSim, FlowRecord, PressurePolicy, SimConfig};
use flowlut::ddr3::MemorySpec;
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
use flowlut::{CheckpointError, FlowPipeline, FlowStore, Session};

/// Two shards, fast test geometry, both lifecycle policies on — the
/// checkpoint must capture aging cursors and victim lists, not just the
/// table.
fn config() -> EngineConfig {
    let mut shard = SimConfig::test_small();
    shard.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 30_000,
        scan_stride: 8,
    });
    shard.pressure = Some(PressurePolicy {
        cam_high_water: 12,
        scan_batch: 8,
        victim_cap: 256,
    });
    let mut cfg = EngineConfig::test_small();
    cfg.shard = shard;
    cfg
}

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

/// Resident flow keys, collected shard by shard.
fn resident_keys(engine: &ShardedFlowLut) -> HashSet<FlowKey> {
    let mut keys = HashSet::new();
    for i in 0..engine.shard_count() {
        let shard = engine.shard(i);
        keys.extend(shard.table().records_after(None).map(|(_, r)| r.key));
    }
    keys
}

/// Checks that `restored` starts as `live` stands, then replays the
/// identical `tail` on both: the restored engine must shadow the live
/// one counter for counter, cycle for cycle.
fn assert_replays_alike(
    live: &mut ShardedFlowLut,
    restored: &mut ShardedFlowLut,
    tail: &[PacketDescriptor],
) {
    assert_eq!(
        live.snapshot(),
        restored.snapshot(),
        "restore must reproduce the checkpointed state exactly"
    );
    let report_live = Session::new(&mut *live).run(tail).expect("fresh session");
    let report_restored = Session::new(&mut *restored)
        .run(tail)
        .expect("fresh session");
    assert_eq!(
        report_live, report_restored,
        "replay reports must be bit-identical"
    );
    assert_eq!(
        live.snapshot(),
        restored.snapshot(),
        "replay snapshots must be bit-identical"
    );
    assert!(
        report_live.completed == tail.len() as u64,
        "the replay must resolve every descriptor"
    );
}

/// At every shard count, including one (restored on the calling thread
/// alone) and three and four (on fewer executors than shards wherever
/// the host has fewer cores).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// The test shard with DRAM refresh on.
fn refreshing() -> SimConfig {
    SimConfig {
        refresh_enabled: true,
        ..SimConfig::test_small()
    }
}

/// Memory-clock cycles between two refreshes of `cfg`'s DDR3 part.
fn refresh_interval(cfg: &SimConfig) -> u64 {
    let MemorySpec::Ddr3(ddr3) = cfg.memory else {
        panic!("the test configuration is DDR3");
    };
    ddr3.timing.t_refi
}

/// With both lifecycle policies on, and with refresh on: the live and
/// the restored instance each go on from fresh memory models, so the
/// first refresh after the checkpoint falls at the same cycle in both.
#[test]
fn restored_engine_replays_bit_identically() {
    let descs = trace(4_000);
    let (prefix, tail) = descs.split_at(2_000);
    for shard in [config().shard, refreshing()] {
        for shards in SHARD_COUNTS {
            let cfg = EngineConfig {
                shards,
                shard: shard.clone(),
                ..config()
            };
            // Live instance: stream the prefix, settle, checkpoint.
            let mut live = ShardedFlowLut::new(cfg.clone());
            Session::new(&mut live).run(prefix).expect("fresh session");
            live.quiesce().unwrap();
            let mem_cycles = live.now_sys() * u64::from(shard.mem_ticks_per_sys());
            assert!(
                mem_cycles > refresh_interval(&shard),
                "the checkpoint falls past one refresh interval"
            );
            let blob = live.checkpoint().expect("quiescent engine checkpoints");

            let mut restored = ShardedFlowLut::restore(cfg, &blob).expect("own blob restores");
            assert_replays_alike(&mut live, &mut restored, tail);
        }
    }
}

/// A clock far past any a test could tick to: 2^40 system cycles.
const FAR: u64 = 1 << 40;

/// The flows of a short run, to adopt at [`FAR`].
fn adoptable_records(cfg: &SimConfig) -> Vec<FlowRecord> {
    let mut sim = FlowLutSim::new(cfg.clone());
    Session::new(&mut sim)
        .run(&trace(300))
        .expect("fresh session");
    sim.quiesce().unwrap();
    sim.table().records_after(None).map(|(_, r)| r).collect()
}

/// A simulator warm-started at cycle 2^40 checkpoints and restores as at
/// cycle 0, and the two replay alike. So does an engine there through a
/// rescale: its doubled shards warm-start at 2^40 too.
#[test]
fn a_checkpoint_at_cycle_2_40_restores_and_replays_alike() {
    let cfg = refreshing();
    let records = adoptable_records(&cfg);
    let mut live = FlowLutSim::warm_start(cfg.clone(), FAR);
    assert_eq!(live.adopt_flows(records.iter().copied()), Ok(records.len()));
    let blob = live
        .checkpoint()
        .expect("a warm-started simulator checkpoints");
    let mut restored =
        FlowLutSim::restore(cfg.clone(), &blob, |_| true).expect("own blob restores");
    assert_eq!(restored.now_sys(), FAR);
    let tail = trace(600);
    let report_live = Session::new(&mut live).run(&tail).expect("fresh session");
    let report_restored = Session::new(&mut restored)
        .run(&tail)
        .expect("fresh session");
    assert_eq!(report_live, report_restored);
    assert_eq!(report_live.completed, tail.len() as u64);
    live.quiesce().unwrap();
    restored.quiesce().unwrap();
    assert_eq!(live.checkpoint(), restored.checkpoint());

    // A one-shard engine at 2^40: a fresh engine's checkpoint with its
    // clock, the word after the magic, version, shard count and router
    // seed, moved to 2^40, and the warm-started shard's blob for its own.
    let one = EngineConfig {
        shards: 1,
        shard: cfg.clone(),
        ..EngineConfig::test_small()
    };
    let fresh = ShardedFlowLut::new(one.clone())
        .checkpoint()
        .expect("an idle engine checkpoints");
    let idle_shard = FlowLutSim::new(cfg)
        .checkpoint()
        .expect("an idle simulator checkpoints");
    assert!(fresh.ends_with(&idle_shard));
    let mut far = fresh[..fresh.len() - 8 - idle_shard.len()].to_vec();
    far[24..32].copy_from_slice(&FAR.to_le_bytes());
    far.extend_from_slice(&(blob.len() as u64).to_le_bytes());
    far.extend_from_slice(&blob);
    let two = EngineConfig {
        shards: 2,
        ..one.clone()
    };
    let mut engine = ShardedFlowLut::restore(one, &far).expect("the far engine restores");
    assert_eq!(engine.now_sys(), FAR);
    let report = engine.rescale_double().expect("doubled capacity fits");
    assert_eq!(report.migrated_flows, records.len() as u64);
    let blob = engine.checkpoint().expect("a rescaled engine checkpoints");
    let mut restored = ShardedFlowLut::restore(two, &blob).expect("own blob restores");
    assert_eq!(restored.now_sys(), FAR);
    assert_replays_alike(&mut engine, &mut restored, &tail);
}

#[test]
fn checkpoint_blob_round_trips_byte_identically() {
    for shards in SHARD_COUNTS {
        let cfg = EngineConfig { shards, ..config() };
        let mut engine = ShardedFlowLut::new(cfg.clone());
        Session::new(&mut engine)
            .run(&trace(1_500))
            .expect("fresh session");
        engine.quiesce().unwrap();
        let blob = engine.checkpoint().expect("quiescent engine checkpoints");

        let mut restored = ShardedFlowLut::restore(cfg, &blob).expect("own blob restores");
        let again = restored
            .checkpoint()
            .expect("restored engine is quiescent by construction");
        assert!(
            blob == again,
            "{shards} shards: restore -> checkpoint must be a fixed point"
        );
    }
}

/// Functional inserts run on the owning shard alone; the other shards
/// and the engine clock must step with it, or the engine checkpoints
/// shard clocks its own restore refuses.
#[test]
fn functional_inserts_keep_the_shards_in_lockstep() {
    let cfg = EngineConfig::test_small();
    let mut live = ShardedFlowLut::new(cfg.clone());
    for i in 0..4 {
        let key = FlowKey::from(FiveTuple::from_index(i));
        assert!(FlowStore::insert(&mut live, key).expect("room for four flows"));
    }
    for s in live.snapshot().per_shard {
        assert_eq!(s.now_sys, live.now_sys(), "a shard left the engine clock");
    }
    live.quiesce().unwrap();
    let blob = live.checkpoint().expect("quiescent engine checkpoints");
    let mut restored = ShardedFlowLut::restore(cfg, &blob).expect("own blob restores");
    assert_replays_alike(&mut live, &mut restored, &trace(500));
}

/// The bytes of one engine checkpoint, pinned by length and FNV-1a-64
/// digest: a fixed fabric run with both lifecycle policies on, idled
/// past the TTL so expiry runs, then run again so pressure evicts. Any
/// change to placement, record order, counters, cursors or the format
/// moves the digest.
#[test]
fn a_fixed_run_checkpoints_to_pinned_bytes() {
    let descs = trace(6_000);
    let (first, second) = descs.split_at(3_000);
    let mut engine = ShardedFlowLut::new(config());
    Session::new(&mut engine).run(first).expect("fresh session");
    for _ in 0..40_000 {
        engine.tick();
    }
    Session::new(&mut engine)
        .run(second)
        .expect("fresh session");
    engine.quiesce().unwrap();
    let stats = engine.poll().stats;
    assert!(
        stats.expired_ttl > 0 && stats.pressure_evicted > 0,
        "{stats:?}"
    );
    let blob = engine.checkpoint().expect("quiescent engine checkpoints");
    let mut digest = Fnv64::new();
    digest.write_bytes(&blob);
    assert_eq!(
        (blob.len(), digest.finish()),
        (123_064, 0x7933_758b_54d7_960b),
        "checkpoint bytes moved"
    );
}

#[test]
fn checkpoint_rejects_a_busy_engine_and_restore_rejects_bad_blobs() {
    let mut engine = ShardedFlowLut::new(config());
    engine.begin_run();
    for d in trace(64) {
        engine.push(d);
    }
    // Descriptors are mid-pipeline: a consistent cut does not exist.
    assert!(matches!(
        engine.checkpoint(),
        Err(CheckpointError::NotQuiescent { .. })
    ));
    engine.quiesce().unwrap();
    let blob = engine.checkpoint().expect("quiescent engine checkpoints");

    // Truncated blob.
    assert!(ShardedFlowLut::restore(config(), &blob[..blob.len() - 1]).is_err());
    // Garbage magic.
    assert!(matches!(
        ShardedFlowLut::restore(config(), &[0u8; 64]),
        Err(CheckpointError::BadMagic)
    ));
    // Config with the wrong shard count.
    let mut wrong = config();
    wrong.shards = 4;
    assert!(matches!(
        ShardedFlowLut::restore(wrong, &blob),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    // A version-1 engine blob, and one that carries a version-2 shard
    // blob; a version-1 and a version-2 simulator blob. The version
    // follows the magic.
    let with_version = |mut blob: Vec<u8>, at: usize, version: u32| {
        blob[at + 4..at + 8].copy_from_slice(&version.to_le_bytes());
        blob
    };
    assert_eq!(
        ShardedFlowLut::restore(config(), &with_version(blob.clone(), 0, 1)).err(),
        Some(CheckpointError::BadVersion(1))
    );
    assert_eq!(
        ShardedFlowLut::restore(config(), &with_version(blob, SHARDS_AT + 8, 2)).err(),
        Some(CheckpointError::BadVersion(2))
    );
    let shard = FlowLutSim::new(config().shard)
        .checkpoint()
        .expect("an idle simulator checkpoints");
    for version in [1, 2] {
        assert_eq!(
            FlowLutSim::restore(
                config().shard,
                &with_version(shard.clone(), 0, version),
                |_| true
            )
            .err(),
            Some(CheckpointError::BadVersion(version))
        );
    }
}

/// Byte offset of the first shard blob's length in an engine
/// checkpoint: after the magic, version, shard count, router seed,
/// clock, splitter counters and 24 carried statistics words.
const SHARDS_AT: usize = 48 + 24 * 8;

/// Two shard blobs that trade places hold flows their router sends to
/// the other shard, where no lookup would reach them: restore refuses
/// them, rather than let the keys be inserted a second time.
#[test]
fn swapped_shard_blobs_are_refused() {
    let cfg = EngineConfig::test_small();
    let mut engine = ShardedFlowLut::new(cfg.clone());
    let keys = (0..40).map(|i| FlowKey::from(FiveTuple::from_index(i)));
    assert_eq!(engine.preload(keys), Ok(40));
    let blob = engine.checkpoint().expect("an idle engine checkpoints");
    // The bytes of the shard blob whose length word is at `at`, that
    // word included.
    let framed = |at: usize| 8 + u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
    let second = SHARDS_AT + framed(SHARDS_AT);
    assert_eq!(second + framed(second), blob.len(), "two shard blobs");
    let swapped = [
        &blob[..SHARDS_AT],
        &blob[second..],
        &blob[SHARDS_AT..second],
    ]
    .concat();
    assert_eq!(
        ShardedFlowLut::restore(cfg, &swapped).err(),
        Some(CheckpointError::Corrupt("flow routed to another shard"))
    );
}

#[test]
fn rescale_rehomes_every_flow_onto_exactly_one_shard_with_zero_loss() {
    let descs = trace(3_000);
    let (batch, in_flight) = descs.split_at(2_936);

    let mut engine = ShardedFlowLut::new(config());
    Session::new(&mut engine).run(batch).expect("fresh session");

    // Leave real work in flight when the rescale is requested: the
    // drain inside rescale_double must resolve it, not drop it.
    engine.begin_run();
    for &d in in_flight {
        while !engine.push(d) {
            engine.tick();
        }
    }
    assert!(engine.in_pipeline() > 0, "descriptors must be mid-pipeline");

    let drops_before = engine.poll().stats.drops;

    let report = engine.rescale_double().expect("doubled capacity fits");
    assert_eq!(report.old_shards, 2);
    assert_eq!(report.new_shards, 4);
    assert_eq!(engine.shard_count(), 4);

    // Zero descriptor loss: everything offered has resolved, and the
    // rescale introduced no drops.
    let progress = engine.poll();
    assert_eq!(progress.stats.completed, descs.len() as u64);
    assert_eq!(progress.in_pipeline, 0);
    assert_eq!(progress.stats.drops, drops_before);

    // The drain resolves the in-flight tail, which may age or insert
    // flows — membership is judged against the post-drain population.
    let after_keys = resident_keys(&engine);
    assert_eq!(report.migrated_flows, engine.len());
    assert_eq!(after_keys.len() as u64, engine.len());

    // Exactly-one-shard membership, and it is the router's shard.
    for key in &after_keys {
        let owners: Vec<usize> = (0..engine.shard_count())
            .filter(|&i| engine.shard(i).table().peek(key).is_some())
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "flow {key:?} must live on exactly one shard"
        );
        assert_eq!(
            owners[0],
            engine.router().route(key),
            "flow {key:?} must live where the widened router points"
        );
    }

    // The widened engine keeps serving: replaying resident traffic hits
    // without growing occupancy.
    let occupancy = engine.len();
    let report2 = Session::new(&mut engine).run(batch).expect("fresh session");
    assert_eq!(report2.completed, batch.len() as u64);
    assert!(
        engine.len() >= occupancy,
        "replayed flows re-enter or hit; none may be lost"
    );

    // Rescaling again keeps the same guarantees (4 -> 8).
    let report3 = engine.rescale_double().expect("doubled capacity fits");
    assert_eq!(report3.old_shards, 4);
    assert_eq!(report3.new_shards, 8);
    assert_eq!(report3.migrated_flows, engine.len());
    for key in &resident_keys(&engine) {
        let owners = (0..8)
            .filter(|&i| engine.shard(i).table().peek(key).is_some())
            .count();
        assert_eq!(owners, 1, "flow {key:?} must live on exactly one shard");
    }
}

#[test]
fn single_shard_sim_checkpoint_survives_lifecycle_state() {
    // The embedded per-shard blob must carry aging cursors, stats, and
    // the victim list — restore mid-lifecycle, then verify expiry
    // continues identically on both instances.
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 10_000,
        scan_stride: 4,
    });
    let mut live = FlowLutSim::new(cfg.clone());
    Session::new(&mut live)
        .run(&trace(400))
        .expect("fresh session");

    let blob = {
        live.quiesce().unwrap();
        live.checkpoint().expect("quiescent sim checkpoints")
    };
    let mut restored = FlowLutSim::restore(cfg, &blob, |_| true).expect("own blob restores");

    // Idle both past the TTL: the same flows must expire at the same
    // cycles, leaving identical stats and event streams.
    live.tick_many(60_000);
    restored.tick_many(60_000);
    assert_eq!(live.stats(), restored.stats());
    assert_eq!(
        FlowPipeline::poll_events(&mut live),
        FlowPipeline::poll_events(&mut restored)
    );
    assert_eq!(live.table().len(), restored.table().len());
}
