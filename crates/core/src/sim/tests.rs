use flowlut_traffic::workloads::{HashPattern, HashPatternWorkload, MatchRateWorkload};
use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};

use super::*;
use crate::backend::{RunReport, Session, STALL_CYCLES};
use crate::config::{LoadBalancerPolicy, SimConfig};

fn key(i: u64) -> FlowKey {
    FlowKey::from(FiveTuple::from_index(i))
}

fn descs(range: std::ops::Range<u64>) -> Vec<PacketDescriptor> {
    range
        .enumerate()
        .map(|(seq, i)| PacketDescriptor::new(seq as u64, key(i)))
        .collect()
}

/// Runs `descs` through one fresh session on `sim`.
fn run(sim: &mut FlowLutSim, descs: &[PacketDescriptor]) -> RunReport {
    sim.start_run().run(descs).expect("fresh session")
}

/// Queues the user deletion of `key`'s flow, at the flow ID its hash
/// buckets or the CAM hold it at.
fn delete(sim: &mut FlowLutSim, key: FlowKey) {
    let fid = sim.table().peek(&key).expect("a resident flow");
    sim.delete_flow(fid, key).expect("room for a user deletion");
}

#[test]
fn preloaded_key_hits_on_lookup() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    sim.preload([key(1), key(2), key(3)]).unwrap();
    let report = run(&mut sim, &descs(1..4));
    assert_eq!(report.completed, 3);
    let s = report.stats;
    assert_eq!(s.lu1_hits + s.lu2_hits + s.cam_hits, 3, "{s:?}");
    assert_eq!(s.inserted_mem + s.inserted_cam, 0);
}

#[test]
fn miss_inserts_and_reports_new_flow() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let report = run(&mut sim, &descs(0..5));
    assert_eq!(report.completed, 5);
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 5);
    assert_eq!(sim.table().len(), 5);
    // Every descriptor got a flow ID and the table agrees.
    for d in sim.completions() {
        let fid = d.fid.expect("no drops expected");
        assert_eq!(sim.table().peek(&d.desc.key), Some(fid));
    }
}

#[test]
fn second_packet_of_flow_matches_first_insert() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let two = vec![
        PacketDescriptor::new(0, key(9)),
        PacketDescriptor::new(1, key(9)),
    ];
    let report = run(&mut sim, &two);
    assert_eq!(report.completed, 2);
    let d = sim.completions();
    // Per-flow order: the records leave in offer order.
    assert_eq!((d[0].desc.seq, d[1].desc.seq), (0, 1));
    assert!(d[0].via.is_new_flow(), "{:?}", d[0].via);
    assert!(!d[1].via.is_new_flow(), "{:?}", d[1].via);
    assert_eq!(d[0].fid, d[1].fid, "same flow, same ID");
    // The flow record has folded both packets.
    let rec = sim.table().record(d[0].fid.unwrap()).unwrap();
    assert_eq!(rec.packets, 2);
}

#[test]
fn many_packets_same_flow_complete_in_order() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let burst: Vec<PacketDescriptor> = (0..20).map(|s| PacketDescriptor::new(s, key(7))).collect();
    let report = run(&mut sim, &burst);
    assert_eq!(report.completed, 20);
    let order: Vec<u64> = sim.completions().iter().map(|d| d.desc.seq).collect();
    assert_eq!(
        order,
        (0..20).collect::<Vec<_>>(),
        "same-flow completion reordered"
    );
    assert_eq!(sim.table().len(), 1);
    assert!(report.stats.same_key_holds > 0, "waiting list unused");
}

#[test]
fn cam_hit_completes_without_memory_reads() {
    let mut cfg = SimConfig::test_small();
    cfg.table.entries_per_bucket = 1;
    let mut sim = FlowLutSim::new(cfg);
    // Three keys forced into the same single-slot bucket pair: the first
    // two fill Mem A and Mem B, the third spills to the CAM at insert.
    let ds: Vec<PacketDescriptor> = (0..3)
        .map(|i| PacketDescriptor::new(i, key(i)).with_hash_override(0, 0))
        .collect();
    run(&mut sim, &ds);
    assert_eq!(sim.stats().inserted_cam, 1);
    let spilled = sim
        .completions()
        .iter()
        .find(|d| d.via == ResolvedVia::InsertedCam)
        .expect("one CAM insert")
        .desc
        .key;
    let reads_before = sim.stats().reads_issued;
    // A repeat of the CAM-resident key must hit at stage 1 with no DDR
    // traffic.
    let c = PacketDescriptor::new(3, spilled).with_hash_override(0, 0);
    let report = run(&mut sim, &[c]);
    assert_eq!(report.stats.cam_hits, 1);
    assert_eq!(sim.stats().reads_issued, reads_before);
}

#[test]
fn lu2_hit_when_key_lives_on_other_path() {
    // Force all LU1 to path A; a key resident in Mem B then requires LU2.
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::FixedRatio {
        path_a_permille: 1000,
    };
    cfg.table.entries_per_bucket = 1;
    let mut sim = FlowLutSim::new(cfg);
    // With LU1 forced to A, the final miss lands on path B, whose Updt
    // inserts into Mem B.
    let k1 = PacketDescriptor::new(0, key(1)).with_hash_override(77, 77);
    run(&mut sim, &[k1]);
    assert_eq!(
        sim.completions()[0].via,
        ResolvedVia::InsertedMem(crate::fid::PathId::B)
    );
    // Re-query the Mem-B resident: LU1 on A misses, LU2 on B hits.
    let q = PacketDescriptor::new(1, key(1)).with_hash_override(77, 77);
    let report = run(&mut sim, &[q]);
    assert_eq!(report.stats.lu2_hits, 1, "{:?}", report.stats);
}

#[test]
fn table_full_drops_are_reported() {
    let mut cfg = SimConfig::test_small();
    cfg.table.entries_per_bucket = 1;
    cfg.table.cam_capacity = 2;
    let mut sim = FlowLutSim::new(cfg);
    // 5 distinct keys into one bucket pair: 1 in Mem A, 1 in Mem B, 2 in
    // CAM, 1 dropped.
    let ds: Vec<PacketDescriptor> = (0..5)
        .map(|i| PacketDescriptor::new(i, key(i)).with_hash_override(3, 3))
        .collect();
    let report = run(&mut sim, &ds);
    assert_eq!(report.stats.drops, 1);
    assert_eq!(report.stats.inserted_cam, 2);
    assert_eq!(report.stats.inserted_mem, 2);
    let dropped: Vec<_> = sim
        .completions()
        .iter()
        .filter(|d| d.fid.is_none())
        .collect();
    assert_eq!(dropped.len(), 1);
}

#[test]
fn fixed_ratio_zero_sends_everything_to_b() {
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::FixedRatio { path_a_permille: 0 };
    let mut sim = FlowLutSim::new(cfg);
    let report = run(&mut sim, &descs(0..100));
    assert_eq!(report.stats.lu1_per_path[0], 0);
    assert_eq!(report.stats.lu1_per_path[1], 100);
    assert_eq!(report.stats.load_share_a(), 0.0);
}

#[test]
fn fixed_ratio_quarter_realised() {
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::FixedRatio {
        path_a_permille: 250,
    };
    let mut sim = FlowLutSim::new(cfg);
    let report = run(&mut sim, &descs(0..1000));
    let share = report.stats.load_share_a();
    // Bernoulli split: allow ~3 sigma around the target.
    assert!((share - 0.25).abs() < 0.05, "load share {share}");
}

#[test]
fn hash_split_near_half_on_random_traffic() {
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::HashSplit;
    let mut sim = FlowLutSim::new(cfg);
    let report = run(&mut sim, &descs(0..1000));
    let share = report.stats.load_share_a();
    assert!((share - 0.5).abs() < 0.06, "load share {share}");
}

#[test]
fn balanced_load_outperforms_single_path() {
    // The Table II(A) trend: all-on-one-path must be measurably slower
    // than a balanced split under an insert-heavy workload.
    let run_with = |permille: u16| {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 1024;
        cfg.load_balancer = LoadBalancerPolicy::FixedRatio {
            path_a_permille: permille,
        };
        let mut sim = FlowLutSim::new(cfg);
        let w = HashPatternWorkload {
            pattern: HashPattern::RandomHash,
            count: 2000,
            buckets: 1024,
            banks: 8,
            seed: 42,
        };
        run(&mut sim, &w.build()).mdesc_per_s
    };
    let balanced = run_with(500);
    let skewed = run_with(0);
    assert!(
        balanced > skewed * 1.05,
        "balanced {balanced:.1} Mdesc/s vs all-on-B {skewed:.1}"
    );
}

#[test]
fn low_miss_rate_is_faster_than_high_miss_rate() {
    // The Table II(B) trend.
    let run_at = |match_rate: f64| {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 4096;
        cfg.table.cam_capacity = 64;
        let mut sim = FlowLutSim::new(cfg);
        let w = MatchRateWorkload {
            table_size: 1000,
            queries: 2000,
            match_rate,
            seed: 7,
        };
        let set = w.build();
        sim.preload(set.preload.iter().copied()).unwrap();
        run(&mut sim, &set.queries).mdesc_per_s
    };
    let all_hit = run_at(1.0);
    let all_miss = run_at(0.0);
    assert!(
        all_hit > all_miss * 1.3,
        "0% miss {all_hit:.1} Mdesc/s vs 100% miss {all_miss:.1}"
    );
}

#[test]
fn bank_selection_ablation_hurts_throughput() {
    let run_with = |enabled: bool| {
        let mut cfg = SimConfig::test_small();
        cfg.bank_select_enabled = enabled;
        let mut sim = FlowLutSim::new(cfg);
        let mut sim_descs = descs(0..500);
        for d in &mut sim_descs {
            d.hash_override = None;
        }
        run(&mut sim, &sim_descs).mdesc_per_s
    };
    let with = run_with(true);
    let without = run_with(false);
    assert!(
        with > without * 1.5,
        "bank selection on {with:.1} vs off {without:.1} Mdesc/s"
    );
}

#[test]
fn delete_flow_frees_the_entry() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    run(&mut sim, &descs(0..3));
    assert_eq!(sim.table().len(), 3);
    delete(&mut sim, key(1));
    // Drive the pipeline until the delete (and its write-back) settles.
    for _ in 0..500 {
        sim.tick();
    }
    assert_eq!(sim.table().len(), 2);
    assert_eq!(sim.table().peek(&key(1)), None);
    // The freed slot is reusable and the key misses then re-inserts.
    let report = run(&mut sim, &[PacketDescriptor::new(0, key(1))]);
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 1);
}

#[test]
fn report_throughput_is_positive_and_bounded() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let report = run(&mut sim, &descs(0..200));
    assert!(report.mdesc_per_s > 0.0);
    // Cannot exceed the offered rate materially (one descriptor per
    // admission cycle; offered at 100 MHz).
    assert!(
        report.mdesc_per_s <= sim.cfg.input_rate_mhz * 1.05,
        "{} Mdesc/s exceeds offered rate",
        report.mdesc_per_s
    );
    assert!(report.elapsed_ns > 0.0);
    assert_eq!(report.completed, 200);
    assert!(report.mean_latency_ns > 0.0);
}

#[test]
fn storage_and_table_agree_after_mixed_run() {
    // End-to-end consistency: after inserts and deletes settle, the
    // buckets Flow Match reads hold exactly the table's flows.
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    run(&mut sim, &descs(0..50));
    delete(&mut sim, key(3));
    delete(&mut sim, key(7));
    for _ in 0..1_000 {
        sim.tick();
    }
    // Re-run lookups for every remaining key: all must hit.
    let remaining: Vec<PacketDescriptor> = (0..50u64)
        .filter(|i| ![3, 7].contains(i))
        .enumerate()
        .map(|(s, i)| PacketDescriptor::new(s as u64, key(i)))
        .collect();
    let report = run(&mut sim, &remaining);
    let s = report.stats;
    assert_eq!(
        s.cam_hits + s.lu1_hits + s.lu2_hits,
        48,
        "all surviving flows must match: {s:?}"
    );
}

#[test]
fn input_rate_limits_throughput() {
    let run_at = |mhz: f64| {
        let mut cfg = SimConfig::test_small();
        cfg.input_rate_mhz = mhz;
        let mut sim = FlowLutSim::new(cfg);
        let w = MatchRateWorkload {
            table_size: 500,
            queries: 1000,
            match_rate: 1.0,
            seed: 3,
        };
        let set = w.build();
        sim.preload(set.preload.iter().copied()).unwrap();
        run(&mut sim, &set.queries).mdesc_per_s
    };
    let at_60 = run_at(60.0);
    let at_100 = run_at(100.0);
    // At 100% match the engine keeps up with the input, so the measured
    // rate tracks the offered rate.
    assert!((at_60 - 60.0).abs() < 6.0, "at 60 MHz: {at_60}");
    assert!(
        at_100 > at_60,
        "rate must scale with input: {at_100} vs {at_60}"
    );
}

#[test]
fn bwr_timeout_flushes_stragglers() {
    let mut cfg = SimConfig::test_small();
    cfg.bwr_threshold = 100; // count threshold unreachable
    let mut sim = FlowLutSim::new(cfg);
    let report = run(&mut sim, &descs(0..3));
    assert_eq!(report.completed, 3);
    // Completion happens at the insert decision; the batched writes may
    // still be waiting in BWr_Gen. The timeout must flush them.
    for _ in 0..200 {
        sim.tick();
    }
    assert!(sim.stats().bwr_timeout_releases > 0);
    assert_eq!(sim.stats().bwr_count_releases, 0);
}

#[test]
fn preload_duplicate_fails() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let err = sim.preload([key(1), key(1)]).unwrap_err();
    assert!(matches!(err.cause, InsertError::Duplicate(_)));
    assert_eq!(err.inserted, 1);
}

#[test]
fn run_twice_accumulates() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    run(&mut sim, &descs(0..10));
    let r2 = run(&mut sim, &descs(10..20));
    assert_eq!(r2.completed, 10);
    assert_eq!(sim.stats().completed, 20);
    assert_eq!(sim.table().len(), 20);
}

#[test]
fn offer_and_tick_drive_the_pipeline_without_run() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let work = descs(0..20);
    let mut next = 0usize;
    let mut guard = 0u64;
    while sim.stats().completed < 20 {
        if next < work.len() && sim.offer(work[next]) {
            next += 1;
        }
        sim.tick();
        guard += 1;
        assert!(guard < 1_000_000, "externally driven pipeline stalled");
    }
    assert_eq!(sim.stats().offered, 20);
    assert_eq!(sim.in_pipeline(), 0);
    assert_eq!(sim.table().len(), 20);
}

#[test]
fn offer_batch_respects_sequencer_depth() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let n = SEQUENCER_DEPTH as u64 + 20;
    let work = descs(0..n);
    let taken = work.iter().take_while(|&&d| sim.offer(d)).count();
    assert_eq!(taken, SEQUENCER_DEPTH, "sequencer depth bounds the queue");
    assert!(!sim.offer(work[taken]), "queue full rejects single offers");
    // Drain, then the remainder fits.
    let mut rest = taken;
    let mut guard = 0u64;
    while sim.stats().completed < n {
        rest += work[rest..].iter().take_while(|&&d| sim.offer(d)).count();
        sim.tick();
        guard += 1;
        assert!(guard < 1_000_000, "externally driven pipeline stalled");
    }
    assert_eq!(sim.stats().completed, n);
}

/// The simulator keeps a descriptor's state only while the pipeline
/// holds it: the slab grows to the most descriptors in the pipeline at
/// once, not to the descriptors ever offered, and the completion queue
/// keeps its bound, dropping the oldest records.
#[test]
fn descriptor_state_is_bounded_by_the_pipeline() {
    // 40 000 descriptors over 300 flows, offered at the configured rate.
    let cfg = SimConfig::test_small();
    let rate = cfg.input_rate_mhz / cfg.sys_clock_mhz();
    let mut sim = FlowLutSim::new(cfg);
    let work: Vec<PacketDescriptor> = (0..40_000)
        .map(|seq| PacketDescriptor::new(seq, key(seq * 7 % 300)))
        .collect();
    let (mut credit, mut next, mut most) = (0.0, 0, 0);
    while sim.stats().completed < work.len() as u64 {
        credit = f64::min(credit + rate, 1.0);
        if credit >= 1.0 && next < work.len() && sim.offer(work[next]) {
            next += 1;
            credit -= 1.0;
        }
        most = most.max(sim.in_pipeline());
        sim.tick();
        assert!(sim.slots.len() as u64 <= most, "{} slots", sim.slots.len());
        assert!(sim.completions().len() <= FlowLutSim::COMPLETION_CAPACITY);
        assert!(sim.now_sys() < 1_000_000, "stalled");
    }
    assert!(sim.stats().same_key_holds > 0, "no descriptor waited");
    assert!(most < 1_000, "{most} descriptors in the pipeline at once");
    assert_eq!(sim.completions().len(), FlowLutSim::COMPLETION_CAPACITY);
    assert_eq!(
        sim.drain_completions().count(),
        FlowLutSim::COMPLETION_CAPACITY
    );
    assert!(sim.completions().is_empty());
}

#[test]
fn snapshot_tracks_live_state() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let before = sim.poll();
    assert_eq!(before.now_sys, 0);
    assert_eq!(before.in_pipeline, 0);
    run(&mut sim, &descs(0..10));
    let after = sim.poll();
    assert_eq!(after.stats.completed, 10);
    assert_eq!(after.in_pipeline, 0);
    assert_eq!(after.occupancy.total(), sim.table().len());
    assert!(after.now_sys > before.now_sys);
}

#[test]
fn sim_is_send() {
    // The threaded multi-channel engine moves whole simulator instances
    // onto worker threads; this pins the auto-derived bound.
    fn assert_send<T: Send>() {}
    assert_send::<FlowLutSim>();
}

#[test]
fn tick_many_equals_repeated_tick() {
    let mut one_by_one = FlowLutSim::new(SimConfig::test_small());
    let mut batched = FlowLutSim::new(SimConfig::test_small());
    for d in descs(0..8) {
        assert!(one_by_one.offer(d) && batched.offer(d));
    }
    for _ in 0..500 {
        one_by_one.tick();
    }
    batched.tick_many(500);
    assert_eq!(one_by_one.now_sys(), batched.now_sys());
    assert_eq!(one_by_one.poll(), batched.poll());
}

#[test]
fn max_latency_is_per_run_not_lifetime() {
    // Run 1 queues 400 descriptors at the full offered rate, so its
    // worst admission→completion latency is large. Run 2 is a single
    // warm hit on an idle pipeline: before the per-run watermark reset,
    // delta_since reported run 1's lifetime maximum here.
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let r1 = run(&mut sim, &descs(0..400));
    assert!(r1.stats.max_latency_sys > 0);
    let r2 = run(&mut sim, &[PacketDescriptor::new(10_000, key(0))]);
    assert_eq!(r2.completed, 1);
    assert!(
        r2.stats.max_latency_sys < r1.stats.max_latency_sys,
        "run 2 max {} should not inherit run 1 max {}",
        r2.stats.max_latency_sys,
        r1.stats.max_latency_sys
    );
}

#[test]
fn preload_partial_failure_reports_inserted_count() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    // The third key duplicates the first: preload stops there and says
    // exactly how much of the batch landed.
    let err = sim
        .preload([key(1), key(2), key(1), key(3)])
        .expect_err("duplicate key must stop the preload");
    assert_eq!(err.inserted, 2);
    assert!(matches!(err.cause, InsertError::Duplicate(_)));
    assert_eq!(sim.table().len(), 2, "earlier keys remain loaded");
    // The partial load is consistent end to end: the loaded keys hit in
    // DRAM (no inserts), so the bucket flush ran despite the failure.
    let report = run(&mut sim, &descs(1..3));
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 0);
    assert_eq!(sim.table().len(), 2);
}

#[test]
fn preload_refuses_a_key_wider_than_a_slot() {
    let mut sim = FlowLutSim::new(SimConfig::default());
    // The prototype's 16-byte slots hold keys of up to 15 bytes.
    let wide = FlowKey::new(&[7u8; 20]).unwrap();
    let err = sim
        .preload([key(1), wide, key(2)])
        .expect_err("no slot holds a 20-byte key");
    assert_eq!(
        err,
        PreloadError {
            inserted: 1,
            cause: InsertError::KeyDoesNotFit {
                key_bytes: 20,
                slot_bytes: 16
            },
        }
    );
    assert_eq!(sim.table().len(), 1);
    assert_eq!(sim.table().peek(&wide), None);
    assert!(sim.is_quiescent());
    let report = run(&mut sim, &descs(1..2));
    assert_eq!(report.stats.lu1_hits + report.stats.lu2_hits, 1);
}

#[test]
fn keys_no_slot_holds_are_dropped_at_the_cam_stage() {
    // Wider than the prototype's 16-byte slots allow, and the empty key,
    // which Flow Match would find in any free slot.
    let wide = FlowKey::new(&[7u8; 20]).unwrap();
    for bad in [wide, FlowKey::default()] {
        for hashes in [None, Some((5, 9))] {
            let desc = |seq| match hashes {
                Some((h1, h2)) => PacketDescriptor::new(seq, bad).with_hash_override(h1, h2),
                None => PacketDescriptor::new(seq, bad),
            };
            // Through `offer`, twice, around a key that fits.
            let mut sim = FlowLutSim::new(SimConfig::default());
            for d in [desc(0), PacketDescriptor::new(1, key(1)), desc(2)] {
                assert!(sim.offer(d));
            }
            FlowPipeline::drain(&mut sim).unwrap();
            let via = |seq| {
                let record = sim.completions().iter().find(|d| d.desc.seq == seq);
                record.map(|d| d.via)
            };
            assert_eq!(via(0), Some(ResolvedVia::Dropped));
            assert_eq!(via(2), Some(ResolvedVia::Dropped));
            let s = sim.stats();
            assert_eq!(s.drops, 2);
            // The key that fits misses both buckets and is inserted: its
            // two reads are the only ones.
            assert_eq!((s.reads_issued, s.inserted_mem), (2, 1), "{s:?}");
            assert_eq!(sim.table().len(), 1);

            // Through a session.
            let mut sim = FlowLutSim::new(SimConfig::default());
            let mut session = Session::new(&mut sim);
            for seq in 0..3 {
                while !session.push(desc(seq)).unwrap() {
                    session.tick();
                }
            }
            session.drain().unwrap();
            let s = session.finish().stats;
            assert_eq!((s.completed, s.drops, s.reads_issued), (3, 3, 0), "{s:?}");
            assert!(sim.table().is_empty());
        }
    }
}

/// After any set-up, DRAM holds each bucket as the table does: no bucket
/// is held by the Request Filter and no line is saved.
#[test]
fn the_dram_image_equals_the_table_after_set_up() {
    let mut wide = SimConfig::test_small();
    wide.table.entry_slot_bytes = 40; // three bursts per bucket
    for cfg in [SimConfig::test_small(), wide] {
        // 400 flows into 2 × 256 buckets: more than 256 in Mem1, so some
        // buckets take a second key, and some flows land in Mem2.
        let mut sim = FlowLutSim::new(cfg.clone());
        sim.preload((0..400).map(key)).unwrap();
        let occupancy = sim.table().occupancy();
        assert!(
            occupancy.mem_b > 0 && occupancy.mem_a > 256,
            "{occupancy:?}"
        );
        assert!(sim.is_quiescent());

        let blob = sim.checkpoint().unwrap();
        let restored = FlowLutSim::restore(cfg.clone(), &blob, |_| true).unwrap();
        assert!(restored.is_quiescent());

        // The rescale path: a warm-started simulator adopting every flow
        // at once.
        let mut adopted = FlowLutSim::warm_start(cfg.clone(), restored.now_sys());
        let records = restored.table().records_after(None).map(|(_, r)| r);
        assert_eq!(adopted.adopt_flows(records), Ok(400));
        assert_eq!(adopted.table().len(), 400);
        assert!(adopted.is_quiescent());

        // A checkpoint after deletions and new flows, once their bucket
        // writes land: the table's store holds the lines that emptied
        // buckets released, some taken again by the new flows' buckets.
        for i in (0..400).step_by(3) {
            delete(&mut sim, key(i));
        }
        sim.quiesce().unwrap();
        run(&mut sim, &descs(1000..1020));
        sim.quiesce().unwrap();
        assert_eq!(sim.table().len(), 400 - 134 + 20);
        let blob = sim.checkpoint().unwrap();
        assert!(sim.is_quiescent());
        let mut restored = FlowLutSim::restore(cfg, &blob, |_| true).unwrap();
        assert!(restored.is_quiescent());
        assert_eq!(restored.checkpoint().unwrap(), blob);
    }
}

/// Whether `bytes`, a bucket, holds `key` in `slot`.
fn holds_at(sim: &FlowLutSim, bytes: Option<&[u8]>, key: &FlowKey, slot: u8) -> bool {
    let t = sim.cfg.table;
    let k = usize::from(t.entries_per_bucket);
    bytes.and_then(|b| codec::find_key(b, t.entry_slot_bytes, k, key)) == Some(slot)
}

#[test]
fn dram_keeps_the_saved_line_until_the_bucket_write_lands() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let k = sim.cfg.table.entries_per_bucket;
    let no_line_saved = |sim: &FlowLutSim| sim.paths.iter().all(|p| p.saved.is_empty());

    // A new flow, placed by a hash override: once its descriptor
    // completes, the table holds it, while its bucket write waits in
    // BWr_Gen (up to `BWR_TIMEOUT_SYS` for a lone update).
    let new = key(1);
    assert!(sim.offer(PacketDescriptor::new(0, new).with_hash_override(5 << 24, 9 << 24)));
    while sim.completions().is_empty() {
        sim.tick();
    }
    let fid = sim.completions()[0].fid.expect("inserted");
    let Location::Mem { path, bucket, slot } = fid.decode(k) else {
        panic!("{fid} is not in memory");
    };
    assert!(bucket == 5 || bucket == 9, "{fid}");
    assert!(holds_at(
        &sim,
        sim.table().bucket_bytes(path, bucket),
        &new,
        slot
    ));
    assert!(!holds_at(
        &sim,
        sim.dram_line(path.index(), bucket),
        &new,
        slot
    ));
    sim.quiesce().unwrap();
    assert_eq!(
        sim.dram_line(path.index(), bucket),
        sim.table().bucket_bytes(path, bucket)
    );
    assert!(holds_at(
        &sim,
        sim.dram_line(path.index(), bucket),
        &new,
        slot
    ));
    assert!(no_line_saved(&sim));

    // A deleted flow: the table drops it at once, DRAM once the write
    // lands.
    let gone = key(2);
    run(&mut sim, &[PacketDescriptor::new(1, gone)]);
    sim.quiesce().unwrap();
    let fid = sim.table().peek(&gone).expect("inserted");
    let Location::Mem { path, bucket, slot } = fid.decode(k) else {
        panic!("{fid} is not in memory");
    };
    sim.delete_flow(fid, gone).unwrap();
    while sim.table().peek(&gone).is_some() {
        sim.tick();
    }
    assert!(!holds_at(
        &sim,
        sim.table().bucket_bytes(path, bucket),
        &gone,
        slot
    ));
    assert!(holds_at(
        &sim,
        sim.dram_line(path.index(), bucket),
        &gone,
        slot
    ));
    sim.quiesce().unwrap();
    assert_eq!(
        sim.dram_line(path.index(), bucket),
        sim.table().bucket_bytes(path, bucket)
    );
    assert!(!holds_at(
        &sim,
        sim.dram_line(path.index(), bucket),
        &gone,
        slot
    ));
    assert!(no_line_saved(&sim));
}

// ---------------------------------------------------------------------
// Flow lifecycle: TTL expiry, pressure eviction, checkpoint/restore.
// ---------------------------------------------------------------------

use crate::backend::{FlowEventKind, FlowPipeline};
use crate::checkpoint::CheckpointError;
use crate::config::{ExpiryPolicy, PressurePolicy};

#[test]
fn ttl_expiry_removes_idle_flows_and_raises_events() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 500,
        scan_stride: 4,
    });
    let mut sim = FlowLutSim::new(cfg);
    run(&mut sim, &descs(0..6));
    assert_eq!(sim.table().len(), 6);
    // Idle well past the timeout: the incremental scan must find and
    // expire every flow.
    for _ in 0..3_000 {
        sim.tick();
    }
    assert_eq!(sim.stats().expired_ttl, 6);
    assert_eq!(sim.table().len(), 0);
    assert_eq!(sim.table().records_after(None).next(), None);
    let events = FlowPipeline::poll_events(&mut sim);
    assert_eq!(events.len(), 6);
    assert!(events
        .iter()
        .all(|e| e.kind == FlowEventKind::ExpiredTtl && e.now_sys > 500));
    // A second poll drains nothing new.
    assert!(FlowPipeline::poll_events(&mut sim).is_empty());
}

/// A descriptor of `key(i)` placed by a hash override on Mem1 bucket 5
/// and Mem2 bucket 9 of a `test_small` table, outside its key's own hash
/// buckets.
fn override_placed(seq: u64, i: u64) -> PacketDescriptor {
    PacketDescriptor::new(seq, key(i)).with_hash_override(5 << 24, 9 << 24)
}

#[test]
fn ttl_expiry_finds_a_flow_a_hash_override_placed() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 50,
        scan_stride: 64,
    });
    let mut sim = FlowLutSim::new(cfg);
    run(
        &mut sim,
        &[override_placed(0, 1), PacketDescriptor::new(1, key(2))],
    );
    assert_eq!(sim.table().len(), 2);
    assert_eq!(
        sim.table().peek(&key(1)),
        None,
        "placed outside its buckets"
    );
    for _ in 0..2_000 {
        sim.tick();
    }
    assert_eq!(sim.stats().expired_ttl, 2, "{:?}", sim.stats());
    assert!(sim.table().is_empty());
}

#[test]
fn pressure_eviction_finds_a_flow_a_hash_override_placed() {
    let mut cfg = SimConfig::test_small();
    cfg.pressure = Some(PressurePolicy {
        cam_high_water: 4,
        scan_batch: 64,
        victim_cap: 16,
    });
    let mut sim = FlowLutSim::new(cfg);
    // The coldest flow, placed by override; then ten flows on one bucket
    // pair, four in memory and six in the CAM, past the high-water mark.
    run(&mut sim, &[override_placed(0, 1)]);
    let fid = sim.completions()[0].fid.expect("inserted");
    let crowd: Vec<PacketDescriptor> = (10..20)
        .map(|i| PacketDescriptor::new(i, key(i)).with_hash_override(0, 0))
        .collect();
    run(&mut sim, &crowd);
    for _ in 0..2_000 {
        sim.tick();
    }
    assert!(sim.table().occupancy().cam < 4, "{:?}", sim.stats());
    let victims = sim.take_victims();
    assert_eq!(victims.first().map(|r| r.key), Some(key(1)), "{victims:?}");
    assert_eq!(sim.table().record(fid), None);
}

#[test]
fn user_deletion_finds_a_flow_a_hash_override_placed() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    run(&mut sim, &[override_placed(0, 1)]);
    let fid = sim.completions()[0].fid.expect("inserted");
    assert_eq!(
        sim.table().peek(&key(1)),
        None,
        "placed outside its buckets"
    );
    sim.delete_flow(fid, key(1)).unwrap();
    sim.quiesce().unwrap();
    sim.tick_many(500);
    assert_eq!(sim.table().record(fid), None);
    assert!(sim.table().is_empty());
    assert_eq!(sim.stats().deletes, 1);
}

#[test]
fn user_deletions_past_the_queue_bound_are_refused() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    run(&mut sim, &descs(0..1));
    let fid = sim.completions()[0].fid.expect("inserted");
    for _ in 0..USER_DELETE_CAP {
        sim.delete_flow(fid, key(0)).unwrap();
    }
    let full = Err(DeleteQueueFull {
        capacity: USER_DELETE_CAP,
    });
    assert_eq!(sim.delete_flow(fid, key(0)), full);
    // The update unit takes one deletion a cycle.
    sim.tick();
    assert_eq!(sim.delete_flow(fid, key(0)), Ok(()));
    assert_eq!(sim.delete_flow(fid, key(0)), full);
    sim.quiesce().unwrap();
    assert!(sim.table().is_empty());
    assert_eq!(sim.stats().deletes, 1);
}

#[test]
fn a_user_deletion_waits_for_a_lookup_of_its_key_in_flight() {
    // One preloaded flow, one lookup of it, and its deletion t cycles
    // after the offer: at every timing the lookup hits and the flow is
    // gone once the pipeline quiesces.
    for t in 0..60 {
        let mut sim = FlowLutSim::new(SimConfig::test_small());
        sim.preload([key(1)]).unwrap();
        let fid = sim.table().peek(&key(1)).expect("preloaded");
        assert!(sim.offer(PacketDescriptor::new(0, key(1))));
        sim.tick_many(t);
        sim.delete_flow(fid, key(1)).unwrap();
        sim.quiesce().unwrap();
        let via = sim.completions().front().map(|r| r.via);
        assert!(
            matches!(via, Some(ResolvedVia::Lu1Hit(_) | ResolvedVia::Lu2Hit(_))),
            "t = {t}: {via:?}"
        );
        assert!(sim.table().is_empty(), "t = {t}");
        assert_eq!(sim.stats().deletes, 1, "t = {t}");
    }
}

#[test]
fn ttl_expiry_spares_recently_touched_flows() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 800,
        scan_stride: 4,
    });
    let mut sim = FlowLutSim::new(cfg);
    run(&mut sim, &descs(0..4));
    // Keep key 0 warm with periodic traffic while the others idle out.
    for round in 0u64..6 {
        for _ in 0..500 {
            sim.tick();
        }
        run(&mut sim, &[PacketDescriptor::new(round, key(0))]);
    }
    assert_eq!(sim.stats().expired_ttl, 3, "{:?}", sim.stats());
    assert!(
        sim.table().peek(&key(0)).is_some(),
        "warm flow must survive"
    );
    for i in 1..4 {
        assert!(sim.table().peek(&key(i)).is_none(), "idle flow {i} kept");
    }
}

#[test]
fn expiry_scan_is_amortized_not_stop_the_world() {
    // With a stride of 1 and many flows, at most one expiry nomination
    // can happen per cycle — the scan never walks the whole table at
    // once.
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 100,
        scan_stride: 1,
    });
    let mut sim = FlowLutSim::new(cfg);
    run(&mut sim, &descs(0..20));
    let t0 = sim.now_sys();
    let mut last = sim.stats().expired_ttl;
    let mut per_cycle_max = 0u64;
    for _ in 0..5_000 {
        sim.tick();
        let now = sim.stats().expired_ttl;
        per_cycle_max = per_cycle_max.max(now - last);
        last = now;
    }
    assert_eq!(sim.stats().expired_ttl, 20);
    assert!(
        per_cycle_max <= 1,
        "stride-1 scan expired {per_cycle_max}/cycle"
    );
    assert!(sim.now_sys() > t0 + 20, "expiries spread over many cycles");

    // 500 idle flows under a 64-record stride: a flow is queued for
    // deletion at most once, so the queue never holds more deletions
    // than there are resident flows, and the simulator settles soon
    // after the last flow expires.
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 20,
        scan_stride: 64,
    });
    let settle_bound = 2 * BWR_TIMEOUT_SYS;
    let mut sim = FlowLutSim::new(cfg);
    sim.preload((0..500).map(key)).unwrap();
    let mut emptied = None;
    while emptied.is_none() || !sim.is_quiescent() {
        sim.tick();
        assert!(
            sim.del_q.len() as u64 <= sim.table().len(),
            "{} deletions queued for {} flows at cycle {}",
            sim.del_q.len(),
            sim.table().len(),
            sim.now_sys()
        );
        if sim.table().is_empty() {
            emptied.get_or_insert(sim.now_sys());
        }
        assert!(sim.now_sys() < 10_000, "expiry did not settle");
    }
    assert_eq!(sim.stats().expired_ttl, 500);
    let settle = sim.now_sys() - emptied.unwrap();
    assert!(
        settle <= settle_bound,
        "quiescent {settle} cycles after the last expiry"
    );
}

#[test]
fn pressure_eviction_sheds_coldest_flows_to_victim_list() {
    // A tiny table whose CAM fills quickly: every key collides into one
    // bucket pair, so keys 2.. land in the CAM.
    let mut cfg = SimConfig::test_small();
    cfg.table.buckets_per_mem = 1;
    cfg.table.entries_per_bucket = 1;
    cfg.table.cam_capacity = 8;
    cfg.pressure = Some(PressurePolicy {
        cam_high_water: 4,
        scan_batch: 8,
        victim_cap: 16,
    });
    let mut sim = FlowLutSim::new(cfg);
    // 2 keys land in memory, the rest spill to the CAM, crossing the
    // high-water mark mid-run — the scan starts shedding immediately.
    run(&mut sim, &descs(0..8));
    for _ in 0..2_000 {
        sim.tick();
    }
    let evicted = sim.stats().pressure_evicted;
    assert!(evicted > 0, "{:?}", sim.stats());
    // Eviction stops once occupancy falls back below the mark.
    assert!(sim.table().occupancy().cam < 4);
    let victims = sim.take_victims();
    assert_eq!(victims.len() as u64, evicted);
    assert!(sim.take_victims().is_empty(), "take drains the list");
    let events = FlowPipeline::poll_events(&mut sim);
    assert!(events
        .iter()
        .any(|e| e.kind == FlowEventKind::EvictedPressure));
}

#[test]
fn pressure_eviction_respects_victim_cap() {
    let mut cfg = SimConfig::test_small();
    cfg.table.buckets_per_mem = 1;
    cfg.table.entries_per_bucket = 1;
    cfg.table.cam_capacity = 16;
    cfg.pressure = Some(PressurePolicy {
        cam_high_water: 1,
        scan_batch: 8,
        victim_cap: 3,
    });
    let mut sim = FlowLutSim::new(cfg);
    run(&mut sim, &descs(0..14));
    for _ in 0..20_000 {
        sim.tick();
    }
    let evicted = sim.stats().pressure_evicted;
    assert!(evicted > 3, "want enough evictions to overflow the cap");
    let victims = sim.take_victims();
    assert_eq!(victims.len(), 3, "victim list bounded at the cap");
    // Oldest were discarded: the survivors are the most recent victims.
    assert!(victims
        .windows(2)
        .all(|w| w[0].last_seen_ns <= w[1].last_seen_ns));
}

#[test]
fn checkpoint_requires_quiescence() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    for d in descs(0..8) {
        assert!(sim.offer(d));
    }
    let err = sim.checkpoint().unwrap_err();
    assert!(matches!(err, CheckpointError::NotQuiescent { .. }), "{err}");
    sim.quiesce().unwrap();
    assert!(sim.checkpoint().is_ok());
}

#[test]
fn checkpoint_restore_roundtrip_preserves_state() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 100_000,
        scan_stride: 4,
    });
    let mut sim = FlowLutSim::new(cfg.clone());
    run(&mut sim, &descs(0..40));
    sim.quiesce().unwrap();
    let blob = sim.checkpoint().unwrap();
    let restored = FlowLutSim::restore(cfg, &blob, |_| true).unwrap();
    assert_eq!(restored.now_sys(), sim.now_sys());
    assert_eq!(restored.stats(), sim.stats());
    assert_eq!(restored.table().len(), sim.table().len());
    for i in 0..40 {
        assert_eq!(restored.table().peek(&key(i)), sim.table().peek(&key(i)));
    }
    assert_eq!(restored.poll(), sim.poll());
}

#[test]
fn checkpoint_restore_replay_is_bit_identical() {
    // The core warm-restart guarantee at sim level: continuing the live
    // instance and continuing the restored instance produce identical
    // reports and snapshots on the same tail workload.
    let cfg = SimConfig::test_small();
    let mut live = FlowLutSim::new(cfg.clone());
    run(&mut live, &descs(0..30));
    live.quiesce().unwrap();
    let blob = live.checkpoint().unwrap();
    let mut restored = FlowLutSim::restore(cfg, &blob, |_| true).unwrap();

    let tail: Vec<PacketDescriptor> = descs(15..45);
    let a = run(&mut live, &tail);
    let b = run(&mut restored, &tail);
    assert_eq!(a, b, "reports diverged");
    assert_eq!(live.poll(), restored.poll(), "state diverged");
}

#[test]
fn restore_rejects_mismatched_config_and_garbage() {
    let cfg = SimConfig::test_small();
    let mut sim = FlowLutSim::new(cfg.clone());
    run(&mut sim, &descs(0..5));
    sim.quiesce().unwrap();
    let blob = sim.checkpoint().unwrap();

    let mut other = cfg.clone();
    other.table.hash_seed ^= 1;
    assert!(matches!(
        FlowLutSim::restore(other, &blob, |_| true),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    assert!(matches!(
        FlowLutSim::restore(cfg.clone(), &blob[..blob.len() - 1], |_| true),
        Err(CheckpointError::Truncated)
    ));
    assert!(matches!(
        FlowLutSim::restore(cfg, b"not a checkpoint blob", |_| true),
        Err(CheckpointError::BadMagic) | Err(CheckpointError::Truncated)
    ));
}

#[test]
fn adopt_flow_rehomes_a_record_under_new_geometry() {
    let mut source = FlowLutSim::new(SimConfig::test_small());
    run(&mut source, &descs(0..10));
    source.quiesce().unwrap();
    let records: Vec<FlowRecord> = source.table().records_after(None).map(|(_, r)| r).collect();
    assert_eq!(records.len(), 10);

    let mut dest = FlowLutSim::warm_start(SimConfig::test_small(), source.now_sys());
    assert_eq!(dest.now_sys(), source.now_sys());
    assert_eq!(dest.adopt_flows(records.iter().copied()), Ok(10));
    assert_eq!(dest.table().len(), 10);
    // Adopted flows hit — with per-flow history intact.
    let report = run(&mut dest, &descs(0..10));
    let s = report.stats;
    assert_eq!(s.cam_hits + s.lu1_hits + s.lu2_hits, 10, "{s:?}");
    for (_, r) in dest.table().records_after(None) {
        assert!(r.packets >= 2, "preserved packet count plus the re-hit");
    }
}

/// A hand-built checkpoint of an idle simulator at cycle 0 that holds
/// `flows` in the order given, which unlike a real checkpoint's need not
/// ascend, each first seen at cycle 0, under their check word, and no
/// cursors, victims or events.
fn hand_built_blob(cfg: &SimConfig, flows: &[(FlowKey, Location)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(SIM_CHECKPOINT_MAGIC);
    w.put_u32(SIM_CHECKPOINT_VERSION);
    w.put_u64(sim_config_digest(cfg));
    w.put_u64(0); // clock
    w.put_u32(0x9E37_79B9); // load-balancer state
    checkpoint::write_stats(&mut w, &SimStats::default());
    w.put_u64(flows.len() as u64);
    for path in [PathId::A, PathId::B] {
        let in_path = flows
            .iter()
            .filter(|(_, loc)| matches!(*loc, Location::Mem { path: p, .. } if p == path));
        w.put_u64(in_path.count() as u64);
    }
    let mut check = Fnv64::new();
    for &(key, loc) in flows {
        let at = w.written().len();
        checkpoint::write_location(&mut w, loc);
        checkpoint::write_key(&mut w, &key);
        check.write_words(&w.written()[at..]);
        checkpoint::write_counters(&mut w, &record_of(key));
    }
    w.put_u64(check.finish());
    w.put_u8(0); // no expiry cursor
    w.put_u8(0); // no pressure cursor
    w.put_u64(0); // victims
    w.put_u64(0); // events
    w.into_bytes()
}

fn record_of(key: FlowKey) -> FlowRecord {
    FlowRecord::first_packet(key, 0, 0, 72)
}

/// Flows in Mem1, Mem2 and the CAM, in ascending ID order.
fn three_flows() -> [(FlowKey, Location); 3] {
    let a = Location::Mem {
        path: PathId::A,
        bucket: 3,
        slot: 0,
    };
    let b = Location::Mem {
        path: PathId::B,
        bucket: 9,
        slot: 1,
    };
    [(key(1), a), (key(2), b), (key(3), Location::Cam(2))]
}

#[test]
fn restore_accepts_a_hand_built_blob() {
    let cfg = SimConfig::test_small();
    let flows = three_flows();
    let blob = hand_built_blob(&cfg, &flows);
    let sim = FlowLutSim::restore(cfg, &blob, |_| true).expect("a consistent blob restores");
    assert_eq!(sim.table().len(), 3);
    for (key, loc) in flows {
        let fid = FlowId::encode(loc, 2);
        assert_eq!(sim.table().record(fid), Some(record_of(key)));
    }
}

/// Byte offset of the check word in a hand-built checkpoint: before
/// the two cursor tags and the victim and event counts.
fn check_word_at(blob: &[u8]) -> usize {
    blob.len() - 2 - 16 - 8
}

#[test]
fn restore_rejects_flows_that_disagree_with_the_check_word_or_counts() {
    let cfg = SimConfig::test_small();
    let [a, b, c] = three_flows();
    let valid = hand_built_blob(&cfg, &[a, b, c]);
    let word_at = check_word_at(&valid);
    let word = u64::from_le_bytes(valid[word_at..][..8].try_into().unwrap());
    // The flows as `flows`, under the check word of the valid blob.
    let under_valid_word = |flows: &[(FlowKey, Location)]| {
        let blob = hand_built_blob(&cfg, flows);
        assert_eq!(blob.len(), valid.len());
        with_u64(blob, word_at, word)
    };
    let free = Location::Mem {
        path: PathId::B,
        bucket: 9,
        slot: 0,
    };
    let differs = "flow check word differs";
    let cases = [
        (
            "a location moved to a free slot",
            under_valid_word(&[a, (b.0, free), c]),
            differs,
        ),
        (
            "another key at a location",
            under_valid_word(&[a, (key(4), b.1), c]),
            differs,
        ),
        (
            "a changed check word",
            with_u64(valid.clone(), word_at, word ^ 1),
            differs,
        ),
        (
            "Mem1's flow counted in Mem2",
            with_u64(with_u64(valid.clone(), MEM1_FLOWS_AT, 0), MEM2_FLOWS_AT, 2),
            "memory flow count differs",
        ),
    ];
    for (what, blob, expected) in cases {
        assert_eq!(
            FlowLutSim::restore(cfg.clone(), &blob, |_| true).err(),
            Some(CheckpointError::Corrupt(expected)),
            "{what}"
        );
    }
}

#[test]
fn restore_rejects_placements_out_of_id_order() {
    let cfg = SimConfig::test_small();
    let [a, b, c] = three_flows();
    for (what, flows) in [
        ("a descending pair", vec![a, c, b]),
        ("a repeated placement", vec![a, a]),
        ("a repeated CAM placement", vec![c, c]),
    ] {
        let blob = hand_built_blob(&cfg, &flows);
        assert_eq!(
            FlowLutSim::restore(cfg.clone(), &blob, |_| true).err(),
            Some(CheckpointError::Corrupt("placements out of ID order")),
            "{what}"
        );
    }
}

/// Byte offsets in a simulator checkpoint: the clock follows the magic,
/// version and configuration digest; the statistics follow the
/// load-balancer state, field by field; then the flow count, and each
/// memory's.
const CLOCK_AT: usize = 16;
const STATS_AT: usize = 28;
const INSERTED_MEM_AT: usize = STATS_AT + 6 * 8;
const MEM1_FLOWS_AT: usize = STATS_AT + 24 * 8 + 8;
const MEM2_FLOWS_AT: usize = MEM1_FLOWS_AT + 8;

/// A checkpoint of a settled run of `descs(0..20)`.
fn settled_blob() -> Vec<u8> {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    run(&mut sim, &descs(0..20));
    sim.quiesce().unwrap();
    let blob = sim.checkpoint().expect("a quiesced simulator checkpoints");
    assert_eq!(blob[CLOCK_AT..][..8], sim.now_sys.to_le_bytes());
    assert_eq!(
        blob[INSERTED_MEM_AT..][..8],
        sim.stats.inserted_mem.to_le_bytes()
    );
    blob
}

fn with_u64(mut blob: Vec<u8>, at: usize, value: u64) -> Vec<u8> {
    blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
    blob
}

/// A counter above 2^62 is refused; one at the bound restores, and the
/// restored simulator hits, inserts and drains without overflowing it.
fn assert_counter_bounded(at: usize) {
    let cfg = SimConfig::test_small();
    let hostile = with_u64(settled_blob(), at, u64::MAX);
    assert_eq!(
        FlowLutSim::restore(cfg.clone(), &hostile, |_| true).err(),
        Some(CheckpointError::Corrupt("counter above 2^62"))
    );
    let edge = with_u64(settled_blob(), at, checkpoint::MAX_COUNTER);
    let mut sim =
        FlowLutSim::restore(cfg, &edge, |_| true).expect("a counter at the bound restores");
    let report = run(&mut sim, &descs(10..30));
    assert_eq!(report.completed, 20);
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 10);
}

#[test]
fn restore_rejects_a_clock_above_2_62() {
    assert_counter_bounded(CLOCK_AT);
}

#[test]
fn restore_rejects_a_statistic_above_2_62() {
    assert_counter_bounded(INSERTED_MEM_AT);
}

/// A simulator on an SRAM that answers a read `read_latency` cycles
/// after it starts: at `u64::MAX / 4` it never does, and a descriptor
/// that reaches it stays in flight. SRAM ticks once per system cycle,
/// the cheapest stalled cycles there are.
fn sim_reading_after(read_latency: u64) -> FlowLutSim {
    let mut cfg = SimConfig::test_small();
    let mut sram = flowlut_ddr3::SramParams::ideal_200mhz();
    sram.read_latency = read_latency;
    cfg.memory = flowlut_ddr3::MemorySpec::Sram(sram);
    FlowLutSim::new(cfg)
}

/// `true` for the watchdog's report of a pipeline that never completed.
fn is_stall<T>(result: Result<T, SessionError>) -> bool {
    matches!(result, Err(SessionError::Stalled { now_sys, completed: 0, .. }) if now_sys >= STALL_CYCLES)
}

#[test]
fn an_offer_the_pipeline_cannot_take_returns_stalled() {
    // Without bank selection each path keeps one read outstanding, so
    // the descriptors behind it wait in the DLU queues, not the memory.
    let mut sim = sim_reading_after(u64::MAX / 4);
    sim.cfg.bank_select_enabled = false;
    // More keys than the Request Filter admits and the sequencer
    // holds: the offer cannot finish.
    let work = descs(0..(MAX_IN_FLIGHT + SEQUENCER_DEPTH) as u64 + 1);
    assert!(is_stall(sim.start_run().offer(&work)));
}

#[test]
fn a_stalled_drain_quiesce_and_insert_return_errors() {
    let mut sim = sim_reading_after(u64::MAX / 4);
    let mut session = sim.start_run();
    assert_eq!(session.push(PacketDescriptor::new(0, key(1))), Ok(true));
    assert!(is_stall(session.drain()));
    let stalled = sim.quiesce();
    assert!(is_stall(stalled), "{stalled:?}");
    assert!(matches!(
        stalled,
        Err(SessionError::Stalled { in_pipeline: 1, .. })
    ));
    let err = FlowStore::insert(&mut sim, key(2)).expect_err("a stalled insert places nothing");
    assert_eq!((err.key, err.occupancy), (key(2), 0));
}

#[test]
fn a_completion_inside_the_stall_window_drains() {
    // A new key misses both memories: two reads, plus fixed cycles.
    let drain_one = |read_latency| {
        let mut sim = sim_reading_after(read_latency);
        assert!(FlowPipeline::push(
            &mut sim,
            PacketDescriptor::new(0, key(1))
        ));
        sim.drain()
    };
    let fixed = drain_one(1_000).expect("a short read latency drains") - 2_000;
    let drained = drain_one((STALL_CYCLES - 1 - fixed) / 2).expect("no stall inside the window");
    assert!(
        (STALL_CYCLES - 2..STALL_CYCLES).contains(&drained),
        "{drained}"
    );
}
