//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * early-exit pipeline vs conventional simultaneous Hash-CAM
//!   (DRAM reads per lookup);
//! * bank selection on/off (simulated throughput);
//! * BWr_Gen write-burst threshold sweep;
//! * bucket size K sweep;
//! * CAM capacity vs spill rate.
//!
//! The interesting outputs are *simulated* quantities (cycles, probes),
//! printed to stderr once per group; criterion tracks the host-side cost
//! of running the simulations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowlut_baselines::SimultaneousHashCam;
use flowlut_core::{FlowLutSim, FlowPipeline, FlowStore, HashCamTable, SimConfig, TableConfig};
use flowlut_traffic::workloads::MatchRateWorkload;
use flowlut_traffic::{FiveTuple, FlowKey};

fn keys(range: std::ops::Range<u64>) -> Vec<FlowKey> {
    range
        .map(|i| FlowKey::from(FiveTuple::from_index(i)))
        .collect()
}

/// Early exit vs simultaneous: average DRAM reads per lookup at a 50%
/// hit rate — the bandwidth the paper's three-stage pipeline saves.
fn ablation_early_exit(c: &mut Criterion) {
    let resident = keys(0..2048);
    let absent = keys(100_000..102_048);

    let mut ours = HashCamTable::new(TableConfig {
        buckets_per_mem: 2048,
        entries_per_bucket: 2,
        cam_capacity: 256,
        entry_slot_bytes: 16,
        hash_seed: 5,
    });
    let mut simul = SimultaneousHashCam::new(2048, 2, 256, 5);
    for k in &resident {
        ours.insert(*k).unwrap();
        simul.insert(*k).unwrap();
    }

    // Early-exit read count: stage 2 suffices when the first bucket
    // holds the key, stage 3 otherwise; misses read both.
    let mut early_reads = 0u64;
    let mut lookups = 0u64;
    for k in resident.iter().chain(&absent) {
        lookups += 1;
        early_reads += match ours.lookup(k) {
            Some((_, flowlut_core::LookupStage::Cam)) => 0,
            Some((_, flowlut_core::LookupStage::MemA)) => 1,
            Some((_, flowlut_core::LookupStage::MemB)) | None => 2,
        };
    }
    let before = simul.op_stats().mem_reads;
    for k in resident.iter().chain(&absent) {
        simul.contains(k);
    }
    let simul_reads = simul.op_stats().mem_reads - before;
    eprintln!(
        "early-exit ablation: {:.3} reads/lookup (early exit) vs {:.3} (simultaneous)",
        early_reads as f64 / lookups as f64,
        simul_reads as f64 / lookups as f64,
    );

    let mut group = c.benchmark_group("ablation_early_exit_host");
    group.bench_function("early_exit_lookups", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for k in &resident {
                n += u64::from(ours.lookup(k).is_some());
            }
            n
        })
    });
    group.bench_function("simultaneous_lookups", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for k in &resident {
                n += u64::from(simul.contains(k));
            }
            n
        })
    });
    group.finish();
}

fn sim_mdesc(cfg: SimConfig, miss: f64) -> f64 {
    let mut sim = FlowLutSim::new(cfg);
    let w = MatchRateWorkload {
        table_size: 2_000,
        queries: 2_000,
        match_rate: 1.0 - miss,
        seed: 9,
    };
    let set = w.build();
    sim.preload(set.preload.iter().copied()).unwrap();
    sim.start_run()
        .run(&set.queries)
        .expect("fresh session")
        .mdesc_per_s
}

/// Bank selection on/off: simulated throughput at 50% miss.
fn ablation_bank_selection(c: &mut Criterion) {
    for enabled in [true, false] {
        let cfg = SimConfig {
            bank_select_enabled: enabled,
            ..SimConfig::default()
        };
        let rate = sim_mdesc(cfg, 0.5);
        eprintln!(
            "bank selection {}: {rate:.2} Mdesc/s at 50% miss",
            if enabled { "ON " } else { "OFF" }
        );
    }
    let mut group = c.benchmark_group("ablation_bank_selection_host");
    group.sample_size(10);
    for enabled in [true, false] {
        group.bench_function(BenchmarkId::from_parameter(enabled), |b| {
            b.iter(|| {
                let cfg = SimConfig {
                    bank_select_enabled: enabled,
                    ..SimConfig::default()
                };
                sim_mdesc(cfg, 0.5)
            })
        });
    }
    group.finish();
}

/// BWr_Gen threshold sweep: burst-write grouping vs throughput at 100%
/// miss (insert-heavy — where write bursts matter).
fn ablation_bwr_threshold(c: &mut Criterion) {
    for threshold in [1usize, 4, 8, 16, 32] {
        let cfg = SimConfig {
            bwr_threshold: threshold,
            ..SimConfig::default()
        };
        let rate = sim_mdesc(cfg, 1.0);
        eprintln!("bwr_threshold {threshold:>2}: {rate:.2} Mdesc/s at 100% miss");
    }
    let mut group = c.benchmark_group("ablation_bwr_threshold_host");
    group.sample_size(10);
    group.bench_function("threshold_8", |b| {
        b.iter(|| {
            let cfg = SimConfig {
                bwr_threshold: 8,
                ..SimConfig::default()
            };
            sim_mdesc(cfg, 1.0)
        })
    });
    group.finish();
}

/// Bucket size K and CAM capacity: spill behaviour of the functional
/// table at 75% load.
fn ablation_k_and_cam(_c: &mut Criterion) {
    for k in [1u8, 2, 4] {
        let buckets = 8192 / u32::from(k) / 2;
        let mut t = HashCamTable::new(TableConfig {
            buckets_per_mem: buckets,
            entries_per_bucket: k,
            cam_capacity: 1024,
            entry_slot_bytes: 16,
            hash_seed: 11,
        });
        let n = (f64::from(buckets) * 2.0 * f64::from(k) * 0.75) as u64;
        for key in keys(0..n) {
            let _ = t.insert(key);
        }
        eprintln!(
            "K={k}: {} of {} keys spilled to CAM at 75% load ({:.3}%)",
            t.occupancy().cam,
            n,
            100.0 * t.occupancy().cam as f64 / n as f64
        );
    }
}

criterion_group!(
    benches,
    ablation_early_exit,
    ablation_bank_selection,
    ablation_bwr_threshold,
    ablation_k_and_cam
);
criterion_main!(benches);
