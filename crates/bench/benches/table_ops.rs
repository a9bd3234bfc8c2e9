//! Functional-layer operation throughput: the paper's Hash-CAM table
//! against every related-work baseline at the same capacity and load.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use flowlut_baselines::{
    BloomCamTable, CuckooTable, DLeftTable, OneMoveTable, SimultaneousHashCam, SingleHashTable,
};
use flowlut_core::{FlowStore, HashCamTable, TableConfig};
use flowlut_traffic::{FiveTuple, FlowKey};

fn keys(range: std::ops::Range<u64>) -> Vec<FlowKey> {
    range
        .map(|i| FlowKey::from(FiveTuple::from_index(i)))
        .collect()
}

/// ~8k-entry capacity for every structure, loaded to 50%.
const LOAD: u64 = 4096;

fn build_baselines() -> Vec<Box<dyn FlowStore>> {
    vec![
        Box::new(SingleHashTable::new(4096, 2, 1)),
        Box::new(DLeftTable::new(2, 2048, 2, 1)),
        Box::new(CuckooTable::new(4096, 1, 500, 1)),
        Box::new(OneMoveTable::new(2, 2048, 2, 256, 1)),
        Box::new(BloomCamTable::new(8192, 4096, 1)),
        Box::new(SimultaneousHashCam::new(2048, 2, 256, 1)),
    ]
}

fn bench_lookup_hit(c: &mut Criterion) {
    let load = keys(0..LOAD);
    let mut group = c.benchmark_group("lookup_hit");
    group.throughput(criterion::Throughput::Elements(load.len() as u64));

    // The paper's table (functional layer).
    let mut ours = HashCamTable::new(TableConfig {
        buckets_per_mem: 2048,
        entries_per_bucket: 2,
        cam_capacity: 256,
        entry_slot_bytes: 16,
        hash_seed: 1,
    });
    for k in &load {
        ours.insert(*k).unwrap();
    }
    group.bench_function("hashcam_early_exit", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for k in &load {
                hits += u64::from(ours.lookup(black_box(k)).is_some());
            }
            hits
        })
    });

    for mut table in build_baselines() {
        for k in &load {
            let _ = table.insert(*k);
        }
        group.bench_function(BenchmarkId::new("baseline", table.name()), |b| {
            b.iter(|| {
                let mut hits = 0u64;
                for k in &load {
                    hits += u64::from(table.contains(black_box(k)));
                }
                hits
            })
        });
    }
    group.finish();
}

fn bench_insert_delete_cycle(c: &mut Criterion) {
    let batch = keys(100_000..100_512);
    let mut group = c.benchmark_group("insert_delete_cycle");
    group.throughput(criterion::Throughput::Elements(batch.len() as u64));

    let mut ours = HashCamTable::new(TableConfig {
        buckets_per_mem: 2048,
        entries_per_bucket: 2,
        cam_capacity: 256,
        entry_slot_bytes: 16,
        hash_seed: 2,
    });
    group.bench_function("hashcam_early_exit", |b| {
        b.iter(|| {
            for k in &batch {
                ours.insert(*k).unwrap();
            }
            for k in &batch {
                ours.delete(k).unwrap();
            }
        })
    });

    for mut table in build_baselines() {
        group.bench_function(BenchmarkId::new("baseline", table.name()), |b| {
            b.iter(|| {
                for k in &batch {
                    let _ = table.insert(*k);
                }
                for k in &batch {
                    table.remove(k);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup_hit, bench_insert_delete_cycle);
criterion_main!(benches);
