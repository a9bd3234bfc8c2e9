//! Ablations of the design choices DESIGN.md §Ablations defends:
//!
//! * early-exit pipeline vs a simultaneous Hash-CAM — DRAM reads per
//!   lookup over 2 048 resident and 2 048 absent keys;
//! * bank selection on/off — simulated throughput at 50% miss;
//! * BWr_Gen write-burst threshold sweep — simulated throughput at 100%
//!   miss (insert-only, where write bursts matter);
//! * bucket size K — keys spilled to a 1 024-entry CAM at 75% load;
//! * hash paths d = 2, 3, 4 at equal total memory (the paper's stated
//!   future work, multi-path multi-hashing) — keys spilled past all d
//!   buckets, and memory probes per hit with early exit, at 50–95% load.
//!
//! Every number is a simulated quantity, a pure function of the sizes
//! and seeds below, so two runs write byte-identical
//! `BENCH_ablations.json`: one `{ablation, variant, value, unit}` row
//! per printed value (at its printed precision) and one `acceptance_*`
//! boolean per claim. `cargo xtask lint` checks its schema; CI gates
//! the booleans and diffs the file.
//!
//! One workload size: `--smoke`, `--quick` and `--json-out` only choose
//! where the JSON goes.

use std::fmt::Display;
use std::io::Write as _;

use flowlut_baselines::SimultaneousHashCam;
use flowlut_bench::{json_path, quick_mode};
use flowlut_core::{
    FlowLutSim, FlowPipeline, FlowStore, HashCamTable, LookupStage, MultiHashConfig,
    MultiHashTable, MultiLocation, SimConfig, TableConfig,
};
use flowlut_traffic::workloads::MatchRateWorkload;
use flowlut_traffic::{FiveTuple, FlowKey};

const BWR_THRESHOLDS: [usize; 5] = [1, 4, 8, 16, 32];
const BUCKET_SIZES: [u8; 3] = [1, 2, 4];
const PATHS: [u8; 3] = [2, 3, 4];
const LOADS: [f64; 4] = [0.5, 0.75, 0.9, 0.95];

/// One `results` row: a printed value of one ablation, at its printed
/// precision.
fn row(ablation: &str, variant: impl Display, value: impl Display, unit: &str) -> String {
    format!(
        "{{\"ablation\": \"{ablation}\", \"variant\": \"{variant}\", \"value\": {value}, \
         \"unit\": \"{unit}\"}}"
    )
}

fn keys(range: std::ops::Range<u64>) -> Vec<FlowKey> {
    range
        .map(|i| FlowKey::from(FiveTuple::from_index(i)))
        .collect()
}

/// Average DRAM reads per lookup at a 50% hit rate, as
/// `(early exit, simultaneous)` — the bandwidth the paper's three-stage
/// pipeline saves.
fn early_exit_reads() -> (f64, f64) {
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
        ours.insert(*k).expect("2 048 keys fit 8 192 slots");
        simul.insert(*k).expect("2 048 keys fit 8 192 slots");
    }
    let lookups = (resident.len() + absent.len()) as f64;
    // Stage 2 suffices when the first bucket holds the key, stage 3
    // otherwise; misses read both.
    let early: u32 = resident
        .iter()
        .chain(&absent)
        .map(|k| match ours.lookup(k) {
            Some((_, LookupStage::Cam)) => 0,
            Some((_, LookupStage::MemA)) => 1,
            Some((_, LookupStage::MemB)) | None => 2,
        })
        .sum();
    let before = simul.op_stats().mem_reads;
    for k in resident.iter().chain(&absent) {
        simul.contains(k);
    }
    let simul_reads = simul.op_stats().mem_reads - before;
    (f64::from(early) / lookups, simul_reads as f64 / lookups)
}

/// Simulated Mdesc/s of a 2 000-flow preload and 2 000 queries at
/// `miss` rate.
fn sim_mdesc(cfg: SimConfig, miss: f64) -> f64 {
    let mut sim = FlowLutSim::new(cfg);
    let set = MatchRateWorkload {
        table_size: 2_000,
        queries: 2_000,
        match_rate: 1.0 - miss,
        seed: 9,
    }
    .build();
    sim.preload(set.preload.iter().copied())
        .expect("2 000 flows fit the default table");
    sim.start_run()
        .run(&set.queries)
        .expect("fresh session")
        .mdesc_per_s
}

/// Keys spilled to a 1 024-entry CAM when a table of 8 192 slots in
/// buckets of `k` is filled to 75% load, as `(spilled, inserted)`.
fn cam_spill(k: u8) -> (u64, u64) {
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
    (t.occupancy().cam, n)
}

/// A d-path multi-hash table of 65 536 slots in buckets of 2 and a
/// 1 024-entry CAM, filled to `load`, as `(spilled, probes per hit)`:
/// the keys that found all d buckets full (held by the CAM, or refused
/// once it is full), and the mean memory probes an early-exit lookup of
/// every resident key needed.
fn multipath(paths: u8, load: f64) -> (usize, f64) {
    let slots = 1u32 << 16;
    let mut t = MultiHashTable::new(MultiHashConfig {
        paths,
        buckets_per_mem: slots / (2 * u32::from(paths)),
        entries_per_bucket: 2,
        cam_capacity: 1024,
        hash_seed: 0x600D,
    });
    let keys = keys(0..(f64::from(slots) * load) as u64);
    let spilled = keys
        .iter()
        .filter(|&&k| !matches!(t.insert(k), Ok(MultiLocation::Mem { .. })))
        .count();
    let (hits, probes) = keys
        .iter()
        .filter_map(|k| t.lookup(k))
        .fold((0u32, 0u32), |(h, p), (_, n)| (h + 1, p + n));
    (spilled, f64::from(probes) / f64::from(hits))
}

fn main() {
    println!("Ablations of the design choices DESIGN.md defends (simulated quantities)\n");
    let mut rows = Vec::new();

    let (early, simul) = early_exit_reads();
    println!("early exit: {early:.3} DRAM reads/lookup vs {simul:.3} (simultaneous Hash-CAM)");
    for (variant, reads) in [("early_exit", early), ("simultaneous", simul)] {
        let value = format!("{reads:.3}");
        let unit = "DRAM reads per lookup (2048 resident + 2048 absent keys)";
        rows.push(row("early_exit", variant, value, unit));
    }

    let mut bank = [0.0; 2];
    for (rate, enabled) in bank.iter_mut().zip([true, false]) {
        let cfg = SimConfig {
            bank_select_enabled: enabled,
            ..SimConfig::default()
        };
        *rate = sim_mdesc(cfg, 0.5);
        let variant = if enabled { "on" } else { "off" };
        println!("bank selection {variant:<3}: {rate:.2} Mdesc/s at 50% miss");
        let (value, unit) = (format!("{rate:.2}"), "Mdesc/s at 50% miss");
        rows.push(row("bank_selection", variant, value, unit));
    }

    let mut bwr = [0.0; BWR_THRESHOLDS.len()];
    for (rate, threshold) in bwr.iter_mut().zip(BWR_THRESHOLDS) {
        let cfg = SimConfig {
            bwr_threshold: threshold,
            ..SimConfig::default()
        };
        *rate = sim_mdesc(cfg, 1.0);
        println!("bwr_threshold {threshold:>2}: {rate:.2} Mdesc/s at 100% miss");
        let (value, unit) = (format!("{rate:.2}"), "Mdesc/s at 100% miss");
        rows.push(row("bwr_threshold", threshold, value, unit));
    }

    let mut spilled = [0; BUCKET_SIZES.len()];
    for (cam, k) in spilled.iter_mut().zip(BUCKET_SIZES) {
        let (spill, n) = cam_spill(k);
        *cam = spill;
        println!(
            "K={k}: {spill} of {n} keys spilled to CAM at 75% load ({:.3}%)",
            100.0 * spill as f64 / n as f64
        );
        let unit = "keys of 6144 spilled to a 1024-entry CAM at 75% load";
        rows.push(row("bucket_size", format!("K={k}"), spill, unit));
    }

    let mut spill_at_90 = [0; PATHS.len()];
    for (at_90, d) in spill_at_90.iter_mut().zip(PATHS) {
        for load in LOADS {
            let (spill, probes) = multipath(d, load);
            let pct = load * 100.0;
            println!(
                "d={d} at {pct:.0}% load: {spill} keys spilled past all {d} buckets, \
                 {probes:.3} probes per hit"
            );
            let variant = format!("d={d} at {pct:.0}% load");
            let unit = "keys spilled past all d buckets (65536 slots, 1024-entry CAM)";
            rows.push(row("multipath_cam_spill", &variant, spill, unit));
            let unit = "memory probes per hit (early exit)";
            rows.push(row(
                "multipath_probes_per_hit",
                &variant,
                format!("{probes:.3}"),
                unit,
            ));
            if load == 0.9 {
                *at_90 = spill;
            }
        }
    }

    let default_threshold = SimConfig::default().bwr_threshold;
    let at_threshold = |t| bwr[BWR_THRESHOLDS.iter().position(|&x| x == t).expect("swept")];
    let acceptance = [
        ("acceptance_early_exit_fewer_reads", early < simul),
        ("acceptance_bank_selection_faster", bank[0] > bank[1]),
        (
            "acceptance_bwr_default_no_slower_than_1",
            at_threshold(default_threshold) >= at_threshold(1),
        ),
        (
            "acceptance_spill_falls_as_k_grows",
            spilled.windows(2).all(|w| w[1] < w[0]),
        ),
        (
            "acceptance_spill_falls_as_d_grows",
            spill_at_90.windows(2).all(|w| w[1] < w[0]),
        ),
    ];
    println!();
    for (key, holds) in acceptance {
        println!("{key}: {}", if holds { "yes" } else { "NO" });
    }

    let path = json_path("BENCH_ablations.json", quick_mode());
    match write_json(&path, &rows, &acceptance) {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("error: could not save {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Serialises the rows by hand — the workspace has no JSON dependency,
/// and the schema is flat enough that formatting beats vendoring one.
fn write_json(
    path: &std::path::Path,
    rows: &[String],
    acceptance: &[(&str, bool)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let acceptance: Vec<String> = acceptance
        .iter()
        .map(|(key, holds)| format!("  \"{key}\": {holds}"))
        .collect();
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"ablations\",")?;
    writeln!(f, "  \"results\": [\n    {}\n  ],", rows.join(",\n    "))?;
    writeln!(f, "{}", acceptance.join(",\n"))?;
    writeln!(f, "}}")?;
    Ok(())
}
