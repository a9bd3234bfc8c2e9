//! Long-running flow service: sustained throughput under flow churn.
//!
//! The paper's tables measure bounded runs; a monitoring deployment
//! streams forever while flows are born and die. This bench drives the
//! `flowlut-service` ingest path with a sliding-window churn workload —
//! each epoch introduces fresh flows and lets the oldest go idle — and
//! records the **sustained simulated throughput** (completed
//! descriptors over total simulated time, idle gaps included) for three
//! lifecycle profiles per shard count:
//!
//! * `off`      — no aging: the table accumulates every flow ever seen;
//! * `expiry`   — the engine-level idle-TTL scan sheds dead flows;
//! * `pressure` — expiry plus occupancy-pressure eviction on a small
//!   table whose CAM crosses the high-water mark under churn.
//!
//! Writes the machine-readable `BENCH_service.json` consumed by the
//! perf-snapshot CI step. The acceptance key pins the design claim that
//! aging is *amortized*: with the expiry scan on, sustained throughput
//! must stay within 10% of the no-lifecycle run at every shard count.
//!
//! Modes: default (full sweep), `--quick` (CI perf snapshot), `--smoke`
//! (run-check only; numbers not meaningful).

use std::io::Write as _;

use flowlut_bench::{json_path, quick_mode, smoke_mode};
use flowlut_core::{ExpiryPolicy, PressurePolicy, SimConfig, TableConfig};
use flowlut_engine::EngineConfig;
use flowlut_service::{FlowService, ServiceConfig};
use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};

/// Sliding-window churn: epoch `e` touches flows
/// `[e * shift, e * shift + window)`, each `packets_per_flow` times,
/// round-robin. Flows older than the window go idle and (with aging on)
/// expire; fresh flows keep arriving, so occupancy churns instead of
/// growing without bound.
#[derive(Clone, Copy)]
struct ChurnWorkload {
    epochs: usize,
    window: usize,
    shift: usize,
    packets_per_flow: usize,
    /// Idle cycles pumped between epochs (dead time the sustained
    /// number honestly includes).
    idle_gap_sys: u64,
}

impl ChurnWorkload {
    fn epoch_descs(&self, epoch: usize, seq: &mut u64) -> Vec<PacketDescriptor> {
        let base = epoch * self.shift;
        let mut out = Vec::with_capacity(self.window * self.packets_per_flow);
        for _ in 0..self.packets_per_flow {
            for f in base..base + self.window {
                let key = FlowKey::from(FiveTuple::from_index(f as u64));
                out.push(PacketDescriptor::new(*seq, key));
                *seq += 1;
            }
        }
        out
    }

    fn total_descs(&self) -> u64 {
        (self.epochs * self.window * self.packets_per_flow) as u64
    }
}

/// Which lifecycle machinery a run switches on.
#[derive(Clone, Copy, PartialEq)]
enum Profile {
    Off,
    Expiry,
    Pressure,
}

impl Profile {
    const ALL: [Profile; 3] = [Profile::Off, Profile::Expiry, Profile::Pressure];

    fn name(self) -> &'static str {
        match self {
            Profile::Off => "off",
            Profile::Expiry => "expiry",
            Profile::Pressure => "pressure",
        }
    }
}

/// One measured run.
struct Row {
    shards: usize,
    profile: Profile,
    completed: u64,
    sys_cycles: u64,
    sustained_mdesc_per_s: f64,
    expired_ttl: u64,
    pressure_evicted: u64,
    live_flows: u64,
    drops: u64,
}

/// Idle TTL for the aging profiles: a few epochs of stream time, so a
/// flow expires soon after it leaves the churn window.
const IDLE_TIMEOUT_SYS: u64 = 15_000;

fn service_config(shards: usize, profile: Profile) -> ServiceConfig {
    // The `off` profile must hold every flow ever seen without drops,
    // so the roomy table is the default; the pressure profile shrinks
    // it until the CAM really crosses the high-water mark under churn.
    let table = match profile {
        Profile::Pressure => TableConfig {
            buckets_per_mem: 256,
            entries_per_bucket: 2,
            cam_capacity: 64,
            entry_slot_bytes: 16,
            hash_seed: 99,
        },
        _ => TableConfig {
            buckets_per_mem: 4_096,
            entries_per_bucket: 4,
            cam_capacity: 256,
            entry_slot_bytes: 16,
            hash_seed: 99,
        },
    };
    let mut shard = SimConfig {
        table,
        ..SimConfig::test_small()
    };
    if profile != Profile::Off {
        shard.expiry = Some(ExpiryPolicy {
            idle_timeout_cycles: IDLE_TIMEOUT_SYS,
            scan_stride: 8,
        });
    }
    if profile == Profile::Pressure {
        shard.pressure = Some(PressurePolicy {
            cam_high_water: 16,
            scan_batch: 8,
            victim_cap: 4_096,
        });
    }
    ServiceConfig::new(EngineConfig {
        shard,
        ..EngineConfig::prototype(shards)
    })
}

/// Streams the whole churn workload through the service ingest queue
/// (single producer, `try_send` with pump-on-full backpressure) and
/// returns the sustained-throughput row.
fn churn_run(shards: usize, profile: Profile, w: &ChurnWorkload) -> Row {
    let cfg = service_config(shards, profile);
    let period_ns = cfg.engine.sys_period_ns();
    let mut svc = FlowService::new(cfg).expect("valid service config");
    let handle = svc.handle();
    let mut seq = 0u64;
    for epoch in 0..w.epochs {
        for d in w.epoch_descs(epoch, &mut seq) {
            while !handle.try_send(d).expect("queue open") {
                svc.pump(64); // backpressure: make room by running the engine
            }
        }
        svc.pump(w.idle_gap_sys); // dead air between epochs — churn, not burst
    }
    svc.drain().expect("the service drains");
    let _ = svc.take_victims();

    let progress = svc.poll();
    assert_eq!(
        progress.stats.completed,
        w.total_descs(),
        "every offered descriptor must resolve ({} shards, {} profile)",
        shards,
        profile.name()
    );
    let sys_cycles = progress.now_sys;
    Row {
        shards,
        profile,
        completed: progress.stats.completed,
        sys_cycles,
        sustained_mdesc_per_s: progress.stats.completed as f64 / (sys_cycles as f64 * period_ns)
            * 1e3,
        expired_ttl: progress.stats.expired_ttl,
        pressure_evicted: progress.stats.pressure_evicted,
        live_flows: progress.occupancy.total(),
        drops: progress.stats.drops,
    }
}

fn main() {
    let (mode, workload) = if smoke_mode() {
        (
            "smoke",
            ChurnWorkload {
                epochs: 3,
                window: 96,
                shift: 48,
                packets_per_flow: 2,
                idle_gap_sys: 4_000,
            },
        )
    } else if quick_mode() {
        (
            "quick",
            ChurnWorkload {
                epochs: 8,
                window: 384,
                shift: 192,
                packets_per_flow: 4,
                idle_gap_sys: 10_000,
            },
        )
    } else {
        (
            "full",
            ChurnWorkload {
                epochs: 12,
                window: 512,
                shift: 256,
                packets_per_flow: 4,
                idle_gap_sys: 10_000,
            },
        )
    };
    println!("Flow service: sustained throughput under churn ({mode} mode)");
    println!(
        "workload: {} epochs x {} flows x {} packets, window shift {}, \
         {}-cycle idle gaps, idle TTL {} cycles\n",
        workload.epochs,
        workload.window,
        workload.packets_per_flow,
        workload.shift,
        workload.idle_gap_sys,
        IDLE_TIMEOUT_SYS
    );

    let mut rows: Vec<Row> = Vec::new();
    for shards in [1usize, 2, 4] {
        for profile in Profile::ALL {
            rows.push(churn_run(shards, profile, &workload));
        }
    }

    println!(
        "{:>6} {:>9} {:>10} {:>11} {:>16} {:>9} {:>9} {:>7} {:>6}",
        "shards",
        "profile",
        "completed",
        "sys cycles",
        "sustained (Md/s)",
        "expired",
        "evicted",
        "live",
        "drops"
    );
    println!("{}", "-".repeat(92));
    for r in &rows {
        println!(
            "{:>6} {:>9} {:>10} {:>11} {:>16.3} {:>9} {:>9} {:>7} {:>6}",
            r.shards,
            r.profile.name(),
            r.completed,
            r.sys_cycles,
            r.sustained_mdesc_per_s,
            r.expired_ttl,
            r.pressure_evicted,
            r.live_flows,
            r.drops,
        );
    }

    // Acceptance: the amortized aging scan must not dent line rate —
    // per shard count, `expiry` sustains >= 90% of `off`.
    let mut meets = true;
    for shards in [1usize, 2, 4] {
        let find = |p: Profile| {
            rows.iter()
                .find(|r| r.shards == shards && r.profile == p)
                .expect("row present")
        };
        let off = find(Profile::Off).sustained_mdesc_per_s;
        let aged = find(Profile::Expiry).sustained_mdesc_per_s;
        if aged < 0.9 * off {
            meets = false;
            println!(
                "\nexpiry overhead gate FAILED at {shards} shards: {aged:.3} < 0.9 x {off:.3}"
            );
        }
    }
    println!(
        "\nexpiry-scan overhead gate (sustained >= 90% of lifecycle-off): {}",
        if meets { "met" } else { "NOT met" }
    );

    let path = json_path("BENCH_service.json", mode == "quick");
    match write_json(&path, mode, &workload, &rows, meets) {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("error: could not save {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Serialises the sweep by hand — the workspace has no JSON dependency,
/// and the schema is flat enough that formatting beats vendoring one.
fn write_json(
    path: &std::path::Path,
    mode: &str,
    w: &ChurnWorkload,
    rows: &[Row],
    meets: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"service\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"workload\": {{\"epochs\": {}, \"window\": {}, \"shift\": {}, \
         \"packets_per_flow\": {}, \"idle_gap_sys\": {}, \"idle_timeout_sys\": {}}},",
        w.epochs, w.window, w.shift, w.packets_per_flow, w.idle_gap_sys, IDLE_TIMEOUT_SYS
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            f,
            "    {{\"shards\": {}, \"profile\": \"{}\", \"completed\": {}, \
             \"sys_cycles\": {}, \"sustained_mdesc_per_s\": {:.4}, \"expired_ttl\": {}, \
             \"pressure_evicted\": {}, \"live_flows\": {}, \"drops\": {}}}{}",
            r.shards,
            r.profile.name(),
            r.completed,
            r.sys_cycles,
            r.sustained_mdesc_per_s,
            r.expired_ttl,
            r.pressure_evicted,
            r.live_flows,
            r.drops,
            if i + 1 == rows.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"acceptance_expiry_sustained_ge_0p9x_off\": {meets}")?;
    writeln!(f, "}}")?;
    Ok(())
}
