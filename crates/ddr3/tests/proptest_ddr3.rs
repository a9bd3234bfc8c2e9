//! Property tests for the memory models: address mapping bijectivity,
//! scheduling liveness, bus-model monotonicity, and completion ordering,
//! of the DDR3 controller and of every model behind `MemoryModel`; and
//! one pinned completion stream per model.

use proptest::prelude::*;

use flowlut_ddr3::bus::{analytic_utilization, TurnaroundModel};
use flowlut_ddr3::{
    AccessKind, AddressMapping, Completion, ControllerConfig, DramParams, Geometry, MemRequest,
    MemoryController, MemoryModel, MemorySpec, SramParams, TimingPreset,
};

/// Ticks `m` until every queued request completes, within `max_cycles`,
/// returning the completions.
fn drain(m: &mut dyn MemoryModel, max_cycles: u64) -> Vec<Completion> {
    let mut done = Vec::new();
    for _ in 0..max_cycles {
        done.extend_from_slice(m.tick());
        if m.is_drained() {
            return done;
        }
    }
    panic!("{} failed to drain within {max_cycles} cycles", m.name());
}

fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (1u32..=8, 1u32..=64, 1u32..=32).prop_map(|(banks, rows, cols)| Geometry {
        banks,
        rows,
        cols,
        bus_width_bits: 32,
        burst_length: 8,
    })
}

proptest! {
    /// Every mapping is a bijection over the full address space.
    #[test]
    fn mapping_bijective(g in geometry_strategy(), linear_seed in any::<u64>()) {
        for mapping in [
            AddressMapping::RowBankCol,
            AddressMapping::BankRowCol,
            AddressMapping::RowColBank,
        ] {
            let linear = linear_seed % g.total_bursts();
            let addr = mapping.decompose(&g, linear);
            prop_assert!(addr.bank < g.banks);
            prop_assert!(addr.row < g.rows);
            prop_assert!(addr.col < g.cols);
            prop_assert_eq!(mapping.compose(&g, addr), linear);
        }
    }

    /// The controller drains any request mix, with any mapping, any page
    /// policy and refresh on — liveness across the configuration space.
    #[test]
    fn scheduler_liveness(
        addrs in prop::collection::vec(any::<u64>(), 1..64),
        closed_page in any::<bool>(),
        group_limit in 1u32..32,
        cmd_interval in 1u64..5,
    ) {
        let g = Geometry::tiny();
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1333.params(),
            geometry: g,
            page_policy: if closed_page {
                flowlut_ddr3::PagePolicy::Closed
            } else {
                flowlut_ddr3::PagePolicy::Open
            },
            queue_capacity: 128,
            group_limit,
            cmd_interval,
            refresh_enabled: true,
            ..ControllerConfig::default()
        });
        let n = addrs.len();
        for (i, a) in addrs.into_iter().enumerate() {
            let addr = a % g.total_bursts();
            let req = if i % 3 == 0 {
                MemRequest::write(i as u64, addr)
            } else {
                MemRequest::read(i as u64, addr)
            };
            ctrl.enqueue(req).unwrap();
        }
        let done = drain(&mut ctrl, 5_000_000);
        prop_assert_eq!(done.len(), n);
    }

    /// Same-bank completions preserve enqueue order (per-bank FIFO).
    #[test]
    fn same_bank_fifo(count in 2usize..32) {
        let g = Geometry::tiny();
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: g,
            queue_capacity: 64,
            refresh_enabled: false,
            ..ControllerConfig::default()
        });
        // All requests to bank 0 (RowBankCol: low linear addresses share
        // a bank only within one col-run; force with explicit compose).
        let mapping = AddressMapping::RowBankCol;
        for i in 0..count {
            let addr = mapping.compose(&g, flowlut_ddr3::MemAddress {
                bank: 0,
                row: (i % g.rows as usize) as u32,
                col: 0,
            });
            ctrl.enqueue(MemRequest::read(i as u64, addr)).unwrap();
        }
        let done = drain(&mut ctrl, 2_000_000);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        prop_assert_eq!(ids, (0..count as u64).collect::<Vec<_>>());
    }

    /// DQ utilization is monotone in group size and bounded by 1, for any
    /// turnaround overheads.
    #[test]
    fn utilization_monotone(extra_rd2wr in 0u64..64, extra_wr2rd in 0u64..64) {
        let t = TimingPreset::Ddr3_1066E.params();
        let m = TurnaroundModel { extra_rd2wr, extra_wr2rd };
        let mut prev = 0.0;
        for n in 1..=40 {
            let u = analytic_utilization(&t, &m, n);
            prop_assert!(u > prev && u < 1.0);
            prev = u;
        }
    }

    /// Larger turnaround overheads never improve utilization.
    #[test]
    fn utilization_decreasing_in_overhead(n in 1u32..=35, extra in 0u64..32) {
        let t = TimingPreset::Ddr3_1600.params();
        let small = TurnaroundModel { extra_rd2wr: extra, extra_wr2rd: extra };
        let big = TurnaroundModel { extra_rd2wr: extra + 1, extra_wr2rd: extra + 1 };
        prop_assert!(
            analytic_utilization(&t, &small, n) > analytic_utilization(&t, &big, n)
        );
    }

    /// Perturbing a valid DRAM preset without breaking any ordering
    /// relation keeps it valid: validation accepts the whole consistent
    /// neighbourhood, not just the literal presets.
    #[test]
    fn consistent_dram_perturbation_stays_valid(
        hbm in any::<bool>(),
        ras_pad in 0u64..16,
        rp_pad in 0u64..8,
        rc_pad in 0u64..8,
        ccd_pad in 0u64..4,
        rrd_pad in 0u64..4,
        wtr_pad in 0u64..4,
        refi_pad in 0u64..512,
    ) {
        let mut p = if hbm { DramParams::hbm2_2gbps() } else { DramParams::ddr4_2400() };
        p.t_ras += ras_pad;
        p.t_rp += rp_pad;
        p.t_rc = p.t_ras + p.t_rp + rc_pad;
        p.t_ccd_l = p.t_ccd_s + ccd_pad;
        p.t_rrd_l = p.t_rrd_s + rrd_pad;
        p.t_wtr_l = p.t_wtr_s + wtr_pad;
        p.t_refi = p.t_rfc + 1 + refi_pad;
        prop_assert!(p.validate().is_ok());
    }

    /// Each inconsistent DRAM relation is rejected no matter how the
    /// rest of the parameter set is shifted.
    #[test]
    fn inconsistent_dram_params_rejected(
        violation in 0usize..6,
        hbm in any::<bool>(),
        pad in 1u64..64,
    ) {
        let mut p = if hbm { DramParams::hbm2_2gbps() } else { DramParams::ddr4_2400() };
        match violation {
            0 => p.t_ccd_l = p.t_ccd_s - 1,              // same-group CCD below cross-group
            1 => p.t_rc = p.t_ras + p.t_rp - pad.min(p.t_ras), // tRC too short for tRAS+tRP
            2 => p.cwl = p.cl + pad,                     // write latency above read latency
            3 => p.t_refi = p.t_rfc,                     // refresh interval swallowed by tRFC
            4 => p.t_rrd_l = p.t_rrd_s - 1,              // same-group RRD below cross-group
            _ => p.t_ccd_s = p.burst_cycles() - 1,       // column rate faster than the burst
        }
        prop_assert!(p.validate().is_err());
    }

    /// SRAM validation accepts any all-nonzero parameter set and
    /// rejects every single-field zeroing of it.
    #[test]
    fn sram_zeroed_field_rejected(
        tck_ps in 1u64..20_000,
        read_latency in 1u64..64,
        write_latency in 1u64..64,
        ports in 1u32..8,
        burst_shift in 0u32..4,
        total_shift in 10u32..30,
        zeroed in 0usize..6,
    ) {
        let valid = SramParams {
            tck_ps,
            read_latency,
            write_latency,
            ports,
            burst_bytes: 32usize << burst_shift,
            total_bursts: 1u64 << total_shift,
        };
        prop_assert!(valid.validate().is_ok());
        let mut broken = valid;
        match zeroed {
            0 => broken.tck_ps = 0,
            1 => broken.read_latency = 0,
            2 => broken.write_latency = 0,
            3 => broken.ports = 0,
            4 => broken.burst_bytes = 0,
            _ => broken.total_bursts = 0,
        }
        prop_assert!(broken.validate().is_err());
    }
}

/// One step of the order property: a request to one of a few addresses,
/// enqueued after some idle ticks.
#[derive(Debug, Clone)]
struct Step {
    idle: u64,
    addr: u64,
    write: bool,
}

fn step() -> impl Strategy<Value = Step> {
    (
        prop_oneof![0u64..4, 0u64..40, Just(2_000)],
        0u64..4,
        any::<bool>(),
    )
        .prop_map(|(idle, addr, write)| Step { idle, addr, write })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What the caller may rely on, with the models carrying no data:
    /// every request completes exactly once; the DRAM models complete
    /// same-address requests in arrival order; SRAM starts them in
    /// arrival order (its shorter write latency lets a write complete
    /// before a read of the same address that started first). Requests
    /// go to a few addresses, with idle ticks between enqueues, refresh
    /// on.
    #[test]
    fn same_address_requests_keep_arrival_order(
        steps in prop::collection::vec(step(), 1..48),
    ) {
        for mut m in every_model() {
            let name = m.name();
            let mut done: Vec<Completion> = Vec::new();
            for (id, s) in steps.iter().enumerate() {
                for _ in 0..s.idle {
                    done.extend_from_slice(m.tick());
                }
                let req = if s.write {
                    MemRequest::write(id as u64, s.addr)
                } else {
                    MemRequest::read(id as u64, s.addr)
                };
                m.enqueue(req).expect("the queue holds every request");
            }
            done.extend(drain(m.as_mut(), 10_000_000));

            // Each request once, with its own address and kind.
            let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..steps.len() as u64).collect::<Vec<_>>(), "{}", name);
            for c in &done {
                let s = &steps[c.id as usize];
                let want = if s.write { AccessKind::Write } else { AccessKind::Read };
                prop_assert_eq!((c.addr, c.kind), (s.addr, want), "{}", name);
            }

            // Per address, in arrival (ID) order: when each completed,
            // or for SRAM, when each started.
            let sram = SramParams::ideal_200mhz();
            let mut order: Vec<(u64, u64, u64)> = done
                .iter()
                .enumerate()
                .map(|(at, c)| {
                    let when = if name == "sram" {
                        let latency = match c.kind {
                            AccessKind::Read => sram.read_latency,
                            AccessKind::Write => sram.write_latency,
                        };
                        c.completed_at - latency
                    } else {
                        // Position in the completion stream: ticks in
                        // order, each tick's completions as returned.
                        at as u64
                    };
                    (c.addr, c.id, when)
                })
                .collect();
            order.sort_unstable();
            for w in order.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(
                        w[0].2 <= w[1].2,
                        "{}: request {} to address {} finished ahead of request {}",
                        name, w[1].1, w[0].0, w[0].1
                    );
                }
            }
        }
    }
}

/// A fresh instance of every memory model: the DDR3 controller on the
/// tiny DDR3-1066E part (open page), then every default spec (its DDR3
/// controller closed-page, as every program runs it), each with a
/// 64-request queue and refresh on.
fn every_model() -> Vec<Box<dyn MemoryModel>> {
    let ddr3 = ControllerConfig {
        timing: TimingPreset::Ddr3_1066E.params(),
        geometry: Geometry::tiny(),
        queue_capacity: 64,
        refresh_enabled: true,
        ..ControllerConfig::default()
    };
    let mut models: Vec<Box<dyn MemoryModel>> = vec![Box::new(MemoryController::new(ddr3))];
    models.extend(MemorySpec::defaults().map(|s| s.build(64, true)));
    models
}

/// A request to any burst of the tiny geometry, enqueued after some
/// idle ticks: bursts of same-cycle requests spread over every bank.
fn spread_step() -> impl Strategy<Value = Step> {
    (
        prop_oneof![0u64..1, 0u64..4, 0u64..40, Just(2_000)],
        0..Geometry::tiny().total_bursts(),
        any::<bool>(),
    )
        .prop_map(|(idle, addr, write)| Step { idle, addr, write })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Request IDs are opaque to every model: relabelling a stream's IDs,
    /// even onto repeated values (the simulator gives every burst of a
    /// bucket read one ID), moves no completion. Ties break on arrival.
    #[test]
    fn request_ids_move_no_completion(
        steps in prop::collection::vec(spread_step(), 1..48),
        classes in 1u64..64,
        salt in any::<u64>(),
    ) {
        for (a, b) in every_model().into_iter().zip(every_model()) {
            let run = |mut m: Box<dyn MemoryModel>, label: &dyn Fn(u64) -> u64| {
                let mut done: Vec<Completion> = Vec::new();
                for (i, s) in steps.iter().enumerate() {
                    for _ in 0..s.idle {
                        done.extend_from_slice(m.tick());
                    }
                    let id = label(i as u64);
                    let req = if s.write {
                        MemRequest::write(id, s.addr)
                    } else {
                        MemRequest::read(id, s.addr)
                    };
                    m.enqueue(req).expect("the queue holds every request");
                }
                done.extend(drain(m.as_mut(), 10_000_000));
                done.iter()
                    .map(|c| (c.kind, c.addr, c.enqueued_at, c.completed_at))
                    .collect::<Vec<_>>()
            };
            let name = a.name();
            prop_assert_eq!(run(a, &|i| i), run(b, &|i| (i % classes) ^ salt), "{}", name);
        }
    }
}

/// One fixed, seeded request stream that every model accepts (all
/// addresses lie in the tiny DDR3 part's 4,096 bursts). Its runs put
/// each model's locality cases in play:
///
/// * one address, over and over (one bank, one row, one column);
/// * one row: stride 1 on the tiny part (`RowBankCol`), stride 8 on the
///   prototype part (`RowColBank`, 8 banks);
/// * one bank, row after row: stride 64 (tiny), 1,024 (prototype),
///   16 (DDR4: 16 banks) and 128 (HBM2: 8 channels × 16 banks);
/// * one bank group, bank after bank: DDR4's banks 0–3 (`{0,1,2,3}`
///   + 16k) and HBM2's (`{0,8,16,24}` + 128k);
/// * same-cycle bursts of 100 requests, past the 64-request queue, so
///   the driver retries against back-pressure;
/// * idle gaps of 12,000 cycles, longer than every part's tREFI;
/// * random spread with random gaps in between.
fn pinned_stream() -> Vec<Step> {
    let mut state = 0x005E_ED0F_F10E_u64;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let total = Geometry::tiny().total_bursts();
    let runs: [&dyn Fn(u64) -> u64; 10] = [
        &|_| 37,
        &|i| 160 + i % 16,
        &|i| 3 + 8 * (i % 128),
        &|i| 5 + 64 * (i % 64),
        &|i| 2 + 1024 * (i % 4),
        &|i| 9 + 16 * (i % 256),
        &|i| 6 + 128 * (i % 32),
        &|i| (i % 4) + 16 * (i / 4 % 256),
        &|i| 8 * (i % 4) + 128 * (i / 4 % 32),
        &|i| i * 97 % total,
    ];
    let mut steps = Vec::new();
    for round in 0..3u64 {
        for (r, run) in runs.iter().enumerate() {
            let len = [24, 100, 40][(round as usize + r) % 3];
            for i in 0..len {
                // A 100-request run arrives in one cycle.
                let idle = match next() % 8 {
                    _ if len == 100 => 0,
                    0..=4 => 0,
                    5 | 6 => next() % 6,
                    _ => next() % 60,
                };
                steps.push(Step {
                    idle,
                    addr: run(i + round * 7) % total,
                    write: next() % 3 == 0,
                });
            }
            // Random spread between runs.
            for _ in 0..16 {
                steps.push(Step {
                    idle: next() % 12,
                    addr: next() % total,
                    write: next() % 2 == 0,
                });
            }
        }
        steps.push(Step {
            idle: 12_000,
            addr: next() % total,
            write: false,
        });
    }
    steps
}

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn completions(&mut self, done: &[Completion]) -> usize {
        for c in done {
            self.word(c.id);
            self.word(u64::from(c.kind == AccessKind::Write));
            self.word(c.addr);
            self.word(c.enqueued_at);
            self.word(c.completed_at);
        }
        done.len()
    }
}

/// Drives `m` through `steps`, retrying each refused enqueue a cycle
/// later, then ticks it until drained. Returns the FNV-1a digest of
/// every completion and of the final cycle, the completion count and
/// the number of refused enqueues.
fn run_pinned(m: &mut dyn MemoryModel, steps: &[Step]) -> (u64, usize, u64) {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let (mut completed, mut refused) = (0, 0);
    for (id, s) in steps.iter().enumerate() {
        for _ in 0..s.idle {
            completed += h.completions(m.tick());
        }
        let req = if s.write {
            MemRequest::write(id as u64, s.addr)
        } else {
            MemRequest::read(id as u64, s.addr)
        };
        while m.enqueue(req).is_err() {
            refused += 1;
            completed += h.completions(m.tick());
        }
    }
    for _ in 0..10_000_000 {
        if m.is_drained() {
            break;
        }
        completed += h.completions(m.tick());
    }
    assert!(m.is_drained(), "{} failed to drain", m.name());
    h.word(m.now());
    (h.0, completed, refused)
}

/// Every model's completion stream for [`pinned_stream`], pinned: any
/// change to a model's scheduling, timing, refresh, back-pressure or
/// completion order moves a digest. Models in `every_model` order.
#[test]
fn every_model_completion_stream_is_pinned() {
    let steps = pinned_stream();
    let pins: [(&str, u64, usize, u64); 5] = [
        ("ddr3", 0x33b2_f00a_db36_ed92, 2123, 19_826),
        ("ddr3", 0xa551_bc72_e90e_4cd4, 2123, 26_438),
        ("ddr4", 0x95fc_eb0b_61e7_c304, 2123, 27_791),
        ("hbm2", 0x4459_fc68_91f4_e6f4, 2123, 11_087),
        ("sram", 0x757c_9f01_8bea_bf61, 2123, 190),
    ];
    let got: Vec<(&str, u64, usize, u64)> = every_model()
        .into_iter()
        .map(|mut m| {
            let (digest, completed, refused) = run_pinned(m.as_mut(), &steps);
            (m.name(), digest, completed, refused)
        })
        .collect();
    for g in &got {
        assert_eq!(g.2, steps.len(), "{}: every request completes once", g.0);
        assert!(g.3 > 0, "{}: the stream reaches the queue bound", g.0);
    }
    assert_eq!(got, pins, "{got:#x?}");
}
