//! Property tests for the DDR3 model: address mapping bijectivity,
//! scheduling liveness, bus-model monotonicity, completion ordering, and
//! the line store against a map of owned bursts.

use std::collections::HashMap;

use proptest::prelude::*;

use flowlut_ddr3::bus::{analytic_utilization, TurnaroundModel};
use flowlut_ddr3::{
    AddressMapping, ControllerConfig, DramParams, Geometry, MemRequest, MemoryController,
    SparseStorage, SramParams, TimingPreset,
};

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
                MemRequest::write(i as u64, addr, vec![i as u8; 32])
            } else {
                MemRequest::read(i as u64, addr)
            };
            ctrl.enqueue(req).unwrap();
        }
        let done = ctrl.drain(5_000_000);
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
        let done = ctrl.drain(2_000_000);
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

const BURST: usize = 32;
/// Burst addresses the storage property draws from: a dense low range
/// plus the top of the address space.
const LOW_ADDRS: u64 = 24;

#[derive(Debug, Clone)]
enum StorageOp {
    /// Writes (or overwrites) a burst filled from a seed byte.
    Write(u64, u8),
    Read(u64),
    /// Claims the line holding a burst address.
    Claim(u64),
    /// Releases the line holding a burst address.
    Release(u64),
    /// Writes a burst to a clone of the store, which the store must not
    /// see.
    WriteClone(u64, u8),
    Reserve(usize),
    Clear,
}

fn burst_addr() -> impl Strategy<Value = u64> {
    prop_oneof![0..LOW_ADDRS, (0..4u64).prop_map(|i| u64::MAX - i)]
}

fn storage_op() -> impl Strategy<Value = StorageOp> {
    prop_oneof![
        (burst_addr(), any::<u8>()).prop_map(|(a, b)| StorageOp::Write(a, b)),
        (burst_addr(), any::<u8>()).prop_map(|(a, b)| StorageOp::Write(a, b)),
        burst_addr().prop_map(StorageOp::Read),
        burst_addr().prop_map(StorageOp::Claim),
        burst_addr().prop_map(StorageOp::Release),
        burst_addr().prop_map(StorageOp::Release),
        (burst_addr(), any::<u8>()).prop_map(|(a, b)| StorageOp::WriteClone(a, b)),
        (0usize..64).prop_map(StorageOp::Reserve),
        Just(StorageOp::Clear),
    ]
}

fn burst_from(seed: u8) -> Vec<u8> {
    (0..BURST as u8)
        .map(|j| seed.wrapping_mul(31).wrapping_add(j))
        .collect()
}

/// The line store as plain maps: owned bursts by address, each claimed
/// line's arena index, and released arena lines, reused last-released
/// first before the arena grows.
#[derive(Default)]
struct LineReference {
    bursts: HashMap<u64, Vec<u8>>,
    lines: HashMap<u64, usize>,
    free: Vec<usize>,
    arena_lines: usize,
}

impl LineReference {
    fn read(&self, addr: u64) -> Vec<u8> {
        self.bursts
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| vec![0; BURST])
    }

    fn claim(&mut self, line: u64) -> usize {
        let (free, arena_lines) = (&mut self.free, &mut self.arena_lines);
        *self.lines.entry(line).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                *arena_lines += 1;
                *arena_lines - 1
            })
        })
    }

    fn release(&mut self, line: u64, bursts_per_line: u64) {
        if let Some(i) = self.lines.remove(&line) {
            self.free.push(i);
            self.bursts.retain(|addr, _| addr / bursts_per_line != line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The line store reads back what a map of owned bursts holds, for
    /// lines of one to three bursts, under writes, overwrites, reads of
    /// unwritten bursts, line claims and releases, writes to a clone,
    /// reservations and clears in any order. Each claimed line keeps its
    /// arena line, and a claim takes the last released one first.
    #[test]
    fn arena_storage_matches_owned_burst_map(
        bursts_per_line in 1..=3u32,
        ops in prop::collection::vec(storage_op(), 1..150),
    ) {
        let per_line = u64::from(bursts_per_line);
        let mut s = SparseStorage::with_line_bursts(BURST, bursts_per_line);
        let mut reference = LineReference::default();
        for op in ops {
            match op {
                StorageOp::Write(addr, seed) => {
                    s.write_burst(addr, &burst_from(seed));
                    reference.claim(addr / per_line);
                    reference.bursts.insert(addr, burst_from(seed));
                }
                StorageOp::Read(addr) => {
                    prop_assert_eq!(s.read_burst(addr), reference.read(addr));
                }
                StorageOp::Claim(addr) => {
                    let line = addr / per_line;
                    prop_assert_eq!(s.claim_line(line), reference.claim(line));
                    // The top line of three bursts has one address: its
                    // other bursts stay zero.
                    let bursts = (0..per_line).flat_map(|j| {
                        (line * per_line).checked_add(j).map_or(vec![0; BURST], |a| reference.read(a))
                    });
                    let at = s.line_index(line).expect("claimed");
                    prop_assert_eq!(s.line_at(at), &bursts.collect::<Vec<u8>>()[..]);
                }
                StorageOp::Release(addr) => {
                    s.release_line(addr / per_line);
                    reference.release(addr / per_line, per_line);
                }
                StorageOp::WriteClone(addr, seed) => {
                    let mut copy = s.clone();
                    copy.write_burst(addr, &burst_from(seed));
                    prop_assert_eq!(copy.read_burst(addr), burst_from(seed));
                    prop_assert_eq!(s.read_burst(addr), reference.read(addr));
                }
                StorageOp::Reserve(n) => s.reserve(n),
                StorageOp::Clear => {
                    s.clear();
                    reference = LineReference::default();
                }
            }
            prop_assert_eq!(s.resident_bursts(), reference.lines.len() * bursts_per_line as usize);
            for (&line, &i) in &reference.lines {
                prop_assert_eq!(s.line_index(line), Some(i), "line {}", line);
            }
            for addr in (0..LOW_ADDRS).chain((0..4).map(|i| u64::MAX - i)) {
                prop_assert_eq!(s.read_burst(addr), reference.read(addr), "burst {}", addr);
            }
        }
    }
}
