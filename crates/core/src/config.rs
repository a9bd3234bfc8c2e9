//! Configuration of the timed flow-LUT simulator.

use flowlut_ddr3::model::MemoryModel;
use flowlut_ddr3::{Ddr3Params, Geometry, MemorySpec};

use crate::error::ConfigError;
use crate::table::TableConfig;

/// How the sequencer's load balancer picks the first lookup path.
///
/// Table II(A) of the paper measures exactly this dial: a balanced
/// split (50.8 % / 50.0 % on path A) versus skewed splits (25 %, 0 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadBalancerPolicy {
    /// Use the low bit of the first hash value: random traffic splits
    /// ≈50/50 (the paper's "random hash" row lands at 50.8 %).
    #[default]
    HashSplit,
    /// Send exactly `path_a_permille`/1000 of descriptors to path A, the
    /// rest to path B (deterministic interleave). `0` reproduces the
    /// paper's all-on-B row.
    FixedRatio {
        /// Per-mille of descriptors first routed to path A.
        path_a_permille: u16,
    },
}

/// Engine-level flow aging: expire flows idle longer than a TTL,
/// found by an amortized incremental scan driven from `tick` (a few
/// records per cycle — never a stop-the-world epoch). This is the
/// paper's Flow State housekeeping, which "periodically checks and
/// removes timeout flow entries".
///
/// Expired flows are deleted through the simulator's normal delete path
/// (so the DRAM bucket rewrite is modelled), counted in
/// `SimStats::expired_ttl`, and surfaced as
/// [`FlowEvent`](crate::backend::FlowEvent)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpiryPolicy {
    /// A flow whose last touch is more than this many system cycles in
    /// the past is expired.
    pub idle_timeout_cycles: u64,
    /// Resident-flow records examined per system cycle by the
    /// incremental scan. Larger strides find idle flows sooner at more
    /// bookkeeping work per cycle.
    pub scan_stride: usize,
}

impl ExpiryPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the timeout or stride is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.idle_timeout_cycles == 0 {
            return Err(ConfigError::new(
                "expiry idle_timeout_cycles must be non-zero",
            ));
        }
        if self.scan_stride == 0 {
            return Err(ConfigError::new("expiry scan_stride must be non-zero"));
        }
        Ok(())
    }
}

/// Occupancy-pressure eviction: when overflow-CAM occupancy reaches a
/// high-water mark, evict the coldest (least-recently-touched) scanned
/// flow to a bounded victim list instead of letting the table run into
/// hard `FullError` rejections.
///
/// Victims keep their accounting record (retrievable via
/// `FlowLutSim::take_victims`), are counted in
/// `SimStats::pressure_evicted`, and are surfaced as
/// [`FlowEvent`](crate::backend::FlowEvent)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressurePolicy {
    /// Evict while at least this many entries sit in the overflow CAM
    /// (the structure whose fill predicts imminent insert failure).
    pub cam_high_water: u32,
    /// Records examined per eviction decision; the coldest of the batch
    /// is evicted (approximate LRU).
    pub scan_batch: usize,
    /// Bound on the victim list; when full, the oldest victim record is
    /// discarded.
    pub victim_cap: usize,
}

impl PressurePolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any knob is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cam_high_water == 0 {
            return Err(ConfigError::new("pressure cam_high_water must be non-zero"));
        }
        if self.scan_batch == 0 {
            return Err(ConfigError::new("pressure scan_batch must be non-zero"));
        }
        if self.victim_cap == 0 {
            return Err(ConfigError::new("pressure victim_cap must be non-zero"));
        }
        Ok(())
    }
}

/// Sequencer input-queue depth.
pub(crate) const SEQUENCER_DEPTH: usize = 64;
/// Pending-read capacity per path DLU (requests held before the memory
/// controller accepts them).
pub(crate) const DLU_QUEUE_DEPTH: usize = 64;
/// Memory-controller request-queue capacity per path.
pub(crate) const CONTROLLER_QUEUE: usize = 64;
/// Bucket buffers per Flow Match lane (a resource-model input).
pub(crate) const FLOW_MATCH_BUFFERS: usize = 4;
/// BWr_Gen releases a partial write burst once its oldest pending
/// update is this many system cycles old.
pub(crate) const BWR_TIMEOUT_SYS: u64 = 64;
/// Maximum descriptors in flight past the sequencer (pipeline depth).
pub(crate) const MAX_IN_FLIGHT: usize = 256;
/// CAM search pipeline latency in system cycles.
pub(crate) const CAM_LATENCY_SYS: u64 = 1;

/// Full configuration of [`FlowLutSim`](crate::sim::FlowLutSim).
///
/// The queue depths, the BWr_Gen timeout and the CAM latency are fixed
/// in the prototype's FPGA build and are constants here.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Table sizing and hashing.
    pub table: TableConfig,
    /// Which memory technology backs each path, with its parameters
    /// (default: the prototype's DDR3-1600 part at a 4:1 clock ratio).
    /// It sets the system clock.
    pub memory: MemorySpec,
    /// First-path selection policy.
    pub load_balancer: LoadBalancerPolicy,
    /// Ablation switch: `false` serialises each path's memory requests
    /// one at a time (no bank-parallelism), isolating the Bank Selector's
    /// contribution.
    pub bank_select_enabled: bool,
    /// BWr_Gen releases a write burst when this many updates are
    /// pending (or when the oldest is 64 system cycles old).
    pub bwr_threshold: usize,
    /// Offered descriptor rate in MHz (the paper sweeps 60–100 MHz).
    pub input_rate_mhz: f64,
    /// Enable periodic DRAM refresh.
    pub refresh_enabled: bool,
    /// Engine-level idle-TTL flow aging (`None` disables it — the
    /// default, preserving bounded-run behaviour bit-for-bit).
    pub expiry: Option<ExpiryPolicy>,
    /// Occupancy-pressure eviction (`None` disables it — the default).
    pub pressure: Option<PressurePolicy>,
}

impl Default for SimConfig {
    /// The FPGA prototype: 200 MHz system clock, two DDR3-1600 memory
    /// sets, 8 M-entry table, balanced hashing.
    fn default() -> Self {
        SimConfig {
            table: TableConfig::prototype_8m(),
            memory: MemorySpec::default(),
            load_balancer: LoadBalancerPolicy::default(),
            bank_select_enabled: true,
            bwr_threshold: 8,
            input_rate_mhz: 100.0,
            refresh_enabled: true,
            expiry: None,
            pressure: None,
        }
    }
}

impl SimConfig {
    /// A scaled-down configuration for fast unit tests: small table,
    /// small memory, refresh off.
    pub fn test_small() -> Self {
        SimConfig {
            table: TableConfig::test_small(),
            memory: MemorySpec::Ddr3(Ddr3Params {
                geometry: Geometry {
                    banks: 8,
                    rows: 64,
                    cols: 32,
                    bus_width_bits: 32,
                    burst_length: 8,
                },
                ..Ddr3Params::default()
            }),
            refresh_enabled: false,
            ..SimConfig::default()
        }
    }

    /// System-clock frequency in MHz implied by the selected memory.
    pub fn sys_clock_mhz(&self) -> f64 {
        self.memory.sys_clock_mhz()
    }

    /// System-clock period in nanoseconds.
    pub fn sys_period_ns(&self) -> f64 {
        1000.0 / self.sys_clock_mhz()
    }

    /// Bytes per memory burst of the selected memory.
    pub fn mem_burst_bytes(&self) -> usize {
        self.memory.burst_bytes()
    }

    /// Memory-clock cycles the simulator steps each model per system
    /// cycle.
    pub fn mem_ticks_per_sys(&self) -> u32 {
        self.memory.ticks_per_sys()
    }

    /// Builds one path's memory model from this configuration.
    pub fn build_memory(&self) -> Box<dyn MemoryModel> {
        self.memory.build(CONTROLLER_QUEUE, self.refresh_enabled)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any sub-configuration is invalid, the
    /// bucket array does not fit the memory, the offered rate exceeds
    /// the system clock, or the BWr_Gen threshold is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.table.validate()?;
        self.memory
            .validate()
            .map_err(|e| ConfigError::new(format!("memory spec: {e}")))?;
        let burst_bytes = self.mem_burst_bytes();
        let bursts_needed = u64::from(self.table.buckets_per_mem)
            * u64::from(self.table.bursts_per_bucket(burst_bytes));
        let total_bursts = self.memory.total_bursts();
        if bursts_needed > total_bursts {
            return Err(ConfigError::new(format!(
                "table needs {bursts_needed} bursts but each memory provides {total_bursts}"
            )));
        }
        if self.input_rate_mhz <= 0.0 || self.input_rate_mhz > self.sys_clock_mhz() {
            return Err(ConfigError::new(format!(
                "input rate {} MHz must be in (0, {}] (one descriptor per system cycle max)",
                self.input_rate_mhz,
                self.sys_clock_mhz()
            )));
        }
        if self.bwr_threshold == 0 {
            return Err(ConfigError::new("bwr_threshold must be non-zero"));
        }
        if let LoadBalancerPolicy::FixedRatio { path_a_permille } = self.load_balancer {
            if path_a_permille > 1000 {
                return Err(ConfigError::new("path_a_permille must be <= 1000"));
            }
        }
        if let Some(p) = &self.expiry {
            p.validate()?;
        }
        if let Some(p) = &self.pressure {
            p.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_200mhz() {
        let c = SimConfig::default();
        c.validate().unwrap();
        assert!((c.sys_clock_mhz() - 200.0).abs() < 1e-9);
        assert!((c.sys_period_ns() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn test_small_is_valid() {
        SimConfig::test_small().validate().unwrap();
    }

    #[test]
    fn oversized_table_rejected() {
        let mut c = SimConfig::test_small();
        c.table.buckets_per_mem = 1 << 30;
        assert!(c.validate().is_err());
    }

    #[test]
    fn excessive_input_rate_rejected() {
        let mut c = SimConfig::test_small();
        c.input_rate_mhz = 500.0;
        assert!(c.validate().is_err());
        c.input_rate_mhz = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_ratio_rejected() {
        let mut c = SimConfig::test_small();
        c.load_balancer = LoadBalancerPolicy::FixedRatio {
            path_a_permille: 1001,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_bwr_threshold_rejected() {
        let mut c = SimConfig::test_small();
        c.bwr_threshold = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn every_memory_kind_yields_a_valid_config() {
        // Each default spec's system clock, memory ticks per system
        // cycle, burst bytes and total bursts, as fixed in the
        // calibrated parameter sets.
        let want = [
            ("ddr3", 200.0, 4, 32, 16_777_216),
            ("ddr4", 200.0800320128051, 6, 32, 16_777_216),
            ("hbm2", 200.0, 5, 32, 16_777_216),
            ("sram", 200.0, 1, 32, 16_777_216),
        ];
        for (spec, (name, clock, ticks, burst, bursts)) in
            MemorySpec::defaults().into_iter().zip(want)
        {
            let c = SimConfig {
                memory: spec,
                ..SimConfig::default()
            };
            c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name(), name);
            assert_eq!(c.sys_clock_mhz(), clock, "{name}");
            assert_eq!(c.mem_ticks_per_sys(), ticks, "{name}");
            assert_eq!(c.mem_burst_bytes(), burst, "{name}");
            assert_eq!(spec.total_bursts(), bursts, "{name}");
            let m = c.build_memory();
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn sys_clock_follows_the_selected_memory() {
        use flowlut_ddr3::{DramParams, SramParams};
        let mut c = SimConfig::default();
        assert_eq!(c.sys_clock_mhz(), 200.0);
        assert_eq!(c.sys_period_ns(), 5.0);
        c.memory = MemorySpec::Sram(SramParams::ideal_200mhz());
        assert_eq!(c.sys_clock_mhz(), 200.0);
        assert_eq!(c.mem_ticks_per_sys(), 1);
        let ddr4 = DramParams::ddr4_2400();
        c.memory = MemorySpec::Ddr4(ddr4);
        assert_eq!(c.mem_ticks_per_sys(), 6);
        assert_eq!(c.sys_clock_mhz(), ddr4.clock_mhz() / 6.0);
        assert_eq!(c.sys_period_ns(), 4.998);
        let small = SimConfig::test_small();
        assert_eq!(small.sys_clock_mhz(), 200.0);
        assert_eq!(small.mem_ticks_per_sys(), 4);
        assert_eq!(small.mem_burst_bytes(), 32);
        assert_eq!(small.memory.total_bursts(), 16_384);
    }

    #[test]
    fn invalid_memory_spec_rejected() {
        use flowlut_ddr3::DramParams;
        let mut c = SimConfig::default();
        let mut p = DramParams::ddr4_2400();
        p.t_ccd_l = 0;
        c.memory = MemorySpec::Ddr4(p);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zeroed_lifecycle_policies_rejected() {
        let mut c = SimConfig::test_small();
        c.expiry = Some(ExpiryPolicy {
            idle_timeout_cycles: 0,
            scan_stride: 4,
        });
        assert!(c.validate().is_err());
        c.expiry = Some(ExpiryPolicy {
            idle_timeout_cycles: 100,
            scan_stride: 0,
        });
        assert!(c.validate().is_err());
        c.expiry = Some(ExpiryPolicy {
            idle_timeout_cycles: 100,
            scan_stride: 4,
        });
        c.validate().unwrap();
        for bad in [
            PressurePolicy {
                cam_high_water: 0,
                scan_batch: 4,
                victim_cap: 16,
            },
            PressurePolicy {
                cam_high_water: 2,
                scan_batch: 0,
                victim_cap: 16,
            },
            PressurePolicy {
                cam_high_water: 2,
                scan_batch: 4,
                victim_cap: 0,
            },
        ] {
            c.pressure = Some(bad);
            assert!(c.validate().is_err(), "{bad:?}");
        }
        c.pressure = Some(PressurePolicy {
            cam_high_water: 2,
            scan_batch: 4,
            victim_cap: 16,
        });
        c.validate().unwrap();
    }

    #[test]
    fn oversized_table_rejected_for_new_models() {
        use flowlut_ddr3::DramParams;
        let mut c = SimConfig::default();
        let mut p = DramParams::ddr4_2400();
        p.rows = 16; // far too small for the 8 M-entry table
        c.memory = MemorySpec::Ddr4(p);
        assert!(c.validate().is_err());
    }
}
