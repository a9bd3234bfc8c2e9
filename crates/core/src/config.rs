//! Configuration of the timed flow-LUT simulator.

use flowlut_ddr3::model::MemoryModel;
use flowlut_ddr3::{
    AddressMapping, ControllerConfig, Geometry, MemorySpec, PagePolicy, TimingParams, TimingPreset,
};

use crate::error::ConfigError;
use crate::table::TableConfig;

/// How the sequencer's load balancer picks the first lookup path.
///
/// Table II(A) of the paper measures exactly this dial: a balanced
/// split (50.8 % / 50.0 % on path A) versus skewed splits (25 %, 0 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Default)]
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
    /// Adaptive: pick the path whose lookup queue is currently shorter
    /// (ties to A). The "optimized load balancer" of the discussion.
    QueueDepth,
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

/// Full configuration of [`FlowLutSim`](crate::sim::FlowLutSim).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Table sizing and hashing.
    pub table: TableConfig,
    /// DDR3 timing of each memory set (prototype: DDR3-1600, 800 MHz
    /// memory clock = 4 × the 200 MHz system clock).
    pub timing: TimingParams,
    /// Geometry of each memory set.
    pub geometry: Geometry,
    /// Bucket-address to bank/row/column mapping. The default
    /// `RowColBank` places consecutive buckets in consecutive banks, the
    /// interleave the paper's Bank Selector exploits.
    pub mapping: AddressMapping,
    /// Memory-clock cycles per system-clock cycle (prototype: 4,
    /// quarter-rate user logic).
    pub clock_ratio: u32,
    /// First-path selection policy.
    pub load_balancer: LoadBalancerPolicy,
    /// Ablation switch: `false` serialises each path's memory requests
    /// one at a time (no bank-parallelism), isolating the Bank Selector's
    /// contribution.
    pub bank_select_enabled: bool,
    /// Same-direction grouping limit forwarded to the memory controller.
    pub group_limit: u32,
    /// Memory-controller queue capacity per path.
    pub controller_queue: usize,
    /// Pending-read capacity per path DLU (requests held before the
    /// controller accepts them).
    pub dlu_queue_depth: usize,
    /// Sequencer input-queue depth.
    pub sequencer_depth: usize,
    /// Bucket buffers per Flow Match lane (resource model input).
    pub flow_match_buffers: usize,
    /// BWr_Gen releases a write burst when this many updates are pending…
    pub bwr_threshold: usize,
    /// …or when the oldest pending update is this many system cycles old.
    pub bwr_timeout_sys: u64,
    /// CAM search pipeline latency in system cycles.
    pub cam_latency_sys: u64,
    /// Offered descriptor rate in MHz (the paper sweeps 60–100 MHz).
    pub input_rate_mhz: f64,
    /// Enable periodic DRAM refresh.
    pub refresh_enabled: bool,
    /// Maximum descriptors in flight past the sequencer (pipeline depth).
    pub max_in_flight: usize,
    /// Which memory technology backs each path. The default
    /// ([`MemorySpec::Ddr3`]) builds the paper's DDR3 controller from
    /// the `timing`/`geometry`/`mapping`/`clock_ratio` fields above —
    /// byte-identical to the pre-trait behaviour; the other variants
    /// carry their own parameters and ignore those legacy fields.
    pub memory: MemorySpec,
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
            timing: TimingPreset::Ddr3_1600.params(),
            geometry: Geometry::prototype_512mb(),
            mapping: AddressMapping::RowColBank,
            clock_ratio: 4,
            load_balancer: LoadBalancerPolicy::default(),
            bank_select_enabled: true,
            group_limit: 16,
            controller_queue: 64,
            dlu_queue_depth: 64,
            sequencer_depth: 64,
            flow_match_buffers: 4,
            bwr_threshold: 8,
            bwr_timeout_sys: 64,
            cam_latency_sys: 1,
            input_rate_mhz: 100.0,
            refresh_enabled: true,
            max_in_flight: 256,
            memory: MemorySpec::Ddr3,
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
            geometry: Geometry {
                banks: 8,
                rows: 64,
                cols: 32,
                bus_width_bits: 32,
                burst_length: 8,
            },
            refresh_enabled: false,
            ..SimConfig::default()
        }
    }

    /// System-clock frequency in MHz implied by the selected memory's
    /// clock and ratio (DDR3 prototype: 800 / 4 = 200 MHz).
    pub fn sys_clock_mhz(&self) -> f64 {
        match &self.memory {
            MemorySpec::Ddr3 => self.timing.clock_mhz() / f64::from(self.clock_ratio),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.clock_mhz() / f64::from(p.clock_ratio),
            MemorySpec::Sram(p) => p.clock_mhz(),
        }
    }

    /// System-clock period in nanoseconds.
    pub fn sys_period_ns(&self) -> f64 {
        1000.0 / self.sys_clock_mhz()
    }

    /// Bytes per memory burst of the selected memory model (DDR3: from
    /// `geometry`; the other models carry their own burst size).
    pub fn mem_burst_bytes(&self) -> usize {
        match &self.memory {
            MemorySpec::Ddr3 => self.geometry.burst_bytes(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.burst_bytes(),
            MemorySpec::Sram(p) => p.burst_bytes,
        }
    }

    /// Burst-aligned capacity of each path's memory.
    pub fn mem_total_bursts(&self) -> u64 {
        match &self.memory {
            MemorySpec::Ddr3 => self.geometry.total_bursts(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.total_bursts(),
            MemorySpec::Sram(p) => p.total_bursts,
        }
    }

    /// Memory-clock cycles the simulator steps each model per system
    /// cycle.
    pub fn mem_ticks_per_sys(&self) -> u32 {
        self.memory.ticks_per_sys(self.clock_ratio)
    }

    /// Builds one path's memory model from this configuration.
    pub fn build_memory(&self) -> Box<dyn MemoryModel> {
        // The legacy ControllerConfig is exactly what the simulator
        // handed MemoryController before the trait extraction; the
        // non-DDR3 variants consume only its queue capacity and
        // refresh switch.
        self.memory.build(ControllerConfig {
            timing: self.timing,
            geometry: self.geometry,
            mapping: self.mapping,
            page_policy: PagePolicy::Closed,
            queue_capacity: self.controller_queue,
            group_limit: self.group_limit,
            refresh_enabled: self.refresh_enabled,
            cmd_interval: u64::from(self.clock_ratio),
            ..ControllerConfig::default()
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any sub-configuration is invalid, the
    /// bucket array does not fit the memory geometry, the offered rate
    /// exceeds the system clock, or queue depths are zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.table.validate()?;
        self.timing.validate()?;
        self.geometry.validate()?;
        self.memory
            .validate()
            .map_err(|e| ConfigError::new(format!("memory spec: {e}")))?;
        if self.clock_ratio == 0 {
            return Err(ConfigError::new("clock_ratio must be non-zero"));
        }
        let burst_bytes = self.mem_burst_bytes();
        let bursts_needed = u64::from(self.table.buckets_per_mem)
            * u64::from(self.table.bursts_per_bucket(burst_bytes));
        if bursts_needed > self.mem_total_bursts() {
            return Err(ConfigError::new(format!(
                "table needs {bursts_needed} bursts but each memory provides {}",
                self.mem_total_bursts()
            )));
        }
        if self.input_rate_mhz <= 0.0 || self.input_rate_mhz > self.sys_clock_mhz() {
            return Err(ConfigError::new(format!(
                "input rate {} MHz must be in (0, {}] (one descriptor per system cycle max)",
                self.input_rate_mhz,
                self.sys_clock_mhz()
            )));
        }
        if self.sequencer_depth == 0
            || self.dlu_queue_depth == 0
            || self.controller_queue == 0
            || self.max_in_flight == 0
        {
            return Err(ConfigError::new("queue depths must be non-zero"));
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
    fn zero_queues_rejected() {
        let mut c = SimConfig::test_small();
        c.sequencer_depth = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn every_memory_kind_yields_a_valid_config() {
        use flowlut_ddr3::MemoryKind;
        for kind in MemoryKind::ALL {
            let c = SimConfig {
                memory: kind.default_spec(),
                ..SimConfig::default()
            };
            c.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(c.sys_clock_mhz() > 0.0);
            assert_eq!(c.mem_burst_bytes(), 32, "{}", kind.name());
            let m = c.build_memory();
            assert_eq!(m.name(), kind.name());
        }
    }

    #[test]
    fn sys_clock_follows_the_selected_memory() {
        use flowlut_ddr3::{DramParams, SramParams};
        let mut c = SimConfig::default();
        assert!((c.sys_clock_mhz() - 200.0).abs() < 1e-9);
        c.memory = MemorySpec::Sram(SramParams::ideal_200mhz());
        assert!((c.sys_clock_mhz() - 200.0).abs() < 1e-9);
        assert_eq!(c.mem_ticks_per_sys(), 1);
        let ddr4 = DramParams::ddr4_2400();
        c.memory = MemorySpec::Ddr4(ddr4);
        assert_eq!(c.mem_ticks_per_sys(), ddr4.clock_ratio);
        assert!((c.sys_clock_mhz() - ddr4.clock_mhz() / 6.0).abs() < 1e-9);
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
