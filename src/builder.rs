//! One builder for every flow backend in the workspace.
//!
//! [`Builder`] assembles any backend — the functional Hash-CAM table,
//! the cycle-stepped single-channel prototype, the sharded multi-channel
//! engine, or any related-work baseline — behind `Box<dyn FlowBackend>`,
//! so sweeps, benches and examples construct their whole comparison set
//! through one fluent API:
//!
//! ```
//! use flowlut::{BaselineKind, Builder};
//! use flowlut::core::{SimConfig, TableConfig};
//! use flowlut::ddr3::TimingPreset;
//!
//! // The paper's functional table.
//! let table = Builder::new().table(TableConfig::test_small()).build()?;
//! assert_eq!(table.capacity(), TableConfig::test_small().capacity());
//!
//! // A 4-channel timed engine on Figure 3's DDR3-1066E part.
//! let engine = Builder::new()
//!     .shards(4)
//!     .sim_config(SimConfig {
//!         timing: TimingPreset::Ddr3_1066E.params(),
//!         ..SimConfig::default()
//!     })
//!     .table(TableConfig::test_small())
//!     .build()?;
//! assert_eq!(engine.capacity(), 4 * TableConfig::test_small().capacity());
//!
//! // A related-work comparator at matched capacity.
//! let cuckoo = Builder::new()
//!     .table(TableConfig::test_small())
//!     .baseline(BaselineKind::Cuckoo)
//!     .build()?;
//! assert_eq!(cuckoo.name(), "cuckoo");
//! # Ok::<(), flowlut::core::ConfigError>(())
//! ```

use flowlut_baselines::{
    BloomCamTable, CuckooTable, DLeftTable, OneMoveTable, SimultaneousHashCam, SingleHashTable,
};
use flowlut_core::backend::FlowBackend;
use flowlut_core::{ConfigError, FlowLutSim, HashCamTable, SimConfig, TableConfig};
use flowlut_ddr3::{MemoryKind, MemorySpec};
use flowlut_engine::{EngineConfig, ShardedFlowLut};

/// The related-work comparators [`Builder::baseline`] can construct,
/// sized to match the configured [`TableConfig`]'s capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// One hash function, K-entry buckets.
    SingleHash,
    /// Multi-choice / balanced-allocations hashing (d = 2).
    DLeft,
    /// Two-function cuckoo hashing with kick-out insertion.
    Cuckoo,
    /// Kirsch & Mitzenmacher's single-move table with overflow CAM.
    OneMove,
    /// Bloom-filter occupancy summary plus CAM.
    BloomCam,
    /// The conventional Hash-CAM that probes CAM and both memories at
    /// once (the paper's early-exit ablation baseline).
    SimultaneousHashCam,
}

impl BaselineKind {
    /// Every baseline kind, in the related-work section's order — the
    /// iteration set for comparison registries.
    pub const ALL: [BaselineKind; 6] = [
        BaselineKind::SingleHash,
        BaselineKind::DLeft,
        BaselineKind::Cuckoo,
        BaselineKind::OneMove,
        BaselineKind::BloomCam,
        BaselineKind::SimultaneousHashCam,
    ];
}

/// Fluent constructor of any [`FlowBackend`].
///
/// Backend selection, in precedence order:
///
/// 1. [`baseline`](Self::baseline) → that related-work structure, sized
///    to match the configured table's capacity (untimed);
/// 2. [`shards`](Self::shards)` >= 2` → the sharded multi-channel engine;
/// 3. [`shards(1)`](Self::shards), [`memory`](Self::memory) or
///    [`sim_config`](Self::sim_config) → the cycle-stepped single-channel
///    prototype;
/// 4. otherwise → the functional [`HashCamTable`].
///
/// Defaults are the FPGA prototype's (8 M-entry table, DDR3-1600,
/// 100 MHz offered load per channel).
#[derive(Debug, Clone, Default)]
pub struct Builder {
    table: Option<TableConfig>,
    sim: Option<SimConfig>,
    memory: Option<MemorySpec>,
    shards: Option<usize>,
    baseline: Option<BaselineKind>,
}

impl Builder {
    /// Starts from the prototype defaults.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Table sizing and hashing (also sizes baselines, capacity-matched).
    pub fn table(mut self, table: TableConfig) -> Self {
        self.table = Some(table);
        self
    }

    /// Full simulator configuration for the timed backends (DDR3 timing,
    /// offered rate, queue depths, policies, geometry). Implies a timed
    /// backend. `table` and `memory` still override its fields.
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Memory technology of each lookup path, at that technology's
    /// calibrated default parameters (DESIGN.md §Calibration). Implies
    /// a timed backend. `MemoryKind::Ddr3` is the legacy path —
    /// identical to not calling this at all.
    ///
    /// ```
    /// use flowlut::Builder;
    /// use flowlut::core::SimConfig;
    /// use flowlut::ddr3::MemoryKind;
    ///
    /// let hbm = Builder::new()
    ///     .sim_config(SimConfig::test_small())
    ///     .memory(MemoryKind::Hbm2)
    ///     .build()?;
    /// assert_eq!(hbm.name(), "hashcam-sim");
    /// # Ok::<(), flowlut::core::ConfigError>(())
    /// ```
    pub fn memory(self, kind: MemoryKind) -> Self {
        self.memory_spec(kind.default_spec())
    }

    /// Memory technology with explicit parameters, for sweeps that
    /// vary timing/geometry beyond the calibrated defaults.
    pub fn memory_spec(mut self, spec: MemorySpec) -> Self {
        self.memory = Some(spec);
        self
    }

    /// Number of lockstep channels. `1` selects the single-channel
    /// prototype; `>= 2` the sharded engine.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Selects a related-work comparator instead of the paper's scheme.
    pub fn baseline(mut self, kind: BaselineKind) -> Self {
        self.baseline = Some(kind);
        self
    }

    /// The effective table configuration.
    fn table_config(&self) -> TableConfig {
        self.table
            .or(self.sim.as_ref().map(|s| s.table))
            .unwrap_or_default()
    }

    /// The effective per-channel simulator configuration.
    fn effective_sim_config(&self) -> SimConfig {
        let mut cfg = self.sim.clone().unwrap_or_default();
        cfg.table = self.table_config();
        if let Some(spec) = self.memory {
            cfg.memory = spec;
        }
        cfg
    }

    /// Builds the selected backend behind `Box<dyn FlowBackend>`.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the assembled configuration is invalid, or if
    /// a baseline was combined with timed options (baselines are
    /// functional structures without a clock).
    pub fn build(self) -> Result<Box<dyn FlowBackend>, ConfigError> {
        if let Some(kind) = self.baseline {
            if self.shards.is_some() || self.memory.is_some() || self.sim.is_some() {
                return Err(ConfigError::new(
                    "baselines are untimed: they take no shards/memory/sim_config",
                ));
            }
            return Ok(self.build_baseline(kind));
        }
        match self.shards {
            Some(0) => Err(ConfigError::new("shards must be non-zero")),
            Some(n) if n >= 2 => Ok(Box::new(self.build_engine()?)),
            Some(_) => Ok(Box::new(self.build_sim()?)),
            None if self.memory.is_some() || self.sim.is_some() => Ok(Box::new(self.build_sim()?)),
            None => Ok(Box::new(self.build_table()?)),
        }
    }

    /// Builds the functional [`HashCamTable`] (typed escape hatch).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the table configuration is invalid.
    pub fn build_table(self) -> Result<HashCamTable, ConfigError> {
        let cfg = self.table_config();
        cfg.validate()?;
        Ok(HashCamTable::new(cfg))
    }

    /// Builds the single-channel timed prototype (typed escape hatch for
    /// callers that read its per-path memory models through
    /// [`FlowLutSim::memory`]).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the simulator configuration is invalid.
    pub fn build_sim(self) -> Result<FlowLutSim, ConfigError> {
        let cfg = self.effective_sim_config();
        cfg.validate()?;
        Ok(FlowLutSim::new(cfg))
    }

    /// Builds the sharded multi-channel engine (typed escape hatch for
    /// callers that read per-shard counters through
    /// [`ShardedFlowLut::snapshot`]). Uses [`shards`](Self::shards)
    /// (default 2).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the engine configuration is invalid.
    pub fn build_engine(self) -> Result<ShardedFlowLut, ConfigError> {
        Ok(ShardedFlowLut::new(self.engine_config()?))
    }

    /// The validated engine configuration: `shards` (default 2) copies
    /// of the effective simulator configuration, offered the
    /// per-channel rate times the channel count.
    fn engine_config(&self) -> Result<EngineConfig, ConfigError> {
        let shards = self.shards.unwrap_or(2);
        let shard = self.effective_sim_config();
        let mut cfg = EngineConfig::prototype(shards);
        cfg.input_rate_mhz = shards as f64 * shard.input_rate_mhz;
        cfg.shard = shard;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Constructs `kind` at the configured table's capacity: the same
    /// total key slots (two memories × buckets × K plus CAM),
    /// redistributed into each structure's natural shape. CAM-less
    /// structures round *up* to the next whole bucket, so every baseline
    /// holds at least as many keys as the paper's table.
    fn build_baseline(self, kind: BaselineKind) -> Box<dyn FlowBackend> {
        let t = self.table_config();
        let buckets = t.buckets_per_mem;
        let k = usize::from(t.entries_per_bucket);
        let cam = t.cam_capacity;
        let total = t.capacity() as usize;
        let seed = t.hash_seed;
        match kind {
            BaselineKind::SingleHash => {
                Box::new(SingleHashTable::new(total.div_ceil(k) as u32, k, seed))
            }
            BaselineKind::DLeft => {
                Box::new(DLeftTable::new(2, total.div_ceil(2 * k) as u32, k, seed))
            }
            BaselineKind::Cuckoo => {
                // Two single-entry sub-tables plus the structure's fixed
                // 8-slot stash.
                let per_table = total.saturating_sub(8).div_ceil(2).max(1) as u32;
                Box::new(CuckooTable::new(per_table, 1, 500, seed))
            }
            BaselineKind::OneMove => Box::new(OneMoveTable::new(2, buckets, k, cam, seed)),
            BaselineKind::BloomCam => Box::new(BloomCamTable::new((total - cam) as u32, cam, seed)),
            BaselineKind::SimultaneousHashCam => {
                Box::new(SimultaneousHashCam::new(buckets, k, cam, seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_backend_kind() {
        let small = TableConfig::test_small();
        let table = Builder::new().table(small).build().unwrap();
        assert_eq!(table.name(), "hashcam (this paper)");
        assert_eq!(table.capacity(), small.capacity());

        let sim = Builder::new()
            .sim_config(SimConfig::test_small())
            .build()
            .unwrap();
        assert_eq!(sim.name(), "hashcam-sim");

        let engine = Builder::new()
            .sim_config(SimConfig::test_small())
            .shards(2)
            .build()
            .unwrap();
        assert_eq!(engine.name(), "hashcam-sharded");
        assert_eq!(engine.capacity(), 2 * small.capacity());
    }

    #[test]
    fn baselines_are_capacity_matched() {
        let small = TableConfig::test_small();
        let total = small.capacity();
        let slack = 2 * u64::from(small.entries_per_bucket);
        for kind in BaselineKind::ALL {
            let b = Builder::new().table(small).baseline(kind).build().unwrap();
            assert!(
                b.capacity() >= total && b.capacity() <= total + slack,
                "{kind:?} ({}): capacity {} not within [{total}, {}]",
                b.name(),
                b.capacity(),
                total + slack
            );
        }
    }

    #[test]
    fn timed_options_reject_baselines() {
        assert!(Builder::new()
            .baseline(BaselineKind::Cuckoo)
            .shards(4)
            .build()
            .is_err());
        assert!(Builder::new()
            .baseline(BaselineKind::Cuckoo)
            .sim_config(SimConfig::test_small())
            .build()
            .is_err());
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(Builder::new().shards(0).build().is_err());
    }

    #[test]
    fn memory_kind_selects_the_model() {
        for kind in MemoryKind::ALL {
            let b = Builder::new()
                .sim_config(SimConfig::test_small())
                .memory(kind);
            assert_eq!(b.effective_sim_config().memory.kind(), kind);
            b.build_sim().unwrap();
        }
        // memory() alone implies a timed backend.
        let timed = Builder::new()
            .table(TableConfig::test_small())
            .memory(MemoryKind::Sram)
            .build()
            .unwrap();
        assert_eq!(timed.name(), "hashcam-sim");
    }

    #[test]
    fn memory_threads_through_the_engine() {
        let b = Builder::new()
            .sim_config(SimConfig::test_small())
            .memory(MemoryKind::Hbm2)
            .shards(2);
        let cfg = b.engine_config().unwrap();
        assert_eq!(cfg.shard.memory.kind(), MemoryKind::Hbm2);
        b.build_engine().unwrap();
    }

    #[test]
    fn memory_rejected_with_baselines() {
        assert!(Builder::new()
            .baseline(BaselineKind::Cuckoo)
            .memory(MemoryKind::Sram)
            .build()
            .is_err());
    }

    #[test]
    fn invalid_memory_spec_surfaces_as_config_error() {
        let mut p = flowlut_ddr3::DramParams::ddr4_2400();
        p.t_ccd_l = 0;
        assert!(Builder::new()
            .sim_config(SimConfig::test_small())
            .memory_spec(MemorySpec::Ddr4(p))
            .build()
            .is_err());
    }

    #[test]
    fn timed_backends_expose_pipelines() {
        let mut sim = Builder::new()
            .sim_config(SimConfig::test_small())
            .build()
            .unwrap();
        assert!(sim.as_pipeline().is_some());
        let mut table = Builder::new()
            .table(TableConfig::test_small())
            .build()
            .unwrap();
        assert!(table.as_pipeline().is_none());
    }
}
