//! Building backends: each by its own constructor, or all nine at once.
//!
//! Every backend in the workspace is built by its constructor from the
//! config it owns — the functional table from a
//! [`TableConfig`](flowlut_core::TableConfig), the
//! single-channel prototype from a [`SimConfig`], the sharded engine
//! from an [`EngineConfig`], and a related-work baseline from
//! [`BaselineKind::build`], sized to match a table's capacity:
//!
//! ```
//! use flowlut::{BaselineKind, FlowStore};
//! use flowlut::core::{HashCamTable, SimConfig, TableConfig};
//! use flowlut::ddr3::{Ddr3Params, MemorySpec, TimingPreset};
//! use flowlut::engine::{EngineConfig, ShardedFlowLut};
//!
//! // The paper's functional table.
//! let table = HashCamTable::new(TableConfig::test_small());
//! assert_eq!(table.capacity(), TableConfig::test_small().capacity());
//!
//! // A 4-channel timed engine on Figure 3's DDR3-1066E part.
//! let shard = SimConfig {
//!     memory: MemorySpec::Ddr3(Ddr3Params {
//!         timing: TimingPreset::Ddr3_1066E.params(),
//!         ..Ddr3Params::default()
//!     }),
//!     table: TableConfig::test_small(),
//!     ..SimConfig::default()
//! };
//! let config = EngineConfig { shard, ..EngineConfig::prototype(4) };
//! config.validate()?;
//! let engine = ShardedFlowLut::new(config);
//! assert_eq!(engine.capacity(), 4 * TableConfig::test_small().capacity());
//!
//! // A related-work comparator at matched capacity.
//! let cuckoo = BaselineKind::Cuckoo.build(&TableConfig::test_small());
//! assert_eq!(cuckoo.name(), "cuckoo");
//! # Ok::<(), flowlut::core::ConfigError>(())
//! ```
//!
//! [`backends`] builds the whole comparison set at one table's
//! capacity, behind `Box<dyn FlowStore>`.

use flowlut_baselines::BaselineKind;
use flowlut_core::backend::FlowStore;
use flowlut_core::{FlowLutSim, HashCamTable, SimConfig};
use flowlut_engine::{EngineConfig, ShardedFlowLut};

/// Every backend in the workspace at `sim.table`'s capacity: the
/// functional table, the single-channel prototype, a 2-shard engine
/// (each shard `sim`), then each of [`BaselineKind::ALL`].
///
/// # Panics
///
/// Panics if `sim` is invalid (see [`SimConfig::validate`]).
pub fn backends(sim: SimConfig) -> Vec<Box<dyn FlowStore>> {
    let table = sim.table;
    let mut set: Vec<Box<dyn FlowStore>> = vec![
        Box::new(HashCamTable::new(table)),
        Box::new(FlowLutSim::new(sim.clone())),
        Box::new(ShardedFlowLut::new(EngineConfig {
            shard: sim,
            ..EngineConfig::prototype(2)
        })),
    ];
    set.extend(BaselineKind::ALL.map(|kind| kind.build(&table)));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_core::backend::Session;
    use flowlut_core::TableConfig;
    use flowlut_ddr3::{DramParams, MemorySpec};
    use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
    use std::panic::catch_unwind;

    /// The message of the panic `f` raises.
    fn panic_message<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(f).err().expect("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message is a String")
    }

    #[test]
    fn builds_every_backend_kind() {
        let small = TableConfig::test_small();
        let set = backends(SimConfig::test_small());
        let names: Vec<&str> = set.iter().map(|b| b.name()).collect();
        assert_eq!(
            names[..3],
            ["hashcam (this paper)", "hashcam-sim", "hashcam-sharded"]
        );
        assert_eq!(set.len(), 3 + BaselineKind::ALL.len());
        assert_eq!(set[0].capacity(), small.capacity());
        assert_eq!(set[1].capacity(), small.capacity());
        assert_eq!(set[2].capacity(), 2 * small.capacity());
        for (b, kind) in set[3..].iter().zip(BaselineKind::ALL) {
            assert_eq!(b.name(), kind.build(&small).name());
        }
    }

    #[test]
    fn timed_backends_expose_pipelines() {
        for (i, b) in backends(SimConfig::test_small()).iter_mut().enumerate() {
            assert_eq!(b.as_pipeline().is_some(), i == 1 || i == 2, "{}", b.name());
        }
    }

    #[test]
    fn memory_kind_selects_the_model() {
        let keys = (0..64).map(|i| FlowKey::from(FiveTuple::from_index(i)));
        let descs = PacketDescriptor::sequence(keys);
        let mut periods = Vec::new();
        for spec in MemorySpec::defaults() {
            let sim = SimConfig {
                memory: spec,
                ..SimConfig::test_small()
            };
            for b in &mut backends(sim) {
                let Some(pipe) = b.as_pipeline() else {
                    continue;
                };
                assert_eq!(pipe.sys_period_ns(), 1000.0 / spec.sys_clock_mhz());
                let report = Session::new(pipe).run(&descs).unwrap();
                assert_eq!(report.completed, 64, "{} on {}", b.name(), spec.name());
            }
            periods.push(1000.0 / spec.sys_clock_mhz());
        }
        periods.dedup();
        assert!(periods.len() > 1, "every default spec ran at one clock");
    }

    #[test]
    fn invalid_memory_spec_surfaces_as_config_error() {
        let mut p = DramParams::ddr4_2400();
        p.t_ccd_l = 0;
        let sim = SimConfig {
            memory: MemorySpec::Ddr4(p),
            ..SimConfig::test_small()
        };
        let err = sim.validate().unwrap_err();
        let engine = EngineConfig {
            shard: sim.clone(),
            ..EngineConfig::prototype(2)
        };
        assert_eq!(engine.validate(), Err(err.clone()));
        let msg = panic_message(|| backends(sim));
        assert!(msg.contains(&err.reason), "{msg}");
    }

    #[test]
    fn zero_shards_rejected() {
        let cfg = EngineConfig {
            shards: 0,
            ..EngineConfig::prototype(2)
        };
        let err = cfg.validate().unwrap_err();
        let msg = panic_message(|| ShardedFlowLut::new(cfg));
        assert!(msg.contains(&err.reason), "{msg}");
    }
}
