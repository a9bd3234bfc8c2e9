//! # flowlut — memory-efficient flow processing on simulated DDR3 SDRAM
//!
//! A full reproduction of *"A Hardware Acceleration Scheme for
//! Memory-Efficient Flow Processing"* (Xin Yang, Sakir Sezer, Shane
//! O'Neill — IEEE SOCC 2014): a network-flow lookup table that reaches
//! 40 GbE-class lookup rates out of commodity DDR3 SDRAM via two-choice
//! Hash-CAM hashing, a dual-path lookup pipeline with early exit, bank
//! aware request scheduling, and burst-grouped updates.
//!
//! The whole workspace speaks one API: every structure — the functional
//! table, the cycle-stepped prototype, the sharded engine, and every
//! related-work baseline — implements the object-safe [`FlowStore`]
//! trait (plus [`FlowPipeline`] for the timed ones, reached through
//! [`FlowStore::as_pipeline`]), is built by its own constructor, and
//! reports runs in one [`RunReport`] shape via the typed [`Session`]
//! handle. [`backends`] builds all nine at matched capacity.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the paper's contribution: the functional
//!   [`HashCamTable`](core::HashCamTable) and the cycle-stepped
//!   [`FlowLutSim`](core::FlowLutSim);
//! * [`ddr3`] — the DDR3 device + controller timing model;
//! * [`cam`] — the exact-match CAM model;
//! * [`hash`] — the H3 hardware hash pair;
//! * [`traffic`] — flow keys, workloads, the synthetic
//!   fabric trace, and Ethernet line-rate arithmetic;
//! * [`baselines`] — related-work comparators;
//! * [`analyzer`] — the Figure 7 real-time traffic
//!   analyzer (packet buffer + event engine + stats engine);
//! * [`engine`] — the multi-channel sharded engine: N complete
//!   prototypes behind a hash-based shard router, stepped in lockstep —
//!   the scale-out path past a single channel's ≈44 Mdesc/s saturation;
//! * [`service`] — the long-running flow service: the engine behind a
//!   bounded multi-producer ingest queue with blocking backpressure,
//!   plus checkpoint/restore warm restart and online N→2N rescale;
//! * [`scenarios`] — declarative workload scenarios: specs built in code
//!   composing Zipf, elephant/mice, churn, burst and adversarial
//!   collision stages, executed against any backend by one generic
//!   [`ScenarioRunner`].
//!
//! ## Quick start
//!
//! Build a backend with its constructor; the functional [`FlowStore`]
//! verbs work on all of them:
//!
//! ```
//! use flowlut::FlowStore;
//! use flowlut::core::{HashCamTable, TableConfig};
//! use flowlut::traffic::{FiveTuple, FlowKey};
//!
//! let mut table = HashCamTable::new(TableConfig::test_small());
//! let store: &mut dyn FlowStore = &mut table;
//! let key = FlowKey::from(FiveTuple::new([10, 0, 0, 1], [10, 0, 0, 2], 80, 443, 6));
//! assert!(store.insert(key)?, "new flow");
//! assert!(store.contains(&key));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Timed backends additionally stream descriptors through a typed,
//! paced [`Session`] (`push`/`tick`/`poll`/`events`/`drain` by hand, or
//! [`Session::run`] for the whole batch). The engine offers each shard
//! its own rate, so two shards run at twice the channel's rate:
//!
//! ```
//! use flowlut::Session;
//! use flowlut::core::SimConfig;
//! use flowlut::engine::{EngineConfig, ShardedFlowLut};
//! use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut engine = ShardedFlowLut::new(EngineConfig {
//!     shard: SimConfig::test_small(),
//!     ..EngineConfig::prototype(2)
//! });
//! let descs: Vec<PacketDescriptor> =
//!     PacketDescriptor::sequence((0..200).map(|i| FlowKey::from(FiveTuple::from_index(i))));
//! let report = Session::new(&mut engine).run(&descs)?;
//! assert_eq!(report.completed, 200);
//! println!("{} ch x {:.1} Mdesc/s", report.channels, report.mdesc_per_s);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`backends`] builds every backend at one table's capacity, for
//! loops that compare them through `Box<dyn FlowStore>`:
//!
//! ```
//! use flowlut::core::SimConfig;
//!
//! for mut backend in flowlut::backends(SimConfig::test_small()) {
//!     let timed = backend.as_pipeline().is_some();
//!     println!("{} (timed: {timed})", backend.name());
//! }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;

pub use builder::backends;
pub use flowlut_baselines::BaselineKind;
pub use flowlut_core::backend::{
    FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats, RunReport, Session,
    SessionError, SessionProgress,
};
pub use flowlut_core::{CheckpointError, ExpiryPolicy, PressurePolicy, RescaleError};
pub use flowlut_scenarios::{Scenario, ScenarioReport, ScenarioRunner, StageSpec};

pub use flowlut_analyzer as analyzer;
pub use flowlut_baselines as baselines;
pub use flowlut_cam as cam;
pub use flowlut_core as core;
pub use flowlut_ddr3 as ddr3;
pub use flowlut_engine as engine;
pub use flowlut_hash as hash;
pub use flowlut_scenarios as scenarios;
pub use flowlut_service as service;
pub use flowlut_traffic as traffic;
