//! # flowlut-scenarios — declarative adversarial + realistic workloads
//!
//! The scenario matrix layer: a declarative [`Scenario`] spec, built in
//! code, composed of generator stages — Zipf-skewed flow popularity, elephant/mice mixes, flow churn
//! at controlled birth/death rates, burst trains/microbursts, and an
//! adversarial collision stage ([`CollisionMiner`]) that mines keys
//! colliding under the Hash-CAM's H3 bucket functions to force the CAM
//! overflow path (a SYN-flood analogue).
//!
//! One generic [`ScenarioRunner`] executes any scenario against any
//! `dyn FlowStore` — the paper's functional table, the cycle-stepped
//! prototype, the sharded engine, and every related-work baseline —
//! through the typed `Session` API, recording throughput,
//! drop/overflow/expiry rates and CAM high-water occupancy into a
//! [`ScenarioReport`]. Generated streams are plain
//! `flowlut_traffic::PacketDescriptor` vectors, a pure function of the
//! spec, so every run is reproducible from its spec and seed.
//!
//! ```
//! use flowlut_core::HashCamTable;
//! use flowlut_core::table::TableConfig;
//! use flowlut_scenarios::{Scenario, ScenarioRunner};
//!
//! let scenario = Scenario::new("zipf-skew", 42).zipf(500, 0.98, 2_000);
//! let mut table = HashCamTable::new(TableConfig::test_small());
//! let report = ScenarioRunner::new().run(&scenario, &mut table);
//! assert_eq!(report.offered, 2_000);
//! assert!(report.drop_rate() == 0.0, "well within capacity");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversarial;
pub mod runner;
pub mod spec;

pub use adversarial::CollisionMiner;
pub use runner::{ScenarioReport, ScenarioRunner};
pub use spec::{Scenario, StageSpec};
