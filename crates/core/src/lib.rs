//! # flowlut-core — the memory-efficient flow lookup table
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"A Hardware Acceleration Scheme for Memory-Efficient Flow
//! Processing"* (Yang, Sezer & O'Neill, IEEE SOCC 2014): a flow lookup
//! table that reaches 40 GbE-class lookup rates out of commodity DDR3
//! SDRAM by combining
//!
//! 1. a **two-choice Hash-CAM table** split over two independent
//!    memories, with bucket overflow in a small on-chip CAM and a
//!    three-stage early-exit lookup pipeline ([`table::HashCamTable`]);
//! 2. a **dual-path lookup architecture** with load balancing, per-bank
//!    request reordering (DLU), RAW-hazard filtering, and burst-grouped
//!    update writes ([`sim::FlowLutSim`], cycle-accurate against the
//!    [`flowlut_ddr3`] memory model);
//! 3. **flow-state housekeeping**, which "periodically checks and removes
//!    timeout flow entries" to keep the table absorbing new ones: the
//!    amortized idle-TTL scan of [`config::ExpiryPolicy`] over the
//!    per-flow records of [`flow_state`].
//!
//! Use the functional layer if you want the data structure; use the
//! simulator if you want the paper's performance experiments.
//!
//! ## Quick start (functional layer)
//!
//! ```
//! use flowlut_core::{HashCamTable, TableConfig};
//! use flowlut_traffic::{FiveTuple, FlowKey};
//!
//! let mut table = HashCamTable::new(TableConfig::test_small());
//! let key = FlowKey::from(FiveTuple::new([10, 0, 0, 1], [10, 0, 0, 2], 80, 443, 6));
//! let (fid, created) = table.lookup_or_insert(key)?;
//! assert!(created);
//! assert_eq!(table.lookup(&key).map(|(id, _)| id), Some(fid));
//! # Ok::<(), flowlut_core::InsertError>(())
//! ```
//!
//! ## Quick start (timed simulator)
//!
//! ```
//! use flowlut_core::{FlowLutSim, FlowPipeline, SimConfig};
//! use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut sim = FlowLutSim::new(SimConfig::test_small());
//! let descs: Vec<PacketDescriptor> = (0..100)
//!     .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
//!     .collect();
//! let report = sim.start_run().run(&descs)?;
//! assert_eq!(report.completed, 100);
//! println!("{:.2} Mdesc/s", report.mdesc_per_s);
//! # Ok::<(), flowlut_core::SessionError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod error;
pub mod fid;
pub mod flow_state;
pub mod multipath;
pub mod resource;
pub mod sim;
mod storage;
pub mod table;

pub use backend::{
    FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats, RunReport, Session,
    SessionError, SessionProgress,
};
pub use checkpoint::CheckpointError;
pub use config::{ExpiryPolicy, LoadBalancerPolicy, PressurePolicy, SimConfig};
pub use error::{ConfigError, DeleteQueueFull, InsertError, PreloadError, RescaleError};
pub use fid::{FlowId, Location, PathId};
pub use flow_state::FlowRecord;
pub use multipath::{MultiHashConfig, MultiHashStats, MultiHashTable, MultiLocation};
pub use resource::ResourceEstimate;
pub use sim::{FlowLutSim, SimStats};
pub use table::{HashCamTable, LookupStage, Occupancy, TableConfig, TableStats};
