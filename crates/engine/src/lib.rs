//! # flowlut-engine — the multi-channel sharded flow-LUT engine
//!
//! The paper's prototype saturates a single pair of DDR3 channels at
//! ≈44 Mdesc/s — enough for 40 GbE, short of anything heavier. This
//! crate composes the whole workspace into the system real deployments
//! build next: **N complete prototypes** (each a dual-path
//! [`FlowLutSim`](flowlut_core::FlowLutSim) over two DDR3 memories)
//! behind a **hash-based shard router**, stepped in lockstep on one
//! system clock.
//!
//! * [`ShardRouter`] — a pure function of the flow key: every packet of
//!   a flow reaches the same channel, so the paper's per-flow ordering
//!   invariant holds system-wide. The router's hash family is
//!   deliberately unrelated to the tables' H3 bucket hashes (see
//!   `router` docs and DESIGN.md §Multi-channel scaling).
//! * [`ShardedFlowLut`] — the engine: an aggregate-rate splitter stages
//!   descriptors per shard and hands them to each channel's sequencer in
//!   batches, preserving the paper's burst-grouping within each channel.
//!   A run reports one [`RunReport`](flowlut_core::RunReport) with
//!   occupancy, throughput and latency merged across shards;
//!   [`ShardedFlowLut::snapshot`] returns an [`EngineSnapshot`] with
//!   each shard's counters, the splitter's stalls and the shard
//!   imbalance.
//! * [`ExecutionMode`] — inline or threaded shard stepping: because
//!   shards share no state, `Threaded(n)` spreads the per-cycle shard
//!   work across a persistent worker pool with **bit-identical**
//!   reports (pinned by the parallel-equivalence proptest), converting
//!   simulated channel parallelism into real host-CPU parallelism. The
//!   pool's per-cycle barrier parks idle workers on std's thread park
//!   tokens (DESIGN.md §Parallel execution).
//!
//! ## Quick start
//!
//! ```
//! use flowlut_core::FlowPipeline;
//! use flowlut_engine::{EngineConfig, ShardedFlowLut};
//! use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
//! let descs: Vec<PacketDescriptor> = (0..200)
//!     .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
//!     .collect();
//! let report = engine.start_run().run(&descs)?;
//! assert_eq!(report.completed, 200);
//! println!("{} shards: {:.2} Mdesc/s", report.channels, report.mdesc_per_s);
//! println!("imbalance {:.2}", engine.snapshot().imbalance());
//! # Ok::<(), flowlut_core::SessionError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod pool;
mod router;

pub use config::{EngineConfig, ExecutionMode};
pub use engine::{EngineSnapshot, RescaleReport, ShardRef, ShardedFlowLut};
pub use router::ShardRouter;
