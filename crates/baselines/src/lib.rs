//! # flowlut-baselines — related-work flow tables
//!
//! The paper positions its DDR3 Hash-CAM scheme against the hash-table
//! families of its related-work section. This crate implements each of
//! them behind the workspace-wide
//! [`FlowStore`](flowlut_core::backend::FlowStore) trait, instrumented
//! with **memory-probe counters** ([`OpStats`]) — the metric that
//! decides DDR3 suitability, because every bucket probe is a DRAM burst
//! with row-cycle and turnaround cost:
//!
//! * [`SingleHashTable`] — one hash function, K-entry buckets (the
//!   "conventional single hash methods" with higher collision rates);
//! * [`DLeftTable`] — multi-choice / balanced-allocations hashing
//!   (Azar et al., the paper's reference \[6\]);
//! * [`CuckooTable`] — two-function cuckoo hashing with kick-out
//!   insertion (Thinh et al., \[7\]): O(1) lookups but nondeterministic
//!   build time, which the paper calls out as its drawback;
//! * [`OneMoveTable`] — Kirsch & Mitzenmacher's single-move multiple-
//!   choice table with a small overflow CAM (\[9\]);
//! * [`BloomCamTable`] — Li's collision-free hash via Bloom-filter
//!   occupancy summary plus CAM (\[8\]);
//! * [`SimultaneousHashCam`] — the *conventional* Hash-CAM that queries
//!   the CAM and both hash memories at once: the ablation baseline for
//!   the paper's early-exit pipeline (it always pays two memory reads
//!   per lookup).
//!
//! Every table here implements [`FlowStore`](flowlut_core::backend::FlowStore)
//! (upsert `insert`: a resident key costs one membership probe and
//! reports `Ok(false)`), so one `Box<dyn FlowStore>` registry can hold
//! these baselines next to the paper's table and the timed simulators —
//! see `examples/baseline_comparison.rs`. [`BaselineKind::build`] sizes
//! each to a Hash-CAM table's capacity.
//!
//! ## Example
//!
//! ```
//! use flowlut_baselines::CuckooTable;
//! use flowlut_core::FlowStore;
//! use flowlut_traffic::{FiveTuple, FlowKey};
//!
//! let mut t = CuckooTable::new(1024, 4, 500, 7);
//! let key = FlowKey::from(FiveTuple::from_index(1));
//! assert!(t.insert(key)?, "a new key");
//! assert!(t.contains(&key));
//! println!("{} probes so far", t.op_stats().mem_reads);
//! # Ok::<(), flowlut_baselines::FullError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bloom_cam;
mod cuckoo;
mod dleft;
mod kind;
mod one_move;
mod simul;
mod single;
mod traits;

pub use bloom_cam::BloomCamTable;
pub use cuckoo::CuckooTable;
pub use dleft::DLeftTable;
pub use kind::BaselineKind;
pub use one_move::OneMoveTable;
pub use simul::SimultaneousHashCam;
pub use single::SingleHashTable;
pub use traits::{FullError, OpStats};
