//! # flowlut-traffic — packet descriptors, workloads and line-rate math
//!
//! Everything the flow-table experiments feed on lives here:
//!
//! * [`FiveTuple`] / [`FlowKey`]: the n-tuple flow identity extracted from
//!   packet headers (the paper's "packet descriptor with n tuples").
//! * [`PacketDescriptor`]: one lookup request, optionally carrying a
//!   pre-computed hash pair — Table II(A) drives the sequencer with raw
//!   *hash patterns* rather than real tuples, so descriptors can override
//!   the hash stage.
//! * [`workloads`]: generators for the paper's tests — the match-rate
//!   sweep of Table II(B) and the hash patterns of Table II(A).
//! * [`generators`]: scenario building-block generators — elephant/mice
//!   mixes, flow churn at controlled birth/death rates, and burst trains
//!   (the realistic half of the `flowlut-scenarios` matrix).
//! * [`fabric`]: a synthetic stand-in for the 2012 European switch-fabric
//!   trace behind Figure 6, calibrated so the new-flow ratio matches the
//!   paper's anchor points (57 % at 1 k packets, ≈34 % at 10 k, <10 % at
//!   large windows). See DESIGN.md for the substitution rationale.
//! * [`linerate`]: Layer-1 Ethernet arithmetic reproducing the discussion
//!   section's 59.52 / 68.49 Mpps requirements for 40 GbE.
//!
//! ## Example
//!
//! ```
//! use flowlut_traffic::{FiveTuple, FlowKey};
//!
//! let t = FiveTuple::new([10, 0, 0, 1], [192, 168, 1, 1], 443, 51234, 6);
//! let key = FlowKey::from(t);
//! assert_eq!(key.as_bytes().len(), 13);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod descriptor;
pub mod fabric;
pub mod generators;
mod key;
pub mod linerate;
pub mod workloads;

pub use descriptor::PacketDescriptor;
pub use key::{FiveTuple, FlowKey, KeyTooLongError, MAX_KEY_BYTES};
