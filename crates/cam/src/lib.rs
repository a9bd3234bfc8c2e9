//! # flowlut-cam — content-addressable memory models
//!
//! The paper's Hash-CAM table stores hash-bucket overflow entries in a
//! small on-chip CAM that is searched in the *first* pipeline stage of
//! every lookup (Figure 1). This crate models that block:
//!
//! [`Cam`] is an exact-match (binary) CAM with single-cycle parallel
//! search semantics, priority encoding (lowest index wins), and a
//! hardware style free-list allocator. The flow table
//! sizes this block and reports it in the Table I resource model.
//!
//! It is a cycle-free data structure: latency modelling (one
//! system-clock cycle per search) is handled by the simulator in
//! `flowlut-core`, which simply accounts a constant per search.
//!
//! ## Example
//!
//! ```
//! use flowlut_cam::Cam;
//!
//! let mut cam: Cam<u64> = Cam::new(4);
//! let slot = cam.insert(0xDEAD_BEEF).unwrap();
//! assert_eq!(cam.peek(&0xDEAD_BEEF), Some(slot));
//! assert_eq!(cam.peek(&0x0BAD_F00D), None);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod binary;

pub use binary::{Cam, CamFullError};
