//! The std ⇄ loomlite synchronization facade.
//!
//! Every concurrency primitive the workspace's threaded code touches is
//! imported from this module, never from `std::sync`/`std::thread`
//! directly (enforced by `cargo xtask lint`). In a normal build the
//! re-exports below *are* the `std` items — same types, same codegen,
//! zero cost. Building with `RUSTFLAGS="--cfg flowlut_model"` swaps
//! them for the [`loomlite`] model checker's versions, so the same
//! source — the engine's worker-pool barrier in particular — can be
//! explored exhaustively over bounded thread interleavings and weak
//! memory behaviors by `loomlite::model`.
//!
//! Run the model suite with:
//!
//! ```text
//! RUSTFLAGS="--cfg flowlut_model" cargo test -p flowlut-engine --test model_barrier --release
//! ```
//!
//! `Arc` is always `std`'s (reference counting has no model-visible
//! behavior), and [`thread::panicking`] is always `std`'s (loomlite
//! threads are real OS threads). So is [`thread::scope`]: the engine
//! uses it only to restore shards on host cores, a fork-join of
//! independent work that no model explores.

/// Atomic types and memory orderings.
pub mod atomic {
    #[cfg(not(flowlut_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(flowlut_model)]
    pub use loomlite::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Threading: spawn/join, scoped fork-join, yields and host-parallelism
/// discovery.
pub mod thread {
    #[cfg(not(flowlut_model))]
    pub use std::thread::{available_parallelism, spawn, yield_now, Builder, JoinHandle};

    #[cfg(flowlut_model)]
    pub use loomlite::thread::{available_parallelism, spawn, yield_now, Builder, JoinHandle};

    // Real OS-thread unwind state in both builds: loomlite's logical
    // threads unwind on their own OS threads. Scoped threads are real
    // OS threads in both builds too.
    pub use std::thread::{panicking, scope};
}

/// Low-level hints (`spin_loop`).
pub mod hint {
    #[cfg(not(flowlut_model))]
    pub use std::hint::spin_loop;

    #[cfg(flowlut_model)]
    pub use loomlite::hint::spin_loop;
}

pub use std::sync::Arc;

#[cfg(not(flowlut_model))]
pub use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};

#[cfg(flowlut_model)]
pub use loomlite::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
