//! The generation-barrier worker pool behind
//! [`ExecutionMode::Threaded`](crate::ExecutionMode::Threaded).
//!
//! The pool is deliberately *generic over the per-round work* (each
//! worker owns a `FnMut(now_sys, draining)` closure): the engine hands
//! it lane-stepping closures, while the `cfg(flowlut_model)` test suite
//! hands it observation closures and explores the full coordination
//! protocol under the loomlite model checker. Every synchronization
//! primitive comes from the [`flowlut_core::sync`] facade, so the exact
//! code below — not a simplified replica — is what the model suite
//! verifies (no deadlock, no lost wakeup, generation monotonicity,
//! panic-poison propagation) at bounded preemptions.
//!
//! ## Protocol
//!
//! The coordinator (the caller of [`WorkerPool::start_round`], executor
//! 0) publishes a round by storing its parameters and bumping `gen`;
//! each worker steps its share of the work and bumps `arrived`; the
//! coordinator waits in [`WorkerPool::finish_round`] for all arrivals.
//! Both sides spin briefly, then yield, then park on the shared condvar
//! — so an idle engine costs no CPU while an active one synchronizes in
//! nanoseconds on multicore hosts.
//!
//! ## Memory-ordering audit
//!
//! Every atomic access carries an `// ordering:` justification
//! (enforced by `cargo xtask lint`). The load-bearing facts, proven by
//! the model suite (`crates/engine/tests/model_barrier.rs` — seeded
//! weaker-ordering mutants of this protocol are caught):
//!
//! * `gen`↔`sleepers` and `arrived`↔`coordinator_parked` are Dekker
//!   (store→load) pairs guarding the park/unpark handshake; they need
//!   the SeqCst total order, and stay `SeqCst`.
//! * `now_sys`/`draining`/`shutdown`/the `arrived` reset ride the
//!   release→acquire edge of the `gen` bump, and are `Relaxed`.
//! * `poisoned` is Release/Acquire: the unlocked fast-path check wants
//!   a real edge, while the parked path re-checks under the mutex.

use flowlut_core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use flowlut_core::sync::thread::JoinHandle;
use flowlut_core::sync::{hint, thread, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Bounded busy-wait before yielding the CPU: cheap cross-core latency
/// on multicore hosts. Zero under the model checker (and on single-core
/// hosts), where every spin iteration only delays the thread that would
/// make progress.
#[cfg(not(flowlut_model))]
const SPIN_ROUNDS: u32 = 1_024;
/// Yields before parking on the condvar: keeps oversubscribed hosts
/// making progress without burning a scheduling quantum.
#[cfg(not(flowlut_model))]
const YIELD_ROUNDS: u32 = 64;

/// Under the model checker both budgets are zero: waits go straight to
/// the parked (condvar) path, which is the path whose lost-wakeup
/// freedom actually needs proving — and the only one whose exploration
/// is bounded.
#[cfg(flowlut_model)]
const SPIN_ROUNDS: u32 = 0;
#[cfg(flowlut_model)]
const YIELD_ROUNDS: u32 = 0;

/// Locks the park mutex, recovering from std-level poisoning: it guards
/// no data (`()`), and the pool's own `poisoned` flag is the authority
/// on worker panics — a panicking worker must still be able to wake a
/// parked coordinator.
fn park_lock(park: &Mutex<()>) -> MutexGuard<'_, ()> {
    park.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Coordination state of the worker pool: a hand-rolled generation
/// barrier (see the module docs for the protocol and ordering audit).
#[derive(Debug)]
pub struct PoolShared {
    /// Round generation; bumped to start a round.
    gen: AtomicU64,
    /// Engine cycle for the current round, published before `gen`.
    now_sys: AtomicU64,
    /// Whether the engine is draining in the current round.
    draining: AtomicBool,
    /// Workers that have finished the current round.
    arrived: AtomicUsize,
    /// Tells workers to exit at the next generation.
    shutdown: AtomicBool,
    /// Set when a worker thread panics, so the coordinator's barrier
    /// wait fails fast instead of hanging.
    poisoned: AtomicBool,
    /// Workers currently parked on `wake` awaiting a generation.
    sleepers: AtomicUsize,
    /// Coordinator parked on `wake` awaiting arrivals.
    coordinator_parked: AtomicBool,
    /// Busy-wait budget before yielding ([`SPIN_ROUNDS`] on multicore
    /// hosts, `0` on single-core ones).
    spin_rounds: u32,
    park: Mutex<()>,
    wake: Condvar,
}

impl PoolShared {
    /// Worker-side wait for a generation newer than `seen`; returns the
    /// observed generation.
    fn wait_for_round(&self, seen: u64) -> u64 {
        for _ in 0..self.spin_rounds {
            // ordering: optimistic fast path; on a hit, the SeqCst load
            // pairs with the SeqCst bump and carries the round data.
            let g = self.gen.load(Ordering::SeqCst);
            if g != seen {
                return g;
            }
            hint::spin_loop();
        }
        for _ in 0..YIELD_ROUNDS {
            // ordering: same as the spin phase above.
            let g = self.gen.load(Ordering::SeqCst);
            if g != seen {
                return g;
            }
            thread::yield_now();
        }
        // Park. The sleeper count is registered *before* re-checking the
        // generation, and the coordinator bumps `gen` before reading
        // `sleepers`: a Dekker (store→load) pair. The SeqCst total order
        // guarantees at least one side sees the other — either this
        // thread sees the new generation below, or the coordinator sees
        // the sleeper and notifies under the park lock. A wake cannot be
        // lost (proven by the model suite: the seeded Release/Acquire
        // mutant of this pair deadlocks under loomlite).
        // ordering: Dekker store half, paired with gen.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = park_lock(&self.park);
        loop {
            // ordering: Dekker load half, paired with the sleepers
            // registration above; also the acquire edge for round data.
            let g = self.gen.load(Ordering::SeqCst);
            if g != seen {
                // ordering: only gates redundant notifies; a stale
                // positive count merely costs the coordinator a
                // harmless lock+notify.
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
                return g;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Coordinator-side round start: publishes the cycle parameters and
    /// releases the workers.
    fn start_round(&self, now_sys: u64, draining: bool) {
        // ordering: workers of the previous round have all arrived
        // (finish_round returned), so only the coordinator touches
        // `arrived` here; the gen bump below publishes the reset.
        self.arrived.store(0, Ordering::Relaxed);
        // ordering: round data rides the release edge of the gen bump.
        self.now_sys.store(now_sys, Ordering::Relaxed);
        // ordering: same as now_sys.
        self.draining.store(draining, Ordering::Relaxed);
        // ordering: SeqCst for the Dekker pair with `sleepers` (see
        // wait_for_round); the RMW's release half publishes the three
        // stores above to whoever acquires the new generation.
        self.gen.fetch_add(1, Ordering::SeqCst);
        // ordering: Dekker load half, paired with a worker's sleeper
        // registration.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = park_lock(&self.park);
            self.wake.notify_all();
        }
    }

    /// Coordinator-side barrier: waits until all `workers` have stepped
    /// their share of the current round.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (its share of the work is
    /// lost).
    fn finish_round(&self, workers: usize) {
        let mut spins = 0u32;
        loop {
            // ordering: pairs with the sentinel's Release store; only
            // the flag value matters (the panic is the payload).
            if self.poisoned.load(Ordering::Acquire) {
                panic!("engine worker thread panicked mid-cycle");
            }
            // ordering: optimistic fast path; the authoritative check
            // is the SeqCst load in the parked loop below.
            if self.arrived.load(Ordering::Acquire) == workers {
                return;
            }
            spins += 1;
            if spins < self.spin_rounds {
                hint::spin_loop();
                continue;
            }
            if spins < self.spin_rounds + YIELD_ROUNDS {
                thread::yield_now();
                continue;
            }
            // Park until the last worker arrives. `coordinator_parked`
            // is registered *before* re-checking `arrived`, and each
            // worker bumps `arrived` before reading the flag: the
            // second Dekker pair (again proven lost-wakeup-free by the
            // model suite).
            // ordering: Dekker store half, paired with arrived.
            self.coordinator_parked.store(true, Ordering::SeqCst);
            {
                let mut guard = park_lock(&self.park);
                loop {
                    // ordering: re-check under the lock; pairs with
                    // the sentinel's store + notify-under-lock.
                    if self.poisoned.load(Ordering::Acquire) {
                        panic!("engine worker thread panicked mid-cycle");
                    }
                    // ordering: Dekker load half, paired with a
                    // worker's arrival bump.
                    if self.arrived.load(Ordering::SeqCst) == workers {
                        break;
                    }
                    guard = self
                        .wake
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            // ordering: a stale `true` only costs a worker a harmless
            // lock+notify on some later round.
            self.coordinator_parked.store(false, Ordering::Relaxed);
            return;
        }
    }

    /// Worker-side arrival: reports this worker's round as done and
    /// wakes the coordinator if it is parked.
    fn arrive(&self) {
        // ordering: Dekker store half, paired with coordinator_parked;
        // the SeqCst RMW also keeps concurrent arrivals lossless.
        self.arrived.fetch_add(1, Ordering::SeqCst);
        // ordering: Dekker load half, paired with the coordinator's
        // parked registration.
        if self.coordinator_parked.load(Ordering::SeqCst) {
            let _guard = park_lock(&self.park);
            self.wake.notify_all();
        }
    }
}

/// Flags the pool as poisoned if its worker unwinds, so the coordinator
/// panics at the barrier instead of waiting forever.
struct PanicSentinel(Arc<PoolShared>);

impl Drop for PanicSentinel {
    fn drop(&mut self) {
        if thread::panicking() {
            // ordering: publish the flag before the wakeup; the
            // coordinator's Acquire load pairs with it.
            self.0.poisoned.store(true, Ordering::Release);
            // Wake a parked coordinator unconditionally: notify happens
            // under the same lock as its re-check, so the panic cannot
            // slip between check and wait.
            let _guard = park_lock(&self.0.park);
            self.0.wake.notify_all();
        }
    }
}

/// The long-lived worker threads of
/// [`ExecutionMode::Threaded`](crate::ExecutionMode::Threaded), plus
/// their shared generation barrier. Dropping the pool shuts the workers
/// down and joins them — including workers parked mid-wait (the
/// shutdown generation bump follows the same Dekker-paired wake
/// protocol as a normal round).
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one thread per element of `workers`; worker `e` runs
    /// closure `e` once per round with that round's `(now_sys,
    /// draining)`. The coordinator (the caller of
    /// [`WorkerPool::start_round`]) is *not* part of `workers` — it
    /// participates by doing its own share between `start_round` and
    /// `finish_round`.
    pub fn spawn<W>(workers: Vec<W>) -> WorkerPool
    where
        W: FnMut(u64, bool) + Send + 'static,
    {
        let multicore = thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let shared = Arc::new(PoolShared {
            gen: AtomicU64::new(0),
            now_sys: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            arrived: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            coordinator_parked: AtomicBool::new(false),
            spin_rounds: if multicore { SPIN_ROUNDS } else { 0 },
            park: Mutex::new(()),
            wake: Condvar::new(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(e, mut work)| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("flowlut-shard-{}", e + 1))
                    .spawn(move || {
                        let _sentinel = PanicSentinel(Arc::clone(&shared));
                        let mut seen = 0u64;
                        loop {
                            seen = shared.wait_for_round(seen);
                            // ordering: set before the gen bump that
                            // published this generation; the SeqCst gen
                            // read is the acquire edge.
                            if shared.shutdown.load(Ordering::Relaxed) {
                                return;
                            }
                            // ordering: published before the gen bump;
                            // the gen edge makes this round's value the
                            // only readable one.
                            let now_sys = shared.now_sys.load(Ordering::Relaxed);
                            // ordering: same as now_sys.
                            let draining = shared.draining.load(Ordering::Relaxed);
                            work(now_sys, draining);
                            shared.arrive();
                        }
                    })
                    .expect("spawn engine worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Starts a round: every worker runs its closure once with these
    /// parameters. The caller should do its own share of the work, then
    /// call [`WorkerPool::finish_round`].
    pub fn start_round(&self, now_sys: u64, draining: bool) {
        self.shared.start_round(now_sys, draining);
    }

    /// Waits until every worker has finished the round started by the
    /// last [`WorkerPool::start_round`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn finish_round(&self) {
        self.shared.finish_round(self.handles.len());
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // ordering: rides the release edge of the shutdown generation
        // bump below, exactly like round data.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // ordering: same SeqCst Dekker bump as start_round — parked
        // workers are woken through the identical protocol.
        self.shared.gen.fetch_add(1, Ordering::SeqCst);
        // ordering: Dekker load half, paired with sleeper registration.
        if self.shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = park_lock(&self.shared.park);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on a helper thread and fails the test — instead of
    /// wedging the whole suite — if it does not finish in time. Any
    /// lost-wakeup or shutdown hang in the pool trips this, diagnosably.
    fn with_watchdog<F: FnOnce() + Send + 'static>(f: F) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("worker pool operation hung (or panicked)");
    }

    #[test]
    fn rounds_deliver_params_to_every_worker_in_order() {
        with_watchdog(|| {
            let log = std::sync::Arc::new(std::sync::Mutex::new(vec![Vec::new(); 2]));
            let workers: Vec<_> = (0..2)
                .map(|i| {
                    let log = std::sync::Arc::clone(&log);
                    move |now_sys: u64, draining: bool| {
                        log.lock().unwrap()[i].push((now_sys, draining));
                    }
                })
                .collect();
            let pool = WorkerPool::spawn(workers);
            assert_eq!(pool.handles.len(), 2);
            for r in 1..=3u64 {
                pool.start_round(r, r == 3);
                pool.finish_round();
            }
            drop(pool);
            let expect = vec![(1, false), (2, false), (3, true)];
            for seen in log.lock().unwrap().iter() {
                assert_eq!(*seen, expect);
            }
        });
    }

    #[test]
    fn drop_joins_parked_workers() {
        with_watchdog(|| {
            let pool = WorkerPool::spawn(vec![|_: u64, _: bool| {}; 3]);
            // Give the workers time to burn their spin/yield budgets and
            // park on the condvar, so Drop exercises the wakeup path.
            std::thread::sleep(Duration::from_millis(20));
            drop(pool);
        });
    }

    #[test]
    fn drop_mid_round_does_not_hang() {
        with_watchdog(|| {
            let pool = WorkerPool::spawn(vec![|_: u64, _: bool| {}; 2]);
            // Round started but never awaited: Drop's shutdown
            // generation must still reach both workers.
            pool.start_round(1, false);
            drop(pool);
        });
    }

    #[test]
    fn worker_panic_poisons_finish_round() {
        with_watchdog(|| {
            let pool = WorkerPool::spawn(vec![|_: u64, _: bool| panic!("lane exploded")]);
            pool.start_round(1, false);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.finish_round();
            }))
            .expect_err("finish_round must surface the worker panic");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or_default()
                .to_string();
            assert!(
                msg.contains("worker thread panicked"),
                "unexpected panic: {msg}"
            );
            drop(pool);
        });
    }
}
