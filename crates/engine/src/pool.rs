//! The generation-barrier worker pool behind
//! [`ExecutionMode::Threaded`](crate::ExecutionMode::Threaded).
//!
//! The pool is generic over the per-round work: each worker owns a
//! `FnMut(now_sys, draining)` closure, which the engine fills with
//! lane-stepping and the unit tests with observation.
//!
//! ## Protocol
//!
//! The coordinator (the caller of [`WorkerPool::start_round`], executor
//! 0) publishes a round by storing its parameters, bumping `gen` and
//! unparking every worker; each worker steps its share of the work and
//! bumps `arrived`; the coordinator waits in
//! [`WorkerPool::finish_round`] for all arrivals.
//!
//! A worker waits for a generation by spinning, then yielding, then
//! parking on its std thread park token, re-reading `gen` on every
//! return from `park`. That wait cannot lose a wakeup: `unpark` on a
//! thread that is not parked leaves its token set, so the next `park`
//! returns at once, and an `unpark` synchronizes with the `park` that
//! consumes its token, so the re-read sees the bump made before it. A
//! spurious return, or a token left from an earlier round, only costs
//! one more re-read. The coordinator waits only for work already
//! running, so it spins and yields but never parks.
//!
//! ## Memory-ordering audit
//!
//! Every atomic access carries an `// ordering:` justification
//! (enforced by `cargo xtask lint`):
//!
//! * the `gen` bump is Release and a worker's `gen` read Acquire, so
//!   `now_sys`, `draining`, `shutdown` and the `arrived` reset, all
//!   stored before the bump, ride that edge and are `Relaxed`;
//! * an arrival is a Release RMW and the coordinator's `arrived` read
//!   Acquire, so the coordinator sees every worker's round as done;
//! * `poisoned` is Release/Acquire, so the coordinator's wait fails
//!   fast once a worker unwinds.

use std::hint;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Bounded busy-wait before yielding the CPU: cheap cross-core latency
/// on multicore hosts, the only hosts the engine spawns a pool on.
const SPIN_ROUNDS: u32 = 1_024;
/// Yields before a worker parks: keeps oversubscribed hosts making
/// progress without burning a scheduling quantum.
const YIELD_ROUNDS: u32 = 64;

/// Coordination state of the worker pool: a hand-rolled generation
/// barrier (see the module docs for the protocol and ordering audit).
#[derive(Debug)]
struct PoolShared {
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
}

impl PoolShared {
    /// Worker-side wait for a generation newer than `seen`; returns the
    /// observed generation.
    fn wait_for_round(&self, seen: u64) -> u64 {
        let mut waits = 0u32;
        loop {
            // ordering: pairs with the Release bump in `next_generation`;
            // carries the round data stored before it.
            let g = self.gen.load(Ordering::Acquire);
            if g != seen {
                return g;
            }
            if waits < SPIN_ROUNDS {
                hint::spin_loop();
            } else if waits < SPIN_ROUNDS + YIELD_ROUNDS {
                thread::yield_now();
            } else {
                // The bump precedes its unpark, which sets this
                // thread's token if it is not parked yet: the next
                // re-read sees the bump (see the module docs).
                thread::park();
            }
            waits = waits.saturating_add(1);
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
        let mut waits = 0u32;
        loop {
            // ordering: pairs with the sentinel's Release store; only
            // the flag value matters (the panic is the payload).
            if self.poisoned.load(Ordering::Acquire) {
                panic!("engine worker thread panicked mid-cycle");
            }
            // ordering: pairs with each worker's Release arrival, so
            // the workers' rounds happen-before the return.
            if self.arrived.load(Ordering::Acquire) == workers {
                return;
            }
            if waits < SPIN_ROUNDS {
                hint::spin_loop();
                waits += 1;
            } else {
                thread::yield_now();
            }
        }
    }
}

/// Flags the pool as poisoned if its worker unwinds, so the coordinator
/// panics at the barrier instead of waiting forever.
struct PanicSentinel(Arc<PoolShared>);

impl Drop for PanicSentinel {
    fn drop(&mut self) {
        if thread::panicking() {
            // ordering: the coordinator's Acquire load pairs with it.
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// The long-lived worker threads of
/// [`ExecutionMode::Threaded`](crate::ExecutionMode::Threaded), plus
/// their shared generation barrier. Dropping the pool shuts the workers
/// down and joins them, parked ones included: the shutdown generation
/// wakes them exactly as a round does.
#[derive(Debug)]
pub(crate) struct WorkerPool {
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
    pub(crate) fn spawn<W>(workers: Vec<W>) -> WorkerPool
    where
        W: FnMut(u64, bool) + Send + 'static,
    {
        let shared = Arc::new(PoolShared {
            gen: AtomicU64::new(0),
            now_sys: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            arrived: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
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
                            // ordering: stored before the gen bump that
                            // published this generation; the Acquire
                            // gen read is the edge.
                            if shared.shutdown.load(Ordering::Relaxed) {
                                return;
                            }
                            // ordering: same as shutdown.
                            let now_sys = shared.now_sys.load(Ordering::Relaxed);
                            // ordering: same as shutdown.
                            let draining = shared.draining.load(Ordering::Relaxed);
                            work(now_sys, draining);
                            // ordering: Release pairs with the
                            // coordinator's Acquire read in finish_round;
                            // the RMW keeps concurrent arrivals lossless.
                            shared.arrived.fetch_add(1, Ordering::Release);
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
    pub(crate) fn start_round(&self, now_sys: u64, draining: bool) {
        // ordering: every worker of the previous round has arrived
        // (finish_round returned), so only the coordinator touches
        // `arrived` here; the gen bump publishes the reset.
        self.shared.arrived.store(0, Ordering::Relaxed);
        // ordering: round data rides the release edge of the gen bump.
        self.shared.now_sys.store(now_sys, Ordering::Relaxed);
        // ordering: same as now_sys.
        self.shared.draining.store(draining, Ordering::Relaxed);
        self.next_generation();
    }

    /// Waits until every worker has finished the round started by the
    /// last [`WorkerPool::start_round`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub(crate) fn finish_round(&self) {
        self.shared.finish_round(self.handles.len());
    }

    /// Publishes a new generation, then unparks every worker.
    fn next_generation(&self) {
        // ordering: Release publishes the stores before it to every
        // worker that acquires the new generation.
        self.shared.gen.fetch_add(1, Ordering::Release);
        for handle in &self.handles {
            handle.thread().unpark();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // ordering: rides the release edge of the shutdown generation
        // bump, exactly like round data.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.next_generation();
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
        thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("worker pool operation hung (or panicked)");
    }

    /// A round as worker `.0` ran it: `(worker, now_sys, draining)`.
    type Round = (usize, u64, bool);

    /// `n` workers that each send every round they run to `tx`.
    fn reporting_workers(
        tx: &mpsc::Sender<Round>,
        n: usize,
    ) -> Vec<impl FnMut(u64, bool) + Send + 'static> {
        (0..n)
            .map(|i| {
                let tx = tx.clone();
                move |now_sys: u64, draining: bool| tx.send((i, now_sys, draining)).unwrap()
            })
            .collect()
    }

    /// The `(now_sys, draining)` rounds each of `n` workers reported,
    /// in the order it ran them.
    fn rounds_run(rx: &mpsc::Receiver<Round>, n: usize) -> Vec<Vec<(u64, bool)>> {
        let mut runs = vec![Vec::new(); n];
        for (i, now_sys, draining) in rx.try_iter() {
            runs[i].push((now_sys, draining));
        }
        runs
    }

    #[test]
    fn rounds_deliver_params_to_every_worker_in_order() {
        with_watchdog(|| {
            let (tx, rx) = mpsc::channel();
            let pool = WorkerPool::spawn(reporting_workers(&tx, 2));
            assert_eq!(pool.handles.len(), 2);
            for r in 1..=3u64 {
                pool.start_round(r, r == 3);
                pool.finish_round();
            }
            drop(pool);
            let expect = vec![(1, false), (2, false), (3, true)];
            assert_eq!(rounds_run(&rx, 2), vec![expect; 2]);
        });
    }

    #[test]
    fn parked_workers_wake_for_every_round() {
        const ROUNDS: u64 = 200;
        with_watchdog(|| {
            let (tx, rx) = mpsc::channel();
            let pool = WorkerPool::spawn(reporting_workers(&tx, 2));
            for r in 1..=ROUNDS {
                // Every tenth round starts after an idle gap long enough
                // for the workers to use up their spin and yield budgets
                // and park, so only `start_round`'s unpark wakes them.
                if r % 10 == 1 {
                    thread::sleep(Duration::from_millis(2));
                }
                pool.start_round(r, r % 3 == 0);
                pool.finish_round();
            }
            drop(pool);
            let expect: Vec<(u64, bool)> = (1..=ROUNDS).map(|r| (r, r % 3 == 0)).collect();
            assert_eq!(rounds_run(&rx, 2), vec![expect; 2]);
        });
    }

    #[test]
    fn drop_joins_parked_workers() {
        with_watchdog(|| {
            let pool = WorkerPool::spawn(vec![|_: u64, _: bool| {}; 3]);
            // Give the workers time to burn their spin/yield budgets and
            // park, so Drop exercises the wakeup path.
            thread::sleep(Duration::from_millis(20));
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
