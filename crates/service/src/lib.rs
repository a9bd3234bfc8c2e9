//! # flowlut-service — the long-running flow service layer
//!
//! The engine crates answer "how fast does one batch go?"; this crate
//! wraps the sharded [`ShardedFlowLut`] engine in the shape a deployment
//! actually runs: a **multi-producer bounded-queue ingest front** with
//! blocking backpressure, a caller-driven **pump loop** that paces queued
//! descriptors into the engine at the configured line rate, lifecycle
//! **event delivery** (idle-TTL expiries, pressure evictions), and
//! passthroughs for the engine's **checkpoint/restore** warm restart and
//! **online N→2N rescale**.
//!
//! Threading model: [`IngestHandle`] is `Clone + Send` — any number of
//! producer threads `send` into the bounded queue and block when it is
//! full (backpressure, not loss). Dropping the service closes the
//! queue: blocked and later sends return [`ClosedError`]. The
//! [`FlowService`] itself is driven by *one* consumer thread calling
//! [`pump`](FlowService::pump); the service owns no threads of its own,
//! so simulated time advances only when the caller says so and every
//! run stays deterministic.
//!
//! ```
//! use flowlut_engine::EngineConfig;
//! use flowlut_service::{FlowService, ServiceConfig};
//! use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut svc = FlowService::new(ServiceConfig::new(EngineConfig::test_small()))?;
//! let handle = svc.handle();
//! for i in 0..100 {
//!     handle
//!         .send(PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
//!         .expect("queue open");
//! }
//! while svc.poll().stats.completed < 100 {
//!     svc.pump(64);
//! }
//! assert_eq!(svc.poll().stats.completed, 100);
//! # Ok::<(), flowlut_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use flowlut_core::backend::{
    FlowEvent, FlowPipeline, Pacer, SessionError, SessionProgress, Watchdog,
};
use flowlut_core::checkpoint::CheckpointError;
use flowlut_core::{ConfigError, FlowRecord, RescaleError};
use flowlut_engine::{EngineConfig, RescaleReport, ShardedFlowLut};
use flowlut_traffic::PacketDescriptor;

/// Configuration of a [`FlowService`]: the wrapped engine plus the
/// ingest queue bound.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The sharded engine the service runs.
    pub engine: EngineConfig,
    /// Capacity of the bounded ingest queue. Producers block (or see
    /// `try_send` refused) once this many descriptors are waiting —
    /// backpressure, never silent loss.
    pub ingest_depth: usize,
}

impl ServiceConfig {
    /// A service over `engine` with the default 4096-descriptor ingest
    /// queue.
    pub fn new(engine: EngineConfig) -> ServiceConfig {
        ServiceConfig {
            engine,
            ingest_depth: 4096,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the engine configuration is invalid or the
    /// ingest depth is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ingest_depth == 0 {
            return Err(ConfigError::new("ingest_depth must be non-zero"));
        }
        self.engine.validate()
    }
}

/// The ingest queue was closed by dropping its [`FlowService`]: no
/// further descriptors are accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ClosedError;

impl fmt::Display for ClosedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ingest queue closed: descriptor rejected")
    }
}

impl Error for ClosedError {}

/// Shared state of the bounded multi-producer ingest queue.
#[derive(Debug)]
struct Channel {
    state: Mutex<ChannelState>,
    /// Signalled whenever queue space frees up (or the service drops), so
    /// blocked producers re-check.
    space: Condvar,
}

#[derive(Debug)]
struct ChannelState {
    buf: VecDeque<PacketDescriptor>,
    capacity: usize,
    closed: bool,
}

impl Channel {
    fn lock(&self) -> std::sync::MutexGuard<'_, ChannelState> {
        self.state.lock().expect("ingest queue poisoned")
    }
}

/// A cloneable producer handle onto a [`FlowService`]'s bounded ingest
/// queue. Any number of threads may hold one; sends into a full queue
/// block until the pump frees space (backpressure, never loss).
#[derive(Debug, Clone)]
pub struct IngestHandle {
    chan: Arc<Channel>,
}

impl IngestHandle {
    /// Enqueues `desc`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ClosedError`] if the service has been dropped, also while this
    /// send waits — the descriptor is not taken.
    pub fn send(&self, desc: PacketDescriptor) -> Result<(), ClosedError> {
        let mut s = self.chan.lock();
        loop {
            if s.closed {
                return Err(ClosedError);
            }
            if s.buf.len() < s.capacity {
                s.buf.push_back(desc);
                return Ok(());
            }
            s = self.chan.space.wait(s).expect("ingest queue poisoned");
        }
    }

    /// Enqueues `desc` without blocking. `Ok(false)` means the queue is
    /// full (backpressure — retry after the pump makes progress).
    ///
    /// # Errors
    ///
    /// [`ClosedError`] if the service has been dropped.
    pub fn try_send(&self, desc: PacketDescriptor) -> Result<bool, ClosedError> {
        let mut s = self.chan.lock();
        if s.closed {
            return Err(ClosedError);
        }
        if s.buf.len() >= s.capacity {
            return Ok(false);
        }
        s.buf.push_back(desc);
        Ok(true)
    }
}

/// What one [`FlowService::pump`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpSummary {
    /// System-clock cycles advanced.
    pub cycles: u64,
    /// Descriptors moved from the ingest queue into the engine.
    pub accepted: u64,
    /// Descriptors that completed the pipeline during this pump.
    pub completed: u64,
    /// Descriptors still waiting in the ingest queue afterwards.
    pub backlog: u64,
    /// Descriptors in flight inside the engine afterwards.
    pub in_pipeline: u64,
}

/// The long-running flow service: a [`ShardedFlowLut`] engine behind a
/// bounded multi-producer ingest queue and a caller-driven pump.
///
/// See the [crate docs](crate) for the threading model; the
/// checkpoint/restore and rescale passthroughs are documented on the
/// corresponding engine methods.
#[derive(Debug)]
pub struct FlowService {
    engine: ShardedFlowLut,
    chan: Arc<Channel>,
    /// Paced-intake credit (carried across pump calls so arbitrary pump
    /// slicing stays equivalent to one long pump).
    pacer: Pacer,
    /// A descriptor popped from the queue but refused by the engine
    /// (pipeline backpressure): re-offered first on the next cycle, so
    /// nothing is ever dropped between queue and engine.
    pending: Option<PacketDescriptor>,
}

impl FlowService {
    /// Builds the service: validates `cfg` and constructs the engine and
    /// the ingest queue.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `cfg` is invalid.
    pub fn new(cfg: ServiceConfig) -> Result<FlowService, ConfigError> {
        cfg.validate()?;
        Ok(FlowService::assemble(
            ShardedFlowLut::new(cfg.engine),
            cfg.ingest_depth,
        ))
    }

    fn assemble(engine: ShardedFlowLut, ingest_depth: usize) -> FlowService {
        FlowService {
            engine,
            chan: Arc::new(Channel {
                state: Mutex::new(ChannelState {
                    buf: VecDeque::new(),
                    capacity: ingest_depth,
                    closed: false,
                }),
                space: Condvar::new(),
            }),
            pacer: Pacer::default(),
            pending: None,
        }
    }

    /// A new producer handle onto the ingest queue.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            chan: Arc::clone(&self.chan),
        }
    }

    /// Advances the engine `cycles` system-clock cycles, feeding queued
    /// descriptors in at the engine's configured aggregate input rate
    /// (same pacing as [`Session::offer`]) and applying pipeline
    /// backpressure without loss. Blocked producers are woken as space
    /// frees.
    ///
    /// [`Session::offer`]: flowlut_core::backend::Session::offer
    pub fn pump(&mut self, cycles: u64) -> PumpSummary {
        let rate = self.engine.input_rate_per_cycle();
        let cap = self.engine.burst_cap();
        let completed_before = self.engine.poll().stats.completed;
        let mut accepted = 0u64;
        for _ in 0..cycles {
            self.pacer.cycle(rate, cap, || {
                let desc = match self.pending.take() {
                    Some(d) => d,
                    None => {
                        let mut s = self.chan.lock();
                        match s.buf.pop_front() {
                            Some(d) => {
                                self.chan.space.notify_one();
                                d
                            }
                            None => return false,
                        }
                    }
                };
                let taken = self.engine.push(desc);
                if taken {
                    accepted += 1;
                } else {
                    self.pending = Some(desc);
                }
                taken
            });
            self.engine.tick();
        }
        let progress = self.engine.poll();
        PumpSummary {
            cycles,
            accepted,
            completed: progress.stats.completed - completed_before,
            backlog: self.backlog() as u64 + u64::from(self.pending.is_some()),
            in_pipeline: progress.in_pipeline,
        }
    }

    /// Pumps until the ingest queue (and any backpressured descriptor)
    /// has fully entered the engine, then drains the engine. Returns the
    /// cycles spent.
    ///
    /// # Errors
    ///
    /// [`SessionError::Stalled`] if the engine completes nothing for
    /// [`STALL_CYCLES`](flowlut_core::backend::STALL_CYCLES) cycles, in
    /// either phase.
    pub fn drain(&mut self) -> Result<u64, SessionError> {
        const PUMP_CYCLES: u64 = 64;
        let start = self.engine.now_sys();
        let mut watchdog = Watchdog::new(&self.engine);
        while self.backlog() > 0 || self.pending.is_some() {
            self.pump(PUMP_CYCLES);
            watchdog.watch(&self.engine, PUMP_CYCLES)?;
        }
        self.engine.drain()?;
        Ok(self.engine.now_sys() - start)
    }

    /// Observes cumulative engine progress without advancing time.
    pub fn poll(&self) -> SessionProgress {
        self.engine.poll()
    }

    /// Drains pending flow-lifecycle events (idle-TTL expiries,
    /// pressure evictions) raised since the previous call.
    pub fn events(&mut self) -> Vec<FlowEvent> {
        self.engine.poll_events()
    }

    /// Takes the accumulated pressure-eviction victim records
    /// ([`ShardedFlowLut::take_victims`]), across all shards.
    pub fn take_victims(&mut self) -> Vec<FlowRecord> {
        self.engine.take_victims()
    }

    /// Number of descriptors waiting in the ingest queue (excluding one
    /// possibly backpressured at the engine boundary).
    pub fn backlog(&self) -> usize {
        self.chan.lock().buf.len()
    }

    /// Serializes a consistent checkpoint: flushes the ingest backlog
    /// into the engine, quiesces it, and delegates to
    /// [`ShardedFlowLut::checkpoint`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotQuiescent`] if the engine stalls before it
    /// settles ([`SessionError::Stalled`]); otherwise the
    /// [`CheckpointError`] of an engine that cannot be checkpointed.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        self.drain()
            .and_then(|_| self.engine.quiesce())
            .map_err(|_| CheckpointError::NotQuiescent {
                in_pipeline: self.engine.in_pipeline(),
            })?;
        // Canonical phase: a restored service starts with zero intake
        // credit, so the live side resets too — live and restored then
        // replay bit-identically.
        self.pacer = Pacer::default();
        self.engine.checkpoint()
    }

    /// Rebuilds a service from a [`checkpoint`](Self::checkpoint) blob —
    /// warm restart with a fresh (empty, open) ingest queue.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a malformed blob or mismatched `cfg`.
    pub fn restore(cfg: ServiceConfig, bytes: &[u8]) -> Result<FlowService, CheckpointError> {
        cfg.validate()
            .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
        let ingest_depth = cfg.ingest_depth;
        let engine = ShardedFlowLut::restore(cfg.engine, bytes)?;
        Ok(FlowService::assemble(engine, ingest_depth))
    }

    /// Doubles the shard count online ([`ShardedFlowLut::rescale_double`]):
    /// flushes the ingest backlog, drains and quiesces the engine, and
    /// rehomes every resident flow under the wider router — zero
    /// descriptor or flow loss.
    ///
    /// # Errors
    ///
    /// [`RescaleError::NotQuiescent`] if the engine stalls before it
    /// settles ([`SessionError::Stalled`]); [`RescaleError::ShardFull`]
    /// if a destination shard cannot place a migrating flow. Either way
    /// the shard set is left unchanged.
    pub fn rescale_double(&mut self) -> Result<RescaleReport, RescaleError> {
        self.drain().map_err(|_| RescaleError::NotQuiescent {
            in_pipeline: self.engine.in_pipeline(),
        })?;
        self.engine.rescale_double()
    }

    /// The wrapped engine (read-only view for reports and snapshots).
    pub fn engine(&self) -> &ShardedFlowLut {
        &self.engine
    }
}

impl Drop for FlowService {
    /// Closes the ingest queue, so producers blocked on a full queue
    /// return [`ClosedError`] instead of waiting for a pump that will
    /// never run. Setting the flag is valid whatever a panicking holder
    /// of the lock left behind, so a poisoned lock is recovered.
    fn drop(&mut self) {
        let mut s = self
            .chan
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        s.closed = true;
        self.chan.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::{FiveTuple, FlowKey};

    fn desc(i: u64) -> PacketDescriptor {
        PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i)))
    }

    fn small_service(depth: usize) -> FlowService {
        FlowService::new(ServiceConfig {
            engine: EngineConfig::test_small(),
            ingest_depth: depth,
        })
        .unwrap()
    }

    #[test]
    fn keys_no_slot_holds_are_dropped_not_panicked_on() {
        let mut svc = small_service(16);
        let h = svc.handle();
        // Wider than the 16-byte slots allow, and the empty key.
        let wide = FlowKey::new(&[7u8; 20]).unwrap();
        for (seq, key) in [wide, FlowKey::default(), wide].into_iter().enumerate() {
            assert_eq!(h.try_send(PacketDescriptor::new(seq as u64, key)), Ok(true));
        }
        h.try_send(desc(3)).unwrap();
        svc.drain().unwrap();
        let s = svc.poll().stats;
        assert_eq!((s.completed, s.drops, s.inserted_mem), (4, 3, 1), "{s:?}");
        assert_eq!(svc.poll().occupancy.total(), 1);
    }

    #[test]
    fn pump_moves_ingest_through_the_engine() {
        let mut svc = small_service(256);
        let h = svc.handle();
        for i in 0..100 {
            h.send(desc(i)).unwrap();
        }
        assert_eq!(svc.backlog(), 100);
        let mut moved = 0;
        for _ in 0..200 {
            moved += svc.pump(32).accepted;
            if svc.poll().stats.completed == 100 {
                break;
            }
        }
        assert_eq!(moved, 100);
        assert_eq!(svc.poll().stats.completed, 100);
        assert_eq!(svc.backlog(), 0);
        assert_eq!(svc.poll().in_pipeline, 0);
    }

    #[test]
    fn try_send_backpressures_at_the_bound_without_loss() {
        let mut svc = small_service(8);
        let h = svc.handle();
        let mut queued = 0u64;
        let mut next = 0u64;
        while queued < 8 {
            assert!(h.try_send(desc(next)).unwrap());
            next += 1;
            queued += 1;
        }
        assert!(!h.try_send(desc(next)).unwrap(), "ninth must be refused");
        // Pumping frees space; the refused descriptor then fits.
        svc.pump(64);
        assert!(h.try_send(desc(next)).unwrap());
        let cycles = svc.drain().unwrap();
        assert!(cycles > 0);
        assert_eq!(svc.poll().stats.completed, 9, "no descriptor lost");
    }

    #[test]
    fn producers_on_threads_block_and_complete() {
        let mut svc = small_service(16);
        let producers: Vec<_> = (0..4u64)
            .map(|t| {
                let h = svc.handle();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        h.send(desc(t * 50 + i)).unwrap();
                    }
                })
            })
            .collect();
        // Consumer loop: pump until all 200 descriptors complete.
        let mut guard = 0u64;
        while svc.poll().stats.completed < 200 {
            svc.pump(64);
            guard += 1;
            assert!(guard < 100_000, "service stalled");
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(svc.poll().stats.completed, 200);
        assert_eq!(svc.backlog(), 0);
    }

    #[test]
    fn dropping_the_service_releases_a_blocked_producer() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;
        let svc = small_service(1);
        let h = svc.handle();
        h.send(desc(0)).unwrap();
        let (tx, rx) = channel();
        let producer = {
            let h = h.clone();
            std::thread::spawn(move || tx.send(h.send(desc(1))).unwrap())
        };
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout),
            "a send into a full queue blocks"
        );
        drop(svc);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(Err(ClosedError)),
            "the blocked send returns once the service drops"
        );
        producer.join().unwrap();
        assert_eq!(h.send(desc(2)), Err(ClosedError));
        assert_eq!(h.try_send(desc(2)), Err(ClosedError));
    }

    #[test]
    fn pump_slicing_is_equivalent_to_one_long_pump() {
        // Determinism across arbitrary pump granularity: the credit
        // accumulator carries over, so N 1-cycle pumps equal one
        // N-cycle pump.
        const TOTAL: u64 = 4_096;
        let run = |slice: u64| {
            let mut svc = small_service(512);
            let h = svc.handle();
            for i in 0..150 {
                h.send(desc(i)).unwrap();
            }
            for _ in 0..TOTAL / slice {
                svc.pump(slice);
            }
            assert_eq!(svc.poll().stats.completed, 150);
            svc.engine().snapshot()
        };
        let snap_fine = run(1);
        let snap_mid = run(64);
        let snap_coarse = run(TOTAL);
        assert_eq!(snap_fine, snap_mid, "pump slicing changed behaviour");
        assert_eq!(snap_mid, snap_coarse, "pump slicing changed behaviour");
    }

    #[test]
    fn checkpoint_restore_resumes_service() {
        let mut svc = small_service(256);
        let h = svc.handle();
        for i in 0..60 {
            h.send(desc(i)).unwrap();
        }
        let blob = svc.checkpoint().unwrap();
        let mut restored = FlowService::restore(
            ServiceConfig {
                engine: EngineConfig::test_small(),
                ingest_depth: 256,
            },
            &blob,
        )
        .unwrap();
        assert_eq!(restored.poll().stats.completed, 60);
        // Warm keys hit on replay through the restored service.
        let h2 = restored.handle();
        for i in 0..60 {
            h2.send(desc(i)).unwrap();
        }
        restored.drain().unwrap();
        let stats = restored.poll().stats;
        assert_eq!(stats.completed, 120);
        assert_eq!(
            stats.cam_hits + stats.lu1_hits + stats.lu2_hits,
            60,
            "all repeats must match resident flows: {stats:?}"
        );
    }

    #[test]
    fn rescale_double_through_the_service() {
        let mut svc = small_service(256);
        let h = svc.handle();
        for i in 0..80 {
            h.send(desc(i)).unwrap();
        }
        let before = {
            svc.drain().unwrap();
            svc.poll().stats.completed
        };
        let report = svc.rescale_double().unwrap();
        assert_eq!(report.old_shards, 2);
        assert_eq!(report.new_shards, 4);
        assert_eq!(report.migrated_flows, 80);
        // Progress is monotone across the rescale and flows survive.
        assert_eq!(svc.poll().stats.completed, before);
        for i in 0..80 {
            h.send(desc(i)).unwrap();
        }
        svc.drain().unwrap();
        let stats = svc.poll().stats;
        assert_eq!(stats.completed, 160);
        assert_eq!(stats.cam_hits + stats.lu1_hits + stats.lu2_hits, 80);
    }

    #[test]
    fn zero_depth_is_rejected() {
        assert!(FlowService::new(ServiceConfig {
            engine: EngineConfig::test_small(),
            ingest_depth: 0,
        })
        .is_err());
    }
}
