//! The lockstep multi-channel engine, with optional host-parallel shard
//! execution.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use flowlut_core::backend::{
    settle, FlowEvent, FlowPipeline, FlowStore, FullError, OpStats, SessionError, SessionProgress,
};
use flowlut_core::checkpoint::{self, ByteReader, ByteWriter, CheckpointError};
use flowlut_core::{
    FlowLutSim, FlowRecord, Occupancy, PreloadError, RescaleError, SimConfig, SimStats,
};
use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::config::{EngineConfig, ExecutionMode, BATCH, BATCH_TIMEOUT_SYS, STAGING_CAP};
use crate::pool::WorkerPool;
use crate::router::ShardRouter;

/// A point-in-time view of the whole engine: the splitter's counters
/// and each live shard's progress. Every counter is cumulative over the
/// shard's life, so on a fresh engine it covers exactly the runs since
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Engine cycle (equals every shard's cycle — lockstep).
    pub now_sys: u64,
    /// Descriptors accepted by the splitter so far.
    pub offered: u64,
    /// Descriptors currently staged at the splitter.
    pub staged: u64,
    /// Cycles the splitter stalled input because a shard's staging was
    /// full (that channel was the bottleneck).
    pub splitter_stall_cycles: u64,
    /// Per-shard progress, in shard order.
    pub per_shard: Vec<SessionProgress>,
}

impl EngineSnapshot {
    /// Largest per-shard completion count over the mean — `1.0` is a
    /// perfectly balanced engine, `N` (the shard count) one where one
    /// shard did everything. An engine that completed nothing reports
    /// `1.0`, so short runs with idle shards stay finite and comparable.
    pub fn imbalance(&self) -> f64 {
        let completed = || self.per_shard.iter().map(|s| s.stats.completed);
        let total: u64 = completed().sum();
        if total == 0 {
            return 1.0;
        }
        let max = completed().max().unwrap_or(0);
        max as f64 * self.per_shard.len() as f64 / total as f64
    }
}

/// One channel of the engine: the shard's simulator plus the splitter's
/// per-shard staging queue. Lanes share no state with each other, which
/// is what makes threaded execution bit-identical to inline execution.
#[derive(Debug)]
struct ShardLane {
    sim: FlowLutSim,
    staging: VecDeque<PacketDescriptor>,
    staged_first_cycle: Option<u64>,
}

impl ShardLane {
    /// Advances this lane one engine cycle: flushes the staged batch
    /// into the channel's sequencer when due, then steps the channel.
    /// A batch is *due* when it reaches [`BATCH`] descriptors, when its
    /// oldest descriptor times out, or when end of input has been
    /// declared. This is the one per-cycle body both execution modes
    /// run, so the threaded engine is bit-identical by construction.
    fn step(&mut self, now_sys: u64, draining: bool) {
        let due = self.staging.len() >= BATCH
            || (draining && !self.staging.is_empty())
            || self
                .staged_first_cycle
                .is_some_and(|t| now_sys - t >= BATCH_TIMEOUT_SYS);
        if due {
            while let Some(&d) = self.staging.front() {
                if self.sim.offer(d) {
                    self.staging.pop_front();
                } else {
                    break; // sequencer full; retry next cycle
                }
            }
            self.staged_first_cycle = if self.staging.is_empty() {
                None
            } else {
                Some(now_sys)
            };
        }
        self.sim.tick();
    }

    /// Splitter side of the lane: descriptors staged plus descriptors
    /// anywhere inside the channel.
    fn in_pipeline(&self) -> u64 {
        self.staging.len() as u64 + self.sim.in_pipeline()
    }
}

/// A locked read handle onto one shard's simulator, returned by
/// [`ShardedFlowLut::shard`]. Dereferences to [`FlowLutSim`]; the lane
/// lock is held for the guard's lifetime, so keep it short-lived.
#[derive(Debug)]
pub struct ShardRef<'a>(MutexGuard<'a, ShardLane>);

impl Deref for ShardRef<'_> {
    type Target = FlowLutSim;

    fn deref(&self) -> &FlowLutSim {
        &self.0.sim
    }
}

/// Locks a lane, surfacing worker-thread panics instead of silently
/// continuing on half-stepped state.
fn lock(lane: &Mutex<ShardLane>) -> MutexGuard<'_, ShardLane> {
    lane.lock().expect("shard lane poisoned by a worker panic")
}

/// N single-channel flow-LUT prototypes ([`FlowLutSim`]) behind a
/// hash-based [`ShardRouter`], stepped in lockstep on one system clock.
///
/// The splitter routes each descriptor to the shard owning its key and
/// stages it; staged descriptors are handed to the channel's sequencer
/// in batches (preserving the paper's burst-grouping within each
/// channel). Because routing is a pure function of the key, all packets
/// of a flow traverse one channel and the paper's per-flow ordering
/// invariant holds system-wide.
///
/// Under [`ExecutionMode::Threaded`] the per-cycle shard work is
/// partitioned across a persistent worker pool behind a generation
/// barrier; because shards share no state, the reports are bit-identical
/// to [`ExecutionMode::Inline`] (pinned by the parallel-equivalence
/// proptest).
#[derive(Debug)]
pub struct ShardedFlowLut {
    cfg: EngineConfig,
    router: ShardRouter,
    lanes: Vec<Arc<Mutex<ShardLane>>>,
    /// Executor threads stepping shards each cycle (the caller plus the
    /// pool's workers); 1 in inline mode.
    executors: usize,
    pool: Option<WorkerPool>,
    now_sys: u64,
    offered: u64,
    splitter_stall_cycles: u64,
    /// End-of-input declared ([`FlowPipeline::drain`] in progress):
    /// staged batches flush regardless of the batch threshold.
    draining: bool,
    /// Counters accumulated by lanes that no longer exist (retired by
    /// [`rescale_double`](Self::rescale_double)), so engine-level
    /// statistics stay cumulative and monotone across rescales.
    carried_stats: SimStats,
}

/// Outcome of an online shard rescale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescaleReport {
    /// Shard count before the rescale.
    pub old_shards: usize,
    /// Shard count after the rescale.
    pub new_shards: usize,
    /// Flows rehomed onto the new shard set.
    pub migrated_flows: u64,
    /// Cycles spent draining and settling the old shards before the
    /// migration.
    pub drained_cycles: u64,
}

impl ShardedFlowLut {
    /// Builds an engine (spawning the worker pool when the configured
    /// [`ExecutionMode`] asks for one).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`EngineConfig::validate`] first for fallible handling.
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate().expect("invalid engine configuration");
        let sims: Vec<FlowLutSim> = (0..cfg.shards)
            .map(|_| FlowLutSim::new(cfg.shard.clone()))
            .collect();
        Self::assemble(cfg, sims)
    }

    /// Wires pre-built shard simulators into a full engine (router,
    /// lanes, worker pool) — the shared tail of [`new`](Self::new),
    /// [`restore`](Self::restore), and
    /// [`rescale_double`](Self::rescale_double).
    fn assemble(cfg: EngineConfig, sims: Vec<FlowLutSim>) -> Self {
        debug_assert_eq!(sims.len(), cfg.shards);
        let router = ShardRouter::new(cfg.shards, cfg.router_seed);
        let lanes: Vec<Arc<Mutex<ShardLane>>> = sims
            .into_iter()
            .map(|sim| {
                Arc::new(Mutex::new(ShardLane {
                    sim,
                    staging: VecDeque::new(),
                    staged_first_cycle: None,
                }))
            })
            .collect();
        // More executors than shards or host cores only adds barrier
        // waits; the host is asked only when threads are requested.
        let executors = match cfg.execution {
            ExecutionMode::Inline => 1,
            ExecutionMode::Threaded(n) => {
                let cores = thread::available_parallelism().map_or(1, |c| c.get());
                n.clamp(1, cfg.shards.min(cores))
            }
        };
        // Worker `e` owns the lanes whose index is `e` modulo
        // `executors`; the engine's `tick` (executor 0) steps the
        // remainder between `start_round` and `finish_round`.
        let pool = (executors > 1).then(|| {
            let workers: Vec<_> = (1..executors)
                .map(|e| {
                    let my_lanes: Vec<Arc<Mutex<ShardLane>>> = lanes
                        .iter()
                        .skip(e)
                        .step_by(executors)
                        .map(Arc::clone)
                        .collect();
                    move |now_sys: u64, draining: bool| {
                        for lane in &my_lanes {
                            lock(lane).step(now_sys, draining);
                        }
                    }
                })
                .collect();
            WorkerPool::spawn(workers)
        });
        ShardedFlowLut {
            router,
            lanes,
            executors,
            pool,
            now_sys: 0,
            offered: 0,
            splitter_stall_cycles: 0,
            draining: false,
            carried_stats: SimStats::default(),
            cfg,
        }
    }

    /// The shard router (pure key → shard function).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Executor threads stepping shards each cycle: 1 in inline mode,
    /// in threaded mode the configured count clamped to the shard count
    /// and the host's cores.
    pub fn executor_count(&self) -> usize {
        self.executors
    }

    /// One shard's simulator, for inspection. The returned guard holds
    /// that shard's lane lock — keep it short-lived.
    pub fn shard(&self, i: usize) -> ShardRef<'_> {
        ShardRef(lock(&self.lanes[i]))
    }

    /// Current engine cycle.
    pub fn now_sys(&self) -> u64 {
        self.now_sys
    }

    /// Total resident flows across all shards.
    pub fn len(&self) -> u64 {
        self.lanes.iter().map(|l| lock(l).sim.table().len()).sum()
    }

    /// `true` when no flows are resident anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy summed over shards.
    pub fn occupancy(&self) -> Occupancy {
        self.lanes.iter().fold(Occupancy::default(), |mut acc, l| {
            acc += lock(l).sim.table().occupancy();
            acc
        })
    }

    /// A point-in-time view of all shards.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut staged = 0u64;
        let mut per_shard = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let lane = lock(lane);
            staged += lane.staging.len() as u64;
            per_shard.push(lane.sim.poll());
        }
        EngineSnapshot {
            now_sys: self.now_sys,
            offered: self.offered,
            staged,
            splitter_stall_cycles: self.splitter_stall_cycles,
            per_shard,
        }
    }

    /// Preloads flows into the owning shards' tables, which their DRAM
    /// reads see, without spending cycles (the Table II(B) setup,
    /// sharded).
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] carrying the total number of keys
    /// loaded before the failure (summed across shards, including the
    /// failing shard's partial batch). Preload is not transactional:
    /// those keys remain loaded on their owning shards; the keys routed
    /// after the failing one are not attempted. Callers that need
    /// all-or-nothing semantics should rebuild the engine on error.
    pub fn preload<I>(&mut self, keys: I) -> Result<usize, PreloadError>
    where
        I: IntoIterator<Item = FlowKey>,
    {
        let mut per_shard: Vec<Vec<FlowKey>> = vec![Vec::new(); self.lanes.len()];
        for key in keys {
            per_shard[self.router.route(&key)].push(key);
        }
        let mut n = 0;
        for (lane, keys) in self.lanes.iter().zip(per_shard) {
            match lock(lane).sim.preload(keys) {
                Ok(k) => n += k,
                Err(e) => {
                    return Err(PreloadError {
                        inserted: n + e.inserted,
                        cause: e.cause,
                    })
                }
            }
        }
        Ok(n)
    }

    /// Advances the whole engine one system-clock cycle: per shard,
    /// flushes due staged batches into the channel's sequencer, then
    /// steps the channel (lockstep). A batch is *due* when it reaches its
    /// fixed size, when its oldest descriptor times out, or when end
    /// of input has been declared ([`FlowPipeline::drain`]).
    ///
    /// Inline mode steps every lane on the calling thread; threaded mode
    /// fans the lanes out across the worker pool and waits at the
    /// per-cycle barrier. Each lane runs the identical per-cycle body
    /// either way, so the two modes are bit-identical.
    pub fn tick(&mut self) {
        self.now_sys += 1;
        match &self.pool {
            None => {
                for lane in &self.lanes {
                    lock(lane).step(self.now_sys, self.draining);
                }
            }
            Some(pool) => {
                pool.start_round(self.now_sys, self.draining);
                // The caller is executor 0: step its own lane share
                // while the workers run theirs.
                for lane in self.lanes.iter().step_by(self.executors) {
                    lock(lane).step(self.now_sys, self.draining);
                }
                pool.finish_round();
            }
        }
    }

    /// Simulator counters merged across all shards (cumulative),
    /// including counters carried over from lanes retired by a rescale —
    /// so the view stays monotone across the engine's whole life.
    fn merged_stats(&self) -> SimStats {
        let mut agg = self.carried_stats;
        for lane in &self.lanes {
            agg.merge(lock(lane).sim.stats());
        }
        agg
    }

    /// Pressure-eviction victims accumulated across all shards (shard
    /// order, oldest first within a shard); each shard's list is left
    /// empty. See [`FlowLutSim::take_victims`].
    pub fn take_victims(&mut self) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            out.extend(lock(lane).sim.take_victims());
        }
        out
    }

    /// Serializes a consistent checkpoint of the whole (quiescent)
    /// engine: the splitter state plus one embedded
    /// [`FlowLutSim::checkpoint`] blob per shard.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotQuiescent`] unless
    /// [`quiesce`](FlowPipeline::quiesce) came first.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        if !self.is_quiescent() {
            return Err(CheckpointError::NotQuiescent {
                in_pipeline: self.in_pipeline(),
            });
        }
        let mut w = ByteWriter::new();
        w.put_u32(ENGINE_CHECKPOINT_MAGIC);
        w.put_u32(ENGINE_CHECKPOINT_VERSION);
        w.put_u64(self.lanes.len() as u64);
        w.put_u64(self.cfg.router_seed);
        w.put_u64(self.now_sys);
        w.put_u64(self.offered);
        w.put_u64(self.splitter_stall_cycles);
        checkpoint::write_stats(&mut w, &self.carried_stats);
        for lane in &self.lanes {
            let blob = lock(lane).sim.checkpoint()?;
            w.put_u64(blob.len() as u64);
            w.put_bytes(&blob);
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds an engine from a [`checkpoint`](Self::checkpoint) blob.
    /// `cfg` must match the checkpointed shard count, router seed, and
    /// per-shard configuration; replay from the restored engine is
    /// bit-identical to continuing the checkpointed one
    /// (`tests/checkpoint_restore.rs`).
    ///
    /// Each shard blob's header (magic, version, configuration digest) is
    /// checked on the calling thread first, and only the shards before
    /// the first blob that fails it are restored. Those are restored at
    /// once, on `min(shards, available_parallelism())` host threads, the
    /// calling thread among them, whatever the [`ExecutionMode`]. Each
    /// shard's [`FlowLutSim::restore`] routes every key it reads, in its
    /// one pass over the flows, and refuses a flow the router sends to
    /// another shard: no lookup would reach it there.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a malformed blob or mismatched `cfg`: the
    /// error a shard-by-shard restore would meet first.
    ///
    /// # Panics
    ///
    /// Raises again a panic of a thread restoring a shard.
    pub fn restore(cfg: EngineConfig, bytes: &[u8]) -> Result<Self, CheckpointError> {
        cfg.validate()
            .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
        let mut r = ByteReader::new(bytes);
        if r.u32()? != ENGINE_CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != ENGINE_CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let shards = r.u64()?;
        if shards != cfg.shards as u64 {
            return Err(CheckpointError::ConfigMismatch {
                expected: cfg.shards as u64,
                found: shards,
            });
        }
        let router_seed = r.u64()?;
        if router_seed != cfg.router_seed {
            return Err(CheckpointError::ConfigMismatch {
                expected: cfg.router_seed,
                found: router_seed,
            });
        }
        let now_sys = r.u64()?;
        let offered = r.counter()?;
        let splitter_stall_cycles = r.counter()?;
        let carried_stats = checkpoint::read_stats(&mut r)?;
        // The shard blobs' bounds and headers first, up to the first
        // that does not read or check; then the shards before it,
        // restored at once. Errors keep the order of a restore that reads
        // and restores shard by shard: a shard's own error, then the
        // bound or header after the last good shard, then trailing bytes.
        let mut blobs = Vec::with_capacity(cfg.shards);
        let framing = (0..cfg.shards).try_for_each(|_| {
            let len = usize::try_from(r.u64()?)
                .map_err(|_| CheckpointError::Corrupt("shard blob length overflow"))?;
            let blob = r.take(len)?;
            FlowLutSim::check_checkpoint(&cfg.shard, blob)?;
            blobs.push(blob);
            Ok(())
        });
        let router = ShardRouter::new(cfg.shards, cfg.router_seed);
        let sims = restore_shards(&cfg.shard, &router, &blobs, now_sys)?;
        framing?;
        r.finish()?;
        // Summed over the engine, each statistic obeys one simulator's
        // bound, so the engine's merged view counts on without overflow.
        let mut sums = carried_stats;
        for sim in &sims {
            let mut stats = *sim.stats();
            for (sum, v) in sums.counters_mut().into_iter().zip(stats.counters_mut()) {
                *sum = sum
                    .checked_add(*v)
                    .filter(|&sum| sum <= checkpoint::MAX_COUNTER)
                    .ok_or(CheckpointError::Corrupt("engine statistics sum above 2^62"))?;
            }
        }
        let mut engine = Self::assemble(cfg, sims);
        engine.now_sys = now_sys;
        engine.offered = offered;
        engine.splitter_stall_cycles = splitter_stall_cycles;
        engine.carried_stats = carried_stats;
        Ok(engine)
    }

    /// Online shard rescale N→2N: drains in-flight work, settles every
    /// shard, then rehomes each resident flow onto the doubled shard set
    /// via the pure [`ShardRouter`] partition — no descriptor is dropped
    /// (the drain resolves them all first) and every flow lands on
    /// exactly one new shard, at the engine's current cycle.
    ///
    /// The new lanes, router, and worker pool are fully built and
    /// populated *before* being committed, so the engine is unchanged on
    /// error. Old-lane counters fold into the carried statistics, keeping
    /// engine-level views monotone.
    ///
    /// # Errors
    ///
    /// [`RescaleError::NotQuiescent`] when the engine stalls before it
    /// settles ([`SessionError::Stalled`]), leaving the shard set as it
    /// was; [`RescaleError::ShardFull`] when a flow cannot be placed on
    /// its destination shard (the doubled capacity makes this
    /// pathological: it requires an adversarial hash collision set).
    pub fn rescale_double(&mut self) -> Result<RescaleReport, RescaleError> {
        let drained_cycles = self.quiesce().map_err(|_| RescaleError::NotQuiescent {
            in_pipeline: self.in_pipeline(),
        })?;
        let old_shards = self.lanes.len();
        let new_shards = old_shards * 2;
        let now_sys = self.now_sys;
        // Group migrating flows by destination under the doubled
        // partition, each group in deterministic order (shard-major,
        // flow-ID order within a shard), and fold old-lane counters.
        let router = ShardRouter::new(new_shards, self.cfg.router_seed);
        let mut migrating: Vec<Vec<FlowRecord>> = vec![Vec::new(); new_shards];
        let mut retired_stats = SimStats::default();
        for lane in &self.lanes {
            let lane = lock(lane);
            retired_stats.merge(lane.sim.stats());
            for (_, record) in lane.sim.table().records_after(None) {
                migrating[router.route(&record.key)].push(record);
            }
        }
        // Warm each destination shard at the current cycle (fresh
        // memory models, clocks in lockstep) and adopt its group at once.
        let mut sims = Vec::with_capacity(new_shards);
        let mut migrated_flows = 0u64;
        for (dest, records) in migrating.iter().enumerate() {
            let mut sim = FlowLutSim::warm_start(self.cfg.shard.clone(), now_sys);
            if let Err(e) = sim.adopt_flows(records.iter().copied()) {
                return Err(RescaleError::ShardFull {
                    shard: dest,
                    cause: FullError {
                        table: ENGINE_BACKEND_NAME,
                        key: records[e.inserted].key,
                        occupancy: sim.table().len(),
                        capacity: self.cfg.shard.table.capacity(),
                    },
                });
            }
            migrated_flows += records.len() as u64;
            sims.push(sim);
        }
        // Commit: swap in the doubled engine (dropping the old engine
        // joins its worker pool).
        let mut cfg = self.cfg.clone();
        cfg.shards = new_shards;
        let mut rebuilt = Self::assemble(cfg, sims);
        rebuilt.now_sys = now_sys;
        rebuilt.offered = self.offered;
        rebuilt.splitter_stall_cycles = self.splitter_stall_cycles;
        rebuilt.carried_stats = self.carried_stats;
        rebuilt.carried_stats.merge(&retired_stats);
        *self = rebuilt;
        Ok(RescaleReport {
            old_shards,
            new_shards,
            migrated_flows,
            drained_cycles,
        })
    }
}

/// Magic bytes of an engine checkpoint ("FENG" LE).
const ENGINE_CHECKPOINT_MAGIC: u32 = 0x474E4546;
/// Current engine checkpoint format version.
const ENGINE_CHECKPOINT_VERSION: u32 = 2;

/// Backend name of the sharded engine.
const ENGINE_BACKEND_NAME: &str = "hashcam-sharded";

/// Restores the shards of an engine checkpoint taken at cycle
/// `now_sys`, one simulator per blob, each holding only the flows
/// `router` sends it, on
/// `n = min(blobs, available_parallelism())` executors: the calling
/// thread is executor 0, and executor `e` takes blobs `e`, `e + n`, … —
/// the partition [`ShardedFlowLut::assemble`] gives the worker pool.
/// Fewer than two blobs start no worker and do not ask for the host's
/// core count. Shards share nothing, so each restore is the one a single
/// thread would do. Returns the first error in blob order; a panic on a
/// worker is raised again here.
fn restore_shards(
    cfg: &SimConfig,
    router: &ShardRouter,
    blobs: &[&[u8]],
    now_sys: u64,
) -> Result<Vec<FlowLutSim>, CheckpointError> {
    let restore = |shard: usize, blob: &[u8]| {
        let owns = |key: &[u8]| router.route_bytes(key) == shard;
        let sim = FlowLutSim::restore(cfg.clone(), blob, owns)?;
        if sim.now_sys() != now_sys {
            return Err(CheckpointError::Corrupt("shard clock diverged from engine"));
        }
        Ok(sim)
    };
    let n = match blobs.len() {
        0 | 1 => 1,
        len => thread::available_parallelism().map_or(1, |c| c.get().min(len)),
    };
    let executor = |e: usize| -> Vec<_> {
        blobs
            .iter()
            .enumerate()
            .skip(e)
            .step_by(n)
            .map(|(shard, b)| restore(shard, b))
            .collect()
    };
    let mut done: Vec<_> = thread::scope(|s| {
        let workers: Vec<_> = (1..n).map(|e| s.spawn(move || executor(e))).collect();
        let joined = workers.into_iter().map(|w| {
            w.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        std::iter::once(executor(0))
            .chain(joined)
            .map(Vec::into_iter)
            .collect()
    });
    // Blob `i` is the `i / n`-th restore of executor `i % n`.
    (0..blobs.len())
        .filter_map(|i| done[i % n].next())
        .collect()
}

impl FlowStore for ShardedFlowLut {
    fn name(&self) -> &'static str {
        ENGINE_BACKEND_NAME
    }

    /// Upsert on the owning channel: the descriptor enters its
    /// sequencer directly (the splitter does not count it), then the
    /// engine drains in lockstep. The outcome is read from the channel's
    /// counters, as [`FlowLutSim`]'s insert reads it; a drop or a stall
    /// is a [`FullError`] of the whole engine.
    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        let s = self.router.route(&key);
        let stats = |e: &Self| *lock(&e.lanes[s]).sim.stats();
        let before = stats(self);
        let desc = PacketDescriptor::new(before.offered, key);
        let settled =
            settle(self, |e| lock(&e.lanes[s]).sim.offer(desc)).and_then(|_| self.drain());
        let after = stats(self);
        let new_flows = |s: &SimStats| s.inserted_mem + s.inserted_cam;
        match settled {
            Ok(_) if new_flows(&after) > new_flows(&before) => Ok(true),
            Ok(_) if after.drops == before.drops => Ok(false),
            _ => Err(FullError {
                table: ENGINE_BACKEND_NAME,
                key,
                occupancy: self.len(),
                capacity: FlowStore::capacity(self),
            }),
        }
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        let s = self.router.route(key);
        lock(&self.lanes[s]).sim.table().peek(key).is_some()
    }

    /// Deletes on the owning channel: the deletion is queued there, then
    /// the engine settles in lockstep until the record is gone. A stall
    /// ([`SessionError::Stalled`]) returns with the deletion unfinished.
    fn remove(&mut self, key: &FlowKey) -> bool {
        let s = self.router.route(key);
        let Some(fid) = lock(&self.lanes[s]).sim.table().peek(key) else {
            return false;
        };
        let gone = |e: &mut Self| {
            let lane = lock(&e.lanes[s]);
            lane.sim.table().record(fid).is_none_or(|r| r.key != *key)
        };
        // The key was resident either way; a stall leaves its deletion
        // unfinished.
        let _ = settle(self, |e| {
            lock(&e.lanes[s]).sim.delete_flow(fid, *key).is_ok()
        })
        .and_then(|_| settle(self, gone));
        true
    }

    fn len(&self) -> u64 {
        ShardedFlowLut::len(self)
    }

    fn capacity(&self) -> u64 {
        self.lanes.len() as u64 * self.cfg.shard.table.capacity()
    }

    fn op_stats(&self) -> OpStats {
        let mut agg = OpStats::default();
        for lane in &self.lanes {
            agg.merge(&FlowStore::op_stats(&lock(lane).sim));
        }
        agg
    }

    fn as_pipeline(&mut self) -> Option<&mut dyn FlowPipeline> {
        Some(self)
    }
}

impl FlowPipeline for ShardedFlowLut {
    /// Resets every live shard's latency mark and the mark carried from
    /// shards a rescale retired, so a run after a rescale reports its
    /// own worst case.
    fn begin_run(&mut self) {
        self.carried_stats.max_latency_sys = 0;
        for lane in &self.lanes {
            FlowPipeline::begin_run(&mut lock(lane).sim);
        }
    }

    /// The splitter: routes the descriptor to the shard owning its key
    /// and stages it. `false` (plus a recorded splitter stall) when that
    /// shard's staging is full — head-of-line, as a hardware distributor
    /// would.
    fn push(&mut self, desc: PacketDescriptor) -> bool {
        let s = self.router.route(&desc.key);
        let mut lane = lock(&self.lanes[s]);
        if lane.staging.len() >= STAGING_CAP {
            self.splitter_stall_cycles += 1;
            return false;
        }
        lane.staging.push_back(desc);
        // Staged for the cycle the next tick will process (tick
        // increments the clock before flushing).
        lane.staged_first_cycle.get_or_insert(self.now_sys + 1);
        self.offered += 1;
        true
    }

    fn tick(&mut self) {
        ShardedFlowLut::tick(self);
    }

    fn poll(&self) -> SessionProgress {
        SessionProgress {
            now_sys: self.now_sys,
            stats: self.merged_stats(),
            in_pipeline: self.in_pipeline(),
            occupancy: self.occupancy(),
        }
    }

    /// Lifecycle events drained from every shard, in shard order (each
    /// shard's events are already in cycle order).
    /// Descriptors staged at the splitter, queued at a sequencer, or in
    /// flight anywhere in the engine.
    fn in_pipeline(&self) -> u64 {
        self.lanes.iter().map(|l| lock(l).in_pipeline()).sum()
    }

    /// `true` when every lane's staging is empty and every shard is
    /// quiescent — the state [`checkpoint`](ShardedFlowLut::checkpoint)
    /// and [`rescale_double`](ShardedFlowLut::rescale_double) require.
    fn is_quiescent(&self) -> bool {
        self.lanes.iter().all(|l| {
            let lane = lock(l);
            lane.staging.is_empty() && lane.sim.is_quiescent()
        })
    }

    fn poll_events(&mut self) -> Vec<FlowEvent> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            out.extend(FlowPipeline::poll_events(&mut lock(lane).sim));
        }
        out
    }

    /// Declares end of input, so staged batches flush whatever their
    /// size, and settles the engine in lockstep.
    fn drain(&mut self) -> Result<u64, SessionError> {
        self.draining = true;
        let drained = settle(self, |e| e.in_pipeline() == 0);
        self.draining = false;
        drained
    }

    fn sys_period_ns(&self) -> f64 {
        self.cfg.sys_period_ns()
    }

    fn input_rate_per_cycle(&self) -> f64 {
        self.cfg.input_rate_mhz() / self.cfg.sys_clock_mhz()
    }

    fn burst_cap(&self) -> f64 {
        8.0 * self.lanes.len() as f64
    }

    fn channels(&self) -> usize {
        self.lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_core::backend::RunReport;
    use flowlut_core::InsertError;
    use flowlut_ddr3::{MemorySpec, SramParams};
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn descs(range: std::ops::Range<u64>) -> Vec<PacketDescriptor> {
        range
            .enumerate()
            .map(|(seq, i)| PacketDescriptor::new(seq as u64, key(i)))
            .collect()
    }

    /// Runs `descs` through one fresh session on `engine`.
    fn run(engine: &mut ShardedFlowLut, descs: &[PacketDescriptor]) -> RunReport {
        engine.start_run().run(descs).expect("fresh session")
    }

    #[test]
    fn run_completes_everything_and_partitions_flows() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let report = run(&mut engine, &descs(0..400));
        assert_eq!(report.completed, 400);
        assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 400);
        assert_eq!(engine.len(), 400);
        // Every key is resident exactly on its routed shard.
        for i in 0..400 {
            let owner = engine.router().route(&key(i));
            for s in 0..engine.shard_count() {
                assert_eq!(
                    engine.shard(s).table().peek(&key(i)).is_some(),
                    s == owner,
                    "key {i} on shard {s}, owner {owner}"
                );
            }
        }
    }

    #[test]
    fn shards_step_in_lockstep() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        run(&mut engine, &descs(0..100));
        let snap = engine.snapshot();
        for s in &snap.per_shard {
            assert_eq!(s.now_sys, snap.now_sys, "channel clocks diverged");
        }
        assert_eq!(snap.staged, 0);
    }

    #[test]
    fn preload_routes_keys_to_owners() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let keys: Vec<FlowKey> = (0..200).map(key).collect();
        assert_eq!(engine.preload(keys.iter().copied()).unwrap(), 200);
        assert_eq!(engine.occupancy().total(), 200);
        // A run over the same keys produces only hits, no new flows.
        let report = run(&mut engine, &descs(0..200));
        assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 0);
        assert_eq!(engine.len(), 200);
    }

    #[test]
    fn preload_partial_failure_reports_total_inserted() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        // A duplicate planted mid-batch stops the preload on the owning
        // shard; the error must count every key loaded engine-wide
        // before the failure, not just the failing shard's progress.
        let mut keys: Vec<FlowKey> = (0..100).map(key).collect();
        keys.push(key(50));
        keys.extend((100..150).map(key));
        let err = engine
            .preload(keys.iter().copied())
            .expect_err("duplicate key must stop the preload");
        assert!(matches!(err.cause, InsertError::Duplicate(_)));
        assert_eq!(
            err.inserted as u64,
            engine.len(),
            "inserted count must equal the keys actually resident"
        );
        assert!(err.inserted > 0, "keys before the duplicate were loaded");
        assert!(
            (err.inserted as u64) < engine.capacity(),
            "the failure stopped the batch early"
        );
        // The partial load is live: every key the engine reports
        // resident hits without a new insert.
        let probe: Vec<PacketDescriptor> =
            PacketDescriptor::sequence((0..150).map(key).filter(|k| {
                let s = engine.router().route(k);
                engine.shard(s).table().peek(k).is_some()
            }));
        assert_eq!(probe.len() as u64, engine.len());
        let report = run(&mut engine, &probe);
        assert_eq!(
            report.stats.inserted_mem + report.stats.inserted_cam,
            0,
            "keys loaded before the failure must be resident and readable"
        );
    }

    #[test]
    fn delete_flow_reaches_the_owning_shard() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        run(&mut engine, &descs(0..50));
        assert_eq!(engine.len(), 50);
        assert!(FlowStore::remove(&mut engine, &key(7)));
        assert_eq!(engine.len(), 49);
        let owner = engine.router().route(&key(7));
        assert!(engine.shard(owner).table().peek(&key(7)).is_none());
        assert_eq!(engine.shard(owner).stats().deletes, 1);
        assert!(!FlowStore::remove(&mut engine, &key(7)));
    }

    #[test]
    fn per_flow_order_holds_across_the_engine() {
        // Many packets of few flows: completions of one flow must leave
        // in arrival order even though shards race each other.
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let work: Vec<PacketDescriptor> = (0..300)
            .map(|i| PacketDescriptor::new(i, key(i % 7)))
            .collect();
        let report = run(&mut engine, &work);
        assert_eq!(report.completed, 300);
        for s in 0..engine.shard_count() {
            let shard = engine.shard(s);
            let mut last_seq: std::collections::HashMap<FlowKey, u64> = Default::default();
            for d in shard.completions() {
                if let Some(prev) = last_seq.insert(d.desc.key, d.desc.seq) {
                    assert!(prev < d.desc.seq, "per-flow order violated");
                }
            }
        }
    }

    #[test]
    fn report_decomposes_by_shard() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let report = run(&mut engine, &descs(0..500));
        let snap = engine.snapshot();
        let sum: u64 = snap.per_shard.iter().map(|s| s.stats.completed).sum();
        assert_eq!(sum, report.completed);
        assert_eq!(report.occupancy.total(), engine.len());
        assert!(report.mdesc_per_s > 0.0);
        assert!(snap.imbalance() < 2.0, "imbalance {}", snap.imbalance());
    }

    #[test]
    fn repeated_runs_report_independently() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let r1 = run(&mut engine, &descs(0..100));
        let r2 = run(&mut engine, &descs(100..200));
        assert_eq!(r1.completed, 100);
        assert_eq!(r2.completed, 100);
        assert_eq!(engine.len(), 200);
    }

    #[test]
    fn max_latency_does_not_leak_across_runs() {
        // Run 1 saturates the engine (high queueing latency); run 2 is a
        // single warm hit. Before the per-run watermark, run 2's report
        // carried run 1's lifetime maximum; the rescale between them
        // retires run 1's shards, whose mark the engine carries.
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let r1 = run(&mut engine, &descs(0..400));
        assert!(r1.stats.max_latency_sys > 0);
        engine
            .rescale_double()
            .expect("doubled shards hold every flow");
        let r2 = run(&mut engine, &descs(0..1));
        assert!(
            r2.stats.max_latency_sys < r1.stats.max_latency_sys,
            "run 2 max {} should not inherit run 1 max {}",
            r2.stats.max_latency_sys,
            r1.stats.max_latency_sys
        );
    }

    #[test]
    fn empty_run_returns_zeroes() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let report = run(&mut engine, &[]);
        assert_eq!(report.completed, 0);
        assert_eq!(report.sys_cycles, 0);
        assert_eq!(report.mdesc_per_s, 0.0);
    }

    fn snapshot_with_completions(completions: &[u64]) -> EngineSnapshot {
        EngineSnapshot {
            now_sys: 100,
            offered: completions.iter().sum(),
            staged: 0,
            splitter_stall_cycles: 0,
            per_shard: completions
                .iter()
                .map(|&completed| SessionProgress {
                    now_sys: 100,
                    stats: SimStats {
                        completed,
                        ..SimStats::default()
                    },
                    in_pipeline: 0,
                    occupancy: Occupancy::default(),
                })
                .collect(),
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let r = snapshot_with_completions(&[100, 100, 100, 100]);
        assert!((r.imbalance() - 1.0).abs() < 1e-12);
        let r = snapshot_with_completions(&[300, 100, 100, 100]);
        // max 300, mean 150 → 2.0
        assert!((r.imbalance() - 2.0).abs() < 1e-12, "{}", r.imbalance());
    }

    #[test]
    fn imbalance_stays_finite_with_idle_shards() {
        // One shard idle: the old max/min definition collapsed to +inf.
        let r = snapshot_with_completions(&[90, 0, 90]);
        assert!(r.imbalance().is_finite());
        assert!((r.imbalance() - 1.5).abs() < 1e-12, "{}", r.imbalance());
        // One shard did everything: imbalance equals the shard count.
        let r = snapshot_with_completions(&[0, 0, 120]);
        assert!((r.imbalance() - 3.0).abs() < 1e-12, "{}", r.imbalance());
    }

    #[test]
    fn imbalance_of_an_empty_run_is_one() {
        let r = snapshot_with_completions(&[0, 0]);
        assert_eq!(r.imbalance(), 1.0);
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        run(&mut engine, &[]);
        let live = engine.snapshot();
        assert_eq!(live.imbalance(), 1.0, "empty run must stay comparable");
    }

    #[test]
    fn drain_watchdog_fires_on_a_stalled_pipeline() {
        // A memory that never answers wedges the pipeline with one
        // descriptor in flight forever: quiesce and the functional insert
        // report it as errors rather than hang or panic. SRAM ticks once
        // per system cycle, the cheapest possible stalled cycles.
        let mut cfg = EngineConfig::test_small();
        cfg.shards = 1;
        let mut sram = SramParams::ideal_200mhz();
        sram.read_latency = u64::MAX / 4;
        cfg.shard.memory = MemorySpec::Sram(sram);
        let mut engine = ShardedFlowLut::new(cfg);
        assert!(FlowPipeline::push(
            &mut engine,
            PacketDescriptor::new(0, key(1))
        ));
        assert!(matches!(
            engine.quiesce(),
            Err(SessionError::Stalled {
                completed: 0,
                in_pipeline: 1,
                ..
            })
        ));
        let err =
            FlowStore::insert(&mut engine, key(2)).expect_err("a stalled insert places nothing");
        assert_eq!((err.table, err.key), (ENGINE_BACKEND_NAME, key(2)));
        // The insert went straight to the shard, past the splitter.
        assert_eq!((engine.offered, engine.splitter_stall_cycles), (1, 0));
    }

    #[test]
    fn threaded_engine_spawns_and_clamps_executors() {
        // Each case leaves only one clamp binding, on any host: one
        // shard caps 16 threads at 1, and one more shard and thread than
        // the host has cores caps them at the cores.
        let cores = thread::available_parallelism().map_or(1, |c| c.get());
        for (shards, threads, want, clamp) in [
            (1, 16, 1, "the shard count"),
            (cores + 1, cores + 1, cores, "the host's cores"),
        ] {
            let mut cfg = EngineConfig::test_small();
            cfg.shards = shards;
            cfg.execution = ExecutionMode::Threaded(threads);
            let engine = ShardedFlowLut::new(cfg);
            assert_eq!(
                engine.executor_count(),
                want,
                "{threads} threads over {shards} shards clamp to {clamp}"
            );
            // Dropping the engine joins the pool (hang = shutdown bug).
        }
    }

    #[test]
    fn threaded_run_matches_inline_run() {
        let inline_cfg = EngineConfig::test_small();
        let mut threaded_cfg = EngineConfig::test_small();
        threaded_cfg.execution = ExecutionMode::Threaded(2);
        let mut inline_engine = ShardedFlowLut::new(inline_cfg);
        let mut threaded_engine = ShardedFlowLut::new(threaded_cfg);
        let work = descs(0..300);
        let a = run(&mut inline_engine, &work);
        let b = run(&mut threaded_engine, &work);
        assert_eq!(a, b, "reports diverged");
        assert_eq!(inline_engine.snapshot(), threaded_engine.snapshot());
    }

    #[test]
    fn restore_rejects_splitter_counters_above_2_62() {
        // The splitter's offered and stall counters follow the magic,
        // version, shard count, router seed and clock.
        const OFFERED_AT: usize = 32;
        const STALLS_AT: usize = 40;
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        run(&mut engine, &descs(0..40));
        engine.quiesce().unwrap();
        let blob = engine.checkpoint().expect("a quiesced engine checkpoints");
        assert_eq!(blob[OFFERED_AT..][..8], engine.offered.to_le_bytes());
        assert_eq!(
            blob[STALLS_AT..][..8],
            engine.splitter_stall_cycles.to_le_bytes()
        );
        let with = |at: usize, value: u64| {
            let mut blob = blob.clone();
            blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
            blob
        };
        for at in [OFFERED_AT, STALLS_AT] {
            assert_eq!(
                ShardedFlowLut::restore(EngineConfig::test_small(), &with(at, u64::MAX)).err(),
                Some(CheckpointError::Corrupt("counter above 2^62")),
                "counter at byte {at}"
            );
            // Pushing more descriptors than two shards' staging holds,
            // without ticking, makes the splitter stall, so both
            // counters move.
            let edge = with(at, checkpoint::MAX_COUNTER);
            let mut restored = ShardedFlowLut::restore(EngineConfig::test_small(), &edge)
                .expect("a counter at the bound restores");
            let (offered, stalls) = (restored.offered, restored.splitter_stall_cycles);
            let pushed = 2 * STAGING_CAP as u64 + 1;
            for d in descs(20..20 + pushed) {
                while !FlowPipeline::push(&mut restored, d) {
                    restored.tick();
                }
            }
            FlowPipeline::drain(&mut restored).unwrap();
            assert_eq!(restored.offered, offered + pushed, "counter at byte {at}");
            assert!(
                restored.splitter_stall_cycles > stalls,
                "counter at byte {at}"
            );
            assert_eq!(restored.in_pipeline(), 0);
        }
    }
}
