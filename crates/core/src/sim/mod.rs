//! The cycle-stepped dual-path flow-LUT simulator (Figure 2 of the
//! paper).
//!
//! [`FlowLutSim`] models the prototype end to end: a rate-limited
//! descriptor source feeds a **sequencer** whose load balancer picks the
//! first lookup path; the overflow **CAM** answers in one system cycle;
//! each path's **DLU** forwards bucket reads to its own memory, modelled
//! behind the object-safe [`flowlut_ddr3::MemoryModel`] trait (the
//! paper's DDR3 controller by default; DDR4/HBM2/SRAM via
//! [`SimConfig::memory`](crate::config::SimConfig)); **Flow Match**
//! compares returned bucket bytes against the descriptor's tuple; a miss
//! redirects to the other path (LU2), and a second miss raises an
//! insertion to the **update unit**, whose per-path **BWr_Gen** batches
//! bucket writes into bursts. **FID_GEN** semantics are realised by
//! completing each descriptor with the [`FlowId`] of its match or insert
//! location.
//!
//! Two invariants from DESIGN.md are enforced structurally:
//!
//! * **Per-flow order**: the sequencer holds a descriptor whose key has
//!   an in-flight predecessor (the Request Filter's "waiting list"), so
//!   same-flow completions leave in arrival order.
//! * **No stale reads**: a bucket with a pending (batched or in-flight)
//!   write blocks lookup reads to that bucket until the write lands.
//!
//! The memory models time bursts but carry no data. Flow Match reads a
//! bucket as DRAM holds it: the table's line, or, while a write of the
//! bucket is pending, the line saved before the first update that write
//! carries. A read the filter failed to hold therefore sees stale bytes,
//! as it would in DRAM.

mod types;

pub use types::{DescState, LuStage, ResolvedVia, SimStats};

use std::collections::{HashMap, HashSet, VecDeque};

use flowlut_ddr3::model::MemoryModel;
use flowlut_ddr3::{AccessKind, Completion, MemRequest};
use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::backend::{
    FlowBackend, FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats,
    SessionProgress,
};
use crate::checkpoint::{self, ByteReader, ByteWriter, CheckpointError, Fnv64};
use crate::codec;
use crate::config::{LoadBalancerPolicy, SimConfig};
use crate::error::{InsertError, PreloadError};
use crate::fid::{FlowId, Location, PathId};
use crate::flow_state::{FlowCounters, FlowRecord};
use crate::storage::SparseStorage;
use crate::table::HashCamTable;

/// A lookup read waiting in a DLU.
#[derive(Debug, Clone, Copy)]
struct ReadIntent {
    desc: usize,
    stage: LuStage,
    bucket: u32,
}

/// A released bucket write waiting for controller room.
#[derive(Debug, Clone, Copy)]
struct WriteIntent {
    bucket: u32,
    /// Number of update intents this write retires (coalesced).
    covers: u32,
}

/// A deletion request queued for the update unit. A lifecycle
/// nomination names the slot the scan found the flow in, which need not
/// be one of its key's hash buckets (a hash override places flows
/// elsewhere).
#[derive(Debug, Clone, Copy)]
enum DelReq {
    /// TTL-expiry nominated by the incremental [`ExpiryPolicy`] scan:
    /// re-validated in *cycle* time at processing (the flow may have
    /// been touched since the scan stride visited it).
    ///
    /// [`ExpiryPolicy`]: crate::config::ExpiryPolicy
    ExpireTtl(FlowId, FlowKey),
    /// Pressure eviction nominated by the [`PressurePolicy`] scan when
    /// CAM occupancy crossed the high-water mark; the victim's record is
    /// preserved on the bounded victim list.
    ///
    /// [`PressurePolicy`]: crate::config::PressurePolicy
    Evict(FlowId, FlowKey),
    /// Unconditional user deletion (the Figure 2 "Flow delete" input).
    User(FlowKey),
}

/// Context attached to an outstanding memory request.
#[derive(Debug, Clone, Copy)]
enum MemTag {
    /// One burst of a bucket read for a lookup.
    LookupPart { asm: usize },
    /// One burst of a bucket write; `last` carries the filter release.
    WritePart {
        path: usize,
        bucket: u32,
        covers: u32,
        last: bool,
    },
}

/// A multi-burst bucket read, complete when all its bursts are.
#[derive(Debug)]
struct ReadAssembly {
    desc: usize,
    stage: LuStage,
    path: usize,
    bucket: u32,
    /// Bursts completed so far.
    got: u32,
}

/// One lookup path: its memory model plus the DLU state in front of it.
#[derive(Debug)]
struct PathSim {
    ctrl: Box<dyn MemoryModel>,
    read_q: VecDeque<ReadIntent>,
    write_q: VecDeque<WriteIntent>,
    /// Buckets with pending (batched or in-flight) writes → outstanding
    /// update-intent count. Reads to these buckets are held (Req Filter).
    pending_write_buckets: HashMap<u32, u32>,
    /// For each bucket in `pending_write_buckets`, the line DRAM holds
    /// until the writes land: the bucket before the first update they
    /// carry. Lines are one bucket wide; released as the bucket leaves.
    saved: SparseStorage,
    /// BWr_Gen accumulation: one entry per update intent (bucket index).
    bwr_pending: Vec<u32>,
    bwr_first_cycle: Option<u64>,
}

/// The timed flow lookup engine.
#[derive(Debug)]
pub struct FlowLutSim {
    cfg: SimConfig,
    bursts_per_bucket: u32,
    mem_ticks_per_sys: u32,
    table: HashCamTable,
    paths: [PathSim; 2],
    // Sequencer.
    seq_q: VecDeque<usize>,
    cam_pipe: VecDeque<(u64, usize)>,
    wait_by_key: HashMap<FlowKey, VecDeque<usize>>,
    inflight_keys: HashSet<FlowKey>,
    lb_acc: u32,
    // Update unit.
    ins_q: VecDeque<usize>,
    del_q: VecDeque<DelReq>,
    // Flow-lifecycle layer (all inert unless the policies are set).
    /// Resume point of the incremental TTL scan (`None` = start over).
    expiry_cursor: Option<FlowId>,
    /// Resume point of the pressure scan.
    pressure_cursor: Option<FlowId>,
    /// Flows with a queued lifecycle deletion, so repeated scan passes
    /// don't grow `del_q` without bound.
    lifecycle_pending: HashSet<FlowId>,
    /// Bounded list of pressure-eviction victims awaiting collection.
    victims: VecDeque<FlowRecord>,
    /// Bounded queue of lifecycle events awaiting [`FlowPipeline::poll_events`].
    events: VecDeque<FlowEvent>,
    // Descriptor slab and memory bookkeeping.
    descs: Vec<DescState>,
    mem_tags: HashMap<u64, MemTag>,
    assemblies: HashMap<usize, ReadAssembly>,
    next_mem_id: u64,
    next_asm_id: usize,
    now_sys: u64,
    stats: SimStats,
    last_completion_cycle: u64,
    // Steady-state scratch (reused across cycles so the hot path stays
    // allocation-free; pure transients, never part of simulator state).
    /// Per-tick memory-completion staging buffer.
    completions_scratch: Vec<(usize, Completion)>,
    /// Lifecycle scan batch buffer.
    scan_scratch: Vec<(FlowId, FlowRecord)>,
}

impl FlowLutSim {
    /// Builds a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`SimConfig::validate`] first for fallible handling.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        let bursts_per_bucket = cfg.table.bursts_per_bucket(cfg.mem_burst_bytes());
        let mem_ticks_per_sys = cfg.mem_ticks_per_sys();
        let mk_path = || PathSim {
            ctrl: cfg.build_memory(),
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            pending_write_buckets: HashMap::new(),
            saved: SparseStorage::with_line_bytes(cfg.table.bucket_bytes()),
            bwr_pending: Vec::new(),
            bwr_first_cycle: None,
        };
        FlowLutSim {
            table: HashCamTable::new(cfg.table),
            paths: [mk_path(), mk_path()],
            seq_q: VecDeque::new(),
            cam_pipe: VecDeque::new(),
            wait_by_key: HashMap::new(),
            inflight_keys: HashSet::new(),
            lb_acc: 0x9E37_79B9, // xorshift state; any non-zero seed
            ins_q: VecDeque::new(),
            del_q: VecDeque::new(),
            expiry_cursor: None,
            pressure_cursor: None,
            lifecycle_pending: HashSet::new(),
            victims: VecDeque::new(),
            events: VecDeque::new(),
            descs: Vec::new(),
            mem_tags: HashMap::new(),
            assemblies: HashMap::new(),
            next_mem_id: 0,
            next_asm_id: 0,
            now_sys: 0,
            stats: SimStats::default(),
            last_completion_cycle: 0,
            completions_scratch: Vec::new(),
            scan_scratch: Vec::new(),
            bursts_per_bucket,
            mem_ticks_per_sys,
            cfg,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The functional table: the ground truth of resident flows and
    /// their records, and the one copy of each bucket's bytes.
    pub fn table(&self) -> &HashCamTable {
        &self.table
    }

    /// The memory model behind `path`: the timing of its bursts, and its
    /// statistics. It holds no data; the table holds every bucket.
    pub fn memory(&self, path: PathId) -> &dyn MemoryModel {
        self.paths[path.index()].ctrl.as_ref()
    }

    /// Simulator counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current system cycle.
    pub fn now_sys(&self) -> u64 {
        self.now_sys
    }

    /// Completed descriptor states (resolution, timing, flow IDs), in
    /// slab order (= offer order).
    pub fn descriptors(&self) -> &[DescState] {
        &self.descs
    }

    /// Preloads flows into the table, which DRAM reads see, without
    /// spending simulated cycles — the "table occupied with 10K entries"
    /// setup of Table II(B).
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] wrapping the first [`InsertError`]
    /// encountered (duplicate key, table full, or a key no slot can
    /// hold) and the number of keys loaded before it. Preload is not
    /// transactional: those earlier keys remain loaded, so a partially
    /// preloaded simulator still answers lookups for them.
    pub fn preload<I>(&mut self, keys: I) -> Result<usize, PreloadError>
    where
        I: IntoIterator<Item = FlowKey>,
    {
        let counters = FlowCounters::first_packet(0, self.now_sys, 0);
        self.place_flows(keys.into_iter().map(|key| (key, counters)))
    }

    /// Inserts each flow with its counters through the table: the body
    /// of [`preload`](Self::preload) and [`adopt_flows`](Self::adopt_flows).
    fn place_flows(
        &mut self,
        mut flows: impl Iterator<Item = (FlowKey, FlowCounters)>,
    ) -> Result<usize, PreloadError> {
        // Inserts prefer Mem1; Mem2 takes only the flows whose Mem1 bucket
        // is full, and grows as it needs.
        self.table.reserve(PathId::A, flows.size_hint().0);
        let mut inserted = 0;
        flows
            .try_for_each(|(key, counters)| {
                self.table.insert_flow(key, counters)?;
                inserted += 1;
                Ok(())
            })
            .map(|()| inserted)
            .map_err(|cause| PreloadError { inserted, cause })
    }

    /// Requests deletion of `key` (the Figure 2 "Flow delete" input).
    /// Processed asynchronously by the update unit.
    pub fn delete_flow(&mut self, key: FlowKey) {
        self.del_q.push_back(DelReq::User(key));
    }

    /// Offers one descriptor directly into the sequencer queue, bypassing
    /// the configured input-rate shaping — external drivers (the
    /// multi-channel engine) provide their own pacing and call
    /// [`tick`](Self::tick) themselves.
    ///
    /// Returns `false` (and leaves the descriptor untaken) when the
    /// sequencer queue is full.
    pub fn offer(&mut self, desc: PacketDescriptor) -> bool {
        if self.seq_q.len() >= self.cfg.sequencer_depth {
            return false;
        }
        self.push_desc(desc);
        true
    }

    /// Descriptors offered but not yet resolved (queued or in flight).
    pub fn in_pipeline(&self) -> u64 {
        self.stats.offered - self.stats.completed
    }

    fn push_desc(&mut self, desc: PacketDescriptor) {
        // A key no slot can hold is not hashed (H3 is built for the keys
        // slots hold): the CAM stage drops it.
        let hashes = match desc.hash_override {
            Some(pair) => pair,
            None if self.fits(&desc.key) => self.table.raw_hashes(&desc.key),
            None => (0, 0),
        };
        let buckets = self.table.bucket_pair_from_hashes(hashes.0, hashes.1);
        let idx = self.descs.len();
        self.descs.push(DescState {
            desc,
            hashes,
            buckets,
            first_path: None,
            t_offer: self.now_sys,
            t_admit: 0,
            t_done: None,
            via: None,
            fid: None,
        });
        self.seq_q.push_back(idx);
        self.stats.offered += 1;
    }

    /// Advances one system-clock cycle.
    pub fn tick(&mut self) {
        self.now_sys += 1;

        // 1. Memory clocks (model-specific ratio per system cycle,
        //    both paths). The staging buffer is a reused scratch field:
        //    it must be out of `self` while completions are handled
        //    (handle_mem_completion takes `&mut self`).
        let mut completions = std::mem::take(&mut self.completions_scratch);
        for p in 0..2 {
            for _ in 0..self.mem_ticks_per_sys {
                completions.extend(self.paths[p].ctrl.tick().iter().map(|&c| (p, c)));
            }
        }
        // 2. Flow Match / write retirement.
        for (p, c) in completions.drain(..) {
            self.handle_mem_completion(p, c);
        }
        self.completions_scratch = completions;
        // 3. Flow-lifecycle scans (inert unless the policies are set):
        //    amortized incremental strides, never a stop-the-world walk.
        self.expiry_scan();
        self.pressure_scan();
        // 4. Update unit (Req_Arb: one deletion, one insertion per cycle).
        self.process_delete();
        self.process_insert();
        // 5. BWr_Gen release check.
        for p in 0..2 {
            self.bwr_release(p);
        }
        // 6. Sequencer: CAM stage then admission.
        self.cam_stage_pop();
        self.admit_from_queue();
        // 7. DLUs push work into the controllers.
        for p in 0..2 {
            self.dlu_issue(p);
        }
    }

    /// Advances `cycles` system-clock cycles in one call — the
    /// epoch-batched form of [`tick`](Self::tick) for drivers that know
    /// no input will arrive for a stretch (idle-time advancement for
    /// flow expiry, fixed-length warm-up, coarse-grained co-simulation).
    pub fn tick_many(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    fn handle_mem_completion(&mut self, path: usize, c: Completion) {
        let tag = self
            .mem_tags
            .remove(&c.id)
            .expect("completion for unknown request");
        match tag {
            MemTag::LookupPart { asm } => {
                let done = {
                    let a = self.assemblies.get_mut(&asm).expect("live assembly");
                    debug_assert_eq!(a.path, path);
                    debug_assert_eq!(c.kind, AccessKind::Read);
                    a.got += 1;
                    a.got == self.bursts_per_bucket
                };
                if done {
                    let a = self.assemblies.remove(&asm).expect("live assembly");
                    self.flow_match(a);
                }
            }
            MemTag::WritePart {
                path: wpath,
                bucket,
                covers,
                last,
            } => {
                debug_assert_eq!(wpath, path);
                if last {
                    let p = &mut self.paths[path];
                    let remaining = p
                        .pending_write_buckets
                        .get_mut(&bucket)
                        .expect("write completion for unmarked bucket");
                    *remaining = remaining.saturating_sub(covers);
                    if *remaining == 0 {
                        // DRAM now holds the table's line.
                        p.pending_write_buckets.remove(&bucket);
                        p.saved.release_line(u64::from(bucket));
                    }
                }
            }
        }
    }

    /// `bucket` of `path` as DRAM holds it: the line saved for it while
    /// a write of it is pending, else the table's line. `None` for a
    /// bucket that holds no key.
    fn dram_line(&self, path: usize, bucket: u32) -> Option<&[u8]> {
        let p = &self.paths[path];
        if p.pending_write_buckets.contains_key(&bucket) {
            p.saved
                .line_index(u64::from(bucket))
                .map(|i| p.saved.line_at(i))
        } else {
            self.table.bucket_bytes(PathId::from_index(path), bucket)
        }
    }

    /// The Flow Match block: compare the bucket the read returned against
    /// the descriptor's key; on LU1 miss redirect to the other path, on
    /// LU2 miss raise an insertion.
    fn flow_match(&mut self, a: ReadAssembly) {
        let key = self.descs[a.desc].desc.key;
        let k = usize::from(self.cfg.table.entries_per_bucket);
        let slot_bytes = self.cfg.table.entry_slot_bytes;
        let found = self
            .dram_line(a.path, a.bucket)
            .and_then(|bytes| codec::find_key(bytes, slot_bytes, k, &key));
        match found {
            Some(slot) => {
                let path = PathId::from_index(a.path);
                let fid = FlowId::encode(
                    Location::Mem {
                        path,
                        bucket: a.bucket,
                        slot,
                    },
                    self.cfg.table.entries_per_bucket,
                );
                let via = match a.stage {
                    LuStage::Lu1 => ResolvedVia::Lu1Hit(path),
                    LuStage::Lu2 => ResolvedVia::Lu2Hit(path),
                };
                self.complete(a.desc, via, Some(fid));
            }
            None => match a.stage {
                LuStage::Lu1 => {
                    let other = a.path ^ 1;
                    let bucket = if other == 0 {
                        self.descs[a.desc].buckets.0
                    } else {
                        self.descs[a.desc].buckets.1
                    };
                    self.paths[other].read_q.push_back(ReadIntent {
                        desc: a.desc,
                        stage: LuStage::Lu2,
                        bucket,
                    });
                }
                LuStage::Lu2 => {
                    self.ins_q.push_back(a.desc);
                }
            },
        }
    }

    fn complete(&mut self, desc: usize, via: ResolvedVia, fid: Option<FlowId>) {
        let now = self.now_sys;
        let key;
        {
            let ds = &mut self.descs[desc];
            debug_assert!(ds.t_done.is_none(), "descriptor completed twice");
            ds.t_done = Some(now);
            ds.via = Some(via);
            ds.fid = fid;
            key = ds.desc.key;
            let latency = now - ds.t_admit;
            self.stats.total_latency_sys += latency;
            self.stats.max_latency_sys = self.stats.max_latency_sys.max(latency);
        }
        self.stats.completed += 1;
        self.last_completion_cycle = now;
        match via {
            ResolvedVia::CamHit => self.stats.cam_hits += 1,
            ResolvedVia::Lu1Hit(_) => self.stats.lu1_hits += 1,
            ResolvedVia::Lu2Hit(_) => self.stats.lu2_hits += 1,
            ResolvedVia::InsertedMem(_) => self.stats.inserted_mem += 1,
            ResolvedVia::InsertedCam => self.stats.inserted_cam += 1,
            ResolvedVia::DuplicateRace => self.stats.duplicate_races += 1,
            ResolvedVia::Dropped => self.stats.drops += 1,
        }
        // Flow-state records, in the slot the flow ID names.
        let now_ns = (now as f64 * self.cfg.sys_period_ns()) as u64;
        let frame = u64::from(self.descs[desc].desc.frame_bytes);
        if let Some(fid) = fid {
            self.table
                .record_packet(fid, &key, via.is_new_flow(), now_ns, now, frame);
        }
        // Release the next same-key waiter into the CAM stage.
        self.inflight_keys.remove(&key);
        if let Some(waiters) = self.wait_by_key.get_mut(&key) {
            if let Some(next) = waiters.pop_front() {
                if waiters.is_empty() {
                    self.wait_by_key.remove(&key);
                }
                self.admit(next);
            } else {
                self.wait_by_key.remove(&key);
            }
        }
    }

    fn admit(&mut self, desc: usize) {
        let key = self.descs[desc].desc.key;
        debug_assert!(!self.inflight_keys.contains(&key));
        self.inflight_keys.insert(key);
        self.descs[desc].t_admit = self.now_sys;
        self.stats.admitted += 1;
        self.cam_pipe
            .push_back((self.now_sys + self.cfg.cam_latency_sys, desc));
    }

    fn admit_from_queue(&mut self) {
        // The same-key filter admits one descriptor per key, so the
        // in-flight keys count the descriptors in flight.
        if self.inflight_keys.len() >= self.cfg.max_in_flight {
            return;
        }
        let Some(idx) = self.seq_q.pop_front() else {
            return;
        };
        let key = self.descs[idx].desc.key;
        if self.inflight_keys.contains(&key) {
            // Request Filter waiting list: same-flow order preservation.
            self.stats.same_key_holds += 1;
            self.wait_by_key.entry(key).or_default().push_back(idx);
            return;
        }
        self.admit(idx);
    }

    /// Pops at most one descriptor whose CAM-stage latency has elapsed:
    /// CAM hits complete here; misses are dispatched to a path.
    ///
    /// Dispatch applies DLU back-pressure: a descriptor whose target
    /// path's LU1 queue is at [`SimConfig::dlu_queue_depth`] stalls in
    /// the CAM pipe (head-of-line, as a hardware FIFO would). LU2
    /// redirects are exempt — they drain existing work and blocking them
    /// could deadlock the pipeline.
    fn cam_stage_pop(&mut self) {
        let ready = self
            .cam_pipe
            .front()
            .is_some_and(|&(t, _)| t <= self.now_sys);
        if !ready {
            return;
        }
        let (_, idx) = *self.cam_pipe.front().expect("checked non-empty");
        let key = self.descs[idx].desc.key;
        if let Some(fid) = self.table.cam_peek(&key) {
            self.cam_pipe.pop_front();
            self.complete(idx, ResolvedVia::CamHit, Some(fid));
            return;
        }
        // No bucket holds a key no slot can hold, nor takes it in: drop
        // it without a read.
        if !self.fits(&key) {
            self.cam_pipe.pop_front();
            self.complete(idx, ResolvedVia::Dropped, None);
            return;
        }
        // The load balancer decides once; a full DLU stalls the pipe
        // rather than re-routing (hardware honours the configured split).
        let path = match self.descs[idx].first_path {
            Some(p) => p,
            None => {
                let p = self.choose_path(idx);
                self.descs[idx].first_path = Some(p);
                p
            }
        };
        if self.paths[path.index()]
            .read_q
            .iter()
            .filter(|r| r.stage == LuStage::Lu1)
            .count()
            >= self.cfg.dlu_queue_depth
        {
            // DLU full: stall the sequencer this cycle.
            self.stats.input_stall_cycles += 1;
            return;
        }
        self.cam_pipe.pop_front();
        self.stats.lu1_per_path[path.index()] += 1;
        let bucket = match path {
            PathId::A => self.descs[idx].buckets.0,
            PathId::B => self.descs[idx].buckets.1,
        };
        self.paths[path.index()].read_q.push_back(ReadIntent {
            desc: idx,
            stage: LuStage::Lu1,
            bucket,
        });
    }

    /// `true` when a slot can hold `key` ([`codec::check_fit`]).
    fn fits(&self, key: &FlowKey) -> bool {
        codec::check_fit(key, self.cfg.table.entry_slot_bytes).is_ok()
    }

    fn choose_path(&mut self, desc: usize) -> PathId {
        match self.cfg.load_balancer {
            LoadBalancerPolicy::HashSplit => {
                if self.descs[desc].hashes.0 & 1 == 0 {
                    PathId::A
                } else {
                    PathId::B
                }
            }
            LoadBalancerPolicy::FixedRatio { path_a_permille } => {
                // Bernoulli split from a private xorshift stream rather
                // than strict interleave: deterministic alternation would
                // correlate with periodic stimulus patterns (e.g. the
                // bank-increment hashes) and skew per-path bank coverage.
                self.lb_acc ^= self.lb_acc << 13;
                self.lb_acc ^= self.lb_acc >> 17;
                self.lb_acc ^= self.lb_acc << 5;
                let threshold = (u64::from(u32::MAX) + 1) * u64::from(path_a_permille) / 1000;
                if u64::from(self.lb_acc) < threshold {
                    PathId::A
                } else {
                    PathId::B
                }
            }
            LoadBalancerPolicy::QueueDepth => {
                let load = |p: usize| self.paths[p].read_q.len() + self.paths[p].ctrl.queued_len();
                if load(0) <= load(1) {
                    PathId::A
                } else {
                    PathId::B
                }
            }
        }
    }

    /// One stride of the incremental TTL scan ([`ExpiryPolicy`]): visits
    /// up to `scan_stride` records per cycle in ID order and nominates
    /// the cycle-idle ones for deletion. Nominations are re-validated by
    /// the update unit, so a flow touched between scan and processing
    /// survives.
    ///
    /// [`ExpiryPolicy`]: crate::config::ExpiryPolicy
    fn expiry_scan(&mut self) {
        let Some(policy) = self.cfg.expiry else {
            return;
        };
        let mut batch = std::mem::take(&mut self.scan_scratch);
        self.expiry_cursor =
            self.table
                .scan_after_into(self.expiry_cursor, policy.scan_stride, &mut batch);
        for (id, record) in batch.drain(..) {
            if self.now_sys.saturating_sub(record.last_touch_sys) <= policy.idle_timeout_cycles {
                continue;
            }
            if self.inflight_keys.contains(&record.key) || self.lifecycle_pending.contains(&id) {
                continue;
            }
            self.lifecycle_pending.insert(id);
            self.del_q.push_back(DelReq::ExpireTtl(id, record.key));
        }
        self.scan_scratch = batch;
    }

    /// One batch of the occupancy-pressure scan ([`PressurePolicy`]):
    /// while CAM occupancy sits at or above the high-water mark, walk
    /// `scan_batch` records per cycle and nominate the coldest for
    /// eviction onto the bounded victim list — graceful degradation
    /// instead of a hard `TableFull`.
    ///
    /// [`PressurePolicy`]: crate::config::PressurePolicy
    fn pressure_scan(&mut self) {
        let Some(policy) = self.cfg.pressure else {
            return;
        };
        if self.table.occupancy().cam < u64::from(policy.cam_high_water) {
            return;
        }
        let mut batch = std::mem::take(&mut self.scan_scratch);
        self.pressure_cursor =
            self.table
                .scan_after_into(self.pressure_cursor, policy.scan_batch, &mut batch);
        let coldest = batch
            .drain(..)
            .filter(|(id, r)| {
                !self.inflight_keys.contains(&r.key) && !self.lifecycle_pending.contains(id)
            })
            .min_by_key(|(id, r)| (r.last_touch_sys, id.raw()));
        if let Some((id, record)) = coldest {
            self.lifecycle_pending.insert(id);
            self.del_q.push_back(DelReq::Evict(id, record.key));
        }
        self.scan_scratch = batch;
    }

    /// Queues a lifecycle event for [`FlowPipeline::poll_events`],
    /// dropping the oldest when the bounded queue is full (an unpolled
    /// long run must not grow memory without bound).
    fn push_event(&mut self, kind: FlowEventKind, key: FlowKey) {
        const EVENT_QUEUE_CAP: usize = 4096;
        if self.events.len() >= EVENT_QUEUE_CAP {
            self.events.pop_front();
        }
        self.events.push_back(FlowEvent {
            kind,
            key,
            now_sys: self.now_sys,
        });
    }

    /// Takes the accumulated pressure-eviction victims (oldest first),
    /// leaving the list empty. The list is bounded by
    /// [`PressurePolicy::victim_cap`](crate::config::PressurePolicy) —
    /// when full, the oldest victim record is discarded.
    pub fn take_victims(&mut self) -> Vec<FlowRecord> {
        self.victims.drain(..).collect()
    }

    fn process_delete(&mut self) {
        let Some(req) = self.del_q.pop_front() else {
            return;
        };
        let (fid, key) = match req {
            DelReq::ExpireTtl(fid, key) => {
                self.lifecycle_pending.remove(&fid);
                let Some(policy) = self.cfg.expiry else {
                    return;
                };
                // Re-validate in cycle time: the flow may have been
                // touched (or completed against) since the scan stride,
                // or have left its slot.
                if self.inflight_keys.contains(&key) {
                    return;
                }
                match self.table.record(fid) {
                    Some(r)
                        if r.key == key
                            && self.now_sys.saturating_sub(r.last_touch_sys)
                                > policy.idle_timeout_cycles => {}
                    _ => return, // gone or re-activated
                }
                self.stats.expired_ttl += 1;
                self.push_event(FlowEventKind::ExpiredTtl, key);
                (fid, key)
            }
            DelReq::Evict(fid, key) => {
                self.lifecycle_pending.remove(&fid);
                let Some(policy) = self.cfg.pressure else {
                    return;
                };
                if self.inflight_keys.contains(&key) {
                    return;
                }
                // Pressure may have eased since the nomination.
                if self.table.occupancy().cam < u64::from(policy.cam_high_water) {
                    return;
                }
                let Some(record) = self.table.record(fid).filter(|r| r.key == key) else {
                    return;
                };
                if self.victims.len() >= policy.victim_cap {
                    self.victims.pop_front();
                }
                self.victims.push_back(record);
                self.stats.pressure_evicted += 1;
                self.push_event(FlowEventKind::EvictedPressure, key);
                (fid, key)
            }
            DelReq::User(key) => match self.table.peek(&key) {
                Some(fid) => (fid, key),
                None => return,
            },
        };
        let bucket = match fid.decode(self.cfg.table.entries_per_bucket) {
            Location::Mem { path, bucket, .. } => Some((path.index(), bucket)),
            Location::Cam(_) => None,
        };
        if let Some((path, bucket)) = bucket {
            // DRAM keeps the bucket as it is until the write lands.
            self.save_line(path, bucket);
        }
        if self.table.delete_at(fid, &key) {
            self.stats.deletes += 1;
            if let Some((path, bucket)) = bucket {
                self.add_update_intent(path, bucket);
            }
        }
    }

    fn process_insert(&mut self) {
        let Some(idx) = self.ins_q.pop_front() else {
            return;
        };
        let key = self.descs[idx].desc.key;
        let (b1, b2) = self.descs[idx].buckets;
        // The final miss was detected by the LU2 path's Flow Match, whose
        // Ins_req goes to its own Updt block: prefer that path's bucket.
        let prefer = self.descs[idx]
            .first_path
            .expect("inserting descriptor was dispatched")
            .other();
        match self
            .table
            .insert_with_buckets_preferring(key, b1, b2, prefer)
        {
            Ok(fid) => match fid.decode(self.cfg.table.entries_per_bucket) {
                Location::Mem { path, bucket, slot } => {
                    // DRAM keeps the bucket without the new flow until
                    // the write lands.
                    let width = self.cfg.table.entry_slot_bytes;
                    if let Some(line) = self.save_line(path.index(), bucket) {
                        let at = usize::from(slot) * width;
                        codec::clear_slot(&mut line[at..at + width]);
                    }
                    self.add_update_intent(path.index(), bucket);
                    self.complete(idx, ResolvedVia::InsertedMem(path), Some(fid));
                }
                Location::Cam(_) => {
                    self.complete(idx, ResolvedVia::InsertedCam, Some(fid));
                }
            },
            // A full table drops the new flow, as the prototype does; a
            // `PressurePolicy`, when set, sheds cold flows as the CAM fills.
            Err(InsertError::TableFull) => {
                self.complete(idx, ResolvedVia::Dropped, None);
            }
            // Duplicate-race backstop: unreachable under the same-key
            // waiting list, but a resident key must not be inserted twice.
            Err(InsertError::Duplicate(fid)) => {
                self.complete(idx, ResolvedVia::DuplicateRace, Some(fid));
            }
            Err(InsertError::KeyDoesNotFit { .. }) => {
                unreachable!("the CAM stage drops keys no slot can hold")
            }
        }
    }

    /// Saves the table's line of `bucket` of `path` as the line DRAM
    /// holds until the bucket's writes land, unless a write of it is
    /// pending already: DRAM then still holds the line saved before the
    /// first. Returns the line when it saved one. A bucket's line is
    /// saved just before it enters the hold set
    /// ([`add_update_intent`](Self::add_update_intent)).
    fn save_line(&mut self, path: usize, bucket: u32) -> Option<&mut [u8]> {
        let p = &mut self.paths[path];
        if p.pending_write_buckets.contains_key(&bucket) {
            return None;
        }
        let i = p.saved.claim_line(u64::from(bucket));
        let line = p.saved.line_at_mut(i);
        match self.table.bucket_bytes(PathId::from_index(path), bucket) {
            Some(bytes) => line.copy_from_slice(bytes),
            None => line.fill(0),
        }
        Some(line)
    }

    fn add_update_intent(&mut self, path: usize, bucket: u32) {
        let p = &mut self.paths[path];
        p.bwr_pending.push(bucket);
        *p.pending_write_buckets.entry(bucket).or_insert(0) += 1;
        p.bwr_first_cycle.get_or_insert(self.now_sys);
    }

    /// BWr_Gen: releases the accumulated updates as a burst of writes
    /// when the count threshold is reached or the oldest update times
    /// out.
    fn bwr_release(&mut self, path: usize) {
        let now = self.now_sys;
        let (by_count, by_timeout) = {
            let p = &self.paths[path];
            if p.bwr_pending.is_empty() {
                return;
            }
            let by_count = p.bwr_pending.len() >= self.cfg.bwr_threshold;
            let by_timeout = p
                .bwr_first_cycle
                .is_some_and(|t| now - t >= self.cfg.bwr_timeout_sys);
            (by_count, by_timeout)
        };
        if !by_count && !by_timeout {
            return;
        }
        if by_count {
            self.stats.bwr_count_releases += 1;
        } else {
            self.stats.bwr_timeout_releases += 1;
        }
        let p = &mut self.paths[path];
        // Coalesce intents per bucket: one write retires them all.
        // Sort then run-length encode in place — same ascending-bucket
        // release order as the former map-and-sort, without the
        // per-release map and pair vector.
        p.bwr_pending.sort_unstable();
        let mut i = 0;
        while i < p.bwr_pending.len() {
            let bucket = p.bwr_pending[i];
            let mut covers = 0u32;
            while i < p.bwr_pending.len() && p.bwr_pending[i] == bucket {
                covers += 1;
                i += 1;
            }
            p.write_q.push_back(WriteIntent { bucket, covers });
        }
        p.bwr_pending.clear();
        p.bwr_first_cycle = None;
    }

    /// The DLU: moves held writes and reads into the memory controller,
    /// respecting the request filter and the bank-selection ablation.
    fn dlu_issue(&mut self, path: usize) {
        // Ablation: without bank selection the path keeps a single
        // request outstanding — no bank-level parallelism.
        let serialize = !self.cfg.bank_select_enabled;
        if serialize && !self.paths[path].ctrl.is_drained() {
            return;
        }
        let bursts = self.bursts_per_bucket as usize;

        // Writes first: they unblock held reads.
        while let Some(&w) = self.paths[path].write_q.front() {
            let room = self.cfg.controller_queue >= self.paths[path].ctrl.queued_len() + bursts;
            if !room {
                break;
            }
            self.paths[path].write_q.pop_front();
            self.issue_bucket_write(path, w);
            if serialize {
                return;
            }
        }

        // Reads: scan the queue once, holding filtered buckets.
        let n = self.paths[path].read_q.len();
        for _ in 0..n {
            let Some(r) = self.paths[path].read_q.pop_front() else {
                break;
            };
            if self.paths[path]
                .pending_write_buckets
                .contains_key(&r.bucket)
            {
                // Request Filter: a write to this bucket is pending.
                self.stats.filter_hold_cycles += 1;
                self.paths[path].read_q.push_back(r);
                continue;
            }
            let room = self.cfg.controller_queue >= self.paths[path].ctrl.queued_len() + bursts;
            if !room {
                self.paths[path].read_q.push_front(r);
                break;
            }
            self.issue_bucket_read(path, r);
            if serialize {
                return;
            }
        }
    }

    fn issue_bucket_read(&mut self, path: usize, r: ReadIntent) {
        let asm = self.next_asm_id;
        self.next_asm_id += 1;
        self.assemblies.insert(
            asm,
            ReadAssembly {
                desc: r.desc,
                stage: r.stage,
                path,
                bucket: r.bucket,
                got: 0,
            },
        );
        for j in 0..self.bursts_per_bucket {
            let id = self.next_mem_id;
            self.next_mem_id += 1;
            let addr = u64::from(r.bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            self.mem_tags.insert(id, MemTag::LookupPart { asm });
            self.paths[path]
                .ctrl
                .enqueue(MemRequest::read(id, addr))
                .expect("DLU checked controller room");
            self.stats.reads_issued += 1;
        }
    }

    fn issue_bucket_write(&mut self, path: usize, w: WriteIntent) {
        for j in 0..self.bursts_per_bucket {
            let id = self.next_mem_id;
            self.next_mem_id += 1;
            let addr = u64::from(w.bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            let last = j + 1 == self.bursts_per_bucket;
            self.mem_tags.insert(
                id,
                MemTag::WritePart {
                    path,
                    bucket: w.bucket,
                    covers: w.covers,
                    last,
                },
            );
            self.paths[path]
                .ctrl
                .enqueue(MemRequest::write(id, addr))
                .expect("DLU checked controller room");
            self.stats.writes_issued += 1;
        }
    }
}

/// Magic bytes of a single-channel simulator checkpoint ("FLUT" LE).
const SIM_CHECKPOINT_MAGIC: u32 = 0x54554C46;
/// Current checkpoint format version.
const SIM_CHECKPOINT_VERSION: u32 = 1;

/// FNV-1a digest over the behaviour-relevant configuration, recorded in
/// checkpoints so a restore into a mismatched configuration fails loudly.
fn sim_config_digest(cfg: &SimConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(cfg.table.buckets_per_mem));
    h.write_u64(u64::from(cfg.table.entries_per_bucket));
    h.write_u64(cfg.table.cam_capacity as u64);
    h.write_u64(cfg.table.entry_slot_bytes as u64);
    h.write_u64(cfg.table.hash_seed);
    h.write_bytes(cfg.memory.name().as_bytes());
    h.write_u64(u64::from(cfg.mem_ticks_per_sys()));
    h.write_u64(cfg.sys_period_ns().to_bits());
    h.finish()
}

impl FlowLutSim {
    /// `true` when nothing is queued, staged, batched, or in flight —
    /// the state [`checkpoint`](Self::checkpoint) requires — so that
    /// DRAM holds every bucket as the table does: no bucket is held by
    /// the Request Filter, and no line is saved.
    pub fn is_quiescent(&self) -> bool {
        self.in_pipeline() == 0
            && self.del_q.is_empty()
            && self.mem_tags.is_empty()
            && self.paths.iter().all(|p| {
                p.read_q.is_empty()
                    && p.write_q.is_empty()
                    && p.pending_write_buckets.is_empty()
                    && p.saved.is_empty()
                    && p.bwr_pending.is_empty()
            })
    }

    /// Drains the pipeline and then keeps ticking until every internal
    /// queue (update unit, BWr_Gen batches, outstanding memory requests)
    /// has settled. Returns the cycles spent.
    ///
    /// # Panics
    ///
    /// Panics if the queues fail to settle in an implausibly long time
    /// (a scheduler deadlock — a bug, not a workload condition).
    pub fn quiesce(&mut self) -> u64 {
        let start = self.now_sys;
        if self.in_pipeline() > 0 {
            FlowPipeline::drain(self);
        }
        let mut guard = 0u64;
        while !self.is_quiescent() {
            FlowLutSim::tick(self);
            guard += 1;
            assert!(
                guard < 2_000_000,
                "internal queues did not settle for 2M cycles — quiesce deadlock"
            );
        }
        self.now_sys - start
    }

    /// Rebuilds both memory controllers in the *canonical* phase for the
    /// current cycle: a fresh controller idle-ticked to `now_sys`.
    ///
    /// Controller-internal device state (refresh countdowns, bus
    /// turnaround history) is traffic-dependent and not serializable
    /// through the object-safe [`MemoryModel`] trait; instead both the
    /// live side (at checkpoint) and the restored side rebuild this
    /// canonical phase, so the two are bit-identical by construction.
    /// Requires quiescence (no outstanding requests may be dropped).
    fn canonicalize_memory(&mut self) {
        debug_assert!(self.is_quiescent());
        let ticks = self.now_sys * u64::from(self.mem_ticks_per_sys);
        for p in 0..2 {
            let mut ctrl = self.cfg.build_memory();
            for _ in 0..ticks {
                let done = ctrl.tick();
                debug_assert!(done.is_empty(), "idle controller completed a request");
            }
            self.paths[p].ctrl = ctrl;
        }
    }

    /// Serializes a consistent checkpoint of this (quiescent) simulator.
    ///
    /// The checkpoint captures resident placements, per-flow records,
    /// cumulative statistics, lifecycle cursors/victims/events, and the
    /// load-balancer PRNG state; [`restore`](Self::restore) rebuilds an
    /// instance whose replay is bit-identical to continuing this one
    /// (`tests/checkpoint_restore.rs`). As a side effect the live
    /// instance's memory controllers are re-phased canonically — a
    /// behaviour-preserving normalization that makes live and restored
    /// instances indistinguishable.
    ///
    /// Not captured: completed-descriptor history
    /// ([`descriptors`](Self::descriptors)) and table/CAM
    /// micro-statistics, which do not influence future behaviour.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotQuiescent`] unless [`quiesce`](Self::quiesce)
    /// (or a drained, settled pipeline) came first.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        if !self.is_quiescent() {
            return Err(CheckpointError::NotQuiescent {
                in_pipeline: self.in_pipeline(),
            });
        }
        self.canonicalize_memory();
        let k = self.cfg.table.entries_per_bucket;
        let mut w = ByteWriter::new();
        w.put_u32(SIM_CHECKPOINT_MAGIC);
        w.put_u32(SIM_CHECKPOINT_VERSION);
        w.put_u64(sim_config_digest(&self.cfg));
        w.put_u64(self.now_sys);
        w.put_u32(self.lb_acc);
        w.put_u64(self.next_mem_id);
        w.put_u64(self.next_asm_id as u64);
        w.put_u64(self.last_completion_cycle);
        checkpoint::write_stats(&mut w, &self.stats);
        // Resident placements, then their records, each in ascending
        // flow-ID order: the table walks in that order, so the byte
        // stream is canonical.
        w.put_u64(self.table.len());
        for (key, loc) in self.table.iter() {
            checkpoint::write_location(&mut w, loc);
            checkpoint::write_key(&mut w, &key);
        }
        w.put_u64(self.table.len());
        for (id, record) in self.table.records_after(None) {
            checkpoint::write_location(&mut w, id.decode(k));
            checkpoint::write_record(&mut w, &record);
        }
        // Lifecycle scan cursors.
        for cursor in [self.expiry_cursor, self.pressure_cursor] {
            match cursor {
                Some(id) => {
                    w.put_u8(1);
                    checkpoint::write_location(&mut w, id.decode(k));
                }
                None => w.put_u8(0),
            }
        }
        // Pending victims and events.
        w.put_u64(self.victims.len() as u64);
        for record in &self.victims {
            checkpoint::write_record(&mut w, record);
        }
        w.put_u64(self.events.len() as u64);
        for event in &self.events {
            w.put_u8(match event.kind {
                FlowEventKind::ExpiredTtl => 0,
                FlowEventKind::EvictedPressure => 1,
            });
            checkpoint::write_key(&mut w, &event.key);
            w.put_u64(event.now_sys);
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds a simulator from a [`checkpoint`](Self::checkpoint) blob.
    ///
    /// `cfg` must describe the same behaviour-relevant configuration the
    /// checkpoint was taken under (guarded by an FNV digest); lifecycle
    /// policies may differ — they are re-read from `cfg`, so a restore
    /// can e.g. tighten the TTL.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a malformed blob or mismatched `cfg`.
    pub fn restore(cfg: SimConfig, bytes: &[u8]) -> Result<FlowLutSim, CheckpointError> {
        cfg.validate()
            .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
        let mut r = ByteReader::new(bytes);
        if r.u32()? != SIM_CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != SIM_CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let found = r.u64()?;
        let expected = sim_config_digest(&cfg);
        if found != expected {
            return Err(CheckpointError::ConfigMismatch { expected, found });
        }
        let table_cfg = cfg.table;
        let k = table_cfg.entries_per_bucket;
        let mut sim = FlowLutSim::new(cfg);
        sim.now_sys = r.u64()?;
        if sim
            .now_sys
            .checked_mul(u64::from(sim.mem_ticks_per_sys))
            .is_none()
        {
            return Err(CheckpointError::Corrupt("clock overflows the memory clock"));
        }
        sim.lb_acc = r.u32()?;
        sim.next_mem_id = r.counter()?;
        sim.next_asm_id = usize::try_from(r.counter()?)
            .map_err(|_| CheckpointError::Corrupt("assembly counter overflow"))?;
        sim.last_completion_cycle = r.u64()?;
        sim.stats = checkpoint::read_stats(&mut r)?;
        if sim.stats.offered != sim.stats.completed {
            return Err(CheckpointError::Corrupt("checkpointed mid-pipeline"));
        }
        // Placements in strictly ascending ID order, as `checkpoint`
        // writes them, each keeping the slot it filled. So Mem1's come
        // first, and Mem2's first reserves room for all that remain.
        let placements = r.u64()?;
        let room = r.room_for(placements, checkpoint::MIN_PLACEMENT_BYTES);
        sim.table.reserve(PathId::A, room);
        let mut placed = Vec::with_capacity(room);
        let mut reserved = PathId::A;
        for _ in 0..placements {
            let loc = checkpoint::read_location(&mut r, &table_cfg)?;
            let key = checkpoint::read_key(&mut r)?;
            let fid = FlowId::encode(loc, k);
            if placed.last().is_some_and(|&(last, _)| last >= fid) {
                return Err(CheckpointError::Corrupt("placements out of ID order"));
            }
            if let Location::Mem { path, .. } = loc {
                if path != reserved {
                    sim.table.reserve(path, room.saturating_sub(placed.len()));
                    reserved = path;
                }
            }
            let slot = sim
                .table
                .restore_at(key, loc)
                .map_err(CheckpointError::Corrupt)?;
            placed.push((fid, slot));
        }
        // Records: as many as placements, in strictly ascending ID order
        // too, each naming the key placed at its location — together,
        // exactly one record per placement. Both lists ascend, so each
        // record is merged into the first placement not below its ID.
        let records = r.u64()?;
        if records != placements {
            return Err(CheckpointError::Corrupt(
                "flow record count differs from placement count",
            ));
        }
        let mut last = None;
        let mut unmatched = placed.iter();
        for _ in 0..records {
            let fid = FlowId::encode(checkpoint::read_location(&mut r, &table_cfg)?, k);
            // The key is compared with the placed one in place, not rebuilt.
            let key = checkpoint::read_key_bytes(&mut r)?;
            let counters = checkpoint::read_counters(&mut r)?;
            if last >= Some(fid) {
                return Err(CheckpointError::Corrupt("flow records out of ID order"));
            }
            last = Some(fid);
            let slot = unmatched
                .find(|&&(id, _)| id >= fid)
                .filter(|&&(id, slot)| id == fid && sim.table.holds(slot, key))
                .ok_or(CheckpointError::Corrupt(
                    "flow record disagrees with its placement",
                ))?;
            *sim.table.counters_at(slot.1) = counters;
        }
        let mut cursors = [None, None];
        for cursor in &mut cursors {
            *cursor = match r.u8()? {
                0 => None,
                1 => Some(FlowId::encode(
                    checkpoint::read_location(&mut r, &table_cfg)?,
                    k,
                )),
                _ => return Err(CheckpointError::Corrupt("unknown cursor tag")),
            };
        }
        sim.expiry_cursor = cursors[0];
        sim.pressure_cursor = cursors[1];
        let victims = r.u64()?;
        for _ in 0..victims {
            let record = checkpoint::read_record(&mut r)?;
            sim.victims.push_back(record);
        }
        let events = r.u64()?;
        for _ in 0..events {
            let kind = match r.u8()? {
                0 => FlowEventKind::ExpiredTtl,
                1 => FlowEventKind::EvictedPressure,
                _ => return Err(CheckpointError::Corrupt("unknown event tag")),
            };
            let key = checkpoint::read_key(&mut r)?;
            let now_sys = r.u64()?;
            sim.events.push_back(FlowEvent { kind, key, now_sys });
        }
        r.finish()?;
        sim.canonicalize_memory();
        Ok(sim)
    }

    /// Builds an *empty* simulator already advanced to `now_sys`, with
    /// its memory controllers in the canonical phase for that cycle —
    /// the starting point for rescale destination shards, which adopt
    /// flows at the cycle the drained source shards stopped at.
    pub fn warm_start(cfg: SimConfig, now_sys: u64) -> FlowLutSim {
        let mut sim = FlowLutSim::new(cfg);
        sim.now_sys = now_sys;
        sim.last_completion_cycle = now_sys;
        sim.canonicalize_memory();
        sim
    }

    /// Adopts migrating flows, as [`preload`](Self::preload) loads keys
    /// (with its errors), each with its preserved counters
    /// under a fresh placement in this instance's table — the rescale
    /// rehoming primitive.
    pub fn adopt_flows<I>(&mut self, records: I) -> Result<usize, PreloadError>
    where
        I: IntoIterator<Item = FlowRecord>,
    {
        self.place_flows(
            records
                .into_iter()
                .map(|record| (record.key, FlowCounters::of(&record))),
        )
    }
}

/// Backend name of the single-channel timed simulator.
const SIM_BACKEND_NAME: &str = "hashcam-sim";

impl FlowLutSim {
    /// Runs one descriptor through the timed pipeline to completion and
    /// returns how it resolved — the primitive behind the functional
    /// [`FlowStore`] view of the simulator.
    fn run_one(&mut self, desc: PacketDescriptor) -> ResolvedVia {
        let idx = self.descs.len();
        self.last_completion_cycle = self.now_sys;
        while !self.offer(desc) {
            self.tick();
        }
        while self.descs[idx].t_done.is_none() {
            self.tick();
            assert!(
                self.now_sys - self.last_completion_cycle < 2_000_000,
                "functional op made no progress for 2M cycles — pipeline deadlock",
            );
        }
        self.descs[idx]
            .via
            .expect("completed descriptor has resolution")
    }
}

impl FlowStore for FlowLutSim {
    fn name(&self) -> &'static str {
        SIM_BACKEND_NAME
    }

    /// Upsert through the real pipeline: offers a descriptor and ticks
    /// until it resolves, so the insert pays the same sequencing, DRAM
    /// and update-unit costs a streamed descriptor would.
    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        let seq = self.descs.len() as u64;
        match self.run_one(PacketDescriptor::new(seq, key)) {
            via if via.is_new_flow() => Ok(true),
            ResolvedVia::Dropped => Err(FullError {
                table: SIM_BACKEND_NAME,
                key,
                occupancy: self.table.len(),
                capacity: self.cfg.table.capacity(),
            }),
            _ => Ok(false),
        }
    }

    /// Answers from the functional ground truth (the table the pipeline
    /// maintains) without spending simulated cycles: a timed lookup of an
    /// absent key would *insert* it, which a membership query must not.
    fn contains(&mut self, key: &FlowKey) -> bool {
        self.table.peek(key).is_some()
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        if self.table.peek(key).is_none() {
            return false;
        }
        self.delete_flow(*key);
        let start = self.now_sys;
        while self.table.peek(key).is_some() {
            self.tick();
            assert!(
                self.now_sys - start < 2_000_000,
                "deletion not processed for 2M cycles — update unit deadlock",
            );
        }
        true
    }

    fn len(&self) -> u64 {
        self.table.len()
    }

    fn capacity(&self) -> u64 {
        self.cfg.table.capacity()
    }

    /// Unified accounting from the simulator counters: one `mem_read` /
    /// `mem_write` is one *bucket* access (burst counts divided by
    /// bursts-per-bucket), every admitted descriptor searches the CAM
    /// once, and no flow is ever relocated.
    fn op_stats(&self) -> OpStats {
        let s = &self.stats;
        let bpb = u64::from(self.bursts_per_bucket);
        OpStats {
            mem_reads: s.reads_issued / bpb,
            mem_writes: s.writes_issued / bpb,
            cam_searches: s.admitted,
            relocations: 0,
            lookups: s.completed,
            inserts: s.inserted_mem + s.inserted_cam + s.drops,
            rejected: s.drops,
            cam_spills: s.inserted_cam,
        }
    }
}

impl FlowPipeline for FlowLutSim {
    fn begin_run(&mut self) {
        self.stats.max_latency_sys = 0;
    }

    fn push(&mut self, desc: PacketDescriptor) -> bool {
        if self.seq_q.len() >= self.cfg.sequencer_depth {
            self.stats.input_stall_cycles += 1;
            return false;
        }
        self.push_desc(desc);
        true
    }

    fn tick(&mut self) {
        FlowLutSim::tick(self);
    }

    fn tick_many(&mut self, cycles: u64) {
        FlowLutSim::tick_many(self, cycles);
    }

    fn poll(&self) -> SessionProgress {
        SessionProgress {
            now_sys: self.now_sys,
            stats: self.stats,
            in_pipeline: self.in_pipeline(),
            occupancy: self.table.occupancy(),
        }
    }

    fn poll_events(&mut self) -> Vec<FlowEvent> {
        self.events.drain(..).collect()
    }

    fn drain(&mut self) -> u64 {
        let start = self.now_sys;
        self.last_completion_cycle = self.now_sys;
        while self.in_pipeline() > 0 {
            FlowLutSim::tick(self);
            assert!(
                self.now_sys - self.last_completion_cycle < 2_000_000,
                "no completion for 2M cycles: {} in flight, {} queued, {} waiting, \
                 {} in insert queue — pipeline deadlock",
                self.inflight_keys.len(),
                self.seq_q.len(),
                self.wait_by_key.values().map(VecDeque::len).sum::<usize>(),
                self.ins_q.len(),
            );
        }
        self.now_sys - start
    }

    fn sys_period_ns(&self) -> f64 {
        self.cfg.sys_period_ns()
    }

    fn input_rate_per_cycle(&self) -> f64 {
        self.cfg.input_rate_mhz / self.cfg.sys_clock_mhz()
    }
}

impl FlowBackend for FlowLutSim {
    fn as_pipeline(&mut self) -> Option<&mut dyn FlowPipeline> {
        Some(self)
    }
}

#[cfg(test)]
mod tests;
