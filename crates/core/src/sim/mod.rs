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
//! A descriptor's state lives in one reused slab slot while it is in
//! the pipeline. The queues, the waiting lists (threaded through the
//! slab behind one map of the keys in flight) and the memory requests
//! (a bucket read's ID is its slot) all name that slot. A completed
//! descriptor leaves a [`CompletionRecord`] on a bounded queue.
//!
//! The memory models time bursts but carry no data. Flow Match reads a
//! bucket as DRAM holds it: the table's line, or, while a write of the
//! bucket is pending, the line saved before the first update that write
//! carries. A read the filter failed to hold therefore sees stale bytes,
//! as it would in DRAM.

mod types;

pub use types::{CompletionRecord, ResolvedVia, SimStats};

use std::collections::hash_map::Entry;
use std::collections::{vec_deque, HashMap, HashSet, VecDeque};

use flowlut_ddr3::model::MemoryModel;
use flowlut_ddr3::{AccessKind, Completion, MemRequest};
use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::backend::{
    settle, FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats, SessionError,
    SessionProgress,
};
use crate::checkpoint::{self, ByteReader, ByteWriter, CheckpointError, Fnv64, RecordClock};
use crate::codec;
use crate::config::{
    LoadBalancerPolicy, SimConfig, BWR_TIMEOUT_SYS, CAM_LATENCY_SYS, CONTROLLER_QUEUE,
    DLU_QUEUE_DEPTH, MAX_IN_FLIGHT, SEQUENCER_DEPTH,
};
use crate::error::{DeleteQueueFull, InsertError, PreloadError};
use crate::fid::{FlowId, Location, PathId};
use crate::flow_state::{FlowCounters, FlowRecord};
use crate::storage::SparseStorage;
use crate::table::HashCamTable;

/// Which lookup stage a memory read serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LuStage {
    /// First lookup, on the load-balancer-chosen path.
    Lu1,
    /// Second lookup, on the other path after an LU1 miss.
    Lu2,
}

/// A descriptor's state while it is in the pipeline. Its slot is freed
/// at completion, when no queue holds it and every burst of its last
/// read has landed, so a reused slot needs no generation tag.
#[derive(Debug, Clone, Copy)]
struct Slot {
    desc: PacketDescriptor,
    /// Raw 32-bit hash pair (from the hasher or the override).
    hashes: (u32, u32),
    /// Bucket index in each path's memory (Mem1/path A, Mem2/path B).
    buckets: [u32; 2],
    /// Path chosen by the load balancer for LU1 (set at dispatch).
    first_path: Option<PathId>,
    /// System cycle the descriptor entered the sequencer queue.
    t_offer: u64,
    /// System cycle it passed admission (same-key ordering released).
    t_admit: u64,
    /// The lookup its bucket read, queued or in memory, serves.
    stage: LuStage,
    /// Bursts of that read landed so far.
    landed: u32,
    /// The descriptor of the same key waiting next behind this one.
    next_waiter: Option<usize>,
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
    /// User deletion (the Figure 2 "Flow delete" input) of the flow
    /// FID_GEN named, guarded by its key.
    User(FlowId, FlowKey),
}

/// User deletions the update unit's queue holds; past it,
/// [`FlowLutSim::delete_flow`] refuses.
const USER_DELETE_CAP: usize = 256;

/// One lookup path: its memory model plus the DLU state in front of it.
#[derive(Debug)]
struct PathSim {
    ctrl: Box<dyn MemoryModel>,
    /// Slots waiting for a bucket read.
    read_q: VecDeque<usize>,
    /// Slots in `read_q` waiting for their LU1 read: the DLU depth the
    /// CAM stage's dispatch checks. A count, not a walk of `read_q`:
    /// the check runs on every dispatch attempt, stalled ones included,
    /// and a saturated DLU queues dozens of reads.
    lu1_queued: usize,
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
    /// The Request Filter: each key with a descriptor in flight, and the
    /// last slot of its chain, the one in flight and then its waiting
    /// list, linked through `Slot::next_waiter`.
    same_key: HashMap<FlowKey, usize>,
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
    /// Descriptors in the pipeline, by slot; `free_slots` lists the
    /// slots free for the next offer.
    slots: Vec<Slot>,
    free_slots: Vec<usize>,
    /// Records of the latest completions, oldest first.
    completed: VecDeque<CompletionRecord>,
    now_sys: u64,
    stats: SimStats,
    // Steady-state scratch (reused across cycles so the hot path stays
    // allocation-free; pure transients, never part of simulator state).
    /// Per-tick memory-completion staging buffer.
    completions_scratch: Vec<(usize, Completion)>,
    /// Lifecycle scan batch buffer.
    scan_scratch: Vec<(FlowId, FlowRecord)>,
}

impl FlowLutSim {
    /// Completion records [`completions`](Self::completions) keeps: more
    /// than any batch a caller in this workspace runs between drains.
    pub const COMPLETION_CAPACITY: usize = 1 << 15;

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
            lu1_queued: 0,
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
            same_key: HashMap::new(),
            lb_acc: 0x9E37_79B9, // xorshift state; any non-zero seed
            ins_q: VecDeque::new(),
            del_q: VecDeque::new(),
            expiry_cursor: None,
            pressure_cursor: None,
            lifecycle_pending: HashSet::new(),
            victims: VecDeque::new(),
            events: VecDeque::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            completed: VecDeque::new(),
            now_sys: 0,
            stats: SimStats::default(),
            completions_scratch: Vec::new(),
            scan_scratch: Vec::new(),
            bursts_per_bucket,
            mem_ticks_per_sys,
            cfg,
        }
    }

    /// The functional table: the ground truth of resident flows and
    /// their records, and the one copy of each bucket's bytes.
    pub fn table(&self) -> &HashCamTable {
        &self.table
    }

    /// Simulator counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current system cycle.
    pub fn now_sys(&self) -> u64 {
        self.now_sys
    }

    /// Records of the latest completions, oldest first, at most
    /// [`COMPLETION_CAPACITY`](Self::COMPLETION_CAPACITY) (the oldest
    /// drop). Same-key records leave in offer order.
    pub fn completions(&self) -> &VecDeque<CompletionRecord> {
        &self.completed
    }

    /// Takes the completion records, oldest first, leaving the queue
    /// empty.
    pub fn drain_completions(&mut self) -> vec_deque::Drain<'_, CompletionRecord> {
        self.completed.drain(..)
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

    /// Requests deletion of the flow FID_GEN named `fid` (a
    /// [`CompletionRecord::fid`]), guarded by its `key`: the Figure 2
    /// "Flow delete" input. The update unit deletes it asynchronously if
    /// that slot still holds `key`, once no descriptor of `key` is in
    /// the pipeline (in the Request Filter or the sequencer queue); while
    /// it waits, it holds one of the 256 user-deletion places.
    ///
    /// # Errors
    ///
    /// [`DeleteQueueFull`] when the queue is full; tick and retry.
    pub fn delete_flow(&mut self, fid: FlowId, key: FlowKey) -> Result<(), DeleteQueueFull> {
        // `lifecycle_pending` names the queued lifecycle nominations;
        // every other queued deletion is a user's.
        if self.del_q.len() - self.lifecycle_pending.len() >= USER_DELETE_CAP {
            return Err(DeleteQueueFull {
                capacity: USER_DELETE_CAP,
            });
        }
        self.del_q.push_back(DelReq::User(fid, key));
        Ok(())
    }

    /// Offers one descriptor directly into the sequencer queue, bypassing
    /// the configured input-rate shaping — external drivers (the
    /// multi-channel engine) provide their own pacing and call
    /// [`tick`](Self::tick) themselves.
    ///
    /// Returns `false` (and leaves the descriptor untaken) when the
    /// sequencer queue is full.
    pub fn offer(&mut self, desc: PacketDescriptor) -> bool {
        if self.seq_q.len() >= SEQUENCER_DEPTH {
            return false;
        }
        self.push_desc(desc);
        true
    }

    fn push_desc(&mut self, desc: PacketDescriptor) {
        // A key no slot can hold is not hashed (H3 is built for the keys
        // slots hold): the CAM stage drops it.
        let hashes = match desc.hash_override {
            Some(pair) => pair,
            None if self.fits(&desc.key) => self.table.raw_hashes(&desc.key),
            None => (0, 0),
        };
        let (b1, b2) = self.table.bucket_pair_from_hashes(hashes.0, hashes.1);
        let state = Slot {
            desc,
            hashes,
            buckets: [b1, b2],
            first_path: None,
            t_offer: self.now_sys,
            t_admit: 0,
            stage: LuStage::Lu1,
            landed: 0,
            next_waiter: None,
        };
        let slot = self.free_slots.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(state);
        }
        self.slots[slot] = state;
        self.seq_q.push_back(slot);
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

    /// A read's ID is its descriptor's slot; a write's is the number of
    /// update intents it retires. The address gives the bucket.
    fn handle_mem_completion(&mut self, path: usize, c: Completion) {
        let bursts = u64::from(self.bursts_per_bucket);
        let bucket = (c.addr / bursts) as u32;
        match c.kind {
            AccessKind::Read => {
                let slot = c.id as usize;
                let s = &mut self.slots[slot];
                s.landed += 1;
                if s.landed == self.bursts_per_bucket {
                    s.landed = 0;
                    self.flow_match(slot, path, bucket);
                }
            }
            // The bucket's last-numbered burst carries the filter release.
            AccessKind::Write if c.addr % bursts == bursts - 1 => {
                let covers = c.id as u32;
                let p = &mut self.paths[path];
                let remaining = p
                    .pending_write_buckets
                    .get_mut(&bucket)
                    .expect("write completion for unmarked bucket");
                *remaining = remaining.saturating_sub(covers);
                if *remaining == 0 {
                    // DRAM now holds the table's line.
                    p.pending_write_buckets.remove(&bucket);
                    p.saved.release_line(bucket);
                }
            }
            AccessKind::Write => {}
        }
    }

    /// `bucket` of `path` as DRAM holds it: the line saved for it while
    /// a write of it is pending, else the table's line. `None` for a
    /// bucket that holds no key.
    fn dram_line(&self, path: usize, bucket: u32) -> Option<&[u8]> {
        let p = &self.paths[path];
        if p.pending_write_buckets.contains_key(&bucket) {
            p.saved.line_index(bucket).map(|i| p.saved.line_at(i))
        } else {
            self.table.bucket_bytes(PathId::from_index(path), bucket)
        }
    }

    /// The Flow Match block: compare `bucket` of `path`, which the read
    /// of `slot` returned, against the descriptor's key; on LU1 miss
    /// redirect to the other path, on LU2 miss raise an insertion.
    fn flow_match(&mut self, slot: usize, path: usize, bucket: u32) {
        let key = self.slots[slot].desc.key;
        let k = usize::from(self.cfg.table.entries_per_bucket);
        let slot_bytes = self.cfg.table.entry_slot_bytes;
        let found = self
            .dram_line(path, bucket)
            .and_then(|bytes| codec::find_key(bytes, slot_bytes, k, &key));
        let stage = self.slots[slot].stage;
        match found {
            Some(entry) => {
                let path = PathId::from_index(path);
                let fid = FlowId::encode(
                    Location::Mem {
                        path,
                        bucket,
                        slot: entry,
                    },
                    self.cfg.table.entries_per_bucket,
                );
                let via = match stage {
                    LuStage::Lu1 => ResolvedVia::Lu1Hit(path),
                    LuStage::Lu2 => ResolvedVia::Lu2Hit(path),
                };
                self.complete(slot, via, Some(fid));
            }
            None => match stage {
                LuStage::Lu1 => {
                    self.slots[slot].stage = LuStage::Lu2;
                    self.paths[path ^ 1].read_q.push_back(slot);
                }
                LuStage::Lu2 => {
                    self.ins_q.push_back(slot);
                }
            },
        }
    }

    /// `true` when no queue holds `slot` and no read of it is partly
    /// landed: the state [`complete`](Self::complete) frees it in.
    fn unreferenced(&self, slot: usize) -> bool {
        self.slots[slot].landed == 0
            && !self.seq_q.contains(&slot)
            && !self.ins_q.contains(&slot)
            && self.cam_pipe.iter().all(|&(_, s)| s != slot)
            && self.paths.iter().all(|p| !p.read_q.contains(&slot))
    }

    /// The time in ns a flow record stamps for system cycle `cycle`.
    fn ns_at(&self, cycle: u64) -> u64 {
        (cycle as f64 * self.cfg.sys_period_ns()) as u64
    }

    fn complete(&mut self, slot: usize, via: ResolvedVia, fid: Option<FlowId>) {
        debug_assert!(self.unreferenced(slot), "slot {slot} freed while in use");
        let now = self.now_sys;
        let Slot { desc, t_admit, .. } = self.slots[slot];
        let latency = now - t_admit;
        self.stats.total_latency_sys += latency;
        self.stats.max_latency_sys = self.stats.max_latency_sys.max(latency);
        self.stats.completed += 1;
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
        let now_ns = self.ns_at(now);
        if let Some(fid) = fid {
            let frame = u64::from(desc.frame_bytes);
            self.table
                .record_packet(fid, &desc.key, via.is_new_flow(), now_ns, now, frame);
        }
        if self.completed.len() >= Self::COMPLETION_CAPACITY {
            self.completed.pop_front();
        }
        self.completed.push_back(CompletionRecord {
            desc,
            via,
            fid,
            t_offer: self.slots[slot].t_offer,
            t_admit,
            t_done: now,
        });
        self.free_slots.push(slot);
        // Release the next same-key waiter into the CAM stage; with none
        // waiting, the key leaves the filter.
        match self.slots[slot].next_waiter {
            Some(next) => self.admit(next),
            None => {
                self.same_key.remove(&desc.key);
            }
        }
    }

    /// Sends `slot`, whose key the filter holds, into the CAM stage.
    fn admit(&mut self, slot: usize) {
        self.slots[slot].t_admit = self.now_sys;
        self.stats.admitted += 1;
        self.cam_pipe
            .push_back((self.now_sys + CAM_LATENCY_SYS, slot));
    }

    fn admit_from_queue(&mut self) {
        // The same-key filter admits one descriptor per key, so the keys
        // in flight count the descriptors in flight.
        if self.same_key.len() >= MAX_IN_FLIGHT {
            return;
        }
        let Some(slot) = self.seq_q.pop_front() else {
            return;
        };
        match self.same_key.entry(self.slots[slot].desc.key) {
            Entry::Vacant(entry) => {
                entry.insert(slot);
                self.admit(slot);
            }
            // Request Filter waiting list: same-flow order preservation.
            Entry::Occupied(mut entry) => {
                self.stats.same_key_holds += 1;
                let last = std::mem::replace(entry.get_mut(), slot);
                self.slots[last].next_waiter = Some(slot);
            }
        }
    }

    /// Pops at most one descriptor whose CAM-stage latency has elapsed:
    /// CAM hits complete here; misses are dispatched to a path.
    ///
    /// Dispatch applies DLU back-pressure: a descriptor whose target
    /// path's LU1 queue is at [`DLU_QUEUE_DEPTH`] stalls in
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
        let (_, slot) = *self.cam_pipe.front().expect("checked non-empty");
        let key = self.slots[slot].desc.key;
        if let Some(fid) = self.table.cam_peek(&key) {
            self.cam_pipe.pop_front();
            self.complete(slot, ResolvedVia::CamHit, Some(fid));
            return;
        }
        // No bucket holds a key no slot can hold, nor takes it in: drop
        // it without a read.
        if !self.fits(&key) {
            self.cam_pipe.pop_front();
            self.complete(slot, ResolvedVia::Dropped, None);
            return;
        }
        // The load balancer decides once; a full DLU stalls the pipe
        // rather than re-routing (hardware honours the configured split).
        let path = match self.slots[slot].first_path {
            Some(p) => p,
            None => {
                let p = self.choose_path(slot);
                self.slots[slot].first_path = Some(p);
                p
            }
        };
        let dlu = &self.paths[path.index()];
        debug_assert_eq!(
            dlu.lu1_queued,
            dlu.read_q
                .iter()
                .filter(|&&r| self.slots[r].stage == LuStage::Lu1)
                .count(),
            "LU1 reads queued on {path:?}"
        );
        if dlu.lu1_queued >= DLU_QUEUE_DEPTH {
            // DLU full: stall the sequencer this cycle.
            self.stats.input_stall_cycles += 1;
            return;
        }
        self.cam_pipe.pop_front();
        self.stats.lu1_per_path[path.index()] += 1;
        let dlu = &mut self.paths[path.index()];
        dlu.read_q.push_back(slot);
        dlu.lu1_queued += 1;
    }

    /// `true` when a slot can hold `key` ([`codec::check_fit`]).
    fn fits(&self, key: &FlowKey) -> bool {
        codec::check_fit(key, self.cfg.table.entry_slot_bytes).is_ok()
    }

    fn choose_path(&mut self, slot: usize) -> PathId {
        match self.cfg.load_balancer {
            LoadBalancerPolicy::HashSplit => {
                if self.slots[slot].hashes.0 & 1 == 0 {
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
            if self.same_key.contains_key(&record.key) || self.lifecycle_pending.contains(&id) {
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
                !self.same_key.contains_key(&r.key) && !self.lifecycle_pending.contains(id)
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

    /// Re-validates a deletion at the slot its flow ID names (a hash
    /// override may place a flow outside its buckets) and deletes there.
    fn process_delete(&mut self) {
        let Some(req) = self.del_q.pop_front() else {
            return;
        };
        let (DelReq::ExpireTtl(fid, key) | DelReq::Evict(fid, key) | DelReq::User(fid, key)) = req;
        if !matches!(req, DelReq::User(..)) {
            self.lifecycle_pending.remove(&fid);
            // Lifecycle deletions skip a key in flight.
            if self.same_key.contains_key(&key) {
                return;
            }
        } else if self.same_key.contains_key(&key)
            || self.seq_q.iter().any(|&s| self.slots[s].desc.key == key)
        {
            // A user deletion waits for every descriptor of its key in
            // the pipeline, which would otherwise find the flow gone
            // (and insert it again) or complete on a freed slot.
            self.del_q.push_back(req);
            return;
        }
        // The flow may have left its slot since it was named.
        let Some(record) = self.table.record(fid).filter(|r| r.key == key) else {
            return;
        };
        match req {
            DelReq::ExpireTtl(..) => {
                // Re-validate in cycle time: the flow may have been
                // touched since the scan stride visited it.
                let idle = self.now_sys.saturating_sub(record.last_touch_sys);
                if self
                    .cfg
                    .expiry
                    .is_none_or(|policy| idle <= policy.idle_timeout_cycles)
                {
                    return;
                }
                self.stats.expired_ttl += 1;
                self.push_event(FlowEventKind::ExpiredTtl, key);
            }
            DelReq::Evict(..) => {
                let Some(policy) = self.cfg.pressure else {
                    return;
                };
                // Pressure may have eased since the nomination.
                if self.table.occupancy().cam < u64::from(policy.cam_high_water) {
                    return;
                }
                if self.victims.len() >= policy.victim_cap {
                    self.victims.pop_front();
                }
                self.victims.push_back(record);
                self.stats.pressure_evicted += 1;
                self.push_event(FlowEventKind::EvictedPressure, key);
            }
            DelReq::User(..) => {}
        }
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
        let Some(slot) = self.ins_q.pop_front() else {
            return;
        };
        let key = self.slots[slot].desc.key;
        let [b1, b2] = self.slots[slot].buckets;
        // The final miss was detected by the LU2 path's Flow Match, whose
        // Ins_req goes to its own Updt block: prefer that path's bucket.
        let prefer = self.slots[slot]
            .first_path
            .expect("inserting descriptor was dispatched")
            .other();
        match self
            .table
            .insert_with_buckets_preferring(key, b1, b2, prefer)
        {
            Ok(fid) => match fid.decode(self.cfg.table.entries_per_bucket) {
                Location::Mem {
                    path,
                    bucket,
                    slot: entry,
                } => {
                    // DRAM keeps the bucket without the new flow until
                    // the write lands.
                    let width = self.cfg.table.entry_slot_bytes;
                    if let Some(line) = self.save_line(path.index(), bucket) {
                        let at = usize::from(entry) * width;
                        codec::clear_slot(&mut line[at..at + width]);
                    }
                    self.add_update_intent(path.index(), bucket);
                    self.complete(slot, ResolvedVia::InsertedMem(path), Some(fid));
                }
                Location::Cam(_) => {
                    self.complete(slot, ResolvedVia::InsertedCam, Some(fid));
                }
            },
            // A full table drops the new flow, as the prototype does; a
            // `PressurePolicy`, when set, sheds cold flows as the CAM fills.
            Err(InsertError::TableFull) => {
                self.complete(slot, ResolvedVia::Dropped, None);
            }
            // Duplicate-race backstop: unreachable under the same-key
            // waiting list, but a resident key must not be inserted twice.
            Err(InsertError::Duplicate(fid)) => {
                self.complete(slot, ResolvedVia::DuplicateRace, Some(fid));
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
        let i = p.saved.claim_line(bucket);
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
                .is_some_and(|t| now - t >= BWR_TIMEOUT_SYS);
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
            let room = CONTROLLER_QUEUE >= self.paths[path].ctrl.queued_len() + bursts;
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
            let Some(slot) = self.paths[path].read_q.pop_front() else {
                break;
            };
            let bucket = self.slots[slot].buckets[path];
            if self.paths[path].pending_write_buckets.contains_key(&bucket) {
                // Request Filter: a write to this bucket is pending.
                self.stats.filter_hold_cycles += 1;
                self.paths[path].read_q.push_back(slot);
                continue;
            }
            let room = CONTROLLER_QUEUE >= self.paths[path].ctrl.queued_len() + bursts;
            if !room {
                self.paths[path].read_q.push_front(slot);
                break;
            }
            if self.slots[slot].stage == LuStage::Lu1 {
                self.paths[path].lu1_queued -= 1;
            }
            self.issue_bucket_read(path, slot, bucket);
            if serialize {
                return;
            }
        }
    }

    fn issue_bucket_read(&mut self, path: usize, slot: usize, bucket: u32) {
        for j in 0..self.bursts_per_bucket {
            let addr = u64::from(bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            self.paths[path]
                .ctrl
                .enqueue(MemRequest::read(slot as u64, addr))
                .expect("DLU checked controller room");
            self.stats.reads_issued += 1;
        }
    }

    fn issue_bucket_write(&mut self, path: usize, w: WriteIntent) {
        for j in 0..self.bursts_per_bucket {
            let addr = u64::from(w.bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            self.paths[path]
                .ctrl
                .enqueue(MemRequest::write(u64::from(w.covers), addr))
                .expect("DLU checked controller room");
            self.stats.writes_issued += 1;
        }
    }
}

/// Magic bytes of a single-channel simulator checkpoint ("FLUT" LE).
const SIM_CHECKPOINT_MAGIC: u32 = 0x54554C46;
/// Current checkpoint format version.
const SIM_CHECKPOINT_VERSION: u32 = 3;
/// The fewest blob bytes a flow in a memory takes (a 6-byte location, a
/// length byte and a key byte, 40 bytes of counters): restore reserves
/// each memory for no more flows than the bytes left can hold.
const MIN_MEM_FLOW_BYTES: usize = 48;

/// Reads the header of a checkpoint (magic, version, configuration
/// digest) after checking `cfg`: what [`FlowLutSim::restore`] checks
/// before it reads any state.
fn read_header(cfg: &SimConfig, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
    cfg.validate()
        .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
    if r.u32()? != SIM_CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != SIM_CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let found = r.u64()?;
    let expected = sim_config_digest(cfg);
    if found != expected {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    Ok(())
}

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
    /// Serializes a consistent checkpoint of this (quiescent) simulator.
    ///
    /// The checkpoint (format version 3) captures each resident flow
    /// once, its location, key and counters in ascending flow-ID order,
    /// and one check word folded over every flow's location and key
    /// bytes; cumulative statistics, lifecycle cursors/victims/events,
    /// and the load-balancer PRNG state. [`restore`](Self::restore) rebuilds an
    /// instance whose replay is bit-identical to continuing this one
    /// (`tests/checkpoint_restore.rs`). The memory models are not
    /// captured: they hold no data, and a quiescent one holds no
    /// request, so this instance swaps each for a freshly built one, as
    /// a restored instance starts with. Only the refresh phase moves:
    /// with refresh on, the next refresh falls one tREFI from here.
    ///
    /// Not captured either: completion records and table/CAM
    /// micro-statistics, which do not influence future behaviour.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotQuiescent`] unless
    /// [`quiesce`](FlowPipeline::quiesce) (or a drained, settled
    /// pipeline) came first.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        if !self.is_quiescent() {
            return Err(CheckpointError::NotQuiescent {
                in_pipeline: self.in_pipeline(),
            });
        }
        for path in &mut self.paths {
            path.ctrl = self.cfg.build_memory();
        }
        let k = self.cfg.table.entries_per_bucket;
        let mut w = ByteWriter::new();
        w.put_u32(SIM_CHECKPOINT_MAGIC);
        w.put_u32(SIM_CHECKPOINT_VERSION);
        w.put_u64(sim_config_digest(&self.cfg));
        w.put_u64(self.now_sys);
        w.put_u32(self.lb_acc);
        checkpoint::write_stats(&mut w, &self.stats);
        // The resident flows, after their count and each memory's, in
        // ascending flow-ID order: the table walks in that order, so the
        // byte stream is canonical. The check word covers each flow's
        // location and key bytes.
        let occupancy = self.table.occupancy();
        w.put_u64(self.table.len());
        w.put_u64(occupancy.mem_a);
        w.put_u64(occupancy.mem_b);
        let mut check = Fnv64::new();
        for (id, record) in self.table.records_after(None) {
            let at = w.written().len();
            checkpoint::write_location(&mut w, id.decode(k));
            checkpoint::write_key(&mut w, &record.key);
            check.write_words(&w.written()[at..]);
            checkpoint::write_counters(&mut w, &record);
        }
        w.put_u64(check.finish());
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

    /// Checks what [`restore`](Self::restore) checks before it reads any
    /// state: that `cfg` is valid, and that `bytes` start with a
    /// simulator checkpoint's magic, this format's version (3: a
    /// version-2 blob, which listed each flow twice, is
    /// [`BadVersion(2)`](CheckpointError::BadVersion)) and the digest of
    /// `cfg`. An engine restore checks each shard's blob this way before
    /// it restores any.
    ///
    /// # Errors
    ///
    /// The [`CheckpointError`] `restore` returns for such a blob.
    pub fn check_checkpoint(cfg: &SimConfig, bytes: &[u8]) -> Result<(), CheckpointError> {
        read_header(cfg, &mut ByteReader::new(bytes))
    }

    /// Rebuilds a simulator from a [`checkpoint`](Self::checkpoint) blob.
    ///
    /// `cfg` must describe the same behaviour-relevant configuration the
    /// checkpoint was taken under (guarded by an FNV digest); lifecycle
    /// policies may differ — they are re-read from `cfg`, so a restore
    /// can e.g. tighten the TTL.
    ///
    /// `owns` says whether this simulator may hold a flow of the given
    /// key bytes: a lone simulator holds every key (`|_| true`), an
    /// engine shard only those its router sends it.
    ///
    /// The restored instance keeps the fresh memory models
    /// [`new`](Self::new) builds, as [`checkpoint`](Self::checkpoint)
    /// left the live one.
    ///
    /// The blob lists each resident flow once, in strictly ascending
    /// flow-ID order, after the flow count and each memory's. Those two
    /// size the memories' reservations, bounded by the flows the bytes
    /// left can hold and by each memory's bucket count. One pass reads
    /// the list, each flow in stream order: its location must be in
    /// range, its key a flow key (1 to 64 bytes) that a slot holds and
    /// `owns` accepts, and its ID above the one before; its counters
    /// are bounded (below); and it is placed with its key's bytes copied
    /// from the blob, one bucket claim per flow. After the list each
    /// memory's count must be its flows', and the check word must be the
    /// FNV-1a fold of every flow's location and key bytes, eight at a
    /// time, so a blob whose locations or keys changed in any bit is
    /// refused.
    ///
    /// The clock and every statistic are counters of at most
    /// [`MAX_COUNTER`](checkpoint::MAX_COUNTER). So are each flow
    /// record's packets and bytes, resident flows and victims alike; a
    /// record's first sighting may not come after its last, nor either
    /// stamp after the clock, so the flow's next packet counts on.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a malformed blob or mismatched `cfg`.
    pub fn restore(
        cfg: SimConfig,
        bytes: &[u8],
        owns: impl Fn(&[u8]) -> bool,
    ) -> Result<FlowLutSim, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        read_header(&cfg, &mut r)?;
        let table_cfg = cfg.table;
        let k = table_cfg.entries_per_bucket;
        let mut sim = FlowLutSim::new(cfg);
        sim.now_sys = r.counter()?;
        let clock = RecordClock {
            sys: sim.now_sys,
            ns: sim.ns_at(sim.now_sys),
        };
        sim.lb_acc = r.u32()?;
        sim.stats = checkpoint::read_stats(&mut r)?;
        if sim.stats.offered != sim.stats.completed {
            return Err(CheckpointError::Corrupt("checkpointed mid-pipeline"));
        }
        let flows = r.u64()?;
        let per_path = [r.u64()?, r.u64()?];
        let room = r.rest().len() / MIN_MEM_FLOW_BYTES;
        for path in [PathId::A, PathId::B] {
            let declared = per_path[path.index()].min(room as u64) as usize;
            sim.table.reserve(path, declared);
        }
        let mut check = Fnv64::new();
        let mut last = None;
        for _ in 0..flows {
            let from = r.rest();
            let loc = checkpoint::read_location(&mut r, &table_cfg)?;
            let key = checkpoint::read_flow_key_bytes(&mut r)?;
            check.write_words(&from[..from.len() - r.rest().len()]);
            let fid = FlowId::encode(loc, k);
            if last >= Some(fid) {
                return Err(CheckpointError::Corrupt("placements out of ID order"));
            }
            last = Some(fid);
            if !codec::fits(key.len(), table_cfg.entry_slot_bytes) {
                return Err(CheckpointError::Corrupt("flow key does not fit a slot"));
            }
            if !owns(key) {
                return Err(CheckpointError::Corrupt("flow routed to another shard"));
            }
            let counters = checkpoint::read_counters(&mut r, clock)?;
            sim.table
                .restore_at(loc, key, counters)
                .map_err(CheckpointError::Corrupt)?;
        }
        let occupancy = sim.table.occupancy();
        if [occupancy.mem_a, occupancy.mem_b] != per_path {
            return Err(CheckpointError::Corrupt("memory flow count differs"));
        }
        if r.u64()? != check.finish() {
            return Err(CheckpointError::Corrupt("flow check word differs"));
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
            let record = checkpoint::read_record(&mut r, clock)?;
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
        Ok(sim)
    }

    /// Builds an *empty* simulator already advanced to `now_sys`, with
    /// fresh memory models, as [`restore`](Self::restore) builds one —
    /// the starting point for rescale destination shards, which adopt
    /// flows at the cycle the drained source shards stopped at.
    pub fn warm_start(cfg: SimConfig, now_sys: u64) -> FlowLutSim {
        let mut sim = FlowLutSim::new(cfg);
        sim.now_sys = now_sys;
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

impl FlowStore for FlowLutSim {
    fn name(&self) -> &'static str {
        SIM_BACKEND_NAME
    }

    /// Upsert through the real pipeline: offers a descriptor, then drains,
    /// so the insert pays the same sequencing, DRAM and update-unit costs
    /// a streamed descriptor would. The outcome is the drain's counters:
    /// a new flow, a drop ([`FullError`]) or a hit. A pipeline that
    /// stalls ([`SessionError::Stalled`]) placed nothing, and also
    /// answers [`FullError`].
    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        let before = self.stats;
        let desc = PacketDescriptor::new(before.offered, key);
        let settled = settle(self, |sim| sim.offer(desc)).and_then(|_| self.drain());
        let new_flows = |s: &SimStats| s.inserted_mem + s.inserted_cam;
        match settled {
            Ok(_) if new_flows(&self.stats) > new_flows(&before) => Ok(true),
            Ok(_) if self.stats.drops == before.drops => Ok(false),
            _ => Err(FullError {
                table: SIM_BACKEND_NAME,
                key,
                occupancy: self.table.len(),
                capacity: self.cfg.table.capacity(),
            }),
        }
    }

    /// Answers from the functional ground truth (the table the pipeline
    /// maintains) without spending simulated cycles: a timed lookup of an
    /// absent key would *insert* it, which a membership query must not.
    fn contains(&mut self, key: &FlowKey) -> bool {
        self.table.peek(key).is_some()
    }

    /// Deletes through the update unit: the key is all the caller has,
    /// so its flow ID comes from the key's hash buckets and the CAM. The
    /// deletion is queued, then the pipeline settles until the record is
    /// gone. A stall ([`SessionError::Stalled`]) returns with the
    /// deletion unfinished.
    fn remove(&mut self, key: &FlowKey) -> bool {
        let Some(fid) = self.table.peek(key) else {
            return false;
        };
        let gone = |sim: &mut Self| sim.table.record(fid).is_none_or(|r| r.key != *key);
        // The key was resident either way; a stall leaves its deletion
        // unfinished.
        let _ =
            settle(self, |sim| sim.delete_flow(fid, *key).is_ok()).and_then(|_| settle(self, gone));
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

    fn as_pipeline(&mut self) -> Option<&mut dyn FlowPipeline> {
        Some(self)
    }
}

impl FlowPipeline for FlowLutSim {
    fn begin_run(&mut self) {
        self.stats.max_latency_sys = 0;
    }

    fn push(&mut self, desc: PacketDescriptor) -> bool {
        if self.seq_q.len() >= SEQUENCER_DEPTH {
            self.stats.input_stall_cycles += 1;
            return false;
        }
        self.push_desc(desc);
        true
    }

    fn tick(&mut self) {
        FlowLutSim::tick(self);
    }

    fn poll(&self) -> SessionProgress {
        SessionProgress {
            now_sys: self.now_sys,
            stats: self.stats,
            in_pipeline: self.in_pipeline(),
            occupancy: self.table.occupancy(),
        }
    }

    fn in_pipeline(&self) -> u64 {
        self.stats.offered - self.stats.completed
    }

    /// Also `true` only when DRAM holds every bucket as the table does:
    /// no bucket is held by the Request Filter, and no line is saved.
    fn is_quiescent(&self) -> bool {
        self.in_pipeline() == 0
            && self.del_q.is_empty()
            && self.paths.iter().all(|p| {
                p.ctrl.is_drained()
                    && p.read_q.is_empty()
                    && p.write_q.is_empty()
                    && p.pending_write_buckets.is_empty()
                    && p.saved.is_empty()
                    && p.bwr_pending.is_empty()
            })
    }

    fn poll_events(&mut self) -> Vec<FlowEvent> {
        self.events.drain(..).collect()
    }

    /// Settles until nothing is queued or in flight.
    fn drain(&mut self) -> Result<u64, SessionError> {
        settle(self, |sim| sim.in_pipeline() == 0)
    }

    fn sys_period_ns(&self) -> f64 {
        self.cfg.sys_period_ns()
    }

    fn input_rate_per_cycle(&self) -> f64 {
        self.cfg.input_rate_mhz / self.cfg.sys_clock_mhz()
    }
}

#[cfg(test)]
mod tests;
