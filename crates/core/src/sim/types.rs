//! Data types shared by the simulator stages.

use flowlut_traffic::PacketDescriptor;

use crate::fid::{FlowId, PathId};

/// How a descriptor's processing resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedVia {
    /// Matched in the overflow CAM at the sequencer stage.
    CamHit,
    /// Matched on the first memory lookup, on the given path.
    Lu1Hit(PathId),
    /// Matched on the second memory lookup, on the given path.
    Lu2Hit(PathId),
    /// Missed everywhere; inserted into a memory bucket on the given
    /// path.
    InsertedMem(PathId),
    /// Missed everywhere; inserted into the overflow CAM.
    InsertedCam,
    /// A racing packet of the same flow inserted the key while this one
    /// was in flight; resolved to the existing entry at update time.
    DuplicateRace,
    /// Missed everywhere and the table was full: the flow was dropped.
    Dropped,
}

impl ResolvedVia {
    /// `true` if the flow was newly created by this descriptor.
    pub fn is_new_flow(self) -> bool {
        matches!(self, ResolvedVia::InsertedMem(_) | ResolvedVia::InsertedCam)
    }
}

/// How one descriptor left the simulator: the record
/// [`FlowLutSim::completions`](super::FlowLutSim::completions) keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionRecord {
    /// The offered descriptor.
    pub desc: PacketDescriptor,
    /// Resolution.
    pub via: ResolvedVia,
    /// The flow ID FID_GEN produced; `None` when the flow was dropped.
    pub fid: Option<FlowId>,
    /// System cycle the descriptor entered the sequencer queue.
    pub t_offer: u64,
    /// System cycle it passed admission (same-key ordering released).
    pub t_admit: u64,
    /// System cycle its flow ID was produced.
    pub t_done: u64,
}

/// Simulator-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Descriptors offered by the source.
    pub offered: u64,
    /// Descriptors past admission (same-key ordering enforced).
    pub admitted: u64,
    /// Descriptors resolved.
    pub completed: u64,
    /// Resolved via CAM hit at stage 1.
    pub cam_hits: u64,
    /// Resolved via first-lookup match.
    pub lu1_hits: u64,
    /// Resolved via second-lookup match.
    pub lu2_hits: u64,
    /// New flows placed in memory buckets.
    pub inserted_mem: u64,
    /// New flows spilled into the CAM.
    pub inserted_cam: u64,
    /// Same-flow insert races resolved to the existing entry.
    pub duplicate_races: u64,
    /// Flows dropped because the table was full.
    pub drops: u64,
    /// LU1 dispatches per path (load-balance measurement: A, B).
    pub lu1_per_path: [u64; 2],
    /// Bucket-read bursts issued.
    pub reads_issued: u64,
    /// Bucket-write bursts issued.
    pub writes_issued: u64,
    /// Read intents held by the request filter (cycle-counts).
    pub filter_hold_cycles: u64,
    /// Cycles input was stalled by a full sequencer queue.
    pub input_stall_cycles: u64,
    /// Descriptors held for same-key ordering.
    pub same_key_holds: u64,
    /// BWr_Gen releases triggered by the count threshold.
    pub bwr_count_releases: u64,
    /// BWr_Gen releases triggered by timeout.
    pub bwr_timeout_releases: u64,
    /// Deletions processed by the update unit.
    pub deletes: u64,
    /// Flows expired by the incremental idle-TTL scan
    /// (`SimConfig::expiry`).
    pub expired_ttl: u64,
    /// Flows evicted to the victim list by occupancy pressure
    /// (`SimConfig::pressure`).
    pub pressure_evicted: u64,
    /// Sum of admission→completion latency over completed descriptors,
    /// in system cycles.
    pub total_latency_sys: u64,
    /// Maximum admission→completion latency — a *per-run* high-water
    /// mark, reset by `FlowPipeline::begin_run` whenever a `Session`
    /// opens (unlike every other field, which is cumulative), so
    /// repeated runs on one instance each report their own worst case.
    pub max_latency_sys: u64,
}

impl SimStats {
    /// Counter-wise difference `self − earlier`, for per-run reporting on
    /// a simulator that has already processed other work. `max_latency_sys`
    /// is not differenced (it is a high-water mark, not a counter) and is
    /// taken from `self` — correct per-run because the mark is reset by
    /// `FlowPipeline::begin_run` whenever a `Session` opens.
    pub fn delta_since(&self, earlier: &SimStats) -> SimStats {
        let (mut delta, mut earlier) = (*self, *earlier);
        for (d, e) in delta.counters_mut().into_iter().zip(earlier.counters_mut()) {
            *d -= *e;
        }
        delta
    }

    /// Fraction of LU1 dispatches sent to path A.
    pub fn load_share_a(&self) -> f64 {
        let total = self.lu1_per_path[0] + self.lu1_per_path[1];
        if total == 0 {
            0.0
        } else {
            self.lu1_per_path[0] as f64 / total as f64
        }
    }

    /// Fraction of completions that required creating a flow (the
    /// realised miss rate).
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            (self.inserted_mem + self.inserted_cam + self.drops) as f64 / self.completed as f64
        }
    }

    /// Mean admission→completion latency in system cycles.
    pub fn mean_latency_sys(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency_sys as f64 / self.completed as f64
        }
    }

    /// Every counter, in checkpoint order: all the statistics but the
    /// `max_latency_sys` high-water mark, which a checkpoint writes after
    /// them. [`merge`](Self::merge) adds these and
    /// [`delta_since`](Self::delta_since) subtracts them.
    pub fn counters_mut(&mut self) -> [&mut u64; 23] {
        let [lu1_a, lu1_b] = &mut self.lu1_per_path;
        [
            &mut self.offered,
            &mut self.admitted,
            &mut self.completed,
            &mut self.cam_hits,
            &mut self.lu1_hits,
            &mut self.lu2_hits,
            &mut self.inserted_mem,
            &mut self.inserted_cam,
            &mut self.duplicate_races,
            &mut self.drops,
            lu1_a,
            lu1_b,
            &mut self.reads_issued,
            &mut self.writes_issued,
            &mut self.filter_hold_cycles,
            &mut self.input_stall_cycles,
            &mut self.same_key_holds,
            &mut self.bwr_count_releases,
            &mut self.bwr_timeout_releases,
            &mut self.deletes,
            &mut self.expired_ttl,
            &mut self.pressure_evicted,
            &mut self.total_latency_sys,
        ]
    }

    /// Accumulates `other` into `self`, counter-wise. `max_latency_sys`
    /// takes the maximum (it is a high-water mark); `lu1_per_path` adds
    /// element-wise. Multi-channel aggregators use this to fold per-shard
    /// statistics into one system-level view.
    pub fn merge(&mut self, other: &SimStats) {
        let mut other = *other;
        for (a, b) in self.counters_mut().into_iter().zip(other.counters_mut()) {
            *a += *b;
        }
        self.max_latency_sys = self.max_latency_sys.max(other.max_latency_sys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_via_classification() {
        assert!(ResolvedVia::InsertedMem(PathId::A).is_new_flow());
        assert!(ResolvedVia::InsertedCam.is_new_flow());
        assert!(!ResolvedVia::CamHit.is_new_flow());
    }

    #[test]
    fn load_share() {
        let s = SimStats {
            lu1_per_path: [30, 70],
            ..SimStats::default()
        };
        assert!((s.load_share_a() - 0.3).abs() < 1e-12);
        assert_eq!(SimStats::default().load_share_a(), 0.0);
    }

    #[test]
    fn miss_rate() {
        let s = SimStats {
            completed: 10,
            inserted_mem: 2,
            inserted_cam: 1,
            drops: 1,
            ..SimStats::default()
        };
        assert!((s.miss_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_latency() {
        let s = SimStats {
            completed: 4,
            total_latency_sys: 100,
            ..SimStats::default()
        };
        assert!((s.mean_latency_sys() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_maxes_high_water() {
        let mut a = SimStats {
            completed: 10,
            lu1_per_path: [3, 7],
            total_latency_sys: 100,
            max_latency_sys: 40,
            ..SimStats::default()
        };
        let b = SimStats {
            completed: 5,
            lu1_per_path: [1, 2],
            total_latency_sys: 50,
            max_latency_sys: 90,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.completed, 15);
        assert_eq!(a.lu1_per_path, [4, 9]);
        assert_eq!(a.total_latency_sys, 150);
        assert_eq!(a.max_latency_sys, 90);
    }
}
