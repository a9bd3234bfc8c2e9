//! The generic scenario executor: one runner, any backend.
//!
//! [`ScenarioRunner`] materialises a [`Scenario`]'s descriptor stream and
//! drives it into any `dyn FlowStore` through the capability split the
//! workspace is built around: timed backends (the cycle-stepped
//! prototype, the sharded engine) run through the typed `Session` API
//! with periodic occupancy polling, functional stores (the paper's
//! `HashCamTable`, every baseline) take the stream as a plain insert
//! sequence. Either way the run is summarised into one
//! [`ScenarioReport`] shape, so the scenario × backend sweep tabulates
//! uniformly.

use std::collections::HashSet;
use std::time::Instant;

use flowlut_core::backend::{FlowStore, Session};
use flowlut_traffic::PacketDescriptor;

use crate::spec::Scenario;

/// Outcome of one scenario run on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend name (from `FlowStore::name`).
    pub backend: &'static str,
    /// Descriptors offered.
    pub offered: u64,
    /// Descriptors resolved (equals `offered` on functional backends;
    /// on timed backends, from the session's `RunReport`).
    pub completed: u64,
    /// Distinct flow keys in the offered stream.
    pub distinct_flows: u64,
    /// Keys resident in the backend when the run ended.
    pub resident_end: u64,
    /// Insert attempts the backend refused (capacity exhaustion).
    pub rejected: u64,
    /// Keys that overflowed into the CAM/stash path.
    pub cam_spills: u64,
    /// Flows expired by idle-TTL aging (timed backends only).
    pub expired: u64,
    /// Flows evicted by occupancy pressure (timed backends only).
    pub evicted: u64,
    /// Highest CAM occupancy observed while the run was in flight
    /// (timed backends only; functional stores report 0 here and count
    /// spills in [`cam_spills`](Self::cam_spills)).
    pub cam_high_water: u64,
    /// Throughput in million descriptors per second. Simulated-time
    /// rate when [`timed`](Self::timed); wall-clock rate otherwise.
    pub mdesc_per_s: f64,
    /// Whether the backend ran under the cycle-stepped session API.
    pub timed: bool,
}

impl ScenarioReport {
    /// Fraction of offered descriptors whose flow was refused.
    pub fn drop_rate(&self) -> f64 {
        self.rejected as f64 / self.offered.max(1) as f64
    }

    /// Fraction of offered descriptors that pushed a key onto the CAM
    /// overflow path.
    pub fn overflow_rate(&self) -> f64 {
        self.cam_spills as f64 / self.offered.max(1) as f64
    }
}

/// Executes scenarios against backends; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioRunner {
    /// Descriptors offered per `Session::offer` slice on timed backends;
    /// occupancy is polled between slices, so this bounds the CAM
    /// high-water sampling error.
    pub chunk: usize,
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        ScenarioRunner { chunk: 512 }
    }
}

impl ScenarioRunner {
    /// A runner with the default polling granularity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `scenario` against `backend` and summarises the outcome.
    ///
    /// # Panics
    ///
    /// Panics if a timed backend's pipeline deadlocks (see
    /// `Session::offer`) — a bug, not a workload condition.
    pub fn run(&self, scenario: &Scenario, backend: &mut dyn FlowStore) -> ScenarioReport {
        self.run_stream(&scenario.name, &scenario.generate(), backend)
    }

    /// Runs an already-materialised descriptor stream (e.g. one
    /// generated once and replayed against every backend) against
    /// `backend`.
    ///
    /// # Panics
    ///
    /// Panics if a timed backend's pipeline deadlocks.
    pub fn run_stream(
        &self,
        name: &str,
        descs: &[PacketDescriptor],
        backend: &mut dyn FlowStore,
    ) -> ScenarioReport {
        let distinct_flows = descs.iter().map(|d| d.key).collect::<HashSet<_>>().len() as u64;
        let before = backend.op_stats();
        let backend_name = backend.name();

        let mut report = if let Some(pipe) = backend.as_pipeline() {
            let mut session = Session::new(pipe);
            let mut cam_high_water = session.poll().occupancy.cam;
            for slice in descs.chunks(self.chunk.max(1)) {
                session
                    .offer(slice)
                    .expect("an open session whose pipeline does not stall");
                cam_high_water = cam_high_water.max(session.poll().occupancy.cam);
            }
            session
                .drain()
                .expect("one drain of a pipeline that does not stall");
            cam_high_water = cam_high_water.max(session.poll().occupancy.cam);
            let run = session.finish();
            ScenarioReport {
                scenario: name.to_string(),
                backend: backend_name,
                offered: descs.len() as u64,
                completed: run.completed,
                distinct_flows,
                resident_end: 0,
                rejected: 0,
                cam_spills: 0,
                expired: run.stats.expired_ttl,
                evicted: run.stats.pressure_evicted,
                cam_high_water,
                mdesc_per_s: run.mdesc_per_s,
                timed: true,
            }
        } else {
            let start = Instant::now();
            for d in descs {
                // Rejections are the measurement, not an error: the
                // report's drop rate comes from the op-stats delta.
                let _ = backend.insert(d.key);
            }
            let elapsed = start.elapsed().as_secs_f64();
            ScenarioReport {
                scenario: name.to_string(),
                backend: backend_name,
                offered: descs.len() as u64,
                completed: descs.len() as u64,
                distinct_flows,
                resident_end: 0,
                rejected: 0,
                cam_spills: 0,
                expired: 0,
                evicted: 0,
                cam_high_water: 0,
                mdesc_per_s: if elapsed > 0.0 {
                    descs.len() as f64 / elapsed / 1.0e6
                } else {
                    0.0
                },
                timed: false,
            }
        };

        let ops = backend.op_stats().delta_since(&before);
        report.rejected = ops.rejected;
        report.cam_spills = ops.cam_spills;
        report.resident_end = backend.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_core::table::TableConfig;
    use flowlut_core::{FlowLutSim, HashCamTable, SimConfig};

    #[test]
    fn functional_run_reports_membership_and_rates() {
        let scenario = Scenario::new("zipf", 11).zipf(200, 0.98, 1_000);
        let mut table = HashCamTable::new(TableConfig::test_small());
        let r = ScenarioRunner::new().run(&scenario, &mut table);
        assert_eq!(r.scenario, "zipf");
        assert_eq!(r.backend, "hashcam (this paper)");
        assert_eq!(r.offered, 1_000);
        assert_eq!(r.completed, 1_000);
        assert!(!r.timed);
        assert!(r.distinct_flows <= 200);
        assert_eq!(r.resident_end, r.distinct_flows, "well within capacity");
        assert_eq!(r.rejected, 0);
        assert_eq!(r.drop_rate(), 0.0);
        assert!(r.mdesc_per_s > 0.0);
    }

    #[test]
    fn timed_run_goes_through_the_session_api() {
        let scenario = Scenario::new("churn", 5).churn(100, 0.05, 800);
        let mut sim = FlowLutSim::new(SimConfig::test_small());
        let r = ScenarioRunner::new().run(&scenario, &mut sim);
        assert!(r.timed);
        assert_eq!(r.offered, 800);
        assert_eq!(r.completed, 800, "drained sessions resolve everything");
        assert!(r.mdesc_per_s > 0.0, "simulated-time throughput");
    }

    #[test]
    fn adversarial_scenario_drives_the_cam_overflow_path() {
        let cfg = TableConfig::test_small();
        // Region capacity 2·4·2 = 16; 32 mined keys must spill ≥ 16.
        let scenario = Scenario::new("collide", 21).adversarial_for(&cfg, 32, 4, 2);
        let mut table = HashCamTable::new(cfg);
        let r = ScenarioRunner::new().run(&scenario, &mut table);
        assert!(r.cam_spills >= 16, "spills = {}", r.cam_spills);
        assert!(r.overflow_rate() > 0.0);
    }

    #[test]
    fn timed_adversarial_raises_cam_high_water() {
        let cfg = TableConfig::test_small();
        let scenario = Scenario::new("collide-timed", 22).adversarial_for(&cfg, 24, 4, 1);
        let mut sim = FlowLutSim::new(SimConfig::test_small());
        let r = ScenarioRunner::new().run(&scenario, &mut sim);
        assert!(r.timed);
        assert!(r.cam_high_water > 0, "CAM occupancy never observed");
    }

    #[test]
    fn run_stream_matches_run_for_the_same_descriptors() {
        let scenario = Scenario::new("s", 3).uniform(50, 400);
        let descs = scenario.generate();
        let mut a = HashCamTable::new(TableConfig::test_small());
        let mut b = HashCamTable::new(TableConfig::test_small());
        let runner = ScenarioRunner::new();
        let ra = runner.run(&scenario, &mut a);
        let rb = runner.run_stream("s", &descs, &mut b);
        assert_eq!(ra.resident_end, rb.resident_end);
        assert_eq!(ra.distinct_flows, rb.distinct_flows);
        assert_eq!(ra.rejected, rb.rejected);
        assert_eq!(ra.cam_spills, rb.cam_spills);
    }
}
