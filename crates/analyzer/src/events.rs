//! The event engine: programmable detectors over flow-processor output.

use flowlut_core::sim::CompletionRecord;
use flowlut_core::{FlowId, HashCamTable, RunReport};

/// Detector thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventThresholds {
    /// Raise [`Event::ElephantFlow`] when a flow first crosses this many
    /// bytes.
    pub elephant_bytes: u64,
    /// Raise [`Event::NewFlowSurge`] when the new-flow fraction of a
    /// batch exceeds this value (scan / DDoS symptom: Figure 6 says
    /// steady traffic stays far below it).
    pub surge_new_flow_fraction: f64,
    /// Raise [`Event::TablePressure`] when table load factor exceeds
    /// this value.
    pub table_load_factor: f64,
}

impl Default for EventThresholds {
    fn default() -> Self {
        EventThresholds {
            elephant_bytes: 1_000_000,
            surge_new_flow_fraction: 0.5,
            table_load_factor: 0.9,
        }
    }
}

/// An event raised by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A flow crossed the elephant byte threshold.
    ElephantFlow {
        /// The flow.
        flow: FlowId,
        /// Bytes at the time of crossing.
        bytes: u64,
    },
    /// The batch's new-flow fraction exceeded the surge threshold.
    NewFlowSurge {
        /// Fraction of the batch that created flows.
        fraction: f64,
    },
    /// Table occupancy crossed the pressure threshold.
    TablePressure {
        /// Current load factor.
        load_factor: f64,
    },
    /// The table rejected flows (drops) during the batch.
    FlowDrops {
        /// Dropped descriptor count.
        count: u64,
    },
}

/// The event engine.
#[derive(Debug)]
pub struct EventEngine {
    thresholds: EventThresholds,
    /// Flows already reported as elephants (edge-triggered).
    reported_elephants: std::collections::HashSet<FlowId>,
}

impl EventEngine {
    /// Creates an engine with the given thresholds.
    pub fn new(thresholds: EventThresholds) -> Self {
        EventEngine {
            thresholds,
            reported_elephants: std::collections::HashSet::new(),
        }
    }

    /// Per-descriptor hook: elephant detection (edge-triggered on the
    /// byte threshold), reading the flow's record from `table`.
    pub fn on_packet(
        &mut self,
        record: &CompletionRecord,
        table: &HashCamTable,
        out: &mut Vec<Event>,
    ) {
        let Some(fid) = record.fid else {
            return;
        };
        if self.reported_elephants.contains(&fid) {
            return;
        }
        if let Some(record) = table.record(fid) {
            if record.bytes >= self.thresholds.elephant_bytes {
                self.reported_elephants.insert(fid);
                out.push(Event::ElephantFlow {
                    flow: fid,
                    bytes: record.bytes,
                });
            }
        }
    }

    /// Per-batch hook: surge, pressure and drop detection.
    pub fn on_batch_end(&mut self, report: &RunReport, table: &HashCamTable, out: &mut Vec<Event>) {
        if report.completed > 0 {
            let fraction = report.stats.miss_rate();
            if fraction > self.thresholds.surge_new_flow_fraction {
                out.push(Event::NewFlowSurge { fraction });
            }
        }
        let load = table.load_factor();
        if load > self.thresholds.table_load_factor {
            out.push(Event::TablePressure { load_factor: load });
        }
        if report.stats.drops > 0 {
            out.push(Event::FlowDrops {
                count: report.stats.drops,
            });
        }
        // Expired elephants may return; forget flows no longer resident.
        // The slot a flow ID names is read directly: a key placed by a
        // hash override is not where its own hashes point.
        self.reported_elephants
            .retain(|&fid| table.record(fid).is_some());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzerConfig, TrafficAnalyzer};
    use flowlut_core::SimConfig;
    use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};

    #[test]
    fn elephant_fires_once_per_flow() {
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            thresholds: EventThresholds {
                elephant_bytes: 1000,
                ..EventThresholds::default()
            },
            ..AnalyzerConfig::default()
        });
        // One flow sending 30 x 72B = 2160 bytes: crosses 1000 once.
        let key = FlowKey::from(FiveTuple::from_index(7));
        let pkts: Vec<PacketDescriptor> = (0..30).map(|i| PacketDescriptor::new(i, key)).collect();
        let out = a.process(&pkts);
        let elephants: Vec<_> = out
            .events
            .iter()
            .filter(|e| matches!(e, Event::ElephantFlow { .. }))
            .collect();
        assert_eq!(elephants.len(), 1, "{:?}", out.events);
        // Next batch: same flow, no re-report.
        let pkts2: Vec<PacketDescriptor> =
            (30..40).map(|i| PacketDescriptor::new(i, key)).collect();
        let out2 = a.process(&pkts2);
        assert!(out2
            .events
            .iter()
            .all(|e| !matches!(e, Event::ElephantFlow { .. })));
    }

    #[test]
    fn override_placed_elephant_is_reported_once() {
        // Four batches of four 1 500-byte packets of one flow, placed by
        // its hashes and by a hash override: each crosses 1 000 bytes in
        // the first batch and is reported then only.
        let key = FlowKey::from(FiveTuple::from_index(3));
        for hashes in [None, Some((5, 9))] {
            let mut a = TrafficAnalyzer::new(AnalyzerConfig {
                sim: SimConfig::test_small(),
                thresholds: EventThresholds {
                    elephant_bytes: 1000,
                    ..EventThresholds::default()
                },
                ..AnalyzerConfig::default()
            });
            let packet = |seq| {
                let d = PacketDescriptor {
                    frame_bytes: 1500,
                    ..PacketDescriptor::new(seq, key)
                };
                match hashes {
                    Some((h1, h2)) => d.with_hash_override(h1, h2),
                    None => d,
                }
            };
            let per_batch: Vec<usize> = (0..4u64)
                .map(|batch| {
                    let pkts: Vec<PacketDescriptor> =
                        (0..4).map(|i| packet(batch * 4 + i)).collect();
                    a.process(&pkts)
                        .events
                        .iter()
                        .filter(|e| matches!(e, Event::ElephantFlow { .. }))
                        .count()
                })
                .collect();
            assert_eq!(per_batch, [1, 0, 0, 0], "hash override {hashes:?}");
        }
    }

    #[test]
    fn surge_fires_on_all_new_flows() {
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            ..AnalyzerConfig::default()
        });
        let pkts: Vec<PacketDescriptor> = (0..100)
            .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
            .collect();
        let out = a.process(&pkts);
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, Event::NewFlowSurge { .. })),
            "{:?}",
            out.events
        );
    }

    #[test]
    fn no_surge_on_repeat_traffic() {
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            ..AnalyzerConfig::default()
        });
        let warm: Vec<PacketDescriptor> = (0..20)
            .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
            .collect();
        a.process(&warm);
        // Second batch revisits the same 20 flows only.
        let repeat: Vec<PacketDescriptor> = (0..100)
            .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i % 20))))
            .collect();
        let out = a.process(&repeat);
        assert!(out
            .events
            .iter()
            .all(|e| !matches!(e, Event::NewFlowSurge { .. })));
    }

    #[test]
    fn drops_reported_when_table_overflows() {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 4;
        cfg.table.entries_per_bucket = 1;
        cfg.table.cam_capacity = 2;
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: cfg,
            ..AnalyzerConfig::default()
        });
        let pkts: Vec<PacketDescriptor> = (0..100)
            .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
            .collect();
        let out = a.process(&pkts);
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, Event::FlowDrops { .. })),
            "{:?}",
            out.events
        );
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, Event::TablePressure { .. })),);
    }
}
