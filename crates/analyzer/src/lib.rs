//! # flowlut-analyzer — the Figure 7 traffic analyzer
//!
//! Section V-C of the paper sketches the system being integrated around
//! the Flow LUT prototype: *"the proposed flow processor together with
//! other auxiliary circuits, such as packet buffer, event engine and
//! stats engine"*, forming "a complete solution for real-time network
//! traffic analysis". This crate builds that system on top of
//! [`flowlut_core`]:
//!
//! * [`PacketBuffer`] — the bounded ingress FIFO in front of the flow
//!   processor, with tail-drop accounting (the packet buffer block);
//! * [`EventEngine`] — programmable detectors that fire [`Event`]s from
//!   the flow processor's outputs: new-flow-rate surges (scan/DDoS
//!   symptom), elephant flows crossing byte thresholds, table pressure,
//!   and flow expiry (the event engine block);
//! * [`StatsEngine`] — running aggregates: protocol mix, flow-size
//!   distribution, top talkers (the stats engine block);
//! * [`TrafficAnalyzer`] — the integration: drives descriptors through a
//!   [`FlowLutSim`] and fans its completion records out to both engines,
//!   emptying the simulator's bounded completion queue after each batch.
//!
//! ## Example
//!
//! ```
//! use flowlut_analyzer::{AnalyzerConfig, TrafficAnalyzer};
//! use flowlut_core::SimConfig;
//! use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut analyzer = TrafficAnalyzer::new(AnalyzerConfig {
//!     sim: SimConfig::test_small(),
//!     ..AnalyzerConfig::default()
//! });
//! let pkts: Vec<PacketDescriptor> = (0..100)
//!     .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i % 10))))
//!     .collect();
//! let outcome = analyzer.process(&pkts);
//! assert_eq!(outcome.processed, 100);
//! assert_eq!(analyzer.stats().protocol_mix().len() > 0, true);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod events;
mod stats;

pub use buffer::PacketBuffer;
pub use events::{Event, EventEngine, EventThresholds};
pub use stats::{FlowSizeClass, StatsEngine};

use flowlut_core::{FlowLutSim, FlowPipeline, SimConfig};
use flowlut_traffic::PacketDescriptor;

/// Configuration of the integrated analyzer.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Flow-processor (simulator) configuration.
    pub sim: SimConfig,
    /// Packet-buffer depth in descriptors.
    pub buffer_depth: usize,
    /// Event-engine thresholds.
    pub thresholds: EventThresholds,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            sim: SimConfig::default(),
            buffer_depth: 1024,
            thresholds: EventThresholds::default(),
        }
    }
}

/// Result of one [`TrafficAnalyzer::process`] batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Descriptors processed through the flow LUT.
    pub processed: u64,
    /// Descriptors tail-dropped at the packet buffer.
    pub buffer_drops: u64,
    /// Events raised during the batch.
    pub events: Vec<Event>,
    /// Flow-LUT processing rate for the batch, Mdesc/s.
    pub mdesc_per_s: f64,
}

/// The integrated real-time traffic analyzer (Figure 7).
#[derive(Debug)]
pub struct TrafficAnalyzer {
    buffer: PacketBuffer,
    sim: FlowLutSim,
    events: EventEngine,
    stats: StatsEngine,
}

impl TrafficAnalyzer {
    /// Builds the analyzer.
    ///
    /// # Panics
    ///
    /// Panics if the simulator configuration is invalid, or if
    /// `buffer_depth` exceeds [`FlowLutSim::COMPLETION_CAPACITY`]: a
    /// batch's completion records must all fit the simulator's queue.
    pub fn new(cfg: AnalyzerConfig) -> Self {
        assert!(
            cfg.buffer_depth <= FlowLutSim::COMPLETION_CAPACITY,
            "buffer depth {} exceeds the {} completion records a batch can leave",
            cfg.buffer_depth,
            FlowLutSim::COMPLETION_CAPACITY
        );
        TrafficAnalyzer {
            buffer: PacketBuffer::new(cfg.buffer_depth),
            sim: FlowLutSim::new(cfg.sim),
            events: EventEngine::new(cfg.thresholds),
            stats: StatsEngine::new(),
        }
    }

    /// The stats engine.
    pub fn stats(&self) -> &StatsEngine {
        &self.stats
    }

    /// The event engine.
    pub fn events(&self) -> &EventEngine {
        &self.events
    }

    /// Ingests a batch of packets: buffers them (tail-dropping on
    /// overflow), runs the flow processor, and fans the batch's
    /// completion records out to the stats and event engines, draining
    /// the simulator's completion queue.
    pub fn process(&mut self, packets: &[PacketDescriptor]) -> BatchOutcome {
        // Packet buffer stage: everything beyond the buffer depth within
        // one batch is tail-dropped (the buffer drains into the flow
        // processor batch-wise in this model).
        let mut accepted = Vec::with_capacity(packets.len().min(self.buffer.capacity()));
        for p in packets {
            if self.buffer.push(*p) {
                accepted.push(*p);
            }
        }
        let report = self.sim.start_run().run(&accepted).expect("fresh session");
        self.buffer.drain(accepted.len());

        // Fan out per-descriptor results, in completion order, then empty
        // the queue: it holds this batch's records, and no more.
        let mut events = Vec::new();
        for record in self.sim.completions() {
            self.stats.on_packet(record);
            self.events.on_packet(record, self.sim.table(), &mut events);
        }
        self.sim.drain_completions();
        self.events
            .on_batch_end(&report, self.sim.table(), &mut events);

        BatchOutcome {
            processed: report.completed,
            buffer_drops: self.buffer.drops(),
            events,
            mdesc_per_s: report.mdesc_per_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::{FiveTuple, FlowKey};

    fn pkts(range: std::ops::Range<u64>, flows: u64) -> Vec<PacketDescriptor> {
        range
            .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i % flows))))
            .collect()
    }

    #[test]
    fn end_to_end_batch() {
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            ..AnalyzerConfig::default()
        });
        let out = a.process(&pkts(0..500, 50));
        assert_eq!(out.processed, 500);
        assert_eq!(out.buffer_drops, 0);
        assert!(out.mdesc_per_s > 0.0);
        assert_eq!(a.sim.table().len(), 50);
        assert_eq!(a.stats().total_packets(), 500);
    }

    #[test]
    fn buffer_tail_drops_oversized_batch() {
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            buffer_depth: 100,
            ..AnalyzerConfig::default()
        });
        let out = a.process(&pkts(0..250, 10));
        assert_eq!(out.processed, 100);
        assert_eq!(out.buffer_drops, 150);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32768 completion records")]
    fn a_buffer_deeper_than_the_completion_queue_is_refused() {
        TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            buffer_depth: FlowLutSim::COMPLETION_CAPACITY + 1,
            ..AnalyzerConfig::default()
        });
    }

    #[test]
    fn repeated_batches_accumulate() {
        let mut a = TrafficAnalyzer::new(AnalyzerConfig {
            sim: SimConfig::test_small(),
            ..AnalyzerConfig::default()
        });
        a.process(&pkts(0..200, 20));
        a.process(&pkts(200..400, 20));
        assert_eq!(a.stats().total_packets(), 400);
        assert_eq!(a.sim.table().len(), 20);
    }
}
