//! The stats engine: running traffic aggregates.

use std::collections::HashMap;

use flowlut_core::sim::{CompletionRecord, ResolvedVia};
use flowlut_core::FlowId;

/// Flow-size classes for the flow-size distribution (mice → elephants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowSizeClass {
    /// 1 packet.
    Singleton,
    /// 2–10 packets.
    Mouse,
    /// 11–100 packets.
    Medium,
    /// 101–1000 packets.
    Large,
    /// More than 1000 packets.
    Elephant,
}

impl FlowSizeClass {
    /// Classifies a packet count.
    pub fn of(packets: u64) -> Self {
        match packets {
            0..=1 => FlowSizeClass::Singleton,
            2..=10 => FlowSizeClass::Mouse,
            11..=100 => FlowSizeClass::Medium,
            101..=1000 => FlowSizeClass::Large,
            _ => FlowSizeClass::Elephant,
        }
    }
}

/// Running traffic aggregates.
#[derive(Debug, Default)]
pub struct StatsEngine {
    total_packets: u64,
    total_bytes: u64,
    /// Protocol number → packet count (from the 5-tuple's last byte).
    protocols: HashMap<u8, u64>,
    /// Per-flow packet counters for the flow-size distribution.
    flow_packets: HashMap<FlowId, u64>,
    new_flows: u64,
    matched: u64,
}

impl StatsEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        StatsEngine::default()
    }

    /// Folds one resolved descriptor into the aggregates.
    pub fn on_packet(&mut self, record: &CompletionRecord) {
        self.total_packets += 1;
        self.total_bytes += u64::from(record.desc.frame_bytes);
        // The canonical wire layout stores the protocol in the last byte.
        if let Some(&proto) = record.desc.key.as_bytes().last() {
            *self.protocols.entry(proto).or_insert(0) += 1;
        }
        match record.via {
            ResolvedVia::Dropped => {}
            v if v.is_new_flow() => {
                self.new_flows += 1;
                self.flow_packets.insert(record.fid.expect("new flow"), 1);
            }
            _ => {
                self.matched += 1;
                if let Some(fid) = record.fid {
                    *self.flow_packets.entry(fid).or_insert(0) += 1;
                }
            }
        }
    }

    /// Total packets folded in.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Total Layer-1 bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// New flows observed.
    pub fn new_flows(&self) -> u64 {
        self.new_flows
    }

    /// Matched (non-creating) packets.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Protocol → packet-count pairs, descending by count.
    pub fn protocol_mix(&self) -> Vec<(u8, u64)> {
        let mut v: Vec<(u8, u64)> = self.protocols.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
        v
    }

    /// Flow-size class → flow count.
    pub fn flow_size_distribution(&self) -> Vec<(FlowSizeClass, u64)> {
        let mut dist: HashMap<FlowSizeClass, u64> = HashMap::new();
        for &packets in self.flow_packets.values() {
            *dist.entry(FlowSizeClass::of(packets)).or_insert(0) += 1;
        }
        let mut v: Vec<(FlowSizeClass, u64)> = dist.into_iter().collect();
        v.sort();
        v
    }

    /// Top `n` flows by packet count.
    pub fn top_flows(&self, n: usize) -> Vec<(FlowId, u64)> {
        let mut v: Vec<(FlowId, u64)> = self.flow_packets.iter().map(|(&f, &c)| (f, c)).collect();
        v.sort_by_key(|&(f, c)| (std::cmp::Reverse(c), f));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_boundaries() {
        assert_eq!(FlowSizeClass::of(1), FlowSizeClass::Singleton);
        assert_eq!(FlowSizeClass::of(2), FlowSizeClass::Mouse);
        assert_eq!(FlowSizeClass::of(10), FlowSizeClass::Mouse);
        assert_eq!(FlowSizeClass::of(11), FlowSizeClass::Medium);
        assert_eq!(FlowSizeClass::of(100), FlowSizeClass::Medium);
        assert_eq!(FlowSizeClass::of(1000), FlowSizeClass::Large);
        assert_eq!(FlowSizeClass::of(1001), FlowSizeClass::Elephant);
    }
}
