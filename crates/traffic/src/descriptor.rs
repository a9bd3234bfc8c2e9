//! Packet descriptors — the unit of work offered to the flow table.

use crate::key::FlowKey;

/// One packet's lookup request, as produced by header extraction.
///
/// `hash_override` exists because the paper's Table II(A) drives the
/// lookup circuit with *raw hash patterns* ("random hash", "unique hash
/// with bank increment") instead of hashing real tuples; workloads that
/// reproduce those tests pre-compute the two hash values and the
/// simulator's sequencer uses them verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDescriptor {
    /// Flow identity (n-tuple).
    pub key: FlowKey,
    /// Monotone sequence number within the trace.
    pub seq: u64,
    /// Layer-1 frame length in bytes (preamble + frame), for throughput
    /// accounting; the paper's analysis assumes 72-byte minimum frames.
    pub frame_bytes: u16,
    /// Pre-computed (hash1, hash2) pair, bypassing the hash stage.
    pub hash_override: Option<(u32, u32)>,
}

impl PacketDescriptor {
    /// Creates a minimum-size (72-byte Layer-1) descriptor for `key`.
    pub fn new(seq: u64, key: FlowKey) -> Self {
        PacketDescriptor {
            key,
            seq,
            frame_bytes: 72,
            hash_override: None,
        }
    }

    /// Sets a pre-computed hash pair (Table II(A) style stimulus).
    pub fn with_hash_override(mut self, h1: u32, h2: u32) -> Self {
        self.hash_override = Some((h1, h2));
        self
    }

    /// Builds a descriptor stream from a key sequence, numbering packets
    /// in order — the common setup of streaming-session drivers and
    /// backend comparisons (one minimum-size packet per key).
    pub fn sequence<I>(keys: I) -> Vec<PacketDescriptor>
    where
        I: IntoIterator<Item = FlowKey>,
    {
        keys.into_iter()
            .enumerate()
            .map(|(seq, key)| PacketDescriptor::new(seq as u64, key))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let key = FlowKey::new(&[1, 2, 3]).unwrap();
        let d = PacketDescriptor::new(5, key).with_hash_override(0xAAAA, 0xBBBB);
        assert_eq!(d.seq, 5);
        assert_eq!(d.key, key);
        assert_eq!(d.hash_override, Some((0xAAAA, 0xBBBB)));
    }

    #[test]
    fn default_frame_is_minimum_l1() {
        let d = PacketDescriptor::new(0, FlowKey::new(&[1]).unwrap());
        assert_eq!(d.frame_bytes, 72);
        assert_eq!(d.hash_override, None);
    }

    #[test]
    fn sequence_numbers_in_order() {
        let keys = [
            FlowKey::new(&[1]).unwrap(),
            FlowKey::new(&[2]).unwrap(),
            FlowKey::new(&[1]).unwrap(),
        ];
        let descs = PacketDescriptor::sequence(keys);
        assert_eq!(descs.len(), 3);
        for (i, d) in descs.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
            assert_eq!(d.key, keys[i]);
            assert_eq!(d.frame_bytes, 72);
        }
    }
}
