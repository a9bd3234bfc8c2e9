//! The ingress packet buffer (tail-drop FIFO).

use std::collections::VecDeque;

use flowlut_traffic::PacketDescriptor;

/// A bounded descriptor FIFO in front of the flow processor.
///
/// Real line cards drop at the ingress buffer when the processor falls
/// behind; the analyzer accounts those drops separately from table-full
/// drops so capacity planning can tell them apart.
#[derive(Debug)]
pub struct PacketBuffer {
    q: VecDeque<PacketDescriptor>,
    capacity: usize,
    drops: u64,
}

impl PacketBuffer {
    /// Creates a buffer holding up to `capacity` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        PacketBuffer {
            q: VecDeque::with_capacity(capacity),
            capacity,
            drops: 0,
        }
    }

    /// Buffer capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Descriptors currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total tail-dropped descriptors.
    #[inline]
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Enqueues `p`; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, p: PacketDescriptor) -> bool {
        if self.q.len() >= self.capacity {
            self.drops += 1;
            return false;
        }
        self.q.push_back(p);
        true
    }

    /// Dequeues one descriptor.
    pub fn pop(&mut self) -> Option<PacketDescriptor> {
        self.q.pop_front()
    }

    /// Removes the `n` oldest descriptors (batch drain into the flow
    /// processor).
    pub fn drain(&mut self, n: usize) {
        for _ in 0..n.min(self.q.len()) {
            self.q.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::{FiveTuple, FlowKey};

    fn pkt(i: u64) -> PacketDescriptor {
        PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i)))
    }

    #[test]
    fn fifo_order() {
        let mut b = PacketBuffer::new(4);
        for i in 0..3 {
            assert!(b.push(pkt(i)));
        }
        assert_eq!(b.pop().unwrap().seq, 0);
        assert_eq!(b.pop().unwrap().seq, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut b = PacketBuffer::new(2);
        assert!(b.push(pkt(0)));
        assert!(b.push(pkt(1)));
        assert!(!b.push(pkt(2)));
        assert_eq!(b.drops(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn drain_removes_oldest() {
        let mut b = PacketBuffer::new(8);
        for i in 0..5 {
            b.push(pkt(i));
        }
        b.drain(3);
        assert_eq!(b.pop().unwrap().seq, 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = PacketBuffer::new(0);
    }
}
