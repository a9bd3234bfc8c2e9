//! Exact-match (binary) CAM.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::Hash;

/// Error returned when inserting into a full CAM.
///
/// In the flow-table context this surfaces as the `TableFull` condition:
/// the paper's scheme relies on the CAM being "of a reasonable size" so
/// that bucket overflows fit; benches sweep CAM capacity against spill
/// probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamFullError {
    /// Capacity of the CAM that rejected the insert.
    pub capacity: usize,
}

impl fmt::Display for CamFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CAM full (capacity {})", self.capacity)
    }
}

impl Error for CamFullError {}

/// An exact-match content-addressable memory with `capacity` slots.
///
/// Search compares the key against every occupied slot "in parallel" and
/// returns the **lowest** matching slot index (hardware priority
/// encoding). Insertion uses a free-list and fills the lowest free slot,
/// mirroring the deterministic allocators used in FPGA CAM wrappers.
///
/// Duplicate keys are a caller responsibility: `insert` does not scan for
/// duplicates (hardware does not either — the flow table searches before
/// inserting). [`Cam::peek`] on a duplicated key returns the lowest
/// slot.
///
/// The single-cycle parallel compare is modelled on the host by an index
/// from each resident key to its lowest occupied slot, so a search costs
/// one hash-map lookup rather than a scan of every slot.
#[derive(Debug, Clone)]
pub struct Cam<K> {
    slots: Vec<Option<K>>,
    /// Free slot indices, kept sorted descending so `pop` yields the
    /// lowest index.
    free: Vec<usize>,
    /// Each resident key → the lowest slot holding it (the priority
    /// encoder's answer). Operations only probe it by key and never
    /// iterate it, so the map's randomly seeded hasher cannot influence
    /// any result.
    index: HashMap<K, usize>,
    len: usize,
}

impl<K: Eq + Hash + Copy> Cam<K> {
    /// Creates a CAM with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CAM capacity must be non-zero");
        Cam {
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity).rev().collect(),
            // Sized for a full CAM of distinct keys, so filling it never
            // reallocates.
            index: HashMap::with_capacity(capacity),
            len: 0,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Parallel search; returns the lowest slot index holding `key`.
    pub fn peek(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Returns the key stored in `slot`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= capacity()`.
    pub fn entry(&self, slot: usize) -> Option<&K> {
        self.slots[slot].as_ref()
    }

    /// Inserts `key` into the lowest free slot and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`CamFullError`] when no slot is free.
    pub fn insert(&mut self, key: K) -> Result<usize, CamFullError> {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot].is_none());
                self.occupy(slot, key);
                Ok(slot)
            }
            None => Err(CamFullError {
                capacity: self.capacity(),
            }),
        }
    }

    /// Places `key` directly into `slot`: the checkpoint-restore path,
    /// which must reproduce exact slot assignments rather than allocate
    /// fresh ones. Maintains the free-list ordering invariant.
    ///
    /// # Errors
    ///
    /// Returns a static description when `slot` is out of range, already
    /// occupied, or missing from the free list (internal inconsistency).
    pub fn restore_at(&mut self, slot: usize, key: K) -> Result<(), &'static str> {
        if slot >= self.capacity() {
            return Err("CAM slot out of range");
        }
        if self.slots[slot].is_some() {
            return Err("CAM slot already occupied");
        }
        let Ok(pos) = self.free.binary_search_by(|probe| slot.cmp(probe)) else {
            return Err("CAM free list out of sync");
        };
        self.free.remove(pos);
        self.occupy(slot, key);
        Ok(())
    }

    /// Removes `key` (lowest matching slot) and returns the slot index.
    pub fn delete(&mut self, key: &K) -> Option<usize> {
        let slot = self.peek(key)?;
        self.delete_slot(slot);
        Some(slot)
    }

    /// Removes the entry in `slot`, returning its key.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= capacity()`.
    pub fn delete_slot(&mut self, slot: usize) -> Option<K> {
        let k = self.slots[slot].take()?;
        self.len -= 1;
        // Keep the free list sorted descending so the lowest slot is
        // reused first (deterministic like a hardware priority allocator).
        let pos = self
            .free
            .binary_search_by(|probe| slot.cmp(probe))
            .unwrap_err();
        self.free.insert(pos, slot);
        // Only the indexed (lowest) copy moves the index: to the next
        // duplicate above it, or out.
        if self.index.get(&k) == Some(&slot) {
            match self.slots[slot + 1..].iter().position(|s| *s == Some(k)) {
                Some(offset) => self.index.insert(k, slot + 1 + offset),
                None => self.index.remove(&k),
            };
        }
        Some(k)
    }

    /// Iterates over `(slot, key)` pairs of occupied slots in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &K)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|k| (i, k)))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.free = (0..self.capacity()).rev().collect();
        self.index.clear();
        self.len = 0;
    }

    /// Stores `key` in the free `slot` and indexes it if `slot` is now
    /// its lowest copy.
    fn occupy(&mut self, slot: usize, key: K) {
        self.slots[slot] = Some(key);
        self.len += 1;
        let lowest = self.index.entry(key).or_insert(slot);
        *lowest = (*lowest).min(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_search_delete_roundtrip() {
        let mut cam: Cam<u32> = Cam::new(8);
        let s = cam.insert(42).unwrap();
        assert_eq!(s, 0);
        assert_eq!(cam.peek(&42), Some(0));
        assert_eq!(cam.delete(&42), Some(0));
        assert_eq!(cam.peek(&42), None);
        assert!(cam.is_empty());
    }

    #[test]
    fn fills_lowest_slot_first() {
        let mut cam: Cam<u32> = Cam::new(4);
        assert_eq!(cam.insert(1).unwrap(), 0);
        assert_eq!(cam.insert(2).unwrap(), 1);
        assert_eq!(cam.insert(3).unwrap(), 2);
        cam.delete(&2);
        // Slot 1 is the lowest free slot and must be reused.
        assert_eq!(cam.insert(9).unwrap(), 1);
    }

    #[test]
    fn full_cam_rejects() {
        let mut cam: Cam<u8> = Cam::new(2);
        cam.insert(1).unwrap();
        cam.insert(2).unwrap();
        assert_eq!(cam.len(), cam.capacity());
        let err = cam.insert(3).unwrap_err();
        assert_eq!(err.capacity, 2);
    }

    #[test]
    fn priority_encoding_lowest_match() {
        let mut cam: Cam<u8> = Cam::new(4);
        cam.insert(7).unwrap(); // slot 0
        cam.insert(8).unwrap(); // slot 1
        cam.insert(7).unwrap(); // slot 2 (duplicate by caller choice)
        assert_eq!(cam.peek(&7), Some(0));
        cam.delete_slot(0);
        assert_eq!(cam.peek(&7), Some(2));
    }

    #[test]
    fn clear_resets_allocation_order() {
        let mut cam: Cam<u8> = Cam::new(3);
        cam.insert(1).unwrap();
        cam.insert(2).unwrap();
        cam.clear();
        assert!(cam.is_empty());
        assert_eq!(cam.insert(5).unwrap(), 0);
    }

    #[test]
    fn iter_in_slot_order() {
        let mut cam: Cam<u8> = Cam::new(4);
        cam.insert(10).unwrap();
        cam.insert(20).unwrap();
        cam.insert(30).unwrap();
        cam.delete(&20);
        let v: Vec<(usize, u8)> = cam.iter().map(|(i, k)| (i, *k)).collect();
        assert_eq!(v, vec![(0, 10), (2, 30)]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Cam::<u8>::new(0);
    }

    #[test]
    fn restore_at_reproduces_exact_slots() {
        let mut cam: Cam<u8> = Cam::new(4);
        cam.restore_at(2, 30).unwrap();
        cam.restore_at(0, 10).unwrap();
        assert_eq!(cam.len(), 2);
        assert_eq!(cam.peek(&30), Some(2));
        // Allocation after restore still fills the lowest free slot.
        assert_eq!(cam.insert(99).unwrap(), 1);
        // Delete/reinsert keeps the free list coherent with restores.
        cam.delete(&10);
        assert_eq!(cam.insert(11).unwrap(), 0);
    }

    #[test]
    fn restore_at_rejects_bad_slots() {
        let mut cam: Cam<u8> = Cam::new(2);
        assert!(cam.restore_at(2, 1).is_err(), "out of range");
        cam.restore_at(1, 1).unwrap();
        assert!(cam.restore_at(1, 2).is_err(), "occupied");
        assert_eq!(cam.len(), 1);
    }
}
