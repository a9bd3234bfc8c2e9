//! Sparse backing store for simulated DDR3 contents.
//!
//! The prototype attaches 512 MByte per memory set; allocating that
//! eagerly per simulated device would make multi-instance tests and
//! benches needlessly heavy. [`SparseStorage`] keeps only bursts that have
//! been written, returning an all-zero burst (DRAM's simulated reset
//! state) for untouched locations — sufficient because the flow table
//! treats an all-zero entry as invalid.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Sparse burst-addressed byte storage.
///
/// Written bursts sit back to back in one byte arena, found through a
/// map from burst address to arena index, so writing a new burst appends
/// to the arena instead of allocating a buffer of its own. The map keeps
/// the standard randomly seeded hasher: burst addresses derive from hashes
/// of outside flow keys under a known seed.
#[derive(Debug, Clone, Default)]
pub struct SparseStorage {
    burst_bytes: usize,
    /// Burst address → index of that burst in `arena`.
    index: HashMap<u64, usize>,
    /// Every written burst, `burst_bytes` each, in first-write order.
    arena: Vec<u8>,
}

impl SparseStorage {
    /// Creates storage for bursts of `burst_bytes` each (32 for a 32-bit
    /// bus at BL8).
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn new(burst_bytes: usize) -> Self {
        assert!(burst_bytes > 0, "burst size must be non-zero");
        SparseStorage {
            burst_bytes,
            index: HashMap::new(),
            arena: Vec::new(),
        }
    }

    /// Size of one burst in bytes.
    #[inline]
    pub fn burst_bytes(&self) -> usize {
        self.burst_bytes
    }

    /// Number of bursts that have been written at least once.
    #[inline]
    pub fn resident_bursts(&self) -> usize {
        self.index.len()
    }

    /// Reads the burst at `addr`, returning zeroes for untouched bursts.
    pub fn read_burst(&self, addr: u64) -> Vec<u8> {
        match self.index.get(&addr) {
            Some(&i) => self.arena[i * self.burst_bytes..(i + 1) * self.burst_bytes].to_vec(),
            None => vec![0u8; self.burst_bytes],
        }
    }

    /// Writes a full burst at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != burst_bytes()`: partial bursts (data
    /// masking) are not modelled, matching the flow table's full-bucket
    /// writes.
    pub fn write_burst(&mut self, addr: u64, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.burst_bytes,
            "write must be exactly one burst"
        );
        let next = self.index.len();
        match self.index.entry(addr) {
            Entry::Occupied(e) => {
                let at = *e.get() * self.burst_bytes;
                self.arena[at..at + self.burst_bytes].copy_from_slice(data);
            }
            Entry::Vacant(e) => {
                e.insert(next);
                self.arena.extend_from_slice(data);
            }
        }
    }

    /// Reserves room for at least `additional` more written bursts, so a
    /// bulk load of known size grows the arena and its index once.
    ///
    /// # Panics
    ///
    /// Panics if the new capacity overflows, like [`Vec::reserve`].
    pub fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.arena
            .reserve(additional.saturating_mul(self.burst_bytes));
    }

    /// Removes all contents.
    pub fn clear(&mut self) {
        self.index.clear();
        self.arena.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_bursts_read_zero() {
        let s = SparseStorage::new(32);
        assert_eq!(s.read_burst(12345), vec![0u8; 32]);
        assert_eq!(s.resident_bursts(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = SparseStorage::new(8);
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        s.write_burst(7, &data);
        assert_eq!(s.read_burst(7), data.to_vec());
        assert_eq!(s.resident_bursts(), 1);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SparseStorage::new(4);
        s.write_burst(0, &[1, 1, 1, 1]);
        s.write_burst(0, &[2, 2, 2, 2]);
        assert_eq!(s.read_burst(0), vec![2, 2, 2, 2]);
        assert_eq!(s.resident_bursts(), 1);
    }

    #[test]
    #[should_panic(expected = "exactly one burst")]
    fn short_write_panics() {
        let mut s = SparseStorage::new(8);
        s.write_burst(0, &[0u8; 4]);
    }

    #[test]
    fn clear_empties() {
        let mut s = SparseStorage::new(4);
        s.write_burst(1, &[9; 4]);
        s.clear();
        assert_eq!(s.resident_bursts(), 0);
        assert_eq!(s.read_burst(1), vec![0; 4]);
    }
}
