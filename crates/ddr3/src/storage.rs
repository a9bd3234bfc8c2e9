//! Sparse backing store for simulated DDR3 contents.
//!
//! The prototype attaches 512 MByte per memory set; allocating that
//! eagerly per simulated device would make multi-instance tests and
//! benches needlessly heavy. [`SparseStorage`] keeps only bursts that have
//! been written, returning an all-zero burst (DRAM's simulated reset
//! state) for untouched locations — sufficient because the flow table
//! treats an all-zero entry as invalid.

use std::collections::HashMap;

/// Sparse burst-addressed byte storage in lines of whole bursts: burst
/// `a` is burst `a % bursts_per_line` of line `a / bursts_per_line`.
/// Memory models are built with one-burst lines; the flow table keeps
/// each memory's buckets in a store whose line is one bucket padded to
/// whole bursts, and a memory model's storage becomes a clone of that
/// store, lines and all, at each simulator set-up.
///
/// Claimed lines sit back to back in one byte arena, found through a map
/// from line number to arena line; a released line is zeroed and taken
/// by the next claim before the arena grows. The map keeps the standard
/// randomly seeded hasher: line numbers derive from hashes of outside
/// flow keys under a known seed.
#[derive(Debug, Clone)]
pub struct SparseStorage {
    burst_bytes: usize,
    bursts_per_line: u64,
    line_bytes: usize,
    /// Line number → index of that line in `arena`.
    index: HashMap<u64, usize>,
    /// Every claimed line, `line_bytes` each.
    arena: Vec<u8>,
    /// Released arena lines, every byte zero.
    free: Vec<usize>,
}

impl SparseStorage {
    /// Creates storage for bursts of `burst_bytes` each (32 for a 32-bit
    /// bus at BL8), one burst per line.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn new(burst_bytes: usize) -> Self {
        Self::with_line_bursts(burst_bytes, 1)
    }

    /// Creates storage with lines of `bursts_per_line` bursts.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn with_line_bursts(burst_bytes: usize, bursts_per_line: u32) -> Self {
        assert!(burst_bytes > 0, "burst size must be non-zero");
        assert!(bursts_per_line > 0, "a line must hold a burst");
        SparseStorage {
            burst_bytes,
            bursts_per_line: u64::from(bursts_per_line),
            line_bytes: burst_bytes * bursts_per_line as usize,
            index: HashMap::new(),
            arena: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Size of one burst in bytes.
    #[inline]
    pub fn burst_bytes(&self) -> usize {
        self.burst_bytes
    }

    /// Number of bursts in claimed lines: with one-burst lines, the bursts
    /// written at least once.
    #[inline]
    pub fn resident_bursts(&self) -> usize {
        self.index.len() * self.bursts_per_line as usize
    }

    /// Reads the burst at `addr`, returning zeroes for untouched bursts.
    pub fn read_burst(&self, addr: u64) -> Vec<u8> {
        let at = (addr % self.bursts_per_line) as usize * self.burst_bytes;
        match self.line_index(addr / self.bursts_per_line) {
            Some(i) => self.line_at(i)[at..at + self.burst_bytes].to_vec(),
            None => vec![0u8; self.burst_bytes],
        }
    }

    /// Writes a full burst at `addr`, claiming its line if need be.
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
        let at = (addr % self.bursts_per_line) as usize * data.len();
        let i = self.claim_line(addr / self.bursts_per_line);
        self.line_at_mut(i)[at..at + data.len()].copy_from_slice(data);
    }

    /// The arena index of `line`, or `None` while it is not claimed.
    #[inline]
    pub fn line_index(&self, line: u64) -> Option<usize> {
        self.index.get(&line).copied()
    }

    /// The arena index of `line`, claiming an all-zero arena line for it
    /// first if it has none: the last one released, else a new one.
    pub fn claim_line(&mut self, line: u64) -> usize {
        let size = self.line_bytes;
        let (arena, free) = (&mut self.arena, &mut self.free);
        *self.index.entry(line).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                arena.resize(arena.len() + size, 0);
                arena.len() / size - 1
            })
        })
    }

    /// Unclaims `line`, if claimed: its bursts read as zero again.
    pub fn release_line(&mut self, line: u64) {
        if let Some(i) = self.index.remove(&line) {
            self.line_at_mut(i).fill(0);
            self.free.push(i);
        }
    }

    /// The bytes of the arena line at index `i`.
    #[inline]
    pub fn line_at(&self, i: usize) -> &[u8] {
        &self.arena[i * self.line_bytes..(i + 1) * self.line_bytes]
    }

    /// The bytes of the arena line at index `i`, for writing.
    #[inline]
    pub fn line_at_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.arena[i * self.line_bytes..(i + 1) * self.line_bytes]
    }

    /// Reserves room for at least `additional` more claimed lines, so a
    /// bulk load of known size grows the arena and its index once.
    ///
    /// # Panics
    ///
    /// Panics if the new capacity overflows, like [`Vec::reserve`].
    pub fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.arena
            .reserve(additional.saturating_mul(self.line_bytes));
    }

    /// How many lines the arena and the index each have room for before
    /// they grow, as `(arena, index)`.
    pub fn capacity(&self) -> (usize, usize) {
        (
            self.arena.capacity() / self.line_bytes,
            self.index.capacity(),
        )
    }

    /// Removes all contents.
    pub fn clear(&mut self) {
        self.index.clear();
        self.arena.clear();
        self.free.clear();
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
