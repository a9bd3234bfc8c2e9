//! A sparse store of fixed-size byte lines.
//!
//! The prototype attaches 512 MByte per memory set; allocating that
//! eagerly per simulated table would make multi-instance tests and
//! benches needlessly heavy. [`SparseStorage`] keeps only the lines that
//! have been claimed: the table keeps each memory's resident buckets in
//! one, and the simulator keeps in another, per memory, the line DRAM
//! holds for each bucket whose write has not landed yet.

use std::collections::HashMap;

/// Sparse store of lines of `line_bytes` bytes, each named by a `u32`
/// line number (a bucket index).
///
/// Claimed lines sit back to back in one byte arena, found through a map
/// from line number to arena line; a released line is zeroed and taken
/// by the next claim before the arena grows. The map keeps the standard
/// randomly seeded hasher: line numbers derive from hashes of outside
/// flow keys under a known seed. Both sides of an index entry are `u32`:
/// the arena never holds more lines than there are line numbers, so an
/// arena line fits one too.
#[derive(Debug, Clone)]
pub(crate) struct SparseStorage {
    line_bytes: usize,
    /// Line number → index of that line in `arena`.
    index: HashMap<u32, u32>,
    /// Every claimed line, `line_bytes` each.
    arena: Vec<u8>,
    /// Released arena lines, every byte zero.
    free: Vec<u32>,
}

impl SparseStorage {
    /// Creates an empty store of `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub(crate) fn with_line_bytes(line_bytes: usize) -> Self {
        assert!(line_bytes > 0, "a line must hold a byte");
        SparseStorage {
            line_bytes,
            index: HashMap::new(),
            arena: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The arena index of `line`, or `None` while it is not claimed.
    #[inline]
    pub(crate) fn line_index(&self, line: u32) -> Option<usize> {
        self.index.get(&line).map(|&i| i as usize)
    }

    /// The arena index of `line`, claiming an all-zero arena line for it
    /// first if it has none: the last one released, else a new one.
    pub(crate) fn claim_line(&mut self, line: u32) -> usize {
        let size = self.line_bytes;
        let (arena, free) = (&mut self.arena, &mut self.free);
        *self.index.entry(line).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                arena.resize(arena.len() + size, 0);
                // At most one arena line per `u32` line number.
                (arena.len() / size - 1) as u32
            })
        }) as usize
    }

    /// Unclaims `line`, if claimed: its arena line is zeroed for reuse.
    pub(crate) fn release_line(&mut self, line: u32) {
        if let Some(i) = self.index.remove(&line) {
            self.line_at_mut(i as usize).fill(0);
            self.free.push(i);
        }
    }

    /// `true` when no line is claimed.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The bytes of the arena line at index `i`.
    #[inline]
    pub(crate) fn line_at(&self, i: usize) -> &[u8] {
        &self.arena[i * self.line_bytes..(i + 1) * self.line_bytes]
    }

    /// The bytes of the arena line at index `i`, for writing.
    #[inline]
    pub(crate) fn line_at_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.arena[i * self.line_bytes..(i + 1) * self.line_bytes]
    }

    /// Reserves room for at least `additional` more claimed lines, so a
    /// bulk load of known size grows the arena and its index once.
    ///
    /// # Panics
    ///
    /// Panics if the new capacity overflows, like [`Vec::reserve`].
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.arena
            .reserve(additional.saturating_mul(self.line_bytes));
    }

    /// How many lines the arena and the index each have room for before
    /// they grow, as `(arena, index)`.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize) {
        (
            self.arena.capacity() / self.line_bytes,
            self.index.capacity(),
        )
    }

    /// Removes all contents.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.arena.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Claims `line` in `s` and fills it with `byte`.
    fn write(s: &mut SparseStorage, line: u32, byte: u8) {
        let i = s.claim_line(line);
        s.line_at_mut(i).fill(byte);
    }

    /// The bytes of `line`, if claimed.
    fn read(s: &SparseStorage, line: u32) -> Option<Vec<u8>> {
        s.line_index(line).map(|i| s.line_at(i).to_vec())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = SparseStorage::with_line_bytes(8);
        assert_eq!(read(&s, 7), None);
        write(&mut s, 7, 3);
        assert_eq!(read(&s, 7), Some(vec![3; 8]));
        assert_eq!(read(&s, 6), None);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SparseStorage::with_line_bytes(4);
        write(&mut s, 0, 1);
        write(&mut s, 0, 2);
        assert_eq!(read(&s, 0), Some(vec![2; 4]));
        assert_eq!(s.line_index(0), Some(0), "one arena line per line");
    }

    #[test]
    fn clear_empties() {
        let mut s = SparseStorage::with_line_bytes(4);
        write(&mut s, 1, 9);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(read(&s, 1), None);
        assert_eq!(s.claim_line(1), 0, "the arena starts over");
        assert_eq!(read(&s, 1), Some(vec![0; 4]));
    }

    /// Line numbers the property draws from: a dense low range plus the
    /// top of the line-number space.
    const LOW_LINES: u32 = 24;
    const LINE: usize = 12;

    #[derive(Debug, Clone)]
    enum Op {
        /// Claims a line and fills it from a seed byte.
        Write(u32, u8),
        Claim(u32),
        Release(u32),
        /// Writes a line of a clone of the store, which the store must
        /// not see.
        WriteClone(u32, u8),
        Reserve(usize),
        Clear,
    }

    fn line_number() -> impl Strategy<Value = u32> {
        prop_oneof![0..LOW_LINES, (0..4u32).prop_map(|i| u32::MAX - i)]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (line_number(), any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            (line_number(), any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            line_number().prop_map(Op::Claim),
            line_number().prop_map(Op::Release),
            line_number().prop_map(Op::Release),
            (line_number(), any::<u8>()).prop_map(|(l, b)| Op::WriteClone(l, b)),
            (0usize..64).prop_map(Op::Reserve),
            Just(Op::Clear),
        ]
    }

    fn line_from(seed: u8) -> Vec<u8> {
        (0..LINE as u8)
            .map(|j| seed.wrapping_mul(31).wrapping_add(j))
            .collect()
    }

    /// The line store as plain maps: each claimed line's owned bytes and
    /// arena index, and released arena lines, reused last-released first
    /// before the arena grows.
    #[derive(Default)]
    struct LineReference {
        lines: HashMap<u32, (usize, Vec<u8>)>,
        free: Vec<usize>,
        arena_lines: usize,
    }

    impl LineReference {
        fn claim(&mut self, line: u32) -> usize {
            let (free, arena_lines) = (&mut self.free, &mut self.arena_lines);
            self.lines
                .entry(line)
                .or_insert_with(|| {
                    let i = free.pop().unwrap_or_else(|| {
                        *arena_lines += 1;
                        *arena_lines - 1
                    });
                    (i, vec![0; LINE])
                })
                .0
        }

        fn release(&mut self, line: u32) {
            if let Some((i, _)) = self.lines.remove(&line) {
                self.free.push(i);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The line store reads back what a map of owned lines holds,
        /// under writes, overwrites, claims, releases and reuse, writes
        /// to a clone, reservations and clears in any order. Each
        /// claimed line keeps its arena line, a claim takes the last
        /// released one first, and a reservation leaves room for as
        /// many more lines as it asked for.
        #[test]
        fn arena_storage_matches_owned_line_map(
            ops in prop::collection::vec(op(), 1..150),
        ) {
            let mut s = SparseStorage::with_line_bytes(LINE);
            let mut reference = LineReference::default();
            for op in ops {
                match op {
                    Op::Write(line, seed) => {
                        let i = s.claim_line(line);
                        s.line_at_mut(i).copy_from_slice(&line_from(seed));
                        reference.claim(line);
                        reference.lines.get_mut(&line).expect("claimed").1 = line_from(seed);
                    }
                    Op::Claim(line) => {
                        prop_assert_eq!(s.claim_line(line), reference.claim(line));
                    }
                    Op::Release(line) => {
                        s.release_line(line);
                        reference.release(line);
                    }
                    Op::WriteClone(line, seed) => {
                        let mut copy = s.clone();
                        let i = copy.claim_line(line);
                        copy.line_at_mut(i).copy_from_slice(&line_from(seed));
                        prop_assert_eq!(read(&copy, line), Some(line_from(seed)));
                        let want = reference.lines.get(&line).map(|(_, bytes)| bytes.clone());
                        prop_assert_eq!(read(&s, line), want);
                    }
                    Op::Reserve(n) => {
                        let held = reference.arena_lines;
                        s.reserve(n);
                        let (arena, index) = s.capacity();
                        prop_assert!(arena >= held + n && index >= reference.lines.len() + n);
                    }
                    Op::Clear => {
                        s.clear();
                        reference = LineReference::default();
                    }
                }
                prop_assert_eq!(s.is_empty(), reference.lines.is_empty());
                for line in (0..LOW_LINES).chain((0..4).map(|i| u32::MAX - i)) {
                    let want = reference.lines.get(&line);
                    prop_assert_eq!(s.line_index(line), want.map(|&(i, _)| i), "line {}", line);
                    prop_assert_eq!(read(&s, line), want.map(|(_, bytes)| bytes.clone()), "line {}", line);
                }
            }
        }
    }
}
