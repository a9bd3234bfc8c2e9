//! # flowlut-hash — hardware-style hash functions for flow keys
//!
//! The paper's lookup table hashes each packet's n-tuple with "two
//! pre-selected hash functions" to index its two memory halves. This
//! crate implements them as two seeds of the H3 universal family (XOR of
//! key-bit-selected random words, the textbook FPGA choice) behind one
//! object-safe trait, plus the [`PairHasher`] that yields the two
//! independent bucket indices the two-choice scheme needs.
//!
//! Hash *quality* matters for the reproduction: Table II(A) contrasts
//! "random hash" input against a crafted bank-increment pattern, and the
//! flow table's collision (CAM spill) rate depends on bucket-index
//! uniformity. The crate's tests pin both: avalanche and bucket
//! uniformity measurements live in a test-only `quality` module.
//!
//! ## Example
//!
//! ```
//! use flowlut_hash::PairHasher;
//!
//! let pair = PairHasher::h3_pair(104, 7);
//! let key = [10, 0, 0, 1, 192, 168, 0, 1, 0x1F, 0x90, 0x00, 0x50, 6];
//! let (b1, b2) = pair.bucket_pair(&key, 1 << 20);
//! assert!(b1 < (1 << 20) && b2 < (1 << 20));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod h3;
mod pair;

pub use h3::H3Hash;
pub use pair::PairHasher;

/// A 32-bit hardware hash function over byte-string keys.
///
/// Implementations are deterministic pure functions of the key (plus any
/// construction-time seed material), as a synthesized hash circuit is.
pub trait HashFunction: std::fmt::Debug + Send + Sync {
    /// Hashes `key` to 32 bits.
    fn hash(&self, key: &[u8]) -> u32;

    /// Reduces the hash to a bucket index in `0..buckets`.
    ///
    /// Uses the high-multiply range reduction (`(hash * buckets) >> 32`)
    /// rather than modulo: it is what FPGA designs do to avoid a divider,
    /// and it is bias-free for power-of-two bucket counts.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    fn bucket(&self, key: &[u8], buckets: u32) -> u32 {
        assert!(buckets > 0, "bucket count must be non-zero");
        ((u64::from(self.hash(key)) * u64::from(buckets)) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let fns: Vec<Box<dyn HashFunction>> = vec![
            Box::new(H3Hash::with_seed(64, 1)),
            Box::new(H3Hash::with_seed(40, 2)),
        ];
        for f in &fns {
            let _ = f.hash(b"abc");
        }
    }

    #[test]
    fn bucket_reduction_in_range() {
        let f = H3Hash::with_seed(24, 3);
        for buckets in [1u32, 2, 3, 7, 1024, u32::MAX] {
            for key in [&b"a"[..], b"bb", b"ccc"] {
                assert!(f.bucket(key, buckets) < buckets);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_buckets_panics() {
        H3Hash::with_seed(8, 1).bucket(b"x", 0);
    }
}

#[cfg(test)]
mod quality {
    //! Hash-quality measurements: avalanche and bucket uniformity.
    //!
    //! Test-only analysis helpers, not part of the datapath. They quantify
    //! the properties the flow table's collision behaviour depends on.

    use crate::HashFunction;

    /// Mean fraction of output bits that flip when a single input bit flips,
    /// estimated over `samples` random-ish keys of `key_len` bytes derived
    /// from `seed`. An ideal hash scores 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `key_len` is zero.
    pub fn avalanche_score(f: &dyn HashFunction, key_len: usize, samples: usize, seed: u64) -> f64 {
        assert!(samples > 0 && key_len > 0);
        let mut total_flips = 0u64;
        let mut trials = 0u64;
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            // SplitMix64: a tiny deterministic generator, good enough for
            // producing test keys without pulling `rand` into the lib path.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..samples {
            let mut key = vec![0u8; key_len];
            for chunk in key.chunks_mut(8) {
                let w = next().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&w[..n]);
            }
            let base = f.hash(&key);
            for bit in 0..key_len * 8 {
                let mut flipped = key.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let h = f.hash(&flipped);
                total_flips += u64::from((base ^ h).count_ones());
                trials += 1;
            }
        }
        total_flips as f64 / (trials as f64 * 32.0)
    }

    /// Chi-squared statistic of the bucket histogram produced by hashing
    /// `keys` into `buckets` buckets, normalised by the degrees of freedom
    /// (`buckets - 1`). A uniform hash yields values near 1.0; badly skewed
    /// hashes yield ≫ 1.
    ///
    /// # Panics
    ///
    /// Panics if `buckets < 2` or `keys` is empty.
    pub fn uniformity_chi2<K: AsRef<[u8]>>(f: &dyn HashFunction, keys: &[K], buckets: u32) -> f64 {
        assert!(buckets >= 2, "need at least two buckets");
        assert!(!keys.is_empty(), "need at least one key");
        let mut histogram = vec![0u64; buckets as usize];
        for k in keys {
            histogram[f.bucket(k.as_ref(), buckets) as usize] += 1;
        }
        let expected = keys.len() as f64 / f64::from(buckets);
        let chi2: f64 = histogram
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        chi2 / f64::from(buckets - 1)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{H3Hash, HashFunction};

        fn sequential_keys(n: usize) -> Vec<[u8; 8]> {
            (0..n as u64).map(|i| i.to_le_bytes()).collect()
        }

        #[test]
        fn h3_avalanche_near_half() {
            let s = avalanche_score(&H3Hash::with_seed(64, 3), 8, 32, 2);
            assert!((s - 0.5).abs() < 0.05, "avalanche {s}");
        }

        #[test]
        fn uniformity_good_for_real_hashes() {
            let keys = sequential_keys(16_384);
            let chi = uniformity_chi2(&H3Hash::with_seed(64, 9), &keys, 256);
            // Normalised chi-squared for a uniform distribution concentrates
            // near 1; allow generous slack.
            assert!(chi < 1.6, "chi2/df = {chi}");
        }

        #[test]
        fn uniformity_flags_degenerate_hash() {
            /// A deliberately terrible hash: constant output.
            #[derive(Debug)]
            struct Constant;
            impl HashFunction for Constant {
                fn hash(&self, _key: &[u8]) -> u32 {
                    7
                }
            }
            let keys = sequential_keys(4096);
            let chi = uniformity_chi2(&Constant, &keys, 64);
            assert!(
                chi > 50.0,
                "degenerate hash must fail uniformity, got {chi}"
            );
        }
    }
}
