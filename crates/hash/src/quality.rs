//! Hash-quality measurements: avalanche and bucket uniformity.
//!
//! These are offline analysis helpers (used by the tests), not part of
//! the datapath. They quantify the properties the
//! flow table's collision behaviour depends on.

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
