//! Two-choice pair hashing.

use crate::{H3Hash, HashFunction};

/// The "two pre-selected hash functions" of the paper, packaged as one
/// object that yields both bucket indices for a key.
///
/// The two functions are H3 instances with different seeds, independent
/// draws from the family, so bucket choices are statistically
/// independent — the property the two-choice load-balancing argument
/// rests on.
#[derive(Debug)]
pub struct PairHasher {
    h1: H3Hash,
    h2: H3Hash,
}

impl PairHasher {
    /// The pair for keys up to `key_bits` bits: two H3 functions with
    /// distinct seeds derived from `seed`.
    pub fn h3_pair(key_bits: usize, seed: u64) -> Self {
        PairHasher {
            h1: H3Hash::with_seed(key_bits, seed.wrapping_mul(2).wrapping_add(1)),
            h2: H3Hash::with_seed(key_bits, seed.wrapping_mul(2).wrapping_add(2)),
        }
    }

    /// Both raw 32-bit hashes of `key`.
    pub fn hashes(&self, key: &[u8]) -> (u32, u32) {
        (self.h1.hash(key), self.h2.hash(key))
    }

    /// Both bucket indices of `key` in tables of `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn bucket_pair(&self, key: &[u8], buckets: u32) -> (u32, u32) {
        (self.h1.bucket(key, buckets), self.h2.bucket(key, buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_deterministic() {
        let p = PairHasher::h3_pair(64, 11);
        assert_eq!(p.hashes(b"12345678"), p.hashes(b"12345678"));
    }

    #[test]
    fn two_functions_disagree() {
        let p = PairHasher::h3_pair(64, 5);
        // On a sample of keys the two hashes should differ (independence
        // smoke test: identical functions would defeat two-choice).
        let mut same = 0;
        for i in 0..100u64 {
            let key = i.to_le_bytes();
            let (a, b) = p.hashes(&key);
            if a == b {
                same += 1;
            }
        }
        assert!(
            same < 3,
            "{same} collisions between supposedly independent hashes"
        );
    }

    #[test]
    fn bucket_pair_in_range() {
        let p = PairHasher::h3_pair(64, 1);
        for i in 0..50u64 {
            let key = i.to_le_bytes();
            let (a, b) = p.bucket_pair(&key, 37);
            assert!(a < 37 && b < 37);
        }
    }
}
