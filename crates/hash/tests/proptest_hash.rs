//! Property tests for the hash functions.

use proptest::prelude::*;

use flowlut_hash::{H3Hash, HashFunction, PairHasher};

proptest! {
    /// The hash is a pure function of its input.
    #[test]
    fn deterministic(key in prop::collection::vec(any::<u8>(), 1..13)) {
        let h3 = H3Hash::with_seed(104, 7);
        prop_assert_eq!(h3.hash(&key), h3.hash(&key));
    }

    /// GF(2)-linearity of the XOR-circuit hash holds for arbitrary
    /// same-length keys.
    #[test]
    fn xor_linearity(
        a in prop::collection::vec(any::<u8>(), 8..=8),
        b in prop::collection::vec(any::<u8>(), 8..=8),
    ) {
        let h3 = H3Hash::with_seed(64, 3);
        let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(h3.hash(&ab), h3.hash(&a) ^ h3.hash(&b));
    }

    /// Bucket reduction stays in range for any bucket count.
    #[test]
    fn bucket_in_range(
        key in prop::collection::vec(any::<u8>(), 1..13),
        buckets in 1u32..=u32::MAX,
    ) {
        let h3 = H3Hash::with_seed(96, 5);
        prop_assert!(h3.bucket(&key, buckets) < buckets);
    }

    /// The two halves of a pair hasher are distinct functions.
    #[test]
    fn pair_components_differ(seed in any::<u64>()) {
        let p = PairHasher::h3_pair(64, seed);
        let mut same = 0;
        for i in 0..64u64 {
            let k = i.to_le_bytes();
            let (a, b) = p.hashes(&k);
            if a == b {
                same += 1;
            }
        }
        prop_assert!(same < 4, "{same} collisions out of 64");
    }
}
