//! The hash-based shard router.
//!
//! Channel selection must be a **pure function of the flow key**: all
//! packets of one flow have to reach the same channel, or per-flow order
//! (the sequencer's Request Filter guarantee) would be lost the moment
//! two channels race. The router therefore hashes the full key bytes —
//! never the arrival order, never load — and reduces to a shard index.
//!
//! The hash is deliberately a *different algebra* from the table's
//! per-channel H3 bucket hashes: an FNV-1a 64 fold followed by the
//! SplitMix64 finalizer. H3 is GF(2)-linear (XOR of matrix columns);
//! FNV/SplitMix mixes through integer multiplication. Using unrelated
//! families keeps the shard choice uncorrelated with bucket placement,
//! so the keys a shard owns still spread uniformly over its buckets and
//! banks — the per-channel bank scheduling the paper relies on is
//! untouched (see DESIGN.md §Multi-channel scaling).

use flowlut_traffic::FlowKey;

/// Routes flow keys to shard indices `0..shards`.
///
/// Construction fixes the shard count and seed; routing is then a pure
/// function of the key bytes (verified by property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
    seed: u64,
}

impl ShardRouter {
    /// Creates a router over `shards` channels.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        assert!(u32::try_from(shards).is_ok(), "shard count out of range");
        ShardRouter {
            shards: shards as u32,
            seed,
        }
    }

    /// Number of shards routed over.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The 64-bit shard hash of a byte string: seeded FNV-1a fold,
    /// SplitMix64-finalized. Exposed so traces can be pre-partitioned
    /// offline with the exact on-line function.
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        // FNV-1a 64 with the seed folded into the offset basis.
        let mut h = 0xCBF2_9CE4_8422_2325u64 ^ self.seed;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // SplitMix64 finalizer: FNV alone is weak in the high bits, and
        // the reduction below consumes exactly those.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// The shard owning `key` — always in `0..shards()`.
    #[inline]
    pub fn route(&self, key: &FlowKey) -> usize {
        self.route_bytes(key.as_bytes())
    }

    /// [`route`](Self::route) on raw key bytes.
    pub fn route_bytes(&self, bytes: &[u8]) -> usize {
        // Multiply-high range reduction over the full 64 hash bits:
        // unbiased for any shard count, not just powers of two.
        let h = self.hash_bytes(bytes);
        ((u128::from(h) * u128::from(self.shards)) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn route_is_in_range_and_deterministic() {
        for shards in [1usize, 2, 3, 4, 8, 13] {
            let r = ShardRouter::new(shards, 0xC0FFEE);
            for i in 0..500 {
                let s = r.route(&key(i));
                assert!(s < shards);
                assert_eq!(s, r.route(&key(i)), "route must be pure");
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let shards = 8;
        let r = ShardRouter::new(shards, 1);
        let n = 80_000u64;
        let mut counts = vec![0u64; shards];
        for i in 0..n {
            counts[r.route(&key(i))] += 1;
        }
        let expect = n as f64 / shards as f64;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "shard {s}: {c} vs {expect} ({dev:.3})");
        }
    }

    #[test]
    fn seed_changes_the_partition() {
        let a = ShardRouter::new(4, 1);
        let b = ShardRouter::new(4, 2);
        let moved = (0..1000)
            .filter(|&i| a.route(&key(i)) != b.route(&key(i)))
            .count();
        assert!(moved > 500, "only {moved} of 1000 keys moved");
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1, 99);
        for i in 0..100 {
            assert_eq!(r.route(&key(i)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_shards_rejected() {
        ShardRouter::new(0, 0);
    }
}
