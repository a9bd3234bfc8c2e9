//! The H3 universal hash family.
//!
//! H3 hashes a `w`-bit key by XOR-ing together a random 32-bit word for
//! every set key bit: `h(x) = ⊕ { q[i] : x[i] = 1 }`. In hardware this is
//! a pure XOR tree — single-cycle, trivially pipelined — which makes H3
//! the textbook choice for FPGA hash tables and the natural reading of
//! the paper's "two pre-selected hash functions". Choosing independent
//! `q` matrices yields the independent functions the two-choice table
//! needs.
//!
//! The host model evaluates the circuit byte-sliced (Carter & Wegman,
//! JCSS 1979; Ramakrishna, Fu & Bahcekapili, IEEE ToC 1997): since `h`
//! is GF(2)-linear, the contribution of one key byte is the XOR of that
//! byte's eight selected rows, which is precomputed for all 256 byte
//! values. A hash is then one table lookup and one XOR per key byte,
//! bit-identical to the per-bit XOR tree.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::HashFunction;

/// An H3 universal hash over keys of at most `key_bits` bits.
///
/// Keys shorter than `key_bits` are treated as zero-padded (XOR of
/// nothing); keys longer than `key_bits` are rejected — the matrix is a
/// synthesized circuit of fixed width, exactly as on an FPGA.
#[derive(Clone)]
pub struct H3Hash {
    /// One random word per key bit.
    matrix: Vec<u32>,
    /// `tables[i][b]`: XOR of the rows of key byte `i` selected by the
    /// set bits of `b`, one table per whole byte the width admits.
    tables: Vec<[u32; 256]>,
    seed: u64,
}

impl fmt::Debug for H3Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("H3Hash")
            .field("key_bits", &self.key_bits())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl H3Hash {
    /// Builds an H3 function for keys up to `key_bits` bits, with matrix
    /// entries drawn from a deterministic RNG seeded with `seed`.
    ///
    /// The matrix is *screened*, mirroring the paper's "pre-selected"
    /// functions: a uniformly random GF(2) matrix can project
    /// rank-deficiently onto the high output bits that multiply-shift
    /// bucket reduction consumes, which silently halves (or worse) the
    /// bucket space for structured keys — sequential IPs and ports are
    /// exactly what flow tables see. Candidate matrices are redrawn
    /// deterministically until every byte-aligned window of key bits
    /// spans the top output bits with full rank. Construction stays a
    /// pure function of `(key_bits, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is zero.
    pub fn with_seed(key_bits: usize, seed: u64) -> Self {
        assert!(key_bits > 0, "key width must be non-zero");
        let mut matrix = Vec::new();
        for attempt in 0..Self::MAX_SCREEN_ATTEMPTS {
            let mut rng = StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            matrix = (0..key_bits).map(|_| rng.gen()).collect();
            if Self::screen(&matrix) {
                break;
            }
        }
        let tables = matrix
            .chunks_exact(8)
            .map(|rows| {
                let mut t = [0u32; 256];
                for b in 1..256 {
                    // The rows of `b` are those of `b` without its lowest
                    // set bit (already built), plus that bit's row.
                    t[b] = t[b & (b - 1)] ^ rows[b.trailing_zeros() as usize];
                }
                t
            })
            .collect();
        H3Hash {
            matrix,
            tables,
            seed,
        }
    }

    const MAX_SCREEN_ATTEMPTS: u64 = 64;

    /// Number of high output bits whose coverage is screened (the bits
    /// bucket reduction uses for tables up to 2^10 buckets).
    const SCREEN_BITS: u32 = 10;

    /// Accepts a matrix iff every byte-aligned window of 16 key bits
    /// projects onto the top [`Self::SCREEN_BITS`] output bits with the
    /// maximum possible rank, so structured keys that vary in any
    /// contiguous low-bit field spread over all buckets.
    fn screen(matrix: &[u32]) -> bool {
        let window = 16.min(matrix.len());
        let mut start = 0;
        loop {
            let rows = &matrix[start..(start + window).min(matrix.len())];
            let want = (rows.len() as u32).min(Self::SCREEN_BITS);
            if Self::projected_rank(rows) < want {
                return false;
            }
            if start + window >= matrix.len() {
                return true;
            }
            start += 8;
        }
    }

    /// Rank over GF(2) of `rows` projected onto the top
    /// [`Self::SCREEN_BITS`] bits.
    fn projected_rank(rows: &[u32]) -> u32 {
        let mut basis = [0u32; Self::SCREEN_BITS as usize];
        let mut rank = 0;
        for &row in rows {
            let mut v = row >> (32 - Self::SCREEN_BITS);
            while v != 0 {
                let lead = (31 - v.leading_zeros()) as usize;
                if basis[lead] == 0 {
                    basis[lead] = v;
                    rank += 1;
                    break;
                }
                v ^= basis[lead];
            }
        }
        rank
    }

    /// Maximum key width in bits.
    pub fn key_bits(&self) -> usize {
        self.matrix.len()
    }
}

impl HashFunction for H3Hash {
    /// # Panics
    ///
    /// Panics if `key.len() * 8 > key_bits()` — the circuit has no inputs
    /// for the extra bits, and truncating silently would corrupt flow
    /// identity.
    fn hash(&self, key: &[u8]) -> u32 {
        assert!(
            key.len() * 8 <= self.matrix.len(),
            "key of {} bits exceeds H3 circuit width {}",
            key.len() * 8,
            self.matrix.len()
        );
        key.iter()
            .zip(&self.tables)
            .fold(0, |acc, (&b, t)| acc ^ t[usize::from(b)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The circuit read literally, one key bit at a time: the reference
    /// the byte-sliced [`H3Hash::hash`] must equal.
    fn hash_bit_serial(h: &H3Hash, key: &[u8]) -> u32 {
        assert!(key.len() * 8 <= h.matrix.len());
        let mut acc = 0u32;
        for (byte_idx, &byte) in key.iter().enumerate() {
            let mut b = byte;
            let mut bit_idx = byte_idx * 8;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= h.matrix[bit_idx];
                }
                b >>= 1;
                bit_idx += 1;
            }
        }
        acc
    }

    proptest! {
        /// Byte-sliced evaluation equals the bit-serial circuit for any
        /// seed, any width (whole bytes or not), and every key length the
        /// width admits, including the all-ones key that selects every row.
        #[test]
        fn byte_sliced_matches_bit_serial(
            seed in any::<u64>(),
            key_bits in 8usize..=512,
            bytes in prop::collection::vec(any::<u8>(), 64),
        ) {
            let h = H3Hash::with_seed(key_bits, seed);
            let max_len = key_bits / 8;
            for len in 0..=max_len {
                let key = &bytes[..len];
                prop_assert_eq!(h.hash(key), hash_bit_serial(&h, key), "len {}", len);
            }
            let ones = vec![0xFF; max_len];
            prop_assert_eq!(h.hash(&ones), hash_bit_serial(&h, &ones));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = H3Hash::with_seed(64, 42);
        let b = H3Hash::with_seed(64, 42);
        let c = H3Hash::with_seed(64, 43);
        assert_eq!(a.hash(b"12345678"), b.hash(b"12345678"));
        assert_ne!(a.hash(b"12345678"), c.hash(b"12345678"));
    }

    #[test]
    fn zero_key_hashes_to_zero() {
        let h = H3Hash::with_seed(32, 1);
        assert_eq!(h.hash(&[0, 0, 0, 0]), 0);
        assert_eq!(h.hash(&[]), 0);
    }

    #[test]
    fn linear_over_xor() {
        // H3 is GF(2)-linear: h(x ^ y) = h(x) ^ h(y).
        let h = H3Hash::with_seed(32, 7);
        let x = [0b1010_0001u8, 3, 9, 200];
        let y = [0b0110_1100u8, 250, 1, 17];
        let xy: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        assert_eq!(h.hash(&xy), h.hash(&x) ^ h.hash(&y));
    }

    #[test]
    fn single_bit_key_selects_matrix_entry() {
        let h = H3Hash::with_seed(16, 5);
        // Key with only bit 9 set (second byte, bit 1).
        let key = [0u8, 0b0000_0010];
        assert_eq!(h.hash(&key), h.matrix[9]);
    }

    #[test]
    #[should_panic(expected = "exceeds H3 circuit width")]
    fn oversized_key_panics() {
        let h = H3Hash::with_seed(16, 5);
        let _ = h.hash(&[0, 0, 0]);
    }
}
