//! Flow identity types.

use std::error::Error;
use std::fmt;

/// Maximum flow-key width in bytes.
///
/// The paper's system stores up to 512 bits of per-flow information and
/// advertises scalability "with respect to … number of tuples"; 64 bytes
/// covers an IPv6 5-tuple (37 bytes) and wider n-tuples with room to
/// spare.
pub const MAX_KEY_BYTES: usize = 64;

/// A standard IPv4 5-tuple: the flow identity NetFlow-style processing
/// extracts from each packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, …).
    pub protocol: u8,
}

impl FiveTuple {
    /// Creates a 5-tuple.
    pub fn new(
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        src_port: u16,
        dst_port: u16,
        protocol: u8,
    ) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// Serialises to the canonical 13-byte wire layout
    /// (src ip, dst ip, src port, dst port, protocol — the RSS ordering).
    pub fn to_bytes(self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip);
        b[4..8].copy_from_slice(&self.dst_ip);
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = self.protocol;
        b
    }

    /// Deterministically expands a 64-bit flow index into a plausible
    /// 5-tuple (used by synthetic trace generators: rank → identity).
    pub fn from_index(index: u64) -> Self {
        // SplitMix64 finalizer: spreads the index over the tuple fields.
        let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let lo = z as u32;
        let hi = (z >> 32) as u32;
        FiveTuple {
            src_ip: (0x0A00_0000 | (lo & 0x00FF_FFFF)).to_be_bytes(),
            dst_ip: (0xC0A8_0000 | (hi & 0x0000_FFFF)).to_be_bytes(),
            src_port: (lo >> 16) as u16 | 1024,
            dst_port: (hi >> 16) as u16 | 1,
            protocol: if z & 1 == 0 { 6 } else { 17 },
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} proto {}",
            self.src_ip[0],
            self.src_ip[1],
            self.src_ip[2],
            self.src_ip[3],
            self.src_port,
            self.dst_ip[0],
            self.dst_ip[1],
            self.dst_ip[2],
            self.dst_ip[3],
            self.dst_port,
            self.protocol
        )
    }
}

/// Error returned when constructing a [`FlowKey`] from more than
/// [`MAX_KEY_BYTES`] bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyTooLongError {
    /// The offending length.
    pub len: usize,
}

impl fmt::Display for KeyTooLongError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow key of {} bytes exceeds the {MAX_KEY_BYTES}-byte maximum",
            self.len
        )
    }
}

impl Error for KeyTooLongError {}

/// A generic n-tuple flow key: an opaque byte string of 1..=64 bytes.
///
/// The flow table hashes and compares keys as byte strings, so any tuple
/// arrangement (IPv4/IPv6, MPLS labels, VLAN tags, …) reduces to a
/// `FlowKey`. Stored inline (no heap) because the simulator creates
/// millions of them.
#[derive(Clone, Copy)]
pub struct FlowKey {
    len: u8,
    bytes: [u8; MAX_KEY_BYTES],
}

impl FlowKey {
    /// Creates a key from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTooLongError`] if `bytes` exceeds [`MAX_KEY_BYTES`].
    /// Zero-length keys are allowed only as the `Default` sentinel and
    /// rejected here.
    pub fn new(bytes: &[u8]) -> Result<Self, KeyTooLongError> {
        if bytes.is_empty() || bytes.len() > MAX_KEY_BYTES {
            return Err(KeyTooLongError { len: bytes.len() });
        }
        let mut b = [0u8; MAX_KEY_BYTES];
        b[..bytes.len()].copy_from_slice(bytes);
        Ok(FlowKey {
            len: bytes.len() as u8,
            bytes: b,
        })
    }

    /// The key bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Key length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` for the default (sentinel) key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for FlowKey {
    /// The empty sentinel key (used as "invalid entry" in table storage).
    fn default() -> Self {
        FlowKey {
            len: 0,
            bytes: [0; MAX_KEY_BYTES],
        }
    }
}

impl PartialEq for FlowKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for FlowKey {}

impl PartialOrd for FlowKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FlowKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for FlowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowKey(")?;
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl From<FiveTuple> for FlowKey {
    fn from(t: FiveTuple) -> Self {
        FlowKey::new(&t.to_bytes()).expect("13 bytes is within bounds")
    }
}

impl AsRef<[u8]> for FlowKey {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl TryFrom<&[u8]> for FlowKey {
    type Error = KeyTooLongError;

    fn try_from(bytes: &[u8]) -> Result<Self, Self::Error> {
        FlowKey::new(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn five_tuple_wire_layout() {
        let t = FiveTuple::new([1, 2, 3, 4], [5, 6, 7, 8], 0x1234, 0x5678, 6);
        let b = t.to_bytes();
        assert_eq!(&b[0..4], &[1, 2, 3, 4]);
        assert_eq!(&b[4..8], &[5, 6, 7, 8]);
        assert_eq!(&b[8..10], &[0x12, 0x34]);
        assert_eq!(&b[10..12], &[0x56, 0x78]);
        assert_eq!(b[12], 6);
    }

    #[test]
    fn from_index_is_deterministic_and_spread() {
        assert_eq!(FiveTuple::from_index(7), FiveTuple::from_index(7));
        let distinct: HashSet<FiveTuple> = (0..10_000).map(FiveTuple::from_index).collect();
        assert_eq!(
            distinct.len(),
            10_000,
            "index expansion must be injective in practice"
        );
    }

    #[test]
    fn flow_key_equality_ignores_padding() {
        let a = FlowKey::new(&[1, 2, 3]).unwrap();
        let b = FlowKey::new(&[1, 2, 3]).unwrap();
        let c = FlowKey::new(&[1, 2, 3, 0]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "length is part of identity");
    }

    #[test]
    fn flow_key_bounds() {
        assert!(FlowKey::new(&[]).is_err());
        assert!(FlowKey::new(&[0u8; MAX_KEY_BYTES]).is_ok());
        let err = FlowKey::new(&[0u8; MAX_KEY_BYTES + 1]).unwrap_err();
        assert_eq!(err.len, MAX_KEY_BYTES + 1);
    }

    #[test]
    fn flow_key_hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = FlowKey::new(&[9, 9]).unwrap();
        let b = FlowKey::new(&[9, 9]).unwrap();
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn default_key_is_empty_sentinel() {
        let k = FlowKey::default();
        assert!(k.is_empty());
        assert_ne!(k, FlowKey::new(&[0]).unwrap());
    }

    #[test]
    fn debug_is_hex() {
        let k = FlowKey::new(&[0xAB, 0x01]).unwrap();
        assert_eq!(format!("{k:?}"), "FlowKey(ab01)");
    }

    #[test]
    fn display_five_tuple() {
        let t = FiveTuple::new([10, 0, 0, 1], [8, 8, 8, 8], 1234, 53, 17);
        let s = t.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(s.contains("8.8.8.8:53"));
    }
}
