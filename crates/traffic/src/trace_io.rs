//! Trace capture and replay: a compact binary format for descriptor
//! traces.
//!
//! The paper's Figure 6 analysis was performed on a captured trace file;
//! this module provides the equivalent workflow for the reproduction —
//! generate a synthetic trace once, save it, and replay the identical
//! stimulus across experiments (or feed in an externally converted
//! trace). Scenario runs (`flowlut-scenarios`) persist their descriptor
//! streams through this module so every benchmark row is reproducible
//! from a committed trace.
//!
//! Format `FLTR` v2 (little-endian):
//!
//! ```text
//! magic    "FLTR"           4 bytes
//! version  u16              format version (currently 2)
//! count    u64              descriptor count
//! per descriptor:
//!   seq         u64
//!   frame_bytes u16
//!   flags       u8          bit 0: hash override present
//!   key_len     u8
//!   key bytes   key_len
//!   [h1 u32, h2 u32]        if flag bit 0
//! checksum u64              FNV-1a over all descriptor bytes
//! ```
//!
//! The header rejects three classes of bad input with distinct
//! messages: files written by the pre-versioning `FLT1` layout (which
//! had no version field or checksum), arbitrary non-trace bytes, and
//! versions newer than this reader. The trailing checksum catches
//! single-byte corruption that still parses structurally.

use std::io::{self, Read, Write};

use crate::descriptor::PacketDescriptor;
use crate::key::FlowKey;

const MAGIC: &[u8; 4] = b"FLTR";
/// Magic of the legacy, unversioned layout this format replaced.
const LEGACY_MAGIC: &[u8; 4] = b"FLT1";
/// Current on-disk format version.
pub const FORMAT_VERSION: u16 = 2;

/// Incremental FNV-1a (64-bit) over the descriptor payload bytes.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Writes `descs` to `w` in the versioned `FLTR` format.
///
/// # Errors
///
/// Propagates I/O errors from `w`. A mutable reference can be passed for
/// `w` (e.g. `&mut file`).
pub fn write_trace<W: Write>(mut w: W, descs: &[PacketDescriptor]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&(descs.len() as u64).to_le_bytes())?;
    let mut fnv = Fnv64::new();
    let mut emit = |w: &mut W, bytes: &[u8]| -> io::Result<()> {
        fnv.update(bytes);
        w.write_all(bytes)
    };
    for d in descs {
        emit(&mut w, &d.seq.to_le_bytes())?;
        emit(&mut w, &d.frame_bytes.to_le_bytes())?;
        let flags: u8 = u8::from(d.hash_override.is_some());
        emit(&mut w, &[flags, d.key.len() as u8])?;
        emit(&mut w, d.key.as_bytes())?;
        if let Some((h1, h2)) = d.hash_override {
            emit(&mut w, &h1.to_le_bytes())?;
            emit(&mut w, &h2.to_le_bytes())?;
        }
    }
    w.write_all(&fnv.finish().to_le_bytes())?;
    Ok(())
}

/// Reads an `FLTR` trace from `r`, verifying version and checksum.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic (with a dedicated message for
/// legacy unversioned `FLT1` files), an unsupported version, a corrupt
/// key length, truncation, or a checksum mismatch; propagates
/// underlying I/O errors otherwise.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Vec<PacketDescriptor>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic == LEGACY_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unversioned legacy FLT1 trace; regenerate with the current writer",
        ));
    }
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an FLTR trace (bad magic)",
        ));
    }
    let mut version_bytes = [0u8; 2];
    r.read_exact(&mut version_bytes)?;
    let version = u16::from_le_bytes(version_bytes);
    if version != FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported FLTR version {version} (reader supports {FORMAT_VERSION})"),
        ));
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes);
    // Defensive cap: refuse absurd counts rather than attempting a huge
    // allocation on corrupt input.
    if count > 1 << 33 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible descriptor count",
        ));
    }
    let mut fnv = Fnv64::new();
    let mut take = |r: &mut R, buf: &mut [u8]| -> io::Result<()> {
        r.read_exact(buf)?;
        fnv.update(buf);
        Ok(())
    };
    // The header's count is untrusted, so it sizes nothing: the vector
    // grows with the records actually read.
    let mut out = Vec::new();
    for _ in 0..count {
        let mut head = [0u8; 12];
        take(&mut r, &mut head)?;
        let seq = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
        let frame_bytes = u16::from_le_bytes(head[8..10].try_into().expect("2 bytes"));
        let flags = head[10];
        let key_len = usize::from(head[11]);
        if key_len == 0 || key_len > crate::key::MAX_KEY_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt key length {key_len}"),
            ));
        }
        let mut key_bytes = vec![0u8; key_len];
        take(&mut r, &mut key_bytes)?;
        let key = FlowKey::new(&key_bytes).expect("length validated");
        let hash_override = if flags & 1 != 0 {
            let mut h = [0u8; 8];
            take(&mut r, &mut h)?;
            Some((
                u32::from_le_bytes(h[0..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(h[4..8].try_into().expect("4 bytes")),
            ))
        } else {
            None
        };
        out.push(PacketDescriptor {
            key,
            seq,
            frame_bytes,
            hash_override,
        });
    }
    let mut checksum_bytes = [0u8; 8];
    r.read_exact(&mut checksum_bytes)?;
    if u64::from_le_bytes(checksum_bytes) != fnv.finish() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "FLTR checksum mismatch (corrupt trace)",
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricTraceProfile;

    use crate::workloads::{HashPattern, HashPatternWorkload};

    /// Bytes of the fixed-size header before the first record.
    const HEADER_LEN: usize = 4 + 2 + 8;

    #[test]
    fn roundtrip_fabric_trace() {
        let trace = FabricTraceProfile::european_2012().generate(500);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn roundtrip_with_hash_overrides() {
        let trace = HashPatternWorkload {
            pattern: HashPattern::BankIncrement,
            count: 64,
            buckets: 256,
            banks: 8,
            seed: 1,
        }
        .build();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, trace);
        assert!(back.iter().all(|d| d.hash_override.is_some()));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE\0\0\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn legacy_flt1_rejected_with_dedicated_message() {
        // A well-formed empty trace in the pre-versioning layout:
        // magic + count, no version field, no checksum.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"FLT1");
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("legacy FLT1"), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        let trace = FabricTraceProfile::european_2012().generate(3);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf[4..6].copy_from_slice(&99u16.to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported FLTR version 99"),
            "{err}"
        );
    }

    #[test]
    fn truncated_trace_rejected() {
        let trace = FabricTraceProfile::european_2012().generate(10);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn corrupt_key_length_rejected() {
        let trace = FabricTraceProfile::european_2012().generate(1);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf[HEADER_LEN + 11] = 200; // key_len byte of the first record
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn single_byte_corruption_fails_checksum() {
        let trace = FabricTraceProfile::european_2012().generate(4);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        // Flip one bit inside the first record's key bytes: still parses
        // structurally, so only the checksum can catch it.
        buf[HEADER_LEN + 12] ^= 0x01;
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_descriptor() -> impl Strategy<Value = PacketDescriptor> {
            (
                prop::collection::vec(any::<u8>(), 1..=crate::key::MAX_KEY_BYTES),
                any::<u64>(),
                any::<u16>(),
                (any::<bool>(), any::<u32>(), any::<u32>()),
            )
                .prop_map(|(key_bytes, seq, frame_bytes, (with_hash, h1, h2))| {
                    PacketDescriptor {
                        key: FlowKey::new(&key_bytes).expect("length in range"),
                        seq,
                        frame_bytes,
                        hash_override: with_hash.then_some((h1, h2)),
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// write → read is the identity for arbitrary descriptor
            /// streams (any key length, any flags combination).
            #[test]
            fn roundtrip_is_identity(
                descs in prop::collection::vec(arb_descriptor(), 0..40)
            ) {
                let mut buf = Vec::new();
                write_trace(&mut buf, &descs).unwrap();
                let back = read_trace(&buf[..]).unwrap();
                prop_assert_eq!(back, descs);
            }

            /// Every strict prefix of a valid trace is rejected — the
            /// reader never silently misparses truncated input.
            #[test]
            fn strict_prefixes_rejected(
                descs in prop::collection::vec(arb_descriptor(), 1..12),
                cut in any::<prop::sample::Index>(),
            ) {
                let mut buf = Vec::new();
                write_trace(&mut buf, &descs).unwrap();
                let len = cut.index(buf.len()); // 0..buf.len(): strictly shorter
                prop_assert!(read_trace(&buf[..len]).is_err());
            }
        }
    }
}
