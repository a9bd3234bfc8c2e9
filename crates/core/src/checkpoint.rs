//! Consistent checkpoint/restore of the timed backends.
//!
//! A checkpoint is a hand-rolled little-endian byte stream (no external
//! serialization dependency) capturing everything that determines future
//! behaviour of a *quiescent* simulator: the clock, the load-balancer
//! PRNG state, cumulative statistics, each resident flow (its location,
//! key and counters) under one check word, the lifecycle-scan cursors,
//! victims and events. The memory models are not serialized: they hold
//! no data, and a quiescent one holds no request, so the live instance
//! (at checkpoint time) and the restored instance both continue from
//! freshly built models. The two
//! are in identical states by construction and replay from a checkpoint
//! is bit-identical — `tests/checkpoint_restore.rs` pins exactly that.
//!
//! The format is versioned and guarded by magic bytes plus an FNV-1a
//! digest of the behaviour-relevant configuration, so restoring into a
//! mismatched configuration fails loudly instead of silently diverging.
//! Restore bounds what the restored instance counts on from: the clock,
//! every statistic and each flow record's packets and bytes are at most
//! [`MAX_COUNTER`], and no record is stamped after the clock.

use std::error::Error;
use std::fmt;

use flowlut_traffic::{FlowKey, MAX_KEY_BYTES};

use crate::fid::{Location, PathId};
use crate::flow_state::{FlowCounters, FlowRecord};
use crate::sim::SimStats;
use crate::table::TableConfig;

/// Checkpoint serialization or restore failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The pipeline still has staged, queued, or in-flight work; drain
    /// (and let internal write batches settle) before checkpointing.
    NotQuiescent {
        /// Descriptors still in the pipeline.
        in_pipeline: u64,
    },
    /// The byte stream does not start with the expected magic bytes.
    BadMagic,
    /// The byte stream's format version is not supported.
    BadVersion(u32),
    /// The restoring configuration differs from the checkpointed one
    /// (FNV-1a digests of the behaviour-relevant fields).
    ConfigMismatch {
        /// Digest of the configuration handed to restore.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// The byte stream ended early or carries trailing bytes.
    Truncated,
    /// A field failed validation during restore.
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::NotQuiescent { in_pipeline } => write!(
                f,
                "checkpoint requires a quiescent pipeline: {in_pipeline} descriptors in flight"
            ),
            CheckpointError::BadMagic => write!(f, "not a checkpoint: bad magic bytes"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (digest {found:#018x}, restoring config digests to {expected:#018x})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint byte stream truncated or padded"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint field: {what}"),
        }
    }
}

impl Error for CheckpointError {}

/// Little-endian byte-stream writer for checkpoint blobs.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (length is *not* written; pair with
    /// [`put_u8`](Self::put_u8)/[`put_u64`](Self::put_u64) prefixes).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The bytes written so far.
    pub(crate) fn written(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte-stream reader for checkpoint blobs.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads `N` raw bytes as an array: a group of fixed-width fields
    /// read with one bounds check.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer than `N` bytes remain.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let (head, rest) = self
            .rest()
            .split_first_chunk::<N>()
            .ok_or(CheckpointError::Truncated)?;
        let out = *head;
        self.pos = self.buf.len() - rest.len();
        Ok(out)
    }

    /// The bytes not read yet.
    #[inline]
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a clock or statistics counter: a little-endian `u64` of at
    /// most [`MAX_COUNTER`], so the run a restore resumes can count on
    /// without overflow.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of stream;
    /// [`CheckpointError::Corrupt`] above [`MAX_COUNTER`].
    pub fn counter(&mut self) -> Result<u64, CheckpointError> {
        let v = self.u64()?;
        if v > MAX_COUNTER {
            return Err(CheckpointError::Corrupt("counter above 2^62"));
        }
        Ok(v)
    }

    /// Asserts the stream was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if bytes remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Truncated)
        }
    }
}

/// The largest counter a checkpoint may carry ([`ByteReader::counter`]):
/// 2^62, which no run reaches — counting one per cycle of a 1 GHz clock
/// takes over a century — so a restored simulator counts on without
/// overflow. An engine restore holds each statistic summed over its
/// carried counters and all its shards to the same bound, since its
/// merged view adds them up.
pub const MAX_COUNTER: u64 = 1 << 62;

/// Incremental FNV-1a (64-bit) digest, used to fingerprint the
/// behaviour-relevant configuration a checkpoint was taken under, and
/// for a simulator checkpoint's check word over its resident flows.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds raw bytes into the digest eight at a time: one FNV-1a step
    /// per little-endian 64-bit word, the last zero-padded. Each step is
    /// a bijection of the state, so strings of one length that differ
    /// within one word fold to different digests.
    pub fn write_words(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        let tail =
            (!tail.is_empty()).then(|| tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        for word in words.iter().map(|w| u64::from_le_bytes(*w)).chain(tail) {
            self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Serializes a [`FlowKey`] as `[len: u8][bytes]`.
pub fn write_key(w: &mut ByteWriter, key: &FlowKey) {
    let b = key.as_bytes();
    w.put_u8(b.len() as u8);
    w.put_bytes(b);
}

/// Reads a [`FlowKey`] written by [`write_key`].
///
/// # Errors
///
/// [`CheckpointError`] on truncation or an unrepresentable key.
pub fn read_key(r: &mut ByteReader<'_>) -> Result<FlowKey, CheckpointError> {
    FlowKey::new(read_key_bytes(r)?).map_err(|_| key_too_long())
}

/// The bytes of a key written by [`write_key`], not made a [`FlowKey`].
#[inline]
pub(crate) fn read_key_bytes<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], CheckpointError> {
    let len = usize::from(r.u8()?);
    r.take(len)
}

/// The bytes of a key written by [`write_key`], refused as [`read_key`]
/// refuses a key no [`FlowKey`] holds, without building one.
#[inline]
pub(crate) fn read_flow_key_bytes<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], CheckpointError> {
    let key = read_key_bytes(r)?;
    if key.is_empty() || key.len() > MAX_KEY_BYTES {
        return Err(key_too_long());
    }
    Ok(key)
}

fn key_too_long() -> CheckpointError {
    CheckpointError::Corrupt("flow key too long")
}

const LOC_TAG_MEM_A: u8 = 0;
const LOC_TAG_MEM_B: u8 = 1;
const LOC_TAG_CAM: u8 = 2;

/// Serializes a table [`Location`].
pub fn write_location(w: &mut ByteWriter, loc: Location) {
    match loc {
        Location::Mem { path, bucket, slot } => {
            w.put_u8(match path {
                PathId::A => LOC_TAG_MEM_A,
                PathId::B => LOC_TAG_MEM_B,
            });
            w.put_u32(bucket);
            w.put_u8(slot);
        }
        Location::Cam(slot) => {
            w.put_u8(LOC_TAG_CAM);
            w.put_u32(slot);
        }
    }
}

/// Reads a [`Location`] written by [`write_location`], validated against
/// the table geometry (so a corrupt stream cannot panic downstream
/// encoders).
///
/// # Errors
///
/// [`CheckpointError`] on truncation or out-of-range indices.
#[inline]
pub fn read_location(
    r: &mut ByteReader<'_>,
    table: &TableConfig,
) -> Result<Location, CheckpointError> {
    match r.u8()? {
        tag @ (LOC_TAG_MEM_A | LOC_TAG_MEM_B) => {
            let [b0, b1, b2, b3, slot] = r.array()?;
            let bucket = u32::from_le_bytes([b0, b1, b2, b3]);
            if bucket >= table.buckets_per_mem {
                return Err(CheckpointError::Corrupt("bucket index out of range"));
            }
            if slot >= table.entries_per_bucket {
                return Err(CheckpointError::Corrupt("bucket slot out of range"));
            }
            let path = if tag == LOC_TAG_MEM_A {
                PathId::A
            } else {
                PathId::B
            };
            Ok(Location::Mem { path, bucket, slot })
        }
        LOC_TAG_CAM => {
            let slot = r.u32()?;
            if usize::try_from(slot)
                .ok()
                .is_none_or(|s| s >= table.cam_capacity)
            {
                return Err(CheckpointError::Corrupt("CAM slot out of range"));
            }
            Ok(Location::Cam(slot))
        }
        _ => Err(CheckpointError::Corrupt("unknown location tag")),
    }
}

/// Serializes a [`FlowRecord`]: its key, then its counters.
pub fn write_record(w: &mut ByteWriter, r: &FlowRecord) {
    write_key(w, &r.key);
    write_counters(w, r);
}

/// Serializes the five counters of a [`FlowRecord`], which
/// [`read_counters`] reads.
pub(crate) fn write_counters(w: &mut ByteWriter, r: &FlowRecord) {
    w.put_u64(r.first_seen_ns);
    w.put_u64(r.last_seen_ns);
    w.put_u64(r.last_touch_sys);
    w.put_u64(r.packets);
    w.put_u64(r.bytes);
}

/// The clock a restore resumes at, which no flow record it reads may
/// postdate: a system cycle, and that cycle's time in ns as the
/// simulator stamps records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordClock {
    pub(crate) sys: u64,
    pub(crate) ns: u64,
}

/// Reads a [`FlowRecord`] written by [`write_record`], bounded as
/// [`read_counters`] bounds its counters.
pub(crate) fn read_record(
    r: &mut ByteReader<'_>,
    clock: RecordClock,
) -> Result<FlowRecord, CheckpointError> {
    let key = read_key(r)?;
    Ok(read_counters(r, clock)?.with_key(key))
}

/// The counters of a record written by [`write_record`], read after its
/// key: five `u64`s, with one bounds check. Refused unless the flow's
/// next packet at `clock` or later counts on: packets and bytes at most
/// [`MAX_COUNTER`], the first sighting no later than the last, and
/// neither the last sighting nor the last touch after `clock`.
#[inline]
pub(crate) fn read_counters(
    r: &mut ByteReader<'_>,
    clock: RecordClock,
) -> Result<FlowCounters, CheckpointError> {
    let b: [u8; 40] = r.array()?;
    let word = |i: usize| u64::from_le_bytes(std::array::from_fn(|j| b[8 * i + j]));
    let c = FlowCounters {
        first_seen_ns: word(0),
        last_seen_ns: word(1),
        last_touch_sys: word(2),
        packets: word(3),
        bytes: word(4),
    };
    if c.packets.max(c.bytes) > MAX_COUNTER {
        Err(CheckpointError::Corrupt("counter above 2^62"))
    } else if c.first_seen_ns > c.last_seen_ns {
        Err(CheckpointError::Corrupt(
            "flow record last seen before first seen",
        ))
    } else if c.last_seen_ns > clock.ns || c.last_touch_sys > clock.sys {
        Err(CheckpointError::Corrupt(
            "flow record stamped after the clock",
        ))
    } else {
        Ok(c)
    }
}

/// Serializes [`SimStats`]: its counters, then `max_latency_sys`.
pub fn write_stats(w: &mut ByteWriter, s: &SimStats) {
    let mut s = *s;
    for v in s.counters_mut() {
        w.put_u64(*v);
    }
    w.put_u64(s.max_latency_sys);
}

/// Reads [`SimStats`] written by [`write_stats`].
///
/// # Errors
///
/// [`CheckpointError::Truncated`] at end of stream;
/// [`CheckpointError::Corrupt`] for a counter above [`MAX_COUNTER`].
pub fn read_stats(r: &mut ByteReader<'_>) -> Result<SimStats, CheckpointError> {
    let mut s = SimStats::default();
    for v in s.counters_mut() {
        *v = r.counter()?;
    }
    s.max_latency_sys = r.counter()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    #[test]
    fn byte_stream_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u64(), Err(CheckpointError::Truncated));
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn key_location_record_roundtrip() {
        let table = TableConfig::test_small();
        let key = FlowKey::from(FiveTuple::from_index(42));
        let locs = [
            Location::Mem {
                path: PathId::A,
                bucket: 3,
                slot: 1,
            },
            Location::Mem {
                path: PathId::B,
                bucket: 255,
                slot: 0,
            },
            Location::Cam(15),
        ];
        let mut rec = FlowRecord::first_packet(key, 500, 100, 64);
        rec.update(900, 180, 1500);
        let clock = RecordClock { sys: 180, ns: 900 };
        let mut w = ByteWriter::new();
        write_key(&mut w, &key);
        for loc in locs {
            write_location(&mut w, loc);
        }
        write_record(&mut w, &rec);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_key(&mut r).unwrap(), key);
        for loc in locs {
            assert_eq!(read_location(&mut r, &table).unwrap(), loc);
        }
        assert_eq!(read_record(&mut r, clock).unwrap(), rec);
        r.finish().unwrap();
    }

    #[test]
    fn records_the_next_packet_cannot_count_on_are_refused() {
        let clock = RecordClock { sys: 180, ns: 900 };
        let mut base =
            FlowRecord::first_packet(FlowKey::from(FiveTuple::from_index(1)), 500, 100, 64);
        base.update(900, 180, 1500);
        let read = |edit: fn(&mut FlowRecord)| {
            let mut rec = base;
            edit(&mut rec);
            let mut w = ByteWriter::new();
            write_record(&mut w, &rec);
            read_record(&mut ByteReader::new(&w.into_bytes()), clock).err()
        };
        let above = Some(CheckpointError::Corrupt("counter above 2^62"));
        let backwards = Some(CheckpointError::Corrupt(
            "flow record last seen before first seen",
        ));
        let ahead = Some(CheckpointError::Corrupt(
            "flow record stamped after the clock",
        ));
        assert_eq!(read(|_| {}), None);
        assert_eq!(
            read(|r| (r.packets, r.bytes) = (MAX_COUNTER, MAX_COUNTER)),
            None
        );
        assert_eq!(read(|r| r.packets = MAX_COUNTER + 1), above);
        assert_eq!(read(|r| r.bytes = u64::MAX), above);
        assert_eq!(read(|r| r.first_seen_ns = 901), backwards);
        assert_eq!(read(|r| r.last_seen_ns = 901), ahead);
        assert_eq!(read(|r| r.last_touch_sys = 181), ahead);
    }

    #[test]
    fn out_of_range_locations_rejected() {
        let table = TableConfig::test_small();
        let cases = [
            Location::Mem {
                path: PathId::A,
                bucket: table.buckets_per_mem,
                slot: 0,
            },
            Location::Mem {
                path: PathId::B,
                bucket: 0,
                slot: table.entries_per_bucket,
            },
            Location::Cam(table.cam_capacity as u32),
        ];
        for loc in cases {
            let mut w = ByteWriter::new();
            write_location(&mut w, loc);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert!(
                matches!(
                    read_location(&mut r, &table),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{loc:?} must be rejected"
            );
        }
    }

    #[test]
    fn stats_roundtrip_covers_every_field() {
        // Give every field a distinct value so a swapped read slot fails.
        let s = SimStats {
            offered: 1,
            admitted: 2,
            completed: 3,
            cam_hits: 4,
            lu1_hits: 5,
            lu2_hits: 6,
            inserted_mem: 7,
            inserted_cam: 8,
            duplicate_races: 9,
            drops: 10,
            lu1_per_path: [11, 12],
            reads_issued: 13,
            writes_issued: 14,
            filter_hold_cycles: 15,
            input_stall_cycles: 16,
            same_key_holds: 17,
            bwr_count_releases: 18,
            bwr_timeout_releases: 19,
            deletes: 20,
            expired_ttl: 21,
            pressure_evicted: 22,
            total_latency_sys: 23,
            max_latency_sys: 24,
        };
        let mut w = ByteWriter::new();
        write_stats(&mut w, &s);
        let bytes = w.into_bytes();
        // 23 counters and the high-water mark.
        assert_eq!(bytes.len(), 24 * 8);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_stats(&mut r).unwrap(), s);
        r.finish().unwrap();
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish(), "order-sensitive");
        // Eight bytes a step: any one flipped bit of a 20-byte string,
        // a flow's location and key, moves the digest.
        let words = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            h.write_words(bytes);
            h.finish()
        };
        let flow: Vec<u8> = (0..20).collect();
        for bit in 0..flow.len() * 8 {
            let mut flipped = flow.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(words(&flipped), words(&flow), "bit {bit}");
        }
    }

    #[test]
    fn checkpoint_error_displays() {
        for (e, needle) in [
            (
                CheckpointError::NotQuiescent { in_pipeline: 3 },
                "quiescent",
            ),
            (CheckpointError::BadMagic, "magic"),
            (CheckpointError::BadVersion(9), "version 9"),
            (
                CheckpointError::ConfigMismatch {
                    expected: 1,
                    found: 2,
                },
                "different configuration",
            ),
            (CheckpointError::Truncated, "truncated"),
            (CheckpointError::Corrupt("bad slot"), "bad slot"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
