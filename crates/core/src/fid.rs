//! Flow identifiers and table locations (the FID_GEN encoding).
//!
//! The paper's FID_GEN block "creates a flow identification (ID) value …
//! based on the search result" — i.e. the flow ID *is* the table
//! location, so per-flow state can be addressed directly without another
//! lookup. [`FlowId`] packs a [`Location`] into 32 bits the same way.

use std::fmt;

/// Which of the two symmetric lookup paths (and memories) is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathId {
    /// Path A / Mem1 / Hash1.
    A,
    /// Path B / Mem2 / Hash2.
    B,
}

impl PathId {
    /// The other path.
    #[inline]
    pub fn other(self) -> PathId {
        match self {
            PathId::A => PathId::B,
            PathId::B => PathId::A,
        }
    }

    /// Index form (A = 0, B = 1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PathId::A => 0,
            PathId::B => 1,
        }
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    #[inline]
    pub fn from_index(i: usize) -> PathId {
        match i {
            0 => PathId::A,
            1 => PathId::B,
            _ => panic!("path index {i} out of range"),
        }
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathId::A => write!(f, "A"),
            PathId::B => write!(f, "B"),
        }
    }
}

/// Where a flow entry physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Overflow CAM slot.
    Cam(u32),
    /// Hash-table entry: path's memory, bucket index, slot within bucket.
    Mem {
        /// Which memory half.
        path: PathId,
        /// Bucket index within that memory.
        bucket: u32,
        /// Entry slot within the bucket (`0..K`).
        slot: u8,
    },
}

/// A packed 32-bit flow identifier.
///
/// Layout: bit 31 = CAM flag. For CAM entries bits 0..31 hold the CAM
/// slot. For memory entries bit 30 selects the path and bits 0..30 hold
/// `bucket * K + slot`; `K` (entries per bucket) is a table parameter, so
/// encoding and decoding go through the same `entries_per_bucket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u32);

const CAM_FLAG: u32 = 1 << 31;
const PATH_FLAG: u32 = 1 << 30;
const MEM_INDEX_MASK: u32 = PATH_FLAG - 1;

impl FlowId {
    /// Packs a location.
    ///
    /// # Panics
    ///
    /// Panics if the location's indices overflow the encoding (bucket ×
    /// K + slot must fit in 30 bits; CAM slots in 31 bits).
    pub fn encode(loc: Location, entries_per_bucket: u8) -> FlowId {
        match loc {
            Location::Cam(slot) => {
                assert!(slot < CAM_FLAG, "CAM slot {slot} overflows encoding");
                FlowId(CAM_FLAG | slot)
            }
            Location::Mem { path, bucket, slot } => {
                assert!(slot < entries_per_bucket, "slot beyond bucket capacity");
                let idx = u64::from(bucket) * u64::from(entries_per_bucket) + u64::from(slot);
                assert!(
                    idx < u64::from(MEM_INDEX_MASK),
                    "entry index {idx} overflows encoding"
                );
                let path_bit = match path {
                    PathId::A => 0,
                    PathId::B => PATH_FLAG,
                };
                FlowId(path_bit | idx as u32)
            }
        }
    }

    /// Unpacks the location.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_bucket` is zero.
    pub fn decode(self, entries_per_bucket: u8) -> Location {
        assert!(entries_per_bucket > 0);
        if self.0 & CAM_FLAG != 0 {
            Location::Cam(self.0 & !CAM_FLAG)
        } else {
            let path = if self.0 & PATH_FLAG != 0 {
                PathId::B
            } else {
                PathId::A
            };
            let idx = self.0 & MEM_INDEX_MASK;
            Location::Mem {
                path,
                bucket: idx / u32::from(entries_per_bucket),
                slot: (idx % u32::from(entries_per_bucket)) as u8,
            }
        }
    }

    /// Raw packed value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fid:{:08x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cam_roundtrip() {
        let id = FlowId::encode(Location::Cam(1023), 2);
        assert_eq!(id.decode(2), Location::Cam(1023));
    }

    #[test]
    fn mem_roundtrip_both_paths() {
        for path in [PathId::A, PathId::B] {
            for (bucket, slot) in [(0u32, 0u8), (12345, 1), (4_000_000, 3)] {
                let loc = Location::Mem { path, bucket, slot };
                let id = FlowId::encode(loc, 4);
                assert_eq!(id.decode(4), loc, "{path} {bucket} {slot}");
            }
        }
    }

    #[test]
    fn cam_and_mem_never_collide() {
        let cam = FlowId::encode(Location::Cam(0), 2);
        let mem = FlowId::encode(
            Location::Mem {
                path: PathId::A,
                bucket: 0,
                slot: 0,
            },
            2,
        );
        assert_ne!(cam, mem);
        assert_ne!(cam.raw() & CAM_FLAG, 0);
        assert_eq!(mem.raw() & CAM_FLAG, 0);
    }

    #[test]
    fn paths_distinguished() {
        let a = FlowId::encode(
            Location::Mem {
                path: PathId::A,
                bucket: 7,
                slot: 1,
            },
            2,
        );
        let b = FlowId::encode(
            Location::Mem {
                path: PathId::B,
                bucket: 7,
                slot: 1,
            },
            2,
        );
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "overflows encoding")]
    fn oversized_bucket_panics() {
        let _ = FlowId::encode(
            Location::Mem {
                path: PathId::A,
                bucket: u32::MAX / 2,
                slot: 0,
            },
            4,
        );
    }

    #[test]
    #[should_panic(expected = "beyond bucket capacity")]
    fn slot_beyond_k_panics() {
        let _ = FlowId::encode(
            Location::Mem {
                path: PathId::A,
                bucket: 0,
                slot: 2,
            },
            2,
        );
    }

    #[test]
    fn path_helpers() {
        assert_eq!(PathId::A.other(), PathId::B);
        assert_eq!(PathId::B.other(), PathId::A);
        assert_eq!(PathId::from_index(0), PathId::A);
        assert_eq!(PathId::from_index(1), PathId::B);
        assert_eq!(PathId::A.index(), 0);
        assert_eq!(PathId::B.to_string(), "B");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_path_index_panics() {
        let _ = PathId::from_index(2);
    }
}
