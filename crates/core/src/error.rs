//! Error types for the flow lookup table.

use std::error::Error;
use std::fmt;

use crate::backend::FullError;
use crate::fid::FlowId;

/// Insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The key is already resident; carries its existing [`FlowId`].
    Duplicate(FlowId),
    /// Both candidate buckets and the CAM are full. The paper's scheme
    /// relies on housekeeping (flow expiry,
    /// [`ExpiryPolicy`](crate::config::ExpiryPolicy)) keeping this rare;
    /// the simulator drops the flow.
    TableFull,
    /// No slot can hold the key: a slot is a length byte and 1 to
    /// `slot_bytes − 1` key bytes (see [`codec`](crate::codec)).
    KeyDoesNotFit {
        /// The key's length in bytes.
        key_bytes: usize,
        /// The slot width, `TableConfig::entry_slot_bytes`.
        slot_bytes: usize,
    },
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::Duplicate(id) => write!(f, "key already present as {id}"),
            InsertError::TableFull => {
                write!(f, "both hash buckets and the overflow CAM are full")
            }
            InsertError::KeyDoesNotFit {
                key_bytes,
                slot_bytes,
            } => write!(
                f,
                "a key of {key_bytes} bytes does not fit a {slot_bytes}-byte slot"
            ),
        }
    }
}

impl Error for InsertError {}

/// Preloading stopped early.
///
/// Preload is *not* transactional: the keys accepted before the failing
/// one remain loaded in the table, which DRAM reads see, and `inserted`
/// says exactly how many those are, so callers
/// can log the partial load, top up, or tear down deliberately instead
/// of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreloadError {
    /// Keys successfully loaded before the failure. They remain
    /// resident — preload does not roll back.
    pub inserted: usize,
    /// The insertion failure that stopped the preload.
    pub cause: InsertError,
}

impl fmt::Display for PreloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preload stopped after {} keys: {}",
            self.inserted, self.cause
        )
    }
}

impl Error for PreloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.cause)
    }
}

/// A user deletion refused: the update unit's queue already holds
/// `capacity` user deletions. It takes one deletion a cycle, so tick the
/// simulator and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteQueueFull {
    /// User deletions the queue holds.
    pub capacity: usize,
}

impl fmt::Display for DeleteQueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} user deletions are queued for the update unit already",
            self.capacity
        )
    }
}

impl Error for DeleteQueueFull {}

/// Configuration rejected by [`TableConfig::validate`](crate::table::TableConfig::validate)
/// or [`SimConfig::validate`](crate::config::SimConfig::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Description of the inconsistency.
    pub reason: String,
}

impl ConfigError {
    /// Creates a configuration error.
    pub fn new(reason: impl Into<String>) -> Self {
        ConfigError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.reason)
    }
}

impl Error for ConfigError {}

impl From<flowlut_ddr3::ConfigError> for ConfigError {
    fn from(e: flowlut_ddr3::ConfigError) -> Self {
        ConfigError { reason: e.reason }
    }
}

/// Online shard rescale (N→2N) failed. The engine is left unchanged —
/// new lanes are fully built and populated before being committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RescaleError {
    /// The engine still has staged or in-flight descriptors after the
    /// drain step — rescale requires quiescence.
    NotQuiescent {
        /// Descriptors still staged or in flight.
        in_pipeline: u64,
    },
    /// A migrating flow could not be placed on its destination shard.
    ShardFull {
        /// Destination shard index that rejected the flow.
        shard: usize,
        /// The underlying placement failure.
        cause: FullError,
    },
}

impl fmt::Display for RescaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RescaleError::NotQuiescent { in_pipeline } => write!(
                f,
                "rescale requires a quiescent engine: {in_pipeline} descriptors still in pipeline"
            ),
            RescaleError::ShardFull { shard, cause } => {
                write!(
                    f,
                    "rescale could not rehome a flow onto shard {shard}: {cause}"
                )
            }
        }
    }
}

impl Error for RescaleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RescaleError::NotQuiescent { .. } => None,
            RescaleError::ShardFull { cause, .. } => Some(cause),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::{FlowId, Location};

    #[test]
    fn displays() {
        let id = FlowId::encode(Location::Cam(3), 2);
        assert!(InsertError::Duplicate(id)
            .to_string()
            .contains("already present"));
        assert!(InsertError::TableFull.to_string().contains("full"));
        assert!(ConfigError::new("bad").to_string().contains("bad"));
        let p = PreloadError {
            inserted: 7,
            cause: InsertError::TableFull,
        };
        assert!(p.to_string().contains("after 7 keys"), "{p}");
        assert!(std::error::Error::source(&p).is_some());
        let full = DeleteQueueFull { capacity: 256 };
        assert!(full.to_string().contains("256 user deletions"), "{full}");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InsertError>();
        assert_send_sync::<ConfigError>();
        assert_send_sync::<PreloadError>();
        assert_send_sync::<RescaleError>();
        assert_send_sync::<DeleteQueueFull>();
    }

    #[test]
    fn rescale_error_displays_and_chains() {
        use flowlut_traffic::{FiveTuple, FlowKey};
        let full = crate::backend::FullError {
            table: "hashcam-sim",
            key: FlowKey::from(FiveTuple::from_index(9)),
            occupancy: 4,
            capacity: 4,
        };
        let e = RescaleError::ShardFull {
            shard: 3,
            cause: full,
        };
        assert!(e.to_string().contains("shard 3"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
        let nq = RescaleError::NotQuiescent { in_pipeline: 12 };
        assert!(nq.to_string().contains("12"), "{nq}");
        assert!(std::error::Error::source(&nq).is_none());
    }
}
