//! Configuration of the multi-channel engine.

use flowlut_core::{ConfigError, SimConfig};

/// How the engine advances its shards each system-clock cycle.
///
/// Shards share no state by construction — the
/// [`ShardRouter`](crate::ShardRouter) partition is a pure function of
/// the key bytes — so they can be stepped on any schedule that keeps
/// each shard's own cycle sequence intact. Both modes produce
/// **bit-identical** reports; `Threaded` only changes which host thread
/// executes each shard's cycle (pinned by the parallel-equivalence
/// proptest).
///
/// The mode governs stepping only. [`ShardedFlowLut::restore`] restores
/// the shards on one host thread per core, up to the shard count,
/// whatever the mode, `Inline` included: a restore is one fork-join of
/// independent work, with no per-cycle barrier to amortise.
///
/// [`ShardedFlowLut::restore`]: crate::ShardedFlowLut::restore
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Every shard stepped by the calling thread, in shard order — the
    /// reference mode.
    #[default]
    Inline,
    /// Shards partitioned round-robin across `n` executor threads (the
    /// calling thread plus `n − 1` long-lived workers), synchronised by
    /// a per-cycle generation barrier. `n` is clamped to the shard
    /// count and the host's cores; `Threaded(1)` degenerates to
    /// `Inline`.
    Threaded(usize),
}

/// Per-shard ingest batch: the splitter hands descriptors to a channel
/// in groups of this size, preserving the paper's burst-grouping within
/// each channel.
pub(crate) const BATCH: usize = 8;
/// A partially filled batch is flushed after this many system cycles
/// (bounds latency on shard-quiet traffic, like BWr_Gen's timeout).
pub(crate) const BATCH_TIMEOUT_SYS: u64 = 32;
/// Per-shard staging capacity at the splitter. When one shard's staging
/// fills (its channel is saturated), the splitter stalls the whole
/// input — head-of-line, as a hardware distributor would.
pub(crate) const STAGING_CAP: usize = 64;
const _: () = assert!(STAGING_CAP >= BATCH, "staging must hold a batch");

/// Full configuration of [`ShardedFlowLut`](crate::ShardedFlowLut).
///
/// Each shard is one complete paper prototype ([`SimConfig`]) — a
/// dual-path lookup engine over two DDR3 memories — so an N-shard
/// engine drives 2 N independent DDR3 channels. The engine offers
/// every shard its own `input_rate_mhz`: `shards × shard.input_rate_mhz`
/// in aggregate, paced at the splitter.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of channels (shards). Need not be a power of two.
    pub shards: usize,
    /// Per-channel simulator configuration (table sizing, memory,
    /// offered rate). All channels are identical, as hardware would be.
    pub shard: SimConfig,
    /// Seed of the shard router's key hash.
    pub router_seed: u64,
    /// Which host threads step the shards each cycle (bit-identical
    /// either way; see [`ExecutionMode`]).
    pub execution: ExecutionMode,
}

impl EngineConfig {
    /// An engine of `shards` paper prototypes, each offered the paper's
    /// maximum 100 MHz, i.e. an aggregate of `shards × 100 MHz`.
    pub fn prototype(shards: usize) -> Self {
        EngineConfig {
            shards,
            shard: SimConfig::default(),
            router_seed: 0x5EED_C4A7,
            execution: ExecutionMode::Inline,
        }
    }

    /// A scaled-down two-shard configuration for fast unit tests.
    pub fn test_small() -> Self {
        EngineConfig {
            shard: SimConfig::test_small(),
            ..EngineConfig::prototype(2)
        }
    }

    /// System-clock frequency in MHz (all channels share one clock).
    pub fn sys_clock_mhz(&self) -> f64 {
        self.shard.sys_clock_mhz()
    }

    /// System-clock period in nanoseconds.
    pub fn sys_period_ns(&self) -> f64 {
        self.shard.sys_period_ns()
    }

    /// Aggregate offered descriptor rate in MHz, across all shards.
    pub fn input_rate_mhz(&self) -> f64 {
        self.shards as f64 * self.shard.input_rate_mhz
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the per-shard configuration is invalid,
    /// the shard count is zero, or the executor count is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.shard.validate()?;
        if self.shards == 0 {
            return Err(ConfigError::new("shards must be non-zero"));
        }
        if self.execution == ExecutionMode::Threaded(0) {
            return Err(ConfigError::new("Threaded executor count must be non-zero"));
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    /// Four paper prototypes (8 DDR3 channels) at 400 MHz aggregate.
    fn default() -> Self {
        EngineConfig::prototype(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        EngineConfig::default().validate().unwrap();
        EngineConfig::test_small().validate().unwrap();
        EngineConfig::prototype(8).validate().unwrap();
    }

    #[test]
    fn zero_counts_rejected() {
        let mut c = EngineConfig::test_small();
        c.shards = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn aggregate_rate_bounded_by_shard_count() {
        // At most one descriptor per shard per system cycle: each
        // shard's own rate is bounded by its clock.
        let mut c = EngineConfig::test_small();
        c.shard.input_rate_mhz = c.sys_clock_mhz();
        c.validate().unwrap();
        c.shard.input_rate_mhz = c.sys_clock_mhz() + 1.0;
        assert!(c.validate().is_err());
        c.shard.input_rate_mhz = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn prototype_scales_rate_with_shards() {
        assert_eq!(EngineConfig::prototype(8).input_rate_mhz(), 800.0);
        assert_eq!(EngineConfig::test_small().input_rate_mhz(), 200.0);
        let mut c = EngineConfig::prototype(4);
        c.shard.input_rate_mhz = 60.0;
        assert_eq!(c.input_rate_mhz(), 240.0);
    }

    #[test]
    fn zero_threaded_executors_rejected() {
        let mut c = EngineConfig::test_small();
        c.execution = ExecutionMode::Threaded(0);
        assert!(c.validate().is_err());
        c.execution = ExecutionMode::Threaded(1);
        c.validate().unwrap();
        c.execution = ExecutionMode::Threaded(16);
        c.validate().unwrap();
    }
}
