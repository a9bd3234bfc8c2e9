//! The memory-technology abstraction: [`MemoryModel`] and its
//! selection types.
//!
//! The paper's flow LUT is DDR3-bound by construction; everything the
//! pipeline needs from a memory, though, is a small transactional
//! surface: enqueue burst-granular read/write requests, advance cycles,
//! drain, and expose occupancy and statistics. The models are timing
//! only: requests carry no data, and the caller keeps what a burst
//! moves. [`MemoryModel`] captures exactly that
//! surface as an object-safe trait — mirroring how `FlowBackend`
//! unified the workspace's flow structures — so the simulator, engine
//! and facade can ask the 2026 question ("which memory technology holds
//! 400GbE, at how many shards?") without re-plumbing a concrete type
//! through every layer.
//!
//! Implementations:
//!
//! * [`MemoryController`] — the paper's cycle-level DDR3 model
//!   (reference behaviour; the legacy path is byte-identical through
//!   the trait).
//! * [`GroupedDramModel`] — a
//!   closed-page, bank-grouped, multi-channel DRAM engine configured as
//!   DDR4-2400 or an HBM2-style stack via [`DramParams`].
//! * [`SramModel`] — an idealized fixed-latency
//!   SRAM bound.

use crate::controller::{Completion, ControllerConfig, MemRequest, MemoryController};
use crate::dram::{DramParams, GroupedDramModel};
use crate::error::{ConfigError, EnqueueError};
use crate::sram::{SramModel, SramParams};
use crate::stats::{ControllerStats, DeviceStats};

/// Unified statistics of one memory model: scheduler-level counters
/// plus device-level command counters. Models without a command-level
/// device (SRAM) report zeroed [`DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemStats {
    /// Request-level scheduler counters.
    pub controller: ControllerStats,
    /// Command-level device counters.
    pub device: DeviceStats,
}

/// An object-safe cycle-stepped memory: the transactional surface the
/// flow-LUT pipeline needs from any memory technology.
///
/// Contract shared by every implementation:
///
/// * [`enqueue`](Self::enqueue) applies back-pressure via
///   [`EnqueueError`]; the caller retries on a later cycle.
/// * [`tick`](Self::tick) advances one **memory** clock cycle and
///   returns finished requests in arrival order, so completion order is
///   deterministic.
/// * Request IDs are opaque: a model returns each with its completion
///   and orders nothing by it. Where two requests tie (in the scheduler
///   or among one tick's completions), the earlier arrival goes first,
///   so relabelling the IDs moves no cycle.
/// * Every request completes exactly once.
/// * Same-address requests *start* in arrival order. The DRAM models
///   (DDR3, DDR4, HBM2) also *complete* them in arrival order; SRAM
///   does not, as its write latency is shorter than its read latency.
pub trait MemoryModel: std::fmt::Debug + Send {
    /// Short technology name (e.g. `"ddr3"`).
    fn name(&self) -> &'static str;

    /// Current memory-clock cycle.
    fn now(&self) -> u64;

    /// Queues a burst-granular request.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError`] when the request queue is at capacity;
    /// the caller should retry on a later cycle (back-pressure).
    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError>;

    /// Advances one memory-clock cycle, returning its completions in a
    /// buffer the model clears and reuses on the next tick.
    fn tick(&mut self) -> &[Completion];

    /// Requests queued but not yet issued.
    fn queued_len(&self) -> usize;

    /// Issued requests whose data phase has not finished.
    fn in_flight_len(&self) -> usize;

    /// Total outstanding requests (queued + in flight).
    fn occupancy(&self) -> usize {
        self.queued_len() + self.in_flight_len()
    }

    /// `true` when no work is queued or in flight.
    fn is_drained(&self) -> bool {
        self.occupancy() == 0
    }

    /// Runs until every queued request completes or `max_cycles`
    /// elapse, returning all completions produced.
    ///
    /// # Panics
    ///
    /// Panics if the budget is exhausted before draining (a scheduler
    /// deadlock — a bug, not a workload condition).
    fn drain(&mut self, max_cycles: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            out.extend_from_slice(self.tick());
            if self.is_drained() {
                return out;
            }
        }
        panic!(
            "memory model `{}` failed to drain within {max_cycles} cycles \
             ({} queued, {} in flight)",
            self.name(),
            self.queued_len(),
            self.in_flight_len()
        );
    }

    /// Unified statistics snapshot.
    fn mem_stats(&self) -> MemStats;
}

impl MemoryModel for MemoryController {
    fn name(&self) -> &'static str {
        "ddr3"
    }

    fn now(&self) -> u64 {
        MemoryController::now(self)
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError> {
        MemoryController::enqueue(self, req)
    }

    fn tick(&mut self) -> &[Completion] {
        MemoryController::tick(self)
    }

    fn queued_len(&self) -> usize {
        MemoryController::queued_len(self)
    }

    fn in_flight_len(&self) -> usize {
        MemoryController::in_flight_len(self)
    }

    fn is_drained(&self) -> bool {
        MemoryController::is_drained(self)
    }

    fn drain(&mut self, max_cycles: u64) -> Vec<Completion> {
        MemoryController::drain(self, max_cycles)
    }

    fn mem_stats(&self) -> MemStats {
        MemStats {
            controller: *self.stats(),
            device: *self.device().stats(),
        }
    }
}

/// Named memory technologies — the sweep axis of the line-rate headroom
/// study (`BENCH_memory.json`) and the facade builder's coarse dial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemoryKind {
    /// JEDEC DDR3 (the paper's technology; legacy timing/geometry knobs).
    Ddr3,
    /// DDR4-2400-class device with bank groups (tCCD_S/tCCD_L).
    Ddr4,
    /// HBM2-style stack: many narrow channels, low tRC.
    Hbm2,
    /// Idealized fixed-latency SRAM bound.
    Sram,
}

impl MemoryKind {
    /// Every kind, in the headroom study's sweep order.
    pub const ALL: [MemoryKind; 4] = [
        MemoryKind::Ddr3,
        MemoryKind::Ddr4,
        MemoryKind::Hbm2,
        MemoryKind::Sram,
    ];

    /// Short lower-case name (bench/JSON identifier).
    pub fn name(self) -> &'static str {
        match self {
            MemoryKind::Ddr3 => "ddr3",
            MemoryKind::Ddr4 => "ddr4",
            MemoryKind::Hbm2 => "hbm2",
            MemoryKind::Sram => "sram",
        }
    }

    /// The calibrated default parameter set for this technology (see
    /// DESIGN.md §Calibration): DDR3 selects the consumer's legacy
    /// timing fields; the rest carry their own parameters.
    pub fn default_spec(self) -> MemorySpec {
        match self {
            MemoryKind::Ddr3 => MemorySpec::Ddr3,
            MemoryKind::Ddr4 => MemorySpec::Ddr4(DramParams::ddr4_2400()),
            MemoryKind::Hbm2 => MemorySpec::Hbm2(DramParams::hbm2_2gbps()),
            MemoryKind::Sram => MemorySpec::Sram(SramParams::ideal_200mhz()),
        }
    }
}

/// Full memory-technology selection: which model to build, with its
/// parameters. The default ([`MemorySpec::Ddr3`]) keeps the legacy
/// path: the consumer's existing DDR3 timing/geometry/mapping fields
/// configure a [`MemoryController`], byte-identical to the
/// pre-trait-extraction behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemorySpec {
    /// DDR3 via the consumer's legacy `TimingParams`/`Geometry` fields.
    #[default]
    Ddr3,
    /// DDR4 with bank groups, from explicit [`DramParams`].
    Ddr4(DramParams),
    /// HBM2-style multi-channel stack, from explicit [`DramParams`].
    Hbm2(DramParams),
    /// Idealized SRAM, from explicit [`SramParams`].
    Sram(SramParams),
}

impl MemorySpec {
    /// The coarse technology tag of this spec.
    pub fn kind(&self) -> MemoryKind {
        match self {
            MemorySpec::Ddr3 => MemoryKind::Ddr3,
            MemorySpec::Ddr4(_) => MemoryKind::Ddr4,
            MemorySpec::Hbm2(_) => MemoryKind::Hbm2,
            MemorySpec::Sram(_) => MemoryKind::Sram,
        }
    }

    /// Short lower-case technology name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Validates the carried parameters. `Ddr3` is vacuously valid
    /// here: its parameters live in the consumer's config, which
    /// validates them through `TimingParams::validate`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an internally inconsistent
    /// parameter set (see [`DramParams::validate`] /
    /// [`SramParams::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            MemorySpec::Ddr3 => Ok(()),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.validate(),
            MemorySpec::Sram(p) => p.validate(),
        }
    }

    /// Memory-clock cycles per consumer (system) cycle. `Ddr3` defers
    /// to the consumer's legacy `clock_ratio` field, passed as
    /// `legacy_ratio`.
    pub fn ticks_per_sys(&self, legacy_ratio: u32) -> u32 {
        match self {
            MemorySpec::Ddr3 => legacy_ratio,
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.clock_ratio,
            MemorySpec::Sram(_) => 1,
        }
    }

    /// Builds the model behind the trait. The DDR3 variant consumes the
    /// caller-supplied [`ControllerConfig`] (the legacy fields);
    /// the other variants take only its queue capacity and refresh
    /// switch, carrying everything else themselves.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; call
    /// [`validate`](Self::validate) first for fallible handling.
    pub fn build(&self, legacy: ControllerConfig) -> Box<dyn MemoryModel> {
        match self {
            MemorySpec::Ddr3 => Box::new(MemoryController::new(legacy)),
            MemorySpec::Ddr4(p) => Box::new(GroupedDramModel::new(
                "ddr4",
                *p,
                legacy.queue_capacity,
                legacy.refresh_enabled,
            )),
            MemorySpec::Hbm2(p) => Box::new(GroupedDramModel::new(
                "hbm2",
                *p,
                legacy.queue_capacity,
                legacy.refresh_enabled,
            )),
            MemorySpec::Sram(p) => Box::new(SramModel::new(*p, legacy.queue_capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Geometry;
    use crate::timing::TimingPreset;

    fn legacy_cfg() -> ControllerConfig {
        ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: Geometry::tiny(),
            refresh_enabled: false,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn controller_behaves_identically_through_the_trait() {
        // Drive one instance concretely and one through Box<dyn …> with
        // the same request stream: identical completions and stats.
        let mut concrete = MemoryController::new(legacy_cfg());
        let mut boxed: Box<dyn MemoryModel> = Box::new(MemoryController::new(legacy_cfg()));
        for i in 0..8u64 {
            concrete.enqueue(MemRequest::read(i, i * 3)).unwrap();
            boxed.enqueue(MemRequest::read(i, i * 3)).unwrap();
        }
        let a = concrete.drain(100_000);
        let b = boxed.drain(100_000);
        assert_eq!(a, b);
        assert_eq!(
            MemStats {
                controller: *concrete.stats(),
                device: *concrete.device().stats()
            },
            boxed.mem_stats()
        );
        assert_eq!(MemoryController::now(&concrete), boxed.now());
    }

    #[test]
    fn every_kind_builds_and_completes_a_read() {
        for kind in MemoryKind::ALL {
            let spec = kind.default_spec();
            spec.validate().unwrap();
            let mut m = spec.build(legacy_cfg());
            assert_eq!(m.name(), kind.name());
            assert!(m.is_drained());
            m.enqueue(MemRequest::read(1, 0)).unwrap();
            assert_eq!(m.occupancy(), 1);
            let done = m.drain(1_000_000);
            assert_eq!(done.len(), 1, "{}", kind.name());
            assert_eq!(done[0].id, 1);
            assert_eq!(m.mem_stats().controller.reads_done, 1);
        }
    }

    #[test]
    fn spec_reports_kind_and_ratio() {
        assert_eq!(MemorySpec::Ddr3.kind(), MemoryKind::Ddr3);
        assert_eq!(MemorySpec::Ddr3.ticks_per_sys(4), 4);
        let ddr4 = MemoryKind::Ddr4.default_spec();
        assert_eq!(ddr4.ticks_per_sys(4), DramParams::ddr4_2400().clock_ratio);
        assert_eq!(MemoryKind::Sram.default_spec().ticks_per_sys(4), 1);
        assert_eq!(MemorySpec::default(), MemorySpec::Ddr3);
        for kind in MemoryKind::ALL {
            assert_eq!(kind.default_spec().name(), kind.name());
        }
    }
}
