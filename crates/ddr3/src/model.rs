//! The memory-technology abstraction: [`MemoryModel`] and its
//! selection types.
//!
//! The paper's flow LUT is DDR3-bound by construction; everything the
//! pipeline needs from a memory, though, is a small transactional
//! surface: enqueue burst-granular read/write requests, advance cycles,
//! and drain. The models are timing only: requests carry no data, and
//! the caller keeps what a burst moves. [`MemoryModel`] captures
//! exactly that
//! surface as an object-safe trait — mirroring how `FlowStore`
//! unified the workspace's flow structures — so the simulator, engine
//! and facade can ask the 2026 question ("which memory technology holds
//! 400GbE, at how many shards?") without re-plumbing a concrete type
//! through every layer.
//!
//! Implementations:
//!
//! * [`MemoryController`] — the paper's cycle-level DDR3 model
//!   (the reference behaviour).
//! * [`GroupedDramModel`] — a
//!   closed-page, bank-grouped, multi-channel DRAM engine configured as
//!   DDR4-2400 or an HBM2-style stack via [`DramParams`].
//! * [`SramModel`] — an idealized fixed-latency
//!   SRAM bound.
//!
//! All three run their requests through one crate-private request
//! core: the queue bound, the arrival numbers, the issued requests and
//! the completion buffer. The contract below therefore has one
//! implementation; each model adds only its scheduler, its timing, its
//! address check and its deadlock guard.

use crate::address::{AddressMapping, Geometry};
use crate::controller::{Completion, ControllerConfig, MemRequest, MemoryController, PagePolicy};
use crate::dram::{DramParams, GroupedDramModel};
use crate::error::{ConfigError, EnqueueError};
use crate::sram::{SramModel, SramParams};
use crate::timing::{TimingParams, TimingPreset};

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

    /// `true` when no work is queued or in flight.
    fn is_drained(&self) -> bool;
}

/// Ticks `model` until every queued request completes or `max_cycles`
/// elapse, returning all completions produced: the settle loop the unit
/// tests share.
///
/// # Panics
///
/// Panics if the budget is exhausted before draining (a scheduler
/// deadlock — a bug, not a workload condition).
#[cfg(test)]
pub(crate) fn drain(model: &mut dyn MemoryModel, max_cycles: u64) -> Vec<Completion> {
    let mut out = Vec::new();
    for _ in 0..max_cycles {
        out.extend_from_slice(model.tick());
        if model.is_drained() {
            return out;
        }
    }
    panic!(
        "memory model `{}` failed to drain within {max_cycles} cycles ({} queued)",
        model.name(),
        model.queued_len()
    );
}

/// The DDR3 part behind one lookup path: its JEDEC timing, its
/// geometry, and how many memory-clock cycles make one system cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ddr3Params {
    /// JEDEC timing of the part.
    pub timing: TimingParams,
    /// Banks, rows, columns and burst shape of the part.
    pub geometry: Geometry,
    /// Memory-clock cycles per system-clock cycle (the prototype's
    /// quarter-rate user logic: 4).
    pub clock_ratio: u32,
}

impl Default for Ddr3Params {
    /// The prototype's part: DDR3-1600 at 800 MHz, 512 MiB, under a
    /// 200 MHz system clock.
    fn default() -> Self {
        Ddr3Params {
            timing: TimingPreset::Ddr3_1600.params(),
            geometry: Geometry::prototype_512mb(),
            clock_ratio: 4,
        }
    }
}

/// Which memory technology backs each lookup path, with its
/// parameters. Each variant carries everything its model needs; the
/// default is the paper's DDR3 prototype part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemorySpec {
    /// The paper's DDR3 controller, from explicit [`Ddr3Params`].
    Ddr3(Ddr3Params),
    /// DDR4 with bank groups, from explicit [`DramParams`].
    Ddr4(DramParams),
    /// HBM2-style multi-channel stack, from explicit [`DramParams`].
    Hbm2(DramParams),
    /// Idealized SRAM, from explicit [`SramParams`].
    Sram(SramParams),
}

impl Default for MemorySpec {
    fn default() -> Self {
        MemorySpec::Ddr3(Ddr3Params::default())
    }
}

impl MemorySpec {
    /// The calibrated default spec of every technology (see DESIGN.md
    /// §Calibration), in the headroom study's sweep order.
    pub fn defaults() -> [MemorySpec; 4] {
        [
            MemorySpec::default(),
            MemorySpec::Ddr4(DramParams::ddr4_2400()),
            MemorySpec::Hbm2(DramParams::hbm2_2gbps()),
            MemorySpec::Sram(SramParams::ideal_200mhz()),
        ]
    }

    /// Short lower-case technology name (bench/JSON identifier).
    pub fn name(&self) -> &'static str {
        match self {
            MemorySpec::Ddr3(_) => "ddr3",
            MemorySpec::Ddr4(_) => "ddr4",
            MemorySpec::Hbm2(_) => "hbm2",
            MemorySpec::Sram(_) => "sram",
        }
    }

    /// Validates the carried parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an internally inconsistent
    /// parameter set (see [`TimingParams::validate`],
    /// [`Geometry::validate`], [`DramParams::validate`] and
    /// [`SramParams::validate`]) or a zero DDR3 clock ratio.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            MemorySpec::Ddr3(p) => {
                p.timing.validate()?;
                p.geometry.validate()?;
                if p.clock_ratio == 0 {
                    return Err(ConfigError::new("clock_ratio must be non-zero"));
                }
                Ok(())
            }
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.validate(),
            MemorySpec::Sram(p) => p.validate(),
        }
    }

    /// System-clock frequency in MHz: the memory clock divided by the
    /// clock ratio (DDR3 prototype: 800 / 4 = 200 MHz).
    pub fn sys_clock_mhz(&self) -> f64 {
        match self {
            MemorySpec::Ddr3(p) => p.timing.clock_mhz() / f64::from(p.clock_ratio),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.clock_mhz() / f64::from(p.clock_ratio),
            MemorySpec::Sram(p) => p.clock_mhz(),
        }
    }

    /// Memory-clock cycles per system cycle.
    pub fn ticks_per_sys(&self) -> u32 {
        match self {
            MemorySpec::Ddr3(p) => p.clock_ratio,
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.clock_ratio,
            MemorySpec::Sram(_) => 1,
        }
    }

    /// Bytes per memory burst.
    pub fn burst_bytes(&self) -> usize {
        match self {
            MemorySpec::Ddr3(p) => p.geometry.burst_bytes(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.burst_bytes(),
            MemorySpec::Sram(p) => p.burst_bytes,
        }
    }

    /// Burst-aligned capacity of one memory.
    pub fn total_bursts(&self) -> u64 {
        match self {
            MemorySpec::Ddr3(p) => p.geometry.total_bursts(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.total_bursts(),
            MemorySpec::Sram(p) => p.total_bursts,
        }
    }

    /// Builds the model behind the trait, with a request queue of
    /// `queue_capacity` and refresh on or off.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; call
    /// [`validate`](Self::validate) first for fallible handling.
    pub fn build(&self, queue_capacity: usize, refresh_enabled: bool) -> Box<dyn MemoryModel> {
        match self {
            MemorySpec::Ddr3(p) => Box::new(MemoryController::new(ControllerConfig {
                timing: p.timing,
                geometry: p.geometry,
                // Consecutive buckets in consecutive banks: the
                // interleave the paper's Bank Selector exploits.
                mapping: AddressMapping::RowColBank,
                page_policy: PagePolicy::Closed,
                queue_capacity,
                refresh_enabled,
                // One command per user-logic (system) cycle.
                cmd_interval: u64::from(p.clock_ratio),
                ..ControllerConfig::default()
            })),
            MemorySpec::Ddr4(p) => Box::new(GroupedDramModel::new(
                "ddr4",
                *p,
                queue_capacity,
                refresh_enabled,
            )),
            MemorySpec::Hbm2(p) => Box::new(GroupedDramModel::new(
                "hbm2",
                *p,
                queue_capacity,
                refresh_enabled,
            )),
            MemorySpec::Sram(p) => Box::new(SramModel::new(*p, queue_capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AccessKind;

    #[test]
    fn every_kind_builds_and_completes_a_read() {
        for spec in MemorySpec::defaults() {
            spec.validate().unwrap();
            let mut m = spec.build(32, false);
            assert_eq!(m.name(), spec.name());
            assert!(m.is_drained());
            m.enqueue(MemRequest::read(1, 0)).unwrap();
            assert_eq!(m.queued_len(), 1);
            assert!(!m.is_drained());
            let done = drain(m.as_mut(), 1_000_000);
            assert_eq!(done.len(), 1, "{}", spec.name());
            assert_eq!((done[0].id, done[0].kind), (1, AccessKind::Read));
            assert!(m.is_drained());
        }
    }

    #[test]
    fn spec_reports_kind_and_ratio() {
        let names = MemorySpec::defaults().map(|s| s.name());
        assert_eq!(names, ["ddr3", "ddr4", "hbm2", "sram"]);
        let ratios = MemorySpec::defaults().map(|s| s.ticks_per_sys());
        assert_eq!(ratios, [4, 6, 5, 1]);
        assert_eq!(MemorySpec::default().ticks_per_sys(), 4);
        let zero = Ddr3Params {
            clock_ratio: 0,
            ..Ddr3Params::default()
        };
        assert!(MemorySpec::Ddr3(zero).validate().is_err());
    }
}
