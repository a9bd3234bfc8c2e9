//! An idealized fixed-latency SRAM: the upper bound of the line-rate
//! headroom study.
//!
//! The paper's whole design exists because DRAM row activation makes
//! random bucket access expensive; [`SramModel`] asks the complementary
//! question — how fast would the *same* pipeline run if every burst
//! completed in a fixed, short latency with no bank/row/refresh
//! structure at all? It models a QDR-like part clocked at the system
//! rate: up to [`SramParams::ports`] requests start per cycle, each
//! completing exactly `read_latency`/`write_latency` cycles later.
//! No command scheduling, no refresh — any gap between this bound and
//! the DRAM models is attributable to memory technology, not the
//! pipeline.
//!
//! Requests start strictly in arrival order, but a write's latency is
//! shorter than a read's: a write can complete before a read of the
//! same address that started before it. Same-address requests therefore
//! *start*, not complete, in arrival order.

use std::collections::VecDeque;

use crate::controller::{AccessKind, Completion, MemRequest};
use crate::error::{ConfigError, EnqueueError};
use crate::model::MemoryModel;
use crate::request::{Queued, RequestCore};

/// Parameters of the idealized SRAM. Preset:
/// [`SramParams::ideal_200mhz`]; provenance in DESIGN.md §Calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramParams {
    /// Clock period in picoseconds. The SRAM runs at the consumer's
    /// system clock (`ticks_per_sys` is 1), so this is the system tCK.
    pub tck_ps: u64,
    /// Cycles from request start to read data valid.
    pub read_latency: u64,
    /// Cycles from request start to write commit.
    pub write_latency: u64,
    /// Requests that may start per cycle (QDR-like port count).
    pub ports: u32,
    /// Bytes per burst (kept at the DRAM models' 32 B so bucket layout
    /// is identical across the sweep).
    pub burst_bytes: usize,
    /// Burst-aligned capacity.
    pub total_bursts: u64,
}

impl SramParams {
    /// A QDR-IV-like part at the prototype's 200 MHz system clock:
    /// dual-port (one read + one write per cycle), 8-cycle read
    /// latency, 512 MB capacity matching the DDR3 prototype.
    pub fn ideal_200mhz() -> Self {
        SramParams {
            tck_ps: 5000,
            read_latency: 8,
            write_latency: 4,
            ports: 2,
            burst_bytes: 32,
            total_bursts: 16 * 1024 * 1024,
        }
    }

    /// Clock frequency in MHz.
    pub fn clock_mhz(&self) -> f64 {
        1.0e6 / self.tck_ps as f64
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the clock period, a latency, the
    /// port count, the burst size, or the capacity is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tck_ps == 0 {
            return Err(ConfigError::new("tck_ps must be nonzero"));
        }
        if self.read_latency == 0 || self.write_latency == 0 {
            return Err(ConfigError::new("latencies must be nonzero"));
        }
        if self.ports == 0 {
            return Err(ConfigError::new("ports must be nonzero"));
        }
        if self.burst_bytes == 0 {
            return Err(ConfigError::new("burst_bytes must be nonzero"));
        }
        if self.total_bursts == 0 {
            return Err(ConfigError::new("total_bursts must be nonzero"));
        }
        Ok(())
    }
}

/// The idealized fixed-latency SRAM model. Construct via
/// [`MemorySpec::build`](crate::model::MemorySpec::build) or directly
/// with [`SramModel::new`].
#[derive(Debug)]
pub struct SramModel {
    params: SramParams,
    core: RequestCore,
    /// Accepted requests, in arrival order.
    queue: VecDeque<Queued>,
}

impl SramModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`SramParams::validate`] or
    /// `queue_capacity` is zero.
    pub fn new(params: SramParams, queue_capacity: usize) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid SramParams: {e}");
        }
        SramModel {
            params,
            core: RequestCore::new(queue_capacity),
            queue: VecDeque::new(),
        }
    }

    /// The parameter set this model was built from.
    pub fn params(&self) -> &SramParams {
        &self.params
    }
}

impl MemoryModel for SramModel {
    fn name(&self) -> &'static str {
        "sram"
    }

    fn now(&self) -> u64 {
        self.core.now()
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError> {
        assert!(
            req.addr < self.params.total_bursts,
            "burst address {} out of range ({} bursts)",
            req.addr,
            self.params.total_bursts
        );
        let q = self.core.admit(req)?;
        self.queue.push_back(q);
        Ok(())
    }

    fn tick(&mut self) -> &[Completion] {
        let now = self.core.tick();
        // Start up to `ports` requests, strictly FIFO.
        for _ in 0..self.params.ports {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            let latency = match q.req.kind {
                AccessKind::Read => self.params.read_latency,
                AccessKind::Write => self.params.write_latency,
            };
            self.core.issue(q, now + latency);
        }
        self.core.done()
    }

    fn queued_len(&self) -> usize {
        self.core.queued()
    }

    fn is_drained(&self) -> bool {
        self.core.is_drained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::drain;

    #[test]
    fn preset_validates() {
        SramParams::ideal_200mhz().validate().unwrap();
    }

    #[test]
    fn validate_rejects_zeroes() {
        let base = SramParams::ideal_200mhz();
        for bad in [
            SramParams { tck_ps: 0, ..base },
            SramParams {
                read_latency: 0,
                ..base
            },
            SramParams {
                write_latency: 0,
                ..base
            },
            SramParams { ports: 0, ..base },
            SramParams {
                burst_bytes: 0,
                ..base
            },
            SramParams {
                total_bursts: 0,
                ..base
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn read_latency_is_exact() {
        let mut m = SramModel::new(SramParams::ideal_200mhz(), 8);
        m.enqueue(MemRequest::read(1, 0)).unwrap();
        let done = drain(&mut m, 1_000);
        // Starts on the first tick (cycle 1), completes read_latency later.
        assert_eq!(done[0].completed_at, 1 + m.params().read_latency);
        assert_eq!(done[0].enqueued_at, 0);
    }

    #[test]
    fn throughput_is_ports_per_cycle() {
        let p = SramParams::ideal_200mhz();
        let mut m = SramModel::new(p, 256);
        for i in 0..100u64 {
            m.enqueue(MemRequest::read(i, i)).unwrap();
        }
        let done = drain(&mut m, 10_000);
        assert_eq!(done.len(), 100);
        // 100 requests at 2/cycle start over 50 cycles; the last
        // completes read_latency after its start.
        assert_eq!(m.now(), 50 + p.read_latency);
    }

    #[test]
    fn read_then_write_start_in_arrival_order() {
        let p = SramParams::ideal_200mhz();
        let mut m = SramModel::new(p, 8);
        m.enqueue(MemRequest::read(1, 3)).unwrap();
        m.enqueue(MemRequest::write(2, 3)).unwrap();
        let done = drain(&mut m, 1_000);
        // Both start on cycle 1; the shorter write completes first.
        let at: Vec<(u64, u64)> = done.iter().map(|c| (c.id, c.completed_at)).collect();
        assert_eq!(at, [(2, 1 + p.write_latency), (1, 1 + p.read_latency)]);
    }

    #[test]
    fn back_pressure_at_capacity() {
        let mut m = SramModel::new(SramParams::ideal_200mhz(), 1);
        m.enqueue(MemRequest::read(1, 0)).unwrap();
        assert!(m.enqueue(MemRequest::read(2, 1)).is_err());
        drain(&mut m, 1_000);
        m.enqueue(MemRequest::read(2, 1)).unwrap();
    }
}
