//! Cycle-stepped DDR3 memory controller.
//!
//! The controller plays the role of the "DDR3 Controller" block in
//! Figure 4 of the paper (the prototype uses Altera's quarter-rate UniPhy
//! IP). It owns one [`Ddr3Device`] and schedules commands under these
//! policies. It models timing only: requests carry no data.
//!
//! * **Per-bank FIFO queues.** Requests to the same bank complete in
//!   arrival order, so same-address requests do too; requests to
//!   *different* banks are freely interleaved — that is precisely the
//!   freedom the paper's Bank Selector exploits.
//! * **Open-page, row-hit-first.** Among bank-queue heads, a request whose
//!   row is already open wins over one that needs an activate.
//! * **Same-direction grouping.** The controller keeps issuing reads (or
//!   writes) while same-direction candidates exist, up to
//!   [`ControllerConfig::group_limit`], before paying the bus-turnaround
//!   penalty to switch — the behaviour Figure 3 of the paper motivates.
//! * **Quarter-rate turnaround overhead.** Real FPGA controllers insert
//!   extra bubbles on direction switches beyond the JEDEC minimum;
//!   [`ControllerConfig::turnaround_extra_rd2wr`]/`wr2rd` model this (see
//!   DESIGN.md "Calibration notes").
//! * **Refresh.** Every `tREFI` the controller drains to a precharged
//!   state and issues a REF, unless refresh is disabled.

use std::collections::VecDeque;

use crate::address::{AddressMapping, Geometry, MemAddress};
use crate::device::{Command, Ddr3Device};
use crate::error::EnqueueError;
use crate::model::MemoryModel;
use crate::request::{Queued, RequestCore};
use crate::timing::TimingParams;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read one burst.
    Read,
    /// Write one burst.
    Write,
}

/// A burst-granular memory request. It carries no data: the models
/// time bursts, and the caller keeps what they move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned with the [`Completion`]. It is
    /// opaque to the models: they never order by it, and two requests
    /// may share one.
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Linear burst address (`0..geometry.total_bursts()`).
    pub addr: u64,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(id: u64, addr: u64) -> Self {
        MemRequest {
            id,
            kind: AccessKind::Read,
            addr,
        }
    }

    /// Creates a write request.
    pub fn write(id: u64, addr: u64) -> Self {
        MemRequest {
            id,
            kind: AccessKind::Write,
            addr,
        }
    }
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Identifier from the originating [`MemRequest`].
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Linear burst address.
    pub addr: u64,
    /// Cycle the request entered the controller.
    pub enqueued_at: u64,
    /// Cycle the last data beat left the device.
    pub completed_at: u64,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave rows open after access (amortises row activation for
    /// row-local streams). Default; matches the paper's design intent.
    #[default]
    Open,
    /// Auto-precharge after every column access.
    Closed,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Device timing parameters.
    pub timing: TimingParams,
    /// Device geometry.
    pub geometry: Geometry,
    /// Linear-address decomposition policy.
    pub mapping: AddressMapping,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Total queued-request capacity across banks; `enqueue` rejects
    /// beyond this (back-pressure).
    pub queue_capacity: usize,
    /// Maximum consecutive same-direction column commands before the
    /// scheduler will consider a direction switch even though more
    /// same-direction work is queued. Guards against starving the other
    /// direction.
    pub group_limit: u32,
    /// Extra command-bus cycles inserted on a read→write switch beyond
    /// the JEDEC minimum (quarter-rate controller bubble).
    pub turnaround_extra_rd2wr: u64,
    /// Extra command-bus cycles inserted on a write→read switch beyond
    /// the JEDEC minimum.
    pub turnaround_extra_wr2rd: u64,
    /// Periodic refresh every `tREFI` when `true`.
    pub refresh_enabled: bool,
    /// Minimum memory-clock cycles between consecutive commands.
    ///
    /// A full-rate controller issues one command per memory clock
    /// (`1`). FPGA quarter-rate controllers such as the Altera UniPhy IP
    /// the prototype uses sequence dependent commands at the *user*
    /// clock, one per user cycle — `4` at a 4:1 clock ratio. This cap is
    /// a first-order model of that command-issue bottleneck and is what
    /// pins the flow LUT's saturation throughput to the prototype's
    /// measured range (see DESIGN.md calibration notes).
    pub cmd_interval: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            timing: TimingParams::default(),
            geometry: Geometry::default(),
            mapping: AddressMapping::default(),
            page_policy: PagePolicy::default(),
            queue_capacity: 32,
            group_limit: 16,
            // Calibrated against Figure 3 of the paper; see DESIGN.md.
            turnaround_extra_rd2wr: 9,
            turnaround_extra_wr2rd: 10,
            refresh_enabled: true,
            cmd_interval: 1,
        }
    }
}

/// A request in its bank's queue, with its decomposed address.
#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    q: Queued,
    addr: MemAddress,
}

/// The memory controller: wraps a [`Ddr3Device`] and turns
/// burst-granular requests into legal command streams.
#[derive(Debug)]
pub struct MemoryController {
    cfg: ControllerConfig,
    device: Ddr3Device,
    core: RequestCore,
    queues: Vec<VecDeque<QueuedReq>>,
    /// Direction of the last issued column command and the run length.
    last_dir: Option<AccessKind>,
    dir_run: u32,
    /// Extra turnaround fences (controller bubbles on top of JEDEC).
    read_extra_ok_at: u64,
    write_extra_ok_at: u64,
    next_refresh_due: u64,
    refresh_in_progress: bool,
    next_cmd_at: u64,
    last_progress: u64,
}

impl MemoryController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation (invalid timing or
    /// geometry, zero queue capacity).
    pub fn new(cfg: ControllerConfig) -> Self {
        cfg.timing.validate().expect("invalid timing");
        cfg.geometry.validate().expect("invalid geometry");
        let core = RequestCore::new(cfg.queue_capacity);
        assert!(cfg.group_limit > 0, "group limit must be non-zero");
        assert!(cfg.cmd_interval > 0, "command interval must be non-zero");
        let device = Ddr3Device::new(cfg.timing, cfg.geometry);
        let banks = cfg.geometry.banks as usize;
        let t_refi = cfg.timing.t_refi;
        MemoryController {
            cfg,
            core,
            device,
            queues: (0..banks).map(|_| VecDeque::new()).collect(),
            last_dir: None,
            dir_run: 0,
            read_extra_ok_at: 0,
            write_extra_ok_at: 0,
            next_refresh_due: t_refi,
            refresh_in_progress: false,
            next_cmd_at: 0,
            last_progress: 0,
        }
    }

    /// The underlying device (for statistics).
    #[inline]
    pub fn device(&self) -> &Ddr3Device {
        &self.device
    }

    fn service_refresh(&mut self) {
        let now = self.core.now();
        // Drain to all-banks-idle, then REF.
        if let Some(t) = self.device.refresh_legal_at() {
            if now >= t {
                self.device
                    .issue(now, Command::Refresh)
                    .expect("refresh legality checked");
                self.next_refresh_due += self.cfg.timing.t_refi;
                self.refresh_in_progress = false;
                self.next_cmd_at = now + self.cfg.cmd_interval;
                self.last_progress = now;
            }
            return;
        }
        // Banks still open: precharge-all as soon as legal.
        let t = self.device.precharge_all_legal_at();
        if now >= t {
            self.device
                .issue(now, Command::PrechargeAll)
                .expect("precharge-all legality checked");
            self.next_cmd_at = now + self.cfg.cmd_interval;
            self.last_progress = now;
        }
    }

    /// Effective earliest issue time for a column command, including the
    /// controller's extra turnaround bubbles.
    fn column_legal_at(&self, kind: AccessKind, bank: u32, row: u32) -> Option<u64> {
        let base = match kind {
            AccessKind::Read => self.device.read_legal_at(bank, row)?,
            AccessKind::Write => self.device.write_legal_at(bank, row)?,
        };
        let extra = match kind {
            AccessKind::Read => self.read_extra_ok_at,
            AccessKind::Write => self.write_extra_ok_at,
        };
        Some(base.max(extra))
    }

    /// Attempts to issue one command this cycle. Returns `true` on issue.
    fn try_issue(&mut self) -> bool {
        if self.core.queued() == 0 {
            return false;
        }
        let now = self.core.now();
        let banks = self.queues.len();

        // Does any queue head want the direction we are currently running?
        let preferred_dir = match self.last_dir {
            Some(d) if self.dir_run < self.cfg.group_limit => Some(d),
            _ => None,
        };

        // Pass 1: column command for an already-open row, preferring the
        // current direction (grouping), then the other direction.
        let directions: [Option<AccessKind>; 2] = match preferred_dir {
            Some(d) => [Some(d), None],
            None => [None, None],
        };
        for want in directions.iter() {
            let mut best: Option<(u64, usize)> = None; // (enqueued_at, bank)
            for b in 0..banks {
                let Some(head) = self.queues[b].front() else {
                    continue;
                };
                if let Some(d) = want {
                    if head.q.req.kind != *d {
                        continue;
                    }
                }
                if let Some(t) =
                    self.column_legal_at(head.q.req.kind, head.addr.bank, head.addr.row)
                {
                    if now >= t {
                        let key = head.q.enqueued_at;
                        if best.is_none_or(|(bk, _)| key < bk) {
                            best = Some((key, b));
                        }
                    }
                }
            }
            if let Some((_, b)) = best {
                self.issue_column_for(b);
                return true;
            }
            if want.is_none() {
                break; // second pass was already unconstrained
            }
        }

        // Pass 2: row management — activate idle banks or precharge
        // conflicting rows for queue heads.
        let mut best_act: Option<(u64, usize)> = None;
        let mut best_pre: Option<(u64, usize)> = None;
        for b in 0..banks {
            let Some(head) = self.queues[b].front() else {
                continue;
            };
            let bank = head.addr.bank;
            let key = head.q.enqueued_at;
            match self.device.bank(bank).open_row() {
                Some(row) if row == head.addr.row => {
                    // Column fences not yet satisfied; nothing to manage.
                }
                Some(_other) => {
                    let t = self.device.precharge_legal_at(bank);
                    if now >= t && best_pre.is_none_or(|(k, _)| key < k) {
                        best_pre = Some((key, b));
                    }
                }
                None => {
                    if let Some(t) = self.device.activate_legal_at(bank) {
                        if now >= t && best_act.is_none_or(|(k, _)| key < k) {
                            best_act = Some((key, b));
                        }
                    }
                }
            }
        }
        // Prefer activates (they start useful work) over precharges.
        if let Some((_, b)) = best_act {
            let head = self.queues[b].front().expect("checked above");
            let (bank, row) = (head.addr.bank, head.addr.row);
            self.device
                .issue(now, Command::Activate { bank, row })
                .expect("activate legality checked");
            return true;
        }
        if let Some((_, b)) = best_pre {
            let head = self.queues[b].front().expect("checked above");
            let bank = head.addr.bank;
            self.device
                .issue(now, Command::Precharge { bank })
                .expect("precharge legality checked");
            return true;
        }
        false
    }

    fn issue_column_for(&mut self, queue_idx: usize) {
        let now = self.core.now();
        let QueuedReq { q, addr } = self.queues[queue_idx]
            .pop_front()
            .expect("candidate selection guarantees a head");
        let kind = q.req.kind;
        let auto_precharge = matches!(self.cfg.page_policy, PagePolicy::Closed);
        let cmd = match kind {
            AccessKind::Read => Command::Read {
                bank: addr.bank,
                col: addr.col,
                auto_precharge,
            },
            AccessKind::Write => Command::Write {
                bank: addr.bank,
                col: addr.col,
                auto_precharge,
            },
        };
        let outcome = self
            .device
            .issue(now, cmd)
            .expect("column legality checked");

        // Update direction run and extra-turnaround fences.
        let t = &self.cfg.timing;
        let burst = t.burst_cycles();
        match kind {
            AccessKind::Read => {
                self.write_extra_ok_at = self
                    .write_extra_ok_at
                    .max(now + (t.cl - t.cwl) + burst + 2 + self.cfg.turnaround_extra_rd2wr);
            }
            AccessKind::Write => {
                self.read_extra_ok_at = self
                    .read_extra_ok_at
                    .max(now + t.cwl + burst + t.t_wtr + self.cfg.turnaround_extra_wr2rd);
            }
        }
        match self.last_dir {
            Some(d) if d == kind => self.dir_run += 1,
            _ => {
                self.last_dir = Some(kind);
                self.dir_run = 1;
            }
        }

        let done_at = outcome.data_end.expect("column commands move data");
        self.core.issue(q, done_at);
    }
}

impl MemoryModel for MemoryController {
    fn name(&self) -> &'static str {
        "ddr3"
    }

    fn now(&self) -> u64 {
        self.core.now()
    }

    /// Queues a request.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the geometry — a caller bug, not
    /// a runtime condition.
    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError> {
        assert!(
            req.addr < self.cfg.geometry.total_bursts(),
            "address {} out of range",
            req.addr
        );
        let q = self.core.admit(req)?;
        let addr = self.cfg.mapping.decompose(&self.cfg.geometry, req.addr);
        self.queues[addr.bank as usize].push_back(QueuedReq { q, addr });
        Ok(())
    }

    /// Advances one controller cycle; at most one command issues per
    /// cycle (single command bus).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler makes no progress for an implausibly long
    /// time while work is queued (a deadlock would otherwise hang the
    /// simulation silently).
    fn tick(&mut self) -> &[Completion] {
        let now = self.core.tick();
        if self.core.is_drained() {
            self.last_progress = now;
        }

        if self.cfg.refresh_enabled && !self.refresh_in_progress && now >= self.next_refresh_due {
            self.refresh_in_progress = true;
        }

        let cmd_slot_open = now >= self.next_cmd_at;
        if self.refresh_in_progress {
            if cmd_slot_open {
                self.service_refresh();
            }
        } else if cmd_slot_open && self.try_issue() {
            self.next_cmd_at = now + self.cfg.cmd_interval;
            self.last_progress = now;
        } else if self.core.queued() > 0 {
            let limit = 20 * self.cfg.timing.t_rc + self.cfg.timing.t_rfc + self.cfg.timing.t_refi;
            assert!(
                now - self.last_progress < limit,
                "controller made no progress for {} cycles with {} requests queued: scheduler deadlock",
                now - self.last_progress,
                self.core.queued()
            );
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
    use crate::timing::TimingPreset;

    fn small_cfg() -> ControllerConfig {
        ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: Geometry::tiny(),
            refresh_enabled: false,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn single_read_completes() {
        let mut c = MemoryController::new(small_cfg());
        c.enqueue(MemRequest::read(7, 5)).unwrap();
        let done = drain(&mut c, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        assert_eq!((done[0].kind, done[0].addr), (AccessKind::Read, 5));
        // Latency at least ACT + tRCD + CL + burst.
        let t = c.cfg.timing;
        assert!(done[0].completed_at >= t.t_rcd + t.cl + t.burst_cycles());
    }

    /// Drains a write then a read of one address, under `policy`, and
    /// checks that they complete in that order.
    fn assert_write_then_read_in_order(policy: PagePolicy) {
        let mut cfg = small_cfg();
        cfg.page_policy = policy;
        let mut c = MemoryController::new(cfg);
        c.enqueue(MemRequest::write(1, 9)).unwrap();
        c.enqueue(MemRequest::read(2, 9)).unwrap();
        let done = drain(&mut c, 5000);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, [1, 2]);
        assert!(done[0].completed_at < done[1].completed_at, "{done:?}");
    }

    #[test]
    fn write_then_read_same_address_complete_in_order() {
        assert_write_then_read_in_order(PagePolicy::Open);
    }

    #[test]
    fn same_bank_requests_complete_in_order() {
        let mut c = MemoryController::new(small_cfg());
        // All to bank 0 (RowBankCol: same addresses within first cols run).
        for i in 0..8u64 {
            c.enqueue(MemRequest::read(i, i)).unwrap();
        }
        let done = drain(&mut c, 5000);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn back_pressure_rejects_when_full() {
        let mut cfg = small_cfg();
        cfg.queue_capacity = 2;
        let mut c = MemoryController::new(cfg);
        c.enqueue(MemRequest::read(0, 0)).unwrap();
        c.enqueue(MemRequest::read(1, 1)).unwrap();
        let err = c.enqueue(MemRequest::read(2, 2)).unwrap_err();
        assert_eq!((err.id, err.capacity), (2, 2));
        // The refused request is not queued: it is accepted once an
        // issue frees a place, and enters at that cycle.
        let mut done = Vec::new();
        while c.enqueue(MemRequest::read(2, 2)).is_err() {
            done.extend_from_slice(c.tick());
        }
        let accepted_at = c.now();
        assert!(accepted_at > 0);
        done.extend(drain(&mut c, 10_000));
        let ids: Vec<(u64, u64)> = done.iter().map(|d| (d.id, d.enqueued_at)).collect();
        assert_eq!(ids, [(0, 0), (1, 0), (2, accepted_at)]);
    }

    #[test]
    fn bank_interleaved_reads_faster_than_single_bank() {
        // 16 reads across 4 banks vs 16 reads to rows of one bank.
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;

        let mut interleaved = MemoryController::new(small_cfg());
        for i in 0..16u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: i % 4,
                    row: i / 4,
                    col: 0,
                },
            );
            interleaved
                .enqueue(MemRequest::read(u64::from(i), addr))
                .unwrap();
        }
        drain(&mut interleaved, 100_000);
        let cycles_interleaved = interleaved.now();

        let mut single = MemoryController::new(small_cfg());
        for i in 0..16u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: 0,
                    row: i, // force a row conflict every request
                    col: 0,
                },
            );
            single
                .enqueue(MemRequest::read(u64::from(i), addr))
                .unwrap();
        }
        drain(&mut single, 100_000);
        let cycles_single = single.now();

        assert!(
            cycles_interleaved * 2 < cycles_single,
            "bank interleaving should be at least 2x faster: {cycles_interleaved} vs {cycles_single}"
        );
    }

    #[test]
    fn row_hits_cheaper_than_row_conflicts() {
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;
        let mut hits = MemoryController::new(small_cfg());
        for i in 0..8u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: 0,
                    row: 0,
                    col: i,
                },
            );
            hits.enqueue(MemRequest::read(u64::from(i), addr)).unwrap();
        }
        drain(&mut hits, 100_000);
        // One ACT opens the row; the other seven reads find it open.
        assert_eq!(hits.device().stats().row_hit_rate(), 7.0 / 8.0);

        let mut conflicts = MemoryController::new(small_cfg());
        for i in 0..8u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: 0,
                    row: i,
                    col: 0,
                },
            );
            conflicts
                .enqueue(MemRequest::read(u64::from(i), addr))
                .unwrap();
        }
        drain(&mut conflicts, 100_000);
        assert_eq!(conflicts.device().stats().row_hit_rate(), 0.0);
        assert!(hits.now() < conflicts.now());
    }

    /// Latency of one read enqueued after `idle` idle cycles.
    fn read_latency_after(cfg: ControllerConfig, idle: u64) -> u64 {
        let mut c = MemoryController::new(cfg);
        for _ in 0..idle {
            c.tick();
        }
        c.enqueue(MemRequest::read(1, 0)).unwrap();
        let done = drain(&mut c, 10_000);
        assert_eq!(done.len(), 1);
        done[0].completed_at - done[0].enqueued_at
    }

    #[test]
    fn refresh_fires_when_enabled() {
        // A read that arrives as each refresh falls due waits out tRFC
        // behind it; with refresh off, the same read does not.
        let mut cfg = small_cfg();
        cfg.refresh_enabled = true;
        let t = cfg.timing;
        for due in [t.t_refi, 2 * t.t_refi, 3 * t.t_refi] {
            let on = read_latency_after(cfg.clone(), due - 1);
            let off = read_latency_after(small_cfg(), due - 1);
            assert!(on >= off + t.t_rfc, "at {due}: {on} vs {off}");
        }
    }

    #[test]
    fn closed_page_policy_still_correct() {
        assert_write_then_read_in_order(PagePolicy::Closed);
    }

    #[test]
    fn grouping_reduces_turnarounds() {
        // Interleave read/write requests; grouped scheduling should issue
        // fewer direction switches than the request pattern implies. The
        // bus carries each burst when it completes, so the switches are
        // the direction changes along the completion stream.
        let mut cfg = small_cfg();
        cfg.group_limit = 16;
        cfg.queue_capacity = 64;
        let mut c = MemoryController::new(cfg);
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;
        let mut id = 0u64;
        for i in 0..16u32 {
            let addr = m.compose(
                &g,
                MemAddress {
                    bank: i % 4,
                    row: 0,
                    col: i / 4,
                },
            );
            c.enqueue(MemRequest::read(id, addr)).unwrap();
            id += 1;
            let waddr = m.compose(
                &g,
                MemAddress {
                    bank: i % 4,
                    row: 0,
                    col: 8 + i / 4,
                },
            );
            c.enqueue(MemRequest::write(id, waddr)).unwrap();
            id += 1;
        }
        let done = drain(&mut c, 1_000_000);
        assert_eq!(done.len(), 32);
        let switches = done.windows(2).filter(|w| w[0].kind != w[1].kind).count();
        // 32 alternating requests would naively switch ~31 times. Grouping
        // (and the per-bank FIFO constraint) must do substantially better.
        assert!(
            switches <= 16,
            "expected grouped direction switches, got {switches}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_address_panics() {
        let mut c = MemoryController::new(small_cfg());
        let max = c.cfg.geometry.total_bursts();
        let _ = c.enqueue(MemRequest::read(0, max));
    }
}
