//! A generalized closed-page, bank-grouped, multi-channel DRAM engine:
//! the cycle-level model behind the DDR4 and HBM2 variants of
//! [`MemorySpec`](crate::model::MemorySpec).
//!
//! Where the paper-era [`MemoryController`](crate::controller) models a
//! single-channel DDR3 part with one flat bank pool, post-DDR3 devices
//! changed the floorplan in two ways this model captures:
//!
//! * **Bank groups** (DDR4, HBM2): consecutive column commands to the
//!   *same* group must be spaced `tCCD_L` apart, while cross-group
//!   commands only need `tCCD_S` — likewise `tRRD_L`/`tRRD_S` for
//!   activates and `tWTR_L`/`tWTR_S` for write→read turnaround.
//! * **Many narrow channels** (HBM2): independent command/data buses
//!   per (pseudo-)channel; bandwidth scales with channel count while
//!   each channel keeps DRAM-class random-access latency.
//!
//! The model is closed-page only (every column command auto-precharges)
//! because the flow LUT's bucket accesses are random at row granularity
//! — the same reason `flowlut_core::sim` runs the DDR3 controller with
//! `PagePolicy::Closed`. Requests are burst-granular and carry no data;
//! addresses interleave channel-first then bank-first so consecutive
//! bucket bursts spread across the parallelism the device actually has.
//! An address maps to one bank, whose queue is FIFO, so same-address
//! requests complete in arrival order. The scheduler picks the oldest
//! legal request by arrival, and each tick's completions are returned
//! in arrival order, matching the DDR3 controller's deterministic
//! delivery contract; the caller's request IDs order nothing.

use std::collections::VecDeque;

use crate::controller::{AccessKind, Completion, MemRequest};
use crate::error::{ConfigError, EnqueueError};
use crate::model::MemoryModel;
use crate::request::{Queued, RequestCore};

/// Timing and geometry of a bank-grouped, multi-channel DRAM device.
///
/// All timing fields are in memory-clock cycles except `tck_ps`.
/// Presets: [`DramParams::ddr4_2400`] and [`DramParams::hbm2_2gbps`];
/// parameter provenance is documented in DESIGN.md §Calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramParams {
    /// Memory clock period in picoseconds.
    pub tck_ps: u64,
    /// Burst length in beats (data transferred over `burst_length / 2`
    /// clock cycles on a DDR bus).
    pub burst_length: u32,
    /// CAS (read) latency.
    pub cl: u64,
    /// CAS write latency.
    pub cwl: u64,
    /// ACT to column command, same bank.
    pub t_rcd: u64,
    /// Precharge period.
    pub t_rp: u64,
    /// ACT to precharge, same bank.
    pub t_ras: u64,
    /// ACT to ACT, same bank.
    pub t_rc: u64,
    /// Column to column, different bank group.
    pub t_ccd_s: u64,
    /// Column to column, same bank group.
    pub t_ccd_l: u64,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: u64,
    /// ACT to ACT, same bank group.
    pub t_rrd_l: u64,
    /// Write data end to read command, different bank group.
    pub t_wtr_s: u64,
    /// Write data end to read command, same bank group.
    pub t_wtr_l: u64,
    /// Write recovery before precharge.
    pub t_wr: u64,
    /// Read to precharge.
    pub t_rtp: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Average refresh interval (per channel).
    pub t_refi: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,
    /// Independent (pseudo-)channels, each with its own command/data bus.
    pub channels: u32,
    /// Bank groups per channel.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Burst-aligned columns per row.
    pub cols: u32,
    /// Data-bus width per channel in bits.
    pub bus_width_bits: u32,
    /// Memory-clock cycles per consumer (system) cycle.
    pub clock_ratio: u32,
}

impl DramParams {
    /// DDR4-2400 speed-bin R (CL16-16-16), x32 channel, 4 bank groups
    /// of 4 banks — cycle counts derived from the JEDEC nanosecond
    /// specs at tCK = 0.833 ns (see DESIGN.md §Calibration).
    pub fn ddr4_2400() -> Self {
        DramParams {
            tck_ps: 833,
            burst_length: 8,
            cl: 16,
            cwl: 12,
            t_rcd: 16,
            t_rp: 16,
            t_ras: 39,
            t_rc: 55,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_wtr_s: 3,
            t_wtr_l: 9,
            t_wr: 18,
            t_rtp: 9,
            t_faw: 26,
            t_refi: 9364,
            t_rfc: 313,
            channels: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 8192,
            cols: 128,
            bus_width_bits: 32,
            clock_ratio: 6,
        }
    }

    /// HBM2 at 2.0 Gb/s/pin in pseudo-channel mode: 8 independent
    /// 64-bit pseudo-channels, BL4, low tRC (45 ns) — cycle counts at
    /// tCK = 1.0 ns (see DESIGN.md §Calibration).
    pub fn hbm2_2gbps() -> Self {
        DramParams {
            tck_ps: 1000,
            burst_length: 4,
            cl: 14,
            cwl: 7,
            t_rcd: 14,
            t_rp: 15,
            t_ras: 30,
            t_rc: 45,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_wtr_s: 3,
            t_wtr_l: 8,
            t_wr: 15,
            t_rtp: 8,
            t_faw: 30,
            t_refi: 3900,
            t_rfc: 260,
            channels: 8,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 4096,
            cols: 32,
            bus_width_bits: 64,
            clock_ratio: 5,
        }
    }

    /// Data-bus cycles one burst occupies (`burst_length / 2`, DDR).
    pub fn burst_cycles(&self) -> u64 {
        u64::from(self.burst_length / 2)
    }

    /// Memory clock frequency in MHz.
    pub fn clock_mhz(&self) -> f64 {
        1.0e6 / self.tck_ps as f64
    }

    /// Bytes per burst on one channel.
    pub fn burst_bytes(&self) -> usize {
        (self.bus_width_bits as usize / 8) * self.burst_length as usize
    }

    /// Banks per channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Burst-aligned capacity across all channels.
    pub fn total_bursts(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.banks_per_channel())
            * u64::from(self.rows)
            * u64::from(self.cols)
    }

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the violated relation: zero
    /// clock/geometry fields, odd burst length, `tRC < tRAS + tRP`,
    /// `CWL > CL`, short-parameter exceeding its long counterpart
    /// (`tCCD_S/tCCD_L`, `tRRD_S/tRRD_L`, `tWTR_S/tWTR_L`),
    /// `tCCD_S < burst_cycles`, `tFAW < tRRD_S`, or `tREFI <= tRFC`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tck_ps == 0 {
            return Err(ConfigError::new("tck_ps must be nonzero"));
        }
        if self.burst_length == 0 || !self.burst_length.is_multiple_of(2) {
            return Err(ConfigError::new("burst_length must be even and nonzero"));
        }
        if self.cl == 0 || self.cwl == 0 {
            return Err(ConfigError::new("CL and CWL must be nonzero"));
        }
        if self.cwl > self.cl {
            return Err(ConfigError::new("CWL must not exceed CL"));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(ConfigError::new("tRC must cover tRAS + tRP"));
        }
        if self.t_ccd_s < self.burst_cycles() {
            return Err(ConfigError::new(
                "tCCD_S must be at least the burst occupancy",
            ));
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err(ConfigError::new("tCCD_L must be at least tCCD_S"));
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err(ConfigError::new("tRRD_L must be at least tRRD_S"));
        }
        if self.t_wtr_l < self.t_wtr_s {
            return Err(ConfigError::new("tWTR_L must be at least tWTR_S"));
        }
        if self.t_faw < self.t_rrd_s {
            return Err(ConfigError::new("tFAW must be at least tRRD_S"));
        }
        if self.t_refi <= self.t_rfc {
            return Err(ConfigError::new("tREFI must exceed tRFC"));
        }
        if self.channels == 0
            || self.bank_groups == 0
            || self.banks_per_group == 0
            || self.rows == 0
            || self.cols == 0
        {
            return Err(ConfigError::new(
                "channels, bank_groups, banks_per_group, rows and cols must be nonzero",
            ));
        }
        if self.bus_width_bits == 0 || !self.bus_width_bits.is_multiple_of(8) {
            return Err(ConfigError::new(
                "bus_width_bits must be a nonzero multiple of 8",
            ));
        }
        if self.clock_ratio == 0 {
            return Err(ConfigError::new("clock_ratio must be nonzero"));
        }
        Ok(())
    }
}

/// Closed-page bank lifecycle: idle → (ACT) → opening → (RD/WR with
/// auto-precharge) → idle again once `next_act_at` passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankPhase {
    Idle,
    /// ACT issued; column legal at `col_ready_at`.
    Opening {
        col_ready_at: u64,
    },
}

#[derive(Debug)]
struct Bank {
    phase: BankPhase,
    /// Earliest cycle the next ACT may issue (tRC + precharge recovery).
    next_act_at: u64,
    /// When the last ACT issued (for tRC bookkeeping).
    last_act_at: u64,
    queue: VecDeque<Queued>,
}

impl Bank {
    fn new() -> Self {
        Bank {
            phase: BankPhase::Idle,
            next_act_at: 0,
            last_act_at: 0,
            queue: VecDeque::new(),
        }
    }
}

/// Per-channel command-bus and rank-level fences.
#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    /// Next cycle the command bus accepts a command. Unlike the DDR3
    /// controller's quarter-rate `cmd_interval` (a prototype artifact),
    /// these models issue at the device's native 1N rate — one command
    /// per memory clock per channel — as modern PHYs do.
    next_cmd_at: u64,
    /// tRRD_S fence: earliest next ACT anywhere on the channel.
    next_act_any: u64,
    /// tRRD_L fences, one per bank group.
    next_act_group: Vec<u64>,
    /// Sliding window of the last four ACT times (tFAW).
    recent_acts: VecDeque<u64>,
    /// Earliest next read column command (turnaround + tCCD_S).
    next_rd_at: u64,
    /// Earliest next write column command (turnaround + tCCD_S).
    next_wr_at: u64,
    /// tCCD_L fences: earliest next column command per bank group.
    next_col_group: Vec<u64>,
    /// tWTR_L fences: earliest next read per bank group.
    next_rd_group: Vec<u64>,
    /// Next scheduled refresh due time.
    refresh_due: u64,
    /// While a refresh is in progress, commands stall until here.
    refresh_busy_until: u64,
}

impl Channel {
    fn new(p: &DramParams) -> Self {
        let groups = p.bank_groups as usize;
        Channel {
            banks: (0..p.banks_per_channel()).map(|_| Bank::new()).collect(),
            next_cmd_at: 0,
            next_act_any: 0,
            next_act_group: vec![0; groups],
            recent_acts: VecDeque::new(),
            next_rd_at: 0,
            next_wr_at: 0,
            next_col_group: vec![0; groups],
            next_rd_group: vec![0; groups],
            refresh_due: p.t_refi,
            refresh_busy_until: 0,
        }
    }
}

/// The bank-grouped, multi-channel, closed-page DRAM model. Construct
/// via [`MemorySpec::build`](crate::model::MemorySpec::build) or
/// directly with [`GroupedDramModel::new`].
#[derive(Debug)]
pub struct GroupedDramModel {
    name: &'static str,
    params: DramParams,
    refresh_enabled: bool,
    core: RequestCore,
    channels: Vec<Channel>,
    last_progress_at: u64,
}

/// Deadlock guard: with valid parameters every queued request issues
/// well within one refresh interval plus recovery.
const PROGRESS_WINDOW: u64 = 1_000_000;

impl GroupedDramModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`DramParams::validate`] or
    /// `queue_capacity` is zero.
    pub fn new(
        name: &'static str,
        params: DramParams,
        queue_capacity: usize,
        refresh_enabled: bool,
    ) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid DramParams: {e}");
        }
        GroupedDramModel {
            name,
            params,
            refresh_enabled,
            core: RequestCore::new(queue_capacity),
            channels: (0..params.channels)
                .map(|_| Channel::new(&params))
                .collect(),
            last_progress_at: 0,
        }
    }

    /// The parameter set this model was built from.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Decomposes a burst address: channel-first interleave, then
    /// bank-first within the channel, so consecutive addresses fan out
    /// across every level of device parallelism.
    fn decompose(&self, addr: u64) -> (usize, usize) {
        let p = &self.params;
        let ch = (addr % u64::from(p.channels)) as usize;
        let within = addr / u64::from(p.channels);
        let bank = (within % u64::from(p.banks_per_channel())) as usize;
        (ch, bank)
    }

    fn group_of(&self, bank: usize) -> usize {
        bank / self.params.banks_per_group as usize
    }

    /// Tries to issue one refresh / column / activate command on
    /// channel `ch`; returns whether a command issued.
    fn step_channel(&mut self, ch: usize) -> bool {
        let now = self.core.now();
        if self.channels[ch].refresh_busy_until > now || self.channels[ch].next_cmd_at > now {
            return false;
        }

        // Refresh: once due, the channel quiesces (no new ACTs below)
        // and issues REF as soon as every bank is closed and recovered.
        if self.refresh_enabled && now >= self.channels[ch].refresh_due {
            let all_idle = self.channels[ch]
                .banks
                .iter()
                .all(|b| b.phase == BankPhase::Idle && b.next_act_at <= now);
            if all_idle {
                let t_rfc = self.params.t_rfc;
                let t_refi = self.params.t_refi;
                let chan = &mut self.channels[ch];
                chan.refresh_busy_until = now + t_rfc;
                chan.refresh_due += t_refi;
                for bank in &mut chan.banks {
                    bank.next_act_at = bank.next_act_at.max(now + t_rfc);
                }
                chan.next_cmd_at = now + 1;
                return true;
            }
            // Banks still draining toward the refresh point: hold ACTs,
            // but let in-progress columns below finish the quiesce.
        }

        if self.try_issue_column(ch) {
            return true;
        }
        // No new ACTs while a refresh is pending quiesce.
        if self.refresh_enabled && now >= self.channels[ch].refresh_due {
            return false;
        }
        self.try_issue_activate(ch)
    }

    /// Issues the oldest legal column command on `ch`, if any.
    fn try_issue_column(&mut self, ch: usize) -> bool {
        let now = self.core.now();
        let p = self.params;
        let mut best: Option<(u64, usize)> = None; // (arrival, bank)
        for (b, bank) in self.channels[ch].banks.iter().enumerate() {
            let BankPhase::Opening { col_ready_at } = bank.phase else {
                continue;
            };
            if col_ready_at > now {
                continue;
            }
            let Some(head) = bank.queue.front() else {
                continue;
            };
            let g = self.group_of(b);
            let chan = &self.channels[ch];
            let legal = match head.req.kind {
                AccessKind::Read => {
                    chan.next_rd_at <= now
                        && chan.next_col_group[g] <= now
                        && chan.next_rd_group[g] <= now
                }
                AccessKind::Write => chan.next_wr_at <= now && chan.next_col_group[g] <= now,
            };
            if !legal {
                continue;
            }
            if best.is_none_or(|(arrival, _)| head.arrival < arrival) {
                best = Some((head.arrival, b));
            }
        }
        let Some((_, b)) = best else {
            return false;
        };

        let g = self.group_of(b);
        let burst = p.burst_cycles();
        let entry = self.channels[ch].banks[b]
            .queue
            .pop_front()
            .expect("column candidate had a queued head");
        let kind = entry.req.kind;
        let done_at = match kind {
            AccessKind::Read => now + p.cl + burst,
            AccessKind::Write => now + p.cwl + burst,
        };
        self.core.issue(entry, done_at);

        // Fences and bank auto-precharge bookkeeping.
        let last_act = self.channels[ch].banks[b].last_act_at;
        let chan = &mut self.channels[ch];
        chan.next_col_group[g] = chan.next_col_group[g].max(now + p.t_ccd_l);
        match kind {
            AccessKind::Read => {
                chan.next_rd_at = chan.next_rd_at.max(now + p.t_ccd_s);
                // Read→write bus turnaround: (RL − WL) + burst + bubble
                // (CWL ≤ CL is guaranteed by validate()).
                chan.next_wr_at = chan.next_wr_at.max(now + (p.cl - p.cwl) + burst + 2);
                // Auto-precharge after tRTP; bank free after tRP, no
                // earlier than tRC from the ACT.
                let pre_done = now + p.t_rtp + p.t_rp;
                let bank = &mut chan.banks[b];
                bank.phase = BankPhase::Idle;
                bank.next_act_at = bank.next_act_at.max(pre_done).max(last_act + p.t_rc);
            }
            AccessKind::Write => {
                chan.next_wr_at = chan.next_wr_at.max(now + p.t_ccd_s);
                // Write→read turnaround: WL + burst + tWTR (short for
                // other groups, long for the same group).
                let data_end = now + p.cwl + burst;
                chan.next_rd_at = chan.next_rd_at.max(data_end + p.t_wtr_s);
                chan.next_rd_group[g] = chan.next_rd_group[g].max(data_end + p.t_wtr_l);
                // Auto-precharge after write recovery.
                let pre_done = data_end + p.t_wr + p.t_rp;
                let bank = &mut chan.banks[b];
                bank.phase = BankPhase::Idle;
                bank.next_act_at = bank.next_act_at.max(pre_done).max(last_act + p.t_rc);
            }
        }
        chan.next_cmd_at = now + 1;
        true
    }

    /// Issues the oldest legal ACT on `ch`, if any.
    fn try_issue_activate(&mut self, ch: usize) -> bool {
        let now = self.core.now();
        let p = self.params;
        {
            let chan = &mut self.channels[ch];
            while chan
                .recent_acts
                .front()
                .is_some_and(|&t| t + p.t_faw <= now)
            {
                chan.recent_acts.pop_front();
            }
        }
        let chan = &self.channels[ch];
        if chan.next_act_any > now || chan.recent_acts.len() >= 4 {
            return false;
        }
        let mut best: Option<(u64, usize)> = None; // (arrival, bank)
        for (b, bank) in chan.banks.iter().enumerate() {
            if bank.phase != BankPhase::Idle || bank.next_act_at > now {
                continue;
            }
            let Some(head) = bank.queue.front() else {
                continue;
            };
            if chan.next_act_group[self.group_of(b)] > now {
                continue;
            }
            if best.is_none_or(|(arrival, _)| head.arrival < arrival) {
                best = Some((head.arrival, b));
            }
        }
        let Some((_, b)) = best else {
            return false;
        };
        let g = self.group_of(b);
        let chan = &mut self.channels[ch];
        let bank = &mut chan.banks[b];
        bank.phase = BankPhase::Opening {
            col_ready_at: now + p.t_rcd,
        };
        bank.last_act_at = now;
        bank.next_act_at = bank.next_act_at.max(now + p.t_rc);
        chan.next_act_any = now + p.t_rrd_s;
        chan.next_act_group[g] = now + p.t_rrd_l;
        chan.recent_acts.push_back(now);
        chan.next_cmd_at = now + 1;
        true
    }
}

impl MemoryModel for GroupedDramModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn now(&self) -> u64 {
        self.core.now()
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError> {
        assert!(
            req.addr < self.params.total_bursts(),
            "burst address {} out of range ({} bursts)",
            req.addr,
            self.params.total_bursts()
        );
        let q = self.core.admit(req)?;
        let (ch, bank) = self.decompose(req.addr);
        self.channels[ch].banks[bank].queue.push_back(q);
        Ok(())
    }

    fn tick(&mut self) -> &[Completion] {
        let now = self.core.tick();
        let mut progress = !self.core.done().is_empty();
        for ch in 0..self.channels.len() {
            progress |= self.step_channel(ch);
        }
        if progress {
            self.last_progress_at = now;
        }
        assert!(
            self.core.queued() == 0 || now - self.last_progress_at <= PROGRESS_WINDOW,
            "{}: no scheduler progress for {PROGRESS_WINDOW} cycles with {} queued",
            self.name,
            self.core.queued()
        );
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

    fn model(params: DramParams) -> GroupedDramModel {
        GroupedDramModel::new("dram", params, 64, false)
    }

    /// Cycles to fully drain `n` back-to-back reads at the given
    /// consecutive-address stride (stride chooses bank/group locality).
    fn drain_reads(params: DramParams, n: u64, stride: u64) -> u64 {
        let mut m = model(params);
        for i in 0..n {
            m.enqueue(MemRequest::read(i, i * stride)).unwrap();
        }
        let done = drain(&mut m, 1_000_000);
        assert_eq!(done.len() as u64, n);
        m.now()
    }

    #[test]
    fn presets_validate() {
        DramParams::ddr4_2400().validate().unwrap();
        DramParams::hbm2_2gbps().validate().unwrap();
    }

    #[test]
    fn validate_rejects_inconsistent_relations() {
        let base = DramParams::ddr4_2400();
        for (label, bad) in [
            (
                "ccd",
                DramParams {
                    t_ccd_l: base.t_ccd_s - 1,
                    ..base
                },
            ),
            (
                "rrd",
                DramParams {
                    t_rrd_l: base.t_rrd_s - 1,
                    ..base
                },
            ),
            (
                "wtr",
                DramParams {
                    t_wtr_l: base.t_wtr_s - 1,
                    ..base
                },
            ),
            (
                "rc",
                DramParams {
                    t_rc: base.t_ras + base.t_rp - 1,
                    ..base
                },
            ),
            (
                "cwl",
                DramParams {
                    cwl: base.cl + 1,
                    ..base
                },
            ),
            (
                "refi",
                DramParams {
                    t_refi: base.t_rfc,
                    ..base
                },
            ),
            (
                "ccd_burst",
                DramParams {
                    t_ccd_s: base.burst_cycles() - 1,
                    t_ccd_l: base.burst_cycles() - 1,
                    ..base
                },
            ),
            (
                "groups",
                DramParams {
                    bank_groups: 0,
                    ..base
                },
            ),
        ] {
            assert!(bad.validate().is_err(), "{label} should be rejected");
        }
    }

    #[test]
    fn same_group_columns_pay_tccd_l() {
        // One channel, and a stride that keeps every access in bank 0
        // (same group) vs. consecutive addresses that walk groups.
        let p = DramParams {
            channels: 1,
            ..DramParams::ddr4_2400()
        };
        let same_bank = drain_reads(p, 8, u64::from(p.banks_per_channel()) * 4);
        let spread = drain_reads(p, 8, 1);
        assert!(
            spread < same_bank,
            "group-spread reads ({spread}) should beat same-bank reads ({same_bank})"
        );
    }

    #[test]
    fn cross_group_beats_same_group_at_column_rate() {
        // Parameter set built to isolate tCCD_L vs tCCD_S: bank cycle
        // time and ACT spacing are made cheap (tRC/4 < tCCD_S), so the
        // only difference between rotating 4 banks of ONE group and
        // 4 banks of FOUR groups is the column-to-column spacing.
        let p = DramParams {
            t_rcd: 4,
            t_rp: 4,
            t_ras: 8,
            t_rc: 12,
            t_ccd_s: 4,
            t_ccd_l: 12,
            t_rrd_s: 1,
            t_rrd_l: 1,
            t_wtr_s: 1,
            t_wtr_l: 1,
            t_rtp: 2,
            t_faw: 1,
            channels: 1,
            ..DramParams::ddr4_2400()
        };
        p.validate().unwrap();
        let bpg = u64::from(p.banks_per_group);
        let mut same_group = model(p);
        let mut cross_group = model(p);
        for i in 0..32u64 {
            // Rotate banks 0..=3, all in group 0.
            same_group.enqueue(MemRequest::read(i, i % 4)).unwrap();
            // Rotate banks 0, bpg, 2*bpg, 3*bpg — one per group.
            cross_group
                .enqueue(MemRequest::read(i, (i % 4) * bpg))
                .unwrap();
        }
        drain(&mut same_group, 1_000_000);
        drain(&mut cross_group, 1_000_000);
        // Same-group columns pace at tCCD_L (12), cross-group at
        // tCCD_S (4): the gap over 32 reads must reflect that.
        assert!(
            cross_group.now() + 32 * (p.t_ccd_l - p.t_ccd_s) / 2 < same_group.now(),
            "cross-group ({}) should beat same-group ({}) by the CCD gap",
            cross_group.now(),
            same_group.now()
        );
    }

    #[test]
    fn more_channels_drain_faster() {
        let hbm = DramParams::hbm2_2gbps();
        let one_ch = DramParams {
            channels: 1,
            rows: hbm.rows * 8,
            ..hbm
        };
        let wide = drain_reads(hbm, 64, 1);
        let narrow = drain_reads(one_ch, 64, 1);
        assert!(
            wide * 2 < narrow,
            "8 channels ({wide}) should drain far faster than 1 ({narrow})"
        );
    }

    #[test]
    fn write_then_read_complete_in_arrival_order() {
        for p in [DramParams::ddr4_2400(), DramParams::hbm2_2gbps()] {
            let mut m = model(p);
            m.enqueue(MemRequest::write(1, 7)).unwrap();
            m.enqueue(MemRequest::read(2, 7)).unwrap();
            let done = drain(&mut m, 1_000_000);
            assert_eq!(done.len(), 2);
            assert_eq!(done[0].id, 1);
            assert_eq!(done[1].id, 2);
            assert!(done[0].completed_at < done[1].completed_at, "{done:?}");
            // Closed page: the write's auto-precharge closes the row, so
            // the read activates again, no sooner than tRC after the
            // write's activate on the first cycle.
            let reopened = 1 + p.t_rc + p.t_rcd + p.cl + p.burst_cycles();
            assert!(done[1].completed_at >= reopened, "{done:?}");
        }
    }

    #[test]
    fn queue_capacity_applies_back_pressure() {
        let mut m = GroupedDramModel::new("dram", DramParams::ddr4_2400(), 2, false);
        m.enqueue(MemRequest::read(1, 0)).unwrap();
        m.enqueue(MemRequest::read(2, 1)).unwrap();
        let err = m.enqueue(MemRequest::read(3, 2)).unwrap_err();
        assert_eq!((err.id, err.capacity), (3, 2));
        // The refused request is not queued: it is accepted once an
        // issue frees a place, and enters at that cycle.
        let mut done = Vec::new();
        while m.enqueue(MemRequest::read(3, 2)).is_err() {
            done.extend_from_slice(m.tick());
        }
        let accepted_at = m.now();
        assert!(accepted_at > 0);
        done.extend(drain(&mut m, 1_000_000));
        let ids: Vec<(u64, u64)> = done.iter().map(|d| (d.id, d.enqueued_at)).collect();
        assert_eq!(ids, [(1, 0), (2, 0), (3, accepted_at)]);
    }

    #[test]
    fn refresh_fires_and_blocks() {
        // A read that arrives as each refresh falls due waits out tRFC
        // behind it; with refresh off, the same read does not.
        let p = DramParams::ddr4_2400();
        let latency = |refresh: bool, idle: u64| {
            let mut m = GroupedDramModel::new("dram", p, 64, refresh);
            for _ in 0..idle {
                m.tick();
            }
            m.enqueue(MemRequest::read(1, 0)).unwrap();
            let done = drain(&mut m, 1_000_000);
            assert_eq!(done.len(), 1);
            done[0].completed_at - done[0].enqueued_at
        };
        for due in [p.t_refi, 2 * p.t_refi] {
            let (on, off) = (latency(true, due - 1), latency(false, due - 1));
            assert!(on >= off + p.t_rfc, "at {due}: {on} vs {off}");
        }
    }

    #[test]
    fn completions_sorted_by_enqueue_order() {
        let p = DramParams::hbm2_2gbps();
        let mut m = model(p);
        // Same-cycle enqueues across channels: ids must come back in
        // (enqueued_at, id) order within each tick's batch.
        for i in 0..32u64 {
            m.enqueue(MemRequest::read(i, 31 - i)).unwrap();
        }
        let done = drain(&mut m, 1_000_000);
        assert_eq!(done.len(), 32);
        let mut sorted = true;
        for w in done.windows(2) {
            if w[0].completed_at == w[1].completed_at
                && (w[0].enqueued_at, w[0].id) > (w[1].enqueued_at, w[1].id)
            {
                sorted = false;
            }
        }
        assert!(sorted, "same-cycle completions out of deterministic order");
    }
}
