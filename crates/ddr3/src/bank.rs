//! Per-bank state machine and timing bookkeeping.
//!
//! Each DDR3 bank is an independent row buffer: at most one row is open
//! ("active") at a time, and every transition is fenced by JEDEC
//! intervals. The [`Bank`] type tracks the state plus the earliest cycle
//! at which each command class becomes legal *for this bank*; device-wide
//! constraints (tRRD, tFAW, bus turnaround) live in
//! [`Ddr3Device`](crate::device::Ddr3Device).

use crate::timing::TimingParams;

/// The observable state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; an ACTIVATE is required before column commands.
    Idle,
    /// A row is open and column commands may target it.
    Active {
        /// The open row.
        row: u32,
    },
}

/// One bank's state machine.
#[derive(Debug, Clone)]
pub struct Bank {
    state: BankState,
    /// Earliest cycle an ACTIVATE may be issued (tRC from last ACT, tRP
    /// from precharge completion).
    next_activate: u64,
    /// Earliest cycle a READ may be issued (tRCD from ACT).
    next_read: u64,
    /// Earliest cycle a WRITE may be issued (tRCD from ACT).
    next_write: u64,
    /// Earliest cycle a PRECHARGE may be issued (tRAS from ACT, tRTP from
    /// READ, write-recovery from WRITE).
    next_precharge: u64,
}

impl Bank {
    /// Creates an idle bank with every command immediately legal.
    pub fn new() -> Self {
        Bank {
            state: BankState::Idle,
            next_activate: 0,
            next_read: 0,
            next_write: 0,
            next_precharge: 0,
        }
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    #[inline]
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }

    /// Earliest cycle an ACTIVATE is legal for this bank.
    #[inline]
    pub fn activate_ready_at(&self) -> u64 {
        self.next_activate
    }

    /// Earliest cycle a READ is legal for this bank (ignores device-wide
    /// constraints).
    #[inline]
    pub fn read_ready_at(&self) -> u64 {
        self.next_read
    }

    /// Earliest cycle a WRITE is legal for this bank (ignores device-wide
    /// constraints).
    #[inline]
    pub fn write_ready_at(&self) -> u64 {
        self.next_write
    }

    /// Earliest cycle a PRECHARGE is legal for this bank.
    #[inline]
    pub fn precharge_ready_at(&self) -> u64 {
        self.next_precharge
    }

    /// Applies an ACTIVATE at cycle `now`. The caller (the device) has
    /// already verified legality.
    pub(crate) fn apply_activate(&mut self, now: u64, row: u32, t: &TimingParams) {
        debug_assert!(matches!(self.state, BankState::Idle), "ACT on active bank");
        debug_assert!(now >= self.next_activate, "ACT before tRC/tRP satisfied");
        self.state = BankState::Active { row };
        self.next_read = now + t.t_rcd;
        self.next_write = now + t.t_rcd;
        self.next_precharge = now + t.t_ras;
        self.next_activate = now + t.t_rc;
    }

    /// Applies a READ at cycle `now`.
    pub(crate) fn apply_read(&mut self, now: u64, t: &TimingParams) {
        debug_assert!(matches!(self.state, BankState::Active { .. }));
        debug_assert!(now >= self.next_read);
        // A later precharge must respect tRTP from this read.
        self.next_precharge = self.next_precharge.max(now + t.t_rtp);
    }

    /// Applies a WRITE at cycle `now`.
    pub(crate) fn apply_write(&mut self, now: u64, t: &TimingParams) {
        debug_assert!(matches!(self.state, BankState::Active { .. }));
        debug_assert!(now >= self.next_write);
        // Precharge must wait for write recovery: CWL + burst + tWR after
        // the command.
        let wr_recovery = now + t.cwl + t.burst_cycles() + t.t_wr;
        self.next_precharge = self.next_precharge.max(wr_recovery);
    }

    /// Applies a PRECHARGE at cycle `now`.
    pub(crate) fn apply_precharge(&mut self, now: u64, t: &TimingParams) {
        debug_assert!(now >= self.next_precharge);
        self.state = BankState::Idle;
        self.next_activate = self.next_activate.max(now + t.t_rp);
        // Column commands are illegal until the next ACT anyway; push them
        // far enough that a state bug cannot slip through the time checks.
        self.next_read = u64::MAX;
        self.next_write = u64::MAX;
    }

    /// Resets column-command availability after an ACTIVATE (used by
    /// refresh handling, which closes all banks).
    pub(crate) fn force_idle(&mut self, ready_at: u64) {
        self.state = BankState::Idle;
        self.next_activate = self.next_activate.max(ready_at);
        self.next_read = u64::MAX;
        self.next_write = u64::MAX;
    }
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    fn t() -> TimingParams {
        TimingPreset::Ddr3_1066E.params()
    }

    #[test]
    fn new_bank_is_idle() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.activate_ready_at(), 0);
    }

    #[test]
    fn activate_opens_row_and_sets_windows() {
        let t = t();
        let mut b = Bank::new();
        b.apply_activate(100, 7, &t);
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.read_ready_at(), 100 + t.t_rcd);
        assert_eq!(b.write_ready_at(), 100 + t.t_rcd);
        assert_eq!(b.precharge_ready_at(), 100 + t.t_ras);
        assert_eq!(b.activate_ready_at(), 100 + t.t_rc);
    }

    #[test]
    fn read_extends_precharge_by_trtp() {
        let t = t();
        let mut b = Bank::new();
        b.apply_activate(0, 0, &t);
        // Read late in the row's life: tRTP then dominates tRAS.
        let read_at = t.t_ras + 10;
        b.apply_read(read_at, &t);
        assert_eq!(b.precharge_ready_at(), read_at + t.t_rtp);
    }

    #[test]
    fn early_read_does_not_shrink_tras() {
        let t = t();
        let mut b = Bank::new();
        b.apply_activate(0, 0, &t);
        b.apply_read(t.t_rcd, &t);
        // tRAS (20) still dominates tRCD + tRTP (7 + 4).
        assert_eq!(b.precharge_ready_at(), t.t_ras);
    }

    #[test]
    fn write_recovery_gates_precharge() {
        let t = t();
        let mut b = Bank::new();
        b.apply_activate(0, 0, &t);
        let wr_at = t.t_rcd;
        b.apply_write(wr_at, &t);
        let expected = wr_at + t.cwl + t.burst_cycles() + t.t_wr;
        assert_eq!(b.precharge_ready_at(), expected.max(t.t_ras));
    }

    #[test]
    fn precharge_closes_row_and_blocks_columns() {
        let t = t();
        let mut b = Bank::new();
        b.apply_activate(0, 3, &t);
        b.apply_precharge(t.t_ras, &t);
        assert_eq!(b.state(), BankState::Idle);
        // Reads/writes impossible until next ACT.
        assert_eq!(b.read_ready_at(), u64::MAX);
        assert_eq!(b.write_ready_at(), u64::MAX);
        // Next ACT no earlier than max(tRC from last ACT, PRE + tRP).
        assert_eq!(b.activate_ready_at(), t.t_rc.max(t.t_ras + t.t_rp));
    }

    #[test]
    fn force_idle_pushes_activate() {
        let t = t();
        let mut b = Bank::new();
        b.apply_activate(0, 3, &t);
        b.force_idle(500);
        assert_eq!(b.state(), BankState::Idle);
        assert!(b.activate_ready_at() >= 500);
    }
}
