//! Command-level DDR3 device model.
//!
//! [`Ddr3Device`] accepts JEDEC commands and enforces every modelled
//! timing constraint, returning a [`TimingViolation`] for illegal issues.
//! It deliberately does **not** schedule anything — scheduling is the
//! controller's job — but it exposes `*_legal_at` queries so a scheduler
//! can plan without trial-and-error.
//!
//! Data-bus occupancy is tracked per command: a read burst occupies the DQ
//! bus for `burst_cycles` starting `CL` after the command, a write burst
//! starting `CWL` after. The command-spacing rules (tCCD, read→write and
//! write→read turnaround) guarantee bursts never overlap; the device
//! asserts this in debug builds.

use std::collections::VecDeque;

use crate::address::Geometry;
use crate::bank::{Bank, BankState};
use crate::error::TimingViolation;
use crate::stats::DeviceStats;
use crate::timing::TimingParams;

/// A DDR3 command as issued on the command/address bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Open `row` in `bank`.
    Activate {
        /// Target bank.
        bank: u32,
        /// Row to open.
        row: u32,
    },
    /// Read one burst from column `col` of the open row in `bank`.
    Read {
        /// Target bank.
        bank: u32,
        /// Column (burst) index.
        col: u32,
        /// Close the row automatically after the access.
        auto_precharge: bool,
    },
    /// Write one burst to column `col` of the open row in `bank`.
    Write {
        /// Target bank.
        bank: u32,
        /// Column (burst) index.
        col: u32,
        /// Close the row automatically after the access.
        auto_precharge: bool,
    },
    /// Close the open row in `bank`.
    Precharge {
        /// Target bank.
        bank: u32,
    },
    /// Close all open rows.
    PrechargeAll,
    /// Refresh (requires all banks idle; occupies the device for tRFC).
    Refresh,
}

/// What issuing a command produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommandOutcome {
    /// First cycle data appears on the DQ bus (reads and writes).
    pub data_start: Option<u64>,
    /// One past the last DQ-bus data cycle.
    pub data_end: Option<u64>,
}

/// Direction of a column command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColDir {
    Read,
    Write,
}

/// A cycle-level DDR3 SDRAM device.
#[derive(Debug, Clone)]
pub struct Ddr3Device {
    timing: TimingParams,
    geometry: Geometry,
    banks: Vec<Bank>,
    /// Earliest cycle the next READ command may issue (device-wide).
    next_read_cmd: u64,
    /// Earliest cycle the next WRITE command may issue (device-wide).
    next_write_cmd: u64,
    /// Earliest cycle the next ACTIVATE may issue device-wide (tRRD).
    next_activate_cmd: u64,
    /// Times of the most recent ACTIVATEs, bounded by 4, for tFAW.
    act_history: VecDeque<u64>,
    /// Device unavailable until this cycle (refresh in progress).
    busy_until: u64,
    /// Last command-bus cycle used (one command per cycle).
    last_cmd_cycle: Option<u64>,
    /// DQ bus reserved through this cycle (exclusive), for overlap checks.
    dq_busy_until: u64,
    stats: DeviceStats,
}

impl Ddr3Device {
    /// Creates a device with the given timing and geometry.
    ///
    /// # Panics
    ///
    /// Panics if either parameter set fails validation; use
    /// [`TimingParams::validate`] / [`Geometry::validate`] first for
    /// fallible handling.
    pub fn new(timing: TimingParams, geometry: Geometry) -> Self {
        timing.validate().expect("invalid timing parameters");
        geometry.validate().expect("invalid geometry");
        Ddr3Device {
            timing,
            geometry,
            banks: (0..geometry.banks).map(|_| Bank::new()).collect(),
            next_read_cmd: 0,
            next_write_cmd: 0,
            next_activate_cmd: 0,
            act_history: VecDeque::with_capacity(4),
            busy_until: 0,
            last_cmd_cycle: None,
            dq_busy_until: 0,
            stats: DeviceStats::default(),
        }
    }

    /// Immutable view of a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: u32) -> &Bank {
        &self.banks[bank as usize]
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Earliest cycle an `Activate` on `bank` is legal, or `None` if the
    /// bank has an open row (it must be precharged first).
    pub fn activate_legal_at(&self, bank: u32) -> Option<u64> {
        let b = &self.banks[bank as usize];
        if matches!(b.state(), BankState::Active { .. }) {
            return None;
        }
        let mut t = b.activate_ready_at().max(self.next_activate_cmd);
        if self.act_history.len() == 4 {
            t = t.max(self.act_history[0] + self.timing.t_faw);
        }
        Some(t.max(self.busy_until))
    }

    /// Earliest cycle a `Read` on `bank` is legal, or `None` if the bank
    /// is idle or a different row is open than `row`.
    pub fn read_legal_at(&self, bank: u32, row: u32) -> Option<u64> {
        let b = &self.banks[bank as usize];
        if b.open_row() != Some(row) {
            return None;
        }
        Some(
            b.read_ready_at()
                .max(self.next_read_cmd)
                .max(self.busy_until),
        )
    }

    /// Earliest cycle a `Write` on `bank` is legal, or `None` if the bank
    /// is idle or a different row is open than `row`.
    pub fn write_legal_at(&self, bank: u32, row: u32) -> Option<u64> {
        let b = &self.banks[bank as usize];
        if b.open_row() != Some(row) {
            return None;
        }
        Some(
            b.write_ready_at()
                .max(self.next_write_cmd)
                .max(self.busy_until),
        )
    }

    /// Earliest cycle a `Precharge` on `bank` is legal. Always defined
    /// (precharging an idle bank is a legal no-op per JEDEC).
    pub fn precharge_legal_at(&self, bank: u32) -> u64 {
        self.banks[bank as usize]
            .precharge_ready_at()
            .max(self.busy_until)
    }

    /// Earliest cycle a `PrechargeAll` is legal (always defined).
    pub fn precharge_all_legal_at(&self) -> u64 {
        (0..self.geometry.banks)
            .filter(|&b| matches!(self.banks[b as usize].state(), BankState::Active { .. }))
            .map(|b| self.precharge_legal_at(b))
            .max()
            .unwrap_or(self.busy_until)
    }

    /// Earliest cycle a `Refresh` is legal, or `None` while any bank has
    /// an open row.
    pub fn refresh_legal_at(&self) -> Option<u64> {
        if self
            .banks
            .iter()
            .any(|b| matches!(b.state(), BankState::Active { .. }))
        {
            return None;
        }
        let after_pre = self
            .banks
            .iter()
            .map(|b| b.activate_ready_at())
            .max()
            .unwrap_or(0);
        Some(after_pre.max(self.busy_until))
    }

    /// Issues `cmd` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`TimingViolation`] if any modelled JEDEC constraint or
    /// bank-state requirement is not met, if `now` reuses a command-bus
    /// cycle, or if the target is out of the device's geometry.
    pub fn issue(&mut self, now: u64, cmd: Command) -> Result<CommandOutcome, TimingViolation> {
        if let Some(last) = self.last_cmd_cycle {
            if now <= last {
                return Err(TimingViolation {
                    command: cmd,
                    at: now,
                    earliest_legal: Some(last + 1),
                    constraint: "one command per command-bus cycle",
                });
            }
        }
        let outcome = match cmd {
            Command::Activate { bank, row } => self.issue_activate(now, cmd, bank, row)?,
            Command::Read {
                bank,
                col,
                auto_precharge,
            } => self.issue_column(now, cmd, bank, col, ColDir::Read, auto_precharge)?,
            Command::Write {
                bank,
                col,
                auto_precharge,
            } => self.issue_column(now, cmd, bank, col, ColDir::Write, auto_precharge)?,
            Command::Precharge { bank } => self.issue_precharge(now, cmd, bank)?,
            Command::PrechargeAll => self.issue_precharge_all(now, cmd)?,
            Command::Refresh => self.issue_refresh(now, cmd)?,
        };
        self.last_cmd_cycle = Some(now);
        Ok(outcome)
    }

    fn check_bank_range(&self, cmd: Command, now: u64, bank: u32) -> Result<(), TimingViolation> {
        if bank >= self.geometry.banks {
            return Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: None,
                constraint: "bank index out of range",
            });
        }
        Ok(())
    }

    fn issue_activate(
        &mut self,
        now: u64,
        cmd: Command,
        bank: u32,
        row: u32,
    ) -> Result<CommandOutcome, TimingViolation> {
        self.check_bank_range(cmd, now, bank)?;
        if row >= self.geometry.rows {
            return Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: None,
                constraint: "row index out of range",
            });
        }
        match self.activate_legal_at(bank) {
            None => Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: None,
                constraint: "bank already active (precharge required)",
            }),
            Some(t) if now < t => Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: Some(t),
                constraint: "tRC/tRP/tRRD/tFAW",
            }),
            Some(_) => {
                self.banks[bank as usize].apply_activate(now, row, &self.timing);
                self.next_activate_cmd = now + self.timing.t_rrd;
                if self.act_history.len() == 4 {
                    self.act_history.pop_front();
                }
                self.act_history.push_back(now);
                self.stats.activates += 1;
                Ok(CommandOutcome::default())
            }
        }
    }

    fn issue_column(
        &mut self,
        now: u64,
        cmd: Command,
        bank: u32,
        col: u32,
        dir: ColDir,
        auto_precharge: bool,
    ) -> Result<CommandOutcome, TimingViolation> {
        self.check_bank_range(cmd, now, bank)?;
        if col >= self.geometry.cols {
            return Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: None,
                constraint: "column index out of range",
            });
        }
        let b = &self.banks[bank as usize];
        let row = match b.open_row() {
            Some(r) => r,
            None => {
                return Err(TimingViolation {
                    command: cmd,
                    at: now,
                    earliest_legal: None,
                    constraint: "bank not active",
                })
            }
        };
        let legal = match dir {
            ColDir::Read => self.read_legal_at(bank, row),
            ColDir::Write => self.write_legal_at(bank, row),
        }
        .expect("row verified open");
        if now < legal {
            return Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: Some(legal),
                constraint: match dir {
                    ColDir::Read => "tRCD/tCCD/tWTR (read)",
                    ColDir::Write => "tRCD/tCCD/read-to-write (write)",
                },
            });
        }

        let t = &self.timing;
        let burst = t.burst_cycles();
        let (data_start, latency) = match dir {
            ColDir::Read => (now + t.cl, t.cl),
            ColDir::Write => (now + t.cwl, t.cwl),
        };
        let _ = latency;
        let data_end = data_start + burst;
        debug_assert!(
            data_start >= self.dq_busy_until,
            "DQ bus overlap: command spacing rules broken"
        );
        self.dq_busy_until = data_end;
        self.stats.dq_busy_cycles += burst;

        match dir {
            ColDir::Read => {
                self.banks[bank as usize].apply_read(now, t);
                // Same-direction spacing and write turnaround:
                // WR may follow a RD only after CL - CWL + burst + 2 (bus
                // turnaround + ODT switch margin).
                self.next_read_cmd = self.next_read_cmd.max(now + t.t_ccd);
                self.next_write_cmd = self.next_write_cmd.max(now + (t.cl - t.cwl) + burst + 2);
                self.stats.reads += 1;
            }
            ColDir::Write => {
                self.banks[bank as usize].apply_write(now, t);
                self.next_write_cmd = self.next_write_cmd.max(now + t.t_ccd);
                // RD may follow a WR only tWTR after the write data ends.
                self.next_read_cmd = self.next_read_cmd.max(now + t.cwl + burst + t.t_wtr);
                self.stats.writes += 1;
            }
        }

        if auto_precharge {
            // The device performs the precharge internally at the earliest
            // legal point; model it as an immediate precharge scheduled at
            // that time.
            let pre_at = self.banks[bank as usize].precharge_ready_at();
            self.banks[bank as usize].apply_precharge(pre_at, t);
        }

        Ok(CommandOutcome {
            data_start: Some(data_start),
            data_end: Some(data_end),
        })
    }

    fn issue_precharge(
        &mut self,
        now: u64,
        cmd: Command,
        bank: u32,
    ) -> Result<CommandOutcome, TimingViolation> {
        self.check_bank_range(cmd, now, bank)?;
        let legal = self.precharge_legal_at(bank);
        if now < legal {
            return Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: Some(legal),
                constraint: "tRAS/tRTP/tWR",
            });
        }
        if matches!(self.banks[bank as usize].state(), BankState::Active { .. }) {
            self.banks[bank as usize].apply_precharge(now, &self.timing);
        }
        // Precharging an idle bank is a legal no-op.
        Ok(CommandOutcome::default())
    }

    fn issue_precharge_all(
        &mut self,
        now: u64,
        cmd: Command,
    ) -> Result<CommandOutcome, TimingViolation> {
        // Legal only when every active bank may be precharged.
        let legal = (0..self.geometry.banks)
            .filter(|&b| matches!(self.banks[b as usize].state(), BankState::Active { .. }))
            .map(|b| self.precharge_legal_at(b))
            .max()
            .unwrap_or(self.busy_until);
        if now < legal {
            return Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: Some(legal),
                constraint: "tRAS/tRTP/tWR (precharge all)",
            });
        }
        for b in 0..self.geometry.banks {
            if matches!(self.banks[b as usize].state(), BankState::Active { .. }) {
                self.banks[b as usize].apply_precharge(now, &self.timing);
            }
        }
        Ok(CommandOutcome::default())
    }

    fn issue_refresh(&mut self, now: u64, cmd: Command) -> Result<CommandOutcome, TimingViolation> {
        match self.refresh_legal_at() {
            None => Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: None,
                constraint: "refresh requires all banks precharged",
            }),
            Some(t) if now < t => Err(TimingViolation {
                command: cmd,
                at: now,
                earliest_legal: Some(t),
                constraint: "tRP before refresh",
            }),
            Some(_) => {
                let done = now + self.timing.t_rfc;
                self.busy_until = done;
                for b in &mut self.banks {
                    b.force_idle(done);
                }
                Ok(CommandOutcome::default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    fn dev() -> Ddr3Device {
        Ddr3Device::new(TimingPreset::Ddr3_1066E.params(), Geometry::tiny())
    }

    #[test]
    fn activate_then_read_after_trcd() {
        let mut d = dev();
        d.issue(0, Command::Activate { bank: 0, row: 3 }).unwrap();
        let t_rcd = d.timing.t_rcd;
        // Too early: violates tRCD.
        let err = d
            .issue(
                t_rcd - 1,
                Command::Read {
                    bank: 0,
                    col: 0,
                    auto_precharge: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(t_rcd));
        let out = d
            .issue(
                t_rcd,
                Command::Read {
                    bank: 0,
                    col: 0,
                    auto_precharge: false,
                },
            )
            .unwrap();
        assert_eq!(out.data_start, Some(t_rcd + d.timing.cl));
        assert_eq!(out.data_end, Some(t_rcd + d.timing.cl + 4));
    }

    #[test]
    fn read_on_idle_bank_rejected() {
        let mut d = dev();
        let err = d
            .issue(
                5,
                Command::Read {
                    bank: 1,
                    col: 0,
                    auto_precharge: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.constraint, "bank not active");
    }

    #[test]
    fn double_activate_rejected() {
        let mut d = dev();
        d.issue(0, Command::Activate { bank: 0, row: 1 }).unwrap();
        let err = d
            .issue(1000, Command::Activate { bank: 0, row: 2 })
            .unwrap_err();
        assert!(err.constraint.contains("already active"));
    }

    #[test]
    fn back_to_back_reads_spaced_by_tccd() {
        let mut d = dev();
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let t0 = d.timing.t_rcd;
        d.issue(
            t0,
            Command::Read {
                bank: 0,
                col: 0,
                auto_precharge: false,
            },
        )
        .unwrap();
        let err = d
            .issue(
                t0 + 1,
                Command::Read {
                    bank: 0,
                    col: 1,
                    auto_precharge: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(t0 + d.timing.t_ccd));
    }

    #[test]
    fn write_to_read_pays_twtr() {
        let mut d = dev();
        let t = d.timing;
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let w = t.t_rcd;
        d.issue(
            w,
            Command::Write {
                bank: 0,
                col: 0,
                auto_precharge: false,
            },
        )
        .unwrap();
        let earliest_rd = w + t.cwl + t.burst_cycles() + t.t_wtr;
        let err = d
            .issue(
                earliest_rd - 1,
                Command::Read {
                    bank: 0,
                    col: 1,
                    auto_precharge: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(earliest_rd));
        d.issue(
            earliest_rd,
            Command::Read {
                bank: 0,
                col: 1,
                auto_precharge: false,
            },
        )
        .unwrap();
    }

    #[test]
    fn read_to_write_turnaround() {
        let mut d = dev();
        let t = d.timing;
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let r = t.t_rcd;
        d.issue(
            r,
            Command::Read {
                bank: 0,
                col: 0,
                auto_precharge: false,
            },
        )
        .unwrap();
        let earliest_wr = r + (t.cl - t.cwl) + t.burst_cycles() + 2;
        let err = d
            .issue(
                earliest_wr - 1,
                Command::Write {
                    bank: 0,
                    col: 1,
                    auto_precharge: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(earliest_wr));
    }

    #[test]
    fn trrd_between_activates_to_different_banks() {
        let mut d = dev();
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let err = d
            .issue(1, Command::Activate { bank: 1, row: 0 })
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(d.timing.t_rrd));
        d.issue(d.timing.t_rrd, Command::Activate { bank: 1, row: 0 })
            .unwrap();
    }

    #[test]
    fn tfaw_limits_fifth_activate() {
        let mut d = dev();
        let t = d.timing;
        // Four activates as fast as tRRD allows: at 0, tRRD, 2tRRD, 3tRRD.
        for i in 0..4u64 {
            d.issue(
                i * t.t_rrd,
                Command::Activate {
                    bank: i as u32,
                    row: 0,
                },
            )
            .unwrap();
        }
        // tiny geometry only has 4 banks; precharge bank 0 after tRAS so a
        // 5th ACT has a target. tRAS=20 > 3*tRRD=12.
        d.issue(t.t_ras, Command::Precharge { bank: 0 }).unwrap();
        // 5th activate must wait for the FAW window from ACT #0 (cycle 0)
        // and tRP after the precharge; tFAW = 27 > tRAS + tRP = 27 — equal
        // here, so pick the max.
        let faw_limit = t.t_faw;
        let rp_limit = t.t_ras + t.t_rp;
        let legal = faw_limit.max(rp_limit).max(t.t_rc);
        let err = d
            .issue(legal - 1, Command::Activate { bank: 0, row: 1 })
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(legal));
    }

    #[test]
    fn precharge_before_tras_rejected() {
        let mut d = dev();
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let err = d.issue(5, Command::Precharge { bank: 0 }).unwrap_err();
        assert_eq!(err.earliest_legal, Some(d.timing.t_ras));
    }

    #[test]
    fn precharge_idle_bank_is_noop() {
        let mut d = dev();
        let before = d.activate_legal_at(2);
        d.issue(3, Command::Precharge { bank: 2 }).unwrap();
        // A precharge that closed a row would hold the next ACT off by
        // tRP; this one moves nothing.
        assert_eq!(d.activate_legal_at(2), before);
    }

    #[test]
    fn refresh_requires_idle_banks_and_blocks_activates() {
        let mut d = dev();
        let t = d.timing;
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let err = d.issue(1, Command::Refresh).unwrap_err();
        assert!(err.constraint.contains("precharged"));
        d.issue(t.t_ras, Command::Precharge { bank: 0 }).unwrap();
        let ref_at = t.t_ras + t.t_rp;
        d.issue(ref_at, Command::Refresh).unwrap();
        // Activates blocked until tRFC elapses.
        let err = d
            .issue(ref_at + 1, Command::Activate { bank: 0, row: 0 })
            .unwrap_err();
        assert_eq!(err.earliest_legal, Some(ref_at + t.t_rfc));
        d.issue(ref_at + t.t_rfc, Command::Activate { bank: 0, row: 0 })
            .unwrap();
    }

    #[test]
    fn auto_precharge_closes_row() {
        let mut d = dev();
        let t = d.timing;
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        d.issue(
            t.t_rcd,
            Command::Read {
                bank: 0,
                col: 0,
                auto_precharge: true,
            },
        )
        .unwrap();
        assert_eq!(d.bank(0).open_row(), None);
        // Reopening respects tRAS + tRP from the original ACT.
        let legal = (t.t_ras + t.t_rp).max(t.t_rc);
        let err = d
            .issue(legal - 1, Command::Activate { bank: 0, row: 5 })
            .unwrap_err();
        assert!(err.earliest_legal.unwrap() >= legal);
    }

    #[test]
    fn one_command_per_cycle() {
        let mut d = dev();
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let err = d.issue(0, Command::Precharge { bank: 1 }).unwrap_err();
        assert!(err.constraint.contains("command-bus"));
    }

    #[test]
    fn out_of_range_targets_rejected() {
        let mut d = dev();
        assert!(d.issue(0, Command::Activate { bank: 99, row: 0 }).is_err());
        assert!(d
            .issue(1, Command::Activate { bank: 0, row: 9999 })
            .is_err());
        d.issue(2, Command::Activate { bank: 0, row: 0 }).unwrap();
        let t_rcd = d.timing.t_rcd;
        assert!(d
            .issue(
                2 + t_rcd,
                Command::Read {
                    bank: 0,
                    col: 9999,
                    auto_precharge: false
                }
            )
            .is_err());
    }

    #[test]
    fn dq_busy_and_turnaround_stats() {
        let mut d = dev();
        let t = d.timing;
        d.issue(0, Command::Activate { bank: 0, row: 0 }).unwrap();
        let r = t.t_rcd;
        d.issue(
            r,
            Command::Read {
                bank: 0,
                col: 0,
                auto_precharge: false,
            },
        )
        .unwrap();
        let w = r + (t.cl - t.cwl) + t.burst_cycles() + 2;
        d.issue(
            w,
            Command::Write {
                bank: 0,
                col: 1,
                auto_precharge: false,
            },
        )
        .unwrap();
        assert_eq!(d.stats().dq_busy_cycles, 8);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
    }
}
