//! JEDEC timing parameter sets for DDR3 SDRAM.
//!
//! All parameters are expressed in **memory command-clock cycles** (one
//! cycle = `tCK`); the clock period itself is carried in picoseconds so
//! that simulated cycle counts convert to wall-clock rates.
//!
//! The paper's Figure 3 is computed from Micron's DDR3-1066 `-187E` 1 Gb
//! part (the datasheet cited as the paper's reference \[12\]); the FPGA prototype runs
//! its two memory sets at an 800 MHz I/O clock (DDR3-1600). Presets for
//! both, plus DDR3-1333 as a midpoint, are provided.

use crate::error::ConfigError;

/// A complete DDR3 timing parameter set, in command-clock cycles.
///
/// Only the constraints that influence scheduling behaviour at the
/// granularity this simulator cares about are modelled. Power-down,
/// ZQ-calibration and mode-register timings are out of scope: they do not
/// affect the steady-state lookup throughput the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Clock period in picoseconds (e.g. 1875 for DDR3-1066).
    pub tck_ps: u64,
    /// Burst length in beats (DDR3 native BL8; BC4 is not modelled).
    pub burst_length: u32,
    /// CAS (read) latency, command to first data beat.
    pub cl: u64,
    /// CAS write latency, command to first data beat.
    pub cwl: u64,
    /// ACT to internal read/write delay (row-to-column).
    pub t_rcd: u64,
    /// Precharge period.
    pub t_rp: u64,
    /// ACT to PRE minimum (row active time).
    pub t_ras: u64,
    /// ACT to ACT same bank (row cycle time).
    pub t_rc: u64,
    /// ACT to ACT different bank.
    pub t_rrd: u64,
    /// Column-command to column-command (same direction).
    pub t_ccd: u64,
    /// Write-to-read turnaround, measured from the end of write data.
    pub t_wtr: u64,
    /// Write recovery: end of write data to PRE.
    pub t_wr: u64,
    /// Read to PRE.
    pub t_rtp: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,
}

impl TimingParams {
    /// Number of command-clock cycles one burst occupies on the DQ bus.
    ///
    /// DDR transfers two beats per clock, so BL8 occupies four cycles.
    #[inline]
    pub fn burst_cycles(&self) -> u64 {
        u64::from(self.burst_length) / 2
    }

    /// Clock frequency in MHz implied by [`tck_ps`](Self::tck_ps).
    pub fn clock_mhz(&self) -> f64 {
        1.0e6 / self.tck_ps as f64
    }

    /// Converts a cycle count to nanoseconds.
    #[cfg(test)]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.tck_ps as f64 / 1000.0
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a derived constraint is violated, e.g.
    /// `tRC < tRAS + tRP`, a zero clock period, or an odd/zero burst
    /// length.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tck_ps == 0 {
            return Err(ConfigError::new("tCK must be non-zero"));
        }
        if self.burst_length == 0 || !self.burst_length.is_multiple_of(2) {
            return Err(ConfigError::new("burst length must be even and non-zero"));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(ConfigError::new(format!(
                "tRC ({}) must be >= tRAS + tRP ({} + {})",
                self.t_rc, self.t_ras, self.t_rp
            )));
        }
        if self.cl == 0 || self.cwl == 0 {
            return Err(ConfigError::new("CL and CWL must be non-zero"));
        }
        if self.cwl > self.cl {
            return Err(ConfigError::new("CWL must not exceed CL on DDR3 parts"));
        }
        if self.t_ccd < self.burst_cycles() {
            return Err(ConfigError::new(
                "tCCD must be at least the burst occupancy (bursts would overlap)",
            ));
        }
        if self.t_faw < self.t_rrd {
            return Err(ConfigError::new("tFAW must be >= tRRD"));
        }
        if self.t_refi <= self.t_rfc {
            return Err(ConfigError::new(
                "tREFI must exceed tRFC or the device does nothing but refresh",
            ));
        }
        Ok(())
    }
}

/// Named speed-grade presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingPreset {
    /// DDR3-1066E (`-187E`), the Micron 1 Gb part cited by the paper for
    /// Figure 3. 533 MHz clock, CL7-7-7.
    Ddr3_1066E,
    /// DDR3-1333 (`-15E`), CL9-9-9, 667 MHz clock.
    Ddr3_1333,
    /// DDR3-1600 (`-125`), CL11-11-11, 800 MHz clock — the I/O rate of the
    /// paper's FPGA prototype ("memory I/O bus clock frequency of
    /// 800 MHz").
    Ddr3_1600,
}

impl TimingPreset {
    /// Returns the parameter set for this preset.
    ///
    /// Cycle counts follow the Micron 1 Gb DDR3 SDRAM datasheet (the
    /// paper's reference \[12\]): analogue nanosecond constraints are
    /// rounded *up* to whole clocks, as a real controller must.
    pub fn params(self) -> TimingParams {
        let p = match self {
            // tCK = 1.875 ns. tRAS = 37.5 ns -> 20 ck, tRC = 50.625 ns -> 27,
            // tRRD = 7.5 ns -> 4, tWTR = 7.5 ns -> 4, tWR = 15 ns -> 8,
            // tRTP = 7.5 ns -> 4, tFAW = 50 ns -> 27 (x8 part),
            // tREFI = 7.8 us -> 4160, tRFC(1 Gb) = 110 ns -> 59.
            TimingPreset::Ddr3_1066E => TimingParams {
                tck_ps: 1875,
                burst_length: 8,
                cl: 7,
                cwl: 6,
                t_rcd: 7,
                t_rp: 7,
                t_ras: 20,
                t_rc: 27,
                t_rrd: 4,
                t_ccd: 4,
                t_wtr: 4,
                t_wr: 8,
                t_rtp: 4,
                t_faw: 27,
                t_refi: 4160,
                t_rfc: 59,
            },
            // tCK = 1.5 ns. tRAS = 36 ns -> 24, tRC = 49.5 ns -> 33,
            // tRRD = 6 ns -> 4, tWTR = 7.5 ns -> 5, tWR = 15 ns -> 10,
            // tRTP = 7.5 ns -> 5, tFAW = 45 ns -> 30,
            // tREFI = 7.8 us -> 5200, tRFC = 110 ns -> 74.
            TimingPreset::Ddr3_1333 => TimingParams {
                tck_ps: 1500,
                burst_length: 8,
                cl: 9,
                cwl: 7,
                t_rcd: 9,
                t_rp: 9,
                t_ras: 24,
                t_rc: 33,
                t_rrd: 4,
                t_ccd: 4,
                t_wtr: 5,
                t_wr: 10,
                t_rtp: 5,
                t_faw: 30,
                t_refi: 5200,
                t_rfc: 74,
            },
            // tCK = 1.25 ns. tRAS = 35 ns -> 28, tRC = 48.75 ns -> 39,
            // tRRD = 6 ns -> 5, tWTR = 7.5 ns -> 6, tWR = 15 ns -> 12,
            // tRTP = 7.5 ns -> 6, tFAW = 40 ns -> 32,
            // tREFI = 7.8 us -> 6240, tRFC = 110 ns -> 88.
            TimingPreset::Ddr3_1600 => TimingParams {
                tck_ps: 1250,
                burst_length: 8,
                cl: 11,
                cwl: 8,
                t_rcd: 11,
                t_rp: 11,
                t_ras: 28,
                t_rc: 39,
                t_rrd: 5,
                t_ccd: 4,
                t_wtr: 6,
                t_wr: 12,
                t_rtp: 6,
                t_faw: 32,
                t_refi: 6240,
                t_rfc: 88,
            },
        };
        debug_assert!(p.validate().is_ok());
        p
    }
}

impl Default for TimingParams {
    /// Defaults to the paper's Figure 3 part, DDR3-1066E.
    fn default() -> Self {
        TimingPreset::Ddr3_1066E.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for preset in [
            TimingPreset::Ddr3_1066E,
            TimingPreset::Ddr3_1333,
            TimingPreset::Ddr3_1600,
        ] {
            preset.params().validate().unwrap();
        }
    }

    #[test]
    fn ddr3_1066_matches_datasheet() {
        let p = TimingPreset::Ddr3_1066E.params();
        assert_eq!(p.tck_ps, 1875);
        assert_eq!(p.cl, 7);
        assert_eq!(p.cwl, 6);
        assert_eq!(p.burst_cycles(), 4);
        // 533.3 MHz clock, 1066 MT/s.
        assert!((p.clock_mhz() - 533.33).abs() < 0.1);
    }

    #[test]
    fn ddr3_1600_is_800mhz() {
        let p = TimingPreset::Ddr3_1600.params();
        assert!((p.clock_mhz() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_to_ns_roundtrip() {
        let p = TimingPreset::Ddr3_1066E.params();
        // tRAS = 20 cycles = 37.5 ns.
        assert!((p.cycles_to_ns(p.t_ras) - 37.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_trc_rejected() {
        let mut p = TimingPreset::Ddr3_1066E.params();
        p.t_rc = 5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_burst_length_rejected() {
        let mut p = TimingPreset::Ddr3_1066E.params();
        p.burst_length = 3;
        assert!(p.validate().is_err());
        p.burst_length = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn overlapping_ccd_rejected() {
        let mut p = TimingPreset::Ddr3_1066E.params();
        p.t_ccd = 2; // bursts are 4 cycles: would overlap on the bus
        assert!(p.validate().is_err());
    }

    #[test]
    fn refresh_dominated_device_rejected() {
        let mut p = TimingPreset::Ddr3_1066E.params();
        p.t_refi = p.t_rfc;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_clock_rejected() {
        let mut p = TimingPreset::Ddr3_1066E.params();
        p.tck_ps = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn cwl_above_cl_rejected() {
        let mut p = TimingPreset::Ddr3_1066E.params();
        p.cwl = p.cl + 1;
        assert!(p.validate().is_err());
    }
}
