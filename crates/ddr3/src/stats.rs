//! Statistics the DDR3 device model collects.

/// Counters maintained by [`Ddr3Device`](crate::device::Ddr3Device).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// ACTIVATE commands issued.
    pub activates: u64,
    /// READ commands issued.
    pub reads: u64,
    /// WRITE commands issued.
    pub writes: u64,
    /// DQ-bus cycles carrying data.
    pub dq_busy_cycles: u64,
}

impl DeviceStats {
    /// Fraction of cycles the DQ bus carried data over `elapsed` cycles.
    ///
    /// Returns 0 when `elapsed` is 0.
    #[cfg(test)]
    pub fn dq_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.dq_busy_cycles as f64 / elapsed as f64
        }
    }

    /// Row-hit rate over all column accesses: the share that found
    /// their row open, as every other one needed an ACTIVATE first.
    pub fn row_hit_rate(&self) -> f64 {
        let col = self.reads + self.writes;
        if col == 0 {
            0.0
        } else {
            1.0 - self.activates as f64 / col as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_zero_when_no_time() {
        let s = DeviceStats::default();
        assert_eq!(s.dq_utilization(0), 0.0);
    }

    #[test]
    fn utilization_fraction() {
        let s = DeviceStats {
            dq_busy_cycles: 25,
            ..DeviceStats::default()
        };
        assert!((s.dq_utilization(100) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn row_hit_rate_counts_columns() {
        let s = DeviceStats {
            reads: 6,
            writes: 2,
            activates: 4,
            ..DeviceStats::default()
        };
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_hit_rate_zero_without_accesses() {
        assert_eq!(DeviceStats::default().row_hit_rate(), 0.0);
    }
}
