//! CAM statistics.

/// Counters maintained by [`Cam`](crate::Cam).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CamStats {
    /// Searches performed.
    pub searches: u64,
    /// Searches that matched.
    pub hits: u64,
    /// Successful insertions.
    pub inserts: u64,
    /// Insertions rejected because the CAM was full.
    pub insert_failures: u64,
    /// Deletions that removed an entry.
    pub deletes: u64,
    /// Highest simultaneous occupancy observed.
    pub high_watermark: usize,
}

impl CamStats {
    /// Fraction of searches that hit; 0 when no searches were made.
    #[cfg(test)]
    pub fn hit_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.hits as f64 / self.searches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_zero_without_searches() {
        assert_eq!(CamStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_fraction() {
        let s = CamStats {
            searches: 8,
            hits: 2,
            ..CamStats::default()
        };
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }
}
