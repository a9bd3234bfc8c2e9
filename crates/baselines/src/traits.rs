//! The types every baseline shares.
//!
//! Each baseline implements the workspace-wide [`FlowStore`] trait
//! directly: an upsert `insert` (a resident key reports
//! `Ok(false)` after one membership probe), exact membership, and probe
//! counting in [`OpStats`], so one generic harness drives baselines, the
//! paper's table, and the timed simulators interchangeably.

use flowlut_core::backend::FlowStore;
use flowlut_traffic::FlowKey;

/// Insertion failed: the structure could not place the key.
///
/// This is the workspace-wide [`FullError`](flowlut_core::backend::FullError)
/// (the historical `BaselineFullError` alias is retired). It carries the
/// rejected key and the occupancy at rejection time, so callers can log
/// what failed and how full the structure was.
pub use flowlut_core::backend::FullError;

/// Memory-access accounting: the currency all baselines are compared in.
///
/// Re-export of the workspace-wide [`OpStats`](flowlut_core::backend::OpStats);
/// see there for the accounting rules.
pub use flowlut_core::backend::OpStats;

/// Builds the [`FullError`] for a rejected `key`, capturing the
/// structure's name and its occupancy at rejection time.
pub(crate) fn full_error(store: &impl FlowStore, key: FlowKey) -> FullError {
    FullError {
        table: store.name(),
        key,
        occupancy: store.len(),
        capacity: store.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn reads_per_lookup() {
        let s = OpStats {
            mem_reads: 30,
            lookups: 20,
            ..OpStats::default()
        };
        assert!((s.reads_per_lookup() - 1.5).abs() < 1e-12);
        assert_eq!(OpStats::default().reads_per_lookup(), 0.0);
    }

    #[test]
    fn error_display_carries_context() {
        let mut t = crate::SingleHashTable::new(1, 1, 7);
        assert!(t.insert(key(0)).unwrap());
        let e = t.insert(key(1)).unwrap_err();
        assert_eq!(e.key, key(1));
        assert_eq!(e.occupancy, 1);
        assert_eq!(e.capacity, 1);
        let s = e.to_string();
        assert!(s.contains("single-hash"), "{s}");
        assert!(s.contains("1/1"), "{s}");
    }

    #[test]
    fn store_view_is_upsert() {
        let mut t = crate::CuckooTable::new(64, 1, 50, 7);
        let b: &mut dyn FlowStore = &mut t;
        assert!(b.insert(key(9)).unwrap());
        assert!(!b.insert(key(9)).unwrap(), "second insert is a no-op");
        assert_eq!(b.len(), 1);
        assert!(b.as_pipeline().is_none(), "baselines are untimed");
        assert!(b.remove(&key(9)));
        assert!(b.is_empty());
    }

    #[test]
    fn every_baseline_is_a_backend() {
        let backends: Vec<Box<dyn FlowStore>> = vec![
            Box::new(crate::SingleHashTable::new(64, 2, 7)),
            Box::new(crate::DLeftTable::new(2, 32, 2, 7)),
            Box::new(crate::CuckooTable::new(64, 1, 50, 7)),
            Box::new(crate::OneMoveTable::new(2, 32, 2, 8, 7)),
            Box::new(crate::BloomCamTable::new(120, 8, 7)),
            Box::new(crate::SimultaneousHashCam::new(32, 2, 8, 7)),
        ];
        for mut b in backends {
            assert!(b.insert(key(1)).unwrap(), "{}", b.name());
            assert!(b.contains(&key(1)), "{}", b.name());
            let s = b.op_stats();
            assert!(s.lookups > 0 || s.inserts > 0, "{}", b.name());
        }
    }
}
