//! Every baseline by name, built at a Hash-CAM table's capacity.

use flowlut_core::backend::FlowStore;
use flowlut_core::TableConfig;

use crate::{
    BloomCamTable, CuckooTable, DLeftTable, OneMoveTable, SimultaneousHashCam, SingleHashTable,
};

/// The related-work comparators, each buildable at the capacity of a
/// given [`TableConfig`] by [`build`](Self::build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// One hash function, K-entry buckets.
    SingleHash,
    /// Multi-choice / balanced-allocations hashing (d = 2).
    DLeft,
    /// Two-function cuckoo hashing with kick-out insertion.
    Cuckoo,
    /// Kirsch & Mitzenmacher's single-move table with overflow CAM.
    OneMove,
    /// Bloom-filter occupancy summary plus CAM.
    BloomCam,
    /// The conventional Hash-CAM that probes CAM and both memories at
    /// once (the paper's early-exit ablation baseline).
    SimultaneousHashCam,
}

impl BaselineKind {
    /// Every baseline kind, in the related-work section's order — the
    /// iteration set for comparison registries.
    pub const ALL: [BaselineKind; 6] = [
        BaselineKind::SingleHash,
        BaselineKind::DLeft,
        BaselineKind::Cuckoo,
        BaselineKind::OneMove,
        BaselineKind::BloomCam,
        BaselineKind::SimultaneousHashCam,
    ];

    /// Constructs this baseline at `table`'s capacity: the same total
    /// key slots (two memories × buckets × K plus CAM), redistributed
    /// into the structure's natural shape, seeded with the table's hash
    /// seed. CAM-less structures round *up* to the next whole bucket, so
    /// every baseline holds at least as many keys as the paper's table.
    pub fn build(self, table: &TableConfig) -> Box<dyn FlowStore> {
        let buckets = table.buckets_per_mem;
        let k = usize::from(table.entries_per_bucket);
        let cam = table.cam_capacity;
        let total = table.capacity() as usize;
        let seed = table.hash_seed;
        match self {
            BaselineKind::SingleHash => {
                Box::new(SingleHashTable::new(total.div_ceil(k) as u32, k, seed))
            }
            BaselineKind::DLeft => {
                Box::new(DLeftTable::new(2, total.div_ceil(2 * k) as u32, k, seed))
            }
            BaselineKind::Cuckoo => {
                // Two single-entry sub-tables plus the structure's fixed
                // 8-slot stash.
                let per_table = total.saturating_sub(8).div_ceil(2).max(1) as u32;
                Box::new(CuckooTable::new(per_table, 1, 500, seed))
            }
            BaselineKind::OneMove => Box::new(OneMoveTable::new(2, buckets, k, cam, seed)),
            BaselineKind::BloomCam => Box::new(BloomCamTable::new((total - cam) as u32, cam, seed)),
            BaselineKind::SimultaneousHashCam => {
                Box::new(SimultaneousHashCam::new(buckets, k, cam, seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_are_capacity_matched() {
        let small = TableConfig::test_small();
        let total = small.capacity();
        let slack = 2 * u64::from(small.entries_per_bucket);
        for kind in BaselineKind::ALL {
            let b = kind.build(&small);
            assert!(
                b.capacity() >= total && b.capacity() <= total + slack,
                "{kind:?} ({}): capacity {} not within [{total}, {}]",
                b.name(),
                b.capacity(),
                total + slack
            );
        }
    }
}
