//! Property-based invariants spanning the workspace: the Hash-CAM table
//! against a reference model, wire-format round trips, flow-ID packing,
//! and DDR3 liveness under random schedules.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use flowlut::core::codec;
use flowlut::core::fid::{FlowId, Location, PathId};
use flowlut::core::{HashCamTable, InsertError, TableConfig};
use flowlut::ddr3::{
    ControllerConfig, Geometry, MemRequest, MemoryController, MemoryModel, TimingPreset,
};
use flowlut::traffic::{FiveTuple, FlowKey};

fn key_strategy() -> impl Strategy<Value = FlowKey> {
    // Small index space so sequences revisit keys (exercising duplicate
    // and delete paths).
    (0u64..64).prop_map(|i| FlowKey::from(FiveTuple::from_index(i)))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(FlowKey),
    Delete(FlowKey),
    Lookup(FlowKey),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::Lookup),
    ]
}

proptest! {
    /// The Hash-CAM table behaves exactly like a set, for any operation
    /// sequence, as long as capacity is not exhausted.
    #[test]
    fn table_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut table = HashCamTable::new(TableConfig {
            buckets_per_mem: 64,
            entries_per_bucket: 2,
            cam_capacity: 64, // roomy: 64-key universe cannot overflow
            entry_slot_bytes: 16,
            hash_seed: 99,
        });
        let mut model: HashSet<FlowKey> = HashSet::new();
        let mut ids: HashMap<FlowKey, FlowId> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(k) => match table.insert(k) {
                    Ok(fid) => {
                        prop_assert!(model.insert(k), "table accepted duplicate");
                        ids.insert(k, fid);
                    }
                    Err(InsertError::Duplicate(fid)) => {
                        prop_assert!(model.contains(&k));
                        prop_assert_eq!(ids[&k], fid);
                    }
                    Err(InsertError::TableFull) => {
                        prop_assert!(false, "capacity exceeded with 64-key universe");
                    }
                    Err(e @ InsertError::KeyDoesNotFit { .. }) => {
                        prop_assert!(false, "a 13-byte key fits a 16-byte slot: {}", e);
                    }
                },
                Op::Delete(k) => {
                    let table_had = table.delete(&k).is_some();
                    let model_had = model.remove(&k);
                    ids.remove(&k);
                    prop_assert_eq!(table_had, model_had);
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(table.lookup(&k).is_some(), model.contains(&k));
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(table.len(), model.len() as u64);
            prop_assert_eq!(table.occupancy().total(), table.len());
        }
        // Every resident key is found exactly where its ID says.
        for (fid, record) in table.records_after(None) {
            prop_assert_eq!(table.peek(&record.key), Some(fid));
            prop_assert!(model.contains(&record.key));
        }
    }

    /// Slots of every width from 2 to 66 bytes round-trip each key that
    /// fits and refuse, untouched, each key that does not; free slots
    /// read back as no key, and `find_key` agrees with the slots.
    #[test]
    fn codec_roundtrip(
        slot_bytes in 2usize..=66,
        lens in prop::collection::vec(0usize..=64, 1..6),
        seed in any::<u64>(),
    ) {
        // A key of `len` bytes from `seed`, distinct for distinct seeds.
        let key_of = |len: usize, seed: u64| {
            let bytes: Vec<u8> = seed.to_le_bytes().iter().copied().cycle().take(len).collect();
            FlowKey::new(&bytes).unwrap()
        };
        let k = lens.len();
        let mut bytes = vec![0u8; k * slot_bytes];
        let mut held = Vec::new();
        for (i, (&len, slot)) in lens.iter().zip(bytes.chunks_exact_mut(slot_bytes)).enumerate() {
            // Length 0 leaves the slot free.
            let key = (len > 0).then(|| key_of(len, seed.wrapping_add(i as u64)));
            let Some(key) = key else {
                held.push(None);
                continue;
            };
            let fits = len < slot_bytes;
            prop_assert_eq!(codec::check_fit(&key, slot_bytes).is_ok(), fits);
            match codec::write_slot(slot, &key) {
                Ok(()) => {
                    prop_assert!(fits);
                    prop_assert_eq!(usize::from(slot[0]), len);
                    prop_assert_eq!(&slot[1..=len], key.as_bytes());
                    prop_assert!(slot[len + 1..].iter().all(|&b| b == 0));
                    held.push(Some(key));
                }
                Err(refused) => {
                    prop_assert!(!fits);
                    prop_assert_eq!(refused, InsertError::KeyDoesNotFit { key_bytes: len, slot_bytes });
                    prop_assert!(slot.iter().all(|&b| b == 0), "a refused write left bytes");
                    held.push(None);
                }
            }
        }
        for (i, slot) in bytes.chunks_exact(slot_bytes).enumerate() {
            prop_assert_eq!(codec::read_slot(slot), held[i]);
            prop_assert_eq!(codec::is_free(slot), held[i].is_none());
            if let Some(key) = held[i] {
                // Lengths differ or seeds do, so keys are distinct.
                prop_assert_eq!(codec::find_key(&bytes, slot_bytes, k, &key), Some(i as u8));
            }
        }
        let absent = key_of(slot_bytes.min(65) - 1, seed.wrapping_add(k as u64));
        prop_assert_eq!(codec::find_key(&bytes, slot_bytes, k, &absent), None);
        prop_assert!(codec::check_fit(&FlowKey::default(), slot_bytes).is_err());
    }

    /// Flow-ID packing round-trips every representable location.
    #[test]
    fn flow_id_roundtrip(
        cam_slot in 0u32..(1 << 20),
        bucket in 0u32..(1 << 22),
        slot in 0u8..4,
        path_b in any::<bool>(),
    ) {
        let k = 4u8;
        let cam = Location::Cam(cam_slot);
        prop_assert_eq!(FlowId::encode(cam, k).decode(k), cam);
        let mem = Location::Mem {
            path: if path_b { PathId::B } else { PathId::A },
            bucket,
            slot,
        };
        prop_assert_eq!(FlowId::encode(mem, k).decode(k), mem);
    }

    /// The DDR3 device's JEDEC checks never reject what the controller
    /// schedules (no panics), and every request completes, for arbitrary
    /// address mixes.
    #[test]
    fn controller_always_drains(addrs in prop::collection::vec(0u64..4096, 1..100)) {
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1600.params(),
            geometry: Geometry::tiny(),
            queue_capacity: 512,
            refresh_enabled: true,
            ..ControllerConfig::default()
        });
        let n = addrs.len();
        for (i, a) in addrs.into_iter().enumerate() {
            ctrl.enqueue(MemRequest::read(i as u64, a % Geometry::tiny().total_bursts()))
                .unwrap();
        }
        let mut done = 0;
        for _ in 0..2_000_000 {
            done += ctrl.tick().len();
            if ctrl.is_drained() {
                break;
            }
        }
        prop_assert!(ctrl.is_drained());
        prop_assert_eq!(done, n);
    }
}

mod sim_properties {
    use super::*;
    use flowlut::core::{FlowLutSim, SimConfig};
    use flowlut::traffic::PacketDescriptor;
    use flowlut::FlowPipeline;

    fn sim_cfg() -> SimConfig {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 2048;
        cfg.table.cam_capacity = 128;
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any packet sequence over a small key universe resolves to the
        /// set semantics of the functional table: one entry per distinct
        /// key, every packet attributed, per-flow order preserved.
        #[test]
        fn sim_matches_set_semantics(
            key_ids in prop::collection::vec(0u64..40, 1..120),
        ) {
            let mut sim = FlowLutSim::new(sim_cfg());
            let descs: Vec<PacketDescriptor> = key_ids
                .iter()
                .enumerate()
                .map(|(s, &i)| PacketDescriptor::new(
                    s as u64,
                    FlowKey::from(FiveTuple::from_index(i)),
                ))
                .collect();
            let report = sim.start_run().run(&descs).expect("fresh session");
            prop_assert_eq!(report.completed, descs.len() as u64);
            prop_assert_eq!(report.stats.drops, 0);

            let distinct: HashSet<u64> = key_ids.iter().copied().collect();
            prop_assert_eq!(sim.table().len(), distinct.len() as u64);
            prop_assert_eq!(
                report.stats.inserted_mem + report.stats.inserted_cam,
                distinct.len() as u64
            );
            // Packet conservation in the flow records.
            let packets: u64 = sim.table().records_after(None).map(|(_, r)| r.packets).sum();
            prop_assert_eq!(packets, key_ids.len() as u64);
            // Per-flow completion order == arrival order.
            prop_assert_eq!(sim.completions().len(), descs.len());
            let mut last_seq: HashMap<FlowKey, u64> = HashMap::new();
            for d in sim.completions() {
                if let Some(prev) = last_seq.insert(d.desc.key, d.desc.seq) {
                    prop_assert!(prev < d.desc.seq);
                }
            }
        }

        /// Deleting an arbitrary subset after a run leaves exactly the
        /// complement resident.
        #[test]
        fn sim_deletes_leave_complement(
            keys in prop::collection::hash_set(0u64..60, 1..40),
            delete_mask in prop::collection::vec(any::<bool>(), 60),
        ) {
            let mut sim = FlowLutSim::new(sim_cfg());
            let keys: Vec<u64> = keys.into_iter().collect();
            let descs: Vec<PacketDescriptor> = keys
                .iter()
                .enumerate()
                .map(|(s, &i)| PacketDescriptor::new(
                    s as u64,
                    FlowKey::from(FiveTuple::from_index(i)),
                ))
                .collect();
            sim.start_run().run(&descs).expect("fresh session");
            let mut kept = 0u64;
            for &i in &keys {
                if delete_mask[i as usize] {
                    let key = FlowKey::from(FiveTuple::from_index(i));
                    let fid = sim.table().peek(&key).expect("resident");
                    prop_assert!(sim.delete_flow(fid, key).is_ok());
                } else {
                    kept += 1;
                }
            }
            for _ in 0..5_000 {
                sim.tick();
            }
            prop_assert_eq!(sim.table().len(), kept);
            for &i in &keys {
                let resident = sim
                    .table()
                    .peek(&FlowKey::from(FiveTuple::from_index(i)))
                    .is_some();
                prop_assert_eq!(resident, !delete_mask[i as usize]);
            }
        }
    }
}
