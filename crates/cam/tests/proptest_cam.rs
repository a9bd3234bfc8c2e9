//! Property tests: the CAM against a reference set model.

use std::collections::HashMap;

use proptest::prelude::*;

use flowlut_cam::Cam;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Delete(u16),
    Search(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..48).prop_map(Op::Insert),
        (0u16..48).prop_map(Op::Delete),
        (0u16..48).prop_map(Op::Search),
    ]
}

/// Slots of the duplicate-key model's CAM.
const DUP_CAP: usize = 16;
/// Key universe of the duplicate-key model: small, so duplicates abound.
const DUP_KEYS: u16 = 5;

/// Every mutating CAM operation, duplicates allowed.
#[derive(Debug, Clone)]
enum DupOp {
    Insert(u16),
    Delete(u16),
    DeleteSlot(usize),
    /// Slot may be out of range or occupied (both rejected).
    RestoreAt(usize, u16),
    Clear,
}

fn dup_op_strategy() -> impl Strategy<Value = DupOp> {
    // The selector weights inserts up, so the CAM fills and duplicates
    // pile up between the rarer removals and clears.
    (0u8..14, 0..DUP_KEYS, 0..DUP_CAP + 2).prop_map(|(sel, k, slot)| match sel {
        0..=5 => DupOp::Insert(k),
        6..=7 => DupOp::Delete(k),
        8..=9 => DupOp::DeleteSlot(slot % DUP_CAP),
        10..=12 => DupOp::RestoreAt(slot, k),
        _ => DupOp::Clear,
    })
}

/// Lowest slot of the linear-scan reference holding `k`: the priority
/// encoder's answer.
fn lowest(reference: &[Option<u16>], k: u16) -> Option<usize> {
    reference.iter().position(|s| *s == Some(k))
}

proptest! {
    /// For unique-key usage (the flow table's contract) the CAM matches
    /// a map model, and slot indices remain stable until deletion.
    #[test]
    fn cam_matches_model(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut cam: Cam<u16> = Cam::new(48);
        let mut model: HashMap<u16, usize> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    if model.contains_key(&k) {
                        continue; // caller contract: search before insert
                    }
                    let slot = cam.insert(k).expect("48-key universe fits");
                    model.insert(k, slot);
                }
                Op::Delete(k) => {
                    let cam_slot = cam.delete(&k);
                    let model_slot = model.remove(&k);
                    prop_assert_eq!(cam_slot, model_slot);
                }
                Op::Search(k) => {
                    prop_assert_eq!(cam.peek(&k), model.get(&k).copied());
                }
            }
            prop_assert_eq!(cam.len(), model.len());
        }
        // The allocator never double-books: all occupied slots distinct.
        let mut seen = std::collections::HashSet::new();
        for (slot, _) in cam.iter() {
            prop_assert!(seen.insert(slot));
        }
    }

    /// With duplicate keys allowed, every operation keeps the CAM in step
    /// with a linear-scan slot array: same slots, same returns, and
    /// `search`/`peek` give the lowest slot holding each key.
    #[test]
    fn cam_matches_linear_scan_with_duplicates(
        ops in prop::collection::vec(dup_op_strategy(), 1..200),
    ) {
        let mut cam: Cam<u16> = Cam::new(DUP_CAP);
        let mut reference: Vec<Option<u16>> = vec![None; DUP_CAP];
        for op in ops {
            match op {
                DupOp::Insert(k) => {
                    let free = reference.iter().position(Option::is_none);
                    match cam.insert(k) {
                        Ok(slot) => {
                            prop_assert_eq!(Some(slot), free);
                            reference[slot] = Some(k);
                        }
                        Err(_) => prop_assert_eq!(free, None),
                    }
                }
                DupOp::Delete(k) => {
                    let want = lowest(&reference, k);
                    if let Some(slot) = want {
                        reference[slot] = None;
                    }
                    prop_assert_eq!(cam.delete(&k), want);
                }
                DupOp::DeleteSlot(slot) => {
                    prop_assert_eq!(cam.delete_slot(slot), reference[slot].take());
                }
                DupOp::RestoreAt(slot, k) => {
                    let ok = reference.get(slot).is_some_and(Option::is_none);
                    prop_assert_eq!(cam.restore_at(slot, k).is_ok(), ok);
                    if ok {
                        reference[slot] = Some(k);
                    }
                }
                DupOp::Clear => {
                    cam.clear();
                    reference.fill(None);
                }
            }
            prop_assert_eq!(cam.len(), reference.iter().flatten().count());
            for k in 0..DUP_KEYS {
                prop_assert_eq!(cam.peek(&k), lowest(&reference, k), "peek {}", k);
                prop_assert_eq!(cam.peek(&k), lowest(&reference, k), "search {}", k);
            }
            let occupied: Vec<(usize, u16)> = cam.iter().map(|(s, k)| (s, *k)).collect();
            let want: Vec<(usize, u16)> = reference
                .iter()
                .enumerate()
                .filter_map(|(s, k)| k.map(|k| (s, k)))
                .collect();
            prop_assert_eq!(occupied, want);
        }
    }

    /// Lowest-free-slot allocation: after any interleaving, a fresh
    /// insert takes the smallest free index.
    #[test]
    fn lowest_free_slot(
        inserts in prop::collection::vec(0u16..32, 1..32),
        delete_idx in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut cam: Cam<u16> = Cam::new(64);
        let mut resident: Vec<u16> = Vec::new();
        for k in inserts {
            if cam.peek(&k).is_none() {
                cam.insert(k).unwrap();
                resident.push(k);
            }
        }
        for idx in delete_idx {
            if resident.is_empty() {
                break;
            }
            let k = resident.remove(idx.index(resident.len()));
            cam.delete(&k);
        }
        // Compute the expected lowest free slot.
        let occupied: std::collections::HashSet<usize> =
            cam.iter().map(|(s, _)| s).collect();
        let expected = (0..cam.capacity()).find(|s| !occupied.contains(s)).unwrap();
        let got = cam.insert(999).unwrap();
        prop_assert_eq!(got, expected);
    }
}
