//! Hostile checkpoint bytes against `FlowLutSim::restore`: every
//! truncation, inflated values over every count-sized window, and random
//! bit flips of a small valid checkpoint.
//!
//! Each input must come back as an error or as a simulator whose table
//! and flow records agree (as many records as placements, each record's
//! key at its location) — never as a panic. A restore also may not ask
//! the allocator for more than restoring an empty checkpoint costs plus
//! a bounded multiple of the blob's length: a count read from the blob
//! must never size a reservation by itself. The prototype table's 8 M
//! entries make such a reservation hundreds of megabytes, so the bound
//! would show it.

use std::alloc::System;
use std::collections::HashMap;

use proptest::prelude::*;
use stats_alloc::StatsAlloc;

use flowlut::core::{CheckpointError, FlowLutSim, Location, SimConfig};
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};

#[global_allocator]
static ALLOC: StatsAlloc<System> = StatsAlloc::new(System);

/// Heap bytes a restore may request per blob byte beyond the cost of
/// restoring an empty checkpoint. A placement takes at least 7 blob
/// bytes; the table slot, bucket map entry, DRAM burst and record it
/// becomes cost a few hundred heap bytes, growth included.
const HEAP_BYTES_PER_BLOB_BYTE: u64 = 64;

/// Byte offset of the clock in a simulator checkpoint, after the magic,
/// version and configuration digest.
const CLOCK_AT: usize = 16;

/// Clock bits the random flips may touch. Restore idle-ticks both memory
/// models up to the checkpoint clock, so a flipped high clock bit costs
/// hours of work rather than a fault or an allocation (ROADMAP open
/// item 6); flips of the low bits keep each restore cheap.
const CHEAP_CLOCK_BITS: usize = 10;

fn config() -> SimConfig {
    SimConfig::default()
}

fn key(i: u64) -> FlowKey {
    FlowKey::from(FiveTuple::from_index(i))
}

/// A checkpoint holding flows in both memories and in the CAM: six keys
/// forced onto one bucket pair fill it and spill two to the CAM.
fn valid_blob() -> Vec<u8> {
    let mut sim = FlowLutSim::new(config());
    let descs: Vec<PacketDescriptor> = (0..14)
        .map(|i| {
            let d = PacketDescriptor::new(i, key(i));
            if i < 6 {
                d.with_hash_override(7, 7)
            } else {
                d
            }
        })
        .collect();
    sim.run(&descs);
    sim.quiesce();
    let occupancy = sim.table().occupancy();
    assert!(occupancy.mem_a > 0 && occupancy.mem_b > 0 && occupancy.cam > 0);
    let blob = sim.checkpoint().expect("a quiesced simulator checkpoints");
    assert_eq!(blob[CLOCK_AT..CLOCK_AT + 8], sim.now_sys().to_le_bytes());
    blob
}

/// Heap bytes requested by restoring a checkpoint of an empty simulator.
fn empty_restore_bytes() -> u64 {
    let blob = FlowLutSim::new(config())
        .checkpoint()
        .expect("an idle simulator checkpoints");
    requested_by(|| FlowLutSim::restore(config(), &blob)).1
}

/// Runs `f`, returning its result and the heap bytes it requested.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC.thread_allocated_bytes();
    let out = f();
    (out, ALLOC.thread_allocated_bytes() - before)
}

/// Restores `blob` and checks the contract in the module docs.
fn restore_checked(blob: &[u8], empty_cost: u64) -> Result<(), CheckpointError> {
    let (restored, requested) = requested_by(|| FlowLutSim::restore(config(), blob));
    let allowed = empty_cost + HEAP_BYTES_PER_BLOB_BYTE * blob.len() as u64;
    assert!(
        requested <= allowed,
        "restoring {} bytes requested {requested} heap bytes (bound {allowed})",
        blob.len()
    );
    restored.map(|sim| assert_consistent(&sim))
}

fn assert_consistent(sim: &FlowLutSim) {
    let k = sim.config().table.entries_per_bucket;
    assert_eq!(sim.table().len(), sim.flow_state().len() as u64);
    let placed: HashMap<Location, FlowKey> =
        sim.table().iter().map(|(key, loc)| (loc, key)).collect();
    for (id, record) in sim.flow_state().iter() {
        assert_eq!(
            placed.get(&id.decode(k)),
            Some(&record.key),
            "record {id} does not sit at its placement"
        );
    }
}

#[test]
fn the_valid_checkpoint_restores_within_the_bound() {
    let blob = valid_blob();
    restore_checked(&blob, empty_restore_bytes()).expect("the valid blob restores");
}

#[test]
fn every_truncation_is_rejected() {
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    for len in 0..blob.len() {
        assert!(
            restore_checked(&blob[..len], empty_cost).is_err(),
            "a {len}-byte prefix restored"
        );
    }
}

#[test]
fn inflated_values_in_every_window_are_contained() {
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    for at in 0..=blob.len() - 8 {
        // A large clock is slow to restore, not wrong: the clock has its
        // own test below, and the random flips cover its low bits.
        if (CLOCK_AT.saturating_sub(7)..CLOCK_AT + 8).contains(&at) {
            continue;
        }
        for value in [u64::MAX, 1 << 40, 1 << 20, blob.len() as u64] {
            let mut hostile = blob.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let _ = restore_checked(&hostile, empty_cost);
        }
    }
}

#[test]
fn a_clock_that_overflows_the_memory_clock_is_rejected() {
    let mut blob = valid_blob();
    blob[CLOCK_AT..CLOCK_AT + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(
        restore_checked(&blob, empty_restore_bytes()).err(),
        Some(CheckpointError::Corrupt("clock overflows the memory clock"))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One to four random bit flips anywhere but the clock's high bits.
    #[test]
    fn random_bit_flips_are_contained(flips in prop::collection::vec(any::<u64>(), 1..5)) {
        let mut blob = valid_blob();
        let bits = blob.len() * 8;
        let clock_bits = CLOCK_AT * 8 + CHEAP_CLOCK_BITS..(CLOCK_AT + 8) * 8;
        for flip in flips {
            let bit = (flip % bits as u64) as usize;
            if !clock_bits.contains(&bit) {
                blob[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let _ = restore_checked(&blob, empty_restore_bytes());
    }
}
