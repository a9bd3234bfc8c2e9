//! Hostile checkpoint bytes against `FlowLutSim::restore` and
//! `ShardedFlowLut::restore`: every truncation, inflated values over
//! every count-sized window, and random bit flips of a small valid
//! checkpoint of each, and every single-bit flip of a flow's location
//! or key, which the checkpoint's check word covers.
//!
//! Each input must come back as an error or as simulators whose tables
//! and flow records agree (as many records as flows, each record's key
//! at its location), quiescent, so that DRAM holds each bucket as the
//! table does, and that take one descriptor of each restored flow
//! without fault — never as a panic. A flipped location or key bit
//! must come back as an error. A restore also may not ask
//! the allocator for more than restoring an empty checkpoint costs plus
//! a bounded multiple of the blob's length: a count read from the blob
//! must never size a reservation by itself. The prototype table's 8 M
//! entries make such a reservation hundreds of megabytes, so the bound
//! would show it.
//!
//! The restored clock, statistics and flow records' packet and byte
//! counts are bounded too: above 2^62 restore refuses them, and at or
//! below it the restored simulator counts on through a short stream
//! without overflowing. A flow record first seen after it was last seen,
//! or stamped after the clock, is refused; one at those bounds counts
//! on. A restore costs the same at any clock, so every input may set
//! any clock bit.
//!
//! Valid checkpoints of random tables restore to simulators that pass
//! the same checks and checkpoint to the same bytes again.
//!
//! The engine restores its shards on several threads, so the bound
//! counts the bytes every thread asks for. Every test here holds one
//! lock, so no other test allocates while one measures.

use std::alloc::System;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use stats_alloc::StatsAlloc;

use flowlut::core::checkpoint::MAX_COUNTER;
use flowlut::core::codec;
use flowlut::core::{CheckpointError, FlowLutSim, FlowPipeline, Location, SimConfig, TableConfig};
use flowlut::ddr3::MemorySpec;
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};

#[global_allocator]
static ALLOC: StatsAlloc<System> = StatsAlloc::new(System);

/// Held by every test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the lock that runs this file's tests one at a time; a test
/// that failed holding it leaves it usable.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap bytes a restore may request per blob byte beyond the cost of
/// restoring an empty checkpoint. A flow in a memory takes at least 48
/// blob bytes (a CAM flow's slot comes with the empty table), and
/// restore reserves each of the two memories at most one line per 48
/// bytes left. A prototype line, its two 16-byte slots, their 80 bytes
/// of counters and a line-index entry, costs under 140 heap bytes, and
/// at most twice that when the flow lands past the reservation and the
/// store grows: under 12 heap bytes per blob byte in all.
const HEAP_BYTES_PER_BLOB_BYTE: u64 = 64;

/// Byte offset of the clock in a simulator checkpoint, after the magic,
/// version and configuration digest.
const CLOCK_AT: usize = 16;

fn config() -> SimConfig {
    SimConfig::default()
}

fn key(i: u64) -> FlowKey {
    FlowKey::from(FiveTuple::from_index(i))
}

/// Keys `0..14`; the first six are forced onto one bucket pair, which
/// they fill, spilling two to the CAM.
fn descs() -> Vec<PacketDescriptor> {
    (0..14)
        .map(|i| {
            let d = PacketDescriptor::new(i, key(i));
            if i < 6 {
                d.with_hash_override(7, 7)
            } else {
                d
            }
        })
        .collect()
}

/// A checkpoint holding flows in both memories and in the CAM.
fn valid_blob() -> Vec<u8> {
    let mut sim = FlowLutSim::new(config());
    sim.start_run().run(&descs()).expect("fresh session");
    sim.quiesce().unwrap();
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
    requested_by(|| FlowLutSim::restore(config(), &blob, |_| true)).1
}

/// Runs `f`, returning its result and the heap bytes requested on any
/// thread meanwhile: those of `f` and of the threads it starts, when the
/// caller holds [`serial`].
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC.allocated_bytes();
    let out = f();
    (out, ALLOC.allocated_bytes() - before)
}

/// Restores `blob` and checks the contract in the module docs.
fn restore_checked(blob: &[u8], empty_cost: u64) -> Result<(), CheckpointError> {
    let (restored, requested) = requested_by(|| FlowLutSim::restore(config(), blob, |_| true));
    let allowed = empty_cost + HEAP_BYTES_PER_BLOB_BYTE * blob.len() as u64;
    assert!(
        requested <= allowed,
        "restoring {} bytes requested {requested} heap bytes (bound {allowed})",
        blob.len()
    );
    restored.map(|mut sim| {
        assert_consistent(&sim);
        let descs = one_of_each(&sim);
        let report = sim.start_run().run(&descs).expect("fresh session");
        assert_eq!(report.completed, descs.len() as u64);
    })
}

/// One descriptor of each flow `sim` holds, its hashes naming the bucket
/// the flow sits in, so a lookup reaches the flow's restored record.
fn one_of_each(sim: &FlowLutSim) -> Vec<PacketDescriptor> {
    let table = sim.table().config();
    sim.table()
        .records_after(None)
        .enumerate()
        .map(|(i, (id, record))| {
            let bucket = match id.decode(table.entries_per_bucket) {
                Location::Mem { bucket, .. } => bucket,
                Location::Cam(_) => 0,
            };
            let h = (u64::from(bucket) << 32).div_ceil(u64::from(table.buckets_per_mem)) as u32;
            PacketDescriptor::new(i as u64, record.key).with_hash_override(h, h)
        })
        .collect()
}

fn assert_consistent(sim: &FlowLutSim) {
    let table = sim.table();
    let k = table.config().entries_per_bucket;
    let slot_bytes = table.config().entry_slot_bytes;
    assert_eq!(table.records_after(None).count() as u64, table.len());
    for (id, record) in table.records_after(None) {
        let at_placement = match id.decode(k) {
            Location::Mem { path, bucket, slot } => {
                table
                    .bucket_bytes(path, bucket)
                    .and_then(|bytes| bytes.chunks_exact(slot_bytes).nth(usize::from(slot)))
                    .and_then(codec::read_slot)
                    == Some(record.key)
            }
            Location::Cam(_) => table.cam_peek(&record.key) == Some(id),
        };
        assert!(at_placement, "record {id} does not sit at its placement");
        assert_eq!(table.record(id), Some(record));
    }
    assert!(sim.is_quiescent(), "a restored simulator holds a bucket");
}

/// Byte offset of the 24 statistics words in a simulator checkpoint,
/// after the clock and the load-balancer state.
const STATS_AT: usize = 28;
const STATS: usize = 24;
/// The statistics restore checks against each other: offered and
/// completed must be equal.
const OFFERED_AT: usize = STATS_AT;
const COMPLETED_AT: usize = STATS_AT + 2 * 8;

/// Every counter window of a simulator checkpoint: the clock, the
/// statistics and each flow record's packets and bytes.
fn counter_windows(blob: &[u8]) -> Vec<usize> {
    let stats = (0..STATS).map(|i| STATS_AT + 8 * i);
    let packets_and_bytes = flows(blob)
        .into_iter()
        .flat_map(|f| [f.end - 16, f.end - 8]);
    [CLOCK_AT]
        .into_iter()
        .chain(stats)
        .chain(packets_and_bytes)
        .collect()
}

/// The five counter windows of each flow of a simulator checkpoint:
/// first and last seen, last touch, packets and bytes.
fn record_windows(blob: &[u8]) -> Vec<usize> {
    flows(blob)
        .into_iter()
        .flat_map(|f| (0..5).map(move |i| f.end - 40 + 8 * i))
        .collect()
}

#[test]
fn the_valid_checkpoint_restores_within_the_bound() {
    let _serial = serial();
    let blob = valid_blob();
    restore_checked(&blob, empty_restore_bytes()).expect("the valid blob restores");
}

#[test]
fn every_truncation_is_rejected() {
    let _serial = serial();
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    for len in 0..blob.len() {
        assert!(
            restore_checked(&blob[..len], empty_cost).is_err(),
            "a {len}-byte prefix restored"
        );
    }
}

/// Large values over every window, and in each flow record's counter
/// windows, the values either side of every bound restore checks a
/// record against: the clock in cycles and in ns, and 2^62.
#[test]
fn inflated_values_in_every_window_are_contained() {
    let _serial = serial();
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    let now_sys = u64::from_le_bytes(blob[CLOCK_AT..CLOCK_AT + 8].try_into().unwrap());
    let now_ns = (now_sys as f64 * config().sys_period_ns()) as u64;
    let large = [u64::MAX, 1 << 40, 1 << 20, blob.len() as u64];
    let edges = [now_sys, now_ns, MAX_COUNTER].map(|v| [v, v + 1]);
    let inputs = (0..=blob.len() - 8)
        .flat_map(|at| large.map(|value| (at, value)))
        .chain(
            record_windows(&blob)
                .into_iter()
                .flat_map(|at| edges.as_flattened().iter().map(move |&value| (at, value))),
        );
    for (at, value) in inputs {
        let mut hostile = blob.clone();
        hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let _ = restore_checked(&hostile, empty_cost);
    }
}

/// `blob` with the key of the flow at `at` widened by seven bytes: a
/// 13-byte key becomes a 20-byte one, too wide for the prototype's
/// 16-byte slots, and is refused before restore reads the check word.
fn with_widened_key(blob: &[u8], at: usize) -> Vec<u8> {
    let key_at = key_at(blob, at);
    let key = &blob[key_at + 1..][..usize::from(blob[key_at])];
    with_key(blob, at, &[key, &[0xEE; 7]].concat())
}

#[test]
fn a_key_wider_than_a_slot_is_rejected() {
    let _serial = serial();
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    // Mem1, Mem2 and CAM flows alike.
    for flow in flows(&blob) {
        let hostile = with_widened_key(&blob, flow.start);
        assert_eq!(
            restore_checked(&hostile, empty_cost).err(),
            Some(CheckpointError::Corrupt("flow key does not fit a slot")),
            "the flow at {}",
            flow.start
        );
    }
}

/// Byte offset of the flow count in a simulator checkpoint, after the
/// statistics; each memory's flow count follows it, then the flows.
const FLOWS_AT: usize = STATS_AT + STATS * 8;

/// Where each flow of a simulator checkpoint lies: a location (a tag,
/// then a bucket and a slot, or a CAM slot), a key (its length, then its
/// bytes) and five counters.
fn flows(blob: &[u8]) -> Vec<Range<usize>> {
    let count = u64::from_le_bytes(blob[FLOWS_AT..][..8].try_into().unwrap());
    let mut at = FLOWS_AT + 3 * 8;
    (0..count)
        .map(|_| {
            let key_at = key_at(blob, at);
            let end = key_at + 1 + usize::from(blob[key_at]) + 40;
            let flow = at..end;
            at = end;
            flow
        })
        .collect()
}

/// Where the key of the flow at `at` starts.
fn key_at(blob: &[u8], at: usize) -> usize {
    const CAM_TAG: u8 = 2;
    at + if blob[at] == CAM_TAG { 5 } else { 6 }
}

/// `blob` with the key of the flow at `at` replaced by `key`.
fn with_key(blob: &[u8], at: usize, key: &[u8]) -> Vec<u8> {
    let key_at = key_at(blob, at);
    let mut out = blob[..key_at].to_vec();
    out.push(key.len() as u8);
    out.extend_from_slice(key);
    out.extend_from_slice(&blob[key_at + 1 + usize::from(blob[key_at])..]);
    out
}

/// Restore checks each flow in stream order: a flow's error comes
/// before any later flow's, and a key no flow key can hold (over 64
/// bytes, or none) is "too long", apart from one that is a flow key but
/// no slot holds.
#[test]
fn an_earlier_flows_error_comes_first() {
    let _serial = serial();
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    let flows = flows(&blob);
    assert_eq!(flows.len(), 14);
    // A later Mem2 flow names a bucket out of range ...
    let later = flows
        .iter()
        .rev()
        .find(|f| blob[f.start] == 1)
        .expect("a Mem2 flow");
    let mut hostile = blob.clone();
    let buckets = config().table.buckets_per_mem;
    hostile[later.start + 1..later.start + 5].copy_from_slice(&buckets.to_le_bytes());
    assert_eq!(
        restore_checked(&hostile, empty_cost).err(),
        Some(CheckpointError::Corrupt("bucket index out of range"))
    );
    // ... and flow 0's key is too wide for a slot, or for any key.
    for (width, error) in [
        (16, "flow key does not fit a slot"),
        (64, "flow key does not fit a slot"),
        (65, "flow key too long"),
        (0, "flow key too long"),
    ] {
        let hostile = with_key(&hostile, flows[0].start, &vec![0xEE; width]);
        assert_eq!(
            restore_checked(&hostile, empty_cost).err(),
            Some(CheckpointError::Corrupt(error)),
            "{width}-byte key"
        );
    }
}

/// The check word covers each flow's location and key, so flipping any
/// one of their bits is refused, never restored.
#[test]
fn every_flipped_location_or_key_bit_is_refused() {
    let _serial = serial();
    let blob = valid_blob();
    let empty_cost = empty_restore_bytes();
    for flow in flows(&blob) {
        for bit in flow.start * 8..(flow.end - 40) * 8 {
            let mut hostile = blob.clone();
            flip_bits(&mut hostile, &[bit as u64]);
            assert!(
                restore_checked(&hostile, empty_cost).is_err(),
                "bit {} of the flow at {} restored",
                bit - flow.start * 8,
                flow.start
            );
        }
    }
}

/// A clock past 2^62 is refused before restore builds anything from it.
/// The memory models restore fresh, with no clock of their own, so a
/// clock at the bound — whose product with the clock ratio overflows a
/// memory clock — restores and runs.
#[test]
fn a_clock_that_overflows_the_memory_clock_is_rejected() {
    let _serial = serial();
    let empty_cost = empty_restore_bytes();
    let ratio = u64::from(config().memory.ticks_per_sys());
    assert_eq!(MAX_COUNTER.checked_mul(ratio), None);
    for (clock, refused) in [
        (u64::MAX, true),
        (MAX_COUNTER + 1, true),
        (MAX_COUNTER, false),
    ] {
        let mut blob = valid_blob();
        blob[CLOCK_AT..CLOCK_AT + 8].copy_from_slice(&clock.to_le_bytes());
        let expected = refused.then_some(CheckpointError::Corrupt("counter above 2^62"));
        assert_eq!(
            restore_checked(&blob, empty_cost).err(),
            expected,
            "clock {clock}"
        );
    }
}

/// Flips the bits `flips` pick (modulo the blob's length).
fn flip_bits(blob: &mut [u8], flips: &[u64]) {
    let bits = blob.len() * 8;
    for &flip in flips {
        let bit = (flip % bits as u64) as usize;
        blob[bit / 8] ^= 1 << (bit % 8);
    }
}

// --- The sharded engine ---------------------------------------------

fn engine_config() -> EngineConfig {
    EngineConfig::prototype(2)
}

/// Byte offset of the engine clock, after the magic, version, shard
/// count and router seed; the carried statistics follow the splitter
/// counters, and the shard blobs follow their 24 statistics, each
/// prefixed by its length.
const ENGINE_CLOCK_AT: usize = 24;
const ENGINE_STATS_AT: usize = 48;
const SHARD_BLOBS_AT: usize = ENGINE_STATS_AT + STATS * 8;

/// A two-shard checkpoint whose shards each hold flows in both
/// memories and in the CAM.
fn valid_engine_blob() -> Vec<u8> {
    let mut engine = ShardedFlowLut::new(engine_config());
    // Six keys per shard forced onto one bucket pair, and a few more.
    let mut per_shard = [0; 2];
    let mut descs = Vec::new();
    for i in 0..64 {
        let shard = engine.router().route(&key(i));
        let d = PacketDescriptor::new(i, key(i));
        per_shard[shard] += 1;
        descs.push(match per_shard[shard] {
            1..=6 => d.with_hash_override(7, 7),
            7..=9 => d,
            _ => continue,
        });
    }
    engine.start_run().run(&descs).expect("fresh session");
    engine.quiesce().unwrap();
    for i in 0..2 {
        let occupancy = engine.shard(i).table().occupancy();
        assert!(occupancy.mem_a > 0 && occupancy.mem_b > 0 && occupancy.cam > 0);
    }
    let blob = engine.checkpoint().expect("a quiesced engine checkpoints");
    assert_eq!(blob[ENGINE_CLOCK_AT..][..8], engine.now_sys().to_le_bytes());
    let [first, second] = &shard_blobs(&blob)[..] else {
        panic!("two shard blobs");
    };
    for at in [first.start + CLOCK_AT, second.start + CLOCK_AT] {
        assert_eq!(blob[at..at + 8], engine.now_sys().to_le_bytes());
    }
    blob
}

/// Where each shard blob of an engine checkpoint lies, in shard order:
/// after the carried statistics, each after its length.
fn shard_blobs(blob: &[u8]) -> Vec<Range<usize>> {
    let mut blobs = Vec::new();
    let mut at = SHARD_BLOBS_AT;
    while at < blob.len() {
        let len = u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
        blobs.push(at + 8..at + 8 + len);
        at += 8 + len;
    }
    assert_eq!(at, blob.len());
    blobs
}

/// Heap bytes requested by restoring a checkpoint of an empty engine.
fn empty_engine_restore_bytes() -> u64 {
    let blob = ShardedFlowLut::new(engine_config())
        .checkpoint()
        .expect("an idle engine checkpoints");
    requested_by(|| ShardedFlowLut::restore(engine_config(), &blob)).1
}

/// Restores `blob` as an engine and checks the contract in the module
/// docs for each shard. The descriptors go through the engine, so each
/// reaches the shard its key routes to.
fn restore_engine_checked(blob: &[u8], empty_cost: u64) -> Result<(), CheckpointError> {
    let (restored, requested) = requested_by(|| ShardedFlowLut::restore(engine_config(), blob));
    let allowed = empty_cost + HEAP_BYTES_PER_BLOB_BYTE * blob.len() as u64;
    assert!(
        requested <= allowed,
        "restoring {} bytes requested {requested} heap bytes (bound {allowed})",
        blob.len()
    );
    restored.map(|mut engine| {
        let mut descs = Vec::new();
        for i in 0..engine.shard_count() {
            assert_consistent(&engine.shard(i));
            descs.extend(one_of_each(&engine.shard(i)));
        }
        let report = engine.start_run().run(&descs).expect("fresh session");
        assert_eq!(report.completed, descs.len() as u64);
    })
}

#[test]
fn the_valid_engine_checkpoint_restores_within_the_bound() {
    let _serial = serial();
    let blob = valid_engine_blob();
    restore_engine_checked(&blob, empty_engine_restore_bytes())
        .expect("the valid engine blob restores");
    // The bound sees the shards' restores on whatever threads they run:
    // the engine asks for at least what its shards ask for alone.
    let engine = requested_by(|| ShardedFlowLut::restore(engine_config(), &blob)).1;
    let alone: u64 = shard_blobs(&blob)
        .into_iter()
        .map(|shard| requested_by(|| FlowLutSim::restore(config(), &blob[shard], |_| true)).1)
        .sum();
    assert!(
        engine >= alone,
        "the engine restore requested {engine} heap bytes, its shards alone {alone}"
    );
}

#[test]
fn every_engine_truncation_is_rejected() {
    let _serial = serial();
    let blob = valid_engine_blob();
    let empty_cost = empty_engine_restore_bytes();
    for len in 0..blob.len() {
        assert!(
            restore_engine_checked(&blob[..len], empty_cost).is_err(),
            "a {len}-byte prefix restored"
        );
    }
}

#[test]
fn inflated_values_in_every_engine_window_are_contained() {
    let _serial = serial();
    let blob = valid_engine_blob();
    let empty_cost = empty_engine_restore_bytes();
    for at in 0..=blob.len() - 8 {
        for value in [u64::MAX, 1 << 40, 1 << 20, blob.len() as u64] {
            let mut hostile = blob.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let _ = restore_engine_checked(&hostile, empty_cost);
        }
    }
}

/// An engine restore checks every shard blob's header on the calling
/// thread and restores no shard from the first that fails it on: a blob
/// whose first shard has a flipped magic costs less than building one
/// empty shard.
#[test]
fn a_shard_that_fails_its_header_builds_no_shard() {
    let _serial = serial();
    let mut blob = valid_engine_blob();
    let first = shard_blobs(&blob)[0].start;
    blob[first] ^= 0xFF;
    let (restored, requested) = requested_by(|| ShardedFlowLut::restore(engine_config(), &blob));
    assert_eq!(restored.err(), Some(CheckpointError::BadMagic));
    let one_shard = requested_by(|| FlowLutSim::new(engine_config().shard)).1;
    assert!(
        requested < one_shard,
        "the restore requested {requested} heap bytes, one empty shard {one_shard}"
    );
}

/// The engine restores its shards at once, yet answers as a restore
/// that reads and restores them one by one: the first shard's error in
/// shard order, whatever a later shard holds, then a shard blob that
/// does not fit the checkpoint, then trailing bytes.
#[test]
fn shard_errors_come_back_in_shard_order() {
    let _serial = serial();
    let cfg = EngineConfig {
        shards: 3,
        ..EngineConfig::test_small()
    };
    let mut engine = ShardedFlowLut::new(cfg.clone());
    engine.start_run().run(&descs()).expect("fresh session");
    engine.quiesce().unwrap();
    let blob = engine.checkpoint().expect("a quiesced engine checkpoints");
    let shards = shard_blobs(&blob);
    // Each case breaks shards (`Magic`, `Clock`) and the blob's end
    // (`Cut` drops the last shard's last byte, `Pad` adds one past it).
    enum Edit {
        Magic(usize),
        Clock(usize),
        Cut,
        Pad,
    }
    use Edit::*;
    let diverged = CheckpointError::Corrupt("shard clock diverged from engine");
    let cases = [
        (vec![Clock(1)], diverged),
        (vec![Magic(1), Clock(2)], CheckpointError::BadMagic),
        (vec![Clock(1), Magic(2)], diverged),
        (vec![Magic(0), Cut], CheckpointError::BadMagic),
        (vec![Magic(2), Pad], CheckpointError::BadMagic),
        (vec![Cut], CheckpointError::Truncated),
    ];
    for (i, (edits, want)) in cases.into_iter().enumerate() {
        let mut hostile = blob.clone();
        for edit in edits {
            match edit {
                Magic(s) => hostile[shards[s].start] ^= 0xFF,
                Clock(s) => hostile[shards[s].start + CLOCK_AT] ^= 1,
                Cut => drop(hostile.pop()),
                Pad => hostile.push(0),
            }
        }
        let restored = ShardedFlowLut::restore(cfg.clone(), &hostile);
        assert_eq!(restored.err(), Some(want), "case {i}");
    }
}

/// A checkpoint of a `shards`-shard test engine whose offered and
/// completed statistics are `carried` in the carried statistics and
/// `per_shard` in every shard's blob.
fn engine_blob_with_offered(shards: usize, carried: u64, per_shard: u64) -> Vec<u8> {
    let cfg = EngineConfig {
        shards,
        ..EngineConfig::test_small()
    };
    let mut engine = ShardedFlowLut::new(cfg);
    engine.start_run().run(&descs()).expect("fresh session");
    engine.quiesce().unwrap();
    let mut blob = engine.checkpoint().expect("a quiesced engine checkpoints");
    let set = |blob: &mut [u8], stats_at: usize, value: u64| {
        for at in [stats_at, stats_at + COMPLETED_AT - OFFERED_AT] {
            blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
    };
    set(&mut blob, ENGINE_STATS_AT, carried);
    let shard_blobs = shard_blobs(&blob);
    assert_eq!(shard_blobs.len(), shards);
    for shard in shard_blobs {
        set(&mut blob, shard.start + OFFERED_AT, per_shard);
    }
    blob
}

/// Each statistic of an engine, summed over its carried counters and
/// every shard's, obeys one simulator's bound: above 2^62 the restore
/// is refused (it used to overflow when the engine merged them), at it
/// the engine restores and reports its merged statistics.
#[test]
fn engine_statistics_are_bounded_at_2_62_summed() {
    let _serial = serial();
    for shards in [3, 4] {
        let cfg = EngineConfig {
            shards,
            ..EngineConfig::test_small()
        };
        let each = engine_blob_with_offered(shards, MAX_COUNTER, MAX_COUNTER);
        assert_eq!(
            ShardedFlowLut::restore(cfg.clone(), &each).err(),
            Some(CheckpointError::Corrupt("engine statistics sum above 2^62")),
            "{shards} shards"
        );
        let share = MAX_COUNTER / 8;
        let edge = MAX_COUNTER - share * shards as u64;
        let at_bound = engine_blob_with_offered(shards, edge, share);
        let engine = ShardedFlowLut::restore(cfg, &at_bound).expect("a sum at the bound restores");
        let stats = FlowPipeline::poll(&engine).stats;
        assert_eq!((stats.offered, stats.completed), (MAX_COUNTER, MAX_COUNTER));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One to four random bit flips anywhere.
    #[test]
    fn random_bit_flips_are_contained(flips in prop::collection::vec(any::<u64>(), 1..5)) {
        let _serial = serial();
        let mut blob = valid_blob();
        flip_bits(&mut blob, &flips);
        let _ = restore_checked(&blob, empty_restore_bytes());
    }

    /// One to four random bit flips of an engine checkpoint, anywhere.
    #[test]
    fn random_engine_bit_flips_are_contained(flips in prop::collection::vec(any::<u64>(), 1..5)) {
        let _serial = serial();
        let mut blob = valid_engine_blob();
        flip_bits(&mut blob, &flips);
        let _ = restore_engine_checked(&blob, empty_engine_restore_bytes());
    }

    /// Each counter a little above 2^62 is refused; at or a little below
    /// it, the restored simulator hits its restored keys, inserts new
    /// ones and drains. Offered and completed move together, as restore
    /// requires them equal.
    #[test]
    fn counters_are_bounded_at_2_62(
        window in any::<prop::sample::Index>(),
        delta in 0..4u64,
        above in any::<bool>(),
    ) {
        let _serial = serial();
        let mut blob = valid_blob();
        let windows = counter_windows(&blob);
        let at = windows[window.index(windows.len())];
        let value = if above { MAX_COUNTER + 1 + delta } else { MAX_COUNTER - delta };
        let windows = if at == OFFERED_AT || at == COMPLETED_AT {
            vec![OFFERED_AT, COMPLETED_AT]
        } else {
            vec![at]
        };
        for at in windows {
            blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let restored = FlowLutSim::restore(config(), &blob, |_| true);
        if above {
            prop_assert_eq!(restored.err(), Some(CheckpointError::Corrupt("counter above 2^62")));
        } else {
            let mut sim = restored.expect("counters at or below the bound restore");
            let fresh = (100..110).map(|i| PacketDescriptor::new(i, key(i)));
            let stream: Vec<PacketDescriptor> = descs().into_iter().chain(fresh).collect();
            let report = sim.start_run().run(&stream).expect("fresh session");
            prop_assert_eq!(report.completed, stream.len() as u64);
            prop_assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 10);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random table checkpoints, restores and checkpoints again to the
    /// same bytes, and the restored simulator passes the checks above.
    /// Flows arrive in rounds, each followed by deletions of random
    /// resident flows, so later rounds reuse the lines deletions free.
    /// Every other key is forced onto one of two bucket pairs, which fill
    /// Mem1 and Mem2 and spill into the CAM. The tables have the
    /// prototype's 16-byte slots and 13-byte keys, or 40-byte slots and
    /// 37-byte keys.
    #[test]
    fn random_tables_round_trip_byte_for_byte(
        wide in any::<bool>(),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(0..120u64, 1..60),
                prop::collection::vec(any::<prop::sample::Index>(), 0..24),
            ),
            1..4,
        ),
    ) {
        let _serial = serial();
        let cfg = round_trip_config(wide);
        let mut sim = FlowLutSim::new(cfg.clone());
        let mut seq = 0;
        for (flows, deletions) in rounds {
            let descs: Vec<PacketDescriptor> = flows
                .into_iter()
                .map(|i| {
                    seq += 1;
                    let d = PacketDescriptor::new(seq, round_trip_key(i, wide));
                    if i % 2 == 1 {
                        let pair = (i as u32 / 2) % 2 + 1;
                        d.with_hash_override(pair << 24, (pair + 5) << 24)
                    } else {
                        d
                    }
                })
                .collect();
            sim.start_run().run(&descs).expect("fresh session");
            let resident: Vec<_> = sim.table().records_after(None).collect();
            for d in deletions {
                let (fid, record) = resident[d.index(resident.len())];
                sim.delete_flow(fid, record.key).expect("few deletions queue");
            }
            sim.quiesce().unwrap();
        }
        let blob = sim.checkpoint().expect("a quiesced simulator checkpoints");
        let mut restored = FlowLutSim::restore(cfg, &blob, |_| true).expect("a checkpoint restores");
        assert_consistent(&restored);
        prop_assert_eq!(restored.table().len(), sim.table().len());
        let again = restored.checkpoint().expect("a restored simulator checkpoints");
        prop_assert!(again == blob, "the second checkpoint differs from the first");
    }
}

/// The test configuration, or its form with 40-byte slots (an IPv6
/// 5-tuple's) over 1,024 buckets per memory and a 64-slot CAM.
fn round_trip_config(wide: bool) -> SimConfig {
    let mut cfg = SimConfig::test_small();
    if wide {
        cfg.table = TableConfig {
            buckets_per_mem: 1024,
            entries_per_bucket: 2,
            cam_capacity: 64,
            entry_slot_bytes: 40,
            hash_seed: 0x1991,
        };
        let MemorySpec::Ddr3(ddr3) = &mut cfg.memory else {
            panic!("the test configuration is DDR3");
        };
        ddr3.geometry.rows = 512;
    }
    cfg
}

/// Key `i`: a 13-byte IPv4 5-tuple, or a 37-byte IPv6-style tuple.
fn round_trip_key(i: u64, wide: bool) -> FlowKey {
    if !wide {
        return key(i);
    }
    let mut bytes = [0u8; 37];
    bytes[..8].copy_from_slice(&i.to_be_bytes());
    bytes[8..16].copy_from_slice(&(!i).to_be_bytes());
    bytes[36] = 6;
    FlowKey::new(&bytes).expect("37 bytes make a flow key")
}
