//! Determinism of threaded shard execution.
//!
//! `ExecutionMode::Threaded(n)` only changes which host thread runs each
//! shard's per-cycle body; shards share no state, so every observable —
//! the [`RunReport`] and the complete post-run [`EngineSnapshot`] with
//! its per-shard counters — must be **bit-identical** to inline
//! execution. These tests (including a property test over shard
//! counts, thread counts and trace lengths on the seeded fabric trace)
//! are the acceptance bar for the threaded engine: any scheduling-order
//! dependence, shared-state leak, or barrier bug shows up as a diverging
//! report.

use proptest::prelude::*;

use flowlut::engine::{EngineConfig, EngineSnapshot, ExecutionMode, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::PacketDescriptor;
use flowlut::{FlowPipeline, FlowStore, RunReport, Session};

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

fn engine(shards: usize, execution: ExecutionMode) -> ShardedFlowLut {
    ShardedFlowLut::new(EngineConfig {
        shards,
        execution,
        ..EngineConfig::test_small()
    })
}

/// Runs `descs` through one session and returns the report with the
/// engine's state after it.
fn run(engine: &mut ShardedFlowLut, descs: &[PacketDescriptor]) -> (RunReport, EngineSnapshot) {
    let report = engine.start_run().run(descs).expect("fresh session");
    (report, engine.snapshot())
}

/// A threaded engine, checked to run as many executors as the clamp
/// allows: `threads` capped by the shard count and the host's cores.
/// So the partitions these tests cover depend on the host: with fewer
/// cores than `threads`, fewer executors run; on one core, the
/// threaded engine runs inline.
fn threaded(shards: usize, threads: usize) -> ShardedFlowLut {
    let engine = engine(shards, ExecutionMode::Threaded(threads));
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let executors = engine.executor_count();
    assert_eq!(executors, threads.min(shards).min(cores));
    assert!(
        shards == 1 || cores == 1 || executors > 1,
        "{shards} shards on {cores} cores must run threaded"
    );
    engine
}

/// Runs the same descriptors through an inline and a threaded engine
/// and asserts every observable is bit-identical.
fn assert_bit_identical(shards: usize, threads: usize, descs: &[PacketDescriptor]) {
    let mut inline_engine = engine(shards, ExecutionMode::Inline);
    let mut threaded_engine = threaded(shards, threads);
    assert_eq!(
        run(&mut inline_engine, descs),
        run(&mut threaded_engine, descs),
        "diverged at {shards} shards / {threads} threads"
    );
}

#[test]
fn threaded_is_bit_identical_on_the_fabric_trace() {
    let descs = trace(2_000);
    assert_bit_identical(4, 2, &descs);
    assert_bit_identical(4, 4, &descs);
}

#[test]
fn threaded_is_bit_identical_with_more_threads_than_shards() {
    // Threaded(8) on 2 shards clamps to 2 executors and must still match.
    let descs = trace(1_000);
    assert_bit_identical(2, 8, &descs);
}

#[test]
fn threaded_is_bit_identical_across_repeated_runs() {
    let first = trace(800);
    let second: Vec<PacketDescriptor> = trace(1_600).split_off(800);
    let mut inline_engine = engine(3, ExecutionMode::Inline);
    let mut threaded_engine = threaded(3, 3);
    for descs in [&first, &second] {
        assert_eq!(
            run(&mut inline_engine, descs),
            run(&mut threaded_engine, descs)
        );
    }
}

#[test]
fn threaded_is_bit_identical_with_preload_and_sessions() {
    // Preload on both engines, then the generic streaming session over
    // `dyn FlowStore`.
    let descs = trace(1_200);
    let keys: Vec<_> = descs.iter().take(300).map(|d| d.key).collect();
    let mk = |execution: ExecutionMode| {
        let mut backend: Box<dyn FlowStore> = Box::new(engine(4, execution));
        let mut loaded = 0;
        for &k in &keys {
            if backend.insert(k).expect("capacity suffices") {
                loaded += 1;
            }
        }
        assert!(loaded > 0);
        backend
    };
    let mut inline_backend = mk(ExecutionMode::Inline);
    let mut threaded_backend = mk(ExecutionMode::Threaded(4));
    let ra = Session::new(inline_backend.as_pipeline().expect("timed"))
        .run(&descs)
        .expect("fresh session");
    let rb = Session::new(threaded_backend.as_pipeline().expect("timed"))
        .run(&descs)
        .expect("fresh session");
    assert_eq!(ra, rb, "session reports diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: on the seeded fabric trace, any
    /// (shards, threads, length) combination reports bit-identically
    /// under threaded and inline execution.
    #[test]
    fn threaded_equals_inline(
        shards in 1usize..=4,
        threads in 2usize..=4,
        packets in 100usize..600,
    ) {
        assert_bit_identical(shards, threads, &trace(packets));
    }
}
