//! CI smoke tests for the paper-artefact harness: bench binaries are
//! executed in `--smoke` mode (drastically scaled-down workloads), so
//! the paper artefacts, the ablations, the multi-channel engine sweep
//! and the threaded wall-clock sweep are run-checked — not just
//! compiled — on every `cargo test`.
//! Each test asserts a successful exit and the report heading that
//! proves the artefact was actually constructed.

use std::process::Command;

fn run_smoke(exe: &str, expect: &str) {
    let out = Command::new(exe)
        .arg("--smoke")
        .env(
            "FLOWLUT_RESULTS_DIR",
            std::env::temp_dir().join("flowlut-smoke-results"),
        )
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(expect),
        "{exe} output missing {expect:?}; got:\n{stdout}"
    );
}

#[test]
fn table1_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_table1"), "Table I");
}

#[test]
fn table2a_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_table2a"), "Table II(A)");
}

#[test]
fn table2b_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_table2b"), "Table II(B)");
}

#[test]
fn fig3_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_fig3"), "Figure 3");
}

#[test]
fn fig6_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_fig6"), "Figure 6");
}

#[test]
fn discussion_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_discussion"), "40GbE feasibility");
}

#[test]
fn ablations_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_ablations"), "Ablations");
}

/// The multi-path study's rows are part of the ablations report; its
/// acceptance line proves the d = 2, 3, 4 sweep ran and its claim held.
#[test]
fn multipath_smoke() {
    run_smoke(
        env!("CARGO_BIN_EXE_ablations"),
        "acceptance_spill_falls_as_d_grows: yes",
    );
}

#[test]
fn engine_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_engine"), "Sharded flow-LUT engine");
}

#[test]
fn parallel_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_parallel"), "Threaded shard execution");
}
