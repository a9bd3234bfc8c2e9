//! Workspace task runner: `cargo xtask lint` and `cargo xtask analyze`.
//!
//! `lint` runs the repo-specific static-analysis pass described in
//! DESIGN.md §Static analysis: crate-root hygiene attributes,
//! `// ordering:` justifications on every atomic site, the hot-path
//! no-panic rule (with `xtask/lint_allow.txt` as the vetted-exception
//! list, whose entries must all stay live), and the committed
//! `BENCH_*.json` schema.
//!
//! `analyze` runs the call-graph-aware pass on top of the same token
//! lexer: it recovers `fn`/`impl` items and a conservative call graph
//! across all workspace crates, the facade, the examples and
//! `perfbench`, then reports every allocation and panic site
//! transitively reachable from the steady-state entry points
//! (`FlowLutSim::tick`, `Session::offer`, `ShardedFlowLut::tick`,
//! `FlowService::pump`, and the `FlowPipeline` impls' `push`/`poll`),
//! past the vetted cold-path barriers in `xtask/analyze_allow.txt`.
//! Every reachable allocation is a finding; a reachable panic site may
//! be vetted in `xtask/lint_allow.txt`. Its `unreached` rule reports
//! every function that no `fn main` and no method of a trait defined
//! outside the workspace reaches, less the `keep` entries of
//! `xtask/analyze_allow.txt`. `--json <path>`
//! additionally writes a machine-readable report (CI uploads it as an
//! artifact).
//!
//! Pure `std` — no external dependencies — so both commands run in the
//! offline build like everything else. The rules themselves live in
//! [`lint`] and [`analyze`] as pure functions over file contents; this
//! binary only discovers files and reports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analyze;
mod lexer;
mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lint::Violation;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = repo_root();
            let (files, violations) = run_lint(&root);
            if violations.is_empty() {
                println!("xtask lint: {files} files clean");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!(
                    "xtask lint: {} violation(s) in {files} files",
                    violations.len()
                );
                ExitCode::FAILURE
            }
        }
        Some("analyze") => {
            let mut json_out: Option<PathBuf> = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--json" => match args.next() {
                        Some(p) => json_out = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("xtask analyze: --json needs a path");
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("xtask analyze: unknown flag {other:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            let root = repo_root();
            let res = run_analyze(&root);
            if let Some(path) = &json_out {
                if let Err(e) = std::fs::write(path, analyze::report_json(&res)) {
                    eprintln!("xtask analyze: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            for f in &res.findings {
                eprintln!("{f}");
            }
            println!(
                "xtask analyze: {} files, {} fns, {} call edges, {} reachable from {} entry points, {} from a program; {} vetted hot site(s), {} finding(s)",
                res.files,
                res.functions,
                res.edges,
                res.reachable,
                analyze::ENTRY_POINTS.len(),
                res.used,
                res.vetted.len(),
                res.findings.len()
            );
            if res.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!(
                "usage: cargo xtask <lint | analyze [--json <path>]>   (got {:?})",
                other.unwrap_or("<nothing>")
            );
            ExitCode::from(2)
        }
    }
}

/// The workspace root (xtask always lives one level below it).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

/// Crates whose sources count as hot-path for the no-panic rule.
const HOT_PATH_CRATES: [&str; 4] = ["engine", "core", "cam", "hash"];

/// Runs every lint rule over the workspace; returns the number of
/// files scanned and all violations found.
fn run_lint(root: &Path) -> (usize, Vec<Violation>) {
    let mut files = 0usize;
    let mut out: Vec<Violation> = Vec::new();
    let allowlist = lint::parse_allowlist(&read(&root.join("xtask/lint_allow.txt")));

    // crate-attrs: first-party crate roots (workspace crates and this
    // task runner; the vendor/ shims are ports of external crates and
    // exempt).
    let mut roots: Vec<PathBuf> = crate_dirs(root)
        .into_iter()
        .map(|d| d.join("src/lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    roots.push(root.join("xtask/src/main.rs"));
    for path in roots {
        files += 1;
        out.extend(lint::check_crate_attrs(&rel(root, &path), &read(&path)));
    }

    // Per-file source rules over crates/*/src; collect the sources so
    // the allow-list liveness check can scan them afterwards.
    let mut scanned: Vec<(String, String)> = Vec::new();
    for dir in crate_dirs(root) {
        let mut sources: Vec<(String, String)> = rust_files(&dir.join("src"))
            .iter()
            .map(|path| (rel(root, path), read(path)))
            .filter(|(rp, _)| !lint::is_test_file(rp))
            .collect();
        let test_files = analyze::declared_test_files(&sources);
        sources.retain(|(rp, _)| !test_files.contains(rp));
        let crate_name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let hot = HOT_PATH_CRATES.contains(&crate_name);
        for (rp, src) in sources {
            files += 1;
            out.extend(lint::check_ordering_comments(&rp, &src));
            if hot {
                out.extend(lint::check_no_panic(&rp, &src, &allowlist));
            }
            scanned.push((rp, src));
        }
    }

    // stale-allow: every vetted exception must still match a live site.
    out.extend(lint::check_allow_liveness(&allowlist, &scanned));

    // bench-schema: committed perf snapshots at the repo root.
    let mut bench_files: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("read workspace root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    bench_files.sort();
    for path in bench_files {
        files += 1;
        out.extend(lint::check_bench_schema(&rel(root, &path), &read(&path)));
    }

    (files, out)
}

/// Runs the call-graph analyses over every non-test source in
/// `crates/*/src`, the facade's `src/`, `examples/` and `perfbench/src`
/// (the programs that root the `unreached` rule), with the allow-lists
/// read from `xtask/`.
fn run_analyze(root: &Path) -> analyze::AnalyzeResult {
    let mut dirs: Vec<PathBuf> = crate_dirs(root).iter().map(|d| d.join("src")).collect();
    dirs.extend(["src", "examples", "perfbench/src"].map(|d| root.join(d)));
    let mut sources: Vec<(String, String)> = Vec::new();
    for dir in dirs {
        for path in rust_files(&dir) {
            let rp = rel(root, &path);
            if lint::is_test_file(&rp) {
                continue;
            }
            sources.push((rp, read(&path)));
        }
    }
    let allow = analyze::parse_analyze_allow(&read(&root.join("xtask/analyze_allow.txt")));
    let panic_allow = lint::parse_allowlist(&read(&root.join("xtask/lint_allow.txt")));
    let mut res = analyze::analyze_sources(&sources, analyze::ENTRY_POINTS, &allow, &panic_allow);
    // The token-accurate ordering rule is part of this pass too; fold
    // its violations in as findings.
    let test_files = analyze::declared_test_files(&sources);
    for (rp, src) in sources
        .iter()
        .filter(|(rp, _)| rp.starts_with("crates/") && !test_files.contains(rp))
    {
        for v in lint::check_ordering_comments(rp, src) {
            res.findings.push(analyze::Finding {
                file: v.file,
                line: v.line,
                rule: "ordering-doc",
                chain: String::new(),
                msg: v.msg,
            });
        }
    }
    res
}

/// The workspace's crate directories (`crates/*`), sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("xtask: cannot read {}: {e}", path.display()))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed workspace must lint clean: this is the same check
    /// CI's static-analysis job runs, pinned as a test so a violation
    /// fails `cargo test` even without the job.
    #[test]
    fn workspace_lints_clean() {
        let (files, violations) = run_lint(&repo_root());
        assert!(files > 40, "suspiciously few files scanned: {files}");
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Same pin for the call-graph pass: the committed workspace must
    /// analyze clean, with a plausibly-sized item model underneath
    /// (guards against the extractor silently recovering nothing).
    #[test]
    fn workspace_analyzes_clean() {
        let res = run_analyze(&repo_root());
        assert!(res.files > 30, "suspiciously few files: {}", res.files);
        assert!(
            res.functions > 300,
            "suspiciously few fns recovered: {}",
            res.functions
        );
        assert!(
            res.reachable > 20,
            "suspiciously small hot set: {}",
            res.reachable
        );
        assert!(
            res.used > 600,
            "suspiciously few fns reached from a program: {}",
            res.used
        );
        assert!(
            res.findings.is_empty(),
            "workspace analyze findings:\n{}",
            res.findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
