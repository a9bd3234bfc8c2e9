//! # flowlut-bench — harness regenerating every table and figure
//!
//! One binary per paper artefact, each printing the paper's values next
//! to the reproduction's measurements:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table I — FPGA resource usage (resource-model estimate) |
//! | `table2a` | Table II(A) — load balance & bank selection |
//! | `table2b` | Table II(B) — flow-match miss-rate sweep |
//! | `fig3` | Figure 3 — DQ bus utilization vs burst count |
//! | `fig6` | Figure 6 — new-flow ratio vs packet window |
//! | `discussion` | §V-B — 40 GbE feasibility and product comparison |
//! | `ablations` | the design choices DESIGN.md §Ablations defends, writes `BENCH_ablations.json` |
//! | `engine` | beyond the paper: multi-channel scaling sweep, writes `BENCH_engine.json` |
//!
//! The `BENCH_*.json` writers (`ablations`, `engine`, `parallel`,
//! `memory`, `service`, `scenarios`) share [`quick_mode`] and
//! [`json_path`]; the committed snapshots at the repo root are what CI
//! regenerates and checks. Host costs are priced by the separate
//! `perfbench` package, not here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// One row of a paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (test description).
    pub label: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64) -> Self {
        Row {
            label: label.into(),
            paper,
            measured,
        }
    }

    /// measured / paper.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::NAN
        } else {
            self.measured / self.paper
        }
    }
}

/// True when the binary was invoked with `--smoke`: CI smoke mode, where
/// every experiment runs on a drastically scaled-down workload so all
/// eight paper-artefact binaries can be run-checked in seconds. Output
/// in smoke mode is *not* comparable to the paper.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Scales a workload size down in smoke mode (×1/100, floor 64),
/// passing it through untouched otherwise.
pub fn scaled(n: usize) -> usize {
    if smoke_mode() {
        (n / 100).max(64)
    } else {
        n
    }
}

/// True when the binary was invoked with `--quick`: the mode the
/// committed `BENCH_*.json` snapshots and CI's perf-snapshot job use.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `--json-out PATH` argument, if present.
fn json_out_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json-out" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// Where a bench binary writes its `file_name` snapshot. Resolution
/// order: `--json-out`, then `$FLOWLUT_RESULTS_DIR/`. Without either,
/// only `quick` (the mode CI snapshots and the committed trajectory
/// use) writes to the working directory; smoke/full runs land in
/// `./paper-results` with the CSVs, so a casual `--smoke` from the repo
/// root cannot clobber a committed snapshot with not-comparable
/// numbers.
pub fn json_path(file_name: &str, quick: bool) -> std::path::PathBuf {
    json_out_arg().unwrap_or_else(|| {
        let dir = std::env::var_os("FLOWLUT_RESULTS_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                if quick {
                    std::path::PathBuf::new()
                } else {
                    std::path::PathBuf::from("paper-results")
                }
            });
        dir.join(file_name)
    })
}

/// Prints a standard comparison table.
pub fn print_comparison(title: &str, unit: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "test",
        format!("paper ({unit})"),
        "measured",
        "ratio"
    );
    println!("{}", "-".repeat(80));
    for r in rows {
        println!(
            "{:<44} {:>12.2} {:>12.2} {:>7.2}x",
            r.label,
            r.paper,
            r.measured,
            r.ratio()
        );
    }
}

/// Renders a crude ASCII plot of a monotone series (x, y in `[0, 1]`),
/// so figure shapes are eyeballable without external tooling.
pub fn ascii_plot(points: &[(f64, f64)], width: usize) {
    for &(x, y) in points {
        let bars = (y.clamp(0.0, 1.0) * width as f64).round() as usize;
        println!(
            "{x:>8.0} | {}{} {:.1}%",
            "#".repeat(bars),
            " ".repeat(width - bars),
            y * 100.0
        );
    }
}

/// Writes a CSV result file under the results directory
/// (`$FLOWLUT_RESULTS_DIR` or `./paper-results`) and returns its path.
/// Fields containing commas or quotes are quoted.
///
/// # Errors
///
/// Propagates I/O errors (directory creation, file write).
pub fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::env::var_os("FLOWLUT_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("paper-results"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            f,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(path)
}

/// Saves a paper-vs-measured comparison as CSV next to printing it.
/// I/O failures are reported to stderr but do not abort the experiment.
pub fn save_comparison(name: &str, rows: &[Row]) {
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}", r.paper),
                format!("{}", r.measured),
                format!("{:.4}", r.ratio()),
            ]
        })
        .collect();
    match write_csv(name, &["test", "paper", "measured", "ratio"], &csv_rows) {
        Ok(path) => println!("(saved {})", path.display()),
        Err(e) => eprintln!("warning: could not save {name}.csv: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_computed() {
        let r = Row::new("x", 50.0, 55.0);
        assert!((r.ratio() - 1.1).abs() < 1e-12);
        assert!(Row::new("y", 0.0, 1.0).ratio().is_nan());
    }

    #[test]
    fn csv_written_and_quoted() {
        let dir = std::env::temp_dir().join("flowlut-csv-test");
        std::env::set_var("FLOWLUT_RESULTS_DIR", &dir);
        let path = write_csv(
            "unit_test",
            &["a", "b"],
            &[vec!["plain".into(), "with,comma \"q\"".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("\"with,comma \"\"q\"\"\""));
        std::env::remove_var("FLOWLUT_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
