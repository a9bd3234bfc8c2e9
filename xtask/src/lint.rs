//! The repo-specific lint rules behind `cargo xtask lint`.
//!
//! Each rule is a pure function over `(path, source)` returning the
//! violations it found, so every rule is unit-tested both ways: clean
//! input passes, seeded violations are reported (the acceptance
//! criterion that the linter demonstrably *fails* when it should).
//!
//! | rule            | scope                               | requirement |
//! |-----------------|-------------------------------------|-------------|
//! | `crate-attrs`   | first-party crate roots             | `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` |
//! | `ordering-doc`  | `crates/*/src` (non-test)           | every `Ordering::` site has an adjacent `// ordering:` justification |
//! | `no-panic`      | engine/core/cam/hash src (non-test) | no `.unwrap()`/`.expect(`/`panic!(` outside `xtask/lint_allow.txt` |
//! | `stale-allow`   | `xtask/lint_allow.txt`              | every entry still matches ≥1 live panic site |
//! | `bench-schema`  | committed `BENCH_*.json`            | parses as JSON and keeps its schema keys |
//!
//! The source rules (`ordering-doc`, `no-panic`) are **token-accurate**:
//! they lex the file with [`crate::lexer`] instead of substring-matching
//! lines, so patterns inside string literals, raw strings, and comments
//! can no longer produce false positives.
//! `#[cfg(test)]` scoping still uses the line-level tracker
//! ([`non_test_lines`]) to decide which token lines are live.
//!
//! The vendored shims under `vendor/` (ports of external crates) are
//! exempt from `crate-attrs`.

use std::collections::HashSet;
use std::fmt;

use crate::lexer::{lex, Tok, TokKind};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line (0 for file-level violations).
    pub line: usize,
    /// Rule identifier (the table in the module docs).
    pub rule: &'static str,
    /// What is wrong and how to fix it.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

fn violation(file: &str, line: usize, rule: &'static str, msg: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule,
        msg,
    }
}

/// Yields `(1-based line number, line)` for the lines of `src` outside
/// `#[cfg(test)]` items. An inline `#[cfg(test)] mod … { … }` is skipped
/// by brace tracking; a path module declaration (`#[cfg(test)] mod t;`)
/// only skips the declaration itself (the module *file* must be excluded
/// by the caller — see `analyze::declared_test_files`).
pub fn non_test_lines(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skipping = false;
    let mut opened = false;
    let mut depth = 0i64;
    for (i, line) in src.lines().enumerate() {
        if !skipping && line.trim_start().starts_with("#[cfg(test)]") {
            skipping = true;
            opened = false;
            depth = 0;
            continue;
        }
        if skipping {
            let opens = line.matches('{').count() as i64;
            let closes = line.matches('}').count() as i64;
            depth += opens - closes;
            if opens > 0 {
                opened = true;
            }
            if opened && depth <= 0 {
                skipping = false;
            } else if !opened && line.trim_end().ends_with(';') {
                // `#[cfg(test)] mod tests;` — only the declaration is
                // gated; resume on the next line.
                skipping = false;
            }
            continue;
        }
        out.push((i + 1, line));
    }
    out
}

/// Whether `path` (repo-relative, `/`-separated) is test code by
/// location: an integration-test or bench tree. A unit-test module in
/// its own file is test code by its declaration instead (see
/// `analyze::declared_test_files`).
pub fn is_test_file(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/")
}

/// `crate-attrs`: a first-party crate root must forbid unsafe code and
/// deny missing docs.
pub fn check_crate_attrs(path: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        if !src.lines().any(|l| l.trim() == attr) {
            out.push(violation(
                path,
                0,
                "crate-attrs",
                format!("crate root is missing `{attr}`"),
            ));
        }
    }
    out
}

/// The 1-based line numbers outside `#[cfg(test)]` items.
fn live_lines(src: &str) -> HashSet<usize> {
    non_test_lines(src).iter().map(|(n, _)| *n).collect()
}

/// `ordering-doc`: every atomic-ordering choice must carry a nearby
/// `// ordering:` justification (same line or the 4 lines above), so a
/// reviewer — and the next refactor — can tell load-bearing SeqCst from
/// incidental. Token-accurate: `Ordering::` in strings is invisible,
/// `use` statements and `cmp::Ordering` are recognized structurally.
pub fn check_ordering_comments(path: &str, src: &str) -> Vec<Violation> {
    const WINDOW: usize = 4;
    let live = live_lines(src);
    let all = lex(src);
    let justified: HashSet<usize> = all
        .iter()
        .filter(|t| t.kind == TokKind::Comment && t.text.contains("ordering:"))
        .map(|t| t.line)
        .collect();
    let toks: Vec<&Tok> = all.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut out = Vec::new();
    let mut stmt_start = true;
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if stmt_start && t.is_ident("use") {
            in_use = true;
        }
        if t.is_punct(";") {
            in_use = false;
        }
        stmt_start = t.is_punct(";") || t.is_punct("{") || t.is_punct("}");
        let is_site = t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident);
        if !is_site || in_use || !live.contains(&t.line) {
            continue;
        }
        // `cmp::Ordering` (and `std::cmp::Ordering`) is not an atomic site.
        if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("cmp") {
            continue;
        }
        let documented = (t.line.saturating_sub(WINDOW)..=t.line).any(|l| justified.contains(&l));
        if !documented {
            out.push(violation(
                path,
                t.line,
                "ordering-doc",
                "atomic `Ordering::` site without an adjacent `// ordering:` justification"
                    .to_string(),
            ));
        }
    }
    out
}

/// `no-panic`: hot-path modules must not unwrap/expect/panic except at
/// sites vetted in the allowlist (`xtask/lint_allow.txt`, entries of the
/// form `path :: line-substring`). Token-accurate: `.unwrap()` in a
/// string literal is content. Allow-list fragments still match against
/// the raw source line, so existing entries keep working.
pub fn check_no_panic(path: &str, src: &str, allowlist: &[(String, String)]) -> Vec<Violation> {
    let live = live_lines(src);
    let raw: Vec<&str> = src.lines().collect();
    let toks: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let token = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            if t.is_ident("unwrap") {
                ".unwrap()"
            } else {
                ".expect("
            }
        } else if t.is_ident("panic")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            "panic!("
        } else {
            continue;
        };
        if !live.contains(&t.line) {
            continue;
        }
        let line = raw.get(t.line - 1).copied().unwrap_or_default();
        let allowed = allowlist
            .iter()
            .any(|(p, frag)| path.ends_with(p.as_str()) && line.contains(frag.as_str()));
        if !allowed {
            out.push(violation(
                path,
                t.line,
                "no-panic",
                format!(
                    "`{token}` in a hot-path module — return an error, or vet the invariant in xtask/lint_allow.txt"
                ),
            ));
        }
    }
    out
}

/// `stale-allow`: every `lint_allow.txt` entry must still match at
/// least one live (non-test) panic site in the scanned sources, so the
/// vetted-exception list cannot silently rot as code moves.
pub fn check_allow_liveness(
    allowlist: &[(String, String)],
    scanned: &[(String, String)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (p, frag) in allowlist {
        let alive = scanned.iter().any(|(path, src)| {
            path.ends_with(p.as_str())
                && non_test_lines(src).iter().any(|(_, line)| {
                    line.contains(frag.as_str())
                        // The full panic-site vocabulary: the no-panic
                        // lint flags the first three; `cargo xtask
                        // analyze` vets the assertion macros through
                        // this same list, so they keep entries alive.
                        && [
                            ".unwrap()",
                            ".expect(",
                            "panic!(",
                            "unreachable!(",
                            "todo!(",
                            "unimplemented!(",
                        ]
                        .iter()
                        .any(|t| line.contains(t))
                })
        });
        if !alive {
            out.push(violation(
                "xtask/lint_allow.txt",
                0,
                "stale-allow",
                format!("`{p} :: {frag}` no longer matches any live panic site — prune it"),
            ));
        }
    }
    out
}

/// Parses the allowlist format: one `path :: substring` entry per line;
/// blank lines and `#` comments ignored.
pub fn parse_allowlist(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (p, frag) = l.split_once(" :: ")?;
            Some((p.trim().to_string(), frag.trim().to_string()))
        })
        .collect()
}

// ---------------------------------------------------------------------
// bench-schema: a minimal JSON reader + schema-key checks
// ---------------------------------------------------------------------

/// Minimal JSON value for schema validation (no number parsing beyond
/// syntax — the perf gates in CI do the numeric checks).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, kept as its source text.
    Num(String),
    /// A string literal (unescaped content not interpreted).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses `text` as a single JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            want as char,
            *pos,
            b.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&c| c as char),
            *pos
        )),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && (b[*pos].is_ascii_digit() || b"+-.eE".contains(&b[*pos])) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.parse::<f64>().is_err() {
        return Err(format!("bad number `{text}` at byte {start}"));
    }
    Ok(Json::Num(text.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(b, pos, b'"')?;
    let start = *pos;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                let s = std::str::from_utf8(&b[start..*pos])
                    .map_err(|e| e.to_string())?
                    .to_string();
                *pos += 1;
                return Ok(s);
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected `,` or `]` at byte {} (found {:?})",
                    *pos,
                    other.map(|&c| c as char)
                ))
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect_byte(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => {
                return Err(format!(
                    "expected `,` or `}}` at byte {} (found {:?})",
                    *pos,
                    other.map(|&c| c as char)
                ))
            }
        }
    }
}

/// Schema keys every committed perf snapshot must keep, per bench name
/// (the CI perf gates and `scripts/` tooling read them by key).
fn required_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "engine" => &[
            "bench",
            "mode",
            "workload",
            "per_shard_input_rate_mhz",
            "single_channel_mdesc_per_s",
            "results",
            "acceptance_4_shards_ge_2x",
        ],
        "parallel" => &[
            "bench",
            "mode",
            "host_parallelism",
            "workload",
            "results",
            "acceptance_applicable",
            "acceptance_threaded_4_shards_ge_1p5x",
        ],
        "memory" => &[
            "bench",
            "mode",
            "workload",
            "line_rate_mpps",
            "results",
            "verdicts",
            "acceptance_sram_ge_ddr3",
        ],
        "service" => &[
            "bench",
            "mode",
            "workload",
            "results",
            "acceptance_expiry_sustained_ge_0p9x_off",
        ],
        "ablations" => &[
            "bench",
            "results",
            "acceptance_early_exit_fewer_reads",
            "acceptance_bank_selection_faster",
            "acceptance_bwr_default_no_slower_than_1",
            "acceptance_spill_falls_as_k_grows",
        ],
        "scenarios" => &[
            "bench",
            "mode",
            "packets_per_stage",
            "results",
            "acceptance_adversarial_cam_exercised",
            "acceptance_baseline_degrades",
        ],
        _ => &["bench", "mode", "results"],
    }
}

/// Keys every `results` row must keep, per bench name. The sweeps
/// identify shard count and completion total; the memory sweep also
/// names its model and line-rate verdict per row, and an ablation row
/// names its ablation, variant, value and unit.
fn required_row_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "ablations" => &["ablation", "variant", "value", "unit"],
        "memory" => &[
            "model",
            "shards",
            "mdesc_per_s",
            "headroom_vs_400gbe",
            "holds_line_rate",
            "completed",
        ],
        "service" => &[
            "shards",
            "profile",
            "completed",
            "sustained_mdesc_per_s",
            "expired_ttl",
            "pressure_evicted",
        ],
        "scenarios" => &[
            "scenario",
            "backend",
            "mdesc_per_s",
            "drop_rate",
            "overflow_rate",
            "cam_spills",
            "cam_high_water",
        ],
        _ => &["shards", "completed"],
    }
}

/// `bench-schema`: `path` must parse as JSON and keep the schema keys
/// for its `bench` kind; every `results` row must keep that kind's row
/// keys.
pub fn check_bench_schema(path: &str, text: &str) -> Vec<Violation> {
    let doc = match parse_json(text) {
        Ok(doc) => doc,
        Err(e) => return vec![violation(path, 0, "bench-schema", format!("not JSON: {e}"))],
    };
    let mut out = Vec::new();
    let bench = match doc.get("bench") {
        Some(Json::Str(b)) => b.clone(),
        _ => {
            out.push(violation(
                path,
                0,
                "bench-schema",
                "missing string key `bench`".to_string(),
            ));
            String::new()
        }
    };
    for key in required_keys(&bench) {
        if doc.get(key).is_none() {
            out.push(violation(
                path,
                0,
                "bench-schema",
                format!("missing schema key `{key}`"),
            ));
        }
    }
    match doc.get("results") {
        Some(Json::Arr(rows)) if !rows.is_empty() => {
            for (i, row) in rows.iter().enumerate() {
                for key in required_row_keys(&bench) {
                    if row.get(key).is_none() {
                        out.push(violation(
                            path,
                            0,
                            "bench-schema",
                            format!("results[{i}] is missing key `{key}`"),
                        ));
                    }
                }
            }
        }
        Some(_) | None => out.push(violation(
            path,
            0,
            "bench-schema",
            "`results` must be a non-empty array".to_string(),
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- the linter must pass on clean input --

    #[test]
    fn clean_crate_root_passes() {
        let src = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert_eq!(check_crate_attrs("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn documented_ordering_passes() {
        let src = "fn f(a: &A) {\n    // ordering: Dekker store half.\n    a.x.store(1, Ordering::SeqCst);\n    a.y.load(Ordering::Relaxed); // ordering: gated by x.\n}\n";
        assert_eq!(check_ordering_comments("crates/e/src/p.rs", src), vec![]);
    }

    #[test]
    fn allowlisted_expect_passes() {
        let allow =
            parse_allowlist("# vetted\ncrates/core/src/a.rs :: .expect(\"checked above\")\n");
        let src = "fn f() {\n    x.expect(\"checked above\");\n}\n";
        assert_eq!(check_no_panic("crates/core/src/a.rs", src, &allow), vec![]);
    }

    #[test]
    fn committed_bench_files_pass() {
        // The real committed snapshots must satisfy their own schema.
        let root = env!("CARGO_MANIFEST_DIR");
        for name in [
            "BENCH_engine.json",
            "BENCH_parallel.json",
            "BENCH_memory.json",
            "BENCH_service.json",
            "BENCH_scenarios.json",
            "BENCH_ablations.json",
        ] {
            let text = std::fs::read_to_string(format!("{root}/../{name}")).unwrap();
            assert_eq!(check_bench_schema(name, &text), vec![], "{name}");
        }
    }

    // -- and must demonstrably fail on violations --

    #[test]
    fn missing_crate_attrs_flagged() {
        let v = check_crate_attrs("crates/x/src/lib.rs", "//! Docs.\npub fn f() {}\n");
        assert_eq!(v.len(), 2);
        assert!(v[0].msg.contains("forbid(unsafe_code)"));
        assert!(v[1].msg.contains("deny(missing_docs)"));
    }

    #[test]
    fn undocumented_ordering_flagged() {
        let src = "fn f(a: &A) {\n    a.x.store(1, Ordering::SeqCst);\n}\n";
        let v = check_ordering_comments("crates/e/src/p.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn ordering_comment_outside_window_flagged() {
        let src = "// ordering: too far away.\n\n\n\n\n\nfn f(a: &A) {\n    a.x.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(check_ordering_comments("crates/e/src/p.rs", src).len(), 1);
    }

    #[test]
    fn cmp_ordering_and_imports_are_exempt() {
        let src = "use std::sync::atomic::Ordering;\nfn f(a: u32, b: u32) -> std::cmp::Ordering {\n    a.cmp(&b)\n}\n";
        assert_eq!(check_ordering_comments("crates/e/src/p.rs", src), vec![]);
    }

    #[test]
    fn unvetted_unwrap_flagged() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"oops\");\n    panic!(\"boom\");\n}\n";
        let v = check_no_panic("crates/core/src/a.rs", src, &[]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].rule, "no-panic");
    }

    #[test]
    fn unwrap_in_test_block_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert_eq!(check_no_panic("crates/core/src/a.rs", src, &[]), vec![]);
    }

    #[test]
    fn allowlist_is_path_scoped() {
        let allow = parse_allowlist("crates/core/src/a.rs :: .unwrap()");
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(check_no_panic("crates/core/src/a.rs", src, &allow), vec![]);
        assert_eq!(check_no_panic("crates/core/src/b.rs", src, &allow).len(), 1);
    }

    #[test]
    fn broken_json_flagged() {
        let v = check_bench_schema("BENCH_x.json", "{\"bench\": ");
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("not JSON"));
    }

    #[test]
    fn dropped_schema_key_flagged() {
        let text =
            r#"{"bench": "engine", "mode": "quick", "results": [{"shards": 1, "completed": 5}]}"#;
        let v = check_bench_schema("BENCH_engine.json", text);
        let missing: Vec<&str> = v
            .iter()
            .filter_map(|x| x.msg.strip_prefix("missing schema key `"))
            .map(|m| m.trim_end_matches('`'))
            .collect();
        assert_eq!(
            missing,
            vec![
                "workload",
                "per_shard_input_rate_mhz",
                "single_channel_mdesc_per_s",
                "acceptance_4_shards_ge_2x"
            ]
        );
    }

    #[test]
    fn dropped_memory_schema_key_flagged() {
        // Seeded violation: a memory snapshot missing its acceptance
        // key and one per-row verdict key must fail on both counts.
        let text = r#"{"bench": "memory", "mode": "quick",
            "workload": {}, "line_rate_mpps": 595.0, "verdicts": {},
            "results": [{"model": "ddr3", "shards": 1,
                "mdesc_per_s": 76.1, "headroom_vs_400gbe": 0.13,
                "completed": 16000}]}"#;
        let v = check_bench_schema("BENCH_memory.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_sram_ge_ddr3`")));
        assert!(v.iter().any(|x| x
            .msg
            .contains("results[0] is missing key `holds_line_rate`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dropped_service_schema_key_flagged() {
        // Seeded violation: a service snapshot missing its acceptance
        // key and one per-row lifecycle counter must fail on both.
        let text = r#"{"bench": "service", "mode": "quick",
            "workload": {},
            "results": [{"shards": 1, "profile": "expiry",
                "completed": 12288, "sustained_mdesc_per_s": 30.7,
                "expired_ttl": 1152}]}"#;
        let v = check_bench_schema("BENCH_service.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_expiry_sustained_ge_0p9x_off`")));
        assert!(v.iter().any(|x| x
            .msg
            .contains("results[0] is missing key `pressure_evicted`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dropped_scenarios_schema_key_flagged() {
        // Seeded violation: a scenarios snapshot missing one acceptance
        // key and one per-row rate key must fail on both counts.
        let text = r#"{"bench": "scenarios", "mode": "quick",
            "packets_per_stage": 3000,
            "acceptance_adversarial_cam_exercised": true,
            "results": [{"scenario": "adversarial-flood",
                "backend": "hashcam (this paper)", "mdesc_per_s": 1.8,
                "drop_rate": 0.0, "cam_spills": 16,
                "cam_high_water": 0}]}"#;
        let v = check_bench_schema("BENCH_scenarios.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_baseline_degrades`")));
        assert!(v
            .iter()
            .any(|x| x.msg.contains("results[0] is missing key `overflow_rate`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dropped_ablations_schema_key_flagged() {
        // Seeded violation: an ablations snapshot missing one acceptance
        // key and a row without its value must fail on both counts.
        let text = r#"{"bench": "ablations",
            "acceptance_early_exit_fewer_reads": true,
            "acceptance_bank_selection_faster": true,
            "acceptance_bwr_default_no_slower_than_1": true,
            "results": [{"ablation": "early_exit", "variant": "early_exit",
                "value": 1.548, "unit": "DRAM reads per lookup"},
                {"ablation": "bank_selection", "variant": "on",
                "unit": "Mdesc/s at 50% miss"}]}"#;
        let v = check_bench_schema("BENCH_ablations.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_spill_falls_as_k_grows`")));
        assert!(v
            .iter()
            .any(|x| x.msg.contains("results[1] is missing key `value`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn result_row_without_shards_flagged() {
        let text = r#"{"bench": "z", "mode": "quick", "results": [{"completed": 5}]}"#;
        let v = check_bench_schema("BENCH_z.json", text);
        assert!(v.iter().any(|x| x.msg.contains("results[0]")));
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let doc =
            parse_json(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": null, "d": false}}"#).unwrap();
        assert!(matches!(doc.get("a"), Some(Json::Arr(items)) if items.len() == 3));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("[1, ]").is_err());
    }

    // -- token accuracy: literals and comments are not code --

    #[test]
    fn panic_token_in_string_passes_but_code_flagged() {
        let src = "fn f() {\n    log(\"never .unwrap() here\");\n    x.unwrap();\n}\n";
        let v = check_no_panic("crates/core/src/a.rs", src, &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn ordering_token_in_raw_string_passes() {
        let src = "fn f() -> &'static str { r#\"store(1, Ordering::SeqCst)\"# }\n";
        assert_eq!(check_ordering_comments("crates/e/src/p.rs", src), vec![]);
    }

    #[test]
    fn multiline_use_of_ordering_is_exempt() {
        // The old line-grep rule needed `use ` on the same line; the
        // token rule tracks the statement.
        let src = "use std::sync::atomic::{\n    AtomicU64,\n    Ordering::{self, SeqCst},\n};\nfn f() {}\n";
        assert_eq!(check_ordering_comments("crates/e/src/p.rs", src), vec![]);
    }

    // -- stale allow entries are hard errors --

    #[test]
    fn live_allow_entry_passes_liveness() {
        let scanned = vec![(
            "crates/core/src/a.rs".to_string(),
            "fn f() {\n    x.expect(\"checked above\");\n}\n".to_string(),
        )];
        let allow = parse_allowlist("crates/core/src/a.rs :: .expect(\"checked above\")");
        assert_eq!(check_allow_liveness(&allow, &scanned), vec![]);
    }

    #[test]
    fn stale_allow_entry_flagged() {
        // Entry's file exists but the fragment is gone; a second entry
        // only matches inside a test module. Both are stale.
        let scanned = vec![(
            "crates/core/src/a.rs".to_string(),
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n".to_string(),
        )];
        let allow = parse_allowlist(
            "crates/core/src/a.rs :: .expect(\"vanished\")\ncrates/core/src/a.rs :: .unwrap()",
        );
        let v = check_allow_liveness(&allow, &scanned);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].rule, "stale-allow");
    }

    #[test]
    fn path_module_test_decl_does_not_swallow_file() {
        let src = "#[cfg(test)]\nmod tests;\nfn f() { x.unwrap(); }\n";
        assert_eq!(check_no_panic("crates/core/src/a.rs", src, &[]).len(), 1);
        let tree = [
            ("crates/core/src/sim/mod.rs", src),
            ("crates/core/src/sim/tests.rs", "fn t() {}\n"),
            ("crates/core/src/sim/tests/deep.rs", "fn d() {}\n"),
            ("crates/core/src/sim/testsuite.rs", "fn s() {}\n"),
            (
                "crates/core/src/lib.rs",
                "#[cfg(test)]\nmod helpers;\nmod table;\n",
            ),
            ("crates/core/src/helpers.rs", "fn h() {}\n"),
            ("crates/core/src/table.rs", "fn l() {}\n"),
        ]
        .map(|(p, s)| (p.to_string(), s.to_string()));
        assert_eq!(
            crate::analyze::declared_test_files(&tree),
            [
                "crates/core/src/sim/tests.rs",
                "crates/core/src/sim/tests/deep.rs",
                "crates/core/src/helpers.rs",
            ]
        );
        assert!(is_test_file("crates/core/tests/proptest.rs"));
        assert!(!is_test_file("crates/core/src/sim/tests.rs"));
    }
}
