//! `cargo xtask analyze`: call-graph-aware hot-path analysis.
//!
//! Built on the token [`lexer`](crate::lexer), this module recovers a
//! lightweight item model of the workspace — `fn` definitions, `impl`
//! blocks (inherent and trait), and a conservative name-resolution-free
//! call graph — and runs three reachability analyses over it:
//!
//! 1. **hot-alloc** — allocation sites (`Vec::…`/`vec![…]`/`Box::new`/
//!    `String::…`/`HashMap::…`/`.to_vec()`/`.clone()`/`.collect()`/
//!    `format!` plus direct `alloc::` use) transitively reachable from
//!    the steady-state entry points, past the vetted cold-path barriers
//!    in `xtask/analyze_allow.txt`. A reachable allocation is always a
//!    finding: it can be fixed, not vetted;
//! 2. **hot-panic** — `.unwrap()`/`.expect(`/`panic!(` sites reachable
//!    from the same entry points, vetted through the same
//!    `xtask/lint_allow.txt` entries the line-level `no-panic` rule
//!    uses (so one vet covers both views);
//! 3. **unreached** — non-test functions that no program reaches. The
//!    roots are every `fn main` (the bins, the examples and `perfbench`)
//!    and every method of a trait defined outside the scanned sources,
//!    since those are called implicitly (`Display::fmt`, `Drop::drop`,
//!    `Iterator::next`, …). A trait the sources define (`FlowStore`,
//!    `MemoryModel`, …) roots nothing: its methods, defaults and impls
//!    alike, are reached through name-widened calls like any other
//!    function, so an uncalled one is a finding. A function only tests
//!    call is unreached. The `keep` entries of
//!    `xtask/analyze_allow.txt` name the few a documented entry point or
//!    an integration test needs; a kept function is a root too.
//!
//! ## Soundness model (read before trusting a clean pass)
//!
//! The call graph is a *conservative over-approximation* with no name
//! resolution and no trait dispatch:
//!
//! - `name(…)` resolves to every free `fn name` in the workspace;
//! - `Type::name(…)` resolves to `fn name` in any `impl …Type` block
//!   (`Self::` uses the enclosing impl), and `Trait::name(…)`, for a
//!   trait the sources define, to its default and every impl's
//!   `name`; an unknown qualifier falls
//!   back to free `fn name` (the `module::fn` case) and otherwise is
//!   treated as external (so `Instant::now(…)`-style calls on std
//!   types do not fan out to every local `new`);
//! - `self.name(…)` resolves within the enclosing impl type first,
//!   widening to all methods when the name is a trait method;
//! - `recv.name(…)` is **dyn-widened**: it resolves to every method
//!   named `name` in every impl/trait block of the workspace, because
//!   a `Box<dyn Trait>` receiver cannot be resolved statically.
//!   Calls through local type *aliases* are the known blind spot of
//!   the tightened qualified rule.
//!
//! A function named as a value (`.map(f)`) and a call inside a
//! module-level `const`/`static` initialiser are not edges either. Such
//! a use can only make its target look unreached — a false finding,
//! which the build exposes when the function is deleted — never hide a
//! function that is unreached.
//!
//! Widening means spurious edges (a `.tick(…)` on a memory model also
//! "calls" every other `tick` in the tree); the `cold`/`coldfile`
//! entries of `analyze_allow.txt` prune the vetted-false ones, and
//! every entry must stay live or the pass fails (`stale-allow`).
//! `Vec::new()`-style non-allocating constructors are still reported:
//! a fresh container on the steady-state path exists to be filled.

use crate::lexer::{lex, Tok, TokKind};

/// A recovered `fn` definition.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// The function's bare name.
    pub name: String,
    /// Last path segment of the `impl`'d type, when defined in an impl.
    pub impl_type: Option<String>,
    /// Trait name for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body as a token-index range into the file's comment-free stream.
    pub body: (usize, usize),
    /// Defined under `#[cfg(test)]` / `#[test]` (excluded from the graph).
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` or bare `name` for display and allow-list matching.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site recovered from a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `name(…)` — free-function call.
    Bare(String),
    /// `Qual::name(…)` — `(qualifier, name)`; qualifier may be `Self`.
    Qualified(String, String),
    /// `self.name(…)` — method on the enclosing impl type.
    SelfMethod(String),
    /// `recv.name(…)` — dyn-widened method call.
    Method(String),
}

/// A direct allocation or panic site inside one function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: usize,
    /// Always `"panic"`: allocations cannot be vetted.
    pub kind: &'static str,
    /// Human description of the matched pattern.
    pub what: String,
}

/// Container types whose associated calls count as allocation sites.
const HEAP_TYPES: [&str; 10] = [
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Rc", "Arc",
];

/// Method names that allocate (type-blind, hence conservative).
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_owned", "to_string", "clone", "collect"];

/// Keywords that can precede `(` without being a call.
const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "in", "as", "let", "move",
    "mut", "ref", "break", "continue", "where", "use", "pub", "crate", "super", "dyn", "impl",
    "box",
];

// ---------------------------------------------------------------------
// Item extraction
// ---------------------------------------------------------------------

/// The extracted model of one file: a comment-free token stream plus
/// the `fn` items whose `body` ranges index into it.
pub struct FileModel {
    /// Comment-free token stream.
    pub toks: Vec<Tok>,
    /// Recovered `fn` items.
    pub items: Vec<FnItem>,
    /// Modules declared test-only in this file (`#[cfg(test)] mod m;`).
    pub test_mods: Vec<String>,
    /// Traits this file defines (`trait Name`).
    pub traits: Vec<String>,
}

enum ScopeKind {
    Block,
    Impl {
        ty: Option<String>,
        tr: Option<String>,
    },
    Fn {
        item: usize,
    },
}

struct Scope {
    kind: ScopeKind,
    test: bool,
}

/// Extracts `fn` items (with impl context and `#[cfg(test)]` marking)
/// from `src`. Brace-tracked, attribute-aware, tolerant of anything it
/// does not model (those tokens just act as block delimiters).
pub fn extract(path: &str, src: &str) -> FileModel {
    let toks: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut items: Vec<FnItem> = Vec::new();
    let mut test_mods: Vec<String> = Vec::new();
    let mut traits: Vec<String> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") {
            // `#[…]` / `#![…]` attribute: bracket-matched skip, noting
            // `#[test]` / `#[cfg(test)]`-style contents.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                let start = j;
                let mut depth = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct("[") {
                        depth += 1;
                    } else if toks[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let idents: Vec<&str> = toks[start..=j.min(toks.len() - 1)]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str())
                    .collect();
                let is_test_attr = idents.first() == Some(&"test")
                    || (idents.first() == Some(&"cfg") && idents.contains(&"test"));
                pending_test |= is_test_attr;
                i = j + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            let test = pending_test || scopes.iter().any(|s| s.test);
            scopes.push(Scope {
                kind: ScopeKind::Block,
                test,
            });
            pending_test = false;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            if let Some(s) = scopes.pop() {
                if let ScopeKind::Fn { item } = s.kind {
                    items[item].body.1 = i;
                }
            }
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            pending_test = false;
            i += 1;
            continue;
        }
        if t.is_ident("mod")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_punct(";"))
        {
            // A module in its own file; the `;` clears `pending_test`.
            if pending_test || scopes.iter().any(|s| s.test) {
                test_mods.push(toks[i + 1].text.clone());
            }
            i += 2;
            continue;
        }
        if t.is_ident("impl") {
            let (ty, tr, open) = parse_impl_header(&toks, i + 1);
            let test = pending_test || scopes.iter().any(|s| s.test);
            pending_test = false;
            match open {
                Some(open) => {
                    scopes.push(Scope {
                        kind: ScopeKind::Impl { ty, tr },
                        test,
                    });
                    i = open + 1;
                }
                None => i = toks.len(),
            }
            continue;
        }
        if t.is_ident("trait") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            // `trait Name … {`: default-method bodies inside are real
            // items (dyn-widened method calls must reach them).
            let name = toks[i + 1].text.clone();
            traits.push(name.clone());
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() {
                if toks[j].is_punct("<") {
                    angle += 1;
                } else if toks[j].is_punct(">") {
                    angle -= 1;
                } else if angle == 0 && (toks[j].is_punct("{") || toks[j].is_punct(";")) {
                    break;
                }
                j += 1;
            }
            let test = pending_test || scopes.iter().any(|s| s.test);
            pending_test = false;
            if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                scopes.push(Scope {
                    kind: ScopeKind::Impl {
                        ty: None,
                        tr: Some(name),
                    },
                    test,
                });
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = t.line;
            // The body's `{`, or the `;` of a bodiless declaration; a `;`
            // inside an array type (`-> [T; 3]`) is neither.
            let mut j = i + 2;
            let mut bracket = 0i32;
            while j < toks.len()
                && !toks[j].is_punct("{")
                && !(bracket == 0 && toks[j].is_punct(";"))
            {
                if toks[j].is_punct("[") {
                    bracket += 1;
                } else if toks[j].is_punct("]") {
                    bracket -= 1;
                }
                j += 1;
            }
            let is_test = pending_test || scopes.iter().any(|s| s.test);
            pending_test = false;
            if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                let (impl_type, trait_name) = scopes
                    .iter()
                    .rev()
                    .find_map(|s| match &s.kind {
                        ScopeKind::Impl { ty, tr } => Some((ty.clone(), tr.clone())),
                        _ => None,
                    })
                    .unwrap_or((None, None));
                let item = items.len();
                items.push(FnItem {
                    file: path.to_string(),
                    name,
                    impl_type,
                    trait_name,
                    line,
                    body: (j + 1, j + 1),
                    is_test,
                });
                scopes.push(Scope {
                    kind: ScopeKind::Fn { item },
                    test: is_test,
                });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    FileModel {
        toks,
        items,
        test_mods,
        traits,
    }
}

/// Where module `name`, declared in `file`, lives: its file is
/// `{prefix}.rs` or `{prefix}/mod.rs`, and its submodules sit under
/// `{prefix}/`.
fn module_prefix(file: &str, name: &str) -> String {
    let module = file.strip_suffix(".rs").unwrap_or(file);
    match module.rsplit_once('/') {
        Some((dir, "lib" | "main" | "mod")) => format!("{dir}/{name}"),
        _ => format!("{module}/{name}"),
    }
}

/// Whether `path` is the file of a module under one of `prefixes`
/// (from [`module_prefix`]), or sits below one.
fn in_modules(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        path.strip_prefix(p.as_str())
            .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
    })
}

/// The files of `files` that are test code by declaration: each module
/// a `#[cfg(test)] mod m;` declares, with every file below it.
pub fn declared_test_files(files: &[(String, String)]) -> Vec<String> {
    let prefixes: Vec<String> = files
        .iter()
        .flat_map(|(path, src)| {
            extract(path, src)
                .test_mods
                .into_iter()
                .map(move |m| module_prefix(path, &m))
        })
        .collect();
    files
        .iter()
        .filter(|(path, _)| in_modules(path, &prefixes))
        .map(|(path, _)| path.clone())
        .collect()
}

/// Parses an `impl` header starting at token `from`, returning the
/// impl'd type's last path segment, the trait name for trait impls,
/// and the index of the opening `{` (None on malformed input).
/// Generics are skipped by `<`/`>` depth (safe: the lexer fuses `->`).
fn parse_impl_header(toks: &[Tok], from: usize) -> (Option<String>, Option<String>, Option<usize>) {
    let mut angle = 0i32;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut collecting = true;
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if angle == 0 && t.is_punct("{") {
            let (ty, tr) = if saw_for {
                (after_for, before_for)
            } else {
                (before_for, None)
            };
            return (ty, tr, Some(j));
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "for" => saw_for = true,
                "where" => collecting = false,
                "dyn" | "mut" => {}
                name if collecting => {
                    if saw_for {
                        after_for = Some(name.to_string());
                    } else {
                        before_for = Some(name.to_string());
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    (None, None, None)
}

// ---------------------------------------------------------------------
// Body scanning: calls + direct alloc/panic sites
// ---------------------------------------------------------------------

/// Calls and direct sites recovered from one function body.
#[derive(Debug, Default)]
pub struct BodyScan {
    /// Outgoing call sites, in source order.
    pub calls: Vec<Call>,
    /// Direct allocation / panic sites.
    pub sites: Vec<Site>,
}

/// Scans the token range `body` of `toks` for call sites and for the
/// direct allocation / panic patterns listed in the module docs.
pub fn scan_body(toks: &[Tok], body: (usize, usize)) -> BodyScan {
    let mut out = BodyScan::default();
    for k in body.0..body.1.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let next = toks.get(k + 1);
        // Macro invocation: `name!(` / `name![` / `name!{`.
        if next.is_some_and(|n| n.is_punct("!"))
            && toks
                .get(k + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
        {
            match name {
                "vec" => out.sites.push(Site {
                    line: t.line,
                    kind: "alloc",
                    what: "`vec![…]` allocates".to_string(),
                }),
                "format" => out.sites.push(Site {
                    line: t.line,
                    kind: "alloc",
                    what: "`format!(…)` allocates".to_string(),
                }),
                "panic" | "unreachable" | "todo" | "unimplemented" => out.sites.push(Site {
                    line: t.line,
                    kind: "panic",
                    what: format!("`{name}!(…)`"),
                }),
                _ => {}
            }
            continue;
        }
        // Direct `alloc::` use.
        if name == "alloc" && next.is_some_and(|n| n.is_punct("::")) {
            out.sites.push(Site {
                line: t.line,
                kind: "alloc",
                what: "direct `alloc::` use".to_string(),
            });
            continue;
        }
        // Call: `name(`.
        if !next.is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        let prev2 = k.checked_sub(2).map(|p| &toks[p]);
        if prev.is_some_and(|p| p.is_punct(".")) {
            if ALLOC_METHODS.contains(&name) {
                out.sites.push(Site {
                    line: t.line,
                    kind: "alloc",
                    what: format!("`.{name}(…)` allocates (type-blind: vet if the receiver is not heap-backed)"),
                });
            }
            if name == "unwrap" || name == "expect" {
                out.sites.push(Site {
                    line: t.line,
                    kind: "panic",
                    what: format!("`.{name}(…)`"),
                });
            }
            if prev2.is_some_and(|p| p.is_ident("self")) {
                out.calls.push(Call::SelfMethod(name.to_string()));
            } else {
                out.calls.push(Call::Method(name.to_string()));
            }
        } else if prev.is_some_and(|p| p.is_punct("::"))
            && prev2.is_some_and(|p| p.kind == TokKind::Ident)
        {
            let q = prev2.map(|p| p.text.clone()).unwrap_or_default();
            if HEAP_TYPES.contains(&q.as_str()) {
                out.sites.push(Site {
                    line: t.line,
                    kind: "alloc",
                    what: format!("`{q}::{name}(…)` constructs a heap container"),
                });
            } else {
                out.calls.push(Call::Qualified(q, name.to_string()));
            }
        } else if prev.is_some_and(|p| p.is_ident("fn")) {
            // nested `fn name(` definition, not a call
        } else if !KEYWORDS.contains(&name) {
            out.calls.push(Call::Bare(name.to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Allow-list: cold barriers
// ---------------------------------------------------------------------

/// Parsed `xtask/analyze_allow.txt`.
#[derive(Debug, Default)]
pub struct AnalyzeAllow {
    /// `cold name` / `cold Type::name`: vetted cold-path functions the
    /// BFS must not descend into.
    pub cold: Vec<String>,
    /// `coldfile <path-substring>`: every function in a matching file is a
    /// cold barrier (for whole modules reached only via dyn-widening).
    pub coldfiles: Vec<String>,
    /// `keep name` / `keep Type::name`: a function no program reaches
    /// that a documented entry point or an integration test needs; a
    /// root of the `unreached` rule.
    pub keep: Vec<String>,
    /// Malformed lines, reported as findings.
    pub errors: Vec<(usize, String)>,
}

/// Parses the analyze allow-list (blank lines and `#` comments ignored).
pub fn parse_analyze_allow(text: &str) -> AnalyzeAllow {
    let mut out = AnalyzeAllow::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("cold ") {
            out.cold.push(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("coldfile ") {
            out.coldfiles.push(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("keep ") {
            out.keep.push(rest.trim().to_string());
        } else {
            out.errors.push((
                i + 1,
                "expected `cold …`, `coldfile …` or `keep …`".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// The analysis proper
// ---------------------------------------------------------------------

/// A steady-state entry point.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// `fn name` in any `impl …Type` block.
    Type(&'static str, &'static str),
    /// `fn name` in any `impl Trait for …` block.
    Trait(&'static str, &'static str),
}

impl Entry {
    fn display(&self) -> String {
        match self {
            Entry::Type(t, n) => format!("{t}::{n}"),
            Entry::Trait(t, n) => format!("<impl {t}>::{n}"),
        }
    }
}

/// The steady-state entry points of the workspace: one descriptor's
/// worth of work flows through these and nothing else once a run is
/// warm (see DESIGN.md §Static analysis).
pub const ENTRY_POINTS: &[Entry] = &[
    Entry::Type("FlowLutSim", "tick"),
    Entry::Type("Session", "offer"),
    Entry::Type("ShardedFlowLut", "tick"),
    Entry::Type("FlowService", "pump"),
    Entry::Trait("FlowPipeline", "push"),
    Entry::Trait("FlowPipeline", "poll"),
];

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line (0 for file/entry-level findings).
    pub line: usize,
    /// `hot-alloc` / `hot-panic` / `unreached` / `stale-allow` /
    /// `entry-missing` / `allow-syntax`.
    pub rule: &'static str,
    /// Shortest call chain from an entry point (empty when n/a).
    pub chain: String,
    /// What is wrong.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain)?;
        }
        Ok(())
    }
}

/// A vetted panic site that stayed on the hot path.
#[derive(Debug, Clone)]
pub struct VettedSite {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Always `"panic"`: allocations cannot be vetted.
    pub kind: &'static str,
    /// The matched pattern.
    pub what: String,
    /// Function containing the site (`Type::name` form).
    pub func: String,
    /// 1-based line where that function is defined.
    pub func_line: usize,
}

/// Everything `cargo xtask analyze` computed.
pub struct AnalyzeResult {
    /// Files analyzed.
    pub files: usize,
    /// `fn` items recovered (non-test).
    pub functions: usize,
    /// Call-graph edges.
    pub edges: usize,
    /// Functions reachable from the entry points (cold barriers pruned).
    pub reachable: usize,
    /// Functions reachable from a `fn main`, a method of a trait defined
    /// outside the sources or a `keep` entry (the complement is the
    /// `unreached` rule's findings).
    pub used: usize,
    /// Violations (empty on a clean tree).
    pub findings: Vec<Finding>,
    /// Vetted hot-path panic sites.
    pub vetted: Vec<VettedSite>,
    /// Cold barriers the BFS actually hit.
    pub cold_hits: Vec<String>,
}

/// Runs the reachability analyses over in-memory `(path, source)`
/// pairs. `panic_allow` is the parsed `lint_allow.txt`; `allow` the
/// parsed `analyze_allow.txt`. Separated from file discovery so the
/// seeded-violation tests drive it directly.
pub fn analyze_sources(
    files: &[(String, String)],
    entries: &[Entry],
    allow: &AnalyzeAllow,
    panic_allow: &[(String, String)],
) -> AnalyzeResult {
    // Extract every file's model once; keep raw lines for allow matching.
    let mut items: Vec<FnItem> = Vec::new();
    let mut scans: Vec<BodyScan> = Vec::new();
    let mut lines: std::collections::HashMap<&str, Vec<&str>> = std::collections::HashMap::new();
    let mut workspace_traits: std::collections::HashSet<String> = Default::default();
    let test_files = declared_test_files(files);
    for (path, src) in files {
        lines.insert(path.as_str(), src.lines().collect());
        if test_files.contains(path) {
            continue;
        }
        let model = extract(path, src);
        workspace_traits.extend(model.traits);
        for it in model.items {
            if it.is_test {
                continue;
            }
            scans.push(scan_body(&model.toks, it.body));
            items.push(it);
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    for (n, msg) in &allow.errors {
        findings.push(Finding {
            file: "xtask/analyze_allow.txt".to_string(),
            line: *n,
            rule: "allow-syntax",
            chain: String::new(),
            msg: msg.clone(),
        });
    }

    // Name-resolution maps.
    use std::collections::HashMap;
    let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_type: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, it) in items.iter().enumerate() {
        match (&it.impl_type, &it.trait_name) {
            (Some(t), tr) => {
                by_type.entry((t, &it.name)).or_default().push(id);
                methods_by_name.entry(&it.name).or_default().push(id);
                // An impl of a workspace trait's method: `Trait::name(…)`
                // may call it.
                if let Some(tr) = tr.as_ref().filter(|tr| workspace_traits.contains(*tr)) {
                    by_type.entry((tr, &it.name)).or_default().push(id);
                }
            }
            (None, Some(tr)) => {
                // Trait default method: a dyn-widened target, also
                // addressable UFCS-style as `Trait::name(…)`.
                by_type.entry((tr, &it.name)).or_default().push(id);
                methods_by_name.entry(&it.name).or_default().push(id);
            }
            (None, None) => free_by_name.entry(&it.name).or_default().push(id),
        }
    }

    // Edges.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
    let mut edge_count = 0usize;
    for (id, scan) in scans.iter().enumerate() {
        let mut targets: Vec<usize> = Vec::new();
        for call in &scan.calls {
            match call {
                Call::Bare(n) => targets.extend(free_by_name.get(n.as_str()).into_iter().flatten()),
                Call::Qualified(q, n) => {
                    let q = if q == "Self" {
                        items[id].impl_type.clone().unwrap_or_default()
                    } else {
                        q.clone()
                    };
                    match by_type.get(&(q.as_str(), n.as_str())) {
                        Some(ids) => targets.extend(ids),
                        // `module::fn` — otherwise the qualifier is an
                        // external type and the call leaves the workspace.
                        None => targets.extend(free_by_name.get(n.as_str()).into_iter().flatten()),
                    }
                }
                Call::SelfMethod(n) => {
                    let ty = items[id].impl_type.clone().unwrap_or_default();
                    match by_type.get(&(ty.as_str(), n.as_str())) {
                        Some(ids) => targets.extend(ids),
                        None => {
                            targets.extend(methods_by_name.get(n.as_str()).into_iter().flatten())
                        }
                    }
                }
                Call::Method(n) => {
                    targets.extend(methods_by_name.get(n.as_str()).into_iter().flatten())
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        edge_count += targets.len();
        edges[id] = targets;
    }

    // Entry points (each must resolve, or renames silently kill the pass).
    let mut roots: Vec<usize> = Vec::new();
    for e in entries {
        let ids: Vec<usize> = match e {
            Entry::Type(t, n) => items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.impl_type.as_deref() == Some(*t) && it.name == *n)
                .map(|(i, _)| i)
                .collect(),
            Entry::Trait(t, n) => items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.trait_name.as_deref() == Some(*t) && it.name == *n)
                .map(|(i, _)| i)
                .collect(),
        };
        if ids.is_empty() {
            findings.push(Finding {
                file: String::new(),
                line: 0,
                rule: "entry-missing",
                chain: String::new(),
                msg: format!(
                    "entry point `{}` resolves to no function — update ENTRY_POINTS after the rename",
                    e.display()
                ),
            });
        }
        roots.extend(ids);
    }
    roots.sort_unstable();
    roots.dedup();

    // Cold-barrier matching.
    let mut cold_used = vec![false; allow.cold.len()];
    let mut coldfile_used = vec![false; allow.coldfiles.len()];
    let is_cold = |it: &FnItem, cold_used: &mut Vec<bool>, coldfile_used: &mut Vec<bool>| -> bool {
        let mut hit = false;
        for (i, c) in allow.cold.iter().enumerate() {
            if names(c, it) {
                cold_used[i] = true;
                hit = true;
            }
        }
        for (i, p) in allow.coldfiles.iter().enumerate() {
            if it.file.contains(p.as_str()) {
                coldfile_used[i] = true;
                hit = true;
            }
        }
        hit
    };
    // Definition-level liveness: a `cold` entry must name a function
    // that exists at all (reported separately from never-reached).
    let cold_defined: Vec<bool> = allow
        .cold
        .iter()
        .map(|c| items.iter().any(|it| names(c, it)))
        .collect();

    // BFS with parent tracking for shortest chains.
    let mut parent: Vec<Option<usize>> = vec![None; items.len()];
    let mut seen = vec![false; items.len()];
    let mut queue = std::collections::VecDeque::new();
    for &r in &roots {
        if is_cold(&items[r], &mut cold_used, &mut coldfile_used) {
            continue;
        }
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if seen[v] {
                continue;
            }
            if is_cold(&items[v], &mut cold_used, &mut coldfile_used) {
                continue;
            }
            seen[v] = true;
            parent[v] = Some(u);
            queue.push_back(v);
        }
    }
    let chain_of = |mut id: usize| -> String {
        let mut names = vec![items[id].display()];
        while let Some(p) = parent[id] {
            names.push(items[p].display());
            id = p;
        }
        names.reverse();
        names.join(" → ")
    };

    // Findings: sites inside reachable functions, minus vetted panics.
    let mut vetted: Vec<VettedSite> = Vec::new();
    for (id, it) in items.iter().enumerate() {
        if !seen[id] {
            continue;
        }
        let file_lines = &lines[it.file.as_str()];
        for site in &scans[id].sites {
            let text = file_lines.get(site.line - 1).copied().unwrap_or_default();
            let rule = if site.kind == "alloc" {
                "hot-alloc"
            } else {
                "hot-panic"
            };
            let allowed = site.kind != "alloc"
                && panic_allow
                    .iter()
                    .any(|(p, frag)| it.file.ends_with(p.as_str()) && text.contains(frag.as_str()));
            if allowed {
                vetted.push(VettedSite {
                    file: it.file.clone(),
                    line: site.line,
                    kind: site.kind,
                    what: site.what.clone(),
                    func: it.display(),
                    func_line: it.line,
                });
            } else {
                findings.push(Finding {
                    file: it.file.clone(),
                    line: site.line,
                    rule,
                    chain: chain_of(id),
                    msg: format!(
                        "{} in `{}`, reachable from a steady-state entry point — {}",
                        site.what,
                        it.display(),
                        if site.kind == "alloc" {
                            "hoist to a scratch buffer"
                        } else {
                            "return an error, or vet the invariant in xtask/lint_allow.txt"
                        }
                    ),
                });
            }
        }
    }

    // `unreached`: what no `fn main` and no method of an outside trait
    // reaches. A `keep` entry must name a function that would otherwise
    // be a finding; what it names is a root from then on.
    let program_roots = items.iter().enumerate().filter(|(_, it)| {
        it.trait_name
            .as_ref()
            .is_some_and(|t| !workspace_traits.contains(t))
            || (it.name == "main" && it.impl_type.is_none())
    });
    let mut used = vec![false; items.len()];
    mark_reached(&edges, program_roots.map(|(id, _)| id), &mut used);
    for c in &allow.keep {
        let ids: Vec<usize> = (0..items.len())
            .filter(|&id| names(c, &items[id]))
            .collect();
        let stale = if ids.is_empty() {
            Some("names no function in the workspace")
        } else if ids.iter().any(|&id| used[id]) {
            Some("names a function a program reaches")
        } else {
            None
        };
        match stale {
            Some(why) => findings.push(Finding {
                file: "xtask/analyze_allow.txt".to_string(),
                line: 0,
                rule: "stale-allow",
                chain: String::new(),
                msg: format!("`keep {c}` {why} — prune it"),
            }),
            None => mark_reached(&edges, ids, &mut used),
        }
    }
    for (id, it) in items.iter().enumerate() {
        if !used[id] {
            findings.push(Finding {
                file: it.file.clone(),
                line: it.line,
                rule: "unreached",
                chain: String::new(),
                msg: format!(
                    "`{}` is reached from no `fn main` and no method of an outside trait — \
                     delete it, narrow it to #[cfg(test)], or `keep` it with a reason",
                    it.display()
                ),
            });
        }
    }

    // Stale allow entries are hard errors (the ratchet must not rot).
    for (i, c) in allow.cold.iter().enumerate() {
        if !cold_used[i] {
            findings.push(Finding {
                file: "xtask/analyze_allow.txt".to_string(),
                line: 0,
                rule: "stale-allow",
                chain: String::new(),
                msg: if cold_defined[i] {
                    format!("`cold {c}` was never reached from an entry point — prune it")
                } else {
                    format!("`cold {c}` names no function in the workspace — prune it")
                },
            });
        }
    }
    for (i, p) in allow.coldfiles.iter().enumerate() {
        if !coldfile_used[i] {
            findings.push(Finding {
                file: "xtask/analyze_allow.txt".to_string(),
                line: 0,
                rule: "stale-allow",
                chain: String::new(),
                msg: format!("`coldfile {p}` was never reached from an entry point — prune it"),
            });
        }
    }
    // Note: lint_allow.txt staleness is owned by `cargo xtask lint`
    // (whose no-panic rule scopes entries); not re-reported here.

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    vetted.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let mut cold_hits: Vec<String> = allow
        .cold
        .iter()
        .enumerate()
        .filter(|(i, _)| cold_used[*i])
        .map(|(_, c)| c.clone())
        .chain(
            allow
                .coldfiles
                .iter()
                .enumerate()
                .filter(|(i, _)| coldfile_used[*i])
                .map(|(_, p)| format!("file:{p}")),
        )
        .collect();
    cold_hits.sort();

    AnalyzeResult {
        files: files.len(),
        functions: items.len(),
        edges: edge_count,
        reachable: seen.iter().filter(|&&s| s).count(),
        used: used.iter().filter(|&&u| u).count(),
        findings,
        vetted,
        cold_hits,
    }
}

/// Whether allow-list entry `entry` (`Type::name`, or a bare name for a
/// free function) names `it`.
fn names(entry: &str, it: &FnItem) -> bool {
    *entry == it.display() || (!entry.contains("::") && *entry == it.name && it.impl_type.is_none())
}

/// Marks everything reachable from `roots` over `edges` in `seen`.
fn mark_reached(edges: &[Vec<usize>], roots: impl IntoIterator<Item = usize>, seen: &mut [bool]) {
    let mut stack: Vec<usize> = roots.into_iter().filter(|&r| !seen[r]).collect();
    for &r in &stack {
        seen[r] = true;
    }
    while let Some(u) = stack.pop() {
        for &v in &edges[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
}

/// Renders the `--json` report (hand-rolled: no serde in the image).
pub fn report_json(res: &AnalyzeResult) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"flowlut_analyze_v1\",\n");
    out.push_str(&format!("  \"files\": {},\n", res.files));
    out.push_str(&format!("  \"functions\": {},\n", res.functions));
    out.push_str(&format!("  \"call_edges\": {},\n", res.edges));
    out.push_str(&format!("  \"reachable_functions\": {},\n", res.reachable));
    out.push_str(&format!("  \"used_functions\": {},\n", res.used));
    out.push_str("  \"entry_points\": [");
    let entries: Vec<String> = ENTRY_POINTS
        .iter()
        .map(|e| format!("\"{}\"", esc(&e.display())))
        .collect();
    out.push_str(&entries.join(", "));
    out.push_str("],\n  \"findings\": [\n");
    let rows: Vec<String> = res
        .findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"chain\": \"{}\", \"msg\": \"{}\"}}",
                esc(&f.file),
                f.line,
                f.rule,
                esc(&f.chain),
                esc(&f.msg)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"vetted_hot_sites\": [\n");
    let rows: Vec<String> = res
        .vetted
        .iter()
        .map(|v| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"func\": \"{}\", \"func_line\": {}, \"what\": \"{}\"}}",
                esc(&v.file),
                v.line,
                v.kind,
                esc(&v.func),
                v.func_line,
                esc(&v.what)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"cold_barriers_hit\": [");
    let rows: Vec<String> = res
        .cold_hits
        .iter()
        .map(|c| format!("\"{}\"", esc(c)))
        .collect();
    out.push_str(&rows.join(", "));
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_tick() -> Vec<Entry> {
        vec![Entry::Type("FlowLutSim", "tick")]
    }

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, String)> {
        srcs.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    /// Findings of every rule but `unreached`, for sources with no
    /// `fn main`.
    fn hot_findings(res: &AnalyzeResult) -> Vec<&Finding> {
        res.findings
            .iter()
            .filter(|f| f.rule != "unreached")
            .collect()
    }

    /// Names of the functions reported `unreached`.
    fn unreached(res: &AnalyzeResult) -> Vec<&str> {
        res.findings
            .iter()
            .filter(|f| f.rule == "unreached")
            .map(|f| f.msg.split('`').nth(1).unwrap_or_default())
            .collect()
    }

    #[test]
    fn extracts_impl_methods_and_free_fns() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { helper(); }\n}\nfn helper() {}\nimpl FlowPipeline for FlowLutSim {\n    fn push(&mut self) {}\n}\n";
        let m = extract("a.rs", src);
        assert_eq!(m.items.len(), 3);
        assert_eq!(m.items[0].display(), "FlowLutSim::tick");
        assert_eq!(m.items[1].display(), "helper");
        assert_eq!(m.items[2].trait_name.as_deref(), Some("FlowPipeline"));
        assert_eq!(m.items[2].impl_type.as_deref(), Some("FlowLutSim"));
    }

    #[test]
    fn generic_impl_headers_resolve_to_base_type() {
        let src = "impl<P: FlowPipeline> Session<P> {\n    fn offer(&mut self) {}\n}\nimpl<T> fmt::Display for Wrapper<T> where T: Copy {\n    fn fmt(&self) {}\n}\n";
        let m = extract("a.rs", src);
        assert_eq!(m.items[0].display(), "Session::offer");
        assert_eq!(m.items[1].impl_type.as_deref(), Some("Wrapper"));
        assert_eq!(m.items[1].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { live(); }\n    #[test]\n    fn u() {}\n}\n#[test]\nfn also_test() {}\nfn live2() {}\n";
        let m = extract("a.rs", src);
        let live: Vec<&str> = m
            .items
            .iter()
            .filter(|i| !i.is_test)
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(live, vec!["live", "live2"]);
    }

    #[test]
    fn planted_hot_alloc_is_found_with_chain() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.step(); }\n    fn step(&mut self) { let v = vec![0u8; 4]; drop(v); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let alloc: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "hot-alloc")
            .collect();
        assert_eq!(alloc.len(), 1, "{:?}", res.findings);
        assert_eq!(alloc[0].line, 3);
        assert_eq!(alloc[0].chain, "FlowLutSim::tick → FlowLutSim::step");
    }

    #[test]
    fn transitive_panic_is_found_across_files() {
        let a = "impl FlowLutSim {\n    pub fn tick(&mut self) { deep_helper(1); }\n}\n";
        let b = "pub fn deep_helper(x: u32) { inner(x); }\nfn inner(x: u32) { x.checked_add(1).unwrap(); }\n";
        let res = analyze_sources(
            &files(&[
                ("crates/core/src/sim/mod.rs", a),
                ("crates/core/src/util.rs", b),
            ]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let p: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "hot-panic")
            .collect();
        assert_eq!(p.len(), 1, "{:?}", res.findings);
        assert_eq!(p[0].chain, "FlowLutSim::tick → deep_helper → inner");
    }

    #[test]
    fn cold_barrier_stops_traversal_and_unreached_code_is_free() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.cold_setup(); }\n    fn cold_setup(&mut self) { let v = vec![1]; drop(v); }\n    fn never_called(&mut self) { let v = vec![2]; drop(v); }\n}\n";
        let mut allow = AnalyzeAllow::default();
        allow.cold.push("FlowLutSim::cold_setup".to_string());
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &allow,
            &[],
        );
        assert!(
            hot_findings(&res).is_empty(),
            "cold + unreached allocs must not be findings: {:?}",
            res.findings
        );
        assert_eq!(res.cold_hits, vec!["FlowLutSim::cold_setup"]);
    }

    #[test]
    fn hot_alloc_is_a_finding_whatever_the_allow_file_says() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { let b = chunk.to_vec(); push(b); }\n}\nfn push(_b: u8) {}\n";
        // The `site` form that once vetted an allocation is a parse error.
        let allow = parse_analyze_allow("site crates/core/src/sim/mod.rs :: chunk.to_vec()\n");
        assert_eq!(allow.errors.len(), 1, "{:?}", allow.errors);
        // A panic entry naming the allocation's line does not vet it either.
        let panic_allow = vec![(
            "crates/core/src/sim/mod.rs".to_string(),
            "chunk.to_vec()".to_string(),
        )];
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &allow,
            &panic_allow,
        );
        let rules: Vec<&str> = hot_findings(&res).iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["hot-alloc", "allow-syntax"], "{:?}", res.findings);
        assert!(res.vetted.is_empty(), "{:?}", res.vetted);
    }

    #[test]
    fn panic_allow_reuses_lint_allow_entries() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.q.pop().expect(\"queue invariant\"); }\n}\n";
        let panic_allow = vec![(
            "crates/core/src/sim/mod.rs".to_string(),
            ".expect(\"queue invariant\")".to_string(),
        )];
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &panic_allow,
        );
        assert!(hot_findings(&res).is_empty(), "{:?}", res.findings);
        assert_eq!(res.vetted.len(), 1);
        assert_eq!(res.vetted[0].kind, "panic");
    }

    #[test]
    fn stale_allow_entries_are_hard_errors() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) {}\n}\n";
        let mut allow = AnalyzeAllow::default();
        allow.cold.push("FlowLutSim::gone".to_string());
        allow
            .coldfiles
            .push("crates/baselines/src/dead.rs".to_string());
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &allow,
            &[],
        );
        let stale: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "stale-allow")
            .collect();
        assert_eq!(stale.len(), 2, "{:?}", res.findings);
    }

    #[test]
    fn missing_entry_point_is_reported() {
        let res = analyze_sources(
            &files(&[("a.rs", "fn f() {}")]),
            &[Entry::Type("FlowLutSim", "tick")],
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(res.findings.iter().any(|f| f.rule == "entry-missing"));
    }

    #[test]
    fn dyn_widened_method_calls_reach_all_impls() {
        // `self.mem.tick()` must widen to every `tick` method — here the
        // DDR3 model's, whose vec![] then surfaces with a chain.
        let a = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.mem.tick(); }\n}\n";
        let b = "impl Ddr3Model {\n    pub fn tick(&mut self) -> Vec<u8> { vec![0] }\n}\n";
        let res = analyze_sources(
            &files(&[
                ("crates/core/src/sim/mod.rs", a),
                ("crates/ddr3/src/model.rs", b),
            ]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let alloc: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "hot-alloc")
            .collect();
        assert_eq!(alloc.len(), 1, "{:?}", res.findings);
        assert_eq!(alloc[0].chain, "FlowLutSim::tick → Ddr3Model::tick");
    }

    #[test]
    fn allocs_in_strings_and_comments_are_invisible() {
        let src = "impl FlowLutSim {\n    // vec![] in a comment\n    pub fn tick(&mut self) { let s = \"vec![0]; Box::new(1)\"; use_it(s); }\n}\nfn use_it(_s: &str) {}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(hot_findings(&res).is_empty(), "{:?}", res.findings);
    }

    #[test]
    fn heap_constructor_calls_are_alloc_sites() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { let b = Box::new(1); let v: Vec<u8> = Vec::with_capacity(8); drop((b, v)); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(
            res.findings
                .iter()
                .filter(|f| f.rule == "hot-alloc")
                .count(),
            2,
            "{:?}",
            res.findings
        );
    }

    #[test]
    fn a_function_nothing_calls_is_unreached() {
        let src = "fn main() { used(); }\nfn used() {}\nfn orphan() {}\n";
        let res = analyze_sources(
            &files(&[("examples/a.rs", src)]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(unreached(&res), ["orphan"], "{:?}", res.findings);
        assert_eq!(res.findings[0].line, 3);
        assert_eq!(res.used, 2);
    }

    #[test]
    fn main_trait_methods_and_their_callees_are_reached() {
        let bin = "fn main() { from_main(); }\nfn from_main() -> [u8; 2] { transitively(); S.provided(); [0; 2] }\nfn transitively() {}\n";
        let lib = "struct S;\nimpl std::fmt::Display for S {\n    fn fmt(&self, f: &mut Formatter) -> Result { from_impl(); Ok(()) }\n}\nfn from_impl() {}\ntrait T {\n    fn provided(&self) { from_default(); }\n}\nfn from_default() {}\nfn dead() {}\n";
        let res = analyze_sources(
            &files(&[("src/bin/a.rs", bin), ("crates/x/src/lib.rs", lib)]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(unreached(&res), ["dead"], "{:?}", res.findings);
    }

    /// A trait the sources define, with one method called by a program
    /// and one method (a default and its override) that nothing calls.
    const WORKSPACE_TRAIT: &str = "pub trait Model {\n    fn tick(&mut self);\n    fn stats(&self) -> u64 { 0 }\n}\nstruct M;\nimpl Model for M {\n    fn tick(&mut self) { step(); }\n    fn stats(&self) -> u64 { 1 }\n}\nfn step() {}\n";

    #[test]
    fn an_uncalled_workspace_trait_method_is_unreached() {
        let bin = "fn main() { let mut m = M; m.tick(); }\n";
        let res = analyze_sources(
            &files(&[
                ("src/bin/a.rs", bin),
                ("crates/x/src/lib.rs", WORKSPACE_TRAIT),
            ]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(unreached(&res), ["stats", "M::stats"], "{:?}", res.findings);
    }

    #[test]
    fn a_called_workspace_trait_method_is_reached() {
        let bin =
            "fn main() { let mut m = M; m.tick(); report(m.stats()); }\nfn report(_: u64) {}\n";
        let res = analyze_sources(
            &files(&[
                ("src/bin/a.rs", bin),
                ("crates/x/src/lib.rs", WORKSPACE_TRAIT),
            ]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(unreached(&res).is_empty(), "{:?}", res.findings);
    }

    #[test]
    fn a_trait_qualified_call_reaches_the_impls() {
        let bin = "fn main() { let mut m = M; Model::tick(&mut m); }\n";
        let res = analyze_sources(
            &files(&[
                ("src/bin/a.rs", bin),
                ("crates/x/src/lib.rs", WORKSPACE_TRAIT),
            ]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(unreached(&res), ["stats", "M::stats"], "{:?}", res.findings);
    }

    #[test]
    fn an_outside_trait_method_no_code_names_stays_reached() {
        let lib = "fn main() {}\nstruct S;\nimpl std::fmt::Display for S {\n    fn fmt(&self, f: &mut Formatter) -> Result { from_fmt(); Ok(()) }\n}\nfn from_fmt() {}\nimpl Drop for S {\n    fn drop(&mut self) {}\n}\n";
        let res = analyze_sources(
            &files(&[("crates/x/src/lib.rs", lib)]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(unreached(&res).is_empty(), "{:?}", res.findings);
    }

    #[test]
    fn a_function_only_tests_call_is_unreached() {
        let src = "fn main() {}\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::helper(); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/x/src/lib.rs", src)]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(unreached(&res), ["helper"], "{:?}", res.findings);
    }

    #[test]
    fn a_file_declared_cfg_test_is_test_code() {
        let lib = "fn main() {}\n#[cfg(test)]\nmod helpers;\n";
        let helpers = "fn helper() {}\n";
        let res = analyze_sources(
            &files(&[
                ("crates/x/src/lib.rs", lib),
                ("crates/x/src/helpers.rs", helpers),
            ]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(unreached(&res).is_empty(), "{:?}", res.findings);
    }

    #[test]
    fn a_file_declared_plain_mod_is_program_code() {
        let lib = "fn main() {}\nmod helpers;\n";
        let helpers = "fn helper() {}\n";
        let res = analyze_sources(
            &files(&[
                ("crates/x/src/lib.rs", lib),
                ("crates/x/src/helpers.rs", helpers),
            ]),
            &[],
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(unreached(&res), ["helper"], "{:?}", res.findings);
    }

    #[test]
    fn keep_entries_are_roots_and_must_stay_live() {
        let src = "fn main() { reached(); }\nfn reached() {}\nfn kept() { kept_callee(); }\nfn kept_callee() {}\n";
        let allow = parse_analyze_allow("keep kept\nkeep reached\nkeep gone\n");
        let res = analyze_sources(&files(&[("crates/x/src/lib.rs", src)]), &[], &allow, &[]);
        assert!(unreached(&res).is_empty(), "{:?}", res.findings);
        let stale: Vec<&str> = res
            .findings
            .iter()
            .filter(|f| f.rule == "stale-allow")
            .map(|f| f.msg.as_str())
            .collect();
        assert_eq!(stale.len(), 2, "{:?}", res.findings);
        assert!(stale[0].starts_with("`keep reached` names a function a program reaches"));
        assert!(stale[1].starts_with("`keep gone` names no function"));
    }

    #[test]
    fn allow_parser_flags_malformed_lines() {
        let a =
            parse_analyze_allow("cold A::b\ncoldfile x.rs\nbogus line\ncoldfilex.rs\nkeep C::d\n");
        assert_eq!(a.cold, vec!["A::b"]);
        assert_eq!(a.coldfiles, vec!["x.rs"]);
        assert_eq!(a.keep, vec!["C::d"]);
        let lines: Vec<usize> = a.errors.iter().map(|(n, _)| *n).collect();
        assert_eq!(lines, [3, 4]);
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        let src =
            "impl FlowLutSim {\n    pub fn tick(&mut self) { let v = vec![0]; drop(v); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let doc = crate::lint::parse_json(&report_json(&res)).expect("report must be valid JSON");
        assert!(doc.get("findings").is_some());
        assert!(doc.get("reachable_functions").is_some());
        assert!(matches!(
            doc.get("schema"),
            Some(crate::lint::Json::Str(s)) if s == "flowlut_analyze_v1"
        ));
    }
}
