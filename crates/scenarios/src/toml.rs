//! Hand-rolled TOML loader for scenario specs.
//!
//! The build environment has no crates.io access, so scenarios parse a
//! strict subset of TOML sufficient for the spec grammar (see DESIGN.md
//! §Scenario matrix):
//!
//! ```toml
//! [scenario]
//! name = "adversarial-flood"
//! seed = 42
//!
//! [[stage]]
//! kind = "zipf"
//! flows = 500
//! exponent = 0.98
//! packets = 2000
//!
//! [[stage]]
//! kind = "adversarial"
//! keys = 48
//! target_buckets = 4
//! table_buckets = 256
//! hash_seed = 24301
//! ```
//!
//! Supported: the `[scenario]` section, `[[stage]]` array-of-tables,
//! `key = value` pairs with quoted strings, unsigned integers and
//! floats, and `#` comments (full-line or trailing). Unknown sections,
//! unknown keys, duplicate keys and type mismatches are hard errors
//! with line numbers — a misspelled parameter must never silently fall
//! back to a default. So are an integer out of its field's range, a
//! parameter outside its generator's domain (the one `StageSpec` checks
//! and [`Scenario::generate`] asserts), and a packet count that
//! overflows `usize`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::spec::{Scenario, StageSpec};

/// A scenario-file parse error, with the 1-based line it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// 1-based line number (0 for end-of-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario spec: {}", self.message)
        } else {
            write!(f, "scenario spec line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ScenarioParseError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError {
        line,
        message: message.into(),
    }
}

/// A parsed TOML value (the subset the spec grammar needs).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(u64),
    Float(f64),
}

/// One `key = value` table with the lines the keys appeared on.
#[derive(Debug, Default)]
struct Table {
    entries: BTreeMap<String, (Value, usize)>,
    /// Line of the section header (for missing-key errors).
    header_line: usize,
}

impl Table {
    fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        self.entries.remove(key)
    }

    fn require_str(&mut self, key: &str) -> Result<String, ScenarioParseError> {
        match self.take(key) {
            Some((Value::Str(s), _)) => Ok(s),
            Some((_, line)) => Err(err(line, format!("`{key}` must be a quoted string"))),
            None => Err(err(
                self.header_line,
                format!("missing required key `{key}`"),
            )),
        }
    }

    /// An unsigned integer that must fit its field's type `T`.
    fn int<T: TryFrom<u64>>(&mut self, key: &str) -> Result<Option<T>, ScenarioParseError> {
        match self.take(key) {
            Some((Value::Int(v), line)) => T::try_from(v)
                .map(Some)
                .map_err(|_| err(line, format!("`{key}` = {v} is out of range"))),
            Some((_, line)) => Err(err(line, format!("`{key}` must be an unsigned integer"))),
            None => Ok(None),
        }
    }

    fn require_int<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, ScenarioParseError> {
        self.int(key)?
            .ok_or_else(|| err(self.header_line, format!("missing required key `{key}`")))
    }

    fn optional_int<T: TryFrom<u64>>(
        &mut self,
        key: &str,
        default: T,
    ) -> Result<T, ScenarioParseError> {
        Ok(self.int(key)?.unwrap_or(default))
    }

    fn require_float(&mut self, key: &str) -> Result<f64, ScenarioParseError> {
        match self.take(key) {
            Some((Value::Float(v), _)) => Ok(v),
            Some((Value::Int(v), _)) => Ok(v as f64),
            Some((_, line)) => Err(err(line, format!("`{key}` must be a number"))),
            None => Err(err(
                self.header_line,
                format!("missing required key `{key}`"),
            )),
        }
    }

    fn reject_unknown(&self, context: &str) -> Result<(), ScenarioParseError> {
        if let Some((key, (_, line))) = self.entries.iter().next() {
            return Err(err(*line, format!("unknown key `{key}` in {context}")));
        }
        Ok(())
    }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one `key = value` right-hand side.
fn parse_value(raw: &str, line: usize) -> Result<Value, ScenarioParseError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(err(line, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(err(line, "embedded quotes are not supported"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    // Underscore separators are TOML-legal in numbers.
    let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
    if let Ok(v) = cleaned.parse::<u64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = cleaned.parse::<f64>() {
        if v.is_finite() && v >= 0.0 {
            return Ok(Value::Float(v));
        }
    }
    Err(err(
        line,
        format!("cannot parse value `{raw}` (expected quoted string, unsigned integer or float)"),
    ))
}

/// Builds a [`StageSpec`] from a parsed `[[stage]]` table and adds its
/// packets to `total`.
fn build_stage(mut t: Table, total: &mut usize) -> Result<StageSpec, ScenarioParseError> {
    // Key lines, for the domain checks made after the values are taken.
    let lines: BTreeMap<String, usize> = t
        .entries
        .iter()
        .map(|(k, (_, line))| (k.clone(), *line))
        .collect();
    let kind = t.require_str("kind")?;
    let stage = match kind.as_str() {
        "uniform" => StageSpec::Uniform {
            flows: t.require_int("flows")?,
            packets: t.require_int("packets")?,
        },
        "zipf" => StageSpec::Zipf {
            flows: t.require_int("flows")?,
            exponent: t.require_float("exponent")?,
            packets: t.require_int("packets")?,
        },
        "elephant-mice" => StageSpec::ElephantMice {
            elephants: t.require_int("elephants")?,
            mice: t.require_int("mice")?,
            elephant_share: t.require_float("elephant_share")?,
            packets: t.require_int("packets")?,
        },
        "churn" => StageSpec::Churn {
            live_flows: t.require_int("live_flows")?,
            churn_rate: t.require_float("churn_rate")?,
            packets: t.require_int("packets")?,
        },
        "burst" => StageSpec::Burst {
            flows: t.require_int("flows")?,
            max_burst: t.require_int("max_burst")?,
            packets: t.require_int("packets")?,
        },
        "adversarial" => StageSpec::Adversarial {
            keys: t.require_int("keys")?,
            target_buckets: t.require_int("target_buckets")?,
            table_buckets: t.require_int("table_buckets")?,
            hash_seed: t.require_int("hash_seed")?,
            slot_bytes: t.optional_int("slot_bytes", 16)?,
            repeats: t.optional_int("repeats", 1)?,
        },
        other => {
            return Err(err(
                t.header_line,
                format!(
                    "unknown stage kind `{other}` (expected uniform, zipf, elephant-mice, \
                     churn, burst or adversarial)"
                ),
            ))
        }
    };
    t.reject_unknown(&format!("`{kind}` stage"))?;
    let line_of = |key: &str| lines.get(key).copied().unwrap_or(t.header_line);
    if let Some((key, reason)) = stage.out_of_domain() {
        return Err(err(line_of(key), format!("`{key}` {reason}")));
    }
    let key = match stage {
        StageSpec::Adversarial { .. } => "repeats",
        _ => "packets",
    };
    *total = total.checked_add(stage.packets()).ok_or_else(|| {
        err(
            line_of(key),
            format!("`{key}` overflows the scenario's packet count"),
        )
    })?;
    Ok(stage)
}

/// Parses a scenario spec from its TOML text.
///
/// # Errors
///
/// [`ScenarioParseError`] (with a line number) on any syntax error,
/// unknown section/key/kind, duplicate key, type mismatch, integer out
/// of its field's range, parameter outside its generator's domain,
/// packet count that overflows `usize`, or a spec with no stages.
pub fn parse_scenario(text: &str) -> Result<Scenario, ScenarioParseError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Scenario,
        Stage,
    }
    let mut section = Section::None;
    let mut scenario_table: Option<Table> = None;
    let mut stage_tables: Vec<Table> = Vec::new();

    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[scenario]" {
            if scenario_table.is_some() {
                return Err(err(line_no, "duplicate [scenario] section"));
            }
            scenario_table = Some(Table {
                header_line: line_no,
                ..Table::default()
            });
            section = Section::Scenario;
        } else if line == "[[stage]]" {
            stage_tables.push(Table {
                header_line: line_no,
                ..Table::default()
            });
            section = Section::Stage;
        } else if line.starts_with('[') {
            return Err(err(
                line_no,
                format!("unknown section `{line}` (expected [scenario] or [[stage]])"),
            ));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(err(line_no, format!("invalid key `{key}`")));
            }
            let value = parse_value(value, line_no)?;
            let table = match section {
                Section::None => {
                    return Err(err(line_no, "key outside any section"));
                }
                Section::Scenario => scenario_table.as_mut().expect("section implies table"),
                Section::Stage => stage_tables.last_mut().expect("section implies table"),
            };
            if table
                .entries
                .insert(key.clone(), (value, line_no))
                .is_some()
            {
                return Err(err(line_no, format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err(line_no, format!("cannot parse line `{line}`")));
        }
    }

    let Some(mut scenario_table) = scenario_table else {
        return Err(err(0, "missing [scenario] section"));
    };
    let name = scenario_table.require_str("name")?;
    let seed = scenario_table.optional_int("seed", 0)?;
    scenario_table.reject_unknown("[scenario]")?;

    if stage_tables.is_empty() {
        return Err(err(0, "scenario has no [[stage]] sections"));
    }
    let mut scenario = Scenario::new(name, seed);
    let mut packets = 0usize;
    for t in stage_tables {
        scenario = scenario.stage(build_stage(t, &mut packets)?);
    }
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::stage_seed;

    const FULL: &str = r#"
# A scenario exercising every stage kind.
[scenario]
name = "kitchen-sink"
seed = 42

[[stage]]
kind = "uniform"
flows = 100
packets = 1_000

[[stage]]
kind = "zipf"
flows = 500
exponent = 0.98
packets = 2000  # trailing comment

[[stage]]
kind = "elephant-mice"
elephants = 8
mice = 4000
elephant_share = 0.8
packets = 1500

[[stage]]
kind = "churn"
live_flows = 200
churn_rate = 0.05
packets = 1000

[[stage]]
kind = "burst"
flows = 16
max_burst = 64
packets = 800

[[stage]]
kind = "adversarial"
keys = 32
target_buckets = 4
table_buckets = 256
hash_seed = 24301
repeats = 2
"#;

    #[test]
    fn full_grammar_parses() {
        let s = parse_scenario(FULL).unwrap();
        assert_eq!(s.name, "kitchen-sink");
        assert_eq!(s.seed, 42);
        assert_eq!(s.stages.len(), 6);
        assert_eq!(s.stages[0].kind(), "uniform");
        assert_eq!(s.stages[5].kind(), "adversarial");
        assert_eq!(s.packets(), 1000 + 2000 + 1500 + 1000 + 800 + 64);
        // The parsed spec round-trips through the builder equivalent.
        assert_eq!(
            s.stages[1],
            StageSpec::Zipf {
                flows: 500,
                exponent: 0.98,
                packets: 2000
            }
        );
    }

    #[test]
    fn parsed_and_built_scenarios_generate_identically() {
        let toml = "[scenario]\nname = \"x\"\nseed = 7\n\n[[stage]]\nkind = \"uniform\"\nflows = 20\npackets = 100\n";
        let parsed = parse_scenario(toml).unwrap();
        let built = Scenario::new("x", 7).uniform(20, 100);
        assert_eq!(parsed, built);
        assert_eq!(parsed.generate(), built.generate());
    }

    #[test]
    fn defaults_applied() {
        let toml = "[scenario]\nname = \"d\"\n\n[[stage]]\nkind = \"adversarial\"\nkeys = 4\ntarget_buckets = 8\ntable_buckets = 64\nhash_seed = 1\n";
        let s = parse_scenario(toml).unwrap();
        assert_eq!(s.seed, 0);
        assert_eq!(
            s.stages[0],
            StageSpec::Adversarial {
                keys: 4,
                target_buckets: 8,
                table_buckets: 64,
                hash_seed: 1,
                slot_bytes: 16,
                repeats: 1
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("[scenario]\nname = \"a\"\n[[stage]]\nkind = \"nope\"\n", "unknown stage kind"),
            ("[scenario]\nname = \"a\"\n[[stage]]\nkind = \"uniform\"\nflows = 1\npackets = 1\nbogus = 3\n", "unknown key `bogus`"),
            ("[scenario]\nname = \"a\"\nname = \"b\"\n", "duplicate key"),
            ("[scenario]\nname = \"a\"\n[[stage]]\nkind = \"uniform\"\npackets = 9\n", "missing required key `flows`"),
            ("[other]\n", "unknown section"),
            ("x = 1\n", "outside any section"),
            ("[scenario]\nname = \"a\"\nseed = \"not a number\"\n[[stage]]\nkind=\"uniform\"\nflows=1\npackets=1\n", "unsigned integer"),
            ("[scenario]\nname = \"a\"\nseed = -4\n", "cannot parse value"),
            ("[scenario]\nseed = 3\n", "missing required key `name`"),
            ("[scenario]\nname = \"a\"\n", "no [[stage]] sections"),
        ];
        for (toml, want) in cases {
            let e = parse_scenario(toml).unwrap_err();
            assert!(
                e.to_string().contains(want),
                "input {toml:?}: error {e} does not mention {want:?}"
            );
        }
    }

    /// A one-stage spec: `[scenario]`, `name` and `[[stage]]` take
    /// lines 1–3, so `body` starts on line 4.
    fn one_stage(body: &str) -> String {
        format!("[scenario]\nname = \"h\"\n[[stage]]\n{body}")
    }

    #[test]
    fn specs_that_would_panic_in_generate_are_refused_at_their_line() {
        let adversarial = |tail: &str| {
            format!(
                "kind = \"adversarial\"\nkeys = 4\ntarget_buckets = 4\ntable_buckets = 64\n\
                 hash_seed = 1\n{tail}"
            )
        };
        let cases: Vec<(String, usize, &str)> = vec![
            ("kind = \"uniform\"\nflows = 0\npackets = 9\n".into(), 5, "`flows` must be non-zero"),
            ("kind = \"zipf\"\nflows = 0\nexponent = 0.9\npackets = 9\n".into(), 5, "`flows`"),
            ("kind = \"burst\"\nflows = 0\nmax_burst = 4\npackets = 9\n".into(), 5, "`flows`"),
            ("kind = \"burst\"\nflows = 4\nmax_burst = 0\npackets = 9\n".into(), 6, "`max_burst`"),
            ("kind = \"churn\"\nlive_flows = 0\nchurn_rate = 0.1\npackets = 9\n".into(), 5, "`live_flows`"),
            ("kind = \"churn\"\nlive_flows = 8\nchurn_rate = 2.0\npackets = 9\n".into(), 6, "`churn_rate` must be within [0, 1]"),
            ("kind = \"elephant-mice\"\nelephants = 0\nmice = 9\nelephant_share = 0.5\npackets = 9\n".into(), 5, "`elephants`"),
            ("kind = \"elephant-mice\"\nelephants = 2\nmice = 9\nelephant_share = 2.0\npackets = 9\n".into(), 7, "`elephant_share`"),
            ("kind = \"elephant-mice\"\nelephants = 2\nmice = 0\nelephant_share = 0.5\npackets = 9\n".into(), 6, "`mice`"),
            (adversarial("repeats = 0\n"), 9, "`repeats` must be non-zero"),
            (adversarial("slot_bytes = 0\n"), 9, "`slot_bytes`"),
            (adversarial("slot_bytes = 13\n"), 9, "`slot_bytes`"),
            (adversarial("repeats = 9223372036854775807\n"), 9, "`repeats` overflows"),
            (adversarial("").replace("table_buckets = 64", "table_buckets = 0"), 7, "`table_buckets`"),
            (adversarial("").replace("target_buckets = 4", "target_buckets = 0"), 6, "`target_buckets`"),
            (adversarial("").replace("target_buckets = 4", "target_buckets = 65"), 6, "`target_buckets`"),
            (adversarial("").replace("target_buckets = 4", "target_buckets = 4294967300"), 6, "= 4294967300 is out of range"),
            (
                format!("kind = \"uniform\"\nflows = 1\npackets = {}\n[[stage]]\nkind = \"uniform\"\nflows = 1\npackets = 1\n", usize::MAX),
                10,
                "`packets` overflows",
            ),
        ];
        for (body, line, want) in cases {
            let spec = one_stage(&body);
            let e = parse_scenario(&spec).unwrap_err();
            assert_eq!(e.line, line, "{spec:?}: {e}");
            assert!(
                e.message.contains(want),
                "{spec:?}: {e} does not mention {want:?}"
            );
        }
    }

    #[test]
    fn a_region_too_small_to_mine_is_in_domain() {
        // Accepted: every parameter is in its generator's domain. Mining
        // one key into 1 of 2^32 − 1 buckets never ends; the miner's
        // budget saturates instead of overflowing (see `adversarial`).
        let spec = one_stage(
            "kind = \"adversarial\"\nkeys = 1\ntarget_buckets = 1\n\
             table_buckets = 4294967295\nhash_seed = 1\n",
        );
        let scenario = parse_scenario(&spec).expect("in domain");
        assert_eq!(scenario.packets(), 1);
    }

    #[test]
    fn single_bit_flips_of_digits_parse_to_err_or_generate() {
        let zeroed = FULL.replace("target_buckets = 4", "target_buckets = 0");
        assert!(parse_scenario(&zeroed).is_err());
        // A stage is a pure function of its spec and sub-seed, so past
        // the unflipped spec only the stages a flip changed need
        // generating (the adversarial stage's mining dominates).
        let base = parse_scenario(FULL).unwrap();
        base.generate();
        let (mut refused, mut generated) = (0, 0);
        for (i, byte) in FULL.bytes().enumerate() {
            if !byte.is_ascii_digit() {
                continue;
            }
            for bit in 0..8 {
                let mut bytes = FULL.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                let Ok(text) = String::from_utf8(bytes) else {
                    continue;
                };
                let Ok(scenario) = parse_scenario(&text) else {
                    refused += 1;
                    continue;
                };
                let run = std::panic::catch_unwind(|| {
                    scenario.packets();
                    for (index, stage) in scenario.stages.iter().enumerate() {
                        if scenario.seed != base.seed || *stage != base.stages[index] {
                            stage.generate(stage_seed(scenario.seed, index));
                        }
                    }
                });
                let line = text[..i].lines().count();
                assert!(run.is_ok(), "flip of bit {bit} on line {line} panicked");
                generated += 1;
            }
        }
        assert!(
            refused > 0 && generated > 0,
            "{refused} refused, {generated} generated"
        );
    }

    #[test]
    fn comments_and_underscores_handled() {
        let toml = "# header\n[scenario] # section\nname = \"c#not-a-comment\"\nseed = 1_000\n\n[[stage]]\nkind = \"uniform\"\nflows = 10\npackets = 5\n";
        let s = parse_scenario(toml).unwrap();
        assert_eq!(s.name, "c#not-a-comment");
        assert_eq!(s.seed, 1000);
    }
}
