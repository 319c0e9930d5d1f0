//! The `check_regression` gate: one static table of rows per artifact
//! schema, one loop that holds a fresh artifact to the committed baseline.
//!
//! A row is `(key, rule)`; the rules are exact canaries, zero counters,
//! all-true identities and absolute floors/ceilings. Counts and identities
//! only: a drift in any of them is a behaviour change, so nothing has a
//! tolerance and nothing compares a wall clock (throughput and latency are
//! the `BENCHMARK.json` workloads' job). The table is picked by the
//! documents' own `"schema"` string; the tests below doctor every row of
//! every committed baseline and are the spec.
//!
//! The build has no JSON crate, so the module carries its own extractor for
//! the flat `"key": value` shapes the writers emit.

use std::borrow::Cow;

/// Floor on the measured offered-load swing (`swing_factor` in
/// `BENCH_elastic.json`): the hot phase must offer at least this multiple
/// of the quiet phases' frames per tick, or the elastic experiment is no
/// longer exercising the controller across a real load swing.
pub const MIN_ELASTIC_SWING: f64 = 4.0;

/// Absolute ceiling on the worst drain-barrier stall any elastic resize
/// may pay (`resize_stall_ms_max`), on every host. The experiment fleet is
/// tiny, so a stall near a second means the barrier stopped draining and
/// started waiting — a hang detector, not a performance gate.
pub const MAX_ELASTIC_STALL_MS: f64 = 1000.0;

/// How one row's value is judged. Only [`Rule::Exact`] reads the baseline;
/// every other rule is a property of the current run alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Equals the baseline — compared only when both documents agree on
    /// every listed *shape key* (the run dimensions the value depends on);
    /// otherwise the row is a visible NOTICE.
    Exact(&'static [&'static str]),
    /// Is zero.
    Zero,
    /// Every occurrence of the (boolean) key is `true`, and there is one.
    AllTrue,
    /// Is at least this constant.
    Floor(f64),
    /// Is at most this constant.
    Ceiling(f64),
    /// Is at least the current run's own value of another key.
    AtLeastKey(&'static str),
}

/// One gate: `(key, rule)`. Two key forms beyond a plain name: `*.suffix`
/// stands for every baseline key ending in `.suffix` (the query artifacts'
/// per-configuration counters), and a leading `?` marks the row optional —
/// skipped when neither document carries the key, where a required row (or
/// an optional one only one side carries) fails on a missing key.
pub type Row = (&'static str, Rule);

const INGEST_LOG: &[&str] = &["streams", "log_ticks"];
const INGEST: &[Row] = &[
    ("bit_identical", Rule::AllTrue),
    ("messages", Rule::Exact(INGEST_LOG)),
    ("packed_bytes", Rule::Exact(INGEST_LOG)),
    ("allocations", Rule::Zero),
];

const NET_FLEET: &[&str] = &["conns", "streams", "ticks"];
const NET: &[Row] = &[
    ("tcp_matches_sim", Rule::AllTrue),
    ("shed", Rule::Zero),
    ("rejected_hellos", Rule::Zero),
    ("decode_failures", Rule::Zero),
    ("total_messages", Rule::Exact(NET_FLEET)),
];

const DURABLE_SWEEP: &[&str] = &["streams", "ticks", "snapshot_every", "kill_count"];
const DURABLE: &[Row] = &[
    ("recovered_bit_identical", Rule::AllTrue),
    ("lockstep_traffic_identical", Rule::AllTrue),
    ("post_recovery_violations", Rule::Zero),
    ("replay_ticks_total", Rule::Exact(DURABLE_SWEEP)),
    ("wal_bytes_total", Rule::Exact(DURABLE_SWEEP)),
    ("snapshot_bytes_total", Rule::Exact(DURABLE_SWEEP)),
    ("syncs_final", Rule::Exact(DURABLE_SWEEP)),
];

// The controller reads only the offered traffic, so its decisions on a
// seeded sweep are exact.
const ELASTIC_SWEEP: &[&str] = &[
    "streams",
    "ticks",
    "sample_every",
    "min_shards",
    "max_shards",
];
const ELASTIC: &[Row] = &[
    ("elastic_bit_identical", Rule::AllTrue),
    ("fixed_reference_bit_identical", Rule::AllTrue),
    ("violations", Rule::Zero),
    ("swing_factor", Rule::Floor(MIN_ELASTIC_SWING)),
    ("grows_total", Rule::Exact(ELASTIC_SWEEP)),
    ("shrinks_total", Rule::Exact(ELASTIC_SWEEP)),
    ("resizes_total", Rule::Exact(ELASTIC_SWEEP)),
    ("total_messages", Rule::Exact(ELASTIC_SWEEP)),
    ("lockstep_swing_messages", Rule::Exact(ELASTIC_SWEEP)),
    ("resize_stall_ms_max", Rule::Ceiling(MAX_ELASTIC_STALL_MS)),
];

// Seeded, single-threaded experiments: any message drift is a behaviour
// change. Q2/Q3 add the served-bound-within-contract ratio; Q3 adds
// calibrated-interval coverage against the experiment's own floor.
const QUERY: &[Row] = &[
    ("*.messages", Rule::Exact(&[])),
    ("gate.violations", Rule::Zero),
    (
        "gate.savings_fraction",
        Rule::AtLeastKey("gate.min_savings_fraction"),
    ),
    ("?gate.max_bound_ratio", Rule::Ceiling(1.0 + 1e-9)),
    ("?gate.coverage", Rule::AtLeastKey("gate.min_coverage")),
];

/// The gate table of every artifact schema, by `"schema"` string:
/// `bench_ingest`, `bench_net`, `exp_crash_recovery --out`,
/// `exp_elastic_scaling --out`, and the `exp_q* --metrics-out` snapshots.
pub const SCHEMAS: &[(&str, &[Row])] = &[
    ("bench_ingest/v1", INGEST),
    ("bench_net/v1", NET),
    ("durable/v1", DURABLE),
    ("elastic/v1", ELASTIC),
    ("kalstream-obs/v1", QUERY),
];

/// Outcome of one comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Metric name, as printed in the report.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Whether the comparison passed.
    pub ok: bool,
    /// One-line explanation of the rule applied.
    pub rule: String,
}

/// A full gate run: every comparison plus the verdict.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Individual comparisons, in evaluation order.
    pub checks: Vec<Check>,
}

impl GateReport {
    /// True when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn verdict(&self) -> &'static str {
        ["FAIL", "PASS"][usize::from(self.passed())]
    }

    /// Renders the report as an aligned text table with a verdict line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self.checks.iter().fold(6, |w, c| w.max(c.name.len()));
        let _ = writeln!(
            out,
            "{:width$}        baseline         current  verdict  rule",
            "metric"
        );
        for c in &self.checks {
            let (name, baseline, current, rule) = (&c.name, c.baseline, c.current, &c.rule);
            let verdict = if c.ok { "ok     " } else { "FAIL   " };
            let _ = writeln!(
                out,
                "{name:width$}  {baseline:>14.3}  {current:>14.3}  {verdict}  {rule}"
            );
        }
        let _ = writeln!(out, "check-regression: {}", self.verdict());
        out
    }

    /// Renders the report as a GitHub-flavored markdown section (for
    /// `$GITHUB_STEP_SUMMARY`): a header naming the gate, a table of every
    /// comparison, and a bold verdict line.
    #[must_use]
    pub fn render_markdown(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "### {title}\n");
        let _ = writeln!(out, "| metric | baseline | current | verdict | rule |");
        let _ = writeln!(out, "|---|---:|---:|---|---|");
        for c in &self.checks {
            let (name, baseline, current, rule) = (&c.name, c.baseline, c.current, &c.rule);
            let verdict = if c.ok { "✅ ok" } else { "❌ FAIL" };
            let _ = writeln!(
                out,
                "| {name} | {baseline:.3} | {current:.3} | {verdict} | {rule} |"
            );
        }
        let _ = writeln!(out, "\n**check-regression: {}**\n", self.verdict());
        out
    }

    /// Appends a row; a value its document lacks is shown as NaN.
    fn push(&mut self, name: &str, b: Option<f64>, c: Option<f64>, ok: bool, rule: String) {
        self.checks.push(Check {
            name: name.to_string(),
            baseline: b.unwrap_or(f64::NAN),
            current: c.unwrap_or(f64::NAN),
            ok,
            rule,
        });
    }
}

/// The text after each `"key":` in `doc`.
fn values_of<'a>(doc: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let needle = format!("\"{key}\"");
    let mut rest = doc;
    std::iter::from_fn(move || loop {
        let at = rest.find(&needle)?;
        rest = &rest[at + needle.len()..];
        if let Some(value) = rest.trim_start().strip_prefix(':') {
            return Some(value.trim_start());
        }
    })
}

/// The number `text` starts with, if it starts with one.
fn leading_number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// First `"key": <number>` in `doc`.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    values_of(doc, key).find_map(leading_number)
}

/// Every `"key": true|false` in `doc`, in order.
fn json_bools(doc: &str, key: &str) -> Vec<bool> {
    values_of(doc, key)
        .filter_map(|v| match v {
            _ if v.starts_with("true") => Some(true),
            _ if v.starts_with("false") => Some(false),
            _ => None,
        })
        .collect()
}

/// First `"key": "<string>"` in `doc` (no escapes: schema names have none).
fn json_string<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    values_of(doc, key).find_map(|v| v.strip_prefix('"')?.split('"').next())
}

/// The brace-delimited object following the first `"key": {`, if any.
fn json_section<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let rest = values_of(doc, key).find(|v| v.starts_with('{'))?;
    let mut depth = 0i32;
    let close = rest.find(|c| {
        depth += i32::from(c == '{') - i32::from(c == '}');
        depth == 0
    })?;
    Some(&rest[..=close])
}

/// The name of every `"name": <number>` entry ending in `suffix`, in order:
/// the flat dotted-key `kalstream-obs/v1` artifacts put the interesting
/// counters (`.messages`) under per-configuration prefixes.
fn json_keys_with_suffix(doc: &str, suffix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let key = &after[..end];
        rest = &after[end + 1..];
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        if key.ends_with(suffix) && leading_number(value.trim_start()).is_some() {
            out.push(key.to_string());
        }
    }
    out
}

/// Holds a fresh artifact to its committed baseline, row by row of the
/// table its `"schema"` names.
///
/// A current document that says `"quick": true` is compared with the
/// baseline's `"quick_shape"` record (the canaries of the reduced CI
/// shape); a full one never sees that record. A schema whose table has
/// `Exact` rows must arm at least one of them — a run that compared no
/// canary has checked nothing, and fails.
///
/// # Errors
/// When either document lacks a `"schema"` string, the two disagree, or it
/// has no table: incomparable inputs are a usage error, not a verdict.
pub fn evaluate(baseline_doc: &str, current_doc: &str) -> Result<GateReport, String> {
    let name = json_string(baseline_doc, "schema").ok_or("baseline has no \"schema\" string")?;
    match json_string(current_doc, "schema") {
        Some(current) if current == name => {}
        other => return Err(format!("baseline is {name:?}, current is {other:?}")),
    }
    let (_, rows) = SCHEMAS
        .iter()
        .find(|(schema, _)| *schema == name)
        .ok_or_else(|| format!("no gate table for schema {name:?}"))?;
    let baseline: Cow<'_, str> = match json_section(baseline_doc, "quick_shape") {
        Some(quick) if json_bools(current_doc, "quick").first() == Some(&true) => quick.into(),
        Some(quick) => baseline_doc.replacen(quick, "{}", 1).into(),
        None => baseline_doc.into(),
    };
    let (mut report, mut armed) = (GateReport::default(), 0u32);
    for &(pattern, rule) in *rows {
        let (pattern, optional) = (pattern.trim_start_matches('?'), pattern.starts_with('?'));
        let keys = match pattern.strip_prefix('*') {
            Some(suffix) => json_keys_with_suffix(&baseline, suffix),
            None => vec![pattern.to_string()],
        };
        for key in &keys {
            if let Rule::Exact(shape) = rule {
                let differing = shape.iter().find_map(|k| {
                    let (b, c) = (json_number(&baseline, k), json_number(current_doc, k));
                    (b.is_none() || b != c).then(|| format!("{k} is {b:?} there, {c:?} here"))
                });
                if let Some(which) = differing {
                    // A skip must be visible, never a silent pass.
                    let why = format!("NOTICE: run shapes differ ({which}): not compared");
                    report.push(key, None, None, true, why);
                    continue;
                }
                armed += 1;
            }
            let (base, mut current) = (json_number(&baseline, key), json_number(current_doc, key));
            if optional && current.or(base).is_none() {
                continue;
            }
            let (limit, holds, rule): (_, fn(f64, f64) -> bool, _) = match rule {
                Rule::Exact(_) => (base, |c, b| c == b, "exact match".to_string()),
                Rule::Zero => (Some(0.0), |c, z| c == z, "must be zero".to_string()),
                Rule::AllTrue => {
                    let bits = json_bools(current_doc, key);
                    current = (!bits.is_empty()).then(|| f64::from(!bits.contains(&false)));
                    (Some(1.0), |c, t| c == t, "must be true".to_string())
                }
                Rule::Floor(x) => (Some(x), |c, x| c >= x, format!("≥ {x}")),
                Rule::Ceiling(x) => (Some(x), |c, x| c <= x, format!("≤ {x}")),
                Rule::AtLeastKey(other) => {
                    let floor = json_number(current_doc, other);
                    (floor, |c, o| c >= o, format!("≥ {other}"))
                }
            };
            let (ok, rule) = match (limit, current) {
                (Some(limit), Some(current)) => (holds(current, limit), rule),
                _ => (false, format!("{rule}: key missing")),
            };
            report.push(key, limit, current, ok, rule);
        }
    }
    if armed == 0 && rows.iter().any(|(_, rule)| matches!(rule, Rule::Exact(_))) {
        let why = "≥ 1: a gate that compared no canary has checked nothing".to_string();
        report.push("exact rows armed", Some(1.0), Some(0.0), false, why);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baselines: the four structured ones, then Q1–Q3.
    const BASELINES: [&str; 7] = [
        include_str!("../../../BENCH_ingest.json"),
        include_str!("../../../BENCH_net.json"),
        include_str!("../../../BENCH_durable.json"),
        include_str!("../../../BENCH_elastic.json"),
        include_str!("../../../BENCH_q1_query_bounds.json"),
        include_str!("../../../BENCH_q2_budget_realloc.json"),
        include_str!("../../../BENCH_q3_query_graph.json"),
    ];

    /// Rewrites every `"key": <number>` in `doc` to `value`.
    fn set_numbers(doc: &str, key: &str, value: f64) -> String {
        let needle = format!("\"{key}\": ");
        let (head, tail) = doc.split_once(&needle).expect("key present");
        let mut out = head.to_string();
        for piece in tail.split(&needle) {
            let end = piece.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
            let end = end.unwrap_or(piece.len());
            assert!(end > 0, "{key} is not followed by a number");
            out += &format!("{needle}{value}{}", &piece[end..]);
        }
        out
    }

    /// `doc` with every `"key":` renamed, so the key is missing from it.
    fn without(doc: &str, key: &str) -> String {
        doc.replace(&format!("\"{key}\":"), &format!("\"{key}_gone\":"))
    }

    fn number(doc: &str, key: &str) -> f64 {
        json_number(doc, key).unwrap_or_else(|| panic!("{key} not in the document"))
    }

    /// `doc`'s table, key forms resolved against it: `(key, rule, optional)`.
    fn rows_of(doc: &str) -> Vec<(String, Rule, bool)> {
        let schema = json_string(doc, "schema").expect("schema string");
        let (_, rows) = SCHEMAS.iter().find(|(s, _)| *s == schema).expect("table");
        let expand = |&(pattern, rule): &Row| {
            let (pattern, optional) = (pattern.trim_start_matches('?'), pattern.starts_with('?'));
            let keys = match pattern.strip_prefix('*') {
                Some(suffix) => json_keys_with_suffix(doc, suffix),
                None => vec![pattern.to_string()],
            };
            keys.into_iter().map(move |key| (key, rule, optional))
        };
        rows.iter().flat_map(expand).collect()
    }

    /// The names of the rows that fail `current` against `baseline`.
    fn failing(baseline: &str, current: &str) -> Vec<String> {
        let report = evaluate(baseline, current).expect("comparable documents");
        let failed = report.checks.into_iter().filter(|c| !c.ok);
        failed.map(|c| c.name).collect()
    }

    #[test]
    fn every_row_passes_on_its_baseline_and_fails_doctored_under_its_own_name() {
        for doc in BASELINES {
            assert!(failing(doc, doc).is_empty(), "{:?}", failing(doc, doc));
            for (key, rule, optional) in rows_of(doc) {
                if optional && json_number(doc, &key).is_none() {
                    // Q1/Q2 lack it; a run that grows it is still held to it.
                    let grown = doc.replacen('{', &format!("{{\n\"{key}\": 2,"), 1);
                    assert_eq!(failing(doc, &grown), [key.as_str()]);
                    continue;
                }
                let doctored = match rule {
                    Rule::Exact(_) => set_numbers(doc, &key, number(doc, &key) + 1.0),
                    Rule::Zero => set_numbers(doc, &key, 1.0),
                    Rule::AllTrue => {
                        let holds = format!("\"{key}\": true");
                        doc.replacen(&holds, &holds.replace("true", "false"), 1)
                    }
                    Rule::Floor(x) => set_numbers(doc, &key, x - 1e-3),
                    Rule::Ceiling(x) => set_numbers(doc, &key, 2.0 * x),
                    Rule::AtLeastKey(other) => {
                        // One key of the pair without the other is malformed.
                        assert_eq!(failing(doc, &without(doc, other)), [key.as_str()]);
                        set_numbers(doc, &key, number(doc, other) - 1e-3)
                    }
                };
                assert_eq!(failing(doc, &doctored), [key.as_str()], "{rule:?}");
                assert_eq!(failing(doc, &without(doc, &key)), [key.as_str()], "removed");
            }
        }
    }

    #[test]
    fn a_shape_change_is_a_notice_and_fails_when_it_leaves_no_exact_row_armed() {
        for doc in BASELINES {
            for (key, rule, _) in rows_of(doc) {
                let Rule::Exact(shape) = rule else { continue };
                for shape_key in shape {
                    let reshaped = set_numbers(doc, shape_key, number(doc, shape_key) + 1.0);
                    let report = evaluate(doc, &reshaped).expect("same schema");
                    let row = report.checks.iter().find(|c| c.name == key);
                    assert!(row.is_some_and(|c| c.ok && c.rule.starts_with("NOTICE")));
                    // Every guarded Exact row of a table shares its shape.
                    assert_eq!(failing(doc, &reshaped), ["exact rows armed"], "{shape_key}");
                }
            }
        }
    }

    #[test]
    fn a_quick_run_is_held_to_the_quick_shape_record() {
        for doc in &BASELINES[..2] {
            let quick = json_section(doc, "quick_shape").expect("ingest and net record one");
            let mut current = doc.replacen('{', "{\n  \"quick\": true,", 1);
            for key in json_keys_with_suffix(quick, "") {
                current = set_numbers(&current, &key, number(quick, &key));
            }
            let report = evaluate(doc, &current).expect("same schema");
            assert!(report.passed(), "{}", report.render());
            let exact = report.checks.iter().filter(|c| c.rule == "exact match");
            for check in exact {
                assert_eq!(check.baseline, number(quick, &check.name));
                assert_ne!(check.baseline, number(doc, &check.name)); // not the full shape's
                let drifted = set_numbers(&current, &check.name, check.current + 1.0);
                assert_eq!(failing(doc, &drifted), [check.name.as_str()]);
            }
            // No quick record to compare with: nothing armed, so not a pass.
            let bare = doc.replacen(quick, "{}", 1);
            assert_eq!(failing(&bare, &current), ["exact rows armed"]);
        }
    }

    #[test]
    fn incomparable_documents_are_an_error_not_a_verdict() {
        let ingest = BASELINES[0];
        assert!(evaluate(ingest, BASELINES[1]).is_err(), "schemas differ");
        assert!(evaluate("{}", ingest).is_err() && evaluate(ingest, "{}").is_err());
        let unknown = ingest.replace("bench_ingest/v1", "bench_ingest/v9");
        assert!(evaluate(&unknown, &unknown).is_err(), "no table for it");
    }

    #[test]
    fn structured_baselines_carry_no_line_the_gate_does_not_read() {
        for doc in &BASELINES[..4] {
            let rows = rows_of(doc);
            let mut read: Vec<&str> = rows.iter().map(|(key, _, _)| key.as_str()).collect();
            for (_, rule, _) in &rows {
                if let Rule::Exact(shape) = rule {
                    read.extend(*shape);
                }
            }
            let tokens: Vec<&str> = doc.split('"').collect();
            for pair in tokens.windows(2) {
                let after_colon = pair[1].trim_start().strip_prefix(':');
                let value = after_colon.map_or("", str::trim_start);
                if value.starts_with(|c: char| c.is_ascii_digit() || "-tf".contains(c)) {
                    assert!(read.contains(&pair[0]), "{} is read by no row", pair[0]);
                }
            }
        }
    }

    #[test]
    fn text_and_markdown_renderings_carry_every_row_and_the_verdict() {
        let elastic = BASELINES[3];
        let report = evaluate(elastic, elastic).expect("same schema");
        assert!(report.render().contains("check-regression: PASS"));
        let md = report.render_markdown("check-regression BENCH_elastic.json");
        assert!(md.starts_with("### check-regression BENCH_elastic.json\n"));
        assert!(md.contains("| swing_factor |") && md.contains("✅ ok"));
        assert!(md.ends_with("**check-regression: PASS**\n\n"));
        let broken = set_numbers(elastic, "violations", 1.0);
        let report = evaluate(elastic, &broken).expect("same schema");
        assert!(report.render().contains("check-regression: FAIL"));
        let md = report.render_markdown("x");
        assert!(md.contains("❌ FAIL") && md.contains("**check-regression: FAIL**"));
    }

    #[test]
    fn extractors_read_first_numbers_all_bools_sections_and_suffixes() {
        let [ingest, _, _, _, _, q2, _] = BASELINES;
        assert_eq!(json_number(ingest, "schema"), None); // a string, not a number
        assert_eq!(json_string(ingest, "schema"), Some("bench_ingest/v1"));
        assert_eq!(json_bools(ingest, "bit_identical"), vec![true; 4]);
        let quick = json_section(ingest, "quick_shape").expect("quick record");
        assert_eq!(json_number(quick, "messages"), Some(7978.0));
        assert_eq!(json_number(ingest, "messages"), Some(128300.0)); // the first wins
                                                                     // Q2: 3 epsilons × (uniform, realloc); `ack_messages` lacks the dot.
        let counters = json_keys_with_suffix(q2, ".messages");
        assert_eq!(counters.len(), 6);
        assert!(counters.contains(&"epsilon_2.realloc.messages".to_string()));
        assert_eq!(json_number(q2, "epsilon_2.realloc.messages"), Some(10623.0));
        assert!(json_keys_with_suffix("{\"schema\": \"x.messages\"}", ".messages").is_empty());
    }
}
