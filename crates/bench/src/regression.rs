//! The `check-regression` gate: compares a freshly measured
//! `BENCH_kernels.json` / `BENCH_ingest.json` / `BENCH_q*_*.json` against
//! the committed baseline and fails loudly on regression.
//!
//! The vendored `serde` stand-in has no deserializer, so this module
//! carries its own tiny extractor for the flat `"key": value` shapes the
//! bench writers emit — sufficient, dependency-free, and unit-testable
//! against doctored baselines (the acceptance criterion for the CI gate).
//!
//! Tolerance contract: throughput/latency comparisons allow a relative
//! slack read from the baseline's own `regression_tolerance` field
//! (default [`DEFAULT_TOLERANCE`] = 25%, documented in the JSON itself),
//! because wall-clock numbers move with the host. Determinism canaries
//! (`fleet_total_messages`, `bit_identical`, allocation counts) get **no**
//! tolerance: they are exact by construction and a drift is a bug.

/// Relative tolerance applied to wall-clock throughput and latency
/// comparisons when the baseline doesn't carry its own
/// `regression_tolerance` field.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Floor on the networked-fleet wall-clock speedup over the single-core
/// sequential reference (`speedup_wall` in `BENCH_net.json`). The sharded
/// TCP front end must beat sequential ingest by this factor at fleet
/// scale — but wall clock only shows it when the host actually has cores
/// to shard across, so the gate applies only on hosts with at least
/// [`NET_SPEEDUP_MIN_CORES`]; below that it is logged as a notice.
pub const MIN_NET_WALL_SPEEDUP: f64 = 4.0;

/// Core-count threshold above which the [`MIN_NET_WALL_SPEEDUP`] wall
/// gate applies (single-core hosts serialize the shards by construction).
pub const NET_SPEEDUP_MIN_CORES: f64 = 4.0;

/// Floor on the scalar-vs-batch fleet speedup (`batch_fleet_speedup` in
/// `BENCH_kernels.json`). The structure-of-arrays kernels are the point of
/// the batch layer; if packing 1 000 same-model streams into `FleetBatch`
/// lanes ever drops below this multiple of the scalar path, the layout (or
/// a dispatch change on top of it) has regressed and the gate fails — no
/// host tolerance, since the ratio is measured on one machine in one run.
///
/// The scalar side is `KalmanFilter::predict`/`update`, which since the
/// shape dispatch run the same monomorphized kernel the lanes do: the
/// ratio now prices the layout alone (4–5.5× measured, against ≈ 15× when
/// the scalar side was the shape-generic code and the floor was 4.0).
pub const MIN_BATCH_SPEEDUP: f64 = 2.5;

/// Floor on the measured offered-load swing (`swing_factor` in
/// `BENCH_elastic.json`): the hot phase must offer at least this multiple
/// of the quiet phases' frames per tick, or the elastic experiment is no
/// longer exercising the controller across a real load swing.
pub const MIN_ELASTIC_SWING: f64 = 4.0;

/// Absolute ceiling on the worst drain-barrier stall any elastic resize
/// may pay (`resize_stall_ms_max`), gated on every host. The experiment
/// fleet is tiny, so a stall near a second means the barrier stopped
/// draining and started waiting — a hang, not host noise.
pub const MAX_ELASTIC_STALL_MS: f64 = 1000.0;

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

    /// Renders the report as an aligned text table with a verdict line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self
            .checks
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(4)
            .max(6);
        let _ = writeln!(
            out,
            "{:width$}  {:>14}  {:>14}  verdict  rule",
            "metric", "baseline", "current"
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:width$}  {:>14.3}  {:>14.3}  {}  {}",
                c.name,
                c.baseline,
                c.current,
                if c.ok { "ok     " } else { "FAIL   " },
                c.rule,
            );
        }
        let _ = writeln!(
            out,
            "check-regression: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
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
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.3} | {} | {} |",
                c.name,
                c.baseline,
                c.current,
                if c.ok { "✅ ok" } else { "❌ FAIL" },
                c.rule.replace('|', "\\|"),
            );
        }
        let _ = writeln!(
            out,
            "\n**check-regression: {}**\n",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }

    fn push(&mut self, name: &str, baseline: f64, current: f64, ok: bool, rule: String) {
        self.checks.push(Check {
            name: name.to_string(),
            baseline,
            current,
            ok,
            rule,
        });
    }

    /// Lower-is-better wall-clock metric (latency): fail when current
    /// exceeds baseline by more than `tol`.
    fn latency(&mut self, name: &str, baseline: f64, current: f64, tol: f64) {
        let limit = baseline * (1.0 + tol);
        self.push(
            name,
            baseline,
            current,
            current <= limit,
            format!("≤ baseline × {:.2}", 1.0 + tol),
        );
    }

    /// Higher-is-better wall-clock metric (throughput): fail when current
    /// falls below baseline by more than `tol`.
    fn throughput(&mut self, name: &str, baseline: f64, current: f64, tol: f64) {
        let limit = baseline * (1.0 - tol);
        self.push(
            name,
            baseline,
            current,
            current >= limit,
            format!("≥ baseline × {:.2}", 1.0 - tol),
        );
    }

    /// Exact determinism canary: any drift fails.
    fn exact(&mut self, name: &str, baseline: f64, current: f64) {
        self.push(
            name,
            baseline,
            current,
            baseline == current,
            "exact match".to_string(),
        );
    }

    /// Boolean invariant that must hold in the current measurement.
    fn must_hold(&mut self, name: &str, holds: bool) {
        self.push(
            name,
            1.0,
            f64::from(u8::from(holds)),
            holds,
            "must be true".to_string(),
        );
    }

    /// A logged, always-passing row recording that a comparison was
    /// deliberately skipped (and why) — a skipped wall-clock gate must be
    /// visible in the report, never a silent pass.
    fn notice(&mut self, name: &str, baseline: f64, current: f64, why: String) {
        self.push(name, baseline, current, true, format!("NOTICE: {why}"));
    }
}

/// Whether wall-clock numbers in `baseline` and `current` were measured on
/// hosts with the same core count. Pre-`available_parallelism` artifacts
/// (either side missing the field) compare as before — the field's absence
/// must not weaken an existing gate.
fn cores_comparable(baseline: &str, current: &str) -> (Option<f64>, Option<f64>, bool) {
    let b = json_number(baseline, "available_parallelism");
    let c = json_number(current, "available_parallelism");
    let comparable = match (b, c) {
        (Some(b), Some(c)) => b == c,
        _ => true,
    };
    (b, c, comparable)
}

/// Extracts the first `"key": <number>` occurrence after `from` in `doc`.
/// Returns the value and the index just past it.
fn number_after(doc: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\"");
    let hay = &doc[from..];
    let mut search_from = 0usize;
    loop {
        let k = hay[search_from..].find(&needle)? + search_from;
        let rest = &hay[k + needle.len()..];
        let rest_trim = rest.trim_start();
        if let Some(after_colon) = rest_trim.strip_prefix(':') {
            let value_str = after_colon.trim_start();
            let end = value_str
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(value_str.len());
            if let Ok(v) = value_str[..end].parse::<f64>() {
                let consumed = doc.len() - value_str.len() + end - from;
                return Some((v, from + consumed));
            }
        }
        search_from = k + needle.len();
    }
}

/// First `"key": <number>` in `doc`.
#[must_use]
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    number_after(doc, key, 0).map(|(v, _)| v)
}

/// Every `"key": <number>` in `doc`, in order.
#[must_use]
pub fn json_numbers(doc: &str, key: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some((v, next)) = number_after(doc, key, from) {
        out.push(v);
        from = next;
    }
    out
}

/// Every `"name": <number>` entry whose name ends in `suffix`, in order.
/// Matches the flat dotted-key metric artifacts (`kalstream-obs/v1`), where
/// the interesting keys share a suffix (`.messages`, `.violations`) under
/// per-configuration prefixes the gate doesn't want to hard-code.
#[must_use]
pub fn json_entries_with_suffix(doc: &str, suffix: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let key = &after[..end];
        rest = &after[end + 1..];
        let Some(value_str) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        let value_str = value_str.trim_start();
        let stop = value_str
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(value_str.len());
        if key.ends_with(suffix) {
            if let Ok(v) = value_str[..stop].parse::<f64>() {
                out.push((key.to_string(), v));
            }
        }
    }
    out
}

/// Every `"key": true|false` in `doc`, in order.
#[must_use]
pub fn json_bools(doc: &str, key: &str) -> Vec<bool> {
    let needle = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(k) = doc[from..].find(&needle) {
        let rest = doc[from + k + needle.len()..].trim_start();
        if let Some(rest) = rest.strip_prefix(':') {
            let rest = rest.trim_start();
            if rest.starts_with("true") {
                out.push(true);
            } else if rest.starts_with("false") {
                out.push(false);
            }
        }
        from += k + needle.len();
    }
    out
}

/// The brace-delimited object following `"key":`, if any.
#[must_use]
pub fn json_section<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let k = doc.find(&needle)?;
    let rest = doc[k + needle.len()..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads the baseline's documented tolerance, falling back to
/// [`DEFAULT_TOLERANCE`].
#[must_use]
pub fn tolerance_of(baseline: &str, override_tol: Option<f64>) -> f64 {
    override_tol
        .or_else(|| json_number(baseline, "regression_tolerance"))
        .unwrap_or(DEFAULT_TOLERANCE)
}

/// Gates a fresh `bench_kernels` measurement against its baseline.
///
/// * latencies (`predict_ns`, `update_ns`, `suppression_decision_ns`, and
///   the batch per-step costs `batch_predict_ns` / `batch_update_ns` when
///   both sides carry them): lower-is-better within tolerance;
/// * allocation counts: exact (the hot path is allocation-free by gate);
/// * `fleet_total_messages`: exact determinism canary, compared only when
///   both sides ran the same fleet shape; `fleet_wall_ms` is gated within
///   tolerance under the same shape guard;
/// * `batch_fleet_speedup`: must be ≥ [`MIN_BATCH_SPEEDUP`] in the current
///   run, and `batch_matches_scalar` must be true (bit-identity canary for
///   the structure-of-arrays kernels); `batch_fleet_wall_ms` is gated only
///   when both sides ran the batch fleet at the same shape (`--quick`
///   shortens it).
///
/// The committed baseline carries `before`/`after` sections; the `after`
/// section is the baseline measurement. A bare (sectionless) document is
/// accepted too, for artifacts produced without `--before`.
#[must_use]
pub fn check_kernels(
    baseline_doc: &str,
    current_doc: &str,
    override_tol: Option<f64>,
) -> GateReport {
    let tol = tolerance_of(baseline_doc, override_tol);
    let baseline = json_section(baseline_doc, "after").unwrap_or(baseline_doc);
    let current = json_section(current_doc, "after").unwrap_or(current_doc);
    let mut report = GateReport::default();
    let (bc, cc, wall_comparable) = cores_comparable(baseline, current);
    if !wall_comparable {
        report.notice(
            "wall-clock gates skipped",
            bc.unwrap_or(0.0),
            cc.unwrap_or(0.0),
            "core counts differ: wall clock incomparable across hosts".to_string(),
        );
    }
    for key in ["predict_ns", "update_ns", "suppression_decision_ns"] {
        match (json_number(baseline, key), json_number(current, key)) {
            (Some(b), Some(c)) if wall_comparable => report.latency(key, b, c, tol),
            (Some(_), Some(_)) => {} // skipped, noticed above
            _ => report.must_hold(&format!("{key} present"), false),
        }
    }
    for key in ["allocs_per_tick", "allocs_per_filter_step"] {
        match (json_number(baseline, key), json_number(current, key)) {
            (Some(b), Some(c)) => report.exact(key, b, c),
            _ => report.must_hold(&format!("{key} present"), false),
        }
    }
    let same_shape = json_number(baseline, "fleet_streams")
        == json_number(current, "fleet_streams")
        && json_number(baseline, "fleet_ticks") == json_number(current, "fleet_ticks");
    if same_shape {
        match (
            json_number(baseline, "fleet_total_messages"),
            json_number(current, "fleet_total_messages"),
        ) {
            (Some(b), Some(c)) => report.exact("fleet_total_messages", b, c),
            _ => report.must_hold("fleet_total_messages present", false),
        }
        match (
            json_number(baseline, "fleet_wall_ms"),
            json_number(current, "fleet_wall_ms"),
        ) {
            (Some(b), Some(c)) if wall_comparable => report.latency("fleet_wall_ms", b, c, tol),
            (Some(_), Some(_)) => {}
            _ => report.must_hold("fleet_wall_ms present", false),
        }
    }

    // Batch fleet: per-step latencies compare across shapes (they are
    // normalized per stream-step); the raw wall only within shape.
    for key in ["batch_predict_ns", "batch_update_ns"] {
        if let (Some(b), Some(c)) = (json_number(baseline, key), json_number(current, key)) {
            if wall_comparable {
                report.latency(key, b, c, tol);
            }
        }
    }
    let same_batch_shape = json_number(baseline, "batch_fleet_streams")
        == json_number(current, "batch_fleet_streams")
        && json_number(baseline, "batch_fleet_ticks") == json_number(current, "batch_fleet_ticks");
    if same_batch_shape && wall_comparable {
        if let (Some(b), Some(c)) = (
            json_number(baseline, "batch_fleet_wall_ms"),
            json_number(current, "batch_fleet_wall_ms"),
        ) {
            report.latency("batch_fleet_wall_ms", b, c, tol);
        }
    }
    match json_number(current, "batch_fleet_speedup") {
        Some(s) => report.push(
            "batch_fleet_speedup",
            MIN_BATCH_SPEEDUP,
            s,
            s >= MIN_BATCH_SPEEDUP,
            format!("≥ {MIN_BATCH_SPEEDUP:.1} (SoA floor)"),
        ),
        None => report.must_hold("batch_fleet_speedup present", false),
    }
    let matches = json_bools(current, "batch_matches_scalar");
    report.must_hold(
        "batch_matches_scalar",
        matches.first().copied().unwrap_or(false),
    );
    report
}

/// Gates a fresh `bench_ingest` measurement against its baseline.
///
/// * every `bit_identical` flag in the current run must be true (sharded ==
///   sequential is exact, not statistical);
/// * triangle-packing savings must not fall below the baseline by more than
///   two points (encoding is deterministic; slack covers workload-size
///   differences between full and `--quick` runs);
/// * sequential and best-capacity throughput: higher-is-better within
///   tolerance.
#[must_use]
pub fn check_ingest(
    baseline_doc: &str,
    current_doc: &str,
    override_tol: Option<f64>,
) -> GateReport {
    let tol = tolerance_of(baseline_doc, override_tol);
    let mut report = GateReport::default();
    let (bc, cc, wall_comparable) = cores_comparable(baseline_doc, current_doc);
    if !wall_comparable {
        report.notice(
            "wall-clock gates skipped",
            bc.unwrap_or(0.0),
            cc.unwrap_or(0.0),
            "core counts differ: wall clock incomparable across hosts".to_string(),
        );
    }

    let bits = json_bools(current_doc, "bit_identical");
    report.must_hold(
        "bit_identical (all shard counts)",
        !bits.is_empty() && bits.iter().all(|b| *b),
    );

    match (
        json_section(baseline_doc, "total").and_then(|s| json_number(s, "savings_fraction")),
        json_section(current_doc, "total").and_then(|s| json_number(s, "savings_fraction")),
    ) {
        (Some(b), Some(c)) => report.push(
            "packing_savings_fraction",
            b,
            c,
            c >= b - 0.02,
            "≥ baseline − 0.02".to_string(),
        ),
        _ => report.must_hold("savings_fraction present", false),
    }

    let seq =
        |doc: &str| json_section(doc, "sequential").and_then(|s| json_number(s, "msgs_per_sec"));
    match (seq(baseline_doc), seq(current_doc)) {
        (Some(b), Some(c)) if wall_comparable => {
            report.throughput("sequential_msgs_per_sec", b, c, tol);
        }
        (Some(_), Some(_)) => {} // skipped, noticed above
        _ => report.must_hold("sequential msgs_per_sec present", false),
    }

    let best_capacity = |doc: &str| {
        json_numbers(doc, "msgs_per_sec_capacity")
            .into_iter()
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
    };
    match (best_capacity(baseline_doc), best_capacity(current_doc)) {
        (Some(b), Some(c)) if wall_comparable => {
            report.throughput("best_capacity_msgs_per_sec", b, c, tol);
        }
        (Some(_), Some(_)) => {}
        _ => report.must_hold("msgs_per_sec_capacity present", false),
    }

    match json_number(current_doc, "allocations") {
        Some(a) => report.exact("steady_state_allocations", 0.0, a),
        None => report.must_hold("steady_state allocations present", false),
    }
    report
}

/// Gates a fresh `bench_net` measurement (`BENCH_net.json`) against its
/// baseline.
///
/// * `tcp_matches_sim`: the networked fleet's final filter state must be
///   bit-identical to the sequential sim reference — exact, any host;
/// * `shed` / `rejected_hellos` / `decode_failures`: must be zero (a shed
///   ack or a rejected hello on a clean loopback run is a server bug);
/// * `total_messages`: exact determinism canary when both runs used the
///   same fleet shape (`conns`/`streams`/`ticks`);
/// * networked throughput (wall and capacity): higher-is-better within
///   tolerance, compared only when both hosts have the same core count
///   (skips are logged as NOTICE rows, never silent);
/// * `speedup_wall` ≥ [`MIN_NET_WALL_SPEEDUP`]: the headline multi-core
///   claim, gated only on hosts with ≥ [`NET_SPEEDUP_MIN_CORES`] cores —
///   a single-core host serializes the shards by construction, so the run
///   records the number and the gate logs a NOTICE instead;
/// * `speedup_capacity` ≥ 1: the shard critical path must never be slower
///   than sequential ingest, even on one core (busy-time, not wall).
#[must_use]
pub fn check_net(baseline_doc: &str, current_doc: &str, override_tol: Option<f64>) -> GateReport {
    let tol = tolerance_of(baseline_doc, override_tol);
    let mut report = GateReport::default();

    // Correctness canaries: host-independent, always gated.
    let bits = json_bools(current_doc, "tcp_matches_sim");
    report.must_hold(
        "tcp_matches_sim",
        !bits.is_empty() && bits.iter().all(|b| *b),
    );
    for key in ["shed", "rejected_hellos", "decode_failures"] {
        match json_number(current_doc, key) {
            Some(v) => report.exact(key, 0.0, v),
            None => report.must_hold(&format!("{key} present"), false),
        }
    }

    // Same fleet shape ⇒ the applied message total is exact.
    let same_shape = ["conns", "streams", "ticks"]
        .iter()
        .all(|k| json_number(baseline_doc, k) == json_number(current_doc, k));
    if same_shape {
        match (
            json_number(baseline_doc, "total_messages"),
            json_number(current_doc, "total_messages"),
        ) {
            (Some(b), Some(c)) => report.exact("total_messages", b, c),
            _ => report.must_hold("total_messages present", false),
        }
    }

    let (bc, cc, wall_comparable) = cores_comparable(baseline_doc, current_doc);
    let net_number =
        |doc: &str, key: &str| json_section(doc, "net").and_then(|s| json_number(s, key));
    if wall_comparable && same_shape {
        for key in ["msgs_per_sec", "msgs_per_sec_capacity"] {
            match (net_number(baseline_doc, key), net_number(current_doc, key)) {
                (Some(b), Some(c)) => report.throughput(&format!("net_{key}"), b, c, tol),
                _ => report.must_hold(&format!("net {key} present"), false),
            }
        }
    } else {
        report.notice(
            "net wall gates skipped",
            bc.unwrap_or(0.0),
            cc.unwrap_or(0.0),
            if same_shape {
                "core counts differ: wall clock incomparable across hosts".to_string()
            } else {
                "fleet shapes differ (--quick vs full): wall incomparable".to_string()
            },
        );
    }

    match json_number(current_doc, "speedup_wall") {
        Some(s) if cc.is_some_and(|c| c >= NET_SPEEDUP_MIN_CORES) => report.push(
            "speedup_wall",
            MIN_NET_WALL_SPEEDUP,
            s,
            s >= MIN_NET_WALL_SPEEDUP,
            format!("≥ {MIN_NET_WALL_SPEEDUP:.1}× sequential (multi-core host)"),
        ),
        Some(s) => report.notice(
            "speedup_wall gate skipped",
            MIN_NET_WALL_SPEEDUP,
            s,
            format!(
                "host has {} core(s) < {NET_SPEEDUP_MIN_CORES:.0}: shards serialize, wall speedup not claimable",
                cc.map_or_else(|| "unrecorded".to_string(), |c| format!("{c:.0}"))
            ),
        ),
        None => report.must_hold("speedup_wall present", false),
    }
    match json_number(current_doc, "speedup_capacity") {
        Some(s) => report.push(
            "speedup_capacity",
            1.0,
            s,
            s >= 1.0,
            "≥ 1 (shard critical path beats sequential)".to_string(),
        ),
        None => report.must_hold("speedup_capacity present", false),
    }
    report
}

/// Gates a fresh query-experiment metric artifact (`exp_q1_query_bounds` /
/// `exp_q2_budget_realloc --metrics-out`) against its baseline.
///
/// * every `.messages` counter: exact determinism canary (the experiments
///   are seeded and single-threaded — any drift is a behavior change);
/// * `gate.violations`: must be zero in the current run (a served answer
///   outside its precision bound is a correctness bug, not a regression);
/// * `gate.savings_fraction` must meet the experiment's own
///   `gate.min_savings_fraction` (the headline message-reduction claim);
/// * `gate.max_bound_ratio` (when present, Q2/Q3): the served answer bound
///   never exceeds the query contract;
/// * `gate.coverage` (when present, Q3): the empirical coverage of the
///   distributional answers' calibrated intervals must meet the
///   experiment's `gate.min_coverage` — an interval that under-covers
///   ground truth is a calibration bug, not a tolerance matter.
#[must_use]
pub fn check_query(baseline_doc: &str, current_doc: &str) -> GateReport {
    let mut report = GateReport::default();
    let base_msgs = json_entries_with_suffix(baseline_doc, ".messages");
    report.must_hold("message counters present", !base_msgs.is_empty());
    let current_msgs: std::collections::HashMap<String, f64> =
        json_entries_with_suffix(current_doc, ".messages")
            .into_iter()
            .collect();
    for (key, b) in base_msgs {
        match current_msgs.get(&key) {
            Some(&c) => report.exact(&key, b, c),
            None => report.must_hold(&format!("{key} present"), false),
        }
    }
    match json_number(current_doc, "gate.violations") {
        Some(v) => report.exact("gate.violations", 0.0, v),
        None => report.must_hold("gate.violations present", false),
    }
    match (
        json_number(current_doc, "gate.savings_fraction"),
        json_number(current_doc, "gate.min_savings_fraction"),
    ) {
        (Some(s), Some(min)) => report.push(
            "gate.savings_fraction",
            min,
            s,
            s >= min,
            "≥ gate.min_savings_fraction".to_string(),
        ),
        _ => report.must_hold("savings gate present", false),
    }
    if let Some(r) = json_number(current_doc, "gate.max_bound_ratio") {
        report.push(
            "gate.max_bound_ratio",
            1.0,
            r,
            r <= 1.0 + 1e-9,
            "≤ 1 (served bound within contract)".to_string(),
        );
    }
    match (
        json_number(current_doc, "gate.coverage"),
        json_number(current_doc, "gate.min_coverage"),
    ) {
        (Some(c), Some(min)) => report.push(
            "gate.coverage",
            min,
            c,
            c >= min,
            "≥ gate.min_coverage (calibrated interval coverage)".to_string(),
        ),
        // Q1/Q2 artifacts predate distributional answers and carry neither
        // key; an artifact with only one of the pair is malformed.
        (None, None) => {}
        _ => report.must_hold("coverage gate keys paired", false),
    }
    report
}

/// Gates a fresh `exp_crash_recovery --out` measurement
/// (`BENCH_durable.json`) against its baseline.
///
/// * `recovered_bit_identical`: every kill tick in the sweep must recover
///   to the exact bits of the uncrashed reference — exact, any host;
/// * `lockstep_traffic_identical` / `post_recovery_violations`: crashing
///   the lockstep fleet must change nothing and the precision contract
///   must hold with zero violations after every recovery;
/// * replay/WAL/snapshot byte totals and the final cumulative sync count:
///   exact determinism canaries when both runs swept the same shape
///   (`streams`/`ticks`/`snapshot_every`/`kill_count`) — the wire bytes
///   and the snapshot encoding are deterministic, so a drift is a format
///   or replay change, not noise;
/// * `recovery_wall_ms_max`: lower-is-better within tolerance, but only
///   when core counts match **and** the baseline recovery took at least
///   1 ms — below that, scheduler jitter dominates a sub-millisecond
///   replay and the gate logs a NOTICE instead of flaking.
#[must_use]
pub fn check_durable(
    baseline_doc: &str,
    current_doc: &str,
    override_tol: Option<f64>,
) -> GateReport {
    let tol = tolerance_of(baseline_doc, override_tol);
    let mut report = GateReport::default();

    // Correctness canaries: host-independent, always gated.
    let bits = json_bools(current_doc, "recovered_bit_identical");
    report.must_hold(
        "recovered_bit_identical (all kill ticks)",
        !bits.is_empty() && bits.iter().all(|b| *b),
    );
    report.must_hold(
        "lockstep_traffic_identical",
        json_bools(current_doc, "lockstep_traffic_identical")
            .first()
            .copied()
            .unwrap_or(false),
    );
    match json_number(current_doc, "post_recovery_violations") {
        Some(v) => report.exact("post_recovery_violations", 0.0, v),
        None => report.must_hold("post_recovery_violations present", false),
    }

    // Same sweep shape ⇒ replay lengths and on-disk byte totals are exact.
    let same_shape = ["streams", "ticks", "snapshot_every", "kill_count"]
        .iter()
        .all(|k| json_number(baseline_doc, k) == json_number(current_doc, k));
    if same_shape {
        for key in [
            "replay_ticks_total",
            "wal_bytes_total",
            "snapshot_bytes_total",
            "syncs_final",
        ] {
            match (
                json_number(baseline_doc, key),
                json_number(current_doc, key),
            ) {
                (Some(b), Some(c)) => report.exact(key, b, c),
                _ => report.must_hold(&format!("{key} present"), false),
            }
        }
    } else {
        report.notice(
            "durable byte canaries skipped",
            0.0,
            0.0,
            "sweep shapes differ: replay/byte totals incomparable".to_string(),
        );
    }

    let (bc, cc, wall_comparable) = cores_comparable(baseline_doc, current_doc);
    match (
        json_number(baseline_doc, "recovery_wall_ms_max"),
        json_number(current_doc, "recovery_wall_ms_max"),
    ) {
        (Some(b), Some(c)) if wall_comparable && b >= 1.0 => {
            report.latency("recovery_wall_ms_max", b, c, tol);
        }
        (Some(b), Some(c)) => report.notice(
            "recovery wall gate skipped",
            b,
            c,
            if wall_comparable {
                "baseline recovery under the 1 ms timing floor: jitter dominates".to_string()
            } else {
                format!(
                    "core counts differ ({} vs {}): wall clock incomparable across hosts",
                    bc.unwrap_or(0.0),
                    cc.unwrap_or(0.0)
                )
            },
        ),
        _ => report.must_hold("recovery_wall_ms_max present", false),
    }
    report
}

/// Gates a fresh `exp_elastic_scaling --out` measurement
/// (`BENCH_elastic.json`) against its baseline.
///
/// * `elastic_bit_identical` (every start shape) and
///   `fixed_reference_bit_identical`: a resized run must finish on exactly
///   the bits of the sequential reference — exact, any host;
/// * `violations`: the precision contract must hold with zero violations
///   while the load swings;
/// * `swing_factor` ≥ [`MIN_ELASTIC_SWING`]: the experiment must keep
///   offering a real load swing, or the controller claims are vacuous;
/// * decision counters (`grows_total` / `shrinks_total` / `resizes_total`)
///   and message totals: exact determinism canaries when both runs swept
///   the same shape (`streams`/`ticks`/`sample_every`/`min_shards`/
///   `max_shards`) — the experiment disables the timing-dependent queue
///   signal precisely so these are exact;
/// * `resize_stall_ms_max`: bounded two ways — an absolute
///   [`MAX_ELASTIC_STALL_MS`] ceiling on every host (a near-second stall on
///   this tiny fleet is a stuck barrier, not noise), and lower-is-better
///   within tolerance against the baseline, but only when core counts match
///   **and** the baseline stall took at least 1 ms (below that, scheduler
///   jitter dominates and the relative gate logs a NOTICE instead).
#[must_use]
pub fn check_elastic(
    baseline_doc: &str,
    current_doc: &str,
    override_tol: Option<f64>,
) -> GateReport {
    let tol = tolerance_of(baseline_doc, override_tol);
    let mut report = GateReport::default();

    // Correctness canaries: host-independent, always gated.
    let bits = json_bools(current_doc, "elastic_bit_identical");
    report.must_hold(
        "elastic_bit_identical (all start shapes)",
        !bits.is_empty() && bits.iter().all(|b| *b),
    );
    report.must_hold(
        "fixed_reference_bit_identical",
        json_bools(current_doc, "fixed_reference_bit_identical")
            .first()
            .copied()
            .unwrap_or(false),
    );
    match json_number(current_doc, "violations") {
        Some(v) => report.exact("violations", 0.0, v),
        None => report.must_hold("violations present", false),
    }
    match json_number(current_doc, "swing_factor") {
        Some(s) => report.push(
            "swing_factor",
            MIN_ELASTIC_SWING,
            s,
            s >= MIN_ELASTIC_SWING,
            format!("≥ {MIN_ELASTIC_SWING:.1}× (hot/quiet offered load)"),
        ),
        None => report.must_hold("swing_factor present", false),
    }

    // Same sweep shape ⇒ decisions and message totals are exact (the
    // experiment runs on the deterministic offered-load signal alone).
    let same_shape = [
        "streams",
        "ticks",
        "sample_every",
        "min_shards",
        "max_shards",
    ]
    .iter()
    .all(|k| json_number(baseline_doc, k) == json_number(current_doc, k));
    if same_shape {
        for key in [
            "grows_total",
            "shrinks_total",
            "resizes_total",
            "total_messages",
            "lockstep_swing_messages",
        ] {
            match (
                json_number(baseline_doc, key),
                json_number(current_doc, key),
            ) {
                (Some(b), Some(c)) => report.exact(key, b, c),
                _ => report.must_hold(&format!("{key} present"), false),
            }
        }
    } else {
        report.notice(
            "elastic decision canaries skipped",
            0.0,
            0.0,
            "sweep shapes differ: decision/message totals incomparable".to_string(),
        );
    }

    let (bc, cc, wall_comparable) = cores_comparable(baseline_doc, current_doc);
    match (
        json_number(baseline_doc, "resize_stall_ms_max"),
        json_number(current_doc, "resize_stall_ms_max"),
    ) {
        (_, Some(c)) if c > MAX_ELASTIC_STALL_MS => report.push(
            "resize_stall_ms_max ceiling",
            MAX_ELASTIC_STALL_MS,
            c,
            false,
            format!("≤ {MAX_ELASTIC_STALL_MS:.0} ms (absolute, any host)"),
        ),
        (Some(b), Some(c)) if wall_comparable && b >= 1.0 => {
            report.latency("resize_stall_ms_max", b, c, tol);
        }
        (Some(b), Some(c)) => report.notice(
            "resize stall gate capped only",
            b,
            c,
            if wall_comparable {
                "baseline stall under the 1 ms timing floor: jitter dominates".to_string()
            } else {
                format!(
                    "core counts differ ({} vs {}): wall clock incomparable across hosts",
                    bc.unwrap_or(0.0),
                    cc.unwrap_or(0.0)
                )
            },
        ),
        _ => report.must_hold("resize_stall_ms_max present", false),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baselines — the gate must accept each against itself.
    const KERNELS: &str = include_str!("../../../BENCH_kernels.json");
    const INGEST: &str = include_str!("../../../BENCH_ingest.json");
    const Q1: &str = include_str!("../../../BENCH_q1_query_bounds.json");
    const Q2: &str = include_str!("../../../BENCH_q2_budget_realloc.json");
    const Q3: &str = include_str!("../../../BENCH_q3_query_graph.json");
    const NET: &str = include_str!("../../../BENCH_net.json");
    const DURABLE: &str = include_str!("../../../BENCH_durable.json");
    const ELASTIC: &str = include_str!("../../../BENCH_elastic.json");

    /// The baseline's own measurement of `key` (its `after` section).
    fn after_number(doc: &str, key: &str) -> f64 {
        json_section(doc, "after")
            .and_then(|s| json_number(s, key))
            .unwrap_or_else(|| panic!("baseline lacks {key}"))
    }

    /// Rewrites every `"key": <number>` in `doc` to `value` — doctoring
    /// helper so the tests don't hard-code measured wall-clock literals.
    fn set_numbers(doc: &str, key: &str, value: f64) -> String {
        let needle = format!("\"{key}\":");
        let mut out = String::new();
        let mut rest = doc;
        while let Some(k) = rest.find(&needle) {
            let after = &rest[k + needle.len()..];
            let ws = after.len() - after.trim_start().len();
            let v = &after[ws..];
            let end = v
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(v.len());
            assert!(end > 0, "{key} is not followed by a number");
            out.push_str(&rest[..k + needle.len() + ws]);
            out.push_str(&format!("{value}"));
            rest = &v[end..];
        }
        assert!(!out.is_empty(), "{key} not found");
        out.push_str(rest);
        out
    }

    #[test]
    fn extractor_reads_flat_and_nested_numbers() {
        assert_eq!(
            json_number(KERNELS, "schema"),
            None,
            "strings are not numbers"
        );
        assert!(after_number(KERNELS, "predict_ns") > 0.0);
        assert_eq!(
            json_numbers(KERNELS, "fleet_total_messages"),
            vec![73977.0, 73977.0],
            "the 100-stream fleet canary is pinned across before/after"
        );
        assert_eq!(json_bools(INGEST, "bit_identical"), vec![true; 4]);
        assert_eq!(
            json_section(INGEST, "total").and_then(|s| json_number(s, "savings_fraction")),
            Some(0.3014)
        );
        assert_eq!(
            json_section(INGEST, "sequential").and_then(|s| json_number(s, "msgs_per_sec")),
            Some(1113222.0)
        );
    }

    #[test]
    fn set_numbers_rewrites_only_the_requested_key() {
        let doc = "{\"a\": 1.5, \"b\": 2, \"a\": 3}";
        assert_eq!(set_numbers(doc, "a", 9.0), "{\"a\": 9, \"b\": 2, \"a\": 9}");
        assert_eq!(
            set_numbers(doc, "b", 0.5),
            "{\"a\": 1.5, \"b\": 0.5, \"a\": 3}"
        );
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        let k = check_kernels(KERNELS, KERNELS, None);
        assert!(k.passed(), "{}", k.render());
        let i = check_ingest(INGEST, INGEST, None);
        assert!(i.passed(), "{}", i.render());
        let q1 = check_query(Q1, Q1);
        assert!(q1.passed(), "{}", q1.render());
        let q2 = check_query(Q2, Q2);
        assert!(q2.passed(), "{}", q2.render());
        let q3 = check_query(Q3, Q3);
        assert!(q3.passed(), "{}", q3.render());
        let n = check_net(NET, NET, None);
        assert!(n.passed(), "{}", n.render());
        let d = check_durable(DURABLE, DURABLE, None);
        assert!(d.passed(), "{}", d.render());
        let e = check_elastic(ELASTIC, ELASTIC, None);
        assert!(e.passed(), "{}", e.render());
    }

    #[test]
    fn elastic_identity_or_violation_failure_fails_the_gate() {
        // One start shape losing bit-identity fails, even with the others
        // still true.
        let broken = ELASTIC.replacen(
            "\"elastic_bit_identical\": true",
            "\"elastic_bit_identical\": false",
            1,
        );
        assert_ne!(broken, ELASTIC, "baseline must carry the identity canary");
        let report = check_elastic(ELASTIC, &broken, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name.starts_with("elastic_bit_identical")));

        let unfixed = ELASTIC.replace(
            "\"fixed_reference_bit_identical\": true",
            "\"fixed_reference_bit_identical\": false",
        );
        assert!(!check_elastic(ELASTIC, &unfixed, None).passed());

        let violated = set_numbers(ELASTIC, "violations", 2.0);
        assert!(!check_elastic(ELASTIC, &violated, None).passed());
    }

    #[test]
    fn elastic_swing_below_floor_fails_the_gate() {
        let flat = set_numbers(ELASTIC, "swing_factor", MIN_ELASTIC_SWING - 1.0);
        let report = check_elastic(ELASTIC, &flat, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "swing_factor"));
        // The floor is absolute: a doctored-flat baseline doesn't excuse a
        // flat current run.
        assert!(!check_elastic(&flat, &flat, None).passed());
    }

    #[test]
    fn elastic_decision_drift_fails_exactly_and_reshape_skips_visibly() {
        for key in ["grows_total", "shrinks_total", "resizes_total"] {
            let b = json_number(ELASTIC, key).expect("baseline canary");
            let drifted = set_numbers(ELASTIC, key, b + 1.0);
            let report = check_elastic(ELASTIC, &drifted, None);
            assert!(
                !report.passed(),
                "{key} drift must fail:\n{}",
                report.render()
            );
            assert!(report.checks.iter().any(|c| !c.ok && c.name == key));
        }
        // A different sweep shape skips the decision canaries — visibly.
        let reshaped = set_numbers(ELASTIC, "sample_every", 9.0);
        let report = check_elastic(ELASTIC, &reshaped, None);
        assert!(report.passed(), "{}", report.render());
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.name == "elastic decision canaries skipped"
                    && c.rule.starts_with("NOTICE"))
        );
    }

    #[test]
    fn elastic_stall_gate_has_a_ceiling_a_floor_and_core_scoping() {
        // The absolute ceiling gates on any host, even across core counts.
        let hung = set_numbers(ELASTIC, "resize_stall_ms_max", MAX_ELASTIC_STALL_MS * 2.0);
        let hung = set_numbers(&hung, "available_parallelism", 64.0);
        let report = check_elastic(ELASTIC, &hung, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "resize_stall_ms_max ceiling"));
        // A sub-millisecond baseline stall: the relative gate must log a
        // NOTICE, not flake on jitter.
        let base_stall = json_number(ELASTIC, "resize_stall_ms_max").expect("stall recorded");
        if base_stall < 1.0 {
            let jittery = set_numbers(ELASTIC, "resize_stall_ms_max", 0.9);
            let report = check_elastic(ELASTIC, &jittery, None);
            assert!(report.passed(), "{}", report.render());
            assert!(
                report
                    .checks
                    .iter()
                    .any(|c| c.name == "resize stall gate capped only"
                        && c.rule.starts_with("NOTICE"))
            );
        }
        // Both sides above the floor on equal cores: 2× slower fails.
        let base = set_numbers(ELASTIC, "resize_stall_ms_max", 100.0);
        let slower = set_numbers(ELASTIC, "resize_stall_ms_max", 200.0);
        let report = check_elastic(&base, &slower, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "resize_stall_ms_max"));
        // Different core counts (under the ceiling): a logged skip.
        let other_host = set_numbers(&slower, "available_parallelism", 64.0);
        let report = check_elastic(&base, &other_host, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "resize stall gate capped only" && c.rule.starts_with("NOTICE")));
    }

    #[test]
    fn markdown_rendering_carries_every_check_and_the_verdict() {
        let report = check_elastic(ELASTIC, ELASTIC, None);
        let md = report.render_markdown("check-regression --kind elastic");
        assert!(md.starts_with("### check-regression --kind elastic"));
        assert!(md.contains("| swing_factor |"));
        assert!(md.contains("✅ ok"));
        assert!(md.contains("**check-regression: PASS**"));
        let broken = set_numbers(ELASTIC, "violations", 1.0);
        let md = check_elastic(ELASTIC, &broken, None)
            .render_markdown("check-regression --kind elastic");
        assert!(md.contains("❌ FAIL"));
        assert!(md.contains("**check-regression: FAIL**"));
    }

    #[test]
    fn durable_identity_or_violation_failure_fails_the_gate() {
        // One kill tick losing bit-identity fails, even with the other
        // four still true.
        let broken = DURABLE.replacen(
            "\"recovered_bit_identical\": true",
            "\"recovered_bit_identical\": false",
            1,
        );
        assert_ne!(broken, DURABLE, "baseline must carry the identity canary");
        let report = check_durable(DURABLE, &broken, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name.starts_with("recovered_bit_identical")));

        let violated = set_numbers(DURABLE, "post_recovery_violations", 2.0);
        assert!(!check_durable(DURABLE, &violated, None).passed());

        let diverged = DURABLE.replace(
            "\"lockstep_traffic_identical\": true",
            "\"lockstep_traffic_identical\": false",
        );
        assert!(!check_durable(DURABLE, &diverged, None).passed());
    }

    #[test]
    fn durable_replay_or_byte_drift_fails_exactly() {
        for key in [
            "replay_ticks_total",
            "wal_bytes_total",
            "snapshot_bytes_total",
        ] {
            let b = json_number(DURABLE, key).expect("baseline canary");
            let drifted = set_numbers(DURABLE, key, b + 1.0);
            let report = check_durable(DURABLE, &drifted, None);
            assert!(
                !report.passed(),
                "{key} drift must fail:\n{}",
                report.render()
            );
            assert!(report.checks.iter().any(|c| !c.ok && c.name == key));
        }
        // A different sweep shape skips the byte canaries — visibly.
        let reshaped = set_numbers(DURABLE, "kill_count", 7.0);
        let report = check_durable(DURABLE, &reshaped, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "durable byte canaries skipped" && c.rule.starts_with("NOTICE")));
    }

    #[test]
    fn durable_wall_gate_scopes_itself_to_comparable_hosts_and_real_durations() {
        // The committed baseline recovers in well under a millisecond:
        // the wall gate must log a NOTICE, not flake on jitter.
        let base_wall = json_number(DURABLE, "recovery_wall_ms_max").expect("wall recorded");
        if base_wall < 1.0 {
            let slow = set_numbers(DURABLE, "recovery_wall_ms_max", 1e6);
            let report = check_durable(DURABLE, &slow, None);
            assert!(report.passed(), "{}", report.render());
            assert!(report
                .checks
                .iter()
                .any(|c| c.name == "recovery wall gate skipped" && c.rule.starts_with("NOTICE")));
        }
        // Doctor both sides above the timing floor on equal cores: the
        // tolerance gate applies and a 2× slowdown fails.
        let base = set_numbers(DURABLE, "recovery_wall_ms_max", 100.0);
        let slower = set_numbers(DURABLE, "recovery_wall_ms_max", 200.0);
        let report = check_durable(&base, &slower, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "recovery_wall_ms_max"));
        // Different core counts: the same slowdown is a logged skip.
        let other_host = set_numbers(&slower, "available_parallelism", 64.0);
        let report = check_durable(&base, &other_host, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "recovery wall gate skipped" && c.rule.starts_with("NOTICE")));
    }

    #[test]
    fn net_canary_or_shed_failure_fails_the_gate() {
        let broken = NET.replace("\"tcp_matches_sim\": true", "\"tcp_matches_sim\": false");
        assert_ne!(broken, NET, "baseline must carry the identity canary");
        assert!(!check_net(NET, &broken, None).passed());
        let shed = set_numbers(NET, "shed", 3.0);
        assert!(!check_net(NET, &shed, None).passed());
        let rejected = set_numbers(NET, "rejected_hellos", 1.0);
        assert!(!check_net(NET, &rejected, None).passed());
    }

    #[test]
    fn net_message_drift_fails_exactly() {
        let b = json_number(NET, "total_messages").expect("baseline total_messages");
        let drifted = set_numbers(NET, "total_messages", b + 1.0);
        let report = check_net(NET, &drifted, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "total_messages"));
    }

    #[test]
    fn net_wall_gates_skip_with_notice_on_different_core_counts() {
        // Doctor the current run onto a 64-core host with terrible wall
        // numbers: the cross-host wall gates must skip — visibly, as a
        // NOTICE row — while the correctness canaries keep gating.
        let cur = set_numbers(NET, "available_parallelism", 64.0);
        let cur = set_numbers(&cur, "msgs_per_sec", 1.0);
        let cur = set_numbers(&cur, "msgs_per_sec_capacity", 1.0);
        let cur = set_numbers(&cur, "speedup_wall", 10.0);
        let cur = set_numbers(&cur, "speedup_capacity", 2.0);
        let report = check_net(NET, &cur, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "net wall gates skipped" && c.rule.starts_with("NOTICE")));
        // On the 64-core host the ≥4× wall speedup IS claimable — and gated.
        assert!(report
            .checks
            .iter()
            .any(|c| c.ok && c.name == "speedup_wall"));
        let slow = set_numbers(&cur, "speedup_wall", 2.0);
        let report = check_net(NET, &slow, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "speedup_wall"));
        // Bit-identity still gates across hosts.
        let broken = cur.replace("\"tcp_matches_sim\": true", "\"tcp_matches_sim\": false");
        assert!(!check_net(NET, &broken, None).passed());
    }

    #[test]
    fn net_single_core_speedup_is_a_notice_not_a_gate() {
        // The committed baseline was recorded on a single-core container:
        // the ≥4× wall claim must surface as a logged skip, not a failure
        // and not silence.
        assert_eq!(json_number(NET, "available_parallelism"), Some(1.0));
        let report = check_net(NET, NET, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "speedup_wall gate skipped" && c.rule.starts_with("NOTICE")));
        // The capacity floor gates everywhere, cores or not.
        assert!(report.checks.iter().any(|c| c.name == "speedup_capacity"));
        let starved = set_numbers(NET, "speedup_capacity", 0.5);
        assert!(!check_net(NET, &starved, None).passed());
    }

    #[test]
    fn kernels_wall_gates_skip_with_notice_on_different_core_counts() {
        // Same artifact, different host core count, absurd latency: the
        // wall gates must skip with a NOTICE while canaries keep gating.
        let cur = set_numbers(KERNELS, "available_parallelism", 64.0);
        let cur = set_numbers(&cur, "predict_ns", 1e9);
        let cur = set_numbers(&cur, "fleet_wall_ms", 1e9);
        let report = check_kernels(KERNELS, &cur, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "wall-clock gates skipped" && c.rule.starts_with("NOTICE")));
        assert!(!report.checks.iter().any(|c| c.name == "predict_ns"));
        let drifted = cur.replace(
            "\"fleet_total_messages\": 73977",
            "\"fleet_total_messages\": 73978",
        );
        assert!(!check_kernels(KERNELS, &drifted, None).passed());
    }

    #[test]
    fn ingest_wall_gates_skip_with_notice_on_different_core_counts() {
        let cur = set_numbers(INGEST, "available_parallelism", 64.0);
        let cur = set_numbers(&cur, "msgs_per_sec", 1.0);
        let cur = set_numbers(&cur, "msgs_per_sec_capacity", 1.0);
        let report = check_ingest(INGEST, &cur, None);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "wall-clock gates skipped" && c.rule.starts_with("NOTICE")));
        let broken = cur.replacen("\"bit_identical\": true", "\"bit_identical\": false", 1);
        assert!(!check_ingest(INGEST, &broken, None).passed());
    }

    #[test]
    fn suffix_extractor_skips_strings_and_scopes_by_suffix() {
        let entries = json_entries_with_suffix(Q2, ".messages");
        assert_eq!(
            entries.len(),
            6,
            "3 epsilons × (uniform, realloc); ack_messages lacks the dot"
        );
        assert!(entries
            .iter()
            .any(|(k, v)| k == "epsilon_2.realloc.messages" && *v == 10623.0));
        assert!(json_entries_with_suffix("{\"schema\": \"x.messages\"}", ".messages").is_empty());
    }

    #[test]
    fn query_message_drift_fails_exactly() {
        let drifted = Q2.replace(
            "\"epsilon_2.realloc.messages\": 10623",
            "\"epsilon_2.realloc.messages\": 10624",
        );
        let report = check_query(Q2, &drifted);
        assert!(
            !report.passed(),
            "message drift must fail:\n{}",
            report.render()
        );
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failing, vec!["epsilon_2.realloc.messages"]);
    }

    #[test]
    fn query_violations_or_thin_savings_fail_the_gate() {
        let violated = Q1.replace("\"gate.violations\": 0", "\"gate.violations\": 3");
        assert!(!check_query(Q1, &violated).passed());
        let thin = Q2.replace(
            "\"gate.savings_fraction\": 0.3108213312572986",
            "\"gate.savings_fraction\": 0.02",
        );
        assert!(!check_query(Q2, &thin).passed());
        let loose_bound = Q2.replace(
            "\"gate.max_bound_ratio\": 1.0",
            "\"gate.max_bound_ratio\": 1.2",
        );
        assert!(!check_query(Q2, &loose_bound).passed());
    }

    #[test]
    fn query_graph_coverage_or_drift_fails_the_gate() {
        // An uncalibrated interval (coverage under the experiment's own
        // floor) is a correctness failure, not a tolerance matter.
        let uncovered = set_numbers(Q3, "gate.coverage", 0.6);
        let report = check_query(Q3, &uncovered);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "gate.coverage"));

        // A coverage number without its floor (or vice versa) is malformed.
        let orphaned = Q3.replace("\"gate.min_coverage\":", "\"gate.min_coverage_gone\":");
        assert_ne!(orphaned, Q3, "baseline must carry the coverage floor");
        assert!(!check_query(Q3, &orphaned).passed());

        // Forward-message drift in either arm fails exactly; Q1/Q2 carry no
        // coverage keys and must keep passing without them.
        let b = json_number(Q3, "feedback.messages").unwrap();
        let drifted = set_numbers(Q3, "feedback.messages", b + 1.0);
        let report = check_query(Q3, &drifted);
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failing, vec!["feedback.messages"]);

        let thin = set_numbers(Q3, "gate.savings_fraction", 0.01);
        assert!(!check_query(Q3, &thin).passed());
        assert!(check_query(Q1, Q1).passed(), "Q1 has no coverage keys");
    }

    #[test]
    fn doctored_kernels_baseline_fails_the_gate() {
        // Doctor the baseline to claim predict was 4× faster than it was:
        // the real measurement now reads as a >25% latency regression.
        let real = after_number(KERNELS, "predict_ns");
        let doctored = set_numbers(KERNELS, "predict_ns", real / 4.0);
        let report = check_kernels(&doctored, KERNELS, None);
        assert!(
            !report.passed(),
            "doctored baseline must fail:\n{}",
            report.render()
        );
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failing, vec!["predict_ns"]);
    }

    #[test]
    fn batch_speedup_below_floor_fails_the_gate() {
        let slow = set_numbers(KERNELS, "batch_fleet_speedup", MIN_BATCH_SPEEDUP - 2.0);
        let report = check_kernels(KERNELS, &slow, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "batch_fleet_speedup"));
        // The floor is absolute, not baseline-relative: doctoring the
        // *baseline* speedup down doesn't excuse a slow current run.
        let both = check_kernels(&slow, &slow, None);
        assert!(!both.passed());
    }

    #[test]
    fn batch_identity_canary_failure_fails_the_gate() {
        let broken = KERNELS.replace(
            "\"batch_matches_scalar\": true",
            "\"batch_matches_scalar\": false",
        );
        assert_ne!(broken, KERNELS, "baseline must carry the identity canary");
        let report = check_kernels(KERNELS, &broken, None);
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "batch_matches_scalar"));
    }

    #[test]
    fn quick_batch_shape_skips_wall_but_keeps_floor_and_canary() {
        // A --quick run shortens the batch fleet: raw wall is incomparable
        // (and must be skipped), but the speedup floor and the bit-identity
        // canary still gate.
        let quick = set_numbers(
            &set_numbers(KERNELS, "batch_fleet_ticks", 200.0),
            "batch_fleet_wall_ms",
            1e9,
        );
        let report = check_kernels(KERNELS, &quick, None);
        assert!(report.passed(), "{}", report.render());
        assert!(!report
            .checks
            .iter()
            .any(|c| c.name == "batch_fleet_wall_ms"));
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "batch_fleet_speedup"));
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "batch_matches_scalar"));
    }

    #[test]
    fn missing_batch_section_fails_the_gate() {
        // Strip the batch keys from the current run (pre-batch artifact):
        // the gate must demand them rather than silently passing.
        let stripped: String = KERNELS
            .lines()
            .filter(|l| !l.contains("batch_"))
            .collect::<Vec<_>>()
            .join("\n");
        let report = check_kernels(KERNELS, &stripped, None);
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn doctored_ingest_baseline_fails_the_gate() {
        // Claim 10× the real sequential throughput: the real run regresses.
        let doctored = INGEST.replace("\"msgs_per_sec\": 1113222", "\"msgs_per_sec\": 11132220");
        let report = check_ingest(&doctored, INGEST, None);
        assert!(
            !report.passed(),
            "doctored baseline must fail:\n{}",
            report.render()
        );
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name == "sequential_msgs_per_sec"));
    }

    #[test]
    fn canary_drift_fails_exactly() {
        let drifted = KERNELS.replace(
            "\"fleet_total_messages\": 73977",
            "\"fleet_total_messages\": 73978",
        );
        let report = check_kernels(KERNELS, &drifted, None);
        assert!(
            !report.passed(),
            "canary drift must fail even within tolerance"
        );
    }

    #[test]
    fn bit_identity_failure_fails_the_gate() {
        let broken = INGEST.replacen("\"bit_identical\": true", "\"bit_identical\": false", 1);
        let report = check_ingest(INGEST, &broken, None);
        assert!(!report.passed());
    }

    #[test]
    fn tolerance_comes_from_baseline_then_cli() {
        assert_eq!(tolerance_of("{}", None), DEFAULT_TOLERANCE);
        assert_eq!(tolerance_of("{\"regression_tolerance\": 0.10}", None), 0.10);
        assert_eq!(
            tolerance_of("{\"regression_tolerance\": 0.10}", Some(0.5)),
            0.5
        );
        // A 20% slower predict passes at default tolerance, fails at 10%.
        let real = after_number(KERNELS, "predict_ns");
        let slower = set_numbers(KERNELS, "predict_ns", real * 1.2);
        assert!(check_kernels(KERNELS, &slower, None).passed());
        assert!(!check_kernels(KERNELS, &slower, Some(0.1)).passed());
    }

    #[test]
    fn report_renders_verdict() {
        let report = check_kernels(KERNELS, KERNELS, None);
        let text = report.render();
        assert!(text.contains("check-regression: PASS"));
        assert!(text.contains("predict_ns"));
    }
}
