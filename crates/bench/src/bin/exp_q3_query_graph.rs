//! Q3 — cascaded query graph: punctuation feedback from downstream
//! operators relaxes upstream suppression deltas, and every derived stream
//! serves a calibrated distributional answer next to its worst-case bound.
//!
//! Claim exercised: plain propagation is *static* — every contract on a
//! stream pins its delta forever, so an alert whose input is 40 bounds away
//! from the threshold still holds its members at the alert margin. The
//! [`QueryGraph`] closes the loop: each tick, downstream operators emit
//! punctuation ("nothing near my threshold / pane budget unspent") that
//! flows back up the DAG as relaxed per-stream grants, shipped to sources as
//! `Bound` directives. Soundness never depends on the grants — answers are
//! always verified against the deltas *actually in force* — so a late or
//! lost directive can only cost messages, never a violation.
//!
//! Topology (two-tier DAG over 12 random walks):
//!
//! ```text
//! s0..s5  ─► lo_avg ─┬─► fleet          s6..s11 ─► hi_avg ─┬─► fleet
//!                    ├─► lo_pane (W=64)                    └─► hi_alert
//!                    └─► lo_alert
//! ```
//!
//! Both arms start at the static propagated split. The static arm never
//! moves; the feedback arm pushes the graph's per-tick grants (floored to a
//! geometric grid so directive traffic stays bounded and the pushed delta
//! never exceeds the grant). Every tick both graphs verify answers against
//! the observed signal and score distributional-interval coverage against
//! the configured level.
//!
//! Expected shape: with the alerts' inputs far from their thresholds most
//! of the run, the feedback arm serves the identical contracts for ≥25%
//! fewer forward messages; violations 0 in both arms; every served bound
//! stays within its contract (`max_bound_ratio ≤ 1`); empirical coverage of
//! the 95% intervals ≥ 0.90 (suppression truncates the error distribution,
//! so coverage lands *above* nominal — conservative, never optimistic).

use kalstream_bench::query_drive::{drive_graph, QueryStream};
use kalstream_bench::table::{fmt_f, Table};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::models;
use kalstream_gen::{synthetic::RandomWalk, Stream};
use kalstream_linalg::Vector;
use kalstream_query::{AggKind, QueryGraph, StreamId};
use kalstream_sim::{LockstepStream, SessionConfig};

const STREAMS: usize = 12;
const GROUP: usize = 6;
const MEASURE_TICKS: u64 = 6_000;
const PANE: usize = 64;
const SIGMA_V: f64 = 0.02;
const DELTA_FLOOR: f64 = 1e-4;
/// Directive grid ratio: grants are floored to `FLOOR · RATIO^n`, so a
/// directive only ships when the grant crosses a grid level and the pushed
/// delta never exceeds the grant (rounding *down* is always sound).
const GRID_RATIO: f64 = 1.25;
const LEVEL: f64 = 0.95;
const MIN_SAVINGS: f64 = 0.25;
const MIN_COVERAGE: f64 = 0.90;

const AVG_CONTRACT: f64 = 0.6;
const FLEET_CONTRACT: f64 = 0.8;
const PANE_CONTRACT: f64 = 0.3;
const LO_THRESHOLD: f64 = 2.5;
const LO_MARGIN: f64 = 0.08;
const HI_THRESHOLD: f64 = 3.0;
const HI_MARGIN: f64 = 0.05;

fn sigma_w(i: usize) -> f64 {
    // Within each group of 6, volatilities geometrically spaced over
    // [0.02, 0.2] — a 10× spread, mirrored across the two tiers.
    0.02 * (10.0f64).powf((i % GROUP) as f64 / (GROUP - 1) as f64)
}

fn make_walk(i: usize) -> Box<dyn Stream + Send> {
    Box::new(RandomWalk::new(
        0.0,
        0.0,
        sigma_w(i),
        SIGMA_V,
        31_000 + i as u64,
    ))
}

/// The Q3 DAG. Statically the alerts bind: lo members at the lo_alert
/// margin, hi members at the hi_alert margin — the pane (contract 0.3) and
/// the tier contracts (0.6 / 0.8) are all looser. Under feedback, once an
/// alert's input is guaranteed far from its threshold the binding contract
/// becomes the pane budget (lo side) or the tier contract (hi side).
fn build_graph(feedback: bool) -> QueryGraph {
    let ids: Vec<String> = (0..STREAMS).map(|i| format!("s{i}")).collect();
    let mut g = QueryGraph::new();
    for (i, id) in ids.iter().enumerate() {
        g.add_raw(id, StreamId(i)).unwrap();
    }
    let lo: Vec<&str> = ids[..GROUP].iter().map(String::as_str).collect();
    let hi: Vec<&str> = ids[GROUP..].iter().map(String::as_str).collect();
    g.add_aggregate("lo_avg", AggKind::Avg, &lo, Some(AVG_CONTRACT))
        .unwrap();
    g.add_aggregate("hi_avg", AggKind::Avg, &hi, Some(AVG_CONTRACT))
        .unwrap();
    g.add_aggregate(
        "fleet",
        AggKind::Avg,
        &["lo_avg", "hi_avg"],
        Some(FLEET_CONTRACT),
    )
    .unwrap();
    g.add_tumbling_avg("lo_pane", "lo_avg", PANE, PANE_CONTRACT)
        .unwrap();
    g.add_alert("lo_alert", "lo_avg", LO_THRESHOLD, LO_MARGIN)
        .unwrap();
    g.add_alert("hi_alert", "hi_avg", HI_THRESHOLD, HI_MARGIN)
        .unwrap();
    g.set_level(LEVEL);
    g.set_feedback(feedback);
    g
}

/// Floors a grant to the geometric directive grid (never above the grant,
/// never below the floor).
fn grid_floor(d: f64) -> f64 {
    if d <= DELTA_FLOOR {
        return DELTA_FLOOR;
    }
    let n = ((d / DELTA_FLOOR).ln() / GRID_RATIO.ln()).floor() as i32;
    (DELTA_FLOOR * GRID_RATIO.powi(n)).min(d)
}

struct ArmResult {
    graph: QueryGraph,
    messages: u64,
    ack_messages: u64,
    violations: u64,
    coverage: f64,
    relaxations: u64,
    directives: u64,
    max_ratio: f64,
    /// Mean calibrated 95% half-interval vs mean worst-case bound of the
    /// `fleet` answer — the uncertainty-aware headline.
    fleet_interval: f64,
    fleet_worst: f64,
}

/// Runs one arm. Both arms build sessions at the static propagated deltas;
/// only the feedback arm pushes the graph's per-tick grants as directives.
fn run_arm(feedback: bool) -> ArmResult {
    let static_req = build_graph(false).required_deltas();
    let mut streams: Vec<QueryStream<'_>> = (0..STREAMS)
        .map(|i| {
            let delta = static_req[&StreamId(i)].max(DELTA_FLOOR);
            // Exactly-matched model (the generator is a random walk with
            // these variances): the coverage gate is a calibration claim,
            // so the filter must not be handicapped by a mismatched prior.
            let spec = SessionSpec::fixed(
                models::random_walk(sigma_w(i) * sigma_w(i), SIGMA_V * SIGMA_V),
                Vector::zeros(1),
                1.0,
                ProtocolConfig::new(delta).unwrap(),
            )
            .unwrap();
            let (source, server) = spec.build().split();
            let mut walk = make_walk(i);
            LockstepStream {
                producer: source,
                consumer: server,
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    walk.next_into(obs, tru);
                }),
            }
        })
        .collect();

    let mut g = build_graph(feedback);
    // A directive pushed at t is in force from t+2 (see `drive_graph`) —
    // exactly the GRANT_LAG the pane's budget reservation holds back.
    let mut last_pushed: Vec<f64> = streams.iter().map(|s| s.producer.delta()).collect();
    let mut directives = 0u64;
    let mut interval_sum = 0.0f64;
    let mut worst_sum = 0.0f64;
    let mut answer_ticks = 0u64;
    let config = SessionConfig::instant(MEASURE_TICKS, AVG_CONTRACT);
    let report = drive_graph(&config, &mut streams, &mut g, |_now, g, streams| {
        if let Some(d) = g.distributional("fleet", LEVEL) {
            interval_sum += d.interval;
            worst_sum += d.worst_case;
            answer_ticks += 1;
        }
        if feedback {
            let req = g.required_deltas();
            for (i, stream) in streams.iter_mut().enumerate() {
                let Some(&grant) = req.get(&StreamId(i)) else {
                    continue;
                };
                let quantized = grid_floor(grant);
                if quantized != last_pushed[i] {
                    stream.consumer.push_bound_directive(quantized);
                    last_pushed[i] = quantized;
                    directives += 1;
                }
            }
        }
    });
    let ack_messages = report
        .sessions
        .iter()
        .map(|s| s.ack_traffic.messages())
        .sum();
    ArmResult {
        messages: report.total_traffic.messages(),
        ack_messages,
        violations: g.violations(),
        coverage: g.coverage().unwrap_or(0.0),
        relaxations: g.relaxations(),
        directives,
        max_ratio: g.max_contract_ratio(),
        fleet_interval: interval_sum / answer_ticks.max(1) as f64,
        fleet_worst: worst_sum / answer_ticks.max(1) as f64,
        graph: g,
    }
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    let mut table = Table::new(
        format!(
            "Q3: cascaded query graph over {STREAMS} walks — static propagation vs punctuation feedback (pane W={PANE}, alerts at {LO_THRESHOLD}/{HI_THRESHOLD})"
        ),
        &[
            "arm",
            "msgs",
            "ack_msgs",
            "viol",
            "coverage",
            "relax",
            "directives",
            "bound_ratio",
            "fleet_95pct",
            "fleet_worst",
        ],
    );
    let stat = run_arm(false);
    let fb = run_arm(true);
    let savings = 1.0 - fb.messages as f64 / stat.messages as f64;
    // Net savings charge the feedback arm for its own directive traffic
    // (the static arm ships none) — informational, the gate is on forward
    // messages like Q2's.
    let net_savings =
        1.0 - (fb.messages + fb.ack_messages) as f64 / (stat.messages + stat.ack_messages) as f64;
    for (name, arm) in [("static", &stat), ("feedback", &fb)] {
        let mut s = metrics.scope(name);
        s.counter("messages", arm.messages);
        s.counter("ack_messages", arm.ack_messages);
        s.counter("violations", arm.violations);
        s.counter("directives", arm.directives);
        s.gauge("coverage", arm.coverage);
        s.gauge("max_bound_ratio", arm.max_ratio);
        s.gauge("fleet_interval_mean", arm.fleet_interval);
        s.gauge("fleet_worst_mean", arm.fleet_worst);
        table.add_row(vec![
            name.to_string(),
            arm.messages.to_string(),
            arm.ack_messages.to_string(),
            arm.violations.to_string(),
            fmt_f(arm.coverage),
            arm.relaxations.to_string(),
            arm.directives.to_string(),
            fmt_f(arm.max_ratio),
            fmt_f(arm.fleet_interval),
            fmt_f(arm.fleet_worst),
        ]);
    }
    metrics.record("static.graph", &stat.graph);
    metrics.record("feedback.graph", &fb.graph);
    let mut gate = metrics.scope("gate");
    gate.counter("violations", stat.violations + fb.violations);
    gate.gauge("savings_fraction", savings);
    gate.gauge("min_savings_fraction", MIN_SAVINGS);
    gate.gauge("net_savings_fraction", net_savings);
    gate.gauge("coverage", fb.coverage.min(stat.coverage));
    gate.gauge("min_coverage", MIN_COVERAGE);
    gate.gauge("max_bound_ratio", stat.max_ratio.max(fb.max_ratio));
    table.print();
    println!(
        "# savings: {savings:.4} forward, {net_savings:.4} net of directive traffic (feedback vs static)"
    );
    println!(
        "# shape: feedback_msgs < static_msgs with savings >= {MIN_SAVINGS} at identical contracts; violations 0 in both arms; bound_ratio <= 1; coverage >= {MIN_COVERAGE} (suppression truncates errors, so 95% intervals over-cover); fleet_95pct well below fleet_worst"
    );
    metrics.write();
}
