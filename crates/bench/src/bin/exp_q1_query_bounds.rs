//! Q1 — query-bound propagation: messages vs. the *query's* precision
//! bound, naive per-stream bounds vs. interval-arithmetic propagation.
//!
//! Claim exercised: a precision contract attaches to the **query**, and the
//! query graph propagates it down to per-stream suppression bounds. An AVG over
//! `k` streams with answer bound ε is satisfied by any member deltas with
//! mean ≤ ε (interval arithmetic over the mean), so the members share a
//! total imprecision budget of `ε·k`.
//!
//! Three ways to discharge the same AVG(10 walks) WITHIN ε contract:
//!
//! * **naive** — without propagation, each member is held to ε/k (bounding
//!   the error *sum* rather than the mean — the safe guess when the
//!   aggregate math lives outside the allocator);
//! * **propagated** — the uniform interval-arithmetic split δᵢ = ε;
//! * **weighted** — [`split_budget_weighted`] with weights ∝ 1/σ_w, so calm
//!   streams (tight bounds are nearly free) stay tight and volatile streams
//!   (messages are expensive) take the slack — same `ε·k` budget, same
//!   answer bound.
//!
//! Every run drives a [`QueryGraph`] (feedback off) against live
//! source/server endpoint fleets in lockstep — two sliding windows and a
//! threshold alert ride along on the member streams — and verifies every
//! answer against the observed signal each tick. Expected shape: propagated
//! beats naive by a wide margin at every ε; the weighted split beats the
//! uniform one at loose ε (where the volatility spread dominates message
//! cost) and loses at tight ε (where over-tightening calm streams buys
//! nothing); violations 0 everywhere.

use kalstream_bench::query_drive::{drive_graph, QueryStream};
use kalstream_bench::table::{fmt_f, Table};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_gen::{synthetic::RandomWalk, Stream};
use kalstream_query::{split_budget_weighted, AggKind, QueryGraph, StreamId, WindowSpec};
use kalstream_sim::{LockstepStream, SessionConfig};

const STREAMS: usize = 10;
const MEASURE_TICKS: u64 = 6_000;

fn sigma_w(i: usize) -> f64 {
    // Volatilities geometrically spaced over [0.05, 2.0] — 40× spread.
    0.05 * (40.0f64).powf(i as f64 / (STREAMS - 1) as f64)
}

fn make_walk(i: usize, phase: u64) -> Box<dyn Stream + Send> {
    Box::new(RandomWalk::new(
        0.0,
        0.0,
        sigma_w(i),
        0.02,
        13_000 + i as u64 + phase * 1_000,
    ))
}

/// Runs the fleet at fixed per-stream deltas with the full query workload
/// registered; returns (total forward messages, total query violations).
fn measure(deltas: &[f64], epsilon: f64, phase: u64) -> (u64, u64) {
    let deltas: Vec<f64> = deltas.iter().map(|d| d.max(1e-4)).collect();
    let mut streams: Vec<QueryStream<'_>> = deltas
        .iter()
        .enumerate()
        .map(|(i, &delta)| {
            let spec =
                SessionSpec::default_scalar(0.0, ProtocolConfig::new(delta).unwrap()).unwrap();
            let (source, server) = spec.build().split();
            let mut walk = make_walk(i, phase);
            LockstepStream {
                producer: source,
                consumer: server,
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    walk.next_into(obs, tru);
                }),
            }
        })
        .collect();

    let ids: Vec<String> = (0..STREAMS).map(|i| format!("s{i}")).collect();
    let mut graph = QueryGraph::new();
    for (i, id) in ids.iter().enumerate() {
        graph.add_raw(id, StreamId(i)).unwrap();
    }
    let members: Vec<&str> = ids.iter().map(String::as_str).collect();
    graph
        .add_aggregate("fleet_avg", AggKind::Avg, &members, Some(epsilon))
        .unwrap();
    // Satellite queries riding on member streams, bounded by the deltas
    // actually in force there.
    let (calm, hot) = (members[0], members[STREAMS - 1]);
    graph
        .add_sliding("calm_win", calm, WindowSpec::Avg { window: 64 }, deltas[0])
        .unwrap();
    let count = WindowSpec::CountAbove {
        window: 64,
        threshold: 0.0,
    };
    graph
        .add_sliding("calm_count", calm, count, deltas[0])
        .unwrap();
    graph
        .add_alert("hot_alert", hot, 0.0, deltas[STREAMS - 1])
        .unwrap();

    let config = SessionConfig::instant(MEASURE_TICKS, epsilon);
    let report = drive_graph(&config, &mut streams, &mut graph, |_, _, _| {});
    (report.total_traffic.messages(), graph.violations())
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    let mut table = Table::new(
        format!(
            "Q1: AVG({STREAMS} walks) WITHIN eps — messages under naive (eps/k), propagated (eps), and weighted per-stream bounds"
        ),
        &[
            "agg_bound",
            "naive_msgs",
            "naive_viol",
            "propagated_msgs",
            "propagated_viol",
            "weighted_msgs",
            "weighted_viol",
            "prop_savings",
        ],
    );
    // Weight ∝ 1/σ_w: calm streams are important (kept tight), volatile
    // streams take the imprecision budget.
    let weights: Vec<f64> = (0..STREAMS).map(|i| 1.0 / sigma_w(i)).collect();
    let mut total_violations = 0u64;
    let mut min_savings = f64::INFINITY;
    for epsilon in [0.2, 0.5, 1.0, 2.0] {
        let naive = vec![epsilon / STREAMS as f64; STREAMS];
        let propagated = vec![epsilon; STREAMS];
        let weighted = split_budget_weighted(&weights, epsilon * STREAMS as f64, None);
        let (n_msgs, n_viol) = measure(&naive, epsilon, 1);
        let (p_msgs, p_viol) = measure(&propagated, epsilon, 1);
        let (w_msgs, w_viol) = measure(&weighted, epsilon, 1);
        let savings = 1.0 - p_msgs as f64 / n_msgs as f64;
        total_violations += n_viol + p_viol + w_viol;
        min_savings = min_savings.min(savings);
        let mut s = metrics.scope(&format!("epsilon_{epsilon}").replace('.', "_"));
        s.counter("naive.messages", n_msgs);
        s.counter("naive.violations", n_viol);
        s.counter("propagated.messages", p_msgs);
        s.counter("propagated.violations", p_viol);
        s.counter("weighted.messages", w_msgs);
        s.counter("weighted.violations", w_viol);
        s.gauge("propagated.savings_fraction", savings);
        table.add_row(vec![
            fmt_f(epsilon),
            n_msgs.to_string(),
            n_viol.to_string(),
            p_msgs.to_string(),
            p_viol.to_string(),
            w_msgs.to_string(),
            w_viol.to_string(),
            fmt_f(savings),
        ]);
    }
    let mut gate = metrics.scope("gate");
    gate.counter("violations", total_violations);
    gate.gauge("savings_fraction", min_savings);
    gate.gauge("min_savings_fraction", 0.15);
    table.print();
    println!(
        "# shape: naive_msgs > propagated_msgs at every bound; weighted_msgs <= propagated_msgs at loose bounds; violations 0 in every column"
    );
    metrics.write();
}
