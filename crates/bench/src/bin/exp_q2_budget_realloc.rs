//! Q2 — epoch budget re-allocation: a standing AVG query served at the same
//! aggregate precision for fewer messages when the server redistributes the
//! per-stream imprecision budget from observed error contribution.
//!
//! Claim exercised: precision propagation gives a *static* sound split
//! (uniform δᵢ = ε discharges AVG WITHIN ε), but streams differ wildly in
//! volatility — a calm stream wastes budget it never spends, a hot stream
//! burns messages a looser bound would suppress. The realloc arm closes the
//! loop by composing two existing pieces next to its [`QueryGraph`]: every
//! epoch the [`FleetController`] rebuilds per-stream demand curves from each
//! source's recent prediction errors and solves for the cost-optimal
//! allocation; [`split_budget`] over the same curves gives the query's caps
//! (its `ε·k` imprecision budget — a query guarantee always wins over budget
//! savings); the clamped result ships as `Bound` directives over the ack
//! link.
//!
//! Both arms drive live source/server endpoint fleets in lockstep and verify
//! the served AVG against the observed signal every tick:
//!
//! * **uniform** — the static propagated split, δᵢ = ε forever;
//! * **realloc** — starts at δᵢ = ε, then re-tunes every `EPOCH` ticks via
//!   bound directives; answers are verified against the per-stream deltas
//!   *actually in force* at each tick (a directive pushed at tick *t* is
//!   polled at *t+1* and governs decisions from *t+2*).
//!
//! Expected shape: realloc serves the same ε contract (max served answer
//! bound stays ≈ ε, transiently above only while a re-tune is in flight)
//! for ≥15% fewer forward messages at loose ε; violations 0 everywhere.
//!
//! [`FleetController`]: kalstream_core::FleetController

use kalstream_bench::query_drive::{drive_graph, QueryStream};
use kalstream_bench::table::{fmt_f, Table};
use kalstream_bench::MetricsOut;
use kalstream_core::{FleetController, ProtocolConfig, SessionSpec, StreamDemand};
use kalstream_gen::{synthetic::RandomWalk, Stream};
use kalstream_query::{split_budget, split_budget_uniform, AggKind, QueryGraph, StreamId};
use kalstream_sim::{LockstepStream, SessionConfig};

const STREAMS: usize = 20;
const MEASURE_TICKS: u64 = 10_000;
const EPOCH: u64 = 500;
const BUDGET_RATE: f64 = 0.5;
const DELTA_FLOOR: f64 = 1e-4;

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
        15_000 + i as u64 + phase * 100,
    ))
}

struct ArmResult {
    messages: u64,
    ack_messages: u64,
    violations: u64,
    max_answer_bound: f64,
    directives: u64,
}

/// Runs one arm: every stream starts at δ = ε; when `realloc` is set the
/// allocator re-tunes the fleet each epoch through bound directives.
fn run_arm(epsilon: f64, realloc: bool) -> ArmResult {
    let mut streams: Vec<QueryStream<'_>> = (0..STREAMS)
        .map(|i| {
            let spec =
                SessionSpec::default_scalar(0.0, ProtocolConfig::new(epsilon).unwrap()).unwrap();
            let (source, server) = spec.build().split();
            let mut walk = make_walk(i, 2);
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
    let mut controller =
        realloc.then(|| FleetController::new(STREAMS, EPOCH, BUDGET_RATE).unwrap());
    // AVG WITHIN ε over k members: any deltas with Σ δᵢ ≤ ε·k discharge it.
    let query_budget = epsilon * STREAMS as f64;

    let mut max_answer_bound = 0.0f64;
    let mut directives = 0u64;
    let config = SessionConfig::instant(MEASURE_TICKS, epsilon);
    let report = drive_graph(&config, &mut streams, &mut graph, |_now, graph, streams| {
        if let Some(answer) = graph.answer("fleet_avg") {
            max_answer_bound = max_answer_bound.max(answer.bound);
        }
        let Some(controller) = controller.as_mut() else {
            return;
        };
        // The controller counts its own ticks: harvest the samples only
        // when a round is due, at each epoch boundary.
        if !controller.due() {
            return;
        }
        let samples: Vec<Vec<f64>> = streams
            .iter()
            .map(|s| s.producer.rate_estimator().samples())
            .collect();
        let Some(allocated) = controller.allocate(&samples) else {
            return;
        };
        // Clamp by the query's caps: split its budget cost-optimally against
        // the same demand curves, uniformly while any member is still cold.
        let demands: Option<Vec<StreamDemand>> = samples
            .iter()
            .map(|window| StreamDemand::new(window.clone(), 1.0).ok())
            .collect();
        let caps = match demands {
            Some(d) => split_budget(&d, query_budget, None),
            None => split_budget_uniform(STREAMS, query_budget, None),
        };
        for ((stream, alloc), cap) in streams.iter_mut().zip(allocated).zip(caps) {
            if let Some(delta) = alloc {
                let directive = delta.min(cap).max(DELTA_FLOOR);
                stream.consumer.push_bound_directive(directive);
                directives += 1;
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
        violations: graph.violations(),
        max_answer_bound,
        directives,
    }
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    let mut table = Table::new(
        format!(
            "Q2: AVG({STREAMS} walks) WITHIN eps — uniform static split vs per-epoch budget re-allocation over bound directives (epoch {EPOCH})"
        ),
        &[
            "agg_bound",
            "uniform_msgs",
            "uniform_viol",
            "realloc_msgs",
            "realloc_viol",
            "realloc_bound_max",
            "directives",
            "ack_msgs",
            "savings",
        ],
    );
    let mut total_violations = 0u64;
    let mut best_savings = f64::NEG_INFINITY;
    let mut worst_bound_ratio = 0.0f64;
    for epsilon in [0.5, 1.0, 2.0] {
        let uniform = run_arm(epsilon, false);
        let realloc = run_arm(epsilon, true);
        let savings = 1.0 - realloc.messages as f64 / uniform.messages as f64;
        total_violations += uniform.violations + realloc.violations;
        best_savings = best_savings.max(savings);
        worst_bound_ratio = worst_bound_ratio.max(realloc.max_answer_bound / epsilon);
        let mut s = metrics.scope(&format!("epsilon_{epsilon}").replace('.', "_"));
        s.counter("uniform.messages", uniform.messages);
        s.counter("uniform.violations", uniform.violations);
        s.counter("realloc.messages", realloc.messages);
        s.counter("realloc.violations", realloc.violations);
        s.counter("realloc.directives", realloc.directives);
        s.counter("realloc.ack_messages", realloc.ack_messages);
        s.gauge("realloc.max_answer_bound", realloc.max_answer_bound);
        s.gauge("realloc.savings_fraction", savings);
        table.add_row(vec![
            fmt_f(epsilon),
            uniform.messages.to_string(),
            uniform.violations.to_string(),
            realloc.messages.to_string(),
            realloc.violations.to_string(),
            fmt_f(realloc.max_answer_bound),
            realloc.directives.to_string(),
            realloc.ack_messages.to_string(),
            fmt_f(savings),
        ]);
    }
    let mut gate = metrics.scope("gate");
    gate.counter("violations", total_violations);
    gate.gauge("savings_fraction", best_savings);
    gate.gauge("min_savings_fraction", 0.15);
    gate.gauge("max_bound_ratio", worst_bound_ratio);
    table.print();
    println!(
        "# shape: realloc_msgs < uniform_msgs with savings >= 0.15 at the loosest bound (~0 at tight bounds, where the optimal split is near-uniform); violations 0 in every column; realloc_bound_max stays ~= agg_bound"
    );
    metrics.write();
}
