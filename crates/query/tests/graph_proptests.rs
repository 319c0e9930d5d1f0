//! Property-based tests of the cascaded query graph.
//!
//! Two headline properties from the issue:
//!
//! 1. **Punctuation never breaks a contract.** Drive a feedback-enabled
//!    graph with adversarial served values (deviating from truth by exactly
//!    the delta in force, with the in-force delta lagging issued grants by
//!    a random transport lag) — verification must count zero violations and
//!    every contract node's served bound must stay within its contract.
//! 2. **A DAG with no feedback is the flat layer.** With feedback off, a
//!    graph of aggregates over raw aliases answers identically to
//!    hand-composed flat queries and derives the same per-stream deltas as
//!    [`QueryRegistry::required_deltas`]'s uniform split.
//! 3. **A sliding sink is the `window.rs` aggregator.** Its answer is
//!    bit-identical to a stand-alone aggregator fed the same served
//!    sequence, and it grants its input exactly its contract.

use std::collections::{HashMap, VecDeque};

use kalstream_query::window::{SlidingAvg, SlidingCountAbove, SlidingExtremum};
use kalstream_query::{
    answer_aggregate, AggKind, AggregateQuery, PointQuery, QueryGraph, QueryRegistry, StreamId,
    StreamView, WindowAnswer, WindowSpec,
};
use proptest::prelude::*;

/// Tiny deterministic generator (xorshift64*) so the adversarial drive is
/// reproducible from the proptest seed without extra dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in [-1, 1].
    fn signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn agg_kind(idx: usize) -> AggKind {
    match idx % 4 {
        0 => AggKind::Avg,
        1 => AggKind::Sum,
        2 => AggKind::Min,
        _ => AggKind::Max,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: with punctuation feedback on, grants lagging by a random
    /// transport delay, and served values adversarially placed anywhere
    /// inside the in-force bound, no answer ever violates its worst-case
    /// bound, no resolved alert verdict lies, and every contract node
    /// (aggregates and the tumbling pane) keeps its served bound within
    /// its registered contract.
    #[test]
    fn punctuation_relaxed_deltas_never_violate_contracts(
        seed in any::<u64>(),
        pane in 4usize..24,
        margin in 0.02f64..0.3,
        agg_contract in 0.2f64..1.0,
        pane_contract in 0.1f64..0.6,
        threshold in -1.0f64..1.0,
        lag in 1usize..3,
        ticks in 50usize..220,
    ) {
        let mut g = QueryGraph::new();
        for s in 0..4usize {
            g.add_raw(&format!("s{s}"), StreamId(s)).unwrap();
        }
        g.add_aggregate("avg_a", AggKind::Avg, &["s0", "s1"], Some(agg_contract)).unwrap();
        g.add_aggregate("avg_b", AggKind::Avg, &["s2", "s3"], Some(agg_contract)).unwrap();
        g.add_aggregate("fleet", AggKind::Avg, &["avg_a", "avg_b"], Some(2.0 * agg_contract))
            .unwrap();
        g.add_tumbling_avg("pane", "avg_a", pane, pane_contract).unwrap();
        g.add_alert("al", "avg_b", threshold, margin).unwrap();
        g.set_feedback(true);

        // Static grants seed the in-force deltas (what PR 5 would run).
        let mut s_twin = QueryGraph::new();
        for s in 0..4usize {
            s_twin.add_raw(&format!("s{s}"), StreamId(s)).unwrap();
        }
        s_twin.add_aggregate("avg_a", AggKind::Avg, &["s0", "s1"], Some(agg_contract)).unwrap();
        s_twin.add_aggregate("avg_b", AggKind::Avg, &["s2", "s3"], Some(agg_contract)).unwrap();
        s_twin
            .add_aggregate("fleet", AggKind::Avg, &["avg_a", "avg_b"], Some(2.0 * agg_contract))
            .unwrap();
        s_twin.add_tumbling_avg("pane", "avg_a", pane, pane_contract).unwrap();
        s_twin.add_alert("al", "avg_b", threshold, margin).unwrap();
        let static_req = s_twin.required_deltas();

        let mut rng = Rng::new(seed);
        let mut truth = [0.0f64; 4];
        // Issued-grant history per stream; the delta in force at tick t is
        // the grant issued `lag` calls ago (transport + shadow-filter lag).
        let mut history: Vec<VecDeque<f64>> = (0..4)
            .map(|s| {
                let d = static_req[&StreamId(s)];
                VecDeque::from(vec![d; lag])
            })
            .collect();
        for _ in 0..ticks {
            let mut views = [StreamView { value: 0.0, delta: 0.0, staleness: 0 }; 4];
            for s in 0..4 {
                truth[s] += 0.08 * rng.signed();
                let in_force = history[s][0];
                // Adversarial: served value anywhere inside truth ± δ.
                views[s] = StreamView {
                    value: truth[s] + in_force * rng.signed(),
                    delta: in_force,
                    staleness: 0,
                };
            }
            g.observe_tick(&views, &[0.0; 4]);
            prop_assert_eq!(g.verify_tick(&truth), 0, "no served guarantee may break");
            let req = g.required_deltas();
            for s in 0..4 {
                history[s].pop_front();
                history[s].push_back(req[&StreamId(s)]);
            }
        }
        prop_assert!(
            g.max_contract_ratio() <= 1.0 + 1e-9,
            "a contract node exceeded its contract: ratio {}",
            g.max_contract_ratio()
        );
    }

    /// Property 2a: with feedback off, graph aggregates over raw aliases
    /// answer bit-identically to the flat `answer_aggregate` path, and a
    /// second-tier aggregate matches the hand-composed arithmetic over the
    /// first tier's answers.
    #[test]
    fn dag_without_feedback_equals_hand_composed_flat_queries(
        values in prop::collection::vec(-100.0f64..100.0, 2..8),
        deltas in prop::collection::vec(0.01f64..2.0, 8),
        kind_a in 0usize..4,
        kind_b in 0usize..4,
    ) {
        let n = values.len();
        let views: Vec<StreamView> = values
            .iter()
            .zip(deltas.iter())
            .map(|(&value, &delta)| StreamView { value, delta, staleness: 0 })
            .collect();
        let split = n / 2 + 1;
        let ids: Vec<String> = (0..n).map(|s| format!("s{s}")).collect();

        let mut g = QueryGraph::new();
        for (s, id) in ids.iter().enumerate() {
            g.add_raw(id, StreamId(s)).unwrap();
        }
        let lo_refs: Vec<&str> = ids[..split].iter().map(String::as_str).collect();
        let hi_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        g.add_aggregate("lo", agg_kind(kind_a), &lo_refs, Some(1.0)).unwrap();
        g.add_aggregate("all", agg_kind(kind_b), &hi_refs, Some(1.0)).unwrap();
        g.observe_tick(&views, &vec![0.0; n]);

        // Tier 1: bit-identical to the flat evaluator.
        for (gid, members) in [("lo", &views[..split]), ("all", &views[..])] {
            let flat_query = AggregateQuery::new(
                agg_kind(if gid == "lo" { kind_a } else { kind_b }),
                (0..members.len()).map(StreamId).collect(),
                1.0,
            )
            .unwrap();
            let flat = answer_aggregate(&flat_query, members).unwrap();
            let dag = g.answer(gid).unwrap();
            prop_assert_eq!(dag.value.to_bits(), flat.value.to_bits());
            prop_assert_eq!(dag.bound.to_bits(), flat.bound.to_bits());
        }
    }

    /// Property 2b: with feedback off, per-stream required deltas from the
    /// graph equal the flat registry's uniform split for the same workload
    /// (point queries + one aggregate), up to float-division noise.
    #[test]
    fn dag_static_required_deltas_match_flat_registry(
        n in 2usize..8,
        kind in 0usize..4,
        bound in 0.05f64..2.0,
        point_delta in 0.01f64..1.0,
    ) {
        let ids: Vec<String> = (0..n).map(|s| format!("s{s}")).collect();
        let mut g = QueryGraph::new();
        for (s, id) in ids.iter().enumerate() {
            g.add_raw(id, StreamId(s)).unwrap();
        }
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        g.add_aggregate("agg", agg_kind(kind), &refs, Some(bound)).unwrap();
        g.add_point("p0", "s0", point_delta).unwrap();
        let dag_req = g.required_deltas();

        let mut flat = QueryRegistry::new();
        flat.add_aggregate(
            AggregateQuery::new(agg_kind(kind), (0..n).map(StreamId).collect(), bound).unwrap(),
        );
        flat.add_point(PointQuery { stream: StreamId(0), delta: point_delta });
        let flat_req = flat.required_deltas(&HashMap::new());

        for s in 0..n {
            let d = dag_req[&StreamId(s)];
            let f = flat_req[&StreamId(s)];
            prop_assert!(
                (d - f).abs() <= 1e-9 * f.max(1.0),
                "stream {}: dag {} vs flat {}",
                s, d, f
            );
        }
    }

    /// Property 3: a sliding node over a raw alias answers bit-identically
    /// to the stand-alone `window.rs` aggregator of its shape fed the same
    /// served `(value, bound)` sequence, tick by tick, and the static
    /// propagation grants its input exactly its contract.
    #[test]
    fn sliding_node_is_the_standalone_window_aggregator(
        shape in 0usize..4,
        window in 1usize..12,
        threshold in -5.0f64..5.0,
        contract in 0.05f64..1.0,
        served in prop::collection::vec((-10.0f64..10.0, 0.0f64..1.0), 1..60),
    ) {
        let spec = match shape {
            0 => WindowSpec::Avg { window },
            1 => WindowSpec::Min { window },
            2 => WindowSpec::Max { window },
            _ => WindowSpec::CountAbove { window, threshold },
        };
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_sliding("w", "s0", spec, contract).unwrap();
        prop_assert_eq!(g.required_deltas()[&StreamId(0)].to_bits(), contract.to_bits());

        let mut avg = SlidingAvg::new(window);
        let mut ext = match spec {
            WindowSpec::Min { .. } => SlidingExtremum::min(window),
            _ => SlidingExtremum::max(window),
        };
        let mut count = SlidingCountAbove::new(window, threshold);
        for &(value, delta) in &served {
            g.observe_tick(&[StreamView { value, delta, staleness: 0 }], &[]);
            avg.push(value, delta);
            ext.push(value, delta);
            count.push(value, delta);
            let alone = match spec {
                WindowSpec::Avg { .. } => avg.answer().map(|(v, b)| (v.to_bits(), b.to_bits())),
                WindowSpec::Min { .. } | WindowSpec::Max { .. } => {
                    ext.answer().map(|(v, b)| (v.to_bits(), b.to_bits()))
                }
                WindowSpec::CountAbove { .. } => count.answer(),
            };
            let node = g.window_answer("w").map(|a| match a {
                WindowAnswer::Value { value, bound } => (value.to_bits(), bound.to_bits()),
                WindowAnswer::Count { lo, hi } => (lo, hi),
            });
            prop_assert_eq!(node, alone);
        }
        prop_assert_eq!(g.required_deltas()[&StreamId(0)].to_bits(), contract.to_bits());
    }
}
