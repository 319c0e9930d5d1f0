//! Property-based tests of precision propagation: for arbitrary query
//! workloads, as long as every stream honors the per-stream delta the
//! graph derived for it, no reconstructed answer ever violates its
//! query-level bound.

use kalstream_query::{
    split_budget_weighted, AggKind, AlertState, QueryGraph, StreamId, StreamView, WindowSpec,
};
use proptest::prelude::*;

fn view(value: f64, delta: f64) -> StreamView {
    StreamView {
        value,
        delta,
        staleness: 0,
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline soundness property: register a standing query of every
    /// sink and aggregate kind (aggregate, sliding AVG / MAX / COUNT-above,
    /// threshold alert), derive per-stream deltas via precision
    /// propagation, then serve adversarial values that deviate from the
    /// truth by *exactly* the derived delta (scaled by an arbitrary
    /// per-tick fraction). Verification must count zero violations.
    #[test]
    fn propagated_deltas_keep_every_answer_sound(
        shape in (2usize..5, 0usize..4, 1usize..12),
        bounds in (0.05..2.0f64, 0.05..1.0f64, -5.0..5.0f64, 0.05..1.0f64),
        truths in prop::collection::vec(
            prop::collection::vec(-10.0..10.0f64, 4),
            1..40,
        ),
        fracs in prop::collection::vec(
            prop::collection::vec(-1.0..1.0f64, 4),
            1..40,
        ),
    ) {
        let (n, kind_idx, window) = shape;
        let (bound, window_bound, threshold, margin) = bounds;
        let ids: Vec<String> = (0..n).map(|s| format!("s{s}")).collect();
        let mut g = QueryGraph::new();
        for (s, id) in ids.iter().enumerate() {
            g.add_raw(id, StreamId(s)).unwrap();
        }
        let members: Vec<&str> = ids.iter().map(String::as_str).collect();
        g.add_aggregate("agg", agg_kind(kind_idx), &members, Some(bound)).unwrap();
        g.add_sliding("win", "s0", WindowSpec::Avg { window }, window_bound).unwrap();
        g.add_sliding("ext", &ids[1 % n], WindowSpec::Max { window }, window_bound).unwrap();
        g.add_sliding("cnt", "s0", WindowSpec::CountAbove { window, threshold }, window_bound)
            .unwrap();
        g.add_alert("alert", "s0", threshold, margin).unwrap();

        let required = g.required_deltas();
        for (truth_row, frac_row) in truths.iter().zip(&fracs) {
            // Every stream honors its derived delta: the served value
            // deviates from truth by delta·frac with |frac| ≤ 1.
            let served: Vec<StreamView> = (0..n)
                .map(|i| {
                    let delta = required[&StreamId(i)];
                    view(truth_row[i] + delta * frac_row[i], delta)
                })
                .collect();
            g.observe_tick(&served, &[]);
            let violations = g.verify_tick(&truth_row[..n]);
            prop_assert_eq!(violations, 0, "required deltas {:?}", required);
        }
        prop_assert_eq!(g.violations(), 0);
        prop_assert!(g.max_contract_ratio() <= 1.0 + 1e-9);
    }

    /// The weighted split never overspends the aggregate's imprecision
    /// budget, and with the per-stream cap applied the reconstructed
    /// answer bound stays within the query bound for every aggregate kind.
    #[test]
    fn weighted_split_respects_budget_and_query_bound(
        kind_idx in 0usize..4,
        bound in 0.01..5.0f64,
        weights in prop::collection::vec(0.05..20.0f64, 1..8),
    ) {
        let kind = agg_kind(kind_idx);
        let k = weights.len() as f64;
        let (budget, cap) = match kind {
            AggKind::Avg => (bound * k, None),
            AggKind::Sum => (bound, None),
            AggKind::Min | AggKind::Max => (bound * k, Some(bound)),
        };
        let split = split_budget_weighted(&weights, budget, cap);
        prop_assert!(split.iter().sum::<f64>() <= budget * (1.0 + 1e-9));
        // The answer bound interval arithmetic derives from this split.
        let answer_bound = match kind {
            AggKind::Avg => split.iter().sum::<f64>() / k,
            AggKind::Sum => split.iter().sum::<f64>(),
            AggKind::Min | AggKind::Max => split.iter().copied().fold(0.0, f64::max),
        };
        prop_assert!(
            answer_bound <= bound * (1.0 + 1e-9),
            "answer bound {answer_bound} vs query bound {bound} ({kind:?})"
        );
    }

    /// With the propagated alert delta (δ ≤ margin) honored, a truth
    /// further than 2·margin from the threshold always yields a resolved,
    /// correct verdict — and a resolved verdict is never wrong.
    #[test]
    fn alert_verdicts_resolve_and_never_lie(
        threshold in -5.0..5.0f64,
        margin in 0.05..1.0f64,
        offsets in prop::collection::vec(-4.0..4.0f64, 1..30),
        fracs in prop::collection::vec(-1.0..1.0f64, 1..30),
    ) {
        let mut g = QueryGraph::new();
        g.add_raw("s0", StreamId(0)).unwrap();
        g.add_alert("a", "s0", threshold, margin).unwrap();
        let delta = g.required_deltas()[&StreamId(0)];
        prop_assert!(delta <= margin);
        for (offset, frac) in offsets.iter().zip(&fracs) {
            let truth = threshold + offset;
            g.observe_tick(&[view(truth + delta * frac, delta)], &[]);
            prop_assert_eq!(g.verify_tick(&[truth]), 0);
            let state = g.alert_state("a").unwrap();
            if offset.abs() > 2.0 * margin {
                prop_assert_ne!(
                    state,
                    AlertState::Uncertain,
                    "truth {} threshold {} margin {}",
                    truth,
                    threshold,
                    margin
                );
            }
        }
    }
}
