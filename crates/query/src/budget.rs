//! Splitting an aggregate's error budget across member streams.
//!
//! An aggregate query grants its members a total imprecision budget
//! `Σ δᵢ ≤ B` ([`crate::AggregateQuery::imprecision_budget`]). Any split
//! meets the answer bound; the *message cost* of the split varies enormously
//! when streams have different volatility. The optimal split gives volatile
//! streams looser bounds (their messages are expensive) and calm streams
//! tighter ones (their precision is cheap) — experiment F9 measures the gap
//! against the uniform split.

use kalstream_core::StreamDemand;

/// Uniform split: every member gets `B / k`, capped at `cap` if the
/// aggregate imposes one.
pub fn split_budget_uniform(k: usize, total: f64, cap: Option<f64>) -> Vec<f64> {
    assert!(k > 0, "need at least one stream");
    let each = total / k as f64;
    let each = cap.map_or(each, |c| each.min(c));
    vec![each; k]
}

/// Weighted split: divides the budget in *inverse* proportion to stream
/// weights, so important streams (higher weight, matching the
/// [`kalstream_core::StreamDemand`] weight convention "higher = keep tighter")
/// get the tighter bounds: `δᵢ = total · (1/wᵢ) / Σⱼ (1/wⱼ)`, capped at
/// `cap` if the aggregate imposes one. With equal weights this is exactly
/// [`split_budget_uniform`].
///
/// # Panics
/// Panics when `weights` is empty, any weight is non-positive or
/// non-finite, or `total` is not positive.
pub fn split_budget_weighted(weights: &[f64], total: f64, cap: Option<f64>) -> Vec<f64> {
    assert!(!weights.is_empty(), "need at least one stream");
    assert!(total > 0.0 && total.is_finite(), "budget must be positive");
    assert!(
        weights.iter().all(|w| *w > 0.0 && w.is_finite()),
        "weights must be positive and finite"
    );
    let inv_sum: f64 = weights.iter().map(|w| 1.0 / w).sum();
    weights
        .iter()
        .map(|w| {
            let share = total * (1.0 / w) / inv_sum;
            cap.map_or(share, |c| share.min(c))
        })
        .collect()
}

/// Cost-optimal split: minimises the predicted total message rate
/// `Σ rateᵢ(δᵢ)` subject to `Σ δᵢ ≤ total` (and the optional per-stream
/// `cap`), using each stream's measured demand curve.
///
/// The curves are empirical step functions, so the only candidate bounds
/// are the distinct error samples. A greedy marginal-ratio algorithm spends
/// the imprecision budget move by move: each move advances one stream's
/// bound to its next distinct sample, and the move with the best
/// rate-reduction per unit of budget is taken while it still fits. (A pure
/// Lagrangian relaxation is bang-bang on near-linear step curves — it
/// either takes a stream's whole curve or nothing — so the greedy
/// primal algorithm is used instead; it provably never does worse than
/// leaving the budget unspent and empirically beats the uniform split on
/// heterogeneous fleets.)
///
/// # Panics
/// Panics when `demands` is empty or `total` is not positive.
pub fn split_budget(demands: &[StreamDemand], total: f64, cap: Option<f64>) -> Vec<f64> {
    assert!(!demands.is_empty(), "need at least one stream");
    assert!(total > 0.0 && total.is_finite(), "budget must be positive");

    // Distinct candidate bounds per stream (ascending, capped): the points
    // where the rate actually drops.
    let candidates: Vec<Vec<f64>> = demands
        .iter()
        .map(|d| {
            let mut c: Vec<f64> = d
                .samples_sorted()
                .filter(|&s| s > 0.0 && cap.is_none_or(|cp| s <= cp))
                .collect();
            c.dedup();
            c
        })
        .collect();

    let mut idx = vec![0usize; demands.len()]; // next candidate index
    let mut deltas = vec![0.0; demands.len()];
    let mut slack = total;

    loop {
        // Best affordable move: advance stream i to candidates[i][idx[i]].
        let mut best: Option<(usize, f64)> = None; // (stream, ratio)
        for (i, d) in demands.iter().enumerate() {
            let Some(&next) = candidates[i].get(idx[i]) else {
                continue;
            };
            let cost = next - deltas[i];
            if cost > slack + 1e-15 {
                continue;
            }
            let gain = d.rate_at(deltas[i]) - d.rate_at(next);
            if gain <= 0.0 {
                continue;
            }
            let ratio = gain / cost.max(1e-300);
            if best.is_none_or(|(_, r)| ratio > r) {
                best = Some((i, ratio));
            }
        }
        let Some((i, _)) = best else { break };
        let next = candidates[i][idx[i]];
        slack -= next - deltas[i];
        deltas[i] = next;
        idx[i] += 1;
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(scale: f64) -> StreamDemand {
        let samples: Vec<f64> = (1..=50).map(|i| scale * i as f64 / 50.0).collect();
        StreamDemand::new(samples, 1.0).unwrap()
    }

    #[test]
    fn uniform_split_divides_evenly() {
        assert_eq!(split_budget_uniform(4, 2.0, None), vec![0.5; 4]);
        assert_eq!(split_budget_uniform(4, 2.0, Some(0.3)), vec![0.3; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn uniform_split_rejects_zero_streams() {
        let _ = split_budget_uniform(0, 1.0, None);
    }

    #[test]
    fn weighted_split_tightens_important_streams() {
        let split = split_budget_weighted(&[4.0, 1.0], 2.5, None);
        // Inverse proportion: shares 1/4 : 1 → 0.5 and 2.0.
        assert!((split[0] - 0.5).abs() < 1e-12, "{split:?}");
        assert!((split[1] - 2.0).abs() < 1e-12, "{split:?}");
        assert!((split.iter().sum::<f64>() - 2.5).abs() < 1e-12);
        // Equal weights collapse to the uniform split.
        assert_eq!(
            split_budget_weighted(&[1.0; 4], 2.0, None),
            split_budget_uniform(4, 2.0, None)
        );
        // The cap still binds.
        let capped = split_budget_weighted(&[1.0, 10.0], 2.0, Some(0.5));
        assert!(capped.iter().all(|&d| d <= 0.5 + 1e-12), "{capped:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_split_rejects_bad_weights() {
        let _ = split_budget_weighted(&[1.0, -1.0], 1.0, None);
    }

    #[test]
    fn optimal_split_respects_budget() {
        let demands = vec![demand(0.1), demand(10.0)];
        for total in [0.05, 0.5, 2.0, 20.0] {
            let split = split_budget(&demands, total, None);
            assert!(
                split.iter().sum::<f64>() <= total + 1e-9,
                "budget {total}: split {split:?}"
            );
        }
    }

    #[test]
    fn optimal_split_respects_cap() {
        let demands = vec![demand(1.0), demand(1.0)];
        let split = split_budget(&demands, 10.0, Some(0.25));
        assert!(split.iter().all(|&d| d <= 0.25 + 1e-12), "{split:?}");
    }

    #[test]
    fn optimal_split_is_cheaper_than_uniform_on_heterogeneous_streams() {
        let demands = vec![demand(0.1), demand(10.0)];
        let total = 2.0;
        let optimal = split_budget(&demands, total, None);
        let uniform = split_budget_uniform(2, total, None);
        let cost = |split: &[f64]| -> f64 {
            demands
                .iter()
                .zip(split.iter())
                .map(|(d, &delta)| d.rate_at(delta))
                .sum()
        };
        assert!(
            cost(&optimal) <= cost(&uniform) + 1e-12,
            "optimal {} vs uniform {}",
            cost(&optimal),
            cost(&uniform)
        );
        assert!(
            cost(&optimal) < cost(&uniform),
            "expected a strict win on this fleet"
        );
    }

    #[test]
    fn volatile_stream_gets_looser_bound() {
        let demands = vec![demand(0.1), demand(10.0)];
        let split = split_budget(&demands, 2.0, None);
        assert!(split[1] > split[0], "{split:?}");
    }

    #[test]
    fn slack_budget_returns_free_choice() {
        let demands = vec![demand(1.0)];
        // Budget far above the largest sample: the stream takes its largest
        // useful delta (rate 0) and no more.
        let split = split_budget(&demands, 100.0, None);
        assert!(split[0] <= 1.0 + 1e-12);
        assert_eq!(demands[0].rate_at(split[0]), 0.0);
    }
}
