//! Sliding-window aggregates over served stream values, with the precision
//! bound propagated through the window.
//!
//! The protocol's per-tick guarantee (`|served − observed| ≤ δ_t`) extends
//! to windows by interval arithmetic: a window AVG of served values is
//! within the window-average of the per-tick bounds of the AVG of true
//! values; window MIN/MAX are within the window-max of the bounds.

use std::collections::VecDeque;

use crate::QueryError;

/// Sliding-window average with propagated bound.
#[derive(Debug, Clone)]
pub struct SlidingAvg {
    window: usize,
    values: VecDeque<f64>,
    bounds: VecDeque<f64>,
    sum: f64,
    bound_sum: f64,
}

impl SlidingAvg {
    /// Creates a window of `window` ticks.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        SlidingAvg {
            window,
            values: VecDeque::with_capacity(window),
            bounds: VecDeque::with_capacity(window),
            sum: 0.0,
            bound_sum: 0.0,
        }
    }

    /// Pushes one tick's served value and its precision bound.
    pub fn push(&mut self, value: f64, bound: f64) {
        if self.values.len() == self.window {
            self.sum -= self.values.pop_front().expect("non-empty");
            self.bound_sum -= self.bounds.pop_front().expect("non-empty");
        }
        self.values.push_back(value);
        self.bounds.push_back(bound);
        self.sum += value;
        self.bound_sum += bound;
    }

    /// Number of ticks currently in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current window average and its guaranteed bound; `None` when empty.
    pub fn answer(&self) -> Option<(f64, f64)> {
        if self.values.is_empty() {
            return None;
        }
        let k = self.values.len() as f64;
        Some((self.sum / k, self.bound_sum / k))
    }
}

/// Sliding-window minimum or maximum via a monotonic deque — O(1) amortised
/// per push, O(window) memory worst case.
#[derive(Debug, Clone)]
pub struct SlidingExtremum {
    window: usize,
    is_min: bool,
    /// `(tick, value)` candidates, monotone in value.
    candidates: VecDeque<(u64, f64)>,
    /// Per-tick bounds for the live window (bound propagation).
    bounds: VecDeque<(u64, f64)>,
    tick: u64,
}

impl SlidingExtremum {
    /// Creates a sliding minimum over `window` ticks.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn min(window: usize) -> Self {
        Self::new(window, true)
    }

    /// Creates a sliding maximum over `window` ticks.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn max(window: usize) -> Self {
        Self::new(window, false)
    }

    fn new(window: usize, is_min: bool) -> Self {
        assert!(window > 0, "window must be positive");
        SlidingExtremum {
            window,
            is_min,
            candidates: VecDeque::new(),
            bounds: VecDeque::new(),
            tick: 0,
        }
    }

    /// Pushes one tick's served value and bound.
    pub fn push(&mut self, value: f64, bound: f64) {
        let now = self.tick;
        self.tick += 1;
        // Evict expired entries.
        let expiry = now.saturating_sub(self.window as u64 - 1);
        while self.candidates.front().is_some_and(|&(t, _)| t < expiry) {
            self.candidates.pop_front();
        }
        while self.bounds.front().is_some_and(|&(t, _)| t < expiry) {
            self.bounds.pop_front();
        }
        // Maintain monotonicity: drop dominated candidates from the back.
        while self.candidates.back().is_some_and(
            |&(_, v)| {
                if self.is_min {
                    v >= value
                } else {
                    v <= value
                }
            },
        ) {
            self.candidates.pop_back();
        }
        self.candidates.push_back((now, value));
        self.bounds.push_back((now, bound));
    }

    /// Current extremum and its guaranteed bound (max of live per-tick
    /// bounds); `None` before the first push.
    pub fn answer(&self) -> Option<(f64, f64)> {
        let &(_, value) = self.candidates.front()?;
        let bound = self.bounds.iter().map(|&(_, b)| b).fold(0.0, f64::max);
        Some((value, bound))
    }
}

/// Sliding-window COUNT of ticks whose *true* value exceeds a threshold,
/// answered as a guaranteed interval.
///
/// A tick with served value `v` and bound `δ` is **certainly above** the
/// threshold `τ` when `v − δ > τ`, **certainly at-or-below** when
/// `v + δ ≤ τ`, and **uncertain** otherwise (the precision interval
/// straddles `τ`). The true count over the window is then guaranteed to lie
/// in `[above, above + uncertain]` — the only sound answer a
/// precision-bounded stream admits for a counting query.
#[derive(Debug, Clone)]
pub struct SlidingCountAbove {
    window: usize,
    threshold: f64,
    /// Per-tick classification: +1 above, 0 uncertain, −1 below.
    classes: VecDeque<i8>,
    above: u64,
    uncertain: u64,
}

impl SlidingCountAbove {
    /// Creates a sliding count of ticks above `threshold` over `window`
    /// ticks.
    ///
    /// # Panics
    /// Panics when `window` is zero or `threshold` is not finite.
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(threshold.is_finite(), "threshold must be finite");
        SlidingCountAbove {
            window,
            threshold,
            classes: VecDeque::with_capacity(window),
            above: 0,
            uncertain: 0,
        }
    }

    /// The threshold the count is taken against.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Pushes one tick's served value and its precision bound.
    pub fn push(&mut self, value: f64, bound: f64) {
        if self.classes.len() == self.window {
            match self.classes.pop_front().expect("non-empty") {
                1 => self.above -= 1,
                0 => self.uncertain -= 1,
                _ => {}
            }
        }
        let class: i8 = if value - bound > self.threshold {
            self.above += 1;
            1
        } else if value + bound <= self.threshold {
            -1
        } else {
            self.uncertain += 1;
            0
        };
        self.classes.push_back(class);
    }

    /// Number of ticks currently in the window.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Guaranteed interval `(lo, hi)` containing the true count of window
    /// ticks above the threshold; `None` when empty.
    pub fn answer(&self) -> Option<(u64, u64)> {
        if self.classes.is_empty() {
            return None;
        }
        Some((self.above, self.above + self.uncertain))
    }
}

/// Shape of a sliding-window standing query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    /// Sliding average over `window` ticks.
    Avg {
        /// Window length in ticks.
        window: usize,
    },
    /// Sliding minimum over `window` ticks.
    Min {
        /// Window length in ticks.
        window: usize,
    },
    /// Sliding maximum over `window` ticks.
    Max {
        /// Window length in ticks.
        window: usize,
    },
    /// Sliding count of ticks above `threshold` over `window` ticks,
    /// answered as a guaranteed interval.
    CountAbove {
        /// Window length in ticks.
        window: usize,
        /// The count's threshold.
        threshold: f64,
    },
}

/// Answer of a windowed standing query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowAnswer {
    /// A value-shaped window aggregate with its guaranteed half-width.
    Value {
        /// The aggregate of served values.
        value: f64,
        /// Guaranteed bound: the true aggregate is within `value ± bound`.
        bound: f64,
    },
    /// A COUNT interval: the true count lies in `[lo, hi]`.
    Count {
        /// Certain lower end.
        lo: u64,
        /// Certain upper end.
        hi: u64,
    },
}

/// The live aggregator behind one windowed query (served side or truth
/// mirror).
#[derive(Debug, Clone)]
pub(crate) enum WindowAgg {
    Avg(SlidingAvg),
    Min(SlidingExtremum),
    Max(SlidingExtremum),
    Count(SlidingCountAbove),
}

impl WindowAgg {
    /// Builds the aggregator for `spec`, rejecting the shapes the
    /// `Sliding*` constructors would panic on.
    pub(crate) fn build(spec: WindowSpec) -> Result<Self, QueryError> {
        let (WindowSpec::Avg { window }
        | WindowSpec::Min { window }
        | WindowSpec::Max { window }
        | WindowSpec::CountAbove { window, .. }) = spec;
        if window == 0 {
            return Err(QueryError::Invalid {
                reason: "window must be positive".into(),
            });
        }
        Ok(match spec {
            WindowSpec::Avg { window } => WindowAgg::Avg(SlidingAvg::new(window)),
            WindowSpec::Min { window } => WindowAgg::Min(SlidingExtremum::min(window)),
            WindowSpec::Max { window } => WindowAgg::Max(SlidingExtremum::max(window)),
            WindowSpec::CountAbove { window, threshold } => {
                if !threshold.is_finite() {
                    return Err(QueryError::Invalid {
                        reason: "count threshold must be finite".into(),
                    });
                }
                WindowAgg::Count(SlidingCountAbove::new(window, threshold))
            }
        })
    }

    // Out of line: `QueryGraph`'s per-node loops call this from one arm of
    // a hot `match`, and three inlined deque pushes there slow every arm.
    #[inline(never)]
    pub(crate) fn push(&mut self, value: f64, bound: f64) {
        match self {
            WindowAgg::Avg(w) => w.push(value, bound),
            WindowAgg::Min(w) | WindowAgg::Max(w) => w.push(value, bound),
            WindowAgg::Count(w) => w.push(value, bound),
        }
    }

    pub(crate) fn answer(&self) -> Option<WindowAnswer> {
        match self {
            WindowAgg::Avg(w) => w
                .answer()
                .map(|(value, bound)| WindowAnswer::Value { value, bound }),
            WindowAgg::Min(w) | WindowAgg::Max(w) => w
                .answer()
                .map(|(value, bound)| WindowAnswer::Value { value, bound }),
            WindowAgg::Count(w) => w.answer().map(|(lo, hi)| WindowAnswer::Count { lo, hi }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_avg_known_sequence() {
        let mut w = SlidingAvg::new(3);
        assert!(w.answer().is_none());
        assert!(w.is_empty());
        w.push(1.0, 0.1);
        w.push(2.0, 0.2);
        w.push(3.0, 0.3);
        let (avg, bound) = w.answer().unwrap();
        assert!((avg - 2.0).abs() < 1e-12);
        assert!((bound - 0.2).abs() < 1e-12);
        // Slide: {2, 3, 4}.
        w.push(4.0, 0.4);
        let (avg, bound) = w.answer().unwrap();
        assert!((avg - 3.0).abs() < 1e-12);
        assert!((bound - 0.3).abs() < 1e-12);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn sliding_min_tracks_window() {
        let mut w = SlidingExtremum::min(3);
        for (v, expect) in [(5.0, 5.0), (3.0, 3.0), (4.0, 3.0), (6.0, 3.0), (7.0, 4.0)] {
            w.push(v, 0.1);
            assert_eq!(w.answer().unwrap().0, expect, "after pushing {v}");
        }
    }

    #[test]
    fn sliding_max_tracks_window() {
        let mut w = SlidingExtremum::max(2);
        for (v, expect) in [(1.0, 1.0), (3.0, 3.0), (2.0, 3.0), (0.0, 2.0)] {
            w.push(v, 0.1);
            assert_eq!(w.answer().unwrap().0, expect, "after pushing {v}");
        }
    }

    #[test]
    fn extremum_bound_is_window_max() {
        let mut w = SlidingExtremum::min(2);
        w.push(1.0, 0.5);
        w.push(2.0, 0.1);
        assert_eq!(w.answer().unwrap().1, 0.5);
        w.push(3.0, 0.2); // 0.5 expires
        assert!((w.answer().unwrap().1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn avg_guarantee_is_sound() {
        // True values deviate by exactly each tick's bound.
        let served = [(1.0, 0.1), (2.0, 0.3), (3.0, 0.2)];
        let truth = [1.1, 1.7, 3.2];
        let mut w = SlidingAvg::new(3);
        for &(v, b) in &served {
            w.push(v, b);
        }
        let (avg, bound) = w.answer().unwrap();
        let true_avg = truth.iter().sum::<f64>() / 3.0;
        assert!((avg - true_avg).abs() <= bound + 1e-12);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = SlidingAvg::new(0);
    }

    #[test]
    fn count_above_classifies_certain_and_uncertain_ticks() {
        let mut w = SlidingCountAbove::new(3, 10.0);
        assert!(w.answer().is_none());
        w.push(15.0, 1.0); // certainly above
        w.push(5.0, 1.0); // certainly below
        w.push(10.2, 1.0); // straddles the threshold
        assert_eq!(w.answer(), Some((1, 2)));
        assert_eq!(w.len(), 3);
        // Slide: the certain-above tick expires.
        w.push(3.0, 1.0);
        assert_eq!(w.answer(), Some((0, 1)));
    }

    #[test]
    fn count_above_interval_contains_true_count() {
        // Truth deviates from served by at most each tick's bound; the true
        // count must land inside the guaranteed interval at every tick.
        let mut w = SlidingCountAbove::new(5, 0.0);
        let mut truths: Vec<f64> = Vec::new();
        let mut x = 99u64;
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let served = ((x % 2000) as f64 - 1000.0) / 100.0;
            let bound = ((x >> 11) % 100) as f64 / 50.0;
            // Truth anywhere in [served − bound, served + bound].
            let frac = ((x >> 23) % 1000) as f64 / 499.5 - 1.0;
            truths.push(served + bound * frac);
            w.push(served, bound);
            let start = truths.len().saturating_sub(5);
            let true_count = truths[start..].iter().filter(|&&t| t > 0.0).count() as u64;
            let (lo, hi) = w.answer().unwrap();
            assert!(
                lo <= true_count && true_count <= hi,
                "true count {true_count} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn brute_force_cross_check() {
        // Compare the monotonic deque against a naive window min over a
        // deterministic pseudo-random sequence.
        let mut w = SlidingExtremum::min(5);
        let mut history: Vec<f64> = Vec::new();
        let mut x = 7u64;
        for _ in 0..200 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1000) as f64 / 10.0;
            history.push(v);
            w.push(v, 0.0);
            let start = history.len().saturating_sub(5);
            let naive = history[start..]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            assert_eq!(w.answer().unwrap().0, naive);
        }
    }
}
