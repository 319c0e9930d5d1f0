//! Online message-rate estimation: how many messages would this stream cost
//! at a given precision bound?

use std::collections::VecDeque;

/// Sliding-window estimator of the message-rate-vs-δ curve of one stream.
///
/// The source records the magnitude of the shadow filter's one-step
/// prediction error every tick. For a candidate bound `δ`, the fraction of
/// recent errors exceeding `δ` estimates the sync rate the stream would pay
/// at that bound — the curve the fleet allocator optimises over.
///
/// The estimate is approximate (after a real sync the error sequence
/// restarts from zero, so exceedances are not i.i.d.), but it is monotone in
/// `δ`, cheap, and tracks regime changes with the window — which is all the
/// allocator needs.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: usize,
    errors: VecDeque<f64>,
    rejected: u64,
}

impl RateEstimator {
    /// Creates an estimator over the last `window` ticks.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RateEstimator {
            window,
            errors: VecDeque::with_capacity(window),
            rejected: 0,
        }
    }

    /// Records one tick's prediction-error magnitude.
    ///
    /// A non-finite magnitude is rejected (and counted) rather than stored:
    /// one NaN in the window would poison [`RateEstimator::rate_at`] for a
    /// full window length and through it the fleet allocator's demand curve.
    pub fn record(&mut self, abs_err: f64) {
        if !abs_err.is_finite() {
            self.rejected += 1;
            return;
        }
        if self.errors.len() == self.window {
            self.errors.pop_front();
        }
        self.errors.push_back(abs_err);
    }

    /// Non-finite samples rejected by [`RateEstimator::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of ticks recorded (≤ window).
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// `true` before any tick has been recorded.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Estimated messages-per-tick at bound `delta`: the exceedance fraction
    /// over the window. Returns `0.0` when empty.
    pub fn rate_at(&self, delta: f64) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let over = self.errors.iter().filter(|&&e| e > delta).count();
        over as f64 / self.errors.len() as f64
    }

    /// Snapshot of the recorded error magnitudes (consumed by
    /// [`crate::StreamDemand`] for fleet allocation).
    pub fn samples(&self) -> Vec<f64> {
        self.errors.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> RateEstimator {
        let mut r = RateEstimator::new(100);
        for &v in values {
            r.record(v);
        }
        r
    }

    #[test]
    fn rate_is_exceedance_fraction() {
        let r = filled(&[0.1, 0.5, 1.5, 2.5]);
        assert_eq!(r.rate_at(1.0), 0.5);
        assert_eq!(r.rate_at(0.0), 1.0);
        assert_eq!(r.rate_at(10.0), 0.0);
    }

    #[test]
    fn rate_is_monotone_decreasing_in_delta() {
        let r = filled(&[0.2, 0.4, 0.9, 1.3, 3.0, 0.1]);
        let mut prev = f64::INFINITY;
        for delta in [0.0, 0.3, 0.6, 1.0, 2.0, 5.0] {
            let rate = r.rate_at(delta);
            assert!(rate <= prev);
            prev = rate;
        }
    }

    #[test]
    fn window_slides() {
        let mut r = RateEstimator::new(2);
        r.record(10.0);
        r.record(10.0);
        r.record(0.0); // evicts one 10.0
        assert_eq!(r.len(), 2);
        assert_eq!(r.rate_at(5.0), 0.5);
    }

    #[test]
    fn empty_estimator_is_conservative() {
        let r = RateEstimator::new(4);
        assert!(r.is_empty());
        assert_eq!(r.rate_at(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = RateEstimator::new(0);
    }

    #[test]
    fn non_finite_samples_are_rejected_and_counted() {
        // Pre-fix: a single NaN made every `rate_at` query NaN-poisoned for
        // a full window length (NaN > delta is false, so the exceedance
        // fraction silently *undercounted* while the sample sat there).
        let mut r = RateEstimator::new(8);
        r.record(f64::NAN);
        r.record(f64::INFINITY);
        r.record(f64::NEG_INFINITY);
        assert_eq!(r.len(), 0);
        assert_eq!(r.rejected(), 3);
        r.record(1.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rate_at(0.5), 1.0);
    }
}
