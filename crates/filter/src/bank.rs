//! Multiple-model filtering with likelihood-based switching.
//!
//! Streams change regime: a stock drifts, then trends; a sensor is static,
//! then ramps. No single linear model covers all phases, so the bank runs
//! several candidate filters in parallel on the same measurements and keeps
//! an exponentially-forgotten log-likelihood score per model. The *active*
//! model — the one whose predictions the suppression protocol serves — is
//! switched when a challenger beats the incumbent by a margin and a minimum
//! dwell time has passed (hysteresis prevents thrashing on noise).

use kalstream_linalg::Vector;

use crate::{FilterError, KalmanFilter, Result, UpdateStats};

// Conservative switching: on memoryless streams the candidate models'
// likelihoods are nearly tied, and eager switching makes the suppression
// layer ship noisy trend states. A challenger must earn a solid lead over
// a real dwell period.

/// Exponential forgetting factor applied to each accumulated
/// log-likelihood every step (`0 < DECAY ≤ 1`; smaller = faster
/// forgetting).
const DECAY: f64 = 0.98;

/// A challenger must lead the incumbent by this much accumulated
/// log-likelihood to take over.
const SWITCH_MARGIN: f64 = 6.0;

/// Minimum steps between switches.
const MIN_DWELL: u64 = 50;

/// Per-step log-likelihood penalty per state dimension (AIC-style). Richer
/// models nest simpler ones and win in-sample likelihood spuriously on
/// streams the simple model explains; the penalty makes a challenger's
/// lead reflect real predictive gain.
const COMPLEXITY_PENALTY: f64 = 0.05;

/// A bank of candidate Kalman filters with soft scoring and hard switching.
#[derive(Debug, Clone)]
pub struct ModelBank {
    filters: Vec<KalmanFilter>,
    scores: Vec<f64>,
    active: usize,
    steps_since_switch: u64,
    switches: u64,
}

impl ModelBank {
    /// Builds a bank from candidate filters. The first candidate starts
    /// active.
    ///
    /// # Errors
    /// * [`FilterError::EmptyBank`] with no candidates.
    /// * [`FilterError::BankShapeMismatch`] when candidates disagree on
    ///   measurement dimension (they may freely disagree on state dimension).
    pub fn new(filters: Vec<KalmanFilter>) -> Result<Self> {
        let first = filters.first().ok_or(FilterError::EmptyBank)?;
        let m = first.model().measurement_dim();
        for f in &filters {
            let fm = f.model().measurement_dim();
            if fm != m {
                return Err(FilterError::BankShapeMismatch {
                    first: m,
                    offending: fm,
                });
            }
        }
        let n = filters.len();
        Ok(ModelBank {
            filters,
            scores: vec![0.0; n],
            active: 0,
            steps_since_switch: 0,
            switches: 0,
        })
    }

    /// Number of candidate models.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when the bank has no models (impossible after construction).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Index of the active model.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// The active filter (whose predictions are served).
    pub fn active(&self) -> &KalmanFilter {
        &self.filters[self.active]
    }

    /// Mutable access to the active filter (resynchronisation).
    pub fn active_mut(&mut self) -> &mut KalmanFilter {
        &mut self.filters[self.active]
    }

    /// Name of the active model.
    pub fn active_name(&self) -> &str {
        self.filters[self.active].model().name()
    }

    /// Total switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Current per-model scores (decayed accumulated log-likelihood).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Advances every model one step with measurement `z`, rescoring and
    /// possibly switching the active model. Returns the active model's
    /// update diagnostics.
    ///
    /// A candidate that fails numerically (diverged state, non-PD `S`) is
    /// penalised heavily instead of aborting the bank, so a fragile model
    /// cannot take the stream down.
    ///
    /// # Errors
    /// Returns an error only when the *active* model itself fails.
    pub fn step(&mut self, z: &Vector) -> Result<UpdateStats> {
        const FAILURE_PENALTY: f64 = -1e3;
        let mut active_outcome: Option<Result<UpdateStats>> = None;
        for (i, f) in self.filters.iter_mut().enumerate() {
            let result = f.step(z);
            let dim_penalty = COMPLEXITY_PENALTY * f.model().state_dim() as f64;
            self.scores[i] = match &result {
                Ok(out) => DECAY * self.scores[i] + out.log_likelihood - dim_penalty,
                Err(_) => DECAY * self.scores[i] + FAILURE_PENALTY,
            };
            if i == self.active {
                active_outcome = Some(result);
            }
        }
        self.steps_since_switch += 1;
        self.maybe_switch();
        active_outcome.expect("active index is always in range")
    }

    /// Advances every model one time step without a measurement, so the
    /// whole bank stays on the stream's clock through a tick with nothing
    /// to update on. Scores and the active model are left as they are.
    ///
    /// # Errors
    /// Returns an error only when the *active* model itself fails; a failed
    /// candidate is penalised at its next [`ModelBank::step`].
    pub fn predict(&mut self) -> Result<()> {
        let mut active = Ok(());
        for (i, f) in self.filters.iter_mut().enumerate() {
            let result = f.predict();
            if i == self.active {
                active = result;
            }
        }
        active
    }

    fn maybe_switch(&mut self) {
        if self.steps_since_switch < MIN_DWELL {
            return;
        }
        let (best, best_score) = self
            .scores
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("bank is non-empty");
        if best != self.active && best_score > self.scores[self.active] + SWITCH_MARGIN {
            self.active = best;
            self.steps_since_switch = 0;
            self.switches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use kalstream_linalg::Vector;

    fn bank_walk_cv() -> ModelBank {
        let walk =
            KalmanFilter::new(models::random_walk(0.01, 0.05), Vector::zeros(1), 1.0).unwrap();
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.01, 0.05),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        ModelBank::new(vec![walk, cv]).unwrap()
    }

    #[test]
    fn empty_bank_rejected() {
        assert!(matches!(
            ModelBank::new(vec![]),
            Err(FilterError::EmptyBank)
        ));
    }

    #[test]
    fn mismatched_measurement_dims_rejected() {
        let scalar =
            KalmanFilter::new(models::random_walk(0.01, 0.05), Vector::zeros(1), 1.0).unwrap();
        let planar = KalmanFilter::new(
            models::constant_velocity_2d(1.0, 0.01, 0.05),
            Vector::zeros(4),
            1.0,
        )
        .unwrap();
        assert!(matches!(
            ModelBank::new(vec![scalar, planar]),
            Err(FilterError::BankShapeMismatch {
                first: 1,
                offending: 2
            })
        ));
    }

    #[test]
    fn switches_to_cv_on_trending_stream() {
        let mut bank = bank_walk_cv();
        assert_eq!(bank.active_name(), "random_walk");
        for t in 0..300 {
            let z = Vector::from_slice(&[t as f64 * 0.8]);
            bank.step(&z).unwrap();
        }
        assert_eq!(bank.active_name(), "constant_velocity");
        assert!(bank.switches() >= 1);
    }

    #[test]
    fn stays_on_walk_for_static_stream() {
        let mut bank = bank_walk_cv();
        for _ in 0..300 {
            bank.step(&Vector::from_slice(&[1.0])).unwrap();
        }
        assert_eq!(bank.active_name(), "random_walk");
        assert_eq!(bank.switches(), 0);
    }

    #[test]
    fn dwell_prevents_immediate_switching() {
        // On a trend the velocity model leads by the margin well before
        // the dwell is up; the bank waits out `MIN_DWELL` steps, then
        // switches on the first step it may.
        let mut bank = bank_walk_cv();
        for t in 0..MIN_DWELL - 1 {
            bank.step(&Vector::from_slice(&[t as f64])).unwrap();
        }
        assert_eq!(bank.switches(), 0);
        assert!(
            bank.scores()[1] > bank.scores()[0] + SWITCH_MARGIN,
            "the challenger already leads: {:?}",
            bank.scores()
        );
        bank.step(&Vector::from_slice(&[(MIN_DWELL - 1) as f64]))
            .unwrap();
        assert_eq!(bank.switches(), 1);
        assert_eq!(bank.active_name(), "constant_velocity");
    }

    #[test]
    fn scores_decay() {
        let mut bank = bank_walk_cv();
        for _ in 0..50 {
            bank.step(&Vector::from_slice(&[0.0])).unwrap();
        }
        // With decay < 1 the accumulated score is bounded: |s| ≤ max_ll / (1-decay).
        for &s in bank.scores() {
            assert!(s.abs() < 1e4);
        }
    }

    #[test]
    fn bank_is_deterministic_under_clone() {
        let mut a = bank_walk_cv();
        let mut b = a.clone();
        for t in 0..200 {
            let z = Vector::from_slice(&[(t as f64 * 0.1).sin() + t as f64 * 0.05]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert_eq!(a.active_index(), b.active_index());
        assert_eq!(a.active().state(), b.active().state());
    }

    #[test]
    fn predict_advances_every_member_and_keeps_the_scores() {
        let mut bank = bank_walk_cv();
        for t in 0..20 {
            bank.step(&Vector::from_slice(&[t as f64])).unwrap();
        }
        let mut members = bank.filters.clone();
        let scores = bank.scores().to_vec();
        bank.predict().unwrap();
        for (member, kf) in members.iter_mut().zip(&bank.filters) {
            member.predict().unwrap();
            assert_eq!(member.state(), kf.state());
            assert_eq!(member.covariance(), kf.covariance());
        }
        assert_eq!(bank.scores(), &scores[..]);
    }

    #[test]
    fn accessors() {
        let mut bank = bank_walk_cv();
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        assert_eq!(bank.active_index(), 0);
        bank.active_mut()
            .set_state(
                Vector::from_slice(&[3.0]),
                kalstream_linalg::Matrix::scalar(1, 1.0),
            )
            .unwrap();
        assert_eq!(bank.active().state()[0], 3.0);
    }
}
