//! The source's local estimator: the "best model of the stream" that sync
//! messages are cut from.

use kalstream_filter::{AdaptiveKalmanFilter, KalmanFilter, ModelBank, StateModel};
use kalstream_linalg::Vector;

use crate::Result;

/// The estimator running at the stream source, fed *every* measurement.
///
/// The server never sees this estimator directly — it sees snapshots of its
/// active filter inside sync messages. Adaptivity therefore costs zero
/// bandwidth until it actually changes what gets shipped.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one estimator exists per stream; boxing would
                                     // only add indirection to the per-tick hot path
pub enum Estimator {
    /// A fixed-model Kalman filter.
    Fixed(KalmanFilter),
    /// A filter with online `Q`/`R` adaptation.
    Adaptive(AdaptiveKalmanFilter),
    /// A bank of candidate models with likelihood switching.
    Bank(ModelBank),
}

impl Estimator {
    /// Advances the estimator one tick with measurement `z`
    /// (predict + update).
    ///
    /// # Errors
    /// Propagates filter errors (divergence, non-PD innovation covariance).
    pub fn step(&mut self, z: &Vector) -> Result<()> {
        match self {
            Estimator::Fixed(kf) => {
                kf.step(z)?;
            }
            Estimator::Adaptive(akf) => {
                akf.step(z)?;
            }
            Estimator::Bank(bank) => {
                bank.step(z)?;
            }
        }
        Ok(())
    }

    /// Advances the estimator one tick without a measurement (a tick whose
    /// observation was unusable), so it stays on the stream's clock. A bank
    /// predicts every member.
    ///
    /// # Errors
    /// Propagates filter errors (divergence).
    pub fn predict(&mut self) -> Result<()> {
        match self {
            Estimator::Fixed(kf) => kf.predict()?,
            Estimator::Adaptive(akf) => akf.predict()?,
            Estimator::Bank(bank) => bank.predict()?,
        }
        Ok(())
    }

    /// The filter whose state a sync message would ship right now.
    pub fn active(&self) -> &KalmanFilter {
        match self {
            Estimator::Fixed(kf) => kf,
            Estimator::Adaptive(akf) => akf.inner(),
            Estimator::Bank(bank) => bank.active(),
        }
    }

    /// The active model (used for change detection against the last synced
    /// model).
    pub fn active_model(&self) -> &StateModel {
        self.active().model()
    }

    /// Measurement dimension the estimator expects.
    pub fn measurement_dim(&self) -> usize {
        self.active().model().measurement_dim()
    }

    /// Re-initialises the active filter's state after a divergence: state
    /// pinned to the measurement, covariance reset to `p_reset · I`.
    ///
    /// # Errors
    /// Propagates shape errors (none expected: the pinned state is built
    /// from the active model itself).
    pub fn reset_to(&mut self, x: Vector, p_reset: f64) -> Result<()> {
        let n = x.dim();
        let p = kalstream_linalg::Matrix::scalar(n, p_reset);
        match self {
            Estimator::Fixed(kf) => kf.set_state(x, p)?,
            Estimator::Adaptive(akf) => akf.inner_mut().set_state(x, p)?,
            Estimator::Bank(bank) => bank.active_mut().set_state(x, p)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_filter::{models, AdaptiveConfig};

    fn z(v: f64) -> Vector {
        Vector::from_slice(&[v])
    }

    #[test]
    fn fixed_estimator_steps() {
        let kf = KalmanFilter::new(models::random_walk(0.1, 0.1), Vector::zeros(1), 1.0).unwrap();
        let mut e = Estimator::Fixed(kf);
        for _ in 0..50 {
            e.step(&z(2.0)).unwrap();
        }
        assert!((e.active().state()[0] - 2.0).abs() < 0.1);
        assert_eq!(e.measurement_dim(), 1);
        assert_eq!(e.active_model().name(), "random_walk");
    }

    #[test]
    fn adaptive_estimator_steps() {
        let kf = KalmanFilter::new(models::random_walk(0.1, 0.1), Vector::zeros(1), 1.0).unwrap();
        let mut e = Estimator::Adaptive(AdaptiveKalmanFilter::new(kf, AdaptiveConfig::default()));
        for t in 0..100 {
            e.step(&z(t as f64 * 0.1)).unwrap();
        }
        assert!(e.active().state().is_finite());
    }

    #[test]
    fn bank_estimator_switches_active_model() {
        let walk =
            KalmanFilter::new(models::random_walk(0.01, 0.05), Vector::zeros(1), 1.0).unwrap();
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.01, 0.05),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        let mut e = Estimator::Bank(ModelBank::new(vec![walk, cv]).unwrap());
        assert_eq!(e.active_model().name(), "random_walk");
        for t in 0..300 {
            e.step(&z(t as f64)).unwrap();
        }
        assert_eq!(e.active_model().name(), "constant_velocity");
    }

    #[test]
    fn predict_advances_every_kind_one_step() {
        let kf = KalmanFilter::new(
            models::constant_velocity(1.0, 0.01, 0.05),
            Vector::from_slice(&[0.0, 1.0]),
            1.0,
        )
        .unwrap();
        let mut want = kf.clone();
        want.predict().unwrap();
        for mut e in [
            Estimator::Fixed(kf.clone()),
            Estimator::Adaptive(AdaptiveKalmanFilter::new(
                kf.clone(),
                AdaptiveConfig::default(),
            )),
            Estimator::Bank(ModelBank::new(vec![kf.clone()]).unwrap()),
        ] {
            e.predict().unwrap();
            assert_eq!(e.active().state(), want.state());
            assert_eq!(e.active().covariance(), want.covariance());
        }
    }

    #[test]
    fn reset_reinitialises_state() {
        let kf = KalmanFilter::new(models::random_walk(0.1, 0.1), Vector::zeros(1), 1.0).unwrap();
        let mut e = Estimator::Fixed(kf);
        e.reset_to(Vector::from_slice(&[42.0]), 10.0).unwrap();
        assert_eq!(e.active().state()[0], 42.0);
        assert_eq!(e.active().covariance().get(0, 0), 10.0);
    }
}
