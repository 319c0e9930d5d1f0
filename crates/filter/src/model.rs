//! Linear time-invariant state-space model description.

use std::sync::Arc;

use kalstream_linalg::Matrix;

use crate::{FilterError, Result};

/// A discrete linear-Gaussian state-space model:
///
/// ```text
/// x_{t+1} = F x_t + w_t,   w_t ~ N(0, Q)
/// z_t     = H x_t + v_t,   v_t ~ N(0, R)
/// ```
///
/// Shapes are validated once, at construction, and no method can change
/// them afterwards: `F` and `H` are fixed for the model's lifetime, and the
/// two noise covariances can only be overwritten by same-shape matrices
/// ([`StateModel::set_process_noise`] /
/// [`StateModel::set_measurement_noise`] — what the adaptive filter does
/// when it re-estimates `Q`/`R`, once per adopted estimate, in place). The
/// `with_*` builders derive a new validated model from an existing one.
/// The dual-filter protocol carries models in sync messages through the
/// `kalstream-core` wire codec.
#[derive(Debug, Clone, PartialEq)]
pub struct StateModel {
    /// Human-readable model name (used by the model bank and experiment
    /// logs). `Arc<str>` so cloning a model — every session clones its
    /// model into the shadow, the server filter and Model syncs — shares
    /// the name instead of reallocating it.
    name: Arc<str>,
    /// State-transition matrix `F` (`n × n`).
    f: Matrix,
    /// Process-noise covariance `Q` (`n × n`).
    q: Matrix,
    /// Observation matrix `H` (`m × n`).
    h: Matrix,
    /// Measurement-noise covariance `R` (`m × m`).
    r: Matrix,
}

impl StateModel {
    /// Validates shapes and builds a model.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] naming the offending matrix when any shape
    /// is inconsistent with `F`'s state dimension.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: Matrix,
        q: Matrix,
        h: Matrix,
        r: Matrix,
    ) -> Result<Self> {
        let n = f.rows();
        if f.cols() != n {
            return Err(FilterError::BadModel {
                what: "F",
                expected: (n, n),
                actual: f.shape(),
            });
        }
        if q.shape() != (n, n) {
            return Err(FilterError::BadModel {
                what: "Q",
                expected: (n, n),
                actual: q.shape(),
            });
        }
        let m = h.rows();
        if h.cols() != n {
            return Err(FilterError::BadModel {
                what: "H",
                expected: (m, n),
                actual: h.shape(),
            });
        }
        if r.shape() != (m, m) {
            return Err(FilterError::BadModel {
                what: "R",
                expected: (m, m),
                actual: r.shape(),
            });
        }
        Ok(StateModel {
            name: name.into(),
            f,
            q,
            h,
            r,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.f.rows()
    }

    /// Measurement dimension `m`.
    pub fn measurement_dim(&self) -> usize {
        self.h.rows()
    }

    /// State-transition matrix `F`.
    pub fn f(&self) -> &Matrix {
        &self.f
    }

    /// Process-noise covariance `Q`.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Observation matrix `H`.
    pub fn h(&self) -> &Matrix {
        &self.h
    }

    /// Measurement-noise covariance `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Overwrites the process-noise covariance in place.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `q`'s shape differs from `n × n`
    /// (the model is unchanged).
    pub fn set_process_noise(&mut self, q: &Matrix) -> Result<()> {
        if q.shape() != self.q.shape() {
            return Err(FilterError::BadModel {
                what: "Q",
                expected: self.q.shape(),
                actual: q.shape(),
            });
        }
        self.q.copy_from(q);
        Ok(())
    }

    /// Overwrites the measurement-noise covariance in place.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `r`'s shape differs from `m × m`
    /// (the model is unchanged).
    pub fn set_measurement_noise(&mut self, r: &Matrix) -> Result<()> {
        if r.shape() != self.r.shape() {
            return Err(FilterError::BadModel {
                what: "R",
                expected: self.r.shape(),
                actual: r.shape(),
            });
        }
        self.r.copy_from(r);
        Ok(())
    }

    /// Returns a copy of this model with a different process-noise
    /// covariance.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `q`'s shape differs from `n × n`.
    pub fn with_process_noise(&self, q: Matrix) -> Result<Self> {
        StateModel::new(
            self.name.clone(),
            self.f.clone(),
            q,
            self.h.clone(),
            self.r.clone(),
        )
    }

    /// Returns a copy of this model with a different measurement-noise
    /// covariance.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `r`'s shape differs from `m × m`.
    pub fn with_measurement_noise(&self, r: Matrix) -> Result<Self> {
        StateModel::new(
            self.name.clone(),
            self.f.clone(),
            self.q.clone(),
            self.h.clone(),
            r,
        )
    }

    /// Returns a copy with the process noise scaled by `factor` (> 0).
    ///
    /// # Errors
    /// Propagates validation errors (none expected for positive factors).
    pub fn with_scaled_q(&self, factor: f64) -> Result<Self> {
        self.with_process_noise(self.q.scaled(factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use kalstream_linalg::Matrix;

    fn valid_parts() -> (Matrix, Matrix, Matrix, Matrix) {
        (
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Matrix::scalar(2, 0.01),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::scalar(1, 0.5),
        )
    }

    #[test]
    fn accepts_consistent_shapes() {
        let (f, q, h, r) = valid_parts();
        let m = StateModel::new("cv", f, q, h, r).unwrap();
        assert_eq!(m.state_dim(), 2);
        assert_eq!(m.measurement_dim(), 1);
        assert_eq!(m.name(), "cv");
    }

    #[test]
    fn rejects_nonsquare_f() {
        let (_, q, h, r) = valid_parts();
        let f = Matrix::zeros(2, 3);
        let err = StateModel::new("x", f, q, h, r).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "F", .. }));
    }

    #[test]
    fn rejects_wrong_q() {
        let (f, _, h, r) = valid_parts();
        let err = StateModel::new("x", f, Matrix::scalar(3, 1.0), h, r).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "Q", .. }));
    }

    #[test]
    fn rejects_wrong_h_cols() {
        let (f, q, _, r) = valid_parts();
        let err = StateModel::new("x", f, q, Matrix::zeros(1, 3), r).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "H", .. }));
    }

    #[test]
    fn rejects_wrong_r() {
        let (f, q, h, _) = valid_parts();
        let err = StateModel::new("x", f, q, h, Matrix::scalar(2, 1.0)).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "R", .. }));
    }

    #[test]
    fn noise_replacement_validates() {
        let (f, q, h, r) = valid_parts();
        let m = StateModel::new("cv", f, q, h, r).unwrap();
        let m2 = m.with_measurement_noise(Matrix::scalar(1, 2.0)).unwrap();
        assert_eq!(m2.r().get(0, 0), 2.0);
        assert!(m.with_measurement_noise(Matrix::scalar(2, 2.0)).is_err());
        let m3 = m.with_scaled_q(10.0).unwrap();
        assert!((m3.q().get(0, 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn in_place_noise_setters_are_shape_checked() {
        let (f, q, h, r) = valid_parts();
        let mut m = StateModel::new("cv", f, q, h, r).unwrap();
        let before = m.clone();
        let err = m
            .set_measurement_noise(&Matrix::scalar(2, 2.0))
            .unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "R", .. }));
        let err = m.set_process_noise(&Matrix::scalar(3, 2.0)).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "Q", .. }));
        assert_eq!(m, before, "a rejected setter leaves the model untouched");
        m.set_measurement_noise(&Matrix::scalar(1, 2.0)).unwrap();
        m.set_process_noise(&Matrix::scalar(2, 0.5)).unwrap();
        assert_eq!(
            m,
            before
                .with_measurement_noise(Matrix::scalar(1, 2.0))
                .unwrap()
                .with_process_noise(Matrix::scalar(2, 0.5))
                .unwrap(),
            "in-place replacement equals the rebuilt model"
        );
    }
}
