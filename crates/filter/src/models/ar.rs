//! Autoregressive AR(p) model in companion (controllable canonical) form.

use kalstream_linalg::{Matrix, DIM_CAP};

use crate::{FilterError, Result, StateModel};

/// AR(p) process `x_t = φ₁ x_{t−1} + … + φ_p x_{t−p} + w_t` as a state-space
/// model with companion-form transition:
///
/// ```text
/// F = [φ₁ φ₂ … φ_p
///      1  0  …  0
///      0  1  …  0
///      ⋮       ⋱ ]
/// H = [1 0 … 0],  Q = diag(q, 0, …, 0),  R = r
/// ```
///
/// * `coeffs` — the AR coefficients `φ₁..φ_p` (`p ≥ 1`).
/// * `q` — innovation variance of the AR process.
/// * `r` — measurement-noise variance.
///
/// Mean-reverting streams (network RTTs, load averages) are well described by
/// low-order AR models.
///
/// # Errors
/// [`FilterError::BadModel`] when `coeffs` is empty or longer than
/// [`DIM_CAP`].
pub fn ar(coeffs: &[f64], q: f64, r: f64) -> Result<StateModel> {
    let p = coeffs.len();
    let nearest = p.clamp(1, DIM_CAP);
    if p != nearest {
        return Err(FilterError::BadModel {
            what: "F",
            expected: (nearest, nearest),
            actual: (p, p),
        });
    }
    let mut f = Matrix::zeros(p, p);
    for (j, &phi) in coeffs.iter().enumerate() {
        f.set(0, j, phi);
    }
    for i in 1..p {
        f.set(i, i - 1, 1.0);
    }
    let mut q_mat = Matrix::zeros(p, p);
    q_mat.set(0, 0, q);
    let mut h = Matrix::zeros(1, p);
    h.set(0, 0, 1.0);
    StateModel::new("ar", f, q_mat, h, Matrix::scalar(1, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KalmanFilter;
    use kalstream_linalg::Vector;

    #[test]
    fn companion_form_layout() {
        let m = ar(&[0.5, 0.3, -0.1], 0.2, 0.1).unwrap();
        assert_eq!(m.state_dim(), 3);
        assert_eq!(m.f().get(0, 0), 0.5);
        assert_eq!(m.f().get(0, 2), -0.1);
        assert_eq!(m.f().get(1, 0), 1.0);
        assert_eq!(m.f().get(2, 1), 1.0);
        assert_eq!(m.f().get(2, 0), 0.0);
        assert_eq!(m.q().get(0, 0), 0.2);
        assert_eq!(m.q().get(1, 1), 0.0);
    }

    #[test]
    fn empty_or_over_cap_coeffs_rejected() {
        assert!(ar(&[], 0.1, 0.1).is_err());
        assert!(ar(&[0.1; DIM_CAP], 0.1, 0.1).is_ok());
        assert_eq!(
            ar(&[0.1; DIM_CAP + 1], 0.1, 0.1),
            Err(FilterError::BadModel {
                what: "F",
                expected: (DIM_CAP, DIM_CAP),
                actual: (DIM_CAP + 1, DIM_CAP + 1),
            })
        );
    }

    #[test]
    fn ar1_tracks_mean_reverting_signal() {
        // AR(1) with φ=0.9: x decays toward 0 from any level.
        let m = ar(&[0.9], 1e-4, 0.01).unwrap();
        let mut kf = KalmanFilter::new(m, Vector::zeros(1), 1.0).unwrap();
        let mut x = 10.0;
        for _ in 0..100 {
            x *= 0.9;
            kf.step(&Vector::from_slice(&[x])).unwrap();
        }
        assert!((kf.state()[0] - x).abs() < 0.05);
        // 1-step forecast follows the AR dynamics: ≈ 0.9·x.
        let f = kf.forecast_measurement(1).unwrap()[0];
        assert!((f - 0.9 * x).abs() < 0.05);
    }
}
