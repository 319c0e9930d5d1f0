//! Fitting a stream model from recorded data.
//!
//! The suppression protocol is only as good as the model installed at both
//! ends. When nothing is known about a stream, `SessionSpec::default_scalar`
//! installs an adaptive random walk; this module does better when a recorded
//! prefix of the stream is available: it estimates the sensor-noise level,
//! fits candidate models — random walk, constant velocity, constant
//! acceleration, Yule-Walker AR(p) — and selects among them by one-step
//! predictive log-likelihood on a held-out validation suffix (an honest
//! out-of-sample criterion; in-sample likelihood would always prefer the
//! most flexible model).
//!
//! ```
//! use kalstream_filter::fit::fit_scalar_model;
//!
//! // A trending series: the fit should pick a model with a velocity state.
//! let data: Vec<f64> = (0..400).map(|t| 0.3 * t as f64 + ((t * 37) % 17) as f64 * 0.01).collect();
//! let fitted = fit_scalar_model(&data).unwrap();
//! assert!(fitted.model.state_dim() >= 2, "picked {}", fitted.model.name());
//! ```

use kalstream_linalg::{Matrix, Vector, DIM_CAP};

use crate::{models, FilterError, KalmanFilter, Result, StateModel};

/// Result of fitting: the winning model, an initial state aligned to the
/// end of the training data, and the per-candidate scores for diagnostics.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// The selected model.
    pub model: StateModel,
    /// Initial state aligned to the last training sample (position = last
    /// value, velocity = recent slope, …).
    pub x0: Vector,
    /// Estimated measurement-noise variance.
    pub r_hat: f64,
    /// Held-out mean log-likelihood of the winner.
    pub score: f64,
    /// `(model name, held-out mean log-likelihood)` for every candidate.
    pub candidates: Vec<(String, f64)>,
}

/// Minimum samples required to fit (train + validation split).
pub const MIN_SAMPLES: usize = 32;

/// Estimates the measurement-noise variance of a scalar series from its
/// second differences: for observations `y = s + v` with a smooth signal
/// `s`, `Var(y_{t+1} − 2 y_t + y_{t−1}) ≈ 6 Var(v)` (the signal's own
/// second difference is negligible at the sample rate), so `r̂ = Var(Δ²y)/6`.
///
/// This deliberately over-estimates on rough signals (a random walk's own
/// innovations leak in), which is the safe direction: a too-large `R` makes
/// the filter smoother, never unstable.
pub fn estimate_measurement_noise(observed: &[f64]) -> f64 {
    if observed.len() < 3 {
        return 1e-6;
    }
    let d2: Vec<f64> = observed
        .windows(3)
        .map(|w| w[2] - 2.0 * w[1] + w[0])
        .collect();
    let mean = d2.iter().sum::<f64>() / d2.len() as f64;
    let var = d2.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / d2.len() as f64;
    (var / 6.0).max(1e-12)
}

/// Yule-Walker AR(p) coefficients of a (mean-removed) series.
///
/// Solves the Toeplitz system `R φ = r` with the sample autocovariances.
///
/// # Errors
/// [`FilterError::BadModel`] when `p` is 0 or above [`DIM_CAP`], the series
/// is shorter than `p + 1`, or the autocovariance system is singular
/// (constant series).
pub fn yule_walker(series: &[f64], p: usize) -> Result<Vec<f64>> {
    if p == 0 || p > DIM_CAP || series.len() <= p {
        return Err(FilterError::BadModel {
            what: "F",
            expected: (p, p),
            actual: (series.len(), 0),
        });
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let centred: Vec<f64> = series.iter().map(|x| x - mean).collect();
    // Sample autocovariances γ(0..p).
    let gamma = |lag: usize| -> f64 {
        centred[..n - lag]
            .iter()
            .zip(centred[lag..].iter())
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / n as f64
    };
    let g: Vec<f64> = (0..=p).map(gamma).collect();
    let mut toeplitz = Matrix::zeros(p, p);
    for i in 0..p {
        for j in 0..p {
            toeplitz.set(i, j, g[(i as isize - j as isize).unsigned_abs()]);
        }
    }
    let rhs = Vector::from_slice(&g[1..=p]);
    let phi = toeplitz
        .lu()
        .map_err(FilterError::from)?
        .solve_vec(&rhs)
        .map_err(FilterError::from)?;
    Ok(phi.into_vec())
}

/// Candidate constructor set. `r_hat` is the estimated measurement-noise
/// variance; process noises are chosen relative to the series' innovation
/// scale `q_scale`.
fn candidates(observed: &[f64], r_hat: f64) -> Vec<(StateModel, Vector)> {
    let last = *observed.last().expect("non-empty by MIN_SAMPLES check");
    let n = observed.len();
    // Recent slope over the last ~10 samples (velocity seed).
    let k = 10.min(n - 1);
    let slope = (observed[n - 1] - observed[n - 1 - k]) / k as f64;
    // Innovation scale: variance of first differences (signal + noise move).
    let d1: Vec<f64> = observed.windows(2).map(|w| w[1] - w[0]).collect();
    let d1_mean = d1.iter().sum::<f64>() / d1.len() as f64;
    let q_scale = (d1
        .iter()
        .map(|x| (x - d1_mean) * (x - d1_mean))
        .sum::<f64>()
        / d1.len() as f64)
        .max(1e-12);

    let mut out = vec![
        (
            models::random_walk((q_scale - 2.0 * r_hat).max(q_scale * 0.05), r_hat),
            Vector::from_slice(&[last]),
        ),
        (
            models::constant_velocity(1.0, (q_scale * 0.05).max(1e-10), r_hat),
            Vector::from_slice(&[last, slope]),
        ),
        (
            models::constant_acceleration(1.0, (q_scale * 0.01).max(1e-10), r_hat),
            Vector::from_slice(&[last, slope, 0.0]),
        ),
    ];
    // AR(1) and AR(2) on the raw series.
    for p in [1usize, 2] {
        if let Ok(phi) = yule_walker(observed, p) {
            // Reject explosive fits outright.
            if phi.iter().map(|c| c.abs()).sum::<f64>() < 1.2 {
                if let Ok(model) = models::ar(&phi, q_scale.max(1e-10), r_hat) {
                    let mut x0 = vec![0.0; p];
                    for (i, slot) in x0.iter_mut().enumerate() {
                        *slot = observed[n - 1 - i];
                    }
                    out.push((model, Vector::from_vec(x0)));
                }
            }
        }
    }
    out
}

/// Fits a scalar stream model from a recorded prefix.
///
/// The first 70% of `observed` trains each candidate filter (burn-in); the
/// remaining 30% scores it by mean one-step predictive log-likelihood. The
/// winner is returned with an initial state aligned to the *end* of the
/// data, ready to hand to `SessionSpec::fixed` (or to seed a bank).
///
/// # Errors
/// [`FilterError::BadModel`] when fewer than [`MIN_SAMPLES`] samples are
/// given; candidate-level failures are skipped, and an error is returned
/// only if *every* candidate fails.
pub fn fit_scalar_model(observed: &[f64]) -> Result<FittedModel> {
    if observed.len() < MIN_SAMPLES {
        return Err(FilterError::BadModel {
            what: "x0",
            expected: (MIN_SAMPLES, 1),
            actual: (observed.len(), 1),
        });
    }
    let r_hat = estimate_measurement_noise(observed);
    let split = observed.len() * 7 / 10;
    let (train, valid) = observed.split_at(split);

    let mut scores = Vec::new();
    let mut best: Option<(f64, StateModel)> = None;
    for (model, _) in candidates(train, r_hat) {
        let name = model.name().to_string();
        let n = model.state_dim();
        let mut seed = Vector::zeros(n);
        seed[0] = train[0];
        let Ok(mut kf) = KalmanFilter::new(model.clone(), seed, 1.0) else {
            continue;
        };
        let mut ok = true;
        for &z in train {
            if kf.step(&Vector::from_slice(&[z])).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            scores.push((name, f64::NEG_INFINITY));
            continue;
        }
        let mut ll_sum = 0.0;
        let mut ll_count = 0usize;
        for &z in valid {
            match kf.step(&Vector::from_slice(&[z])) {
                Ok(out) => {
                    ll_sum += out.log_likelihood;
                    ll_count += 1;
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || ll_count == 0 {
            scores.push((name, f64::NEG_INFINITY));
            continue;
        }
        let mean_ll = ll_sum / ll_count as f64;
        scores.push((name, mean_ll));
        if best.as_ref().is_none_or(|(s, _)| mean_ll > *s) {
            best = Some((mean_ll, model));
        }
    }

    let (score, model) = best.ok_or(FilterError::Diverged { what: "state" })?;
    // Rebuild the winner's x0 aligned to the full series end.
    let x0 = candidates(observed, r_hat)
        .into_iter()
        .find(|(m, _)| m.name() == model.name())
        .map(|(_, x0)| x0)
        .expect("winner came from the same candidate set");
    Ok(FittedModel {
        model,
        x0,
        r_hat,
        score,
        candidates: scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn gaussian(rng: &mut SmallRng) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    #[test]
    fn noise_estimate_recovers_sigma() {
        let mut rng = SmallRng::seed_from_u64(1);
        // Slow sinusoid + noise std 0.5 (var 0.25).
        let data: Vec<f64> = (0..5000)
            .map(|t| (t as f64 * 0.001).sin() * 10.0 + 0.5 * gaussian(&mut rng))
            .collect();
        let r = estimate_measurement_noise(&data);
        assert!((r - 0.25).abs() < 0.05, "r̂ = {r}");
    }

    #[test]
    fn noise_estimate_handles_tiny_input() {
        assert!(estimate_measurement_noise(&[1.0]) > 0.0);
        assert!(estimate_measurement_noise(&[]) > 0.0);
    }

    #[test]
    fn yule_walker_recovers_ar1() {
        let mut rng = SmallRng::seed_from_u64(2);
        let phi = 0.8;
        let mut x = 0.0;
        let data: Vec<f64> = (0..20_000)
            .map(|_| {
                x = phi * x + gaussian(&mut rng);
                x
            })
            .collect();
        let est = yule_walker(&data, 1).unwrap();
        assert!((est[0] - phi).abs() < 0.03, "φ̂ = {}", est[0]);
    }

    #[test]
    fn yule_walker_recovers_ar2() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (p1, p2) = (0.5, 0.3);
        let (mut x1, mut x2) = (0.0, 0.0);
        let data: Vec<f64> = (0..50_000)
            .map(|_| {
                let x = p1 * x1 + p2 * x2 + gaussian(&mut rng);
                x2 = x1;
                x1 = x;
                x
            })
            .collect();
        let est = yule_walker(&data, 2).unwrap();
        assert!((est[0] - p1).abs() < 0.05, "φ̂₁ = {}", est[0]);
        assert!((est[1] - p2).abs() < 0.05, "φ̂₂ = {}", est[1]);
    }

    #[test]
    fn yule_walker_rejects_degenerate_input() {
        assert!(yule_walker(&[1.0, 2.0], 5).is_err());
        let mut rng = SmallRng::seed_from_u64(5);
        let noise: Vec<f64> = (0..1000).map(|_| gaussian(&mut rng)).collect();
        assert!(yule_walker(&noise, DIM_CAP).is_ok());
        assert!(yule_walker(&noise, DIM_CAP + 1).is_err());
        assert!(yule_walker(&[], 1).is_err());
        // Constant series: zero autocovariance ⇒ singular.
        assert!(yule_walker(&[3.0; 100], 1).is_err());
    }

    #[test]
    fn fit_picks_velocity_model_for_trend() {
        let mut rng = SmallRng::seed_from_u64(4);
        let data: Vec<f64> = (0..1000)
            .map(|t| 0.5 * t as f64 + 0.2 * gaussian(&mut rng))
            .collect();
        let fitted = fit_scalar_model(&data).unwrap();
        assert!(
            fitted.model.name() == "constant_velocity"
                || fitted.model.name() == "constant_acceleration",
            "picked {} (scores {:?})",
            fitted.model.name(),
            fitted.candidates
        );
        // x0 aligned to end of data: position near last value, slope ≈ 0.5.
        assert!((fitted.x0[0] - data[999]).abs() < 1.0);
        assert!((fitted.x0[1] - 0.5).abs() < 0.2);
    }

    #[test]
    fn fit_picks_walk_for_memoryless_stream() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut level = 0.0;
        let data: Vec<f64> = (0..2000)
            .map(|_| {
                level += 0.5 * gaussian(&mut rng);
                level + 0.05 * gaussian(&mut rng)
            })
            .collect();
        let fitted = fit_scalar_model(&data).unwrap();
        // A walk (or an AR fit that mimics it) must win over trend models.
        assert!(
            fitted.model.name() == "random_walk" || fitted.model.name() == "ar",
            "picked {} (scores {:?})",
            fitted.model.name(),
            fitted.candidates
        );
    }

    #[test]
    fn fit_picks_ar_for_mean_reverting_stream() {
        let mut rng = SmallRng::seed_from_u64(6);
        let phi = 0.9;
        let mut x = 0.0;
        let data: Vec<f64> = (0..4000)
            .map(|_| {
                x = phi * x + gaussian(&mut rng);
                x + 0.01 * gaussian(&mut rng)
            })
            .collect();
        let fitted = fit_scalar_model(&data).unwrap();
        assert_eq!(fitted.model.name(), "ar", "scores {:?}", fitted.candidates);
    }

    #[test]
    fn fit_rejects_short_series() {
        assert!(fit_scalar_model(&[1.0; MIN_SAMPLES - 1]).is_err());
    }

    #[test]
    fn fitted_model_improves_suppression() {
        // End-to-end value: a filter from the fitted model predicts the
        // continuation better than the naive random-walk default.
        let mut rng = SmallRng::seed_from_u64(7);
        let series: Vec<f64> = (0..3000)
            .map(|t| 0.3 * t as f64 + 0.3 * gaussian(&mut rng))
            .collect();
        let (prefix, rest) = series.split_at(1000);
        let fitted = fit_scalar_model(prefix).unwrap();

        let run = |model: StateModel, x0: Vector| -> f64 {
            let mut kf = KalmanFilter::new(model, x0, 1.0).unwrap();
            let mut err = 0.0;
            for &z in rest {
                let pred = kf.predicted_measurement()[0];
                err += (pred - z).abs();
                kf.step(&Vector::from_slice(&[z])).unwrap();
            }
            err
        };
        let fitted_err = run(fitted.model, fitted.x0);
        let naive_err = run(
            models::random_walk(0.01, 0.01),
            Vector::from_slice(&[prefix[999]]),
        );
        assert!(
            fitted_err < naive_err,
            "fitted {fitted_err} vs naive {naive_err}"
        );
    }
}
