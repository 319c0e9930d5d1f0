//! Property-based tests over the filter stack: invariants that must hold
//! for *any* well-formed model and measurement sequence, not just the
//! hand-picked unit-test cases.

use std::collections::VecDeque;

use kalstream_filter::{
    models, AdaptiveConfig, AdaptiveKalmanFilter, KalmanFilter, ModelBank, StateModel,
    UpdateOutcome,
};
use kalstream_linalg::{Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a healthy scalar random-walk-family model.
fn walk_model() -> impl Strategy<Value = StateModel> {
    (1e-4..1.0f64, 1e-4..1.0f64).prop_map(|(q, r)| models::random_walk(q, r))
}

/// Strategy: a healthy constant-velocity model.
fn cv_model() -> impl Strategy<Value = StateModel> {
    (0.1..2.0f64, 1e-4..0.5f64, 1e-3..1.0f64)
        .prop_map(|(dt, q, r)| models::constant_velocity(dt, q, r))
}

/// Strategy: a bounded measurement sequence.
fn measurements(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn covariance_stays_spd_and_symmetric(
        model in cv_model(),
        zs in measurements(60),
    ) {
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        for &z in &zs {
            kf.step(&Vector::from_slice(&[z])).unwrap();
            let p = kf.covariance();
            // Symmetric (exact, thanks to re-symmetrisation)…
            for r in 0..2 {
                for c in 0..2 {
                    prop_assert_eq!(p.get(r, c), p.get(c, r));
                }
            }
            // …and positive definite.
            prop_assert!(p.cholesky().is_ok());
        }
    }

    #[test]
    fn update_diagnostics_are_sane(
        model in walk_model(),
        zs in measurements(40),
    ) {
        let mut kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        for &z in &zs {
            let out = kf.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert!(out.nis >= 0.0, "negative NIS");
            prop_assert!(out.log_likelihood.is_finite());
            prop_assert!(out.innovation_cov.get(0, 0) > 0.0);
        }
    }

    #[test]
    fn update_shrinks_measurement_uncertainty(
        model in cv_model(),
        z in -50.0..50.0f64,
    ) {
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        kf.predict().unwrap();
        let before = kf.predicted_measurement_cov().get(0, 0);
        kf.update(&Vector::from_slice(&[z])).unwrap();
        let after = kf.predicted_measurement_cov().get(0, 0);
        prop_assert!(after <= before + 1e-12, "update increased uncertainty: {before} -> {after}");
    }

    #[test]
    fn forecast_equals_repeated_predict(
        model in cv_model(),
        x0 in prop::collection::vec(-10.0..10.0f64, 2),
        k in 0u64..20,
    ) {
        let kf = KalmanFilter::new(model, Vector::from_slice(&x0), 1.0).unwrap();
        let forecast = kf.forecast_measurement(k).unwrap();
        let mut walker = kf;
        for _ in 0..k {
            walker.predict().unwrap();
        }
        prop_assert!((forecast[0] - walker.predicted_measurement()[0]).abs() < 1e-9);
    }

    #[test]
    fn clone_replay_is_bit_identical(
        model in cv_model(),
        zs in measurements(50),
    ) {
        let mut a = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        let mut b = a.clone();
        for &z in &zs {
            let v = Vector::from_slice(&[z]);
            a.step(&v).unwrap();
            b.step(&v).unwrap();
        }
        prop_assert_eq!(a.state(), b.state());
        prop_assert_eq!(a.covariance(), b.covariance());
    }

    #[test]
    fn adaptive_filter_never_panics_and_stays_finite(
        zs in measurements(120),
        window in 4usize..64,
    ) {
        let kf = KalmanFilter::new(models::random_walk(0.01, 0.1), Vector::zeros(1), 1.0)
            .unwrap();
        let mut akf = AdaptiveKalmanFilter::new(
            kf,
            AdaptiveConfig { window, ..Default::default() },
        );
        for &z in &zs {
            akf.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert!(akf.inner().state().is_finite());
            prop_assert!(akf.q_scale() > 0.0);
            prop_assert!(akf.estimated_r().get(0, 0) > 0.0);
        }
    }

    #[test]
    fn bank_active_model_is_always_valid(
        zs in measurements(80),
    ) {
        let walk =
            KalmanFilter::new(models::random_walk(0.05, 0.1), Vector::zeros(1), 1.0).unwrap();
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.05, 0.1),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        let mut bank =
            ModelBank::new(vec![walk, cv], kalstream_filter::BankConfig::default()).unwrap();
        for &z in &zs {
            bank.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert!(bank.active_index() < bank.len());
            prop_assert!(bank.active().state().is_finite());
        }
    }

}

/// The adaptive filter as it was first written, kept as the oracle the
/// flat-ring implementation is held against: one heap `Matrix` per window
/// entry in three `VecDeque`s, `H P⁻ Hᵀ` through
/// `predicted_measurement_cov() − R`, and a whole validated `StateModel`
/// rebuilt for every adopted `R̂` and every `Q` rescale. It steps its inner
/// filter through the shape-generic `*_dynamic` code, so the comparison also
/// spans the static-kernel dispatch underneath the real filter.
struct OracleAdaptive {
    inner: KalmanFilter,
    config: AdaptiveConfig,
    base: StateModel,
    q_scale: f64,
    innov_outer: VecDeque<Matrix>,
    prior_cov: VecDeque<Matrix>,
    nis: VecDeque<f64>,
    /// `R̂` estimates refused by the positive-definiteness test.
    rejected_r: u32,
    /// `Q` rescales (each clears every window).
    rescales: u32,
}

impl OracleAdaptive {
    fn new(inner: KalmanFilter, config: AdaptiveConfig) -> Self {
        OracleAdaptive {
            base: inner.model().clone(),
            inner,
            config,
            q_scale: 1.0,
            innov_outer: VecDeque::new(),
            prior_cov: VecDeque::new(),
            nis: VecDeque::new(),
            rejected_r: 0,
            rescales: 0,
        }
    }

    fn mean_nis(&self) -> f64 {
        if self.nis.is_empty() {
            0.0
        } else {
            self.nis.iter().sum::<f64>() / self.nis.len() as f64
        }
    }

    fn step(&mut self, z: &Vector) -> UpdateOutcome {
        self.inner.predict_dynamic().expect("oracle predict");
        let prior_s = self.inner.predicted_measurement_cov();
        let prior_hph = &prior_s - self.inner.model().r();
        let outcome = self.inner.update_dynamic(z).expect("oracle update");

        let m = outcome.innovation.dim();
        let mut outer = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                outer.set(i, j, outcome.innovation[i] * outcome.innovation[j]);
            }
        }
        let cap = self.config.window;
        push_window(&mut self.innov_outer, outer, cap);
        push_window(&mut self.prior_cov, prior_hph, cap);
        push_window(&mut self.nis, outcome.nis, cap);

        if self.innov_outer.len() >= cap {
            if self.config.adapt_r {
                self.adapt_r();
            }
            if self.config.adapt_q {
                self.adapt_q(m);
            }
        }
        outcome
    }

    fn adapt_r(&mut self) {
        let m = self.inner.model().measurement_dim();
        let count = self.innov_outer.len() as f64;
        let mut c = Matrix::zeros(m, m);
        for o in &self.innov_outer {
            c += o;
        }
        c.scale_mut(1.0 / count);
        let mut hph = Matrix::zeros(m, m);
        for p in &self.prior_cov {
            hph += p;
        }
        hph.scale_mut(1.0 / count);
        let mut r_hat = &c - &hph;
        for i in 0..m {
            let d = r_hat.get(i, i).max(self.config.r_floor);
            r_hat.set(i, i, d);
        }
        r_hat.symmetrize_mut();
        if r_hat.cholesky().is_ok() {
            let model = self
                .inner
                .model()
                .with_measurement_noise(r_hat)
                .expect("shape");
            self.inner.set_model(model).expect("shape");
        } else {
            self.rejected_r += 1;
        }
    }

    fn adapt_q(&mut self, m: usize) {
        let mean_nis = self.mean_nis() / m as f64;
        let (lo, hi) = self.config.nis_band;
        let (smin, smax) = self.config.q_scale_bounds;
        let mut new_scale = self.q_scale;
        if mean_nis > hi {
            new_scale = (self.q_scale * self.config.q_step).min(smax);
        } else if mean_nis < lo {
            new_scale = (self.q_scale / self.config.q_step).max(smin);
        }
        if new_scale != self.q_scale {
            self.q_scale = new_scale;
            self.rescales += 1;
            let scaled = self.base.with_scaled_q(self.q_scale).expect("shape");
            let model = scaled
                .with_measurement_noise(self.inner.model().r().clone())
                .expect("shape");
            self.inner.set_model(model).expect("shape");
            self.nis.clear();
            self.innov_outer.clear();
            self.prior_cov.clear();
        }
    }
}

fn push_window<T>(dq: &mut VecDeque<T>, v: T, cap: usize) {
    dq.push_back(v);
    while dq.len() > cap {
        dq.pop_front();
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// xorshift64* uniform in `[-1, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Steps the real adaptive filter and the oracle through a three-regime
/// stream and requires bit-equality of everything observable at every
/// step, with both estimators on and with each one alone (the recorded
/// F4/F5 runs and the 2-D policies adapt `R` only). The regimes are chosen
/// so that every case crosses the bookkeeping events that could plausibly
/// break equivalence, wherever the estimator behind them is on:
///
/// 1. noise far above the modelled `R`, `Q` — mean NIS leaves the band and
///    `Q` is rescaled, clearing all three windows mid-run;
/// 2. a flat line — innovations collapse under `P`, so
///    `mean(ν νᵀ) − mean(H P⁻ Hᵀ)` goes negative, the diagonal is floored
///    to `r_floor` and the estimate fails the PD test (for `m = 1` the
///    floor is 0 here; for `m ≥ 2` the surviving off-diagonals do it);
/// 3. noise again, so adoption resumes after the rejections.
fn assert_adaptive_matches_oracle(
    model: StateModel,
    window: usize,
    r_floor: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    for (adapt_r, adapt_q) in [(true, true), (true, false), (false, true)] {
        let config = AdaptiveConfig {
            window,
            r_floor,
            adapt_r,
            adapt_q,
            ..Default::default()
        };
        assert_config_matches_oracle(model.clone(), config, seed)?;
    }
    Ok(())
}

fn assert_config_matches_oracle(
    model: StateModel,
    config: AdaptiveConfig,
    seed: u64,
) -> Result<(), TestCaseError> {
    const STEPS: usize = 600;
    let (n, m) = (model.state_dim(), model.measurement_dim());
    let (adapt_r, adapt_q) = (config.adapt_r, config.adapt_q);
    let kf = KalmanFilter::new(model, Vector::zeros(n), 1.0).unwrap();
    let mut real = AdaptiveKalmanFilter::new(kf.clone(), config.clone());
    let mut oracle = OracleAdaptive::new(kf, config);
    let mut rng = seed | 1;
    for t in 0..STEPS {
        let common = next_unit(&mut rng);
        let z = Vector::from_vec(
            (0..m)
                .map(|j| match t {
                    0..200 => 40.0 * (common + 0.1 * next_unit(&mut rng)),
                    200..400 => 3.0 + j as f64,
                    _ => 5.0 * next_unit(&mut rng),
                })
                .collect(),
        );
        let got = real.step(&z).unwrap();
        let want = oracle.step(&z);
        prop_assert_eq!(
            bits(real.inner().state().as_slice()),
            bits(oracle.inner.state().as_slice()),
            "x, step {}",
            t
        );
        prop_assert_eq!(
            bits(real.inner().covariance().as_slice()),
            bits(oracle.inner.covariance().as_slice()),
            "P, step {}",
            t
        );
        prop_assert_eq!(
            bits(real.estimated_r().as_slice()),
            bits(oracle.inner.model().r().as_slice()),
            "R, step {}",
            t
        );
        prop_assert_eq!(
            real.inner().model(),
            oracle.inner.model(),
            "model, step {}",
            t
        );
        prop_assert_eq!(
            real.q_scale().to_bits(),
            oracle.q_scale.to_bits(),
            "q_scale, step {}",
            t
        );
        prop_assert_eq!(
            real.mean_nis().to_bits(),
            oracle.mean_nis().to_bits(),
            "mean NIS, step {}",
            t
        );
        prop_assert_eq!(
            bits(got.innovation.as_slice()),
            bits(want.innovation.as_slice()),
            "innovation, step {}",
            t
        );
        prop_assert_eq!(
            bits(got.innovation_cov.as_slice()),
            bits(want.innovation_cov.as_slice()),
            "S, step {}",
            t
        );
        prop_assert_eq!(got.innovation_cov.shape(), want.innovation_cov.shape());
        prop_assert_eq!(got.nis.to_bits(), want.nis.to_bits(), "NIS, step {}", t);
        prop_assert_eq!(
            got.log_likelihood.to_bits(),
            want.log_likelihood.to_bits(),
            "log-likelihood, step {}",
            t
        );
    }
    prop_assert!(
        !adapt_q || oracle.rescales >= 1,
        "no Q rescale (window clear) in the run"
    );
    prop_assert!(
        !adapt_r || oracle.rejected_r >= 1,
        "no non-PD R̂ rejected in the run"
    );
    Ok(())
}

/// A dense, full-row-rank `n`-state, `m`-measurement model: every
/// component leaks into the next and every measurement sees every state,
/// so `ν νᵀ`, `H P⁻ Hᵀ` and `R̂` have no structural zeros.
fn dense_model(n: usize, m: usize, q: f64, r: f64) -> StateModel {
    let mut f = Matrix::identity(n);
    for row in 0..n - 1 {
        f.set(row, row + 1, 0.5);
    }
    let mut h = Matrix::zeros(m, n);
    for j in 0..m {
        for k in 0..n {
            let v = if k == j {
                1.0
            } else {
                0.125 / (1 + j + k) as f64
            };
            h.set(j, k, v);
        }
    }
    StateModel::new("dense", f, Matrix::scalar(n, q), h, Matrix::scalar(m, r)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adaptive_scalar_matches_vecdeque_oracle(
        q in 1e-3..0.1f64,
        r in 1e-3..0.5f64,
        window in 2usize..48,
        seed in any::<u64>(),
    ) {
        // The benchmark fleet's shape (1×1).
        assert_adaptive_matches_oracle(models::random_walk(q, r), window, 0.0, seed)?;
    }

    #[test]
    fn adaptive_planar_matches_vecdeque_oracle(
        q in 1e-3..0.1f64,
        r in 1e-3..0.5f64,
        window in 2usize..48,
        seed in any::<u64>(),
    ) {
        // m = 2: matrix-valued windows, R̂ with off-diagonals (4×2).
        assert_adaptive_matches_oracle(
            models::constant_velocity_2d(1.0, q, r),
            window,
            1e-9,
            seed,
        )?;
    }

    #[test]
    fn adaptive_dense_matches_vecdeque_oracle(
        m in 3usize..=4,
        q in 1e-3..0.1f64,
        r in 1e-3..0.5f64,
        window in 2usize..48,
        seed in any::<u64>(),
    ) {
        // m = 3, 4: entries of 19 and 33 values padded to 20 and 36, so
        // the lane blocks end in padding (4×3, 4×4).
        assert_adaptive_matches_oracle(dense_model(4, m, q, r), window, 1e-9, seed)?;
    }
}
