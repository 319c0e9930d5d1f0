//! Innovation-based adaptive noise estimation.
//!
//! A fixed Kalman filter is only optimal when `Q` and `R` match reality. The
//! paper's central adaptivity claim — the filter "has the ability to adapt to
//! various stream characteristics, sensor noise, and time variance" — is
//! realised here with two classic innovation-based mechanisms:
//!
//! 1. **R estimation.** The innovation sequence satisfies
//!    `E[ν νᵀ] = H P⁻ Hᵀ + R`. A sliding window of empirical innovation
//!    outer-products minus the window-averaged `H P⁻ Hᵀ` therefore estimates
//!    `R` directly (Mehra 1970 style), floored to stay positive definite.
//! 2. **Q scaling.** The windowed mean NIS of a consistent filter is ≈ `m`
//!    (the measurement dimension). Persistent NIS above/below band limits
//!    means the filter trusts its model too much/too little, so the base `Q`
//!    is scaled up/down multiplicatively within configured bounds.

use kalstream_linalg::{Matrix, Vector};

use crate::kalman::Innovation;
use crate::{KalmanFilter, Result, UpdateOutcome, UpdateStats};

/// Tuning knobs for [`AdaptiveKalmanFilter`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sliding-window length (number of updates) for both estimators.
    /// `0` means "never adapt": an empty window has no mean, so the filter
    /// then runs with its initial `Q`/`R` forever
    /// (`SessionSpec::adaptive` in `kalstream-core` rejects it outright).
    pub window: usize,
    /// Enable measurement-noise (`R`) estimation.
    pub adapt_r: bool,
    /// Enable process-noise (`Q`) scaling.
    pub adapt_q: bool,
    /// Lower bound applied to every diagonal entry of the estimated `R`.
    pub r_floor: f64,
    /// Multiplicative step for `Q` scaling (e.g. `1.5`).
    pub q_step: f64,
    /// Mean-NIS band `(low, high)`, in units of the measurement dimension,
    /// outside which `Q` is rescaled. Typical: `(0.5, 1.5)`.
    pub nis_band: (f64, f64),
    /// Cumulative `Q`-scale clamp relative to the base model, `(min, max)`.
    pub q_scale_bounds: (f64, f64),
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 32,
            adapt_r: true,
            adapt_q: true,
            r_floor: 1e-9,
            q_step: 1.5,
            nis_band: (0.5, 1.5),
            // Deflating Q too far freezes the filter's gain: it stops
            // tracking and the suppression layer pays a sync storm at the
            // next regime change. Inflation may range much further than
            // deflation for exactly that reason.
            q_scale_bounds: (0.25, 1e3),
        }
    }
}

/// The three estimation windows — `ν νᵀ`, `H P⁻ Hᵀ` and NIS — as one flat
/// ring of `window` entries of `2m² + 1` values each, allocated once.
///
/// The windows always fill and clear together, so they share one cursor.
/// The means are re-summed oldest → newest from `0.0` on every read (a
/// running sum would round differently and change `R̂`'s bits), which at
/// `m = 1` is a walk over 768 contiguous bytes.
#[derive(Debug, Clone)]
struct Windows {
    /// Entries the ring holds; `0` makes every method a no-op.
    window: usize,
    /// `m²`: values per matrix in an entry.
    mm: usize,
    /// Entry `e` is `buf[e·stride..][..stride]` = `[ν νᵀ | H P⁻ Hᵀ | NIS]`,
    /// `stride = 2m² + 1`; `buf.len() = window · stride`.
    buf: Vec<f64>,
    /// Live entries.
    len: usize,
    /// Slot of the oldest entry (non-zero only once the ring is full).
    head: usize,
}

impl Windows {
    fn new(window: usize, m: usize) -> Self {
        let mm = m * m;
        Windows {
            window,
            mm,
            buf: vec![0.0; window * (2 * mm + 1)],
            len: 0,
            head: 0,
        }
    }

    fn stride(&self) -> usize {
        2 * self.mm + 1
    }

    /// `true` once `window` entries are live — never, for a zero window.
    fn is_full(&self) -> bool {
        self.window != 0 && self.len == self.window
    }

    fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
    }

    /// Appends one update's entry, evicting the oldest when full:
    /// `ν νᵀ`, then `H P⁻ Hᵀ = S − R` (`S` is the innovation covariance the
    /// update itself factored — the *prior* measurement covariance plus
    /// `R`), then the NIS.
    fn push(&mut self, nu: &[f64], s: &[f64], r: &[f64], nis: f64) {
        if self.window == 0 {
            return;
        }
        let (mm, stride) = (self.mm, self.stride());
        let slot = if self.is_full() {
            let oldest = self.head;
            self.head = (self.head + 1) % self.window;
            oldest
        } else {
            self.len += 1;
            self.len - 1
        };
        let entry = &mut self.buf[slot * stride..][..stride];
        let (outer, rest) = entry.split_at_mut(mm);
        for (row, &a) in outer.chunks_exact_mut(nu.len()).zip(nu) {
            for (o, &b) in row.iter_mut().zip(nu) {
                *o = a * b;
            }
        }
        for ((o, &sv), &rv) in rest.iter_mut().zip(s).zip(r) {
            *o = sv - rv;
        }
        rest[mm] = nis;
    }

    /// The live entries, oldest first.
    fn entries(&self) -> impl Iterator<Item = &[f64]> {
        let stride = self.stride();
        let (wrapped, oldest) = self.buf[..self.len * stride].split_at(self.head * stride);
        oldest
            .chunks_exact(stride)
            .chain(wrapped.chunks_exact(stride))
    }
}

/// A [`KalmanFilter`] wrapped with online `Q`/`R` estimation.
///
/// The wrapper is deterministic like the inner filter: adaptation decisions
/// depend only on the measurement history, so a cloned
/// `AdaptiveKalmanFilter` fed the same inputs stays identical — which is what
/// lets the suppression protocol run an adaptive filter as the shared
/// source/server procedure.
///
/// Its footprint is fixed at construction: the estimation windows are one
/// flat ring (see the module source), and an adopted `R̂` or rescaled `Q`
/// overwrites the inner model's matrix in place — a steady-state update
/// allocates nothing and rebuilds nothing.
#[derive(Debug, Clone)]
pub struct AdaptiveKalmanFilter {
    inner: KalmanFilter,
    config: AdaptiveConfig,
    /// `Q` of the model the filter was built over, which the scale factor
    /// refers to.
    base_q: Matrix,
    /// Current cumulative Q-scale factor.
    q_scale: f64,
    windows: Windows,
}

impl AdaptiveKalmanFilter {
    /// Wraps a filter.
    pub fn new(inner: KalmanFilter, config: AdaptiveConfig) -> Self {
        let base_q = inner.model().q().clone();
        let windows = Windows::new(config.window, inner.model().measurement_dim());
        AdaptiveKalmanFilter {
            inner,
            config,
            base_q,
            q_scale: 1.0,
            windows,
        }
    }

    /// Immutable access to the wrapped filter.
    pub fn inner(&self) -> &KalmanFilter {
        &self.inner
    }

    /// Mutable access to the wrapped filter (for resynchronisation).
    pub fn inner_mut(&mut self) -> &mut KalmanFilter {
        &mut self.inner
    }

    /// Current cumulative process-noise scale relative to the base model.
    pub fn q_scale(&self) -> f64 {
        self.q_scale
    }

    /// Current estimated measurement-noise covariance (the model's live `R`).
    pub fn estimated_r(&self) -> &Matrix {
        self.inner.model().r()
    }

    /// Windowed mean NIS (`0.0` before the first update).
    pub fn mean_nis(&self) -> f64 {
        if self.windows.len == 0 {
            0.0
        } else {
            let last = self.windows.stride() - 1;
            self.windows.entries().map(|e| e[last]).sum::<f64>() / self.windows.len as f64
        }
    }

    /// Time update (no adaptation happens here).
    ///
    /// # Errors
    /// Propagates [`KalmanFilter::predict`] errors.
    pub fn predict(&mut self) -> Result<()> {
        self.inner.predict()
    }

    /// Measurement update followed by adaptation.
    ///
    /// # Errors
    /// Propagates [`KalmanFilter::update`] errors; adaptation itself never
    /// fails (a non-PD `R` estimate is skipped, not applied).
    pub fn update(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.update_with(z, UpdateOutcome::copied_from)
    }

    /// [`AdaptiveKalmanFilter::update`] without copying `ν` and `S` out
    /// (see [`KalmanFilter::update_lean`]).
    ///
    /// # Errors
    /// As [`AdaptiveKalmanFilter::update`].
    pub fn update_lean(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.update_with(z, |seen| seen.stats)
    }

    fn update_with<T>(&mut self, z: &Vector, read: impl FnOnce(Innovation<'_>) -> T) -> Result<T> {
        let windows = &mut self.windows;
        let out = self.inner.update_with(z.as_slice(), |seen| {
            windows.push(seen.nu, seen.cov, seen.r, seen.stats.nis);
            read(seen)
        })?;
        if self.windows.is_full() {
            if self.config.adapt_r {
                self.adapt_r();
            }
            if self.config.adapt_q {
                self.adapt_q();
            }
        }
        Ok(out)
    }

    /// Convenience: predict then update.
    ///
    /// # Errors
    /// Propagates stepping errors.
    pub fn step(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.predict()?;
        self.update(z)
    }

    /// [`AdaptiveKalmanFilter::step`] over
    /// [`AdaptiveKalmanFilter::update_lean`].
    ///
    /// # Errors
    /// Propagates stepping errors.
    pub fn step_lean(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.predict()?;
        self.update_lean(z)
    }

    fn adapt_r(&mut self) {
        let m = self.inner.model().measurement_dim();
        let mm = self.windows.mm;
        let mut c = Matrix::zeros(m, m);
        let mut hph = Matrix::zeros(m, m);
        for entry in self.windows.entries() {
            for (acc, v) in c.as_mut_slice().iter_mut().zip(&entry[..mm]) {
                *acc += v;
            }
            for (acc, v) in hph.as_mut_slice().iter_mut().zip(&entry[mm..2 * mm]) {
                *acc += v;
            }
        }
        let inv_count = 1.0 / self.windows.len as f64;
        c.scale_mut(inv_count);
        hph.scale_mut(inv_count);
        // R̂ = mean(ν νᵀ) − mean(H P⁻ Hᵀ), floored on the diagonal.
        let mut r_hat = c;
        r_hat -= &hph;
        for i in 0..m {
            let d = r_hat.get(i, i).max(self.config.r_floor);
            r_hat.set(i, i, d);
        }
        r_hat.symmetrize_mut();
        // Only adopt estimates that are positive definite; otherwise keep
        // the current R (a window straddling a regime change can go
        // indefinite transiently).
        if r_hat.cholesky().is_ok() {
            let _ = self.inner.set_measurement_noise(&r_hat);
        }
    }

    fn adapt_q(&mut self) {
        let m = self.inner.model().measurement_dim();
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
            // Rebuild Q from the *base* model so floating error never
            // compounds; the live (possibly adapted) R stays as it is.
            let _ = self
                .inner
                .set_process_noise(&self.base_q.scaled(self.q_scale));
            // Every estimation window now spans two different models, so
            // all of them restart: an R estimate computed from mixed-model
            // innovations is biased (it oscillates wildly in practice), and
            // a stale NIS window would immediately re-trigger scaling.
            self.windows.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn gaussian(rng: &mut SmallRng) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    fn adaptive_walk(r0: f64, config: AdaptiveConfig) -> AdaptiveKalmanFilter {
        let model = models::random_walk(0.01, r0);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        AdaptiveKalmanFilter::new(kf, config)
    }

    #[test]
    fn r_estimate_converges_to_true_noise() {
        // Model claims R = 0.01 but the stream has measurement noise var 1.0.
        let mut akf = adaptive_walk(
            0.01,
            AdaptiveConfig {
                adapt_q: false,
                ..Default::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..2000 {
            let z = Vector::from_slice(&[gaussian(&mut rng)]);
            akf.step(&z).unwrap();
        }
        let r = akf.estimated_r().get(0, 0);
        assert!(r > 0.5 && r < 2.0, "estimated R = {r}, want ≈ 1.0");
    }

    #[test]
    fn r_estimate_stays_put_when_model_is_right() {
        let mut akf = adaptive_walk(
            1.0,
            AdaptiveConfig {
                adapt_q: false,
                ..Default::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..2000 {
            let z = Vector::from_slice(&[gaussian(&mut rng)]);
            akf.step(&z).unwrap();
        }
        let r = akf.estimated_r().get(0, 0);
        assert!(r > 0.6 && r < 1.6, "estimated R = {r}, want ≈ 1.0");
    }

    #[test]
    fn q_scales_up_under_model_mismatch() {
        // Stream is a fast ramp but the model expects a nearly-static walk
        // with tiny Q: NIS explodes, the adapter should inflate Q.
        let config = AdaptiveConfig {
            adapt_r: false,
            window: 16,
            ..Default::default()
        };
        let model = models::random_walk(1e-8, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 0.01).unwrap();
        let mut akf = AdaptiveKalmanFilter::new(kf, config);
        for t in 0..400 {
            let z = Vector::from_slice(&[t as f64 * 0.5]);
            akf.step(&z).unwrap();
        }
        assert!(akf.q_scale() > 10.0, "q_scale = {}", akf.q_scale());
    }

    #[test]
    fn q_scale_respects_bounds() {
        let config = AdaptiveConfig {
            adapt_r: false,
            window: 8,
            q_scale_bounds: (0.1, 10.0),
            ..Default::default()
        };
        let model = models::random_walk(1e-8, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 0.01).unwrap();
        let mut akf = AdaptiveKalmanFilter::new(kf, config);
        for t in 0..2000 {
            let z = Vector::from_slice(&[t as f64]);
            akf.step(&z).unwrap();
        }
        assert!(akf.q_scale() <= 10.0);
    }

    #[test]
    fn adaptation_is_deterministic_under_clone() {
        let mut a = adaptive_walk(0.05, AdaptiveConfig::default());
        let mut b = a.clone();
        let mut rng = SmallRng::seed_from_u64(44);
        for _ in 0..500 {
            let z = Vector::from_slice(&[gaussian(&mut rng) * 3.0]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert_eq!(a.inner().state(), b.inner().state());
        assert_eq!(a.q_scale(), b.q_scale());
        assert_eq!(a.estimated_r(), b.estimated_r());
    }

    #[test]
    fn mean_nis_empty_is_zero() {
        let akf = adaptive_walk(1.0, AdaptiveConfig::default());
        assert_eq!(akf.mean_nis(), 0.0);
    }

    #[test]
    fn window_is_bounded() {
        let config = AdaptiveConfig {
            window: 4,
            ..Default::default()
        };
        let mut scalar = adaptive_walk(1.0, config.clone());
        let cv2d = KalmanFilter::new(
            models::constant_velocity_2d(1.0, 0.05, 0.5),
            Vector::zeros(4),
            1.0,
        )
        .unwrap();
        let mut planar = AdaptiveKalmanFilter::new(cv2d, config);
        let (len1, len2) = (scalar.windows.buf.len(), planar.windows.buf.len());
        assert_eq!(len1, 4 * 3, "m = 1: 4 entries of 2·1 + 1 values");
        assert_eq!(len2, 4 * 9, "m = 2: 4 entries of 2·4 + 1 values");
        for t in 0..50 {
            let v = t as f64 * 0.01;
            scalar.step(&Vector::from_slice(&[v])).unwrap();
            planar.step(&Vector::from_slice(&[v, -v])).unwrap();
            assert!(scalar.windows.len <= 4 && planar.windows.len <= 4);
            assert!(scalar.windows.entries().count() <= 4);
            assert!(planar.windows.entries().count() <= 4);
        }
        assert_eq!(scalar.windows.buf.len(), len1, "the ring never grows");
        assert_eq!(planar.windows.buf.len(), len2, "the ring never grows");
    }

    #[test]
    fn ring_yields_entries_oldest_first_across_the_wrap() {
        let mut w = Windows::new(3, 1);
        for k in 1..=5 {
            let k = k as f64;
            // ν = k, S = 10k, R = k  →  entry [k², 9k, k].
            w.push(&[k], &[10.0 * k], &[k], k);
            let got: Vec<f64> = w.entries().map(|e| e[2]).collect();
            let want: Vec<f64> = (1..=5)
                .map(f64::from)
                .filter(|&j| j <= k && j > k - 3.0)
                .collect();
            assert_eq!(got, want, "after push {k}");
        }
        assert_eq!(w.entries().next().unwrap(), &[9.0, 27.0, 3.0]);
        w.clear();
        assert_eq!(w.entries().count(), 0);
        w.push(&[2.0], &[1.0], &[0.5], 7.0);
        assert_eq!(w.entries().next().unwrap(), &[4.0, 0.5, 7.0]);
    }

    #[test]
    fn zero_window_never_adapts() {
        // Before the guard, `len() >= 0` armed adaptation on the first
        // update, `1/0 = ∞` made R̂ NaN, `NaN.max(r_floor)` rewrote R to the
        // floor every tick, and `mean_nis() = 0` deflated Q to its bound.
        let mut akf = adaptive_walk(
            0.5,
            AdaptiveConfig {
                window: 0,
                ..Default::default()
            },
        );
        let mut plain = akf.inner().clone();
        for t in 0..200 {
            let z = Vector::from_slice(&[(t as f64 * 0.3).sin() * 4.0]);
            akf.step(&z).unwrap();
            plain.step(&z).unwrap();
        }
        assert_eq!(akf.estimated_r().get(0, 0), 0.5, "R untouched");
        assert_eq!(akf.q_scale(), 1.0, "Q untouched");
        assert_eq!(akf.mean_nis(), 0.0);
        assert_eq!(akf.inner().state(), plain.state());
        assert_eq!(akf.inner().covariance(), plain.covariance());
    }
}
