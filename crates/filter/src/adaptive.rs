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
//!    is scaled up/down multiplicatively within fixed bounds.

use kalstream_linalg::{Matrix, Vector};

use crate::{KalmanFilter, Result, UpdateStats};

/// The settings an [`AdaptiveKalmanFilter`] is built with: the two its
/// callers vary. The rest of its tuning is this module's constants.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sliding-window length (number of updates) for both estimators.
    /// `0` means "never adapt": an empty window has no mean, so the filter
    /// then runs with its initial `Q`/`R` forever
    /// (`SessionSpec::adaptive` in `kalstream-core` rejects it outright).
    pub window: usize,
    /// Enable process-noise (`Q`) scaling. `R` is always re-estimated.
    pub adapt_q: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 32,
            adapt_q: true,
        }
    }
}

/// Lower bound applied to every diagonal entry of the estimated `R`.
const R_FLOOR: f64 = 1e-9;

/// Multiplicative step of one `Q` rescale.
const Q_STEP: f64 = 1.5;

/// Mean-NIS band `(low, high)`, in units of the measurement dimension,
/// outside which `Q` is rescaled.
const NIS_BAND: (f64, f64) = (0.5, 1.5);

/// Cumulative `Q`-scale clamp relative to the base model, `(min, max)`.
/// Deflating `Q` too far freezes the filter's gain: it stops tracking and
/// the suppression layer pays a sync storm at the next regime change.
/// Inflation may range much further than deflation for exactly that
/// reason.
const Q_SCALE_BOUNDS: (f64, f64) = (0.25, 1e3);

/// Values summed side by side: a ring entry is padded to a whole number of
/// these blocks so that one block's sums can live in registers.
const LANES: usize = 4;

/// The three estimation windows — `ν νᵀ`, `H P⁻ Hᵀ` and NIS — as one flat
/// ring of `window` entries, allocated once. An entry holds `2m² + 1`
/// values padded with zeros to a multiple of [`LANES`] (4 at `m = 1`, so
/// 1 KB at the default `window = 32`).
///
/// The windows always fill and clear together, so they share one cursor.
/// The means are re-summed oldest → newest on every read (a running sum
/// would round differently and change `R̂`'s bits), one block of
/// [`LANES`] values at a time: the accumulators are a fixed-width local
/// array, so they stay in registers instead of waiting on a store and a
/// load per add, as a run-time-width accumulator does.
#[derive(Debug, Clone)]
struct Windows {
    /// Entries the ring holds; `0` makes every method a no-op.
    window: usize,
    /// `m²`: values per matrix in an entry.
    mm: usize,
    /// Values per entry: `2m² + 1` rounded up to a multiple of [`LANES`].
    stride: usize,
    /// Entry `e` is `buf[e·stride..][..stride]` =
    /// `[ν νᵀ | H P⁻ Hᵀ | NIS | zero padding]`; `buf.len() = window · stride`.
    buf: Vec<f64>,
    /// Per-value sums over the live entries, laid out like an entry; what
    /// [`Windows::sums`] last wrote.
    sums: Vec<f64>,
    /// Live entries.
    len: usize,
    /// Slot of the oldest entry (non-zero only once the ring is full).
    head: usize,
}

impl Windows {
    fn new(window: usize, m: usize) -> Self {
        let mm = m * m;
        let stride = (2 * mm + 1).next_multiple_of(LANES);
        Windows {
            window,
            mm,
            stride,
            buf: vec![0.0; window * stride],
            sums: vec![0.0; stride],
            len: 0,
            head: 0,
        }
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
        let (mm, stride) = (self.mm, self.stride);
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

    /// Sums values `block·LANES..` of every live entry, oldest → newest.
    ///
    /// Each sum starts where the per-entry formulation's did: `+0.0` for
    /// the matrix values (the `Matrix::zeros` they were added into) and
    /// `-0.0` for the NIS (where `Iterator::sum` starts), so every sum has
    /// the same bits, signed zeros included.
    fn block_sum(&self, block: usize) -> [f64; LANES] {
        let mut acc = [0.0; LANES];
        let nis = 2 * self.mm;
        if nis / LANES == block {
            acc[nis % LANES] = -0.0;
        }
        let offset = block * LANES;
        // Oldest first: the slots from `head` on, then the wrapped ones.
        for slots in [self.head..self.len, 0..self.head] {
            for slot in slots {
                let values = &self.buf[slot * self.stride + offset..][..LANES];
                for (a, v) in acc.iter_mut().zip(values) {
                    *a += v;
                }
            }
        }
        acc
    }

    /// The per-value sums of the live entries, laid out like an entry: one
    /// pass over the ring per block of [`LANES`] values.
    fn sums(&mut self) -> &[f64] {
        for block in 0..self.stride / LANES {
            let acc = self.block_sum(block);
            self.sums[block * LANES..][..LANES].copy_from_slice(&acc);
        }
        &self.sums
    }

    /// The NIS sum alone: one pass over its block.
    fn nis_sum(&self) -> f64 {
        let nis = 2 * self.mm;
        self.block_sum(nis / LANES)[nis % LANES]
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
            self.windows.nis_sum() / self.windows.len as f64
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
    pub fn update(&mut self, z: &Vector) -> Result<UpdateStats> {
        let windows = &mut self.windows;
        let stats = self.inner.update_with(z.as_slice(), |seen| {
            windows.push(seen.nu, seen.cov, seen.r, seen.stats.nis);
            seen.stats
        })?;
        if self.windows.is_full() {
            self.adapt();
        }
        Ok(stats)
    }

    /// Convenience: predict then update.
    ///
    /// # Errors
    /// Propagates stepping errors.
    pub fn step(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.predict()?;
        self.update(z)
    }

    /// Re-estimates `R` and, when configured, rescales `Q`, from one pass
    /// over the full windows.
    fn adapt(&mut self) {
        let m = self.inner.model().measurement_dim();
        let mm = self.windows.mm;
        let count = self.windows.len as f64;
        let sums = self.windows.sums();
        // Per measurement dimension, as the NIS band is stated.
        let mean_nis = sums[2 * mm] / count / m as f64;
        // R̂ = mean(ν νᵀ) − mean(H P⁻ Hᵀ), floored on the diagonal.
        let inv_count = 1.0 / count;
        let mut r_hat = Matrix::zeros(m, m);
        let (outer, hph) = sums[..2 * mm].split_at(mm);
        for ((r, c), h) in r_hat.as_mut_slice().iter_mut().zip(outer).zip(hph) {
            *r = c * inv_count - h * inv_count;
        }
        for i in 0..m {
            let d = r_hat.get(i, i).max(R_FLOOR);
            r_hat.set(i, i, d);
        }
        r_hat.symmetrize_mut();
        // Only adopt estimates that are positive definite; otherwise keep
        // the current R (a window straddling a regime change can go
        // indefinite transiently).
        if r_hat.cholesky().is_ok() {
            let _ = self.inner.set_measurement_noise(&r_hat);
        }
        if !self.config.adapt_q {
            return;
        }
        let (lo, hi) = NIS_BAND;
        let (smin, smax) = Q_SCALE_BOUNDS;
        let mut new_scale = self.q_scale;
        if mean_nis > hi {
            new_scale = (self.q_scale * Q_STEP).min(smax);
        } else if mean_nis < lo {
            new_scale = (self.q_scale / Q_STEP).max(smin);
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

    impl Windows {
        /// The live entries, oldest first (padding included).
        fn entries(&self) -> impl Iterator<Item = &[f64]> {
            let stride = self.stride;
            let (wrapped, oldest) = self.buf[..self.len * stride].split_at(self.head * stride);
            oldest
                .chunks_exact(stride)
                .chain(wrapped.chunks_exact(stride))
        }
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
    fn q_scale_stops_at_its_floor() {
        // A flat line: innovations collapse, mean NIS falls below the band
        // and Q deflates by `Q_STEP` per full window. The powers of 1/1.5
        // step over 0.25 (0.296 → 0.198), so landing on it exactly is the
        // clamp, and Q is the base Q at that scale.
        let config = AdaptiveConfig {
            window: 8,
            ..Default::default()
        };
        let mut akf = adaptive_walk(1.0, config);
        for _ in 0..400 {
            akf.step(&Vector::from_slice(&[1.0])).unwrap();
        }
        assert_eq!(akf.q_scale(), Q_SCALE_BOUNDS.0);
        assert_eq!(
            akf.inner().model().q(),
            &akf.base_q.scaled(Q_SCALE_BOUNDS.0)
        );
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
        assert_eq!(
            len1,
            4 * 4,
            "m = 1: 4 entries of 2·1 + 1 values, padded to 4"
        );
        assert_eq!(
            len2,
            4 * 12,
            "m = 2: 4 entries of 2·4 + 1 values, padded to 12"
        );
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
            // ν = k, S = 10k, R = k  →  entry [k², 9k, k, 0 (padding)].
            w.push(&[k], &[10.0 * k], &[k], k);
            let got: Vec<f64> = w.entries().map(|e| e[2]).collect();
            let want: Vec<f64> = (1..=5)
                .map(f64::from)
                .filter(|&j| j <= k && j > k - 3.0)
                .collect();
            assert_eq!(got, want, "after push {k}");
        }
        assert_eq!(w.entries().next().unwrap(), &[9.0, 27.0, 3.0, 0.0]);
        w.clear();
        assert_eq!(w.entries().count(), 0);
        w.push(&[2.0], &[1.0], &[0.5], 7.0);
        assert_eq!(w.entries().next().unwrap(), &[4.0, 0.5, 7.0, 0.0]);
    }

    #[test]
    fn lane_blocked_sums_match_a_per_value_walk() {
        // The oracle sums each value on its own, oldest entry first, from
        // where the per-entry formulation started: `+0.0` for the matrix
        // means, `Iterator::sum`'s start for the NIS.
        fn walk(w: &Windows) -> Vec<u64> {
            let nis = 2 * w.mm;
            let mut sums: Vec<f64> = (0..nis)
                .map(|i| w.entries().fold(0.0, |acc, e| acc + e[i]))
                .collect();
            sums.push(w.entries().map(|e| e[nis]).sum::<f64>());
            sums.iter().map(|v| v.to_bits()).collect()
        }
        fn lanes(w: &mut Windows) -> Vec<u64> {
            let live = 2 * w.mm + 1;
            w.sums()[..live].iter().map(|v| v.to_bits()).collect()
        }
        let mut rng = SmallRng::seed_from_u64(45);
        for m in 1..=4 {
            let mut w = Windows::new(5, m);
            assert_eq!(w.stride, [4, 12, 20, 36][m - 1], "2m² + 1 padded to lanes");
            let mut nu = vec![0.0; m];
            let mut s = vec![0.0; m * m];
            let mut r = vec![0.0; m * m];
            // Five entries: nine pushes wrap the ring, a clear, then eight
            // more wrap it again.
            for step in 0..17 {
                if step == 9 {
                    w.clear();
                    assert_eq!(lanes(&mut w), walk(&w), "m = {m}, cleared");
                }
                for v in nu.iter_mut().chain(&mut s).chain(&mut r) {
                    *v = gaussian(&mut rng) * 1e3;
                }
                // The first entry after the clear is all negative zeros,
                // so the start of each sum shows in its sign.
                let nis = if step == 9 {
                    nu.fill(-0.0);
                    s.fill(-0.0);
                    r.fill(0.0);
                    -0.0
                } else {
                    gaussian(&mut rng).abs()
                };
                w.push(&nu, &s, &r, nis);
                let want = walk(&w);
                assert_eq!(lanes(&mut w), want, "m = {m}, step {step}");
                assert_eq!(
                    w.nis_sum().to_bits(),
                    want[2 * m * m],
                    "m = {m}, step {step}"
                );
            }
            assert_eq!(w.head, 3, "m = {m}: the ring wrapped after the clear");
        }
    }

    #[test]
    fn zero_window_never_adapts() {
        // Before the guard, `len() >= 0` armed adaptation on the first
        // update, `1/0 = ∞` made R̂ NaN, `NaN.max(R_FLOOR)` rewrote R to the
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
