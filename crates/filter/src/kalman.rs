//! The discrete linear Kalman filter.

use kalstream_linalg::{LinalgError, Matrix, StaticKernel, StaticUpdateOutcome, Vector, DIM_CAP};

use crate::dispatch::for_each_shape;
use crate::{FilterError, Result, StateModel};

pub use kalstream_linalg::CovarianceUpdate;

/// The widest measurement a filter takes: the widest row of the shape
/// table (`for_each_shape!`), so every admitted shape has a kernel.
const MEASUREMENT_CAP: usize = 4;

/// Routes one filter operation to `$step::<N, M, PAD, …>` by the filter's
/// `(state_dim, measurement_dim)`. A row of the workspace shape table
/// (`for_each_shape!`) runs at its exact width (`PAD = false`); any other
/// admitted shape runs on the row `(max(n, m).next_power_of_two(), m)`
/// with its state zero-padded (`PAD = true`). [`check_shape`] admits
/// `1 ≤ n ≤ 8`, `1 ≤ m ≤ 4`, and every such pair has one of the two, so
/// the last arm is never taken. `$infer` is the bracketed tail of the
/// turbofish (`[, _]` per further type parameter).
macro_rules! dispatch_by_shape {
    ([$kf:ident, $step:ident $infer:tt $args:tt]
     $(($variant:ident, $n:literal, $m:literal)),+) => {{
        let (n, m) = ($kf.model.state_dim(), $kf.model.measurement_dim());
        match (n, m) {
            $(($n, $m) => call_static!($kf, $step, $n, $m, false, $infer, $args),)+
            _ => match (n.max(m).next_power_of_two(), m) {
                $(($n, $m) => call_static!($kf, $step, $n, $m, true, $infer, $args),)+
                _ => unreachable!("check_shape admitted a {n}x{m} filter"),
            },
        }
    }};
}

macro_rules! call_static {
    ($kf:ident, $step:ident, $n:literal, $m:literal, $pad:literal, [$($infer:tt)*], $args:tt) => {
        $kf.$step::<$n, $m, $pad $($infer)*> $args
    };
}

/// What a measurement update reports: the diagnostics the adaptive layer,
/// the model bank and every other caller read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Normalised innovation squared `νᵀ S⁻¹ ν` — chi-square distributed
    /// with `m` degrees of freedom when the model is consistent.
    pub nis: f64,
    /// Gaussian log-likelihood of the measurement under the predictive
    /// distribution `N(Hx⁻, S)` — the model bank's scoring signal.
    pub log_likelihood: f64,
}

/// What a measurement update shows its caller before it returns: borrowed
/// from the kernel's stack, so nothing is copied unless the reader copies
/// it. Matrices are row-major `m × m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Innovation<'a> {
    /// Innovation `ν`.
    pub nu: &'a [f64],
    /// Innovation covariance `S`.
    pub cov: &'a [f64],
    /// The measurement noise `R` the update ran with (`S − R = H P⁻ Hᵀ`).
    pub r: &'a [f64],
    /// NIS and log-likelihood.
    pub stats: UpdateStats,
}

/// The discrete linear Kalman filter over a [`StateModel`].
///
/// The filter is `Clone` and bit-deterministic: the stream-source side of the
/// suppression protocol clones the server's filter and replays the exact same
/// operations to know precisely what the server believes. Any hidden state or
/// platform-dependent arithmetic here would silently break the precision
/// guarantee, so the implementation is plain `f64` over `kalstream-linalg`.
///
/// **One kernel.** [`KalmanFilter::predict`] and [`KalmanFilter::update`]
/// step every filter, in either covariance form, through the monomorphized
/// [`StaticKernel`]. A shape of the workspace table (state ∈ {1, 2, 4, 8}
/// × measurement ∈ {1..4}, measurement ≤ state — the table
/// [`crate::DynFleetBatch`] is built from) runs at its exact width; any
/// other shape (state ≤ 8, measurement ≤ 4) runs on the table row of state
/// width `max(n, m).next_power_of_two()`, its state zero-padded on load and
/// only the real `n × n` block stored back, which changes no bit of it
/// (`kalstream-linalg`'s `static_kernel` docs). The route is a function of
/// the filter's own shape — no caller, flag or feature selects it — and
/// the equivalence proptests hold it bit-identical to a textbook filter
/// over the allocating `Matrix` API for every admitted shape, error paths
/// included.
#[derive(Debug, Clone)]
pub struct KalmanFilter {
    model: StateModel,
    /// Current state estimate `x`.
    x: Vector,
    /// Current estimate covariance `P`.
    p: Matrix,
    /// Covariance-update formula.
    cov_update: CovarianceUpdate,
    /// Number of predict steps since the last measurement update; the
    /// suppression protocol reads this as "cache age".
    steps_since_update: u64,
}

impl KalmanFilter {
    /// Creates a filter with state `x0` and isotropic initial covariance
    /// `p0 · I`.
    ///
    /// # Errors
    /// [`FilterError::BadMeasurement`] is never returned here;
    /// [`FilterError::BadModel`] when `x0`'s dimension disagrees with the
    /// model's state dimension.
    pub fn new(model: StateModel, x0: Vector, p0: f64) -> Result<Self> {
        let n = model.state_dim();
        let p = Matrix::scalar(n, p0);
        KalmanFilter::with_covariance(model, x0, p)
    }

    /// Creates a filter with an explicit initial covariance.
    ///
    /// # Errors
    /// [`FilterError::DimensionTooLarge`] for a measurement dimension above
    /// 4, [`FilterError::Linalg`] for a zero dimension;
    /// [`FilterError::BadModel`] when `x0` or `p0` shapes disagree
    /// with the model.
    pub fn with_covariance(model: StateModel, x0: Vector, p0: Matrix) -> Result<Self> {
        check_shape(&model)?;
        check_state_shape(model.state_dim(), &x0, &p0)?;
        Ok(KalmanFilter {
            model,
            x: x0,
            p: p0,
            cov_update: CovarianceUpdate::Joseph,
            steps_since_update: 0,
        })
    }

    /// Selects the covariance-update formula (default: Joseph).
    pub fn set_covariance_update(&mut self, cu: CovarianceUpdate) {
        self.cov_update = cu;
    }

    /// The covariance-update formula currently in effect. The batch lanes
    /// read this: a [`crate::FleetBatch`] runs one form, so streams group
    /// by model *and* form.
    pub fn covariance_update(&self) -> CovarianceUpdate {
        self.cov_update
    }

    /// The model currently driving the filter.
    pub fn model(&self) -> &StateModel {
        &self.model
    }

    /// Replaces the model, keeping state and covariance.
    ///
    /// # Errors
    /// As [`KalmanFilter::with_covariance`] for the model's dimensions;
    /// [`FilterError::BadModel`] when the new model's state dimension
    /// differs from the current state.
    pub fn set_model(&mut self, model: StateModel) -> Result<()> {
        check_shape(&model)?;
        if model.state_dim() != self.x.dim() {
            return Err(FilterError::BadModel {
                what: "F",
                expected: (self.x.dim(), self.x.dim()),
                actual: (model.state_dim(), model.state_dim()),
            });
        }
        self.model = model;
        Ok(())
    }

    /// Overwrites the model's process noise `Q` in place — what the
    /// adaptive layer calls when it rescales `Q`.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `q` is not `n × n`.
    pub fn set_process_noise(&mut self, q: &Matrix) -> Result<()> {
        self.model.set_process_noise(q)
    }

    /// Overwrites the model's measurement noise `R` in place — what the
    /// adaptive layer calls when it adopts a re-estimated `R`.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `r` is not `m × m`.
    pub fn set_measurement_noise(&mut self, r: &Matrix) -> Result<()> {
        self.model.set_measurement_noise(r)
    }

    /// Current state estimate.
    pub fn state(&self) -> &Vector {
        &self.x
    }

    /// Current estimate covariance.
    pub fn covariance(&self) -> &Matrix {
        &self.p
    }

    /// Predict steps executed since the last measurement update.
    pub fn steps_since_update(&self) -> u64 {
        self.steps_since_update
    }

    /// Overwrites state and covariance — the resynchronisation primitive of
    /// the suppression protocol (server applies the corrected state shipped
    /// by the source).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn set_state(&mut self, x: Vector, p: Matrix) -> Result<()> {
        self.set_state_from(&x, &p)
    }

    /// [`KalmanFilter::set_state`] from borrowed values: copies the live
    /// `n + n²` elements into the filter's own storage, so a caller that
    /// keeps `x`/`P` (the source mirroring a sync it is about to encode)
    /// clones nothing.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn set_state_from(&mut self, x: &Vector, p: &Matrix) -> Result<()> {
        check_state_shape(self.model.state_dim(), x, p)?;
        self.x.copy_from(x);
        self.p.copy_from(p);
        self.steps_since_update = 0;
        Ok(())
    }

    /// [`KalmanFilter::set_state`] straight off the wire: `x` and the
    /// row-major **upper triangle** of `P` (`n(n+1)/2` values, row `i`
    /// contributing columns `i..n` — the sync message's own packing) are
    /// written into the filter's storage, the triangle mirrored to both
    /// halves. Nothing is staged in a `Vector`/`Matrix` on the way.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on length mismatch (the filter is
    /// untouched).
    pub fn set_state_packed(
        &mut self,
        x: impl ExactSizeIterator<Item = f64>,
        p_upper: impl ExactSizeIterator<Item = f64>,
    ) -> Result<()> {
        let n = self.model.state_dim();
        check_packed_lens(n, x.len(), p_upper.len())?;
        for (dst, v) in self.x.as_mut_slice().iter_mut().zip(x) {
            *dst = v;
        }
        let p = self.p.as_mut_slice();
        let mut p_upper = p_upper;
        for r in 0..n {
            for c in r..n {
                let v = p_upper.next().expect("length checked above");
                p[r * n + c] = v;
                p[c * n + r] = v;
            }
        }
        self.steps_since_update = 0;
        Ok(())
    }

    /// Overwrites state, covariance **and** the staleness counter — the
    /// handoff primitive for a stream's state carried elsewhere: a batch
    /// lane handing it back to the stream's own filter at teardown, or a
    /// snapshot restoring an endpoint. Unlike [`KalmanFilter::set_state`]
    /// (a protocol resynchronisation, which legitimately resets cache age
    /// to zero), a handoff must not pretend a measurement arrived, so the
    /// carried `steps_since_update` is kept verbatim.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn restore(&mut self, x: Vector, p: Matrix, steps_since_update: u64) -> Result<()> {
        self.set_state(x, p)?;
        self.steps_since_update = steps_since_update;
        Ok(())
    }

    /// The model as a monomorphized kernel, exact-width or zero-padded
    /// past the model's state dimension (`PAD`). Built per call from the
    /// inline model matrices (a few loads at these sizes) rather than
    /// cached, so an in-place `Q`/`R` replacement can never leave a stale
    /// copy behind and construction and `clone` cost what they did. Only
    /// padded rows pay for run-time loop bounds.
    fn kernel<const N: usize, const M: usize, const PAD: bool>(&self) -> StaticKernel<N, M> {
        let m = &self.model;
        if PAD {
            StaticKernel::from_matrices_padded(m.f(), m.q(), m.h(), m.r())
        } else {
            StaticKernel::from_matrices(m.f(), m.q(), m.h(), m.r())
        }
        .expect("dispatch matched the validated model's shape")
    }

    /// `x` and `P` as kernel arrays, zero past the state dimension when
    /// `PAD`.
    fn load_state<const N: usize, const PAD: bool>(&self) -> ([f64; N], [[f64; N]; N]) {
        let mut p = [[0.0; N]; N];
        if !PAD {
            let x = <[f64; N]>::try_from(self.x.as_slice()).expect("x is n-dimensional");
            p.as_flattened_mut().copy_from_slice(self.p.as_slice());
            return (x, p);
        }
        let n = self.x.dim();
        let mut x = [0.0; N];
        x[..n].copy_from_slice(self.x.as_slice());
        for (row, src) in p.iter_mut().zip(self.p.as_slice().chunks_exact(n)) {
            row[..n].copy_from_slice(src);
        }
        (x, p)
    }

    /// Stores the real `n`-state block of kernel arrays back.
    fn store_state<const N: usize, const PAD: bool>(&mut self, x: &[f64; N], p: &[[f64; N]; N]) {
        if !PAD {
            self.x.as_mut_slice().copy_from_slice(x);
            self.p.as_mut_slice().copy_from_slice(p.as_flattened());
            return;
        }
        let n = self.x.dim();
        self.x.as_mut_slice().copy_from_slice(&x[..n]);
        for (dst, row) in self.p.as_mut_slice().chunks_exact_mut(n).zip(p) {
            dst.copy_from_slice(&row[..n]);
        }
    }

    /// Time update: `x ← F x`, `P ← F P Fᵀ + Q`.
    ///
    /// Allocation-free (see the type docs for the shape dispatch), and
    /// bit-identical to the textbook allocating formulation.
    ///
    /// # Errors
    /// [`FilterError::Diverged`] when the state or covariance leaves finite
    /// range.
    pub fn predict(&mut self) -> Result<()> {
        for_each_shape!(dispatch_by_shape, self, predict_static [] ())
    }

    fn predict_static<const N: usize, const M: usize, const PAD: bool>(&mut self) -> Result<()> {
        let (mut x, mut p) = self.load_state::<N, PAD>();
        self.kernel::<N, M, PAD>().predict(&mut x, &mut p);
        self.store_state::<N, PAD>(&x, &p);
        self.steps_since_update += 1;
        if all_finite(&x, &p) {
            Ok(())
        } else {
            self.check_finite()
        }
    }

    /// The measurement the filter expects right now: `ẑ = H x`.
    ///
    /// The suppression protocol compares this against the true measurement to
    /// decide whether the server's picture is still within the precision
    /// bound.
    pub fn predicted_measurement(&self) -> Vector {
        self.model
            .h()
            .mul_vec(&self.x)
            .expect("validated model: H·x is always well-shaped")
    }

    /// `‖H x − z‖∞`: how far the filter's predicted measurement is from
    /// `z` in the max-norm the precision contract is stated in. Equal, bit
    /// for bit, to `predicted_measurement().max_abs_diff(z)` without
    /// materialising the prediction; `∞` when `z` has the wrong dimension.
    pub fn innovation_norm(&self, z: &Vector) -> f64 {
        let h = self.model.h();
        if z.dim() != h.rows() {
            return f64::INFINITY;
        }
        let x = self.x.as_slice();
        z.iter().enumerate().fold(0.0_f64, |worst, (j, zj)| {
            let mut acc = 0.0;
            for (a, b) in h.row(j).iter().zip(x) {
                acc += a * b;
            }
            worst.max((acc - zj).abs())
        })
    }

    /// Predictive measurement covariance `S = H P Hᵀ + R`.
    pub fn predicted_measurement_cov(&self) -> Matrix {
        let mut s = &self
            .model
            .h()
            .sandwich(&self.p)
            .expect("validated model: H·P·Hᵀ is always well-shaped")
            + self.model.r();
        s.symmetrize_mut();
        s
    }

    /// Diagonal element `j` of [`KalmanFilter::predicted_measurement_cov`]
    /// — `hⱼ P hⱼᵀ + Rⱼⱼ` — bit for bit, without building `H P`, `H P Hᵀ`
    /// or `S`: the same products accumulated in the same order with the
    /// same zero-skips as `sandwich` → `+ R` (symmetrisation never touches
    /// the diagonal). The per-stream variance a query graph reads once per
    /// stream per tick.
    ///
    /// # Panics
    /// Panics when `j` is not a measurement component.
    pub fn predicted_measurement_var(&self, j: usize) -> f64 {
        let h = self.model.h().row(j);
        let n = h.len();
        let p = self.p.as_slice();
        // Row j of H·P, as `matmul` accumulates it.
        let mut hp = [0.0; DIM_CAP];
        let hp = &mut hp[..n];
        for (k, &a) in h.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, b) in hp.iter_mut().zip(&p[k * n..(k + 1) * n]) {
                *o += a * b;
            }
        }
        // Element (j, j) of (H·P)·Hᵀ, as `matmul_transpose_into` does.
        let mut s = 0.0;
        for (&a, &b) in hp.iter().zip(h) {
            if a == 0.0 {
                continue;
            }
            s += a * b;
        }
        s + self.model.r().get(j, j)
    }

    /// Measurement update with observation `z`.
    ///
    /// Uses the innovation form with a Cholesky solve of
    /// `S = H P Hᵀ + R` (never an explicit inverse) and the covariance
    /// formula selected by [`KalmanFilter::set_covariance_update`].
    ///
    /// # Errors
    /// * [`FilterError::BadMeasurement`] on dimension mismatch.
    /// * [`FilterError::Linalg`] when `S` is not positive definite.
    /// * [`FilterError::Diverged`] when the posterior is non-finite.
    ///
    /// Returns the update's NIS and log-likelihood; `ν` and `S` are not
    /// copied out.
    pub fn update(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.update_with(z.as_slice(), |seen| seen.stats)
    }

    /// The measurement update; `read` sees `ν`, `S` and the diagnostics of
    /// a successful update and decides what, if anything, to keep of them.
    pub(crate) fn update_with<T>(
        &mut self,
        z: &[f64],
        read: impl FnOnce(Innovation<'_>) -> T,
    ) -> Result<T> {
        for_each_shape!(dispatch_by_shape, self, update_static [, _] (z, read))
    }

    fn update_static<const N: usize, const M: usize, const PAD: bool, T>(
        &mut self,
        z: &[f64],
        read: impl FnOnce(Innovation<'_>) -> T,
    ) -> Result<T> {
        let (out, r) = self.update_kernel::<N, M, PAD>(z)?;
        Ok(read(Innovation {
            nu: &out.innovation,
            cov: out.innovation_cov.as_flattened(),
            r: r.as_flattened(),
            stats: UpdateStats {
                nis: out.nis,
                log_likelihood: out.log_likelihood,
            },
        }))
    }

    /// The kernel half of [`KalmanFilter::update_static`], apart so that it
    /// is built once per shape rather than once per `read`. Returns the
    /// diagnostics and the `R` the update ran with.
    fn update_kernel<const N: usize, const M: usize, const PAD: bool>(
        &mut self,
        z: &[f64],
    ) -> Result<(StaticUpdateOutcome<M>, [[f64; M]; M])> {
        let z = <[f64; M]>::try_from(z).map_err(|_| FilterError::BadMeasurement {
            expected: M,
            actual: z.len(),
        })?;
        let (mut x, mut p) = self.load_state::<N, PAD>();
        let kernel = self.kernel::<N, M, PAD>();
        // On error nothing has been stored: state and covariance untouched.
        let out = kernel.update_in_form(&mut x, &mut p, &z, self.cov_update)?;
        self.store_state::<N, PAD>(&x, &p);
        self.steps_since_update = 0;
        if !all_finite(&x, &p) {
            self.check_finite()?;
        }
        Ok((out, *kernel.r()))
    }

    /// Convenience: one predict followed by one update.
    ///
    /// # Errors
    /// Propagates errors from [`KalmanFilter::predict`] and
    /// [`KalmanFilter::update`].
    pub fn step(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.predict()?;
        self.update(z)
    }

    /// Non-destructively predicts the measurement `k` steps ahead of the
    /// current state (without noise): returns `H Fᵏ x`.
    ///
    /// # Errors
    /// Propagates shape errors (none expected for a validated model).
    pub fn forecast_measurement(&self, k: u64) -> Result<Vector> {
        let mut x = self.x.clone();
        for _ in 0..k {
            x = self.model.f().mul_vec(&x)?;
        }
        Ok(self.model.h().mul_vec(&x)?)
    }

    fn check_finite(&self) -> Result<()> {
        if !self.x.is_finite() {
            return Err(FilterError::Diverged { what: "state" });
        }
        if !self.p.is_finite() {
            return Err(FilterError::Diverged { what: "covariance" });
        }
        Ok(())
    }
}

/// Whether every value of a static step's output is finite, read off the
/// kernel's own arrays — the values the step just stored, and zero padding
/// — rather than the filter's storage. Only on `false` does the step call
/// [`KalmanFilter::check_finite`], which reads the stored values and builds
/// the `Diverged` error.
fn all_finite<const N: usize>(x: &[f64; N], p: &[[f64; N]; N]) -> bool {
    x.iter().chain(p.as_flattened()).all(|v| v.is_finite())
}

/// The one shape check of every model a filter runs: `n ≥ 1` and
/// `1 ≤ m ≤ 4` (the widest kernel row); `n ≤ 8` holds for every `Matrix`
/// ([`DIM_CAP`]). Exactly the shapes with an exact or a padded kernel row.
fn check_shape(model: &StateModel) -> Result<()> {
    let (n, m) = (model.state_dim(), model.measurement_dim());
    if n == 0 || m == 0 {
        return Err(LinalgError::Empty {
            op: "kalman filter",
        }
        .into());
    }
    if m > MEASUREMENT_CAP {
        return Err(FilterError::DimensionTooLarge {
            what: "measurement",
            dim: m,
            cap: MEASUREMENT_CAP,
        });
    }
    Ok(())
}

/// Shape check shared by every state a filter or a batch lane takes: `x`
/// is `n`-dimensional and `P` is `n × n`.
pub(crate) fn check_state_shape(n: usize, x: &Vector, p: &Matrix) -> Result<()> {
    if x.dim() != n {
        return Err(FilterError::BadModel {
            what: "x0",
            expected: (n, 1),
            actual: (x.dim(), 1),
        });
    }
    if p.shape() != (n, n) {
        return Err(FilterError::BadModel {
            what: "P0",
            expected: (n, n),
            actual: p.shape(),
        });
    }
    Ok(())
}

/// Length check shared by the packed-state setters: `x_len` values of state
/// and the `n(n+1)/2` values of `P`'s upper triangle.
pub(crate) fn check_packed_lens(n: usize, x_len: usize, p_len: usize) -> Result<()> {
    if x_len != n {
        return Err(FilterError::BadModel {
            what: "x0",
            expected: (n, 1),
            actual: (x_len, 1),
        });
    }
    if p_len != n * (n + 1) / 2 {
        return Err(FilterError::BadModel {
            what: "P0 (packed upper triangle)",
            expected: (n * (n + 1) / 2, 1),
            actual: (p_len, 1),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn scalar_walk_filter() -> KalmanFilter {
        let model = models::random_walk(0.01, 0.25);
        KalmanFilter::new(model, Vector::from_slice(&[0.0]), 1.0).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let model = models::random_walk(0.01, 0.25);
        assert!(KalmanFilter::new(model.clone(), Vector::zeros(2), 1.0).is_err());
        assert!(
            KalmanFilter::with_covariance(model, Vector::zeros(1), Matrix::zeros(2, 2)).is_err()
        );
    }

    #[test]
    fn predict_grows_uncertainty() {
        let mut kf = scalar_walk_filter();
        let p0 = kf.covariance().get(0, 0);
        kf.predict().unwrap();
        assert!(kf.covariance().get(0, 0) > p0);
        assert_eq!(kf.steps_since_update(), 1);
    }

    #[test]
    fn update_shrinks_uncertainty_and_moves_state() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        let p_prior = kf.covariance().get(0, 0);
        let out = kf.update(&Vector::from_slice(&[2.0])).unwrap();
        assert!(kf.covariance().get(0, 0) < p_prior);
        assert!(kf.state()[0] > 0.0 && kf.state()[0] < 2.0);
        assert!(out.nis > 0.0);
        assert_eq!(kf.steps_since_update(), 0);
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut kf = scalar_walk_filter();
        for _ in 0..200 {
            kf.step(&Vector::from_slice(&[5.0])).unwrap();
        }
        assert!((kf.state()[0] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn tracks_linear_trend_with_cv_model() {
        let model = models::constant_velocity(1.0, 1e-4, 0.01);
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 10.0).unwrap();
        for t in 0..300 {
            let z = 0.5 * t as f64;
            kf.step(&Vector::from_slice(&[z])).unwrap();
        }
        // velocity component should be ≈ 0.5
        assert!(
            (kf.state()[1] - 0.5).abs() < 0.01,
            "velocity {}",
            kf.state()[1]
        );
    }

    #[test]
    fn joseph_and_simple_agree_numerically_short_run() {
        let model = models::constant_velocity(1.0, 0.01, 0.5);
        let mut a = KalmanFilter::new(model.clone(), Vector::zeros(2), 1.0).unwrap();
        let mut b = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        b.set_covariance_update(CovarianceUpdate::Simple);
        for t in 0..50 {
            let z = Vector::from_slice(&[(t as f64 * 0.1).sin()]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert!(a.state().max_abs_diff(b.state()) < 1e-9);
        assert!(a.covariance().max_abs_diff(b.covariance()) < 1e-9);
    }

    #[test]
    fn update_rejects_wrong_dimension() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        let err = kf.update(&Vector::zeros(2)).unwrap_err();
        assert!(matches!(
            err,
            FilterError::BadMeasurement {
                expected: 1,
                actual: 2
            }
        ));
    }

    #[test]
    fn set_state_resets_cache_age() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        kf.predict().unwrap();
        assert_eq!(kf.steps_since_update(), 2);
        kf.set_state(Vector::from_slice(&[1.0]), Matrix::scalar(1, 0.5))
            .unwrap();
        assert_eq!(kf.steps_since_update(), 0);
        assert_eq!(kf.state()[0], 1.0);
        assert!(kf
            .set_state(Vector::zeros(2), Matrix::scalar(1, 1.0))
            .is_err());
        assert!(kf
            .set_state(Vector::zeros(1), Matrix::scalar(2, 1.0))
            .is_err());
    }

    /// A 2-state model observed through `m` zero rows.
    fn wide_measurement(m: usize) -> StateModel {
        StateModel::new(
            "wide-measurement",
            Matrix::identity(2),
            Matrix::scalar(2, 0.01),
            Matrix::zeros(m, 2),
            Matrix::scalar(m, 0.25),
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_over_cap_dimensions() {
        // Measurement past the widest kernel row.
        for m in MEASUREMENT_CAP + 1..=DIM_CAP {
            let err = KalmanFilter::new(wide_measurement(m), Vector::zeros(2), 1.0).unwrap_err();
            assert_eq!(
                err,
                FilterError::DimensionTooLarge {
                    what: "measurement",
                    dim: m,
                    cap: MEASUREMENT_CAP
                }
            );
        }
        assert!(
            KalmanFilter::new(wide_measurement(MEASUREMENT_CAP), Vector::zeros(2), 1.0).is_ok()
        );
        // No dimension at all.
        let empty = StateModel::new(
            "empty",
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
        )
        .unwrap();
        assert!(matches!(
            KalmanFilter::new(empty, Vector::zeros(0), 1.0),
            Err(FilterError::Linalg(LinalgError::Empty { .. }))
        ));
    }

    #[test]
    fn set_model_rejects_what_construction_rejects() {
        let mut kf = KalmanFilter::new(wide_measurement(1), Vector::zeros(2), 1.0).unwrap();
        kf.predict().unwrap();
        let before = kf.clone();
        for m in MEASUREMENT_CAP + 1..=DIM_CAP {
            assert_eq!(
                kf.set_model(wide_measurement(m)),
                Err(FilterError::DimensionTooLarge {
                    what: "measurement",
                    dim: m,
                    cap: MEASUREMENT_CAP
                })
            );
            assert_eq!(kf.model(), before.model(), "a refused model is not adopted");
        }
        kf.set_model(wide_measurement(MEASUREMENT_CAP)).unwrap();
        kf.update(&Vector::zeros(MEASUREMENT_CAP)).unwrap();
    }

    #[test]
    fn set_state_packed_mirrors_the_upper_triangle() {
        let model = models::constant_velocity(1.0, 0.01, 0.5);
        let mut packed = KalmanFilter::new(model.clone(), Vector::zeros(2), 1.0).unwrap();
        let mut owned = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        packed.predict().unwrap();
        owned.predict().unwrap();
        let (x, p_upper) = ([1.5, -2.5], [1.0, 0.1, 2.0]);
        packed
            .set_state_packed(x.iter().copied(), p_upper.iter().copied())
            .unwrap();
        owned
            .set_state(
                Vector::from_slice(&x),
                Matrix::from_rows(&[&[1.0, 0.1], &[0.1, 2.0]]),
            )
            .unwrap();
        assert_eq!(packed.state(), owned.state());
        assert_eq!(packed.covariance(), owned.covariance());
        assert_eq!(packed.steps_since_update(), 0);
        // Wrong lengths leave the filter untouched.
        assert!(packed
            .set_state_packed([0.0; 3].into_iter(), p_upper.iter().copied())
            .is_err());
        assert!(packed
            .set_state_packed(x.iter().copied(), [0.0; 4].into_iter())
            .is_err());
        assert_eq!(packed.state(), owned.state());
    }

    #[test]
    fn footprint_is_bounded_and_a_padded_clone_replays_identically() {
        // Footprint guard: fleets hold thousands of filters.
        assert!(
            std::mem::size_of::<KalmanFilter>() <= 3072,
            "KalmanFilter grew to {} bytes",
            std::mem::size_of::<KalmanFilter>()
        );
        // A 3-state model is off the shape table: it runs zero-padded.
        let model = models::constant_acceleration(1.0, 0.02, 0.1);
        let mut padded = KalmanFilter::new(model, Vector::zeros(3), 1.0).unwrap();
        padded.step(&Vector::from_slice(&[1.0])).unwrap();
        let mut replica = padded.clone();
        let z = Vector::from_slice(&[0.5]);
        padded.step(&z).unwrap();
        replica.step(&z).unwrap();
        assert_eq!(padded.state(), replica.state());
        assert_eq!(padded.covariance(), replica.covariance());
    }

    /// An `n × m` model with a dense, upper-triangular `F` and a dense `H`
    /// (zeros included, so the zero-skips are exercised).
    fn dense_model(n: usize, m: usize) -> StateModel {
        let mut f = Matrix::identity(n);
        let mut h = Matrix::zeros(m, n);
        for r in 0..n {
            for c in (r + 1)..n {
                f.set(r, c, 0.03 * (1 + r + c) as f64);
            }
        }
        for j in 0..m {
            for k in 0..n {
                if (j + k) % 3 != 2 {
                    h.set(j, k, 1.0 / (1 + j + 2 * k) as f64 - 0.4);
                }
            }
            h.set(j, j, 1.0);
        }
        StateModel::new(
            "dense",
            f,
            Matrix::scalar(n, 0.013),
            h,
            Matrix::scalar(m, 0.37),
        )
        .unwrap()
    }

    #[test]
    fn predicted_measurement_var_equals_the_cov_diagonal_bit_for_bit() {
        // Every table shape plus one off it, a few steps in.
        let shapes = (1..=8usize).flat_map(|n| (1..=n.min(4)).map(move |m| (n, m)));
        for (n, m) in shapes {
            let mut kf = KalmanFilter::new(dense_model(n, m), Vector::filled(n, 0.3), 0.7).unwrap();
            for t in 0..5 {
                kf.predict().unwrap();
                if t % 2 == 0 {
                    kf.update(&Vector::filled(m, 0.1 * t as f64)).unwrap();
                }
                let cov = kf.predicted_measurement_cov();
                for j in 0..m {
                    assert_eq!(
                        kf.predicted_measurement_var(j).to_bits(),
                        cov.get(j, j).to_bits(),
                        "{n}x{m} component {j} tick {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_with_shows_the_textbook_innovation_and_covariance() {
        // What `update_with` hands its reader, bit for bit against the
        // allocating route: `ν = z − H x⁻`, `S = H P⁻ Hᵀ + R` (symmetrised)
        // and the model's `R`. Every row of the shape table runs at its
        // exact width, and 3×2 runs zero-padded on the 4×2 row; both
        // covariance forms, so `P` differs between the runs.
        macro_rules! rows {
            ([] $(($variant:ident, $n:literal, $m:literal)),+) => {
                [$(($n, $m)),+]
            };
        }
        let rows: Vec<(usize, usize)> = for_each_shape!(rows).into();
        assert_eq!(rows.len(), 11);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (n, m) in rows.into_iter().chain([(3, 2)]) {
            for form in [CovarianceUpdate::Joseph, CovarianceUpdate::Simple] {
                let mut kf =
                    KalmanFilter::new(dense_model(n, m), Vector::filled(n, 0.3), 0.7).unwrap();
                kf.set_covariance_update(form);
                for t in 0..20 {
                    kf.predict().unwrap();
                    let z = Vector::from_vec(
                        (0..m)
                            .map(|j| (0.7 * t as f64 + j as f64).sin() * 2.0)
                            .collect(),
                    );
                    let nu = &z - &kf.predicted_measurement();
                    let s = kf.predicted_measurement_cov();
                    let r = kf.model().r().clone();
                    let seen = kf
                        .update_with(z.as_slice(), |seen| {
                            (bits(seen.nu), bits(seen.cov), bits(seen.r))
                        })
                        .unwrap();
                    let want = (bits(nu.as_slice()), bits(s.as_slice()), bits(r.as_slice()));
                    assert_eq!(seen, want, "{n}x{m} {form:?} tick {t}");
                }
            }
        }
    }

    #[test]
    fn restore_preserves_staleness() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        kf.predict().unwrap();
        kf.predict().unwrap();
        let (x, p, steps) = (
            kf.state().clone(),
            kf.covariance().clone(),
            kf.steps_since_update(),
        );
        let mut other = scalar_walk_filter();
        other.restore(x.clone(), p.clone(), steps).unwrap();
        assert_eq!(other.steps_since_update(), 3);
        assert_eq!(other.state(), &x);
        assert_eq!(other.covariance(), &p);
        assert!(other.restore(Vector::zeros(2), p, 1).is_err());
    }

    #[test]
    fn forecast_measurement_composes_f() {
        let model = models::constant_velocity(1.0, 0.0, 0.01);
        let mut kf = KalmanFilter::new(model, Vector::from_slice(&[1.0, 2.0]), 0.1).unwrap();
        // position 1, velocity 2: after 3 steps position = 7.
        let z = kf.forecast_measurement(3).unwrap();
        assert!((z[0] - 7.0).abs() < 1e-12);
        // forecast(0) equals the current predicted measurement.
        assert_eq!(
            kf.forecast_measurement(0).unwrap(),
            kf.predicted_measurement()
        );
        kf.predict().unwrap();
        assert!((kf.predicted_measurement()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn innovation_norm_is_the_max_norm_of_the_prediction_error() {
        let model = models::constant_velocity_2d(1.0, 0.05, 0.5);
        let x = Vector::from_slice(&[1.0, 0.5, 5.0, -0.25]);
        let mut kf = KalmanFilter::new(model, x, 1.0).unwrap();
        kf.predict().unwrap();
        // Predicted measurement (1.5, 4.75): errors 0.5 and 2.0.
        let z = Vector::from_slice(&[2.0, 2.75]);
        assert_eq!(kf.innovation_norm(&z), 2.0);
        assert_eq!(
            kf.innovation_norm(&z),
            kf.predicted_measurement().max_abs_diff(&z)
        );
        assert_eq!(kf.innovation_norm(&Vector::zeros(1)), f64::INFINITY);
    }

    #[test]
    fn clone_replays_identically() {
        // The shadow-filter requirement: a clone fed the same inputs stays
        // bit-identical to the original.
        let mut a = scalar_walk_filter();
        let mut b = a.clone();
        for t in 0..100 {
            let z = Vector::from_slice(&[(t as f64 * 0.3).cos() * 2.0]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert_eq!(a.state(), b.state());
        assert_eq!(a.covariance(), b.covariance());
    }

    #[test]
    fn nis_is_chi_square_scaled_for_consistent_noise() {
        // Feed Gaussian noise of exactly the modelled variance; average NIS
        // should be near the measurement dimension (1.0 here).
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let model = models::random_walk(1e-6, 1.0);
        let mut kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        let mut nis_sum = 0.0;
        let trials = 4000;
        for _ in 0..trials {
            // Box–Muller from uniform draws (rand has no Normal sampler here).
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            let g = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
            let out = kf.step(&Vector::from_slice(&[g])).unwrap();
            nis_sum += out.nis;
        }
        let mean_nis = nis_sum / trials as f64;
        assert!((mean_nis - 1.0).abs() < 0.15, "mean NIS {mean_nis}");
    }

    #[test]
    fn log_likelihood_prefers_matching_model() {
        // A random-walk stream scored under a random-walk model must beat a
        // wildly wrong (huge-R) model on average log-likelihood.
        let good = models::random_walk(0.01, 0.1);
        let bad = good
            .with_measurement_noise(Matrix::scalar(1, 100.0))
            .unwrap();
        let mut kf_good = KalmanFilter::new(good, Vector::zeros(1), 1.0).unwrap();
        let mut kf_bad = KalmanFilter::new(bad, Vector::zeros(1), 1.0).unwrap();
        let mut ll_good = 0.0;
        let mut ll_bad = 0.0;
        for t in 0..200 {
            let z = Vector::from_slice(&[(t as f64 * 0.01).sin() * 0.1]);
            ll_good += kf_good.step(&z).unwrap().log_likelihood;
            ll_bad += kf_bad.step(&z).unwrap().log_likelihood;
        }
        assert!(ll_good > ll_bad);
    }
}
