//! The discrete linear Kalman filter.

use std::fmt;

use kalstream_linalg::{Cholesky, Matrix, StaticKernel, Vector};

use crate::dispatch::for_each_shape;
use crate::{FilterError, Result, StateModel};

/// Routes one filter operation by shape: `$static_fn::<N, M, …>` for the
/// `(state_dim, measurement_dim)` pairs of the workspace shape table
/// (`for_each_shape!`), `$dynamic_fn` for everything else. `$infer` is the
/// bracketed tail of the turbofish (`[, _]` per further type parameter).
macro_rules! dispatch_by_shape {
    ([$kf:ident, $static_fn:ident $infer:tt, $dynamic_fn:ident $args:tt]
     $(($variant:ident, $n:literal, $m:literal)),+) => {
        match $kf.static_shape() {
            $(Some(($n, $m)) => call_static!($kf, $static_fn, $n, $m, $infer, $args),)+
            _ => $kf.$dynamic_fn $args,
        }
    };
}

macro_rules! call_static {
    ($kf:ident, $static_fn:ident, $n:literal, $m:literal, [$($infer:tt)*], $args:tt) => {
        $kf.$static_fn::<$n, $m $($infer)*> $args
    };
}

/// Reusable working storage for the shape-generic filter route.
///
/// Off the static-kernel shape table, `predict`/`update` write every
/// intermediate (innovation, gain, Joseph terms, Cholesky factor, …) into
/// these buffers through the `*_into` kernels of `kalstream-linalg`, so a
/// steady-state filter tick performs **zero heap allocations** and no
/// redundant zero-fills (the static kernels keep theirs on the stack). A
/// [`KalmanFilter`] boxes one on its first shape-generic step and keeps it —
/// a filter on the static route never has one, so it does not carry (or
/// drag through the cache) 5.9 KB it never touches. The buffers are pure
/// scratch — every field is fully overwritten before it is read, so scratch
/// contents never influence results (cloning a filter drops its scratch for
/// exactly that reason).
pub struct KalmanScratch {
    /// Predicted state `F x`.
    pub(crate) xt: Vector,
    /// Shared intermediate for sandwich products (`F P`, `(I−KH) P`, `K R`).
    pub(crate) tmp: Matrix,
    /// Predicted covariance / left Joseph term.
    pub(crate) pt: Matrix,
    /// Predicted measurement `H x`.
    pub(crate) predicted: Vector,
    /// Innovation `ν = z − H x`.
    pub(crate) innovation: Vector,
    /// Innovation covariance `S`.
    pub(crate) s: Matrix,
    /// Reused Cholesky factorisation of `S`.
    pub(crate) chol: Cholesky,
    /// `H P`.
    pub(crate) hp: Matrix,
    /// `S⁻¹ H P`.
    pub(crate) s_inv_hp: Matrix,
    /// Gain `K`.
    pub(crate) k: Matrix,
    /// State correction `K ν`.
    pub(crate) correction: Vector,
    /// `K H`.
    pub(crate) kh: Matrix,
    /// `I − K H`.
    pub(crate) i_kh: Matrix,
    /// Joseph term `K R Kᵀ`.
    pub(crate) krk: Matrix,
    /// Column scratch for matrix solves.
    pub(crate) col: Vector,
    /// `S⁻¹ ν` for the NIS diagnostic.
    pub(crate) s_inv_nu: Vector,
}

impl KalmanScratch {
    /// Creates empty scratch; buffers grow (inline, stack-backed at Kalman
    /// sizes) on first use.
    pub fn new() -> Self {
        KalmanScratch {
            xt: Vector::zeros(0),
            tmp: Matrix::zeros(0, 0),
            pt: Matrix::zeros(0, 0),
            predicted: Vector::zeros(0),
            innovation: Vector::zeros(0),
            s: Matrix::zeros(0, 0),
            chol: Cholesky::empty(),
            hp: Matrix::zeros(0, 0),
            s_inv_hp: Matrix::zeros(0, 0),
            k: Matrix::zeros(0, 0),
            correction: Vector::zeros(0),
            kh: Matrix::zeros(0, 0),
            i_kh: Matrix::zeros(0, 0),
            krk: Matrix::zeros(0, 0),
            col: Vector::zeros(0),
            s_inv_nu: Vector::zeros(0),
        }
    }
}

impl Default for KalmanScratch {
    fn default() -> Self {
        KalmanScratch::new()
    }
}

impl Clone for KalmanScratch {
    /// Scratch contents never affect results, so a clone starts empty
    /// instead of copying stale buffers.
    fn clone(&self) -> Self {
        KalmanScratch::new()
    }
}

impl fmt::Debug for KalmanScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KalmanScratch { .. }")
    }
}

/// A [`KalmanFilter`]'s scratch slot: empty until the shape-generic route
/// first runs, and empty again in every clone.
#[derive(Default)]
struct LazyScratch(Option<Box<KalmanScratch>>);

impl LazyScratch {
    fn get(&mut self) -> &mut KalmanScratch {
        self.0.get_or_insert_with(Box::default)
    }
}

impl Clone for LazyScratch {
    fn clone(&self) -> Self {
        LazyScratch(None)
    }
}

impl fmt::Debug for LazyScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Scratch(allocated)"
        } else {
            "Scratch(unused)"
        })
    }
}

/// Covariance-update formula used by [`KalmanFilter::update`].
///
/// The *Joseph form* `P = (I-KH) P (I-KH)ᵀ + K R Kᵀ` is algebraically equal
/// to the *simple form* `P = (I-KH) P` but preserves symmetry and positive
/// definiteness under rounding. The simple form exists for the ablation bench
/// (`abl_joseph`): on long suppressed runs it slowly drifts asymmetric and
/// eventually breaks Cholesky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CovarianceUpdate {
    /// Numerically robust Joseph-stabilised update (the default).
    Joseph,
    /// Textbook `(I - K H) P` update; cheaper, numerically fragile.
    Simple,
}

/// Result of a measurement update, exposing the diagnostics that the
/// adaptive layer and the model bank consume.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Innovation `ν = z − H x⁻` (measurement-space prediction error).
    pub innovation: Vector,
    /// Innovation covariance `S = H P⁻ Hᵀ + R`.
    pub innovation_cov: Matrix,
    /// Normalised innovation squared `νᵀ S⁻¹ ν` — chi-square distributed
    /// with `m` degrees of freedom when the model is consistent.
    pub nis: f64,
    /// Gaussian log-likelihood of the measurement under the predictive
    /// distribution `N(Hx⁻, S)` — the model bank's scoring signal.
    pub log_likelihood: f64,
}

/// The scalar half of an [`UpdateOutcome`] — what
/// [`KalmanFilter::update_lean`] returns to callers that do not read `ν`
/// and `S` (the source's per-tick estimator step, the server's measurement
/// syncs), so those are not copied out for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Normalised innovation squared `νᵀ S⁻¹ ν`.
    pub nis: f64,
    /// Gaussian log-likelihood of the measurement under `N(Hx⁻, S)`.
    pub log_likelihood: f64,
}

/// What a measurement update shows its caller before it returns: borrowed
/// from wherever the route that ran keeps them (the static kernel's stack,
/// the shape-generic scratch), so nothing is copied unless the reader
/// copies it. Matrices are row-major `m × m`.
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

impl UpdateOutcome {
    pub(crate) fn copied_from(seen: Innovation<'_>) -> Self {
        let m = seen.nu.len();
        let mut innovation_cov = Matrix::zeros(m, m);
        innovation_cov.as_mut_slice().copy_from_slice(seen.cov);
        UpdateOutcome {
            innovation: Vector::from_slice(seen.nu),
            innovation_cov,
            nis: seen.stats.nis,
            log_likelihood: seen.stats.log_likelihood,
        }
    }
}

/// The discrete linear Kalman filter over a [`StateModel`].
///
/// The filter is `Clone` and bit-deterministic: the stream-source side of the
/// suppression protocol clones the server's filter and replays the exact same
/// operations to know precisely what the server believes. Any hidden state or
/// platform-dependent arithmetic here would silently break the precision
/// guarantee, so the implementation is plain `f64` over `kalstream-linalg`.
///
/// **One kernel for supported shapes.** [`KalmanFilter::predict`] and
/// [`KalmanFilter::update`] step Joseph-form filters whose
/// `(state_dim, measurement_dim)` is in the workspace shape table (state
/// ∈ {1, 2, 4, 8} × measurement ∈ {1..4}, measurement ≤ state — the table
/// [`crate::DynFleetBatch`] is built from) through the monomorphized
/// [`StaticKernel`], which performs the same floating-point operations in
/// the same order as the shape-generic code; every other shape, and the
/// `Simple` covariance form, runs the shape-generic code. The route is a
/// function of the filter's own shape — no caller, flag or feature selects
/// it — and the equivalence proptests hold the two bit-identical for every
/// table shape, error paths included.
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
    /// Reusable buffers of the shape-generic route (see [`KalmanScratch`]).
    scratch: LazyScratch,
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
    /// [`FilterError::BadModel`] when `x0` or `p0` shapes disagree with the
    /// model.
    pub fn with_covariance(model: StateModel, x0: Vector, p0: Matrix) -> Result<Self> {
        let n = model.state_dim();
        let m = model.measurement_dim();
        // Refuse dimensions past the inline-storage cap instead of silently
        // heap-falling-back on every hot-path temporary (DESIGN.md caps the
        // workspace at n ≤ 8; the `linalg.heap_fallbacks` counter guards the
        // invariant at runtime).
        if n > kalstream_linalg::VECTOR_INLINE_CAP {
            return Err(FilterError::DimensionTooLarge {
                what: "state",
                dim: n,
                cap: kalstream_linalg::VECTOR_INLINE_CAP,
            });
        }
        if m > kalstream_linalg::VECTOR_INLINE_CAP {
            return Err(FilterError::DimensionTooLarge {
                what: "measurement",
                dim: m,
                cap: kalstream_linalg::VECTOR_INLINE_CAP,
            });
        }
        if x0.dim() != n {
            return Err(FilterError::BadModel {
                what: "x0",
                expected: (n, 1),
                actual: (x0.dim(), 1),
            });
        }
        if p0.shape() != (n, n) {
            return Err(FilterError::BadModel {
                what: "P0",
                expected: (n, n),
                actual: p0.shape(),
            });
        }
        Ok(KalmanFilter {
            model,
            x: x0,
            p: p0,
            cov_update: CovarianceUpdate::Joseph,
            steps_since_update: 0,
            scratch: LazyScratch::default(),
        })
    }

    /// Selects the covariance-update formula (default: Joseph).
    pub fn set_covariance_update(&mut self, cu: CovarianceUpdate) {
        self.cov_update = cu;
    }

    /// The covariance-update formula currently in effect. The batch
    /// dispatcher reads this: only Joseph-form filters (the default) may be
    /// routed to the [`crate::FleetBatch`] path, which implements Joseph only.
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
    /// [`FilterError::BadModel`] when the new model's state dimension
    /// differs from the current state.
    pub fn set_model(&mut self, model: StateModel) -> Result<()> {
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
        let n = self.model.state_dim();
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
    /// handoff primitive for moving a stream between the scalar and batch
    /// stepping paths. Unlike [`KalmanFilter::set_state`] (a protocol
    /// resynchronisation, which legitimately resets cache age to zero), a
    /// path handoff must not pretend a measurement arrived, so the batch
    /// lane's `steps_since_update` is carried across verbatim.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn restore(&mut self, x: Vector, p: Matrix, steps_since_update: u64) -> Result<()> {
        self.set_state(x, p)?;
        self.steps_since_update = steps_since_update;
        Ok(())
    }

    /// `Some((state_dim, measurement_dim))` when this filter may run on a
    /// [`StaticKernel`]: the kernels implement the Joseph form only, so a
    /// `Simple`-form filter always takes the shape-generic code.
    fn static_shape(&self) -> Option<(usize, usize)> {
        (self.cov_update == CovarianceUpdate::Joseph)
            .then(|| (self.model.state_dim(), self.model.measurement_dim()))
    }

    /// The model as a monomorphized kernel. Built per call from the inline
    /// model matrices (a few loads at these sizes) rather than cached, so
    /// an in-place `Q`/`R` replacement can never leave a stale copy behind
    /// and construction and `clone` cost what they did.
    fn kernel<const N: usize, const M: usize>(&self) -> StaticKernel<N, M> {
        let m = &self.model;
        StaticKernel::from_matrices(m.f(), m.q(), m.h(), m.r())
            .expect("dispatch matched the validated model's shape")
    }

    fn load_state<const N: usize>(&self) -> ([f64; N], [[f64; N]; N]) {
        let x = <[f64; N]>::try_from(self.x.as_slice()).expect("x is n-dimensional");
        let mut p = [[0.0; N]; N];
        p.as_flattened_mut().copy_from_slice(self.p.as_slice());
        (x, p)
    }

    fn store_state<const N: usize>(&mut self, x: &[f64; N], p: &[[f64; N]; N]) {
        self.x.as_mut_slice().copy_from_slice(x);
        self.p.as_mut_slice().copy_from_slice(p.as_flattened());
    }

    /// Time update: `x ← F x`, `P ← F P Fᵀ + Q`.
    ///
    /// Allocation-free on either route (see the type docs for the shape
    /// dispatch), and bit-identical to the textbook allocating formulation.
    ///
    /// # Errors
    /// [`FilterError::Diverged`] when the state or covariance leaves finite
    /// range.
    pub fn predict(&mut self) -> Result<()> {
        for_each_shape!(dispatch_by_shape, self, predict_static [], predict_dynamic())
    }

    fn predict_static<const N: usize, const M: usize>(&mut self) -> Result<()> {
        let (mut x, mut p) = self.load_state::<N>();
        self.kernel::<N, M>().predict(&mut x, &mut p);
        self.store_state(&x, &p);
        self.steps_since_update += 1;
        self.check_finite()
    }

    /// The shape-generic time update: the route [`KalmanFilter::predict`]
    /// takes for shapes outside the table. Public only so the equivalence
    /// proptests can hold the dispatched route against it on the *same*
    /// shape; nothing else calls it.
    ///
    /// # Errors
    /// As [`KalmanFilter::predict`].
    #[doc(hidden)]
    pub fn predict_dynamic(&mut self) -> Result<()> {
        let sc = self.scratch.get();
        let f = self.model.f();
        // x ← F x.
        f.mul_vec_into(&self.x, &mut sc.xt)?;
        self.x.copy_from(&sc.xt);
        // P ← F P Fᵀ + Q.
        f.sandwich_into(&self.p, &mut sc.tmp, &mut sc.pt)?;
        self.p.copy_from(&sc.pt);
        self.p += self.model.q();
        self.p.symmetrize_mut();
        self.steps_since_update += 1;
        self.check_finite()
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
        // Row j of H·P, as `matmul_into` accumulates it.
        let mut hp = [0.0; kalstream_linalg::VECTOR_INLINE_CAP];
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
    pub fn update(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.update_with(z.as_slice(), UpdateOutcome::copied_from)
    }

    /// [`KalmanFilter::update`] for callers that read at most the scalar
    /// diagnostics: the same update, without copying `ν` and `S` out.
    ///
    /// # Errors
    /// As [`KalmanFilter::update`].
    pub fn update_lean(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.update_lean_slice(z.as_slice())
    }

    /// [`KalmanFilter::update_lean`] on a borrowed measurement — what a
    /// Measurement sync applies, without a `Vector` in between.
    ///
    /// # Errors
    /// As [`KalmanFilter::update`].
    pub fn update_lean_slice(&mut self, z: &[f64]) -> Result<UpdateStats> {
        self.update_with(z, |seen| seen.stats)
    }

    /// The measurement update; `read` sees `ν`, `S` and the diagnostics of
    /// a successful update and decides what, if anything, to keep of them.
    pub(crate) fn update_with<T>(
        &mut self,
        z: &[f64],
        read: impl FnOnce(Innovation<'_>) -> T,
    ) -> Result<T> {
        for_each_shape!(
            dispatch_by_shape,
            self,
            update_static [, _],
            update_dynamic_with(z, read)
        )
    }

    fn update_static<const N: usize, const M: usize, T>(
        &mut self,
        z: &[f64],
        read: impl FnOnce(Innovation<'_>) -> T,
    ) -> Result<T> {
        let z = <[f64; M]>::try_from(z).map_err(|_| FilterError::BadMeasurement {
            expected: M,
            actual: z.len(),
        })?;
        let (mut x, mut p) = self.load_state::<N>();
        let kernel = self.kernel::<N, M>();
        // On error nothing has been stored: state and covariance untouched.
        let out = kernel.update(&mut x, &mut p, &z)?;
        self.store_state(&x, &p);
        self.steps_since_update = 0;
        self.check_finite()?;
        Ok(read(Innovation {
            nu: &out.innovation,
            cov: out.innovation_cov.as_flattened(),
            r: kernel.r().as_flattened(),
            stats: UpdateStats {
                nis: out.nis,
                log_likelihood: out.log_likelihood,
            },
        }))
    }

    /// The shape-generic measurement update: the route
    /// [`KalmanFilter::update`] takes for shapes outside the table and for
    /// the `Simple` covariance form. Public only so the equivalence
    /// proptests can hold the dispatched route against it on the *same*
    /// shape; nothing else calls it.
    ///
    /// # Errors
    /// As [`KalmanFilter::update`].
    #[doc(hidden)]
    pub fn update_dynamic(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.update_dynamic_with(z.as_slice(), UpdateOutcome::copied_from)
    }

    fn update_dynamic_with<T>(
        &mut self,
        z: &[f64],
        read: impl FnOnce(Innovation<'_>) -> T,
    ) -> Result<T> {
        let m = self.model.measurement_dim();
        if z.len() != m {
            return Err(FilterError::BadMeasurement {
                expected: m,
                actual: z.len(),
            });
        }
        let sc = self.scratch.get();
        let h = self.model.h();
        // Innovation ν = z − H x.
        h.mul_vec_into(&self.x, &mut sc.predicted)?;
        sc.innovation.copy_from_slice(z);
        sc.innovation -= &sc.predicted;
        // S = H P Hᵀ + R.
        h.sandwich_into(&self.p, &mut sc.tmp, &mut sc.s)?;
        sc.s += self.model.r();
        sc.s.symmetrize_mut();
        sc.chol.refactor(&sc.s)?;
        // Gain K = P Hᵀ S⁻¹, computed as (S⁻¹ H P)ᵀ via solves.
        h.matmul_into(&self.p, &mut sc.hp)?; // m × n
        sc.chol
            .solve_mat_into(&sc.hp, &mut sc.col, &mut sc.s_inv_hp)?; // m × n
        sc.s_inv_hp.transpose_into(&mut sc.k); // n × m
                                               // State: x ← x + K ν.
        sc.k.mul_vec_into(&sc.innovation, &mut sc.correction)?;
        self.x += &sc.correction;
        // Covariance.
        let n = self.model.state_dim();
        sc.k.matmul_into(h, &mut sc.kh)?;
        sc.i_kh.resize_identity(n);
        sc.i_kh -= &sc.kh;
        match self.cov_update {
            CovarianceUpdate::Joseph => {
                sc.i_kh.sandwich_into(&self.p, &mut sc.tmp, &mut sc.pt)?;
                sc.k.matmul_into(self.model.r(), &mut sc.tmp)?;
                sc.tmp.matmul_transpose_into(&sc.k, &mut sc.krk)?;
                self.p.copy_from(&sc.pt);
                self.p += &sc.krk;
            }
            CovarianceUpdate::Simple => {
                sc.i_kh.matmul_into(&self.p, &mut sc.pt)?;
                self.p.copy_from(&sc.pt);
            }
        }
        self.p.symmetrize_mut();
        self.steps_since_update = 0;
        self.check_finite()?;

        // Diagnostics: NIS = νᵀ S⁻¹ ν and Gaussian log-likelihood.
        let sc = self.scratch.get();
        sc.chol.solve_vec_into(&sc.innovation, &mut sc.s_inv_nu)?;
        let nis = sc.innovation.dot(&sc.s_inv_nu)?;
        let log_likelihood =
            -0.5 * (nis + sc.chol.log_det() + (m as f64) * core::f64::consts::TAU.ln());
        Ok(read(Innovation {
            nu: sc.innovation.as_slice(),
            cov: sc.s.as_slice(),
            r: self.model.r().as_slice(),
            stats: UpdateStats {
                nis,
                log_likelihood,
            },
        }))
    }

    /// Convenience: one predict followed by one update.
    ///
    /// # Errors
    /// Propagates errors from [`KalmanFilter::predict`] and
    /// [`KalmanFilter::update`].
    pub fn step(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.predict()?;
        self.update(z)
    }

    /// [`KalmanFilter::step`] over [`KalmanFilter::update_lean`].
    ///
    /// # Errors
    /// As [`KalmanFilter::step`].
    pub fn step_lean(&mut self, z: &Vector) -> Result<UpdateStats> {
        self.predict()?;
        self.update_lean(z)
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
        assert_eq!(out.innovation.dim(), 1);
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

    #[test]
    fn construction_rejects_over_cap_dimensions() {
        use kalstream_linalg::VECTOR_INLINE_CAP;
        let n = VECTOR_INLINE_CAP + 1;
        // n-state random walk observed in full: both dims over cap.
        let model = StateModel::new(
            "over-cap",
            Matrix::identity(n),
            Matrix::scalar(n, 0.01),
            Matrix::identity(n),
            Matrix::scalar(n, 0.25),
        )
        .unwrap();
        let err = KalmanFilter::new(model, Vector::zeros(n), 1.0).unwrap_err();
        assert_eq!(
            err,
            FilterError::DimensionTooLarge {
                what: "state",
                dim: n,
                cap: VECTOR_INLINE_CAP
            }
        );
        // In-cap state, over-cap measurement.
        let model = StateModel::new(
            "wide-measurement",
            Matrix::identity(2),
            Matrix::scalar(2, 0.01),
            Matrix::zeros(n, 2),
            Matrix::scalar(n, 0.25),
        )
        .unwrap();
        let err = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap_err();
        assert_eq!(
            err,
            FilterError::DimensionTooLarge {
                what: "measurement",
                dim: n,
                cap: VECTOR_INLINE_CAP
            }
        );
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
    fn scratch_is_allocated_on_first_generic_use_and_never_cloned() {
        // Footprint guard: the inline scratch made a filter 8.7 KB, most of
        // it never touched on the static route.
        assert!(
            std::mem::size_of::<KalmanFilter>() <= 3072,
            "KalmanFilter grew to {} bytes",
            std::mem::size_of::<KalmanFilter>()
        );
        let mut table = scalar_walk_filter();
        table.step(&Vector::from_slice(&[1.0])).unwrap();
        assert!(table.scratch.0.is_none(), "static route took scratch");
        // A 3-state model is off the shape table.
        let model = models::constant_acceleration(1.0, 0.02, 0.1);
        let mut generic = KalmanFilter::new(model, Vector::zeros(3), 1.0).unwrap();
        assert!(generic.scratch.0.is_none());
        generic.step(&Vector::from_slice(&[1.0])).unwrap();
        assert!(generic.scratch.0.is_some());
        let mut replica = generic.clone();
        assert!(replica.scratch.0.is_none(), "clone copied scratch");
        let z = Vector::from_slice(&[0.5]);
        generic.step(&z).unwrap();
        replica.step(&z).unwrap();
        assert_eq!(generic.state(), replica.state());
        assert_eq!(generic.covariance(), replica.covariance());
    }

    #[test]
    fn predicted_measurement_var_equals_the_cov_diagonal_bit_for_bit() {
        // Every table shape plus one off it, with a dense H (zeros included,
        // so the zero-skips are exercised) and a filter a few steps in.
        let shapes = (1..=8usize).flat_map(|n| (1..=n.min(4)).map(move |m| (n, m)));
        for (n, m) in shapes {
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
            let model = StateModel::new(
                "dense",
                f,
                Matrix::scalar(n, 0.013),
                h,
                Matrix::scalar(m, 0.37),
            )
            .unwrap();
            let mut kf = KalmanFilter::new(model, Vector::filled(n, 0.3), 0.7).unwrap();
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
