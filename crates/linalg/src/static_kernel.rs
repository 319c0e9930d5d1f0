//! Monomorphized const-generic Kalman kernels: the one place a Kalman step
//! is computed.
//!
//! A fleet of same-model streams spends its whole life at one
//! `(state_dim, measurement_dim)` pair, so this module monomorphizes the
//! predict / update / innovation kernels over `const N, M`: model matrices
//! live in fixed nested arrays (`[[f64; N]; N]`, stable-Rust's spelling of
//! `[f64; N*N]`), every loop has compile-time bounds, and the optimizer
//! fully unrolls and auto-vectorizes the arithmetic.
//!
//! **One step, any width.** The arithmetic is written once, over a
//! [`Lane`]: an `f64` steps one filter, a [`Pack<W>`] steps `W` same-model
//! filters side by side, element by element. Both are instances of the
//! same functions, so a filter in a pack performs the floating-point
//! operations of a filter on its own, in the same order. The one place the
//! widths differ is the zero-skip below; [`Lane::is_zero`] carries the
//! argument that the difference changes no bit.
//!
//! **Any state width up to `N`.** [`StaticKernel::from_matrices_padded`]
//! runs an `n`-state model (`n ≤ N`) at width `N`: `F`, `Q` and `H` get
//! zero rows and columns past `n`, and the caller zero-pads `x` and `P`.
//! Every term a padded index adds to a real entry is either skipped by the
//! products' zero-skip (a padded column of `F`, `H`, `I − KH`, or of the
//! intermediate `F P`, `H P`, `(I − KH) P`, which stay `+0.0`) or a
//! `±0.0` product added to an accumulator that is never `-0.0`, so the
//! real `n × n` block is bit for bit what an exact-width kernel computes,
//! and the pad stays `+0.0`. (Either zero — model or state — carries the
//! argument on its own; the two together keep the pad itself zero. As for
//! [`Lane::is_zero`], it needs finite model matrices and a finite `P`; a
//! filter past that is reported as diverged anyway.)
//!
//! **Bit-identity contract.** Every kernel here performs the *exact*
//! floating-point operations of the textbook formulation over the
//! allocating [`Matrix`] API, in the same order:
//!
//! * products replicate [`Matrix::matmul`] / [`Matrix::matmul_transpose_into`]
//!   including their zero-skip (skipping `a == 0.0` terms), and
//!   [`Matrix::mul_vec`]'s plain accumulation;
//! * [`StaticKernel::update_state`] runs the innovation, gain and state
//!   correction, then `P ← (I − KH) P (I − KH)ᵀ + K R Kᵀ` (Joseph) or
//!   `P ← (I − KH) P` (Simple), re-symmetrised;
//! * the Cholesky factorisation uses the same relative pivot tolerance
//!   (`1e-13 · max(‖A‖∞, 1)`) and the same forward/back substitution as
//!   [`crate::Cholesky`].
//!
//! The workspace's equivalence proptests (`tests/batch_equivalence.rs`)
//! hold `kalstream-filter`'s `KalmanFilter`, this kernel and the fleet
//! batch layer to such a textbook filter bit for bit, which is what lets
//! the batch layer swap paths freely under the suppression protocol's
//! determinism requirement.

// Counted `for i in 0..N` loops are deliberate throughout: they spell out
// the kernel's operation order (the bit-identity contract above) and give
// the vectorizer the compile-time trip counts it unrolls. Iterator
// rewrites obscure both without changing the generated arithmetic.
#![allow(clippy::needless_range_loop)]

use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{LinalgError, Matrix, Result};

/// What the kernel's arithmetic runs over: one filter's number (`f64`) or
/// the same number in `W` filters stepped side by side ([`Pack<W>`]). The
/// operators and `sqrt` / `abs` / `max` act filter by filter, so no
/// filter's value ever depends on a neighbour's.
pub trait Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
    /// `v` in every filter: how the shared model matrices and the
    /// kernel's constants enter the arithmetic.
    fn splat(v: f64) -> Self;

    /// The products' zero-skip test: `true` when **every** filter's value
    /// is `0.0`, so the term `self · b` may be left out of a sum.
    ///
    /// For `f64` this is [`Matrix::matmul`]'s `a == 0.0`. A pack skips less
    /// often — a filter whose value is `±0.0` still adds its term when a
    /// neighbour's is not — and that is bit-neutral for finite data: the
    /// extra term is `±0.0 · b = ±0.0`, the accumulators are never `-0.0`
    /// (they start at `+0.0`, and IEEE-754 round-to-nearest addition only
    /// produces `-0.0` from two negative-signed zeros), and
    /// `acc + ±0.0 == acc` bit for bit for every such `acc`. A splatted
    /// model matrix is uniform, so its skip is exactly the scalar one. (A
    /// filter holding `∞`/NaN can see `0 · ∞`; it is already outside the
    /// contract and is reported as non-finite by the layer above.)
    fn is_zero(self) -> bool;

    /// Square root, filter by filter.
    fn sqrt(self) -> Self;

    /// Absolute value, filter by filter.
    fn abs(self) -> Self;

    /// `f64::max`, filter by filter.
    fn max(self, other: Self) -> Self;

    /// The value of the first filter that is `<= bound` — the Cholesky
    /// pivot test, which fails the whole lane on its first bad filter.
    fn first_at_most(self, bound: Self) -> Option<f64>;
}

impl Lane for f64 {
    #[inline]
    fn splat(v: f64) -> Self {
        v
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == 0.0
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn first_at_most(self, bound: Self) -> Option<f64> {
        (self <= bound).then_some(self)
    }
}

/// One number in each of `W` filters stepped side by side; see [`Lane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pack<const W: usize>(pub [f64; W]);

macro_rules! pack_operator {
    ($op:ident, $method:ident, $assign:tt $(, $op_assign:ident, $method_assign:ident)?) => {
        impl<const W: usize> $op for Pack<W> {
            type Output = Self;
            #[inline]
            fn $method(mut self, other: Self) -> Self {
                for i in 0..W {
                    self.0[i] $assign other.0[i];
                }
                self
            }
        }
        $(impl<const W: usize> $op_assign for Pack<W> {
            #[inline]
            fn $method_assign(&mut self, other: Self) {
                *self = $op::$method(*self, other);
            }
        })?
    };
}
pack_operator!(Add, add, +=, AddAssign, add_assign);
pack_operator!(Sub, sub, -=, SubAssign, sub_assign);
pack_operator!(Mul, mul, *=);
pack_operator!(Div, div, /=);

impl<const W: usize> Lane for Pack<W> {
    #[inline]
    fn splat(v: f64) -> Self {
        Pack([v; W])
    }
    #[inline]
    fn is_zero(self) -> bool {
        self.0.iter().all(|v| *v == 0.0)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Pack(self.0.map(f64::sqrt))
    }
    #[inline]
    fn abs(self) -> Self {
        Pack(self.0.map(f64::abs))
    }
    #[inline]
    fn max(mut self, other: Self) -> Self {
        for i in 0..W {
            self.0[i] = self.0[i].max(other.0[i]);
        }
        self
    }
    #[inline]
    fn first_at_most(self, bound: Self) -> Option<f64> {
        (0..W).find(|&i| self.0[i] <= bound.0[i]).map(|i| self.0[i])
    }
}

/// Covariance-update formula of [`StaticKernel::update_state`].
///
/// The *Joseph form* `P = (I-KH) P (I-KH)ᵀ + K R Kᵀ` is algebraically equal
/// to the *simple form* `P = (I-KH) P` but preserves symmetry and positive
/// definiteness under rounding. The simple form exists for the ablation bench
/// (`abl_joseph`): on long suppressed runs it slowly drifts asymmetric and
/// eventually breaks Cholesky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CovarianceUpdate {
    /// Numerically robust Joseph-stabilised update (the default).
    Joseph,
    /// Textbook `(I - K H) P` update; cheaper, numerically fragile.
    Simple,
}

/// Diagnostics of one static-kernel measurement update — what
/// `KalmanFilter::update` shows its adaptive reader, and whose NIS and
/// log-likelihood it returns as `UpdateStats`.
#[derive(Debug, Clone, Copy)]
pub struct StaticUpdateOutcome<const M: usize> {
    /// Innovation `ν = z − H x⁻`.
    pub innovation: [f64; M],
    /// Innovation covariance `S = H P⁻ Hᵀ + R`, symmetrised.
    pub innovation_cov: [[f64; M]; M],
    /// Normalised innovation squared `νᵀ S⁻¹ ν`.
    pub nis: f64,
    /// Gaussian log-likelihood of `z` under `N(Hx⁻, S)`.
    pub log_likelihood: f64,
}

/// What [`StaticKernel::update_state`] leaves for the diagnostics, at any
/// lane width: the innovation `ν`, its covariance `S` (symmetrised) and
/// `S`'s lower Cholesky factor.
pub type Innovation<L, const M: usize> = ([L; M], [[L; M]; M], [[L; M]; M]);

/// Monomorphized Kalman kernel for an `N`-state / `M`-measurement model.
///
/// Holds the model matrices (`F`, `Q`, `H`, `R`) in fixed arrays and steps
/// caller-owned state through predict / update / suppression primitives
/// with no allocation and no runtime shape dispatch. See the module docs
/// for the bit-identity contract and for zero-padded state widths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticKernel<const N: usize, const M: usize> {
    /// State transition `F` (`N × N`).
    f: [[f64; N]; N],
    /// Process noise `Q` (`N × N`).
    q: [[f64; N]; N],
    /// Measurement matrix `H` (`M × N`).
    h: [[f64; N]; M],
    /// Measurement noise `R` (`M × M`).
    r: [[f64; M]; M],
}

impl<const N: usize, const M: usize> StaticKernel<N, M> {
    /// Builds a kernel from dynamically-shaped model matrices.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when any matrix disagrees with
    /// `(N, M)`, or when `N`/`M` is zero (a filter needs at least one state
    /// and one measurement dimension).
    pub fn from_matrices(f: &Matrix, q: &Matrix, h: &Matrix, r: &Matrix) -> Result<Self> {
        if N == 0 || M == 0 {
            return Err(LinalgError::Empty {
                op: "static kernel",
            });
        }
        check_shapes(f, q, h, r, N, M)?;
        let mut k = StaticKernel::zeroed();
        for row in 0..N {
            for col in 0..N {
                k.f[row][col] = f.get(row, col);
                k.q[row][col] = q.get(row, col);
            }
        }
        for row in 0..M {
            for col in 0..N {
                k.h[row][col] = h.get(row, col);
            }
        }
        for row in 0..M {
            for col in 0..M {
                k.r[row][col] = r.get(row, col);
            }
        }
        Ok(k)
    }

    /// Builds a kernel of width `N` for a model of any state dimension
    /// `1 ≤ n ≤ N`: `F`, `Q` and `H` are zero past `n`, and the caller keeps
    /// the state it steps zero past `n` too (module docs). An exact-width
    /// model (`n = N`) gets the same kernel as from
    /// [`StaticKernel::from_matrices`], through run-time loop bounds.
    ///
    /// # Errors
    /// As [`StaticKernel::from_matrices`], with `n = F.rows()` in place of
    /// `N`, and [`LinalgError::DimensionMismatch`] when `n` is above `N`.
    pub fn from_matrices_padded(f: &Matrix, q: &Matrix, h: &Matrix, r: &Matrix) -> Result<Self> {
        let n = f.rows();
        if n == 0 || M == 0 {
            return Err(LinalgError::Empty {
                op: "static kernel",
            });
        }
        if n > N {
            return Err(LinalgError::DimensionMismatch {
                op: "padded static kernel F",
                lhs: (N, N),
                rhs: f.shape(),
            });
        }
        check_shapes(f, q, h, r, n, M)?;
        let mut k = StaticKernel::zeroed();
        for row in 0..n {
            for col in 0..n {
                k.f[row][col] = f.get(row, col);
                k.q[row][col] = q.get(row, col);
            }
        }
        for row in 0..M {
            for col in 0..n {
                k.h[row][col] = h.get(row, col);
            }
            for col in 0..M {
                k.r[row][col] = r.get(row, col);
            }
        }
        Ok(k)
    }

    fn zeroed() -> Self {
        StaticKernel {
            f: [[0.0; N]; N],
            q: [[0.0; N]; N],
            h: [[0.0; N]; M],
            r: [[0.0; M]; M],
        }
    }

    /// State transition matrix `F`.
    pub fn f(&self) -> &[[f64; N]; N] {
        &self.f
    }

    /// Process noise matrix `Q`.
    pub fn q(&self) -> &[[f64; N]; N] {
        &self.q
    }

    /// Measurement matrix `H`.
    pub fn h(&self) -> &[[f64; N]; M] {
        &self.h
    }

    /// Measurement noise matrix `R`.
    pub fn r(&self) -> &[[f64; M]; M] {
        &self.r
    }

    /// Time update: `x ← F x`, `P ← F P Fᵀ + Q`, re-symmetrised.
    pub fn predict<L: Lane>(&self, x: &mut [L; N], p: &mut [[L; N]; N]) {
        self.predict_with(x, p, &splat(&self.q));
    }

    /// [`StaticKernel::predict`] with the process noise `q` it adds, per
    /// filter: a batch of filters that share `F` but each carry their own
    /// `Q` passes theirs. `Q` enters only as that last sum, so a filter
    /// stepped with its own `Q` here is bit for bit the filter stepped by a
    /// kernel built with that `Q`.
    pub fn predict_with<L: Lane>(&self, x: &mut [L; N], p: &mut [[L; N]; N], q: &[[L; N]; N]) {
        let f = splat(&self.f);
        // x ← F x (plain row-dot accumulation, like `mul_vec`).
        *x = mul_vec(&f, x);
        // P ← F P Fᵀ + Q via the same sandwich: F·P then (F·P)·Fᵀ.
        let tmp = matmul(&f, p);
        let mut pt = matmul_transpose(&tmp, &f);
        for row in 0..N {
            for col in 0..N {
                pt[row][col] += q[row][col];
            }
        }
        symmetrize(&mut pt);
        *p = pt;
    }

    /// The measurement the state implies right now: `ẑ = H x`.
    pub fn predicted_measurement(&self, x: &[f64; N]) -> [f64; M] {
        mul_vec(&self.h, x)
    }

    /// Joseph-form measurement update with observation `z`, including
    /// diagnostics: [`StaticKernel::update_in_form`] with
    /// [`CovarianceUpdate::Joseph`].
    ///
    /// # Errors
    /// As [`StaticKernel::update_in_form`].
    pub fn update(
        &self,
        x: &mut [f64; N],
        p: &mut [[f64; N]; N],
        z: &[f64; M],
    ) -> Result<StaticUpdateOutcome<M>> {
        self.update_in_form(x, p, z, CovarianceUpdate::Joseph)
    }

    /// Measurement update with observation `z` and covariance formula
    /// `form`, including diagnostics — what `KalmanFilter::update` runs.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when the innovation covariance
    /// `S = H P Hᵀ + R` fails the Cholesky pivot test. State and covariance
    /// are untouched on error.
    pub fn update_in_form(
        &self,
        x: &mut [f64; N],
        p: &mut [[f64; N]; N],
        z: &[f64; M],
        form: CovarianceUpdate,
    ) -> Result<StaticUpdateOutcome<M>> {
        let (innovation, s, l) = self.update_state(x, p, z, &self.r, form)?;
        // Diagnostics: NIS = νᵀ S⁻¹ ν and Gaussian log-likelihood.
        let mut s_inv_nu = innovation;
        cholesky_solve_in_place(&l, &mut s_inv_nu);
        let mut nis = 0.0;
        for j in 0..M {
            nis += innovation[j] * s_inv_nu[j];
        }
        let log_det = (0..M).map(|j| l[j][j].ln()).sum::<f64>() * 2.0;
        let log_likelihood = -0.5 * (nis + log_det + (M as f64) * core::f64::consts::TAU.ln());
        Ok(StaticUpdateOutcome {
            innovation,
            innovation_cov: s,
            nis,
            log_likelihood,
        })
    }

    /// The state/covariance half of [`StaticKernel::update_in_form`], at
    /// any lane width, with the measurement noise `r` it runs with (the
    /// kernel's own [`StaticKernel::r`] for a lone filter, each filter's
    /// own in a batch; `R` enters only as sums and as the right factor of
    /// `K R`, whose zero-skip reads `K`): everything but the diagnostics,
    /// and what those are made of. The one body of every update, inlined
    /// so that each caller compiles it at its own width.
    ///
    /// # Errors
    /// As [`StaticKernel::update_in_form`]; in a pack, one filter's failed
    /// pivot fails the call ([`Lane::first_at_most`] names it) and leaves
    /// every filter's state and covariance untouched.
    #[inline(always)]
    pub fn update_state<L: Lane>(
        &self,
        x: &mut [L; N],
        p: &mut [[L; N]; N],
        z: &[L; M],
        r: &[[L; M]; M],
        form: CovarianceUpdate,
    ) -> Result<Innovation<L, M>> {
        let h = splat(&self.h);
        // Innovation ν = z − H x.
        let predicted = mul_vec(&h, x);
        let mut innovation = *z;
        for j in 0..M {
            innovation[j] -= predicted[j];
        }
        // S = H P Hᵀ + R, symmetrised.
        let hp = matmul(&h, p); // M × N, reused below as the gain's H·P
        let mut s = matmul_transpose(&hp, &h);
        for row in 0..M {
            for col in 0..M {
                s[row][col] += r[row][col];
            }
        }
        symmetrize(&mut s);
        let l = cholesky_factor(&s)?;
        // Gain K = P Hᵀ S⁻¹, computed as (S⁻¹ H P)ᵀ via per-column solves.
        let mut k = [[L::splat(0.0); M]; N];
        for c in 0..N {
            let mut col = [L::splat(0.0); M];
            for row in 0..M {
                col[row] = hp[row][c];
            }
            cholesky_solve_in_place(&l, &mut col);
            k[c] = col;
        }
        // State: x ← x + K ν.
        let correction = mul_vec(&k, &innovation);
        for row in 0..N {
            x[row] += correction[row];
        }
        // Covariance: Joseph P ← (I − KH) P (I − KH)ᵀ + K R Kᵀ, or
        // Simple P ← (I − KH) P.
        let kh = matmul(&k, &h);
        let mut i_kh = [[L::splat(0.0); N]; N];
        for row in 0..N {
            i_kh[row][row] = L::splat(1.0);
        }
        for row in 0..N {
            for col in 0..N {
                i_kh[row][col] -= kh[row][col];
            }
        }
        let tmp = matmul(&i_kh, p);
        let mut posterior = match form {
            CovarianceUpdate::Joseph => {
                let mut joseph = matmul_transpose(&tmp, &i_kh);
                let kr = matmul(&k, r);
                let krk = matmul_transpose(&kr, &k);
                for row in 0..N {
                    for col in 0..N {
                        joseph[row][col] += krk[row][col];
                    }
                }
                joseph
            }
            CovarianceUpdate::Simple => tmp,
        };
        symmetrize(&mut posterior);
        *p = posterior;
        Ok((innovation, s, l))
    }

    /// Max-norm innovation `‖z − H x‖∞` — the norm the suppression
    /// protocol's precision contract is defined in.
    pub fn innovation_norm<L: Lane>(&self, x: &[L; N], z: &[L; M]) -> L {
        let predicted = mul_vec(&splat(&self.h), x);
        let mut worst = L::splat(0.0);
        for j in 0..M {
            worst = worst.max((predicted[j] - z[j]).abs());
        }
        worst
    }

    /// Suppression check: `true` when the predicted measurement is within
    /// `delta` of `z` in max-norm (the stream may stay silent).
    pub fn within_bound(&self, x: &[f64; N], z: &[f64; M], delta: f64) -> bool {
        self.innovation_norm(x, z) <= delta
    }
}

/// The shape checks of the two constructors: `F`, `Q` are `n × n`, `H` is
/// `m × n` and `R` is `m × m`.
#[inline]
fn check_shapes(f: &Matrix, q: &Matrix, h: &Matrix, r: &Matrix, n: usize, m: usize) -> Result<()> {
    let check = |mat: &Matrix, rows: usize, cols: usize, op: &'static str| {
        if mat.shape() == (rows, cols) {
            Ok(())
        } else {
            Err(LinalgError::DimensionMismatch {
                op,
                lhs: (rows, cols),
                rhs: mat.shape(),
            })
        }
    };
    check(f, n, n, "static kernel F")?;
    check(q, n, n, "static kernel Q")?;
    check(h, m, n, "static kernel H")?;
    check(r, m, m, "static kernel R")
}

// The helpers below are `inline(always)`: a pack is `W` values wide, and a
// helper left as a call takes and returns its matrices through memory
// instead of registers — measured at half as much again on a 2 × 1 batch
// step (EXPERIMENTS.md T5, PR 22 addendum). The `f64` instances are small
// enough that they were always inlined.

/// A shared model matrix as lanes: the same value in every filter.
#[inline(always)]
fn splat<L: Lane, const R: usize, const C: usize>(m: &[[f64; C]; R]) -> [[L; C]; R] {
    let mut out = [[L::splat(0.0); C]; R];
    for row in 0..R {
        for col in 0..C {
            out[row][col] = L::splat(m[row][col]);
        }
    }
    out
}

/// `a · b` with [`Matrix::matmul`]'s zero-skip on `a`'s elements.
#[inline(always)]
fn matmul<L: Lane, const R: usize, const K: usize, const C: usize>(
    a: &[[L; K]; R],
    b: &[[L; C]; K],
) -> [[L; C]; R] {
    let mut out = [[L::splat(0.0); C]; R];
    for row in 0..R {
        for k in 0..K {
            let av = a[row][k];
            if av.is_zero() {
                continue;
            }
            for col in 0..C {
                out[row][col] += av * b[k][col];
            }
        }
    }
    out
}

/// `a · bᵀ` with [`Matrix::matmul_transpose_into`]'s zero-skip on `a`'s
/// elements.
#[inline(always)]
fn matmul_transpose<L: Lane, const R: usize, const K: usize, const C: usize>(
    a: &[[L; K]; R],
    b: &[[L; K]; C],
) -> [[L; C]; R] {
    let mut out = [[L::splat(0.0); C]; R];
    for row in 0..R {
        for k in 0..K {
            let av = a[row][k];
            if av.is_zero() {
                continue;
            }
            for col in 0..C {
                out[row][col] += av * b[col][k];
            }
        }
    }
    out
}

/// `a · v` with plain row-dot accumulation (no zero-skip), matching
/// [`Matrix::mul_vec`].
#[inline(always)]
fn mul_vec<L: Lane, const R: usize, const K: usize>(a: &[[L; K]; R], v: &[L; K]) -> [L; R] {
    let mut out = [L::splat(0.0); R];
    for (row, o) in out.iter_mut().enumerate() {
        let mut acc = L::splat(0.0);
        for k in 0..K {
            acc += a[row][k] * v[k];
        }
        *o = acc;
    }
    out
}

/// Upper/lower averaging, matching [`Matrix::symmetrize_mut`].
#[inline(always)]
fn symmetrize<L: Lane, const N: usize>(p: &mut [[L; N]; N]) {
    for row in 0..N {
        for col in (row + 1)..N {
            let avg = L::splat(0.5) * (p[row][col] + p[col][row]);
            p[row][col] = avg;
            p[col][row] = avg;
        }
    }
}

/// Cholesky factor `L` of `a`, replicating [`crate::Cholesky::new`]
/// including its relative pivot tolerance, `1e-13 · max(max |aᵢⱼ|, 1)`.
///
/// # Errors
/// [`LinalgError::NotPositiveDefinite`] at the first pivot `d <= tol`, with
/// the pivot's value (the first failing filter's, for a pack).
#[inline(always)]
pub fn cholesky_factor<L: Lane, const M: usize>(a: &[[L; M]; M]) -> Result<[[L; M]; M]> {
    let mut norm = L::splat(0.0);
    for row in a.iter() {
        for v in row.iter() {
            norm = norm.max(v.abs());
        }
    }
    let tol = L::splat(1e-13) * norm.max(L::splat(1.0));
    let mut l = [[L::splat(0.0); M]; M];
    for j in 0..M {
        let mut d = a[j][j];
        for k in 0..j {
            let ljk = l[j][k];
            d -= ljk * ljk;
        }
        if let Some(value) = d.first_at_most(tol) {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value });
        }
        let dsqrt = d.sqrt();
        l[j][j] = dsqrt;
        for i in (j + 1)..M {
            let mut v = a[i][j];
            for k in 0..j {
                v -= l[i][k] * l[j][k];
            }
            l[i][j] = v / dsqrt;
        }
    }
    Ok(l)
}

/// Forward/back substitution, replicating [`crate::Cholesky::solve_in_place`]:
/// solves `L Lᵀ x = b` in place for a factor from [`cholesky_factor`].
#[inline(always)]
pub fn cholesky_solve_in_place<L: Lane, const M: usize>(l: &[[L; M]; M], x: &mut [L; M]) {
    for i in 0..M {
        let mut v = x[i];
        for k in 0..i {
            v -= l[i][k] * x[k];
        }
        x[i] = v / l[i][i];
    }
    for i in (0..M).rev() {
        let mut v = x[i];
        for k in (i + 1)..M {
            v -= l[k][i] * x[k];
        }
        x[i] = v / l[i][i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    /// A well-conditioned 2-state constant-velocity style model.
    fn cv2() -> (Matrix, Matrix, Matrix, Matrix) {
        let f = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let q = Matrix::from_rows(&[&[0.05, 0.01], &[0.01, 0.05]]);
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        let r = Matrix::from_rows(&[&[0.1]]);
        (f, q, h, r)
    }

    /// The textbook predict on `Matrix`/`Vector` values:
    /// `x ← F x`, `P ← F P Fᵀ + Q`, re-symmetrised.
    fn textbook_predict(f: &Matrix, q: &Matrix, x: &mut Vector, p: &mut Matrix) {
        *x = f.mul_vec(x).unwrap();
        *p = &f.sandwich(p).unwrap() + q;
        p.symmetrize_mut();
    }

    /// The textbook update on `Matrix`/`Vector` values, returning
    /// (S, nis, log_likelihood).
    fn textbook_update(
        h: &Matrix,
        r: &Matrix,
        x: &mut Vector,
        p: &mut Matrix,
        z: &Vector,
        form: CovarianceUpdate,
    ) -> (Matrix, f64, f64) {
        let innovation = z - &h.mul_vec(x).unwrap();
        let mut s = &h.sandwich(p).unwrap() + r;
        s.symmetrize_mut();
        let chol = s.cholesky().unwrap();
        // K = P Hᵀ S⁻¹ = (S⁻¹ H P)ᵀ.
        let k = chol.solve_mat(&h.matmul(p).unwrap()).unwrap().transpose();
        *x += &k.mul_vec(&innovation).unwrap();
        let i_kh = &Matrix::identity(h.cols()) - &k.matmul(h).unwrap();
        *p = match form {
            CovarianceUpdate::Joseph => {
                let krk = k.matmul(r).unwrap().matmul(&k.transpose()).unwrap();
                &i_kh.sandwich(p).unwrap() + &krk
            }
            CovarianceUpdate::Simple => i_kh.matmul(p).unwrap(),
        };
        p.symmetrize_mut();
        let nis = innovation
            .dot(&chol.solve_vec(&innovation).unwrap())
            .unwrap();
        let ll = -0.5 * (nis + chol.log_det() + (h.rows() as f64) * core::f64::consts::TAU.ln());
        (s, nis, ll)
    }

    #[test]
    fn from_matrices_validates_shapes() {
        let (f, q, h, r) = cv2();
        assert!(StaticKernel::<2, 1>::from_matrices(&f, &q, &h, &r).is_ok());
        assert!(StaticKernel::<4, 1>::from_matrices(&f, &q, &h, &r).is_err());
        assert!(StaticKernel::<2, 2>::from_matrices(&f, &q, &h, &r).is_err());
        assert!(matches!(
            StaticKernel::<0, 0>::from_matrices(&f, &q, &h, &r),
            Err(LinalgError::Empty { .. })
        ));
    }

    /// Steps `kernel` — the `cv2` model at width `N ≥ 2`, zero-padded past
    /// 2 — beside the textbook filter for 1 000 ticks, comparing the real
    /// block and the diagnostics bit for bit every tick, and checking that
    /// the padding stays zero.
    fn assert_matches_textbook<const N: usize>(
        kernel: &StaticKernel<N, 1>,
        form: CovarianceUpdate,
    ) {
        let (f, q, h, r) = cv2();
        let (mut xs, mut ps) = ([0.0; N], [[0.0; N]; N]);
        xs[..2].copy_from_slice(&[0.3, -0.1]);
        ps[0][..2].copy_from_slice(&[1.0, 0.2]);
        ps[1][..2].copy_from_slice(&[0.2, 1.5]);
        let mut xd = Vector::from_slice(&xs[..2]);
        let mut pd = Matrix::from_rows(&[&ps[0][..2], &ps[1][..2]]);

        for t in 0..1_000 {
            kernel.predict(&mut xs, &mut ps);
            textbook_predict(&f, &q, &mut xd, &mut pd);
            let z = (t as f64 * 0.13).sin() * 2.0 + (t as f64 * 0.011).cos();
            let out_s = kernel.update_in_form(&mut xs, &mut ps, &[z], form).unwrap();
            let (s_d, nis_d, ll_d) =
                textbook_update(&h, &r, &mut xd, &mut pd, &Vector::from_slice(&[z]), form);
            assert_eq!(
                out_s.innovation_cov[0][0].to_bits(),
                s_d.get(0, 0).to_bits(),
                "S tick {t}"
            );
            for i in 0..N {
                let x = if i < 2 { xd[i] } else { 0.0 };
                assert_eq!(xs[i].to_bits(), x.to_bits(), "x[{i}] tick {t}");
                for j in 0..N {
                    let p = if i < 2 && j < 2 { pd.get(i, j) } else { 0.0 };
                    assert_eq!(ps[i][j].to_bits(), p.to_bits(), "P[{i}][{j}] tick {t}");
                }
            }
            assert_eq!(out_s.nis.to_bits(), nis_d.to_bits(), "nis tick {t}");
            assert_eq!(
                out_s.log_likelihood.to_bits(),
                ll_d.to_bits(),
                "log_likelihood tick {t}"
            );
        }
    }

    #[test]
    fn predict_update_bit_identical_to_the_textbook_filter() {
        let (f, q, h, r) = cv2();
        let exact = StaticKernel::<2, 1>::from_matrices(&f, &q, &h, &r).unwrap();
        assert_eq!(
            StaticKernel::<2, 1>::from_matrices_padded(&f, &q, &h, &r).unwrap(),
            exact
        );
        let padded = StaticKernel::<4, 1>::from_matrices_padded(&f, &q, &h, &r).unwrap();
        for form in [CovarianceUpdate::Joseph, CovarianceUpdate::Simple] {
            assert_matches_textbook(&exact, form);
            assert_matches_textbook(&padded, form);
        }
    }

    #[test]
    fn padded_constructor_validates_shapes() {
        let (f, q, h, r) = cv2();
        assert!(matches!(
            StaticKernel::<1, 1>::from_matrices_padded(&f, &q, &h, &r),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(StaticKernel::<4, 2>::from_matrices_padded(&f, &q, &h, &r).is_err());
        assert!(StaticKernel::<4, 1>::from_matrices_padded(&f, &f, &h, &r).is_ok());
        assert!(StaticKernel::<4, 1>::from_matrices_padded(&f, &r, &h, &r).is_err());
        let empty = Matrix::zeros(0, 0);
        assert!(matches!(
            StaticKernel::<4, 1>::from_matrices_padded(&empty, &empty, &Matrix::zeros(1, 0), &r),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn static_cholesky_matches_the_allocating_one() {
        let a = [[4.0, 1.0, 0.5], [1.0, 3.0, -0.5], [0.5, -0.5, 2.0]];
        let l = cholesky_factor(&a).unwrap();
        let ad = Matrix::from_rows(&[&a[0][..], &a[1][..], &a[2][..]]);
        let ld = ad.cholesky().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(l[i][j].to_bits(), ld.l().get(i, j).to_bits());
            }
        }
        let mut x = [1.0, -2.0, 0.5];
        cholesky_solve_in_place(&l, &mut x);
        let xd = ld
            .solve_vec(&Vector::from_slice(&[1.0, -2.0, 0.5]))
            .unwrap();
        for i in 0..3 {
            assert_eq!(x[i].to_bits(), xd[i].to_bits());
        }
    }

    #[test]
    fn static_cholesky_rejects_indefinite_like_the_allocating_one() {
        let a = [[1.0, 2.0], [2.0, 1.0]]; // eigenvalues 3, -1
        match cholesky_factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                let ad = Matrix::from_rows(&[&a[0][..], &a[1][..]]);
                match ad.cholesky() {
                    Err(LinalgError::NotPositiveDefinite {
                        pivot: pd,
                        value: vd,
                    }) => {
                        assert_eq!(pivot, pd);
                        assert_eq!(value.to_bits(), vd.to_bits());
                    }
                    other => panic!("Cholesky::new disagreed: {other:?}"),
                }
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn suppression_check_matches_max_norm() {
        let (f, q, h, r) = cv2();
        let kernel = StaticKernel::<2, 1>::from_matrices(&f, &q, &h, &r).unwrap();
        let x = [1.0, 0.5];
        assert_eq!(kernel.predicted_measurement(&x), [1.0]);
        assert_eq!(kernel.innovation_norm(&x, &[1.25]), 0.25);
        assert!(kernel.within_bound(&x, &[1.25], 0.25));
        assert!(!kernel.within_bound(&x, &[1.25], 0.24));
    }

    #[test]
    fn update_failure_leaves_state_untouched() {
        // R so negative that S = H P Hᵀ + R is indefinite.
        let (f, q, h, _) = cv2();
        let r = Matrix::from_rows(&[&[-100.0]]);
        let kernel = StaticKernel::<2, 1>::from_matrices(&f, &q, &h, &r).unwrap();
        let mut x = [1.0, 0.5];
        let mut p = [[1.0, 0.0], [0.0, 1.0]];
        let (x0, p0) = (x, p);
        assert!(kernel.update(&mut x, &mut p, &[0.0]).is_err());
        assert_eq!(x, x0);
        assert_eq!(p, p0);
    }
}
