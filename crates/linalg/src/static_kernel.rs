//! Monomorphized const-generic Kalman kernels for the dominant dimensions.
//!
//! The dynamic [`Matrix`]/[`Vector`] path pays for its flexibility on every
//! tick: runtime shape checks, `SmallBuf` enum dispatch, and loop bounds the
//! compiler cannot see through. A fleet of same-model streams spends its
//! whole life at one `(state_dim, measurement_dim)` pair, so this module
//! monomorphizes the predict / update / innovation kernels over
//! `const N, M`: model matrices live in fixed nested arrays
//! (`[[f64; N]; N]`, stable-Rust's spelling of `[f64; N*N]`), every loop has
//! compile-time bounds, and the optimizer fully unrolls and
//! auto-vectorizes the arithmetic.
//!
//! **One step, any width.** The arithmetic is written once, over a
//! [`Lane`]: an `f64` steps one filter, a [`Pack<W>`] steps `W` same-model
//! filters side by side, element by element. Both are instances of the
//! same functions, so a filter in a pack performs the floating-point
//! operations of a filter on its own, in the same order. The one place the
//! widths differ is the zero-skip below; [`Lane::is_zero`] carries the
//! argument that the difference changes no bit.
//!
//! **Bit-identity contract.** Every kernel here performs the *exact*
//! floating-point operations of its dynamic twin in the same order:
//!
//! * products replicate [`Matrix::matmul_into`] / [`Matrix::matmul_transpose_into`]
//!   including their zero-skip (skipping `a == 0.0` terms), and
//!   [`Matrix::mul_vec_into`]'s plain accumulation;
//! * [`StaticKernel::update`] replicates the Joseph-form sequence of
//!   `kalstream-filter`'s `KalmanFilter::update` step for step;
//! * the Cholesky factorisation uses the same relative pivot tolerance
//!   (`1e-13 · max(‖A‖∞, 1)`) and the same forward/back substitution as
//!   [`crate::Cholesky`].
//!
//! A filter stepped through a `StaticKernel` therefore stays bit-identical
//! to one stepped through the dynamic path forever — the property the
//! workspace's equivalence proptests (`tests/batch_equivalence.rs`) pin
//! down, and the property that lets the fleet batch layer in
//! `kalstream-filter` swap paths freely under the suppression protocol's
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
    /// For `f64` this is the dynamic path's `a == 0.0`. A pack skips less
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

/// Diagnostics of one static-kernel measurement update — the same numbers
/// `KalmanFilter::update` reports in its `UpdateOutcome`.
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
/// caller-owned state through predict / Joseph-form update / suppression
/// primitives with no allocation and no runtime shape dispatch. See the
/// module docs for the bit-identity contract with the dynamic path.
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
        let check = |m: &Matrix, rows: usize, cols: usize, op: &'static str| {
            if m.shape() == (rows, cols) {
                Ok(())
            } else {
                Err(LinalgError::DimensionMismatch {
                    op,
                    lhs: (rows, cols),
                    rhs: m.shape(),
                })
            }
        };
        check(f, N, N, "static kernel F")?;
        check(q, N, N, "static kernel Q")?;
        check(h, M, N, "static kernel H")?;
        check(r, M, M, "static kernel R")?;
        let mut k = StaticKernel {
            f: [[0.0; N]; N],
            q: [[0.0; N]; N],
            h: [[0.0; N]; M],
            r: [[0.0; M]; M],
        };
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

    /// Time update: `x ← F x`, `P ← F P Fᵀ + Q`, re-symmetrised — the exact
    /// operation sequence of the dynamic predict step.
    pub fn predict<L: Lane>(&self, x: &mut [L; N], p: &mut [[L; N]; N]) {
        let f = splat(&self.f);
        // x ← F x (plain row-dot accumulation, like `mul_vec_into`).
        *x = mul_vec(&f, x);
        // P ← F P Fᵀ + Q via the same sandwich: F·P then (F·P)·Fᵀ.
        let tmp = matmul(&f, p);
        let mut pt = matmul_transpose(&tmp, &f);
        for row in 0..N {
            for col in 0..N {
                pt[row][col] += L::splat(self.q[row][col]);
            }
        }
        symmetrize(&mut pt);
        *p = pt;
    }

    /// The measurement the state implies right now: `ẑ = H x`.
    pub fn predicted_measurement(&self, x: &[f64; N]) -> [f64; M] {
        mul_vec(&self.h, x)
    }

    /// Joseph-form measurement update with observation `z` — the exact
    /// operation sequence of the dynamic `KalmanFilter::update` (its
    /// default `CovarianceUpdate::Joseph` branch), including diagnostics.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when the innovation covariance
    /// `S = H P Hᵀ + R` fails the Cholesky pivot test. State and covariance
    /// are untouched on error, matching the dynamic path.
    pub fn update(
        &self,
        x: &mut [f64; N],
        p: &mut [[f64; N]; N],
        z: &[f64; M],
    ) -> Result<StaticUpdateOutcome<M>> {
        let (innovation, s, l) = self.update_state(x, p, z)?;
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

    /// The state/covariance half of [`StaticKernel::update`], at any lane
    /// width: everything but the diagnostics, and what those are made of.
    ///
    /// # Errors
    /// As [`StaticKernel::update`]; in a pack, one filter's failed pivot
    /// fails the call ([`Lane::first_at_most`] names it) and leaves every
    /// filter's state and covariance untouched.
    pub fn update_state<L: Lane>(
        &self,
        x: &mut [L; N],
        p: &mut [[L; N]; N],
        z: &[L; M],
    ) -> Result<Innovation<L, M>> {
        let (h, r) = (splat(&self.h), splat(&self.r));
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
        // Covariance (Joseph): P ← (I − KH) P (I − KH)ᵀ + K R Kᵀ.
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
        let mut posterior = matmul_transpose(&tmp, &i_kh);
        let kr = matmul(&k, &r);
        let krk = matmul_transpose(&kr, &k);
        for row in 0..N {
            for col in 0..N {
                posterior[row][col] += krk[row][col];
            }
        }
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

/// `a · b` with the dynamic path's zero-skip on `a`'s elements.
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

/// `a · bᵀ` with the dynamic path's zero-skip on `a`'s elements.
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
/// [`Matrix::mul_vec_into`].
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

/// Cholesky factor `L` of `a`, replicating [`crate::Cholesky::factor_into`]
/// including its relative pivot tolerance.
#[inline(always)]
fn cholesky_factor<L: Lane, const M: usize>(a: &[[L; M]; M]) -> Result<[[L; M]; M]> {
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

/// Forward/back substitution, replicating [`crate::Cholesky::solve_in_place`].
#[inline(always)]
fn cholesky_solve_in_place<L: Lane, const M: usize>(l: &[[L; M]; M], x: &mut [L; M]) {
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
    use crate::{Cholesky, Vector};

    /// A well-conditioned 2-state constant-velocity style model.
    fn cv2() -> (Matrix, Matrix, Matrix, Matrix) {
        let f = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let q = Matrix::from_rows(&[&[0.05, 0.01], &[0.01, 0.05]]);
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        let r = Matrix::from_rows(&[&[0.1]]);
        (f, q, h, r)
    }

    /// Replays the dynamic-path predict (the exact `KalmanFilter::predict`
    /// sequence) on `Matrix`/`Vector` values.
    fn dyn_predict(f: &Matrix, q: &Matrix, x: &mut Vector, p: &mut Matrix) {
        let mut xt = Vector::zeros(0);
        f.mul_vec_into(x, &mut xt).unwrap();
        x.copy_from(&xt);
        let (mut tmp, mut pt) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        f.sandwich_into(p, &mut tmp, &mut pt).unwrap();
        p.copy_from(&pt);
        *p += q;
        p.symmetrize_mut();
    }

    /// Replays the dynamic-path Joseph update on `Matrix`/`Vector` values,
    /// returning (S, nis, log_likelihood).
    fn dyn_update(
        h: &Matrix,
        r: &Matrix,
        x: &mut Vector,
        p: &mut Matrix,
        z: &Vector,
    ) -> (Matrix, f64, f64) {
        let m = h.rows();
        let n = h.cols();
        let mut predicted = Vector::zeros(0);
        h.mul_vec_into(x, &mut predicted).unwrap();
        let mut innovation = z.clone();
        innovation -= &predicted;
        let (mut tmp, mut s) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        h.sandwich_into(p, &mut tmp, &mut s).unwrap();
        s += r;
        s.symmetrize_mut();
        let mut chol = Cholesky::empty();
        chol.refactor(&s).unwrap();
        let mut hp = Matrix::zeros(0, 0);
        h.matmul_into(p, &mut hp).unwrap();
        let (mut col, mut s_inv_hp) = (Vector::zeros(0), Matrix::zeros(0, 0));
        chol.solve_mat_into(&hp, &mut col, &mut s_inv_hp).unwrap();
        let mut k = Matrix::zeros(0, 0);
        s_inv_hp.transpose_into(&mut k);
        let mut correction = Vector::zeros(0);
        k.mul_vec_into(&innovation, &mut correction).unwrap();
        *x += &correction;
        let mut kh = Matrix::zeros(0, 0);
        k.matmul_into(h, &mut kh).unwrap();
        let mut i_kh = Matrix::zeros(0, 0);
        i_kh.resize_identity(n);
        i_kh -= &kh;
        let mut pt = Matrix::zeros(0, 0);
        i_kh.sandwich_into(p, &mut tmp, &mut pt).unwrap();
        k.matmul_into(r, &mut tmp).unwrap();
        let mut krk = Matrix::zeros(0, 0);
        tmp.matmul_transpose_into(&k, &mut krk).unwrap();
        p.copy_from(&pt);
        *p += &krk;
        p.symmetrize_mut();
        let mut s_inv_nu = Vector::zeros(0);
        chol.solve_vec_into(&innovation, &mut s_inv_nu).unwrap();
        let nis = innovation.dot(&s_inv_nu).unwrap();
        let ll = -0.5 * (nis + chol.log_det() + (m as f64) * core::f64::consts::TAU.ln());
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

    #[test]
    fn predict_update_bit_identical_to_dynamic_path() {
        let (f, q, h, r) = cv2();
        let kernel = StaticKernel::<2, 1>::from_matrices(&f, &q, &h, &r).unwrap();

        let mut xs = [0.3, -0.1];
        let mut ps = [[1.0, 0.2], [0.2, 1.5]];
        let mut xd = Vector::from_slice(&xs);
        let mut pd = Matrix::from_rows(&[&ps[0][..], &ps[1][..]]);

        for t in 0..1_000 {
            kernel.predict(&mut xs, &mut ps);
            dyn_predict(&f, &q, &mut xd, &mut pd);
            let z = (t as f64 * 0.13).sin() * 2.0 + (t as f64 * 0.011).cos();
            let out_s = kernel.update(&mut xs, &mut ps, &[z]).unwrap();
            let (s_d, nis_d, ll_d) =
                dyn_update(&h, &r, &mut xd, &mut pd, &Vector::from_slice(&[z]));
            assert_eq!(
                out_s.innovation_cov[0][0].to_bits(),
                s_d.get(0, 0).to_bits(),
                "S tick {t}"
            );
            for i in 0..2 {
                assert_eq!(xs[i].to_bits(), xd[i].to_bits(), "x[{i}] tick {t}");
                for j in 0..2 {
                    assert_eq!(
                        ps[i][j].to_bits(),
                        pd.get(i, j).to_bits(),
                        "P[{i}][{j}] tick {t}"
                    );
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
    fn static_cholesky_matches_dynamic() {
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
    fn static_cholesky_rejects_indefinite_like_dynamic() {
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
                    other => panic!("dynamic path disagreed: {other:?}"),
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
