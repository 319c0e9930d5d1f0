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

use crate::{LinalgError, Matrix, Result};

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
    pub fn predict(&self, x: &mut [f64; N], p: &mut [[f64; N]; N]) {
        // x ← F x (plain row-dot accumulation, like `mul_vec_into`).
        *x = mul_vec(&self.f, x);
        // P ← F P Fᵀ + Q via the same sandwich: F·P then (F·P)·Fᵀ.
        let tmp = matmul(&self.f, p);
        let mut pt = matmul_transpose(&tmp, &self.f);
        for row in 0..N {
            for col in 0..N {
                pt[row][col] += self.q[row][col];
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
        // Innovation ν = z − H x.
        let predicted = mul_vec(&self.h, x);
        let mut innovation = *z;
        for j in 0..M {
            innovation[j] -= predicted[j];
        }
        // S = H P Hᵀ + R, symmetrised.
        let hp = matmul(&self.h, p); // M × N, reused below as the gain's H·P
        let mut s = matmul_transpose(&hp, &self.h);
        for row in 0..M {
            for col in 0..M {
                s[row][col] += self.r[row][col];
            }
        }
        symmetrize(&mut s);
        let l = cholesky_factor(&s)?;
        // Gain K = P Hᵀ S⁻¹, computed as (S⁻¹ H P)ᵀ via per-column solves.
        let mut s_inv_hp = [[0.0; N]; M];
        for c in 0..N {
            let mut col = [0.0; M];
            for row in 0..M {
                col[row] = hp[row][c];
            }
            cholesky_solve_in_place(&l, &mut col);
            for row in 0..M {
                s_inv_hp[row][c] = col[row];
            }
        }
        let mut k = [[0.0; M]; N];
        for row in 0..N {
            for j in 0..M {
                k[row][j] = s_inv_hp[j][row];
            }
        }
        // State: x ← x + K ν.
        let correction = mul_vec(&k, &innovation);
        for row in 0..N {
            x[row] += correction[row];
        }
        // Covariance (Joseph): P ← (I − KH) P (I − KH)ᵀ + K R Kᵀ.
        let kh = matmul(&k, &self.h);
        let mut i_kh = [[0.0; N]; N];
        for row in 0..N {
            i_kh[row][row] = 1.0;
        }
        for row in 0..N {
            for col in 0..N {
                i_kh[row][col] -= kh[row][col];
            }
        }
        let tmp = matmul(&i_kh, p);
        let pt = matmul_transpose(&tmp, &i_kh);
        let kr = matmul(&k, &self.r);
        let krk = matmul_transpose(&kr, &k);
        let mut posterior = pt;
        for row in 0..N {
            for col in 0..N {
                posterior[row][col] += krk[row][col];
            }
        }
        symmetrize(&mut posterior);
        *p = posterior;
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

    /// Max-norm innovation `‖z − H x‖∞` — the norm the suppression
    /// protocol's precision contract is defined in.
    pub fn innovation_norm(&self, x: &[f64; N], z: &[f64; M]) -> f64 {
        let predicted = mul_vec(&self.h, x);
        let mut worst = 0.0f64;
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

/// `a · b` with the dynamic path's zero-skip on `a`'s elements.
#[inline]
fn matmul<const R: usize, const K: usize, const C: usize>(
    a: &[[f64; K]; R],
    b: &[[f64; C]; K],
) -> [[f64; C]; R] {
    let mut out = [[0.0; C]; R];
    for row in 0..R {
        for k in 0..K {
            let av = a[row][k];
            if av == 0.0 {
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
#[inline]
fn matmul_transpose<const R: usize, const K: usize, const C: usize>(
    a: &[[f64; K]; R],
    b: &[[f64; K]; C],
) -> [[f64; C]; R] {
    let mut out = [[0.0; C]; R];
    for row in 0..R {
        for k in 0..K {
            let av = a[row][k];
            if av == 0.0 {
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
#[inline]
fn mul_vec<const R: usize, const K: usize>(a: &[[f64; K]; R], v: &[f64; K]) -> [f64; R] {
    let mut out = [0.0; R];
    for (row, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in 0..K {
            acc += a[row][k] * v[k];
        }
        *o = acc;
    }
    out
}

/// Upper/lower averaging, matching [`Matrix::symmetrize_mut`].
#[inline]
fn symmetrize<const N: usize>(p: &mut [[f64; N]; N]) {
    for row in 0..N {
        for col in (row + 1)..N {
            let avg = 0.5 * (p[row][col] + p[col][row]);
            p[row][col] = avg;
            p[col][row] = avg;
        }
    }
}

/// Cholesky factor `L` of `a`, replicating [`crate::Cholesky::factor_into`]
/// including its relative pivot tolerance.
#[inline]
fn cholesky_factor<const M: usize>(a: &[[f64; M]; M]) -> Result<[[f64; M]; M]> {
    let mut norm = 0.0f64;
    for row in a.iter() {
        for v in row.iter() {
            norm = norm.max(v.abs());
        }
    }
    let tol = 1e-13 * norm.max(1.0);
    let mut l = [[0.0; M]; M];
    for j in 0..M {
        let mut d = a[j][j];
        for k in 0..j {
            let ljk = l[j][k];
            d -= ljk * ljk;
        }
        if d <= tol {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
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
#[inline]
fn cholesky_solve_in_place<const M: usize>(l: &[[f64; M]; M], x: &mut [f64; M]) {
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
