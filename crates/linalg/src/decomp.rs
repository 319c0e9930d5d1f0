//! Matrix factorisations: Cholesky (SPD) and partially-pivoted LU.
//!
//! Kalman filtering needs exactly two kinds of solves:
//!
//! * **SPD solves** against innovation covariances `S = H P Hᵀ + R` — these go
//!   through [`Cholesky`], which doubles as the positive-definiteness check
//!   that guards filter health.
//! * **General solves** for occasional non-symmetric systems (the
//!   Yule–Walker fit) — these go through [`Lu`].
//!
//! Both factor once and then solve repeatedly, which is how the filter uses
//! them (one factorisation per measurement update, several solves).

use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky factorisation `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Only the lower triangle of the input is read; the caller is expected to
/// maintain symmetry (the Kalman code re-symmetrises covariances after every
/// update precisely so this assumption holds).
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored as a full matrix with zero upper part.
    l: Matrix,
}

impl Cholesky {
    /// Factors `a`.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] when `a` is rectangular.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is `<= tol`, where
    ///   `tol` scales with the magnitude of the matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "cholesky",
                shape: a.shape(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty { op: "cholesky" });
        }
        // Relative tolerance: a pivot smaller than this fraction of the
        // largest element means "not PD to working precision".
        let tol = 1e-13 * a.norm_inf_elem().max(1.0);
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                d -= ljk * ljk;
            }
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dsqrt = d.sqrt();
            l.set(j, j, dsqrt);
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut v = a.get(i, j);
                for k in 0..j {
                    v -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, v / dsqrt);
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.dim() != self.dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Result<Vector> {
        let mut x = b.clone();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `x` holds `b`, on exit the
    /// solution ([`Cholesky::solve_vec`] delegates here).
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `x.dim() != self.dim()`.
    pub fn solve_in_place(&self, x: &mut Vector) -> Result<()> {
        let n = self.dim();
        if x.dim() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (x.dim(), 1),
            });
        }
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut v = x[i];
            for k in 0..i {
                v -= self.l.get(i, k) * x[k];
            }
            x[i] = v / self.l.get(i, i);
        }
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut v = x[i];
            for k in (i + 1)..n {
                v -= self.l.get(k, i) * x[k];
            }
            x[i] = v / self.l.get(i, i);
        }
        Ok(())
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `B.rows() != self.dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let mut col = b.col(c);
            self.solve_in_place(&mut col)?;
            for r in 0..n {
                out.set(r, c, col[r]);
            }
        }
        Ok(out)
    }

    /// `log(det A)` computed stably from the factor diagonal.
    ///
    /// The textbook filter oracles' Gaussian log-likelihood reads it, where
    /// `det S` itself would underflow for small innovation covariances.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }
}

/// LU factorisation with partial pivoting: `P A = L U`.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed factors: `U` on and above the diagonal, unit-`L` strictly below.
    lu: Matrix,
    /// Row permutation: row `i` of the factorisation came from `perm[i]`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors `a` with partial (row) pivoting.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] when `a` is rectangular.
    /// * [`LinalgError::Singular`] when no acceptable pivot exists.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "lu",
                shape: a.shape(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty { op: "lu" });
        }
        let tol = 1e-14 * a.norm_inf_elem().max(1.0);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Find pivot row.
            let mut piv = k;
            let mut piv_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > piv_val {
                    piv = r;
                    piv_val = v;
                }
            }
            if piv_val <= tol {
                return Err(LinalgError::Singular { column: k });
            }
            if piv != k {
                for c in 0..n {
                    let a = lu.get(k, c);
                    let b = lu.get(piv, c);
                    lu.set(k, c, b);
                    lu.set(piv, c, a);
                }
                perm.swap(k, piv);
            }
            // Eliminate below.
            let pivot = lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) / pivot;
                lu.set(r, k, factor);
                for c in (k + 1)..n {
                    let v = lu.get(r, c) - factor * lu.get(k, c);
                    lu.set(r, c, v);
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.dim() != self.dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.dim() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.dim(), 1),
            });
        }
        // Apply permutation.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            y[i] = b[self.perm[i]];
        }
        // Forward substitution with unit lower triangle.
        for i in 0..n {
            let mut v = y[i];
            for k in 0..i {
                v -= self.lu.get(i, k) * y[k];
            }
            y[i] = v;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut v = y[i];
            for k in (i + 1)..n {
                v -= self.lu.get(i, k) * y[k];
            }
            y[i] = v / self.lu.get(i, i);
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B is guaranteed SPD; here chosen by hand.
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.5], &[0.5, -0.5, 2.0]])
    }

    #[test]
    fn cholesky_reconstructs_input() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(recon.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn cholesky_solve_matches_direct() {
        let a = spd3();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let x = a.cholesky().unwrap().solve_vec(&b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        assert!(back.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            m.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_rectangular_and_empty() {
        assert!(matches!(
            Matrix::zeros(2, 3).cholesky(),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Matrix::zeros(0, 0).cholesky(),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn cholesky_log_det_is_the_log_of_the_determinant() {
        // det(spd3) = 4·5.75 − 1·2.25 + 0.5·(−2) = 19.75, by cofactors.
        let c = spd3().cholesky().unwrap();
        assert!((c.log_det() - 19.75f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_one_by_one() {
        let a = Matrix::from_rows(&[&[9.0]]);
        let c = a.cholesky().unwrap();
        assert_eq!(c.l().get(0, 0), 3.0);
        let x = c.solve_vec(&Vector::from_slice(&[18.0])).unwrap();
        assert_eq!(x[0], 2.0);
    }

    #[test]
    fn cholesky_in_place_solves_match_allocating() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let x = c.solve_vec(&b).unwrap();

        let mut in_place = b;
        c.solve_in_place(&mut in_place).unwrap();
        assert_eq!(in_place, x);
    }

    #[test]
    fn lu_solve_needs_pivoting() {
        // Zero on the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]);
        let b = Vector::from_slice(&[4.0, 5.0]);
        let x = a.lu().unwrap().solve_vec(&b).unwrap();
        // 2*x1 = 4 -> x1 = 2 ; 3*x0 + x1 = 5 -> x0 = 1.
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_solve_dim_mismatch() {
        let a = Matrix::identity(2);
        let lu = a.lu().unwrap();
        assert!(lu.solve_vec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn cholesky_solve_dim_mismatch() {
        let c = spd3().cholesky().unwrap();
        assert!(c.solve_vec(&Vector::zeros(2)).is_err());
        assert!(c.solve_mat(&Matrix::zeros(2, 2)).is_err());
    }
}
