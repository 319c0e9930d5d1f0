//! Dense row-major `f64` matrix.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

use crate::{Cholesky, LinalgError, Lu, Result, Vector, DIM_CAP};

/// A dense, row-major matrix of `f64` values, at most [`DIM_CAP`] ×
/// [`DIM_CAP`].
///
/// This is the covariance/transition carrier for the Kalman machinery. All
/// binary operators panic on shape mismatch (shape bugs are programming
/// errors); numerically fallible operations ([`Matrix::cholesky`],
/// [`Matrix::lu`]) return [`Result`] instead.
///
/// The elements live in a fixed inline array, so construction, clone and
/// temporaries never allocate. Every constructor panics on a dimension
/// above [`DIM_CAP`]; bytes from outside the program are checked against
/// it where they are decoded, before any `Matrix` is built.
///
/// A filter's step does not run on these products: it runs on
/// [`crate::StaticKernel`], whose fixed-array products replicate
/// [`Matrix::matmul`], [`Matrix::matmul_transpose_into`] and
/// [`Matrix::mul_vec`] operation for operation (zero-skip included), so
/// these are the textbook reference the kernel is held to bit for bit.
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Row-major: element `(r, c)` lives at `r * cols + c`; only the first
    /// `rows * cols` elements are part of the value.
    data: [f64; DIM_CAP * DIM_CAP],
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    /// Panics if `rows` or `cols` exceeds [`DIM_CAP`].
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut m = Matrix {
            rows: 0,
            cols: 0,
            data: [0.0; DIM_CAP * DIM_CAP],
        };
        m.set_shape(rows, cols);
        m
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`DIM_CAP`].
    pub fn identity(n: usize) -> Self {
        Matrix::scalar(n, 1.0)
    }

    /// Creates a diagonal matrix from `diag`.
    ///
    /// # Panics
    /// Panics if `diag` is longer than [`DIM_CAP`].
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Creates an `n × n` scalar matrix `s · I`.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`DIM_CAP`].
    pub fn scalar(n: usize, s: f64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = s;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths, `rows` is empty, or either
    /// dimension exceeds [`DIM_CAP`].
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows given");
        let cols = rows[0].len();
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has inconsistent length");
            m.data[i * cols..(i + 1) * cols].copy_from_slice(r);
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or either dimension exceeds
    /// [`DIM_CAP`].
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_row_major: buffer size mismatch"
        );
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice().copy_from_slice(&data);
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[..self.rows * self.cols]
    }

    /// Mutable view of the row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data[..self.rows * self.cols]
    }

    /// Element access with bounds checking built into the slice indexing.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.as_slice()[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `v`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let i = r * self.cols + c;
        self.as_mut_slice()[i] = v;
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as a new [`Vector`].
    pub fn col(&self, c: usize) -> Vector {
        let mut out = Vector::zeros(self.rows);
        for (r, dst) in out.as_mut_slice().iter_mut().enumerate() {
            *dst = self.get(r, c);
        }
        out
    }

    /// Resizes to `rows × cols` zeros in place.
    ///
    /// # Panics
    /// Panics if `rows` or `cols` exceeds [`DIM_CAP`].
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.set_shape(rows, cols);
        self.as_mut_slice().fill(0.0);
    }

    /// Replaces the contents (shape and elements) with a copy of `other`.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.set_shape(other.rows, other.cols);
        self.as_mut_slice().copy_from_slice(other.as_slice());
    }

    /// Sets the shape, leaving the elements as they lie: the one check of
    /// the cap.
    fn set_shape(&mut self, rows: usize, cols: usize) {
        assert!(
            rows <= DIM_CAP && cols <= DIM_CAP,
            "{rows}x{cols} matrix exceeds DIM_CAP = {DIM_CAP}"
        );
        self.rows = rows;
        self.cols = cols;
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self · rhs` with explicit shape checking. Terms with
    /// a zero left factor are skipped.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = &mut out.as_mut_slice()[r * rhs.cols..(r + 1) * rhs.cols];
                for (o, b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Product with a transposed right-hand side, `self · rhsᵀ`, written
    /// into `out` without materialising the transpose. Bit-identical to
    /// `self.matmul(&rhs.transpose())`: the accumulation at each output
    /// element visits `k` in the same order with the same zero-skip.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `self.cols != rhs.cols`.
    pub fn matmul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: (rhs.cols, rhs.rows),
            });
        }
        out.resize_zeroed(self.rows, rhs.rows);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                // rhsᵀ row k is rhs column k: rhsᵀ(k, c) = rhs(c, k).
                let out_row = &mut out.as_mut_slice()[r * rhs.rows..(r + 1) * rhs.rows];
                for (c, o) in out_row.iter_mut().enumerate() {
                    *o += a * rhs.get(c, k);
                }
            }
        }
        Ok(())
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `self.cols != v.dim()`.
    pub fn mul_vec(&self, v: &Vector) -> Result<Vector> {
        if self.cols != v.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                lhs: self.shape(),
                rhs: (v.dim(), 1),
            });
        }
        let mut out = Vector::zeros(self.rows);
        for (r, d) in out.as_mut_slice().iter_mut().enumerate() {
            let mut acc = 0.0;
            for (a, b) in self.row(r).iter().zip(v.iter()) {
                acc += a * b;
            }
            *d = acc;
        }
        Ok(out)
    }

    /// `self · rhs · selfᵀ` — the covariance propagation shape `F P Fᵀ`.
    ///
    /// # Errors
    /// Propagates shape mismatches from the underlying products.
    pub fn sandwich(&self, inner: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul(inner)?.matmul_transpose_into(self, &mut out)?;
        Ok(out)
    }

    /// Elementwise scaling in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in self.as_mut_slice() {
            *v *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (o, v) in out.as_mut_slice().iter_mut().zip(self.as_slice()) {
            *o = v * s;
        }
        out
    }

    /// In-place `self += alpha * other` (matrix `axpy`).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Forces exact symmetry by averaging with the transpose, in place.
    ///
    /// Kalman covariance updates accumulate tiny asymmetries; the dual-filter
    /// protocol re-symmetrises after every update so that source and server
    /// stay bit-identical and Cholesky stays happy.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square(), "symmetrize: requires square matrix");
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = 0.5 * (self.get(r, c) + self.get(c, r));
                self.set(r, c, avg);
                self.set(c, r, avg);
            }
        }
    }

    /// `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite())
    }

    /// Maximum absolute element.
    pub fn norm_inf_elem(&self) -> f64 {
        self.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Maximum absolute elementwise difference from `other`; `INFINITY` on
    /// shape mismatch. Used for approximate comparison in tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.as_slice()
            .iter()
            .zip(other.as_slice().iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Cholesky factorisation `self = L Lᵀ` for symmetric positive-definite
    /// matrices. See [`Cholesky`].
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] or [`LinalgError::NotPositiveDefinite`].
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::new(self)
    }

    /// Partially-pivoted LU factorisation. See [`Lu`].
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn lu(&self) -> Result<Lu> {
        Lu::new(self)
    }
}

impl PartialEq for Matrix {
    /// Value equality: the shapes and the elements of the value, not the
    /// unused tail of the array.
    fn eq(&self, other: &Matrix) -> bool {
        self.shape() == other.shape() && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.as_slice())
            .finish()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.as_slice()[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        let i = r * self.cols + c;
        &mut self.as_mut_slice()[i]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    /// Elementwise sum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    /// Elementwise difference.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix add_assign: shape mismatch"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix sub_assign: shape mismatch"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    /// Matrix product.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch; use [`Matrix::matmul`] for the
    /// fallible form.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix mul: dimension mismatch")
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;
    /// Matrix–vector product.
    ///
    /// # Panics
    /// Panics on dimension mismatch; use [`Matrix::mul_vec`] for the
    /// fallible form.
    fn mul(self, rhs: &Vector) -> Vector {
        self.mul_vec(rhs)
            .expect("matrix-vector mul: dimension mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_diag() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(1, 0), 0.0);
        let s = Matrix::scalar(2, 5.0);
        assert_eq!(s, Matrix::from_diag(&[5.0, 5.0]));
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)).unwrap(), a);
        assert_eq!(Matrix::identity(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_transpose_into_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, -4.0, 1.5]]);
        let b = Matrix::from_rows(&[&[5.0, 0.0, 2.0], &[7.0, 8.0, -1.0]]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transpose_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b.transpose()).unwrap());
    }

    #[test]
    fn mul_vec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.mul_vec(&v).unwrap().as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn sandwich_matches_manual() {
        let f = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let p = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let s = f.sandwich(&p).unwrap();
        let manual = f.matmul(&p).unwrap().matmul(&f.transpose()).unwrap();
        assert_eq!(s, manual);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0 + 1e-9, 3.0]]);
        m.symmetrize_mut();
        assert_eq!(m.get(0, 1), m.get(1, 0));
    }

    #[test]
    fn operators_panic_contract() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        let _ = &a + &b;
        let _ = &a - &b;
        let _ = &a * &b;
    }

    #[test]
    fn assign_operators_and_axpy() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        a += &Matrix::from_rows(&[&[0.5, 0.5]]);
        assert_eq!(a.as_slice(), &[1.5, 2.5]);
        a -= &Matrix::from_rows(&[&[1.0, 1.0]]);
        assert_eq!(a.as_slice(), &[0.5, 1.5]);
        a.axpy(2.0, &Matrix::from_rows(&[&[1.0, -1.0]])).unwrap();
        assert_eq!(a.as_slice(), &[2.5, -0.5]);
        assert!(a.axpy(1.0, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scaled_matrix() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, -6.0]);
    }

    #[test]
    fn resize_and_copy_reuse_storage() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.resize_zeroed(1, 3);
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0]);
        m.copy_from(&Matrix::identity(2));
        assert_eq!(m, Matrix::identity(2));
    }

    #[test]
    fn indexing_tuple() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 4.0;
        assert_eq!(m[(0, 1)], 4.0);
    }

    #[test]
    fn finite_detection() {
        assert!(Matrix::identity(2).is_finite());
        let mut m = Matrix::zeros(1, 1);
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    #[should_panic(expected = "exceeds DIM_CAP")]
    fn a_dimension_past_the_cap_panics() {
        let _ = Matrix::zeros(1, DIM_CAP + 1);
    }

    #[test]
    fn display_rows() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let s = m.to_string();
        assert!(s.contains("[1.000000]"));
        assert!(s.contains("[2.000000]"));
    }
}
