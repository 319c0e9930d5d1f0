//! Dense `f64` column vector.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::{LinalgError, Result, DIM_CAP};

/// A dense column vector of `f64` values, at most [`DIM_CAP`] long.
///
/// `Vector` is the state/measurement carrier throughout the workspace. It is
/// deterministic and densely stored (no SIMD, no uninitialised memory;
/// element order is the storage order). The elements live in a fixed inline
/// array, so construction, clone and temporaries never allocate; every
/// constructor panics on a length above [`DIM_CAP`].
#[derive(Clone)]
pub struct Vector {
    len: usize,
    /// Only `data[..len]` is part of the value.
    data: [f64; DIM_CAP],
}

impl Vector {
    /// Creates a vector of `dim` zeros.
    ///
    /// # Panics
    /// Panics if `dim` exceeds [`DIM_CAP`].
    pub fn zeros(dim: usize) -> Self {
        let mut v = Vector {
            len: 0,
            data: [0.0; DIM_CAP],
        };
        v.set_len(dim);
        v
    }

    /// Creates a vector with every element equal to `value`.
    ///
    /// # Panics
    /// Panics if `dim` exceeds [`DIM_CAP`].
    pub fn filled(dim: usize, value: f64) -> Self {
        let mut v = Vector::zeros(dim);
        v.as_mut_slice().fill(value);
        v
    }

    /// Creates a vector by copying `slice`.
    ///
    /// # Panics
    /// Panics if `slice` is longer than [`DIM_CAP`].
    pub fn from_slice(slice: &[f64]) -> Self {
        let mut v = Vector::zeros(slice.len());
        v.as_mut_slice().copy_from_slice(slice);
        v
    }

    /// Creates a vector from the elements of `data`.
    ///
    /// # Panics
    /// Panics if `data` is longer than [`DIM_CAP`].
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector::from_slice(&data)
    }

    /// Creates a standard basis vector `e_i` of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut v = Vector::zeros(dim);
        v[i] = 1.0;
        v
    }

    /// Number of elements.
    pub fn dim(&self) -> usize {
        self.len
    }

    /// `true` when the vector has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[..self.len]
    }

    /// Mutable view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data[..self.len]
    }

    /// Consumes the vector and returns the elements as a `Vec`.
    pub fn into_vec(self) -> Vec<f64> {
        self.as_slice().to_vec()
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.as_slice().iter()
    }

    /// Resizes to `dim` zeros in place.
    ///
    /// # Panics
    /// Panics if `dim` exceeds [`DIM_CAP`].
    pub fn resize_zeroed(&mut self, dim: usize) {
        self.set_len(dim);
        self.as_mut_slice().fill(0.0);
    }

    /// Replaces the contents with a copy of `other`.
    pub fn copy_from(&mut self, other: &Vector) {
        self.copy_from_slice(other.as_slice());
    }

    /// Replaces the contents with a copy of `slice`.
    ///
    /// # Panics
    /// Panics if `slice` is longer than [`DIM_CAP`].
    pub fn copy_from_slice(&mut self, slice: &[f64]) {
        self.set_len(slice.len());
        self.as_mut_slice().copy_from_slice(slice);
    }

    /// Sets the length, leaving the elements as they lie: the one check of
    /// the cap.
    fn set_len(&mut self, dim: usize) {
        assert!(
            dim <= DIM_CAP,
            "vector of {dim} exceeds DIM_CAP = {DIM_CAP}"
        );
        self.len = dim;
    }

    /// Dot product `self · other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (self.dim(), 1),
                rhs: (other.dim(), 1),
            });
        }
        Ok(self.iter().zip(other.iter()).map(|(a, b)| a * b).sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute element); `0.0` for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.iter().sum()
    }

    /// Elementwise scaling in place: `self *= s`.
    pub fn scale_mut(&mut self, s: f64) {
        for x in self.as_mut_slice() {
            *x *= s;
        }
    }

    /// Returns `self * s` as a new vector.
    pub fn scaled(&self, s: f64) -> Vector {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: (self.dim(), 1),
                rhs: (other.dim(), 1),
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// `true` when every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference from `other`, used by approximate
    /// comparisons in tests. Returns `f64::INFINITY` for mismatched shapes.
    pub fn max_abs_diff(&self, other: &Vector) -> f64 {
        if self.dim() != other.dim() {
            return f64::INFINITY;
        }
        self.iter()
            .zip(other.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl PartialEq for Vector {
    /// Value equality over the vector's elements, not the unused tail of
    /// the array.
    fn eq(&self, other: &Vector) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vector")
            .field("data", &self.as_slice())
            .finish()
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.as_mut_slice()[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    /// Elementwise sum.
    ///
    /// # Panics
    /// Panics on dimension mismatch; use [`Vector::axpy`] for a fallible API.
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "vector add: dimension mismatch");
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    /// Elementwise difference.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "vector sub: dimension mismatch");
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "vector add_assign: dimension mismatch"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "vector sub_assign: dimension mismatch"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector::from_vec(data)
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(3);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
        let f = Vector::filled(2, 7.5);
        assert_eq!(f.as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn basis_vector() {
        let e1 = Vector::basis(3, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { op: "dot", .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[0.5, -1.0]);
        assert_eq!((&a + &b).as_slice(), &[1.5, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[0.5, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_assign_sub_assign() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        a += &Vector::from_slice(&[2.0, 3.0]);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a -= &Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from_slice(&[1.0, 2.0]);
        a.axpy(0.5, &Vector::from_slice(&[4.0, 8.0])).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn axpy_mismatch_errors() {
        let mut a = Vector::zeros(2);
        assert!(a.axpy(1.0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn indexing() {
        let mut v = Vector::zeros(2);
        v[1] = 9.0;
        assert_eq!(v[1], 9.0);
    }

    #[test]
    fn finite_detection() {
        assert!(Vector::from_slice(&[1.0, -2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn max_abs_diff_shapes() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.max_abs_diff(&Vector::zeros(3)), f64::INFINITY);
    }

    #[test]
    fn display_formats() {
        let v = Vector::from_slice(&[1.0, 2.5]);
        assert_eq!(v.to_string(), "[1.000000, 2.500000]");
    }

    #[test]
    fn sum_elements() {
        assert_eq!(Vector::from_slice(&[1.0, 2.0, 3.5]).sum(), 6.5);
    }

    #[test]
    #[should_panic(expected = "exceeds DIM_CAP")]
    fn a_length_past_the_cap_panics() {
        let _ = Vector::from_slice(&[0.0; DIM_CAP + 1]);
    }

    #[test]
    fn a_shrunk_vector_compares_equal_by_value() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let mut b = Vector::filled(DIM_CAP, 9.0);
        b.resize_zeroed(2);
        b.as_mut_slice().copy_from_slice(&[1.0, 2.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn resize_and_copy_reuse_storage() {
        let mut v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        v.resize_zeroed(2);
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
        v.copy_from(&Vector::from_slice(&[7.0, 8.0, 9.0]));
        assert_eq!(v.as_slice(), &[7.0, 8.0, 9.0]);
        v.copy_from_slice(&[4.0]);
        assert_eq!(v.as_slice(), &[4.0]);
    }
}
