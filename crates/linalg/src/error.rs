//! Error type shared by all fallible linear-algebra operations.

use std::fmt;

/// Errors produced by linear-algebra operations.
///
/// All variants carry enough context to diagnose the failing call without a
/// debugger: dimensions for shape errors, the offending pivot index for
/// numerical failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Actual shape of the operand.
        shape: (usize, usize),
    },
    /// Cholesky factorisation hit a non-positive pivot: the matrix is not
    /// positive definite (within tolerance).
    NotPositiveDefinite {
        /// Index of the first failing pivot.
        pivot: usize,
        /// The value found at that pivot after elimination.
        value: f64,
    },
    /// LU factorisation found no usable pivot: the matrix is singular to
    /// working precision.
    Singular {
        /// Index of the column in which no pivot could be found.
        column: usize,
    },
    /// An operation that requires a non-empty operand was given an empty one.
    Empty {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: dimension mismatch, lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(
                    f,
                    "{op}: requires a square matrix, got {}x{}",
                    shape.0, shape.1
                )
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "cholesky: matrix not positive definite (pivot {pivot} = {value:e})"
            ),
            LinalgError::Singular { column } => {
                write!(f, "lu: matrix is singular (no pivot in column {column})")
            }
            LinalgError::Empty { op } => write!(f, "{op}: operand is empty"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (2, 3),
        };
        assert_eq!(
            e.to_string(),
            "matmul: dimension mismatch, lhs is 2x3, rhs is 2x3"
        );
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare {
            op: "cholesky",
            shape: (2, 3),
        };
        assert_eq!(e.to_string(), "cholesky: requires a square matrix, got 2x3");
    }

    #[test]
    fn display_not_positive_definite() {
        let e = LinalgError::NotPositiveDefinite {
            pivot: 1,
            value: -0.5,
        };
        assert!(e.to_string().contains("pivot 1"));
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular { column: 0 };
        assert_eq!(
            e.to_string(),
            "lu: matrix is singular (no pivot in column 0)"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&LinalgError::Empty { op: "norm" });
    }
}
