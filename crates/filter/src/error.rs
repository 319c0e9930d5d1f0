//! Error type for filter construction and stepping.

use kalstream_linalg::LinalgError;
use std::fmt;

/// Errors produced while building or running filters.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterError {
    /// A model matrix had the wrong shape for the declared dimensions.
    BadModel {
        /// Which matrix or vector was malformed.
        what: &'static str,
        /// Expected shape `(rows, cols)`.
        expected: (usize, usize),
        /// Actual shape `(rows, cols)`.
        actual: (usize, usize),
    },
    /// A measurement had the wrong dimension.
    BadMeasurement {
        /// Expected measurement dimension.
        expected: usize,
        /// Actual measurement dimension.
        actual: usize,
    },
    /// A filter's measurement dimension exceeds the widest static-kernel
    /// row (4): past it no kernel row, exact or zero-padded, exists, so
    /// construction refuses.
    DimensionTooLarge {
        /// The dimension over cap: "measurement".
        what: &'static str,
        /// The requested dimension.
        dim: usize,
        /// The cap it exceeds.
        cap: usize,
    },
    /// The filter state became non-finite (NaN/inf) — numerical divergence.
    Diverged {
        /// What diverged ("state" or "covariance").
        what: &'static str,
    },
    /// An underlying linear-algebra operation failed (e.g. the innovation
    /// covariance lost positive definiteness).
    Linalg(LinalgError),
    /// A model bank was constructed with no candidate models.
    EmptyBank,
    /// Candidate models in a bank disagree on measurement dimension.
    BankShapeMismatch {
        /// Measurement dimension of the first model.
        first: usize,
        /// Measurement dimension of the offending model.
        offending: usize,
    },
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::BadModel {
                what,
                expected,
                actual,
            } => write!(
                f,
                "bad model: {what} should be {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            FilterError::BadMeasurement { expected, actual } => {
                write!(
                    f,
                    "bad measurement: expected dimension {expected}, got {actual}"
                )
            }
            FilterError::DimensionTooLarge { what, dim, cap } => {
                write!(f, "{what} dimension {dim} exceeds the filter's cap {cap}")
            }
            FilterError::Diverged { what } => {
                write!(f, "filter diverged: {what} is no longer finite")
            }
            FilterError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            FilterError::EmptyBank => write!(f, "model bank has no candidate models"),
            FilterError::BankShapeMismatch { first, offending } => write!(
                f,
                "model bank: measurement dimensions disagree ({first} vs {offending})"
            ),
        }
    }
}

impl std::error::Error for FilterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FilterError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for FilterError {
    fn from(e: LinalgError) -> Self {
        FilterError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = FilterError::BadModel {
            what: "F",
            expected: (2, 2),
            actual: (2, 3),
        };
        assert!(e.to_string().contains("F should be 2x2"));
        let e = FilterError::BadMeasurement {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("expected dimension 1"));
        let e = FilterError::Diverged { what: "state" };
        assert!(e.to_string().contains("diverged"));
        let e = FilterError::DimensionTooLarge {
            what: "measurement",
            dim: 5,
            cap: 4,
        };
        assert!(e
            .to_string()
            .contains("measurement dimension 5 exceeds the filter's cap 4"));
        assert!(FilterError::EmptyBank.to_string().contains("no candidate"));
    }

    #[test]
    fn linalg_error_converts_and_chains() {
        let le = LinalgError::Singular { column: 0 };
        let fe: FilterError = le.clone().into();
        assert_eq!(fe, FilterError::Linalg(le));
        use std::error::Error;
        assert!(fe.source().is_some());
    }
}
