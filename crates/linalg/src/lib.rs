//! # kalstream-linalg
//!
//! A small, dependency-free dense linear-algebra kernel sized for Kalman
//! filtering workloads: state dimensions are tiny (typically 1–8), matrices
//! are dense `f64`, and the operations that matter are matrix products,
//! symmetric-positive-definite solves (via Cholesky) and general solves
//! (via partially-pivoted LU).
//!
//! The crate deliberately avoids generic scalar types, SIMD intrinsics, and
//! expression templates: at Kalman sizes the dominant costs elsewhere in the
//! system (stream generation, simulation bookkeeping) dwarf the arithmetic,
//! and a simple row-major representation keeps the code auditable and the
//! behaviour bit-deterministic across platforms — a hard requirement for
//! the dual-filter suppression protocol in `kalstream-core`, where source and
//! server must compute *identical* predictions from identical inputs. (The
//! one generic in the crate is [`Lane`], and it varies the *width*, not the
//! scalar: [`StaticKernel`]'s step runs over one `f64` or over `W` of them
//! side by side, element by element, so a filter's bits never depend on
//! which.)
//!
//! Storage is **inline-first**: vectors up to [`VECTOR_INLINE_CAP`] elements
//! and matrices up to [`MATRIX_INLINE_CAP`] elements live in fixed stack
//! buffers, so at the workspace's capped state dimension (n ≤ 8, DESIGN.md)
//! the hot path never touches the heap. There is one spelling of each
//! product: a Kalman step runs on [`StaticKernel`]'s fixed arrays, and the
//! allocating [`Matrix`]/[`Cholesky`] forms are what its bit-identity
//! contract is stated against.
//!
//! ## Quick tour
//!
//! ```
//! use kalstream_linalg::{Matrix, Vector};
//!
//! let f = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]); // constant-velocity transition
//! let x = Vector::from_slice(&[2.0, 0.5]);
//! let x_next = &f * &x;
//! assert_eq!(x_next.as_slice(), &[2.5, 0.5]);
//!
//! // SPD solve through Cholesky:
//! let p = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = p.cholesky().unwrap();
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let y = chol.solve_vec(&b).unwrap();
//! let back = &p * &y;
//! assert!((back[0] - 1.0).abs() < 1e-12 && (back[1] - 2.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod decomp;
mod error;
mod matrix;
mod static_kernel;
mod storage;
mod vector;

pub use decomp::{Cholesky, Lu};
pub use error::LinalgError;
pub use matrix::{Matrix, MATRIX_INLINE_CAP};
pub use static_kernel::{
    CovarianceUpdate, Innovation, Lane, Pack, StaticKernel, StaticUpdateOutcome,
};
pub use vector::{Vector, VECTOR_INLINE_CAP};

/// Process-wide count of inline→heap storage fallbacks.
///
/// Each time a [`Vector`] or [`Matrix`] is built with (or grown to) more
/// elements than its inline cap ([`VECTOR_INLINE_CAP`] /
/// [`MATRIX_INLINE_CAP`]), the value silently moves to the heap and this
/// counter increments. On the capped hot path (n ≤ 8) it should stay flat;
/// a drifting value means some call site is running over-cap shapes that the
/// batch dispatcher cannot route to the static kernels. Exported by the
/// bench binaries as the obs counter `linalg.heap_fallbacks`.
pub fn heap_fallbacks() -> u64 {
    storage::heap_fallbacks()
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Absolute tolerance used by approximate-equality helpers in tests and by
/// pivot/positivity checks in the decompositions.
pub const EPS: f64 = 1e-12;
