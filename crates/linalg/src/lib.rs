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
//! Every dimension is capped at [`DIM_CAP`] = 8, the workspace's largest
//! filter state (DESIGN.md): a [`Vector`] or [`Matrix`] keeps its elements
//! in a fixed inline array and never touches the heap, and its constructors
//! panic past the cap. Values that arrive from outside the program are
//! checked against the cap where they are decoded. There is one spelling
//! of each product: a Kalman step runs on [`StaticKernel`]'s fixed arrays,
//! and the [`Matrix`]/[`Cholesky`] forms are what its bit-identity contract
//! is stated against.
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
mod vector;

pub use decomp::{Cholesky, Lu};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use static_kernel::{
    cholesky_factor, cholesky_solve_in_place, CovarianceUpdate, Innovation, Lane, Pack,
    StaticKernel, StaticUpdateOutcome,
};
pub use vector::Vector;

/// The largest dimension of any [`Vector`] or [`Matrix`]: a vector holds at
/// most `DIM_CAP` elements and a matrix at most `DIM_CAP` rows and
/// `DIM_CAP` columns, so products and transposes of valid values stay
/// valid. It is the workspace's cap on a filter's state (DESIGN.md §7).
pub const DIM_CAP: usize = 8;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Absolute tolerance used by approximate-equality helpers in tests and by
/// pivot/positivity checks in the decompositions.
pub const EPS: f64 = 1e-12;
