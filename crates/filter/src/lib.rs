//! # kalstream-filter
//!
//! Kalman-filter machinery for adaptive stream resource management.
//!
//! The SIGMOD 2004 insight this workspace reproduces is that *stream resource
//! management is fundamentally a filtering problem*: instead of caching a
//! stale value at the server, cache a **dynamic procedure** — a Kalman filter
//! — that predicts the stream. This crate provides that procedure and all the
//! adaptivity the paper claims:
//!
//! * [`KalmanFilter`] — the discrete linear Kalman filter, with the
//!   numerically robust Joseph-form covariance update (ablation
//!   [`JosephForm`] in the benches).
//! * [`ExtendedKalmanFilter`] — first-order EKF for nonlinear stream
//!   dynamics (e.g. GPS heading models).
//! * [`UnscentedKalmanFilter`] — derivative-free sigma-point filter over
//!   the same [`NonlinearModel`] trait, for models whose Jacobians are
//!   error-prone.
//! * [`AdaptiveKalmanFilter`] — innovation-based online estimation of the
//!   measurement noise `R` and NIS-driven scaling of the process noise `Q`
//!   ("the Kalman Filter has the ability to adapt to ... sensor noise").
//! * [`ModelBank`] — several candidate models filtered in parallel with
//!   likelihood-based switching ("... and time variance").
//! * [`models`] — ready-made state-space models for the stream families in
//!   the evaluation: random walk, constant velocity/acceleration, damped
//!   harmonic oscillation, autoregressive processes.
//!
//! Everything is pure `f64` arithmetic over [`kalstream_linalg`] types, is
//! `Clone`, and is bit-deterministic: given the same inputs, two filter
//! instances produce identical outputs forever. The dual-filter suppression
//! protocol in `kalstream-core` relies on this to keep a *shadow* copy of the
//! server's filter at the stream source.
//!
//! ```
//! use kalstream_filter::{models, KalmanFilter};
//! use kalstream_linalg::Vector;
//!
//! // A random-walk stream observed with measurement noise std 0.5:
//! let model = models::random_walk(0.01, 0.25);
//! let mut kf = KalmanFilter::new(model, Vector::from_slice(&[0.0]), 1.0).unwrap();
//! for z in [0.1, 0.2, 0.15, 0.3] {
//!     kf.predict().unwrap();
//!     kf.update(&Vector::from_slice(&[z])).unwrap();
//! }
//! // The estimate tracks the measurements:
//! assert!((kf.state()[0] - 0.25).abs() < 0.2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod bank;
mod batch;
mod dispatch;
mod ekf;
mod error;
pub mod fit;
mod kalman;
mod model;
pub mod models;
mod smoother;
pub mod stats;
mod ukf;

pub use adaptive::{AdaptiveConfig, AdaptiveKalmanFilter};
pub use bank::{BankConfig, ModelBank};
pub use batch::FleetBatch;
pub use dispatch::DynFleetBatch;
pub use ekf::{ExtendedKalmanFilter, NonlinearModel};
pub use error::FilterError;
pub use kalman::{CovarianceUpdate, KalmanFilter, KalmanScratch, UpdateOutcome, UpdateStats};
pub use model::StateModel;
pub use smoother::{rts_smooth, Smoothed};
pub use ukf::{UkfConfig, UnscentedKalmanFilter};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, FilterError>;

/// Marker re-exported for the Joseph-form ablation bench.
pub use kalman::CovarianceUpdate as JosephForm;
