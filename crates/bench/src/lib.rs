//! # kalstream-bench
//!
//! The experiment harness behind every figure and table in EXPERIMENTS.md
//! except T4, whose per-operation costs come from the `benchmark/` crate's
//! traced ledger. Nothing in this crate times anything.
//!
//! * [`harness`] — canonical workload presets (one per stream family in the
//!   evaluation), method runners, and δ-sweep drivers. Every experiment
//!   binary builds on these so that methods always face identical data
//!   (same family, same seed) and identical accounting.
//! * [`query_drive`] — the lockstep fleet-under-a-`QueryGraph` loop the
//!   `exp_q*` binaries share.
//! * [`table`] — fixed-width table + CSV emission, so each `exp_*` binary
//!   prints the human-readable rows the paper-style table/figure needs plus
//!   a machine-readable block for plotting.
//!
//! Regenerate everything with:
//!
//! ```text
//! for exp in f1_delta_sweep f2_sinusoid f3_stock f4_gps f5_noise f6_regime \
//!            f7_fleet f8_budget f9_aggregate f10_staleness \
//!            t1_reduction t2_precision t3_bytes ablations; do
//!     cargo run --release -p kalstream-bench --bin exp_$exp
//! done
//! ```

#![warn(missing_docs)]
// deny (not forbid) so alloc_count can opt in for its GlobalAlloc impl.
#![deny(unsafe_code)]

pub mod alloc_count;
pub mod harness;
pub mod metrics_out;
pub mod query_drive;
pub mod regression;
pub mod table;

pub use harness::{make_stream, run_method, sweep_delta, MethodRun, StreamFamily};
pub use metrics_out::MetricsOut;
pub use table::Table;
