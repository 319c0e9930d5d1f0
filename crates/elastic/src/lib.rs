//! # kalstream-elastic
//!
//! Closed-loop elastic shard scaling for the ingest pipeline — the paper's
//! "self-managing DBMS" behavior, in the style of DRS-style dynamic
//! resource scheduling for stream systems (Fu et al.).
//!
//! Two layers:
//!
//! * [`ElasticController`] — the pure decision function. It consumes
//!   [`LoadSample`]s (frames offered over a window) and emits
//!   [`Decision`]s: grow, shrink, or hold. A target-utilization band with
//!   hysteresis (2 consecutive samples past a watermark) and a 1-sample
//!   post-action cooldown keeps it from thrashing under sawtooth load. Its
//!   [`ControllerConfig`] is the host's shard range and capacity model;
//!   the band, runs and cooldown are constants.
//! * [`ElasticDriver`] — the barrier hook that closes the loop: lent the
//!   [`kalstream_core::IngestPipeline`] after each tick, it reads the
//!   frames the pipeline's router offered, samples the controller every
//!   [`SAMPLE_EVERY`] ticks, and executes its decisions through
//!   the caller's `reassign` (behind a `kalstream_durable::Durability`
//!   checkpoint when the run is durable) — which quiesces at a tick barrier, so every
//!   resize is provably invisible to filter arithmetic.
//!
//! Determinism: the controller reads nothing but the frames offered per
//! window, so its decisions are a function of the traffic alone — a
//! recorded log replays to the same grows and shrinks, and experiment
//! canaries gate exact decision counts.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod controller;
mod driver;

pub use controller::{ControllerConfig, ControllerStats, Decision, ElasticController, LoadSample};
pub use driver::{ElasticDriver, ResizeEvent, ResizeKind, SAMPLE_EVERY};
