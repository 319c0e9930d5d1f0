//! # kalstream-elastic
//!
//! Closed-loop elastic shard scaling for the ingest pipeline — the paper's
//! "self-managing DBMS" behavior, in the style of DRS-style dynamic
//! resource scheduling for stream systems (Fu et al.).
//!
//! Two layers:
//!
//! * [`ElasticController`] — the pure decision function. It consumes
//!   [`LoadSample`]s (offered frames per shard per window, plus live queue
//!   depth / busy-fraction signals when available) and emits
//!   [`Decision`]s: grow, shrink, rebalance, or hold. A target-utilization
//!   band with hysteresis (consecutive-sample runs) and a post-action
//!   cooldown keeps it from thrashing under sawtooth load.
//! * [`ElasticDriver`] — the barrier hook that closes the loop: lent the
//!   [`kalstream_core::IngestPipeline`] after each tick, it reads the
//!   frames the pipeline's router offered each shard, samples the
//!   controller on a cadence, and executes its decisions through
//!   the caller's `reassign` (behind a `kalstream_durable::Durability`
//!   checkpoint when the run is durable) — which quiesces at a tick barrier, so every
//!   resize is provably invisible to filter arithmetic.
//!
//! Determinism: decisions driven purely by offered load are a function of
//! the traffic, so experiment canaries can gate exact decision counts.
//! The queue-depth signal is timing-dependent; drivers that need exact
//! reproducibility disable it via [`ElasticConfig::use_queue_signal`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod controller;
mod driver;

pub use controller::{ControllerConfig, ControllerStats, Decision, ElasticController, LoadSample};
pub use driver::{ElasticConfig, ElasticDriver, ResizeEvent, ResizeKind};
