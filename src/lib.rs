//! # kalstream — adaptive stream resource management with Kalman filters
//!
//! Facade crate re-exporting the whole workspace behind one dependency.
//! See the crate-level documentation of each member for details:
//!
//! * [`core`] — the dual-Kalman precision-bounded suppression protocol.
//! * [`filter`] — Kalman filter machinery (KF, adaptive noise, model bank,
//!   model fitting).
//! * [`gen`] — stream generators (synthetic processes and domain traces).
//! * [`sim`] — the discrete-time network simulation substrate.
//! * [`net`] — real TCP transport and the fleet-scale ingest server.
//! * [`durable`] — snapshot + WAL persistence with bit-identical recovery.
//! * [`elastic`] — closed-loop elastic shard scaling for the ingest pipeline.
//! * [`baselines`] — comparator suppression policies.
//! * [`query`] — continuous queries with precision bounds and error budgets.
//! * [`linalg`] — the small dense linear-algebra kernel underneath it all.
//! * [`obs`] — counters, gauges, histograms, and deterministic snapshots.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use kalstream_baselines as baselines;
pub use kalstream_core as core;
pub use kalstream_durable as durable;
pub use kalstream_elastic as elastic;
pub use kalstream_filter as filter;
pub use kalstream_gen as gen;
pub use kalstream_linalg as linalg;
pub use kalstream_net as net;
pub use kalstream_obs as obs;
pub use kalstream_query as query;
pub use kalstream_sim as sim;
