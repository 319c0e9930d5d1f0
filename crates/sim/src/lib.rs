//! # kalstream-sim
//!
//! The discrete-time client/server network substrate the experiments run on.
//!
//! Substitution note (DESIGN.md §2): the paper measured communication
//! overhead on real sensor/stream deployments. The reported metric is
//! *messages (and bytes) on the wire*, which a simulator measures exactly —
//! so this crate provides a deterministic tick-driven simulation of a
//! source→server link with configurable latency, plus the accounting
//! (messages, bytes, server-side error, precision violations) every
//! experiment reports.
//!
//! The simulator knows nothing about Kalman filters: it drives anything that
//! implements the [`Producer`]/[`Consumer`] endpoint traits, which both the
//! suppression protocol (`kalstream-core`) and every baseline
//! (`kalstream-baselines`) implement. That symmetry is what makes the
//! benchmark comparisons fair — every method pays for messages through the
//! same [`Link`] and is scored by the same [`ErrorMetrics`]/[`TrafficMetrics`].
//!
//! The per-tick order of operations is fixed and documented in
//! [`Session::run`]: observe → transmit → deliver → estimate → score. With
//! zero link latency this gives the suppression protocol its precision
//! guarantee (a correction sent at tick *t* is visible to queries at tick
//! *t*); with positive latency, transient violations become measurable —
//! experiment T2 reports both.
//!
//! Beyond per-session runs, [`run_fleet_ingest`] drives many streams
//! against one multiplexed [`IngestSink`] — the server-side **ingest mode**
//! where a whole fleet's traffic converges on a batched, sharded pipeline
//! (implemented in `kalstream-core`, measured by `bench_ingest`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The observability layer every report in this crate exports through.
pub use kalstream_obs as obs;

mod clock;
mod fleet;
mod link;
mod metrics;
mod node;
mod runner;
mod transport;

pub use clock::Tick;
pub use fleet::{
    run_fleet, run_fleet_ingest, run_fleet_ingest_faulty, run_lockstep, run_lockstep_with_crashes,
    BoxedSampler, FleetReport, IngestFleetReport, IngestStream, LoadPhase, LoadSwing,
    LockstepStream, LockstepTick,
};
pub use link::{Link, LinkFaults, Message};
pub use metrics::{DeliveryStats, ErrorMetrics, FaultCounters, SessionReport, TrafficMetrics};
pub use node::{Consumer, Producer};
pub use runner::{ErrorSeries, IngestSink, Session, SessionConfig, TickObserver};
pub use transport::{SimTransport, Transport, TransportStats, ACK_SEED_OFFSET};
