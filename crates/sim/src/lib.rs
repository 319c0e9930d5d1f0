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
//! # The tick
//!
//! One loop drives N streams, each on its own [`Transport`], against
//! per-stream [`Consumer`]s or one [`IngestSink`] engine: [`Session::run`]
//! (a fleet of one), [`run_lockstep`] (with a per-tick hook),
//! [`run_fleet_ingest`] (**ingest mode**: a fleet into one sharded
//! pipeline) and the `*_over` entries on caller-built links. Each tick:
//!
//! 1. each stream's sampler produces `(observed, truth)`;
//! 2. its producer sees `observed` and may send on the forward link;
//! 3. the link closes its tick ([`Transport::end_tick`]) and delivers what
//!    is due — at zero latency, step 2's send too — to the server side;
//! 4. each consumer estimates, queues feedback and is scored (max-norm)
//!    against `observed` and `truth` — or the engine advances every
//!    endpoint — and the feedback goes on each stream's reverse link;
//! 5. every reverse link delivers what is due to its producer;
//! 6. the entry's hook fires.
//!
//! Steps 1–3 run stream by stream, then 4, then 5 — a reordering across
//! streams only, which share no link, seed or endpoint. The order is
//! load-bearing: at zero latency it gives the precision guarantee (a
//! correction sent at tick *t* is visible at *t*); with positive latency,
//! transient violations become measurable — experiment T2 reports both.

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
    run_fleet, run_fleet_ingest, run_ingest_over, run_lockstep, run_lockstep_over, BoxedSampler,
    FleetReport, IngestFleetReport, IngestStream, LoadPhase, LoadSwing, LockstepStream,
    LockstepTick,
};
pub use link::{Link, LinkFaults, Message};
pub use metrics::{DeliveryStats, ErrorMetrics, FaultCounters, SessionReport, TrafficMetrics};
pub use node::{Consumer, Producer};
pub use runner::{ErrorSeries, IngestSink, Session, SessionConfig, TickObserver};
pub use transport::{SimTransport, Transport, TransportStats};
