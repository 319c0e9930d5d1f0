//! # kalstream-core
//!
//! The paper's contribution: **precision-bounded stream suppression with
//! dual Kalman filters**, plus the multi-stream resource-allocation layer on
//! top of it.
//!
//! ## The protocol in five lines
//!
//! A stream source and the stream server both hold the same *dynamic
//! procedure* — a Kalman filter. The server answers queries from the
//! filter's prediction without any communication. The source runs a
//! bit-identical **shadow** of the server's filter; each tick it checks the
//! shadow's prediction against the real measurement, and only when the error
//! would exceed the user's precision bound `δ` does it transmit one
//! correction message that resynchronises both ends. Communication is paid
//! only when the model fails.
//!
//! ## What lives where
//!
//! * [`wire`] — the binary wire format for sync messages (state sync, model
//!   sync, measurement sync), with triangle-packed symmetric matrices and
//!   explicit byte accounting for experiment T3.
//! * [`frame`] — the length-prefixed frame layer that batches many messages
//!   from many streams into one pooled buffer for ingest.
//! * [`ingest`] — the one ingest tick loop, run inline
//!   ([`SequentialIngest`]) or on per-shard worker threads each owning its
//!   endpoints ([`IngestPipeline`]), bit-identical for any shard count.
//!   Every shard steps its streams as structure-of-arrays lanes
//!   (`kalstream_filter::FleetBatch`), grouped by `F`, `H` and covariance
//!   form with `Q`/`R` per lane, bit-identical to stepping each endpoint's
//!   own filter. ([`BatchedIngest`] is the name that engine had while it
//!   was optional: an alias of [`SequentialIngest`].)
//! * [`SourceEndpoint`] / [`ServerEndpoint`] — the two ends of the protocol,
//!   implementing the simulator's `Producer`/`Consumer` traits.
//! * [`StreamSession`] — constructs a matched endpoint pair from a
//!   [`SessionSpec`] (the "install the procedure at both ends" step).
//! * [`Estimator`] — the source's local estimator: a fixed filter, an
//!   adaptive filter, or a model bank. Model changes propagate to the server
//!   only inside sync messages, which is what keeps the two ends identical
//!   between syncs.
//! * [`RateEstimator`] / [`BudgetAllocator`] — the resource-management layer:
//!   measured message-rate-vs-δ curves and Lagrangian allocation of
//!   per-stream precision under a fleet-wide message budget.
//!
//! ## Precision guarantee
//!
//! Under zero link latency, the served value is within `δ` of the observed
//! measurement at **every** tick (max-norm for multi-dimensional streams):
//! between syncs by the suppression test, and at sync ticks because the
//! shipped state is *pinned* — projected so its measurement component equals
//! the observation exactly ([`pin_to_measurement`]). Integration tests and
//! proptests assert zero violations across every workload family.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alloc;
mod batch_ingest;
mod config;
mod controller;
mod error;
mod estimator;
pub mod frame;
pub mod ingest;
mod protocol;
mod rate;
mod server;
mod session;
mod source;
#[cfg(test)]
mod test_support;
pub mod wire;

pub use alloc::{AllocationResult, BudgetAllocator, StreamDemand};
pub use batch_ingest::BatchedIngest;
pub use config::{ProtocolConfig, ResyncPayload};
pub use controller::FleetController;
pub use error::CoreError;
pub use estimator::Estimator;
pub use frame::{
    walk_stream_frames, Frame, FrameBatch, FrameDecoder, OversizedFrame, StreamDecoder,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
pub use ingest::{
    FramingSink, IngestPipeline, IngestResult, ResizeTransition, SequentialIngest, ShardReport,
    TickIngest,
};
pub use protocol::{pin_to_measurement, AckTracker};
pub use rate::RateEstimator;
pub use server::{EndpointState, ServerEndpoint};
pub use session::{SessionSpec, StreamSession};
pub use source::SourceEndpoint;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
