//! # kalstream-net
//!
//! Real network transport for the suppression protocol: wire-v3 frames
//! over TCP sockets, behind the same [`kalstream_sim::Transport`]
//! abstraction the deterministic simulator implements. Plain OS threads,
//! blocking `std::net` sockets and bounded channels — no async runtime.
//!
//! Three layers:
//!
//! * [`codec`] — the socket protocol: a `KSN1` hello claiming stream ids,
//!   then wire-v3 frames with zero-length tick-marker frames delimiting
//!   ticks, so stream sockets carry the simulator's tick semantics.
//! * [`TcpTransport`] — a single-session loopback transport that is
//!   *bit-identical* to [`kalstream_sim::SimTransport`]: fault injection
//!   (loss/dup/reorder/jitter) runs through the very same [`Link`]
//!   machinery with the same seeds *before* bytes hit the socket, so the
//!   socket adds real framing, reassembly, and (via
//!   [`TcpTransport::kill_at`]) connection death — without perturbing the
//!   deterministic schedule the proptests compare against.
//! * [`NetServer`] / [`drive_connection`] — the fleet path: an
//!   accept/read/route server (a reader and a writer thread per
//!   connection) feeding the sharded [`kalstream_core::IngestPipeline`],
//!   and the matching source-side connection driver (a blocking call on
//!   the caller's thread). Per-connection feedback queues are bounded; sheds
//!   are counted (including during drain) and exported through
//!   `kalstream-obs` snapshots. With `NetServerConfig::durable` set the
//!   server runs behind `kalstream-durable`'s WAL-append-before-apply
//!   discipline: a killed server restarts on the same directory, replays
//!   to bit-identical filter state, and tells each reconnecting client
//!   where to resume via the [`codec::HelloStatus`] hello reply.
//!
//! [`Link`]: kalstream_sim::Link

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod codec;
mod server;
mod transport;
pub mod workload;

pub use client::{drive_connection, ClientConfig, ClientReport};
pub use codec::HelloStatus;
pub use server::{
    ConnReport, ElasticNetStats, NetReport, NetServer, NetServerConfig, FEEDBACK_QUEUE_DEPTH,
};
pub use transport::TcpTransport;
