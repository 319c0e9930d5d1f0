//! # kalstream-durable — state that survives the process
//!
//! The protocol's correctness currency is *bit-identity*: the source's
//! shadow filter and the server's cached filter run the same arithmetic in
//! the same order, so suppression decisions made at the edge hold exactly
//! at the server. PR 3 and PR 7 extended that identity across message
//! loss, duplication, reordering, and TCP reconnects — but a process crash
//! still erased every filter and silently voided the precision contract.
//! This crate closes that hole, the way a database would:
//!
//! * **Snapshots** ([`snapshot`]): a versioned, CRC-checked capture of
//!   every endpoint's complete protocol state ([`kalstream_core::EndpointState`])
//!   at a tick barrier — filter triplet, staleness, pending queue, seq/ack
//!   tracker, counters. Floats travel as raw bits; the filter triplet
//!   reuses the wire-v3 `Model` sync encoding, so no second matrix codec.
//! * **WAL** ([`wal`]): one record per tick holding the exact framed batch
//!   `ingest_tick` consumed, appended *before* apply. Tick barriers
//!   (already on the wire as `TICK_MARKER_STREAM`) are the segmentation
//!   and truncation points; a torn tail is a tick that was never applied.
//! * **Store + recovery** ([`store`]): atomic snapshot writes, WAL
//!   rotation at snapshot barriers, retention of one fallback snapshot,
//!   and [`store::DurableStore::recover`] — newest valid snapshot plus the
//!   contiguous intact WAL suffix.
//! * **The hook** ([`ingest::Durability`]): the append-before-apply
//!   discipline as three calls around whatever applies the tick — `append`,
//!   apply, `applied` — plus the checkpoint-before-reassign step an elastic
//!   resize goes through. It holds the store, not the ingester.
//!
//! The contract, pinned by this crate's tests and the workspace
//! `crash_recovery` proptests: kill the process after *any* tick, recover,
//! replay, and the fleet's filter state is **bit-identical** to an
//! uncrashed reference run — and therefore makes exactly the same
//! suppression, ack, and bound decisions forever after. Recovery is not
//! "close enough to reconverge"; it is indistinguishable.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ingest;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use ingest::Durability;
pub use snapshot::{
    crc32, decode_snapshot, encode_snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use store::{DurableConfig, DurableStats, DurableStore, Recovery};
pub use wal::{read_segment, SegmentRead, WalWriter, WAL_MAGIC, WAL_VERSION};
