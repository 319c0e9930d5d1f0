//! [`Durability`]: the durability discipline as a barrier hook — WAL-append
//! before apply, snapshots at tick barriers.
//!
//! The hook holds the store, never the ingester: the caller appends, applies
//! the tick to whatever it ingests with, then reports the tick applied. The
//! same three calls therefore drive the sequential ingester and the
//! sharded pipeline identically — which is exactly what
//! the crash-recovery proptests exploit: kill a durable *pipeline*,
//! recover, and compare against an uncrashed run bit for bit.

use std::io;

use kalstream_core::{EndpointState, IngestPipeline, ResizeTransition};

use crate::store::DurableStore;

/// What makes an ingest run survive process death. Every tick is appended
/// to the WAL before it is applied ([`Durability::append`]); every
/// `snapshot_every` applied ticks the fleet's state is captured at the
/// barrier and written atomically ([`Durability::applied`]).
pub struct Durability {
    store: DurableStore,
    snapshot_every: u64,
    ticks_applied: u64,
    /// The barrier of the last snapshot written through this hook.
    snapshotted_at: u64,
}

impl Durability {
    /// Starts the discipline over a fleet that has already applied
    /// `ticks_applied` ticks and is in `states`: 0 for a fresh run, the
    /// recovered tick count after a WAL replay. Writes a snapshot at that
    /// barrier — the genesis snapshot, so recovery always has a barrier to
    /// start from, or a compaction snapshot, so recovery work done once is
    /// not paid again by the *next* crash.
    ///
    /// # Errors
    /// Propagates store I/O errors.
    ///
    /// # Panics
    /// Panics when `snapshot_every` is 0.
    pub fn start(
        mut store: DurableStore,
        snapshot_every: u64,
        ticks_applied: u64,
        states: &[(u32, EndpointState)],
    ) -> io::Result<Self> {
        assert!(snapshot_every >= 1, "snapshot cadence must be at least 1");
        store.write_snapshot(ticks_applied, states)?;
        Ok(Durability {
            store,
            snapshot_every,
            ticks_applied,
            snapshotted_at: ticks_applied,
        })
    }

    /// Appends the next tick to the WAL. Call *before* applying it —
    /// durability before visibility.
    ///
    /// # Errors
    /// Propagates store I/O errors; the caller must then **not** apply the
    /// tick.
    pub fn append(&mut self, wire: &[u8]) -> io::Result<()> {
        self.store.append_tick(self.ticks_applied, wire)
    }

    /// Records that the appended tick has been applied, and snapshots the
    /// fleet (captured through `snapshot`) when the cadence comes due.
    ///
    /// # Errors
    /// Propagates store I/O errors.
    pub fn applied(
        &mut self,
        snapshot: impl FnOnce() -> Vec<(u32, EndpointState)>,
    ) -> io::Result<()> {
        self.ticks_applied += 1;
        if self.ticks_applied.is_multiple_of(self.snapshot_every) {
            self.checkpoint(snapshot)?;
        }
        Ok(())
    }

    /// The whole discipline for one pipeline tick: [`Durability::append`],
    /// apply, [`Durability::applied`].
    ///
    /// # Errors
    /// Propagates store I/O errors (the tick is **not** applied when the
    /// WAL append fails).
    pub fn ingest_tick(&mut self, pipeline: &mut IngestPipeline, wire: &[u8]) -> io::Result<()> {
        self.append(wire)?;
        pipeline.ingest_tick(wire);
        self.applied(|| pipeline.snapshot_states())
    }

    /// Makes sure the current barrier has a snapshot, regardless of cadence
    /// — a clean shutdown checkpoints so the next start replays nothing.
    /// The fleet is captured through `snapshot` and written only when this
    /// hook has not already snapshotted this barrier: endpoint state changes
    /// only by applying a tick, so a second snapshot at the same barrier
    /// would rewrite the same bytes. Skipping it skips the capture (a shard
    /// barrier and a clone of every endpoint) as well.
    ///
    /// # Errors
    /// Propagates store I/O errors.
    pub fn checkpoint(
        &mut self,
        snapshot: impl FnOnce() -> Vec<(u32, EndpointState)>,
    ) -> io::Result<()> {
        if self.snapshotted_at == self.ticks_applied {
            return Ok(());
        }
        self.store.write_snapshot(self.ticks_applied, &snapshot())?;
        self.snapshotted_at = self.ticks_applied;
        Ok(())
    }

    /// Checkpoints at the resize barrier, then moves `pipeline` to `to`
    /// shards — the *shape-change checkpoint reuse* that makes elastic
    /// resizing safe: snapshots are pipeline-shape-independent (sorted
    /// `(stream_id, state)` pairs), so the checkpoint written here recovers
    /// into **any** shard count. A crash at any point around the resize
    /// replays from this barrier (or an earlier one) into the post-resize
    /// shape with zero extra machinery. A resize at a barrier that already
    /// has its snapshot (a cadence barrier) reuses it.
    ///
    /// # Errors
    /// Propagates store I/O errors; on error the resize is not executed.
    pub fn reassign(
        &mut self,
        pipeline: &mut IngestPipeline,
        to: usize,
    ) -> io::Result<ResizeTransition> {
        self.checkpoint(|| pipeline.snapshot_states())?;
        Ok(pipeline.reassign(to))
    }

    /// The store (stats, directory).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }
}
