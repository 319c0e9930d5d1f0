//! The durable store: a directory of snapshot files and WAL segments, plus
//! the recovery procedure that rebuilds a fleet from them.
//!
//! ## Layout and invariants
//!
//! ```text
//! <dir>/snap-00000000000000000042.ks    snapshot after 42 ticks applied
//! <dir>/wal-00000000000000000042.log    records for ticks 42, 43, …
//! ```
//!
//! * **Append-before-apply**: every tick's wire batch is appended to the
//!   open WAL segment *before* it is handed to the ingester. A tick the
//!   crashed process applied is therefore always on disk; a torn tail is a
//!   tick that was never applied and is safely discarded.
//! * **Rotate-at-snapshot**: writing a snapshot after `T` ticks closes the
//!   open segment and starts the next one at `T`. Segments therefore map
//!   1:1 onto inter-snapshot intervals, which is what makes pruning and
//!   fallback reasoning simple.
//! * **Snapshots are atomic**: encoded to `*.tmp`, fsynced, then renamed.
//!   A crash mid-snapshot leaves the previous snapshot authoritative.
//! * **Retention**: the last two snapshots are kept, plus every segment
//!   needed to roll forward from the *older* of them — so recovery
//!   survives one corrupt snapshot file (falling back costs only a longer
//!   replay).

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kalstream_core::{EndpointState, ServerEndpoint, TickIngest};
use kalstream_filter::FilterError;
use kalstream_obs::{Counter, Gauge, Instrument, Scope};

use crate::snapshot::{decode_snapshot, encode_snapshot};
use crate::wal::{read_segment, WalWriter};

/// Configuration for a durable server: where state lives and how often to
/// snapshot. Snapshot cadence trades recovery replay length against
/// steady-state snapshot cost (each snapshot is a shard barrier).
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding snapshots and WAL segments (created on open).
    pub dir: PathBuf,
    /// Write a snapshot every this many applied ticks. Must be ≥ 1.
    pub snapshot_every: u64,
}

/// Counters the durability layer exposes through the obs registry —
/// steady-state write amplification on one side, recovery cost on the
/// other. `recovery_wall_ms` is wall-clock and therefore reported in
/// snapshots but never folded into deterministic experiment tables.
#[derive(Debug, Clone, Default)]
pub struct DurableStats {
    /// Snapshot files written.
    pub snapshots_written: Counter,
    /// Bytes across all snapshot files written.
    pub snapshot_bytes: Counter,
    /// WAL records appended (one per tick).
    pub wal_records: Counter,
    /// WAL bytes appended (headers included).
    pub wal_bytes: Counter,
    /// Ticks replayed from the WAL during the last recovery.
    pub replay_ticks: Counter,
    /// Torn or corrupt WAL tails discarded during recovery.
    pub torn_records: Counter,
    /// Snapshot files that failed validation and were skipped.
    pub corrupt_snapshots: Counter,
    /// Wall-clock milliseconds spent in the last [`DurableStore::recover`]
    /// (read + decode + endpoint rebuild; replay is counted by the caller).
    pub recovery_wall_ms: Gauge,
}

impl Instrument for DurableStats {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("snapshots_written", self.snapshots_written);
        scope.counter("snapshot_bytes", self.snapshot_bytes);
        scope.counter("wal_records", self.wal_records);
        scope.counter("wal_bytes", self.wal_bytes);
        scope.counter("replay_ticks", self.replay_ticks);
        scope.counter("torn_records", self.torn_records);
        scope.counter("corrupt_snapshots", self.corrupt_snapshots);
        scope.gauge("recovery_wall_ms", self.recovery_wall_ms.get());
    }
}

/// What [`DurableStore::recover`] found: the newest valid snapshot plus the
/// intact WAL suffix after it.
pub struct Recovery {
    /// Ticks applied at the recovered snapshot barrier.
    pub snapshot_ticks: u64,
    /// The fleet as of the snapshot, sorted by stream id.
    pub states: Vec<(u32, EndpointState)>,
    /// Intact WAL records after the snapshot: `(tick, wire batch)`,
    /// contiguous from `snapshot_ticks` upward.
    pub wal: Vec<(u64, Vec<u8>)>,
}

impl Recovery {
    /// The tick the recovered process resumes at: snapshot plus replay.
    pub fn next_tick(&self) -> u64 {
        self.snapshot_ticks + self.wal.len() as u64
    }

    /// Rebuilds live endpoints from the snapshot states.
    ///
    /// # Errors
    /// Propagates [`FilterError`] for inconsistent shapes — impossible for
    /// a store this process wrote (the snapshot CRC has already passed),
    /// but surfaced rather than unwrapped.
    pub fn endpoints(&self) -> Result<Vec<(u32, ServerEndpoint)>, FilterError> {
        self.states
            .iter()
            .map(|(id, state)| Ok((*id, ServerEndpoint::from_state(state.clone())?)))
            .collect()
    }

    /// Replays the WAL suffix into an ingester, reproducing the exact
    /// `ingest_tick` call sequence the crashed process made after the
    /// snapshot barrier.
    pub fn replay_into<I: TickIngest>(&self, inner: &mut I) {
        for (_, wire) in &self.wal {
            inner.ingest_tick(wire);
        }
    }
}

fn snap_path(dir: &Path, ticks: u64) -> PathBuf {
    dir.join(format!("snap-{ticks:020}.ks"))
}

fn wal_path(dir: &Path, start_tick: u64) -> PathBuf {
    dir.join(format!("wal-{start_tick:020}.log"))
}

/// Lists `(tick, path)` for directory entries named `prefix-{tick:020}{suffix}`,
/// ascending by tick.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(suffix) else {
            continue;
        };
        if let Ok(tick) = digits.parse::<u64>() {
            out.push((tick, entry.path()));
        }
    }
    out.sort_by_key(|(tick, _)| *tick);
    Ok(out)
}

/// A directory-backed durable store. One store owns one server's state;
/// opening the same directory after a crash and calling
/// [`DurableStore::recover`] yields everything needed to reconverge.
pub struct DurableStore {
    dir: PathBuf,
    wal: Option<WalWriter>,
    stats: DurableStats,
}

impl DurableStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DurableStore {
            dir,
            wal: None,
            stats: DurableStats::default(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durability counters so far.
    pub fn stats(&self) -> &DurableStats {
        &self.stats
    }

    /// Appends one tick's wire batch, opening a fresh segment if none is
    /// open (the segment is named after its first tick). Must be called
    /// *before* the batch is applied — the append-before-apply discipline
    /// is what makes a torn tail harmless.
    pub fn append_tick(&mut self, tick: u64, wire: &[u8]) -> io::Result<()> {
        if self.wal.is_none() {
            self.wal = Some(WalWriter::create(&wal_path(&self.dir, tick))?);
        }
        let wal = self.wal.as_mut().expect("segment just opened");
        let before = wal.bytes();
        wal.append(tick, wire)?;
        self.stats.wal_records += 1;
        self.stats.wal_bytes += wal.bytes() - before;
        Ok(())
    }

    /// Writes a snapshot at the `ticks_applied` barrier: atomic
    /// (tmp + fsync + rename), then rotates the WAL and prunes files no
    /// retained snapshot needs.
    pub fn write_snapshot(
        &mut self,
        ticks_applied: u64,
        states: &[(u32, EndpointState)],
    ) -> io::Result<()> {
        let encoded = encode_snapshot(ticks_applied, states);
        let final_path = snap_path(&self.dir, ticks_applied);
        let tmp_path = final_path.with_extension("ks.tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(&encoded)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        self.stats.snapshots_written += 1;
        self.stats.snapshot_bytes += encoded.len() as u64;
        // Rotate: the next appended tick starts a new segment.
        self.wal = None;
        self.prune(ticks_applied)?;
        Ok(())
    }

    /// Retention: keep the snapshot just written and its predecessor, and
    /// every WAL segment starting at or after the predecessor's barrier.
    fn prune(&mut self, newest: u64) -> io::Result<()> {
        let snaps = list_numbered(&self.dir, "snap-", ".ks")?;
        // The immediate predecessor snapshot (if any) anchors retention:
        // everything older than it is unreachable by any fallback.
        let keep_from = snaps
            .iter()
            .map(|(tick, _)| *tick)
            .filter(|&tick| tick < newest)
            .max()
            .unwrap_or(newest);
        for (tick, path) in &snaps {
            if *tick < keep_from {
                std::fs::remove_file(path)?;
            }
        }
        for (start, path) in list_numbered(&self.dir, "wal-", ".log")? {
            if start < keep_from {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Recovers the newest valid snapshot plus the intact, contiguous WAL
    /// suffix after it. Returns `None` when the directory holds no valid
    /// snapshot (a store that never reached its first barrier).
    ///
    /// Corrupt snapshot files are skipped (counted) and recovery falls
    /// back to the next older one; only WAL segments starting at or after
    /// the chosen barrier are read. The first gap or CRC failure among
    /// them ends the replayable suffix; a torn tail ends its own segment
    /// (both counted).
    pub fn recover(&mut self) -> io::Result<Option<Recovery>> {
        let started = Instant::now();
        let snaps = list_numbered(&self.dir, "snap-", ".ks")?;
        let mut chosen: Option<(u64, Vec<(u32, EndpointState)>)> = None;
        for (tick, path) in snaps.iter().rev() {
            let bytes = std::fs::read(path)?;
            match decode_snapshot(&bytes) {
                Ok((ticks_applied, states)) => {
                    debug_assert_eq!(ticks_applied, *tick, "file name matches header");
                    chosen = Some((ticks_applied, states));
                    break;
                }
                Err(_) => {
                    self.stats.corrupt_snapshots += 1;
                    // A snapshot that failed validation is worse than
                    // absent: left in place it would anchor retention and
                    // shadow valid fallbacks forever. Remove it.
                    std::fs::remove_file(path)?;
                }
            }
        }
        let Some((snapshot_ticks, states)) = chosen else {
            self.stats
                .recovery_wall_ms
                .set(started.elapsed().as_secs_f64() * 1e3);
            return Ok(None);
        };
        // Roll the WAL forward from the barrier, demanding contiguity. Every
        // snapshot rotates the WAL, so the ticks after the barrier live only
        // in segments starting at or after it; an older segment retention
        // keeps belongs to the predecessor, and its tail (torn or not) is
        // not this suffix's.
        let mut wal: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut next = snapshot_ticks;
        let segments = list_numbered(&self.dir, "wal-", ".log")?;
        let mut torn = false;
        'segments: for (start, path) in segments
            .iter()
            .filter(|(start, _)| *start >= snapshot_ticks)
        {
            // A torn tail ends its own segment only: the next one is read
            // when it starts where the tear left off (the compaction
            // snapshot a recovery writes there rotates the WAL). Any other
            // start is the gap the tear already counted.
            if torn && *start != next {
                break;
            }
            let read = read_segment(path)?;
            for (tick, payload) in read.records {
                if tick != next {
                    // A gap: nothing after it is trustworthy.
                    self.stats.torn_records += 1;
                    break 'segments;
                }
                wal.push((tick, payload));
                next += 1;
            }
            torn = read.torn > 0;
            self.stats.torn_records += read.torn;
        }
        self.stats.replay_ticks += wal.len() as u64;
        self.stats
            .recovery_wall_ms
            .set(started.elapsed().as_secs_f64() * 1e3);
        // Whatever happens next, appends must not extend a segment the
        // crashed process owned (its tail may be torn): start fresh.
        self.wal = None;
        Ok(Some(Recovery {
            snapshot_ticks,
            states,
            wal,
        }))
    }
}

impl Instrument for DurableStore {
    fn export(&self, scope: &mut Scope<'_>) {
        self.stats.export(scope);
    }
}
