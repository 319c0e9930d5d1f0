//! Store-level crash/recover cycles: kill a durable ingester after every
//! possible tick, recover from disk, and demand bit-identity with an
//! uncrashed reference — plus torn-tail and corrupt-snapshot fallbacks.

use kalstream_core::frame::FrameBatch;
use kalstream_core::wire::{SyncMessage, WireMessage};
use kalstream_core::{ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec};
use kalstream_durable::{Durability, DurableStore};
use kalstream_linalg::{Matrix, Vector};

const STREAMS: u32 = 6;
const TICKS: u64 = 24;
const SNAPSHOT_EVERY: u64 = 5;

fn endpoints() -> Vec<(u32, ServerEndpoint)> {
    (0..STREAMS)
        .map(|id| {
            let config = ProtocolConfig::new(0.5).expect("valid delta");
            let server = SessionSpec::default_scalar(id as f64 * 0.1, config)
                .expect("valid spec")
                .build()
                .server;
            (id, server)
        })
        .collect()
}

/// Deterministic synthetic traffic: one framed batch per tick, a sparse
/// mix of sequenced state syncs (so seq/ack bookkeeping is exercised) with
/// some quiet ticks (predict-only, empty batches).
fn traffic() -> Vec<Vec<u8>> {
    let mut seqs = vec![0u64; STREAMS as usize];
    (0..TICKS)
        .map(|tick| {
            let mut batch = FrameBatch::new();
            for id in 0..STREAMS {
                if (tick * 7 + id as u64 * 13).is_multiple_of(3) {
                    seqs[id as usize] += 1;
                    let v = (tick as f64 * 0.05 + id as f64).sin();
                    let wire = WireMessage::Sync {
                        seq: Some(seqs[id as usize]),
                        msg: SyncMessage::State {
                            x: Vector::from_slice(&[v]),
                            p: Matrix::scalar(1, 0.3),
                        },
                    }
                    .encode();
                    batch.push_raw(id, &wire);
                }
            }
            batch.into_buffer().to_vec()
        })
        .collect()
}

/// Per-stream fingerprint: id, state bits, covariance bits, last seq,
/// syncs applied, staleness.
type FleetBits = Vec<(u32, Vec<u64>, Vec<u64>, u64, u64, u64)>;

/// Bit-level fingerprint of a fleet: per stream, state and covariance bits
/// plus the protocol bookkeeping that steers future behaviour.
fn fleet_bits(endpoints: &[(u32, ServerEndpoint)]) -> FleetBits {
    endpoints
        .iter()
        .map(|(id, ep)| {
            (
                *id,
                ep.filter()
                    .state()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                ep.filter()
                    .covariance()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                ep.last_seq(),
                ep.syncs_applied(),
                ep.staleness(),
            )
        })
        .collect()
}

fn reference_bits(ticks: &[Vec<u8>]) -> FleetBits {
    let mut seq = SequentialIngest::new(endpoints());
    for wire in ticks {
        seq.ingest_tick(wire);
    }
    fleet_bits(&seq.finish().endpoints)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kalstream-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts the durability hook over `inner`, which has applied `at` ticks.
fn durable_at(store: DurableStore, inner: &SequentialIngest, at: u64) -> Durability {
    Durability::start(store, SNAPSHOT_EVERY, at, &inner.snapshot_states()).expect("start snapshot")
}

/// The append-before-apply discipline over `ticks`.
fn run_durable(durable: &mut Durability, inner: &mut SequentialIngest, ticks: &[Vec<u8>]) {
    for wire in ticks {
        durable.append(wire).expect("append");
        inner.ingest_tick(wire);
        durable
            .applied(|| inner.snapshot_states())
            .expect("cadence snapshot");
    }
}

/// Runs a durable ingester up to `kill_tick`, drops it cold (process-death
/// stand-in: all in-memory state gone), recovers from the directory alone,
/// finishes the run, and returns the final fleet bits.
fn crash_recover_finish(dir: &std::path::Path, ticks: &[Vec<u8>], kill_tick: u64) -> FleetBits {
    let store = DurableStore::open(dir).expect("open store");
    let mut inner = SequentialIngest::new(endpoints());
    let mut durable = durable_at(store, &inner, 0);
    run_durable(&mut durable, &mut inner, &ticks[..kill_tick as usize]);
    drop((durable, inner)); // crash: every in-memory endpoint is gone

    let mut store = DurableStore::open(dir).expect("reopen store");
    let rec = store
        .recover()
        .expect("recover I/O")
        .expect("a genesis snapshot always exists");
    assert!(
        rec.snapshot_ticks <= kill_tick,
        "snapshot barrier cannot pass the kill point"
    );
    let mut inner = SequentialIngest::new(rec.endpoints().expect("rebuild endpoints"));
    rec.replay_into(&mut inner);
    assert_eq!(rec.next_tick(), kill_tick, "replay reaches the kill point");
    let mut durable = durable_at(store, &inner, rec.next_tick());
    run_durable(&mut durable, &mut inner, &ticks[kill_tick as usize..]);
    fleet_bits(&inner.finish().endpoints)
}

#[test]
fn kill_at_every_tick_recovers_bit_identically() {
    let ticks = traffic();
    let reference = reference_bits(&ticks);
    let dir = tmp_dir("every-tick");
    for kill_tick in 0..=TICKS {
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = crash_recover_finish(&dir, &ticks, kill_tick);
        assert_eq!(
            recovered, reference,
            "kill after tick {kill_tick}: recovered fleet diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_crash_recovers_bit_identically() {
    // Crash, recover, crash again mid-replay-shadowed region, recover again.
    let ticks = traffic();
    let reference = reference_bits(&ticks);
    let dir = tmp_dir("double");
    let _ = std::fs::remove_dir_all(&dir);

    let store = DurableStore::open(&dir).expect("open");
    let mut inner = SequentialIngest::new(endpoints());
    let mut durable = durable_at(store, &inner, 0);
    run_durable(&mut durable, &mut inner, &ticks[..13]);
    drop((durable, inner)); // first crash

    let mut store = DurableStore::open(&dir).expect("reopen");
    let rec = store.recover().expect("io").expect("snapshot");
    let mut inner = SequentialIngest::new(rec.endpoints().expect("rebuild"));
    rec.replay_into(&mut inner);
    let mut durable = durable_at(store, &inner, rec.next_tick());
    run_durable(&mut durable, &mut inner, &ticks[13..17]);
    drop((durable, inner)); // second crash

    let mut store = DurableStore::open(&dir).expect("reopen 2");
    let rec = store.recover().expect("io").expect("snapshot");
    let mut inner = SequentialIngest::new(rec.endpoints().expect("rebuild"));
    rec.replay_into(&mut inner);
    assert_eq!(rec.next_tick(), 17);
    for wire in &ticks[17..] {
        inner.ingest_tick(wire);
    }
    assert_eq!(fleet_bits(&inner.finish().endpoints), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_discarded_and_refed_ticks_reconverge() {
    let ticks = traffic();
    let reference = reference_bits(&ticks);
    let dir = tmp_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);

    let store = DurableStore::open(&dir).expect("open");
    let mut inner = SequentialIngest::new(endpoints());
    let mut durable = durable_at(store, &inner, 0);
    run_durable(&mut durable, &mut inner, &ticks[..13]);
    drop((durable, inner));

    // Tear the open segment's tail: chop bytes off the last record, as a
    // crash mid-write would.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .collect();
    segments.sort();
    let tail = segments.last().expect("open segment exists");
    let bytes = std::fs::read(tail).unwrap();
    std::fs::write(tail, &bytes[..bytes.len() - 3]).unwrap();

    let mut store = DurableStore::open(&dir).expect("reopen");
    let rec = store.recover().expect("io").expect("snapshot");
    // The torn record is tick 12 (never "applied" as far as disk knows):
    // recovery stops one short of the kill point and counts the tear.
    assert_eq!(rec.next_tick(), 12);
    assert_eq!(store.stats().torn_records.get(), 1);
    let mut inner = SequentialIngest::new(rec.endpoints().expect("rebuild"));
    rec.replay_into(&mut inner);
    let mut durable = durable_at(store, &inner, rec.next_tick());
    // The client re-sends from tick 12 (ack/timeout recovery): re-feed it.
    run_durable(&mut durable, &mut inner, &ticks[12..]);
    assert_eq!(fleet_bits(&inner.finish().endpoints), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_falls_back_to_the_previous_barrier() {
    let ticks = traffic();
    let reference = reference_bits(&ticks);
    let dir = tmp_dir("fallback");
    let _ = std::fs::remove_dir_all(&dir);

    let store = DurableStore::open(&dir).expect("open");
    let mut inner = SequentialIngest::new(endpoints());
    let mut durable = durable_at(store, &inner, 0);
    run_durable(&mut durable, &mut inner, &ticks[..12]);
    drop((durable, inner));

    // Corrupt the newest snapshot (snap at tick 10); recovery must fall
    // back to the previous one (tick 5) and replay twice as far.
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("snap-")
        })
        .collect();
    snaps.sort();
    let newest = snaps.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(newest, &bytes).unwrap();

    let mut store = DurableStore::open(&dir).expect("reopen");
    let rec = store.recover().expect("io").expect("fallback snapshot");
    assert_eq!(rec.snapshot_ticks, 5, "fell back to the previous barrier");
    assert_eq!(rec.next_tick(), 12, "WAL still rolls forward to the crash");
    assert_eq!(store.stats().corrupt_snapshots.get(), 1);
    let mut inner = SequentialIngest::new(rec.endpoints().expect("rebuild"));
    rec.replay_into(&mut inner);
    for wire in &ticks[12..] {
        inner.ingest_tick(wire);
    }
    assert_eq!(fleet_bits(&inner.finish().endpoints), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_keeps_two_snapshots_and_their_wal() {
    let ticks = traffic();
    let dir = tmp_dir("retention");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::open(&dir).expect("open");
    let mut inner = SequentialIngest::new(endpoints());
    let mut durable = durable_at(store, &inner, 0);
    run_durable(&mut durable, &mut inner, &ticks);
    let names: Vec<String> = std::fs::read_dir(durable.store().dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().to_string())
        .collect();
    let snaps = names.iter().filter(|n| n.starts_with("snap-")).count();
    let wals = names.iter().filter(|n| n.starts_with("wal-")).count();
    assert_eq!(snaps, 2, "newest snapshot plus one fallback: {names:?}");
    assert!(
        wals <= 2,
        "only segments since the fallback barrier survive: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_pipeline_crash_recovers_into_sequential_reference() {
    // The pipeline and the sequential ingester must be interchangeable
    // across a crash: kill a 3-shard durable pipeline, recover into a
    // sequential ingester (and vice versa makes no difference — states are
    // engine-agnostic), and match the uncrashed reference exactly.
    use kalstream_core::IngestPipeline;
    let ticks = traffic();
    let reference = reference_bits(&ticks);
    let dir = tmp_dir("pipeline");
    for kill_tick in [1u64, 7, 13, 23] {
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableStore::open(&dir).expect("open");
        let mut pipeline = IngestPipeline::start(3, endpoints());
        let mut durable = Durability::start(store, SNAPSHOT_EVERY, 0, &pipeline.snapshot_states())
            .expect("genesis");
        for wire in &ticks[..kill_tick as usize] {
            durable.ingest_tick(&mut pipeline, wire).expect("tick");
        }
        // Crash: finish() is never called — shard threads are dropped with
        // their engines, exactly the state loss a kill -9 causes.
        drop((durable, pipeline));

        let mut store = DurableStore::open(&dir).expect("reopen");
        let rec = store.recover().expect("io").expect("snapshot");
        let mut inner = SequentialIngest::new(rec.endpoints().expect("rebuild"));
        rec.replay_into(&mut inner);
        assert_eq!(rec.next_tick(), kill_tick);
        for wire in &ticks[kill_tick as usize..] {
            inner.ingest_tick(wire);
        }
        assert_eq!(
            fleet_bits(&inner.finish().endpoints),
            reference,
            "kill after tick {kill_tick}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
