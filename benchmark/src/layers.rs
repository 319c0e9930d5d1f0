//! The traced run's outside-in view of single layers: the server path
//! taken apart stage by stage over the recorded log, the three ingest
//! engines replayed on the same batches, the durable store driven by hand,
//! and tight loops over the leaf kernels.
//!
//! Every span is opened here, around a call into a layer's public
//! function; nothing inside the crates under test is instrumented.

use std::hint::black_box;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use kalstream_core::wire::WireMessage;
use kalstream_core::{
    BatchedIngest, FrameDecoder, IngestPipeline, IngestResult, SequentialIngest, StreamDecoder,
};
use kalstream_durable::DurableStore;
use kalstream_filter::{models, DynFleetBatch, KalmanFilter};
use kalstream_linalg::{Matrix, StaticKernel, Vector};
use kalstream_net::codec::{feed_ticks, push_frame};

use crate::fleet::{server_endpoints, warmup_ticks, Log};
use crate::stats::median;
use crate::trace::Tracer;

/// Per-layer metric values by name, as a traced run collects them.
pub type Layers = std::collections::BTreeMap<&'static str, f64>;

/// Nanoseconds per operation of `round`, which performs `ops` of them:
/// the median of seven rounds after one discarded.
fn ns_per_op(ops: u64, mut round: impl FnMut()) -> f64 {
    round();
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            round();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&rounds)
}

/// Leaf-kernel costs in tight loops. The scalar filter is the fleet's own
/// model; the static and batch kernels start at two states, so they run
/// the constant-velocity shape (the smallest they support).
pub fn kernel_costs(layers: &mut Layers) {
    const OPS: u64 = 20_000;
    let z = Vector::from_slice(&[0.3]);
    let mut kf = KalmanFilter::new(models::random_walk(0.01, 0.01), Vector::zeros(1), 1.0)
        .expect("scalar filter");
    layers.insert(
        "filter.kalman.predict_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                kf.predict().expect("predict");
            }
            black_box(kf.state());
        }),
    );
    let step = ns_per_op(OPS, || {
        for _ in 0..OPS {
            kf.predict().expect("predict");
            black_box(kf.update(black_box(&z)).expect("update").nis);
        }
    });
    layers.insert(
        "filter.kalman.update_ns",
        (step - layers["filter.kalman.predict_ns"]).max(0.0),
    );

    let cv = models::constant_velocity(1.0, 0.05, 0.1);
    let kernel = StaticKernel::<2, 1>::from_matrices(cv.f(), cv.q(), cv.h(), cv.r())
        .expect("constant-velocity kernel");
    let (mut x, mut p) = ([0.0, 0.1], [[1.0, 0.0], [0.0, 1.0]]);
    layers.insert(
        "linalg.static_kernel.step_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                kernel.predict(&mut x, &mut p);
                black_box(kernel.update(&mut x, &mut p, black_box(&[0.3])).is_ok());
            }
        }),
    );

    const LANES: usize = 512;
    const TICKS: u64 = 40;
    let mut batch = DynFleetBatch::for_model(&cv).expect("batchable model");
    for lane in 0..LANES {
        batch
            .push(
                &Vector::from_slice(&[lane as f64 * 0.01, 0.1]),
                &Matrix::scalar(2, 1.0),
                0,
            )
            .expect("lane");
    }
    let measurements = vec![0.3; LANES];
    layers.insert(
        "filter.batch.step_ns_per_lane",
        ns_per_op(TICKS * LANES as u64, || {
            for _ in 0..TICKS {
                batch.predict_all();
                black_box(
                    batch
                        .update_all(black_box(&measurements))
                        .expect("update_all"),
                );
            }
        }),
    );
}

/// Frames and decoded messages the staged replay saw in its recorded ticks.
#[derive(Default)]
pub struct Staged {
    pub ticks: u64,
    pub frames: u64,
    pub body_bytes: u64,
}

/// The server path taken apart over `log`, one span per stage per tick
/// (recorded after the warm-up ticks):
///
/// `net.codec.feed_ticks` (per connection) → `core.frame.for_each_frame` →
/// `core.wire.decode` → `core.server.enqueue_wire` → `core.server.advance`,
/// all under a `staged.tick` span. Beside the path, per tick: `core.frame.feed`
/// (`StreamDecoder::feed` alone on the same bytes), `core.wire.encode`
/// (the tick's messages encoded again) and `net.codec.push_frame` (framed
/// again); after the last tick, `core.server.advance_idle` rounds with
/// nothing queued.
pub fn staged_server(log: &Log, tracer: &mut Tracer) -> Staged {
    let mut endpoints = server_endpoints(&log.first);
    let mut socket_decoders: Vec<StreamDecoder> =
        log.conns.iter().map(|_| StreamDecoder::new()).collect();
    let mut tick_bufs: Vec<Vec<u8>> = log.conns.iter().map(|_| Vec::new()).collect();
    let mut bare_decoder = StreamDecoder::new();
    let mut frame_decoder = FrameDecoder::new();
    let mut batch: Vec<u8> = Vec::new();
    let mut bodies: Vec<(u32, Range<usize>)> = Vec::new();
    let mut decoded: Vec<(u32, WireMessage)> = Vec::new();
    let mut reframed: Vec<u8> = Vec::new();
    let mut staged = Staged::default();
    let warm = warmup_ticks(log.ticks);
    tracer.set_recording(false);
    for t in 0..log.ticks {
        if t == warm {
            tracer.set_recording(true);
        }
        let tick = tracer.open("staged.tick", t);
        batch.clear();
        for (c, conn) in log.conns.iter().enumerate() {
            let span = tracer.open("net.codec.feed_ticks", t);
            feed_ticks(
                &mut socket_decoders[c],
                conn.tick(t),
                &mut tick_bufs[c],
                |frames| batch.extend_from_slice(&frames),
            )
            .expect("recorded frames are well formed");
            tracer.close(span);
        }
        let span = tracer.open("core.frame.for_each_frame", t);
        bodies.clear();
        let base = batch.as_ptr() as usize;
        frame_decoder.for_each_frame(&batch, |frame| {
            let start = frame.body.as_ptr() as usize - base;
            bodies.push((frame.stream_id, start..start + frame.body.len()));
        });
        tracer.close(span);
        let span = tracer.open("core.wire.decode", t);
        decoded.clear();
        for (id, body) in &bodies {
            let msg = WireMessage::decode(&batch[body.clone()]).expect("recorded body decodes");
            decoded.push((*id, msg));
        }
        tracer.close(span);
        if t >= warm {
            staged.ticks += 1;
            staged.frames += bodies.len() as u64;
            staged.body_bytes += bodies.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        }

        // Beside the path: the encode side of the same messages.
        let span = tracer.open("core.wire.encode", t);
        for (_, msg) in &decoded {
            black_box(msg.encode());
        }
        tracer.close(span);

        let span = tracer.open("core.server.enqueue_wire", t);
        for (id, msg) in decoded.drain(..) {
            endpoints[id as usize].1.enqueue_wire(msg);
        }
        tracer.close(span);
        let span = tracer.open("core.server.advance", t);
        for (_, ep) in endpoints.iter_mut() {
            ep.advance();
        }
        tracer.close(span);
        tracer.close(tick);

        let span = tracer.open("core.frame.feed", t);
        for conn in &log.conns {
            bare_decoder
                .feed(conn.tick(t), |id, body| {
                    black_box((id, body.len()));
                })
                .expect("recorded frames are well formed");
        }
        tracer.close(span);
        let span = tracer.open("net.codec.push_frame", t);
        reframed.clear();
        for (id, body) in &bodies {
            push_frame(&mut reframed, *id, &batch[body.clone()]);
        }
        black_box(reframed.len());
        tracer.close(span);
    }
    for round in 0..200 {
        let span = tracer.open("core.server.advance_idle", log.ticks + round);
        for (_, ep) in endpoints.iter_mut() {
            ep.advance();
        }
        tracer.close(span);
    }
    staged
}

/// Replays every tick batch of `log` into `ingest_tick`, a span called
/// `name` around each post-warm-up call. Returns the replay's wall time.
fn replay(
    log: &Log,
    tracer: &mut Tracer,
    name: &'static str,
    mut ingest_tick: impl FnMut(&[u8]),
) -> f64 {
    let mut batch = Vec::new();
    let warm = warmup_ticks(log.ticks);
    tracer.set_recording(false);
    let started = Instant::now();
    for t in 0..log.ticks {
        if t == warm {
            tracer.set_recording(true);
        }
        log.tick_batch(t, &mut batch);
        let span = tracer.open(name, t);
        ingest_tick(&batch);
        tracer.close(span);
    }
    started.elapsed().as_secs_f64()
}

/// The three ingest engines on the same batches, no sockets:
/// `core.ingest.seq_tick`, `core.ingest.pipeline_tick` (`ingest_tick` +
/// `flush` over `shards` workers) and `core.batch_ingest.tick`. Returns each
/// engine's result, and the pipeline replay's wall time.
pub fn ingest_engines(log: &Log, shards: usize, tracer: &mut Tracer) -> ([IngestResult; 3], f64) {
    let mut seq = SequentialIngest::new(server_endpoints(&log.first));
    replay(log, tracer, "core.ingest.seq_tick", |wire| {
        seq.ingest_tick(wire)
    });
    let mut pipeline = IngestPipeline::start(shards, server_endpoints(&log.first));
    let pipeline_s = replay(log, tracer, "core.ingest.pipeline_tick", |wire| {
        pipeline.ingest_tick(wire);
        pipeline.flush();
    });
    let mut batched = BatchedIngest::new(server_endpoints(&log.first));
    replay(log, tracer, "core.batch_ingest.tick", |wire| {
        batched.ingest_tick(wire)
    });
    (
        [seq.finish(), pipeline.finish(), batched.finish()],
        pipeline_s,
    )
}

/// What driving the durable store by hand measured.
pub struct DurableCosts {
    pub wal_bytes_per_tick: f64,
    pub snapshot_bytes: f64,
    pub recover_ms: f64,
    pub replay_ticks_per_s: f64,
    /// The recovered and replayed state, to compare with the reference.
    pub recovered: IngestResult,
}

/// Append-before-apply by hand over `log` into a store under `dir`:
/// `durable.wal.append` per tick, `durable.snapshot.write` every
/// `snapshot_every` ticks; then the store is reopened, recovered
/// (`durable.store.recover`) and its WAL tail replayed. The replay of the
/// log stops half a snapshot interval short of the end so that there is a
/// tail to replay.
pub fn durable_store(
    log: &Log,
    snapshot_every: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<DurableCosts> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let mut store = DurableStore::open(dir)?;
    let mut ingest = SequentialIngest::new(server_endpoints(&log.first));
    let mut batch = Vec::new();
    let crash_at = log.ticks - snapshot_every / 2;
    tracer.set_recording(true);
    store.write_snapshot(0, &ingest.snapshot_states())?;
    for t in 0..crash_at {
        log.tick_batch(t, &mut batch);
        let span = tracer.open("durable.wal.append", t);
        store.append_tick(t, &batch)?;
        tracer.close(span);
        ingest.ingest_tick(&batch);
        if (t + 1) % snapshot_every == 0 {
            let states = ingest.snapshot_states();
            let span = tracer.open("durable.snapshot.write", t);
            store.write_snapshot(t + 1, &states)?;
            tracer.close(span);
        }
    }
    let stats = store.stats().clone();
    drop(store);

    let span = tracer.open("durable.store.recover", crash_at);
    let mut store = DurableStore::open(dir)?;
    let recovery = store
        .recover()?
        .ok_or_else(|| io::Error::other("the store just written holds no snapshot"))?;
    tracer.close(span);
    let recover_ms = tracer.durations("durable.store.recover")[0] / 1e6;
    let endpoints = recovery
        .endpoints()
        .map_err(|err| io::Error::other(format!("recovered snapshot rejected: {err}")))?;
    let mut recovered = SequentialIngest::new(endpoints);
    let replay = Instant::now();
    recovery.replay_into(&mut recovered);
    let replay_s = replay.elapsed().as_secs_f64();
    // Finish the log on the recovered state so it can be checked against
    // the reference end state.
    for t in crash_at..log.ticks {
        log.tick_batch(t, &mut batch);
        recovered.ingest_tick(&batch);
    }
    std::fs::remove_dir_all(dir)?;
    Ok(DurableCosts {
        wal_bytes_per_tick: stats.wal_bytes.get() as f64 / stats.wal_records.get().max(1) as f64,
        snapshot_bytes: stats.snapshot_bytes.get() as f64
            / stats.snapshots_written.get().max(1) as f64,
        recover_ms,
        replay_ticks_per_s: recovery.wal.len() as f64 / replay_s,
        recovered: recovered.finish(),
    })
}
