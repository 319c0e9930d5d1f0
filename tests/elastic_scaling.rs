//! Whole-system elastic scaling edge cases: resizes landing with ticks
//! still in flight, shrink to the single-shard floor, hysteresis under
//! sawtooth load, and a resize racing a crash — every one must leave the
//! fleet's filter state **bit-identical** to a run that never resized
//! (and never crashed).

use bytes::Bytes;
use kalstream::core::frame::FrameBatch;
use kalstream::core::{
    IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec, StreamSession,
};
use kalstream::durable::{Durability, DurableStore};
use kalstream::elastic::{ControllerConfig, ElasticDriver, ResizeKind, SAMPLE_EVERY};
use kalstream::net::workload;
use kalstream::sim::{run_fleet_ingest, IngestSink, LinkFaults};

/// State + covariance of every endpoint, as raw bits.
fn fleet_bits(result: &kalstream::core::IngestResult) -> Vec<(u32, Vec<u64>)> {
    result
        .endpoints
        .iter()
        .map(|(id, ep)| {
            let f = ep.filter();
            let bits = f
                .state()
                .iter()
                .map(|v| v.to_bits())
                .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
                .collect();
            (*id, bits)
        })
        .collect()
}

/// Records each tick's framed wire batch so every run replays identical
/// traffic.
#[derive(Default)]
struct TickRecorder {
    batch: FrameBatch,
    ticks: Vec<Vec<u8>>,
}

impl IngestSink for TickRecorder {
    fn push(&mut self, stream_id: u32, payload: &Bytes) {
        self.batch.push_raw(stream_id, payload);
    }
    fn end_tick(&mut self) {
        let batch = std::mem::take(&mut self.batch);
        self.ticks.push(batch.into_buffer().to_vec());
    }
}

/// The canonical net workload's traffic (sparse, seq-numbered).
fn record_traffic(streams: u32, ticks: u64) -> Vec<Vec<u8>> {
    let ids: Vec<u32> = (0..streams).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut recorder = TickRecorder::default();
    run_fleet_ingest(&mut fleet, ticks, 0, LinkFaults::default(), &mut recorder);
    recorder.ticks
}

/// A framed log whose per-tick volume follows `active(t)`: only the first
/// `active(t)` streams get a volatile signal that tick, the rest see a
/// constant and suppress — offered load swings while the fleet stays in
/// lockstep.
fn record_swing_log(
    n: u32,
    ticks: u64,
    active: impl Fn(u64) -> u32,
) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
    let mut sources = Vec::new();
    let mut servers = Vec::new();
    for id in 0..n {
        let config = ProtocolConfig::new(0.2).unwrap();
        let StreamSession { source, server } =
            SessionSpec::default_scalar(0.0, config).unwrap().build();
        sources.push((id, source));
        servers.push((id, server));
    }
    let mut log = Vec::new();
    for t in 0..ticks {
        let hot = active(t);
        let mut batch = FrameBatch::new();
        for (id, source) in sources.iter_mut() {
            let v = if *id < hot {
                ((t as f64) * 1.3 + *id as f64).sin() * 10.0
            } else {
                0.0
            };
            if let Some(payload) = kalstream::sim::Producer::observe(source, t, &[v]) {
                batch.push_raw(*id, &payload);
            }
        }
        log.push(batch.as_bytes().to_vec());
    }
    (servers, log)
}

fn sequential_bits(endpoints: Vec<(u32, ServerEndpoint)>, log: &[Vec<u8>]) -> Vec<(u32, Vec<u64>)> {
    let mut seq = SequentialIngest::new(endpoints);
    for tick in log {
        seq.ingest_tick(tick);
    }
    fleet_bits(&seq.finish())
}

/// A `shards`-shard pipeline driven through `log` with the `[1, 4]`
/// controller hooked in after every tick.
fn run_elastic(
    shards: usize,
    servers: Vec<(u32, ServerEndpoint)>,
    log: &[Vec<u8>],
) -> (IngestPipeline, ElasticDriver) {
    let mut pipeline = IngestPipeline::start(shards, servers);
    let mut elastic = ElasticDriver::new(ControllerConfig::new(1, 4, 3.0), &mut pipeline);
    for tick in log {
        pipeline.ingest_tick(tick);
        elastic
            .after_tick(&mut pipeline, |pipeline, to| Ok(pipeline.reassign(to)))
            .unwrap();
    }
    (pipeline, elastic)
}

/// A resize issued with ticks still queued to the shard workers (no flush)
/// must wait at the drain barrier: every in-flight tick is applied before
/// the old workers exit, none is dropped, and the final state is
/// bit-identical to the never-resized sequential reference.
#[test]
fn resize_with_ticks_in_flight_waits_for_the_drain_barrier() {
    let streams = 9u32;
    let ticks = 30u64;
    let handoff = 8usize;
    let traffic = record_traffic(streams, ticks);
    let want = sequential_bits(workload::server_endpoints(streams), &traffic);

    let mut pipeline = IngestPipeline::start(3, workload::server_endpoints(streams));
    for wire in &traffic[..handoff] {
        pipeline.ingest_tick(wire);
    }
    // No flush: the handoff ticks may still sit in the workers' queues.
    let transition = pipeline.reassign(2);
    assert_eq!(transition.from, 3);
    assert_eq!(transition.to, 2);
    for wire in &traffic[handoff..] {
        pipeline.ingest_tick(wire);
    }
    let result = pipeline.finish();

    // 3 retired workers + 2 live ones; the retired ones each processed
    // every pre-resize tick — drained at the barrier, not dropped.
    assert_eq!(result.shards.len(), 5);
    for report in &result.shards[..3] {
        assert_eq!(report.ticks, handoff as u64, "in-flight tick dropped");
    }
    for report in &result.shards[3..] {
        assert_eq!(report.ticks, ticks - handoff as u64);
    }
    assert_eq!(fleet_bits(&result), want);
}

/// Quiet load shrinks the fleet all the way to the one-shard floor — and
/// never through it.
#[test]
fn controller_shrinks_to_the_single_shard_floor_on_quiet_load() {
    let active = |_t: u64| -> u32 { 1 };
    let (servers, log) = record_swing_log(8, 80, active);
    let want = sequential_bits(servers.clone(), &log);

    let (pipeline, elastic) = run_elastic(4, servers, &log);
    assert!(
        elastic
            .events()
            .iter()
            .any(|e| e.kind == ResizeKind::Shrink),
        "quiet load must shrink: {:?}",
        elastic.events()
    );
    assert_eq!(pipeline.shards(), 1, "floor is one shard");
    assert_eq!(elastic.controller().shards(), 1);
    assert_eq!(fleet_bits(&pipeline.finish()), want);
}

/// Sawtooth load that alternates hot/quiet every sample window never
/// completes a hysteresis run, so the driver executes zero resizes —
/// the thrash guard, observed end to end.
#[test]
fn sawtooth_load_never_resizes_through_the_driver() {
    let active = move |t: u64| -> u32 {
        if (t / SAMPLE_EVERY).is_multiple_of(2) {
            12
        } else {
            1
        }
    };
    let (servers, log) = record_swing_log(12, 100, active);
    let want = sequential_bits(servers.clone(), &log);

    let (pipeline, elastic) = run_elastic(2, servers, &log);
    assert!(
        elastic.events().is_empty(),
        "hysteresis must absorb the sawtooth: {:?}",
        elastic.events()
    );
    assert_eq!(pipeline.shards(), 2);
    assert_eq!(fleet_bits(&pipeline.finish()), want);
}

/// A crash racing a resize: the resize checkpoints at its barrier, a few
/// more ticks land, then the process dies mid-flight. Recovery rebuilds
/// into the *post-resize* shape from that checkpoint + WAL suffix and the
/// finished run is bit-identical to an uncrashed, unresized sequential
/// reference — shape-change checkpoint reuse under fire.
#[test]
fn resize_racing_a_crash_recovers_into_the_post_resize_shape() {
    let streams = 6u32;
    let ticks = 32u64;
    let resize_at = 12usize;
    let kill = 17usize;
    let traffic = record_traffic(streams, ticks);
    let want = sequential_bits(workload::server_endpoints(streams), &traffic);

    let dir = std::env::temp_dir().join(format!("kalstream-elastic-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Durable pipeline: run, resize at a barrier, run a little, die.
    let store = DurableStore::open(&dir).unwrap();
    let mut pipeline = IngestPipeline::start(2, workload::server_endpoints(streams));
    let mut durable = Durability::start(store, 1000, 0, &pipeline.snapshot_states()).unwrap();
    for wire in &traffic[..resize_at] {
        durable.ingest_tick(&mut pipeline, wire).unwrap();
    }
    let transition = durable.reassign(&mut pipeline, 3).unwrap();
    assert_eq!(transition.to, 3);
    for wire in &traffic[resize_at..kill] {
        durable.ingest_tick(&mut pipeline, wire).unwrap();
    }
    drop((durable, pipeline)); // crash: no checkpoint, no finish, state dropped mid-flight

    // Recover into the post-resize shape. The newest snapshot is the
    // resize-barrier checkpoint (cadence 1000 never fired), so the WAL
    // suffix replayed here is exactly the post-resize ticks.
    let mut store = DurableStore::open(&dir).unwrap();
    let recovery = store.recover().unwrap().expect("resize checkpoint exists");
    assert_eq!(recovery.next_tick(), kill as u64);
    assert_eq!(recovery.wal.len(), kill - resize_at);
    let mut recovered = IngestPipeline::start(3, recovery.endpoints().unwrap());
    recovery.replay_into(&mut recovered);
    let mut resumed =
        Durability::start(store, 1000, kill as u64, &recovered.snapshot_states()).unwrap();
    for wire in &traffic[kill..] {
        resumed.ingest_tick(&mut recovered, wire).unwrap();
    }
    assert_eq!(fleet_bits(&recovered.finish()), want);
    let _ = std::fs::remove_dir_all(&dir);
}
