//! Whole-system crash recovery: kill the ingest process at an arbitrary
//! tick, recover from snapshot + WAL, and the fleet's filter state is
//! **bit-identical** to a run that never crashed — so every suppression,
//! ack, and bound decision after recovery is the one the uncrashed server
//! would have made, and the precision contract holds with zero
//! post-recovery violations.
//!
//! Three layers, matching how state can die:
//!
//! * the ingest pipeline (proptest: random shard count, snapshot cadence,
//!   kill tick — recovery may even change the pipeline shape),
//! * the lockstep fleet (crash injected by the sim runner; the rebuild
//!   closure is exactly a snapshot round-trip),
//! * the TCP server (injected abort mid-serve, restart on the same
//!   directory, clients resume from the `Recovering` hello status).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;

use bytes::Bytes;
use kalstream::core::frame::FrameBatch;
use kalstream::core::{FrameDecoder, IngestPipeline, ProtocolConfig, ServerEndpoint, SessionSpec};
use kalstream::durable::{Durability, DurableConfig, DurableStore};
use kalstream::net::codec::{decode_status, encode_hello, push_marker, STATUS_BYTES};
use kalstream::net::{workload, HelloStatus, NetServer, NetServerConfig};
use kalstream::sim::{
    run_fleet_ingest, run_lockstep, IngestSink, LinkFaults, LockstepStream, SessionConfig,
};
use proptest::prelude::*;

/// State + covariance + staleness of every endpoint, as raw bits.
fn fleet_bits(endpoints: &[(u32, ServerEndpoint)]) -> Vec<(u32, Vec<u64>, Vec<u64>, u64)> {
    endpoints
        .iter()
        .map(|(id, ep)| {
            let f = ep.filter();
            (
                *id,
                f.state().as_slice().iter().map(|v| v.to_bits()).collect(),
                f.covariance()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                ep.staleness(),
            )
        })
        .collect()
}

/// Records each tick's framed wire batch — the byte sequence `ingest_tick`
/// consumes, captured once so every run (reference, crashed, recovered)
/// replays the identical traffic.
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

/// The suppression protocol's own traffic for `streams` streams over
/// `ticks` ticks (sparse, seq-numbered — real workload, not toy frames).
fn record_traffic(streams: u32, ticks: u64) -> Vec<Vec<u8>> {
    let ids: Vec<u32> = (0..streams).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut recorder = TickRecorder::default();
    run_fleet_ingest(&mut fleet, ticks, 0, LinkFaults::default(), &mut recorder);
    recorder.ticks
}

/// The oracle: every endpoint on its own filter, each tick's frames
/// queued on their endpoint (`enqueue_view`) and applied by `advance` — no
/// shard, no lanes. `endpoints` are indexed by stream id.
fn oracle(
    mut endpoints: Vec<(u32, ServerEndpoint)>,
    traffic: &[Vec<u8>],
) -> Vec<(u32, ServerEndpoint)> {
    let mut decoder = FrameDecoder::new();
    for wire in traffic {
        decoder.for_each_wire_message(wire, |id, msg| endpoints[id as usize].1.enqueue_view(msg));
        endpoints.iter_mut().for_each(|(_, ep)| ep.advance());
    }
    endpoints
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill at an arbitrary tick; recover into an arbitrarily *different*
    /// pipeline shape; diverge never. The recovered fleet finishes the
    /// run bit-identical to the uncrashed oracle.
    #[test]
    fn kill_at_arbitrary_tick_recovers_bit_identically(
        streams in 2u32..8,
        shards in 1usize..4,
        snapshot_every in 1u64..9,
        kill_frac in 0.0..1.0f64,
        recover_shards in 1usize..4,
    ) {
        let ticks = 40u64;
        let kill = (kill_frac * ticks as f64) as u64; // 0..=39
        let traffic = record_traffic(streams, ticks);

        let want = fleet_bits(&oracle(workload::server_endpoints(streams), &traffic));

        // Durable pipeline, killed after `kill` ticks (dropped mid-flight,
        // no finish, no final snapshot).
        let dir = tempdir("kill_arbitrary");
        let store = DurableStore::open(&dir).unwrap();
        let mut pipeline = IngestPipeline::start(shards, workload::server_endpoints(streams));
        let mut durable =
            Durability::start(store, snapshot_every, 0, &pipeline.snapshot_states()).unwrap();
        for wire in &traffic[..kill as usize] {
            durable.ingest_tick(&mut pipeline, wire).unwrap();
        }
        drop((durable, pipeline));

        // Recover — into a different shard count than the run that died.
        let mut store = DurableStore::open(&dir).unwrap();
        let recovery = store.recover().unwrap().expect("genesis snapshot exists");
        prop_assert_eq!(recovery.next_tick(), kill);
        let mut recovered = IngestPipeline::start(recover_shards, recovery.endpoints().unwrap());
        recovery.replay_into(&mut recovered);
        let mut resumed =
            Durability::start(store, snapshot_every, kill, &recovered.snapshot_states()).unwrap();
        for wire in &traffic[kill as usize..] {
            resumed.ingest_tick(&mut recovered, wire).unwrap();
        }
        prop_assert_eq!(fleet_bits(&recovered.finish().endpoints), want);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kalstream-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Protocol fleet for the lockstep runner: stream `i` levels at `i`, one
/// shared delta so violations are counted against the real contract.
fn protocol_streams(
    n: usize,
    delta: f64,
) -> Vec<LockstepStream<'static, kalstream::core::SourceEndpoint, ServerEndpoint>> {
    (0..n)
        .map(|i| {
            let session =
                SessionSpec::default_scalar(i as f64, ProtocolConfig::new(delta).unwrap())
                    .unwrap()
                    .build();
            let (source, server) = session.split();
            let mut v = i as f64;
            LockstepStream {
                producer: source,
                consumer: server,
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    v += ((v * 12.9898).sin() * 43758.5453).fract() * 0.2 - 0.1;
                    obs[0] = v;
                    tru[0] = v;
                }),
            }
        })
        .collect()
}

/// Crashing every server at several ticks and rebuilding each from its
/// own snapshot round-trip changes *nothing*: traffic, per-stream error
/// series, and violation counts are bit-identical to the uncrashed fleet,
/// and the precision contract stays clean after every recovery.
#[test]
fn lockstep_crash_with_snapshot_roundtrip_is_invisible_and_violation_free() {
    let delta = 0.75;
    let config = SessionConfig::instant(200, delta);

    let mut plain = protocol_streams(4, delta);
    let reference = run_lockstep(&config, &mut plain, |_, _, _| {});

    let mut crashed = protocol_streams(4, delta);
    let mut rebuilds = 0usize;
    let report = run_lockstep(&config, &mut crashed, |now, _, streams| {
        if [17, 63, 64, 155].contains(&now) {
            for stream in streams {
                // A crash is a snapshot round-trip: capture the full
                // protocol state (filter triplet, seq/ack tracker) and
                // rebuild the endpoint from it — exactly what the durable
                // store does across a real process death.
                stream.consumer = ServerEndpoint::from_state(stream.consumer.state()).unwrap();
                rebuilds += 1;
            }
        }
    });
    assert_eq!(rebuilds, 4 * 4);
    assert_eq!(
        report.total_violations(),
        0,
        "post-recovery contract violation"
    );
    for (r, p) in report.sessions.iter().zip(&reference.sessions) {
        assert_eq!(r.traffic, p.traffic);
        assert_eq!(
            r.error_vs_observed.max_abs().to_bits(),
            p.error_vs_observed.max_abs().to_bits(),
            "recovered fleet diverged from the uncrashed reference"
        );
    }
}

/// One tick's wire bytes (with marker) from recorded traffic.
fn tick_with_marker(frames: &[u8]) -> Vec<u8> {
    let mut wire = frames.to_vec();
    push_marker(&mut wire);
    wire
}

/// The TCP cycle: serve durably, abort after `kill` ticks mid-serve,
/// restart on the same directory, and finish the run from the
/// `Recovering` status — final state bit-identical to a server that
/// never died.
#[test]
fn killed_net_server_restarts_and_reconverges_bit_identically() {
    let streams = 4u32;
    let ticks = 30u64;
    let kill = 11u64;
    let traffic = record_traffic(streams, ticks);
    let dir = tempdir("net_restart");

    let durable_config = || {
        Some(DurableConfig {
            dir: dir.clone(),
            snapshot_every: 4,
        })
    };
    let server_config = NetServerConfig {
        shards: 2,
        expected_conns: 1,
        lockstep: false,
        durable: durable_config(),
        ..NetServerConfig::default()
    };

    // Phase 1: serve with an injected abort after `kill` ticks.
    let server = NetServer::start(
        "127.0.0.1:0",
        workload::server_endpoints(streams),
        NetServerConfig {
            crash_after_ticks: Some(kill),
            ..server_config.clone()
        },
    )
    .expect("bind");
    let addr = server.addr();
    {
        let mut conn = TcpStream::connect(addr).expect("dial");
        conn.write_all(&encode_hello(&(0..streams).collect::<Vec<_>>()))
            .expect("hello");
        let mut status = [0u8; STATUS_BYTES];
        conn.read_exact(&mut status).expect("status");
        assert_eq!(decode_status(&status), Ok(HelloStatus::Ready));
        for frames in &traffic {
            // The server dies mid-run: writes after the abort may fail.
            if conn.write_all(&tick_with_marker(frames)).is_err() {
                break;
            }
        }
        // Leave the connection open until the server aborts it.
        let err = server.join().expect_err("injected crash must surface");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    }

    // Phase 2: restart on the same directory; the hello reply says where
    // to resume, and the client replays from exactly that tick.
    let server = NetServer::start(
        "127.0.0.1:0",
        workload::server_endpoints(streams),
        server_config,
    )
    .expect("rebind");
    let addr = server.addr();
    let mut conn = TcpStream::connect(addr).expect("redial");
    conn.write_all(&encode_hello(&(0..streams).collect::<Vec<_>>()))
        .expect("hello");
    let mut status = [0u8; STATUS_BYTES];
    conn.read_exact(&mut status).expect("status");
    assert_eq!(
        decode_status(&status),
        Ok(HelloStatus::Recovering { next_tick: kill })
    );
    for frames in &traffic[kill as usize..] {
        conn.write_all(&tick_with_marker(frames))
            .expect("resume tick");
    }
    drop(conn);
    let report = server.join().expect("recovered serve");
    assert_eq!(report.ticks, ticks - kill);

    // Bit-identical to the uncrashed oracle over all ticks. (Shard message
    // *counters* legitimately differ — the restarted pipeline never saw
    // the pre-crash ticks; the recovered endpoint state, including
    // cumulative protocol counters, must not.)
    let want = oracle(workload::server_endpoints(streams), &traffic);
    assert_eq!(fleet_bits(&report.ingest.endpoints), fleet_bits(&want));
    for ((ia, ea), (ib, eb)) in report.ingest.endpoints.iter().zip(&want) {
        assert_eq!(ia, ib);
        assert_eq!(
            ea.syncs_applied(),
            eb.syncs_applied(),
            "stream {ia}: protocol counters diverged across the restart"
        );
    }
    let durable = report.durable.expect("durable stats present");
    assert!(durable.replay_ticks.get() > 0, "recovery replayed the WAL");
    let _ = std::fs::remove_dir_all(&dir);
}
