//! Fleet-level bit-identity: a fleet driven over real TCP connections
//! through [`NetServer`]'s sharded pipeline converges to exactly the
//! filter state the simulator's ingest mode produces through the oracle —
//! every endpoint on its own filter — reliable or lossy, lockstep or
//! throughput mode —
//! and a durable server restarted after a clean shutdown resumes that
//! state without replaying anything. With acks on, the feedback both
//! sides hand back to the sources matches too.

use std::io::{Read as _, Write as _};

use bytes::Bytes;
use crossbeam::channel::Sender;
use kalstream_core::{
    FrameDecoder, FramingSink, IngestResult, ServerEndpoint, ShardReport, SourceEndpoint,
    TickIngest,
};
use kalstream_durable::DurableConfig;
use kalstream_net::codec::{decode_status, encode_hello, STATUS_BYTES};
use kalstream_net::{
    workload, ClientConfig, ClientReport, HelloStatus, NetReport, NetServer, NetServerConfig,
};
use kalstream_sim::{
    run_fleet_ingest, Consumer, IngestFleetReport, IngestStream, LinkFaults, Producer,
    TrafficMetrics,
};

const OVERHEAD: usize = 8;

/// The oracle every ingest engine is held to: each endpoint on its own
/// filter. Per tick, every frame is queued on its endpoint
/// (`enqueue_view`), every endpoint advances (predict, then apply), and
/// with a feedback channel each endpoint's feedback is polled, streams in
/// id order — no shard and no lanes.
struct Oracle {
    endpoints: Vec<(u32, ServerEndpoint)>,
    decoder: FrameDecoder,
    feedback: Option<Sender<(u32, Bytes)>>,
    report: ShardReport,
}

impl Oracle {
    fn new(endpoints: Vec<(u32, ServerEndpoint)>, feedback: Option<Sender<(u32, Bytes)>>) -> Self {
        Oracle {
            endpoints,
            decoder: FrameDecoder::new(),
            feedback,
            report: ShardReport::default(),
        }
    }

    fn finish(self) -> IngestResult {
        IngestResult {
            shards: vec![self.report],
            endpoints: self.endpoints,
            router_decode_failures: 0,
        }
    }
}

impl TickIngest for Oracle {
    fn ingest_tick(&mut self, wire: &[u8]) {
        let Oracle {
            endpoints,
            decoder,
            feedback,
            report,
        } = self;
        decoder.for_each_wire_message(wire, |id, msg| {
            report.messages += 1;
            endpoints[id as usize].1.enqueue_view(msg);
        });
        for (id, ep) in endpoints.iter_mut() {
            ep.advance();
            if let Some(tx) = feedback {
                while let Some(payload) = ep.poll_feedback(report.ticks) {
                    tx.send((*id, payload)).expect("feedback receiver");
                    report.feedback_out += 1;
                }
            }
        }
        report.ticks += 1;
    }
}

/// The simulator reference: the same workload through per-stream faulty
/// links into the oracle.
fn reference(streams: u32, ticks: u64, faults: LinkFaults) -> IngestResult {
    let ids: Vec<u32> = (0..streams).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut sink = FramingSink::new(Oracle::new(workload::server_endpoints(streams), None));
    run_fleet_ingest(&mut fleet, ticks, OVERHEAD, faults, &mut sink);
    sink.into_inner().finish()
}

/// A source endpoint that counts the feedback it is handed.
struct Counted<'a> {
    source: &'a mut SourceEndpoint,
    feedback: &'a mut u64,
}

impl Producer for Counted<'_> {
    fn dim(&self) -> usize {
        self.source.dim()
    }
    fn observe(&mut self, now: u64, observed: &[f64]) -> Option<Bytes> {
        self.source.observe(now, observed)
    }
    fn feedback(&mut self, now: u64, payload: &Bytes) {
        *self.feedback += 1;
        self.source.feedback(now, payload);
    }
}

/// Per source after a run: `(resyncs, feedback payloads delivered)`.
type SourceOutcome = Vec<(u64, u64)>;

/// Runs the workload's sources for `ids` through `drive` and reads each
/// one back afterwards.
fn with_sources<R>(
    ids: &[u32],
    ack_timeout: Option<u64>,
    drive: impl FnOnce(&mut [IngestStream<'_>]) -> R,
) -> (R, SourceOutcome) {
    let mut parts = workload::sources(ids, ack_timeout);
    let mut delivered = vec![0u64; ids.len()];
    let mut streams: Vec<IngestStream<'_>> = parts
        .iter_mut()
        .zip(&mut delivered)
        .map(|((id, source, sampler), feedback)| IngestStream {
            stream_id: *id,
            producer: Box::new(Counted { source, feedback }),
            sampler: Box::new(|obs: &mut [f64], tru: &mut [f64]| sampler(obs, tru)),
        })
        .collect();
    let out = drive(&mut streams);
    drop(streams);
    let outcome = parts.iter().map(|(_, source, _)| source.resyncs());
    (out, outcome.zip(delivered).collect())
}

/// The system under test: the same workload over `conns` real TCP
/// connections into a running [`NetServer`].
fn over_tcp(
    streams: u32,
    conns: usize,
    ticks: u64,
    faults: LinkFaults,
    lockstep: bool,
    shards: usize,
) -> NetReport {
    over_tcp_inner(streams, conns, ticks, faults, lockstep, shards, None).net
}

/// [`over_tcp`] with sequenced syncs + ack feedback enabled, lockstep.
fn over_tcp_acked(streams: u32, conns: usize, ticks: u64, ack_timeout: u64) -> TcpRun {
    over_tcp_inner(
        streams,
        conns,
        ticks,
        LinkFaults::default(),
        true,
        2,
        Some(ack_timeout),
    )
}

/// Both ends of one TCP run.
struct TcpRun {
    net: NetReport,
    /// Per connection, in connection order.
    clients: Vec<ClientReport>,
    /// Per stream, in id order.
    sources: SourceOutcome,
}

fn over_tcp_inner(
    streams: u32,
    conns: usize,
    ticks: u64,
    faults: LinkFaults,
    lockstep: bool,
    shards: usize,
    ack_timeout: Option<u64>,
) -> TcpRun {
    assert_eq!(streams as usize % conns, 0);
    let per_conn = streams as usize / conns;
    let endpoints = match ack_timeout {
        Some(t) => workload::server_endpoints_acked(streams, t),
        None => workload::server_endpoints(streams),
    };
    let server = NetServer::start(
        "127.0.0.1:0",
        endpoints,
        NetServerConfig {
            shards,
            expected_conns: conns,
            lockstep,
            ..NetServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let client_threads: Vec<_> = (0..conns)
        .map(|conn| {
            let addr = addr.clone();
            let config = ClientConfig {
                ticks,
                overhead_bytes: OVERHEAD,
                faults,
                lockstep,
                expect_status: false,
            };
            std::thread::spawn(move || {
                let base = (conn * per_conn) as u64;
                let ids: Vec<u32> = (0..per_conn).map(|k| base as u32 + k as u32).collect();
                with_sources(&ids, ack_timeout, |fleet| {
                    kalstream_net::drive_connection(&addr, fleet, base, &config)
                        .expect("connection")
                })
            })
        })
        .collect();
    let mut clients = Vec::new();
    let mut sources = Vec::new();
    for t in client_threads {
        let (client, outcome) = t.join().expect("client thread");
        clients.push(client);
        sources.extend(outcome);
    }
    TcpRun {
        net: server.join().expect("server"),
        clients,
        sources,
    }
}

fn assert_clean_and_identical(report: &kalstream_net::NetReport, reference: &IngestResult) {
    assert_eq!(report.rejected_hellos, 0);
    assert_eq!(report.total_shed(), 0, "feedback shed on a reading fleet");
    assert!(
        workload::ingest_identical(&report.ingest, reference),
        "TCP fleet state diverged from the sim-driven oracle"
    );
}

#[test]
fn reliable_fleet_over_tcp_is_bit_identical_to_sim() {
    let reference = reference(12, 50, LinkFaults::default());
    for (lockstep, shards) in [(true, 3), (false, 3), (false, 2)] {
        let report = over_tcp(12, 4, 50, LinkFaults::default(), lockstep, shards);
        assert_clean_and_identical(&report, &reference);
        assert_eq!(report.ticks, 50);
    }
}

#[test]
fn lossy_fleet_over_tcp_is_bit_identical_to_sim() {
    let faults = LinkFaults {
        loss: 0.2,
        dup: 0.05,
        reorder: 0.1,
        seed: 42,
        ..LinkFaults::default()
    };
    let reference = reference(12, 80, faults);
    for lockstep in [true, false] {
        let report = over_tcp(12, 3, 80, faults, lockstep, 3);
        assert_clean_and_identical(&report, &reference);
    }
}

/// A durable run of exactly two snapshot intervals ends on a cadence
/// barrier, so teardown's checkpoint has nothing to add: genesis plus the
/// two cadence snapshots. The server restarted on that directory resumes at
/// the barrier with nothing to replay and the fleet bit for bit.
#[test]
fn clean_shutdown_on_a_cadence_barrier_snapshots_it_once() {
    let (streams, snapshot_every) = (4u32, 5u64);
    let dir = std::env::temp_dir().join(format!("kalstream-net-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = NetServerConfig {
        shards: 2,
        expected_conns: 1,
        lockstep: true,
        durable: Some(DurableConfig {
            dir: dir.clone(),
            snapshot_every,
        }),
        ..NetServerConfig::default()
    };
    let start = || {
        NetServer::start(
            "127.0.0.1:0",
            workload::server_endpoints(streams),
            config.clone(),
        )
        .expect("bind")
    };

    let server = start();
    let ids: Vec<u32> = (0..streams).collect();
    let client = ClientConfig {
        ticks: 2 * snapshot_every,
        overhead_bytes: OVERHEAD,
        faults: LinkFaults::default(),
        lockstep: true,
        expect_status: true,
    };
    kalstream_net::drive_connection(
        &server.addr().to_string(),
        &mut workload::source_streams(&ids),
        0,
        &client,
    )
    .expect("connection");
    let first = server.join().expect("server");
    assert_eq!(first.ticks, 2 * snapshot_every);
    let durable = first.durable.as_ref().expect("durable stats");
    let written = durable.snapshots_written.get();
    assert_eq!(written, 1 + 2, "genesis + 2 cadence");

    let server = start();
    {
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("dial");
        conn.write_all(&encode_hello(&ids)).expect("hello");
        let mut status = [0u8; STATUS_BYTES];
        conn.read_exact(&mut status).expect("status");
        assert_eq!(
            decode_status(&status),
            Ok(HelloStatus::Recovering {
                next_tick: 2 * snapshot_every
            })
        );
    }
    let restarted = server.join().expect("restarted server");
    assert_eq!((restarted.ticks, restarted.replayed_ticks), (0, 0));
    let (got, want) = (&restarted.ingest.endpoints, &first.ingest.endpoints);
    assert_eq!(got.len(), want.len());
    for ((ia, ea), (ib, eb)) in got.iter().zip(want) {
        assert_eq!(ia, ib);
        assert_eq!(ea.syncs_applied(), eb.syncs_applied(), "stream {ia}");
        assert_eq!(
            workload::endpoint_bits(ea),
            workload::endpoint_bits(eb),
            "stream {ia} changed across the restart"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lockstep_fleet_receives_acks() {
    // Sequenced feedback flows back over the sockets: in lockstep mode
    // every ack is routed before the tick is acknowledged, so none shed.
    let report = over_tcp_acked(6, 2, 40, 8).net;
    let sent: u64 = report.conns.iter().map(|c| c.feedback_sent).sum();
    let polled: u64 = report.ingest.shards.iter().map(|s| s.feedback_out).sum();
    assert!(polled > 0, "pipeline polled no feedback");
    assert_eq!(sent, polled, "every polled payload reached a conn queue");
    assert_eq!(report.total_shed(), 0);
    // And the snapshot exposes the per-conn gauges the obs layer gates on.
    let snap = report.snapshot();
    assert_eq!(snap.counter("net.shed"), Some(0));
    assert_eq!(snap.counter("net.conns"), Some(2));
    assert!(snap.gauge("net.conn.0.queue_high_water").is_some());
}

/// A reliable acked fleet in lockstep hands every ack to its producer, so
/// no sync ever goes overdue: zero timeout resyncs. A client that only
/// counted the acks would resend each sync as a forced Model + State
/// resync `ack_timeout` ticks after it shipped.
#[test]
fn lockstep_client_hands_acks_to_its_producers() {
    let run = over_tcp_acked(6, 2, 40, 8);
    assert!(
        run.sources.iter().all(|&(_, fed)| fed > 0),
        "{:?}",
        run.sources
    );
    assert_eq!(
        run.sources
            .iter()
            .map(|&(resyncs, _)| resyncs)
            .collect::<Vec<_>>(),
        vec![0; 6],
        "a sync went overdue although its ack came back"
    );
}

/// The simulator's ingest mode with feedback: the workload through
/// per-stream faulty links into the feedback-returning oracle, whose acks
/// ride each stream's reverse link back to its producer.
fn sim_acked(
    streams: u32,
    ticks: u64,
    faults: LinkFaults,
    ack_timeout: u64,
) -> (IngestFleetReport, IngestResult, SourceOutcome, u64) {
    let (tx, rx) = crossbeam::channel::unbounded();
    let oracle = Oracle::new(
        workload::server_endpoints_acked(streams, ack_timeout),
        Some(tx),
    );
    let mut sink = FramingSink::with_feedback(oracle, rx);
    let ids: Vec<u32> = (0..streams).collect();
    let (report, sources) = with_sources(&ids, Some(ack_timeout), |fleet| {
        run_fleet_ingest(fleet, ticks, OVERHEAD, faults, &mut sink)
    });
    let result = sink.into_inner().finish();
    let polled = result.shards.iter().map(|s| s.feedback_out).sum();
    (report, result, sources, polled)
}

/// Sim-driven ingest with feedback into the oracle ≡ the same fleet
/// through `NetServer` over real sockets, with acks on and 10 % loss in
/// both directions: the same filter bits, forward traffic, feedback
/// delivered and resyncs, stream for stream. Every timeout resync is a
/// Model sync carrying the source's own adapted noise, which the server's
/// lanes rewrite in place while the fleet runs.
#[test]
fn lossy_acked_sim_ingest_matches_the_fleet_over_tcp() {
    let (streams, ticks, ack_timeout) = (8u32, 120u64, 6u64);
    let faults = LinkFaults {
        loss: 0.1,
        seed: 31,
        ..LinkFaults::default()
    };
    let (sim, sim_result, sim_sources, polled) = sim_acked(streams, ticks, faults, ack_timeout);
    let tcp = over_tcp_inner(streams, 2, ticks, faults, true, 2, Some(ack_timeout));

    assert_clean_and_identical(&tcp.net, &sim_result);
    let mut tcp_traffic = TrafficMetrics::default();
    let mut tcp_dropped = 0;
    for client in &tcp.clients {
        tcp_traffic.merge(&client.traffic);
        tcp_dropped += client.faults.dropped;
    }
    assert_eq!(sim.total_traffic, tcp_traffic, "forward messages");
    assert_eq!(sim.faults.dropped, tcp_dropped);
    assert_eq!(sim_sources, tcp.sources, "per source (resyncs, feedback)");
    let routed: u64 = tcp.net.conns.iter().map(|c| c.feedback_sent).sum();
    assert_eq!(
        (routed, sim.feedback.messages()),
        (polled, polled),
        "feedback sent"
    );

    // Not vacuous: both directions lost messages, acks still got through,
    // and the ack timeout fired.
    assert!(sim.faults.dropped > 0, "no forward message dropped");
    let delivered: u64 = sim_sources.iter().map(|&(_, fed)| fed).sum();
    assert!(delivered > 0, "no ack reached a producer");
    assert!(delivered < polled, "no feedback dropped on a reverse link");
    assert!(sim_sources.iter().any(|&(resyncs, _)| resyncs > 0));
}
