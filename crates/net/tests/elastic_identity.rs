//! Elastic serving: a fleet over real TCP connections with the
//! closed-loop controller enabled keeps every connection alive across
//! resizes (they execute on the router thread between global ticks) and
//! converges to exactly the filter state the simulator's sequential
//! reference produces — growth is invisible to the protocol. With
//! durability hooked in as well, the same holds, and a crash mid-serve
//! recovers into it bit-identically. The controller reads only the frames
//! offered, so the served decisions are exactly those of a replay of the
//! recorded traffic.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};

use kalstream_core::{FramingSink, IngestPipeline, IngestResult, SequentialIngest, TickIngest};
use kalstream_durable::DurableConfig;
use kalstream_elastic::{ControllerConfig, ElasticDriver, ResizeEvent, ResizeKind};
use kalstream_net::codec::{decode_status, encode_hello, push_marker, STATUS_BYTES};
use kalstream_net::{workload, ClientConfig, HelloStatus, NetReport, NetServer, NetServerConfig};
use kalstream_sim::{run_fleet_ingest, LinkFaults};

const OVERHEAD: usize = 8;
const STREAMS: u32 = 12;
const CONNS: usize = 4;
const TICKS: u64 = 60;

fn reference() -> IngestResult {
    let ids: Vec<u32> = (0..STREAMS).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut sink = FramingSink::new(SequentialIngest::new(workload::server_endpoints(STREAMS)));
    run_fleet_ingest(
        &mut fleet,
        TICKS,
        OVERHEAD,
        LinkFaults::default(),
        &mut sink,
    );
    sink.into_inner().finish()
}

/// An eager controller: one frame per tick saturates a shard, so the
/// canonical workload's offered load forces growth off the single initial
/// shard within a couple of sample windows.
fn eager_elastic() -> ControllerConfig {
    ControllerConfig::new(1, 4, 1.0)
}

/// Keeps each tick's framed batch as the sim's ingest mode emits it.
struct Recorder(Vec<Vec<u8>>);

impl TickIngest for Recorder {
    fn ingest_tick(&mut self, wire: &[u8]) {
        self.0.push(wire.to_vec());
    }
}

/// The canonical fleet's framed per-tick log, recorded in sim ingest mode.
fn traffic() -> Vec<Vec<u8>> {
    let ids: Vec<u32> = (0..STREAMS).collect();
    let mut recorder = FramingSink::new(Recorder(Vec::new()));
    run_fleet_ingest(
        &mut workload::source_streams(&ids),
        TICKS,
        OVERHEAD,
        LinkFaults::default(),
        &mut recorder,
    );
    recorder.into_inner().0
}

/// The recorded traffic replayed through a one-shard pipeline with
/// [`eager_elastic`] hooked in after every tick: the resizes it executed
/// and the shard count it ended on.
fn replayed_resizes() -> (Vec<ResizeEvent>, usize) {
    let log = traffic();
    assert_eq!(log.len() as u64, TICKS);
    let mut pipeline = IngestPipeline::start(1, workload::server_endpoints(STREAMS));
    let mut driver = ElasticDriver::new(eager_elastic(), &mut pipeline);
    for tick in &log {
        pipeline.ingest_tick(tick);
        driver
            .after_tick(&mut pipeline, |pipeline, to| Ok(pipeline.reassign(to)))
            .expect("volatile resize");
    }
    let shards = pipeline.shards();
    pipeline.finish();
    (driver.events().to_vec(), shards)
}

/// Serves the canonical fleet over `CONNS` lockstep connections under
/// `config` and returns the drained server's report.
fn serve_fleet(config: NetServerConfig) -> NetReport {
    let per_conn = STREAMS as usize / CONNS;
    let expect_status = config.durable.is_some();
    let server = NetServer::start(
        "127.0.0.1:0",
        workload::server_endpoints(STREAMS),
        NetServerConfig {
            shards: 1,
            expected_conns: CONNS,
            lockstep: true,
            elastic: Some(eager_elastic()),
            ..config
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let client_threads: Vec<_> = (0..CONNS)
        .map(|conn| {
            let addr = addr.clone();
            let config = ClientConfig {
                ticks: TICKS,
                overhead_bytes: OVERHEAD,
                faults: LinkFaults::default(),
                lockstep: true,
                expect_status,
            };
            std::thread::spawn(move || {
                let base = (conn * per_conn) as u64;
                let ids: Vec<u32> = (0..per_conn).map(|k| base as u32 + k as u32).collect();
                let mut fleet = workload::source_streams(&ids);
                kalstream_net::drive_connection(&addr, &mut fleet, base, &config)
                    .expect("connection survives every resize")
            })
        })
        .collect();
    for t in client_threads {
        t.join().expect("client thread");
    }
    server.join().expect("server")
}

#[test]
fn elastic_tcp_fleet_grows_without_dropping_connections_and_stays_bit_identical() {
    let report = serve_fleet(NetServerConfig::default());

    // Every connection was admitted, saw every tick, and drained cleanly.
    assert_eq!(report.rejected_hellos, 0);
    assert_eq!(report.total_shed(), 0);
    assert_eq!(report.ticks, TICKS);
    assert_eq!(report.conns.len(), CONNS);
    for c in &report.conns {
        assert_eq!(
            c.ticks, TICKS,
            "conn {} missed ticks across a resize",
            c.conn
        );
    }

    // The controller really resized the pipeline mid-serve.
    let elastic = report.elastic.as_ref().expect("elastic stats reported");
    assert!(
        elastic.grows >= 1,
        "eager controller must grow: {elastic:?}"
    );
    assert!(elastic.final_shards > 1, "fleet ended on {elastic:?}");

    // And none of it is visible in the filter arithmetic.
    assert!(
        workload::ingest_identical(&report.ingest, &reference()),
        "elastic TCP fleet diverged from the sequential sim reference"
    );

    // The obs snapshot carries the controller counters for the CI lane.
    let snap = report.snapshot();
    assert_eq!(snap.counter("net.elastic.grows"), Some(elastic.grows));
    assert!(snap.gauge("net.elastic.final_shards").is_some());
}

/// Elastic decisions follow the traffic and nothing else: the fleet
/// served over sockets grows and shrinks exactly as its recorded log does
/// replayed through a pipeline and a driver with the same config.
#[test]
fn served_elastic_decisions_match_a_replay_of_the_traffic() {
    let report = serve_fleet(NetServerConfig::default());
    let served = report.elastic.as_ref().expect("elastic stats reported");
    let (events, final_shards) = replayed_resizes();
    let count = |kind: ResizeKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert!(count(ResizeKind::Grow) >= 1, "the replay grows: {events:?}");
    assert_eq!(
        (served.grows, served.shrinks, served.final_shards),
        (
            count(ResizeKind::Grow),
            count(ResizeKind::Shrink),
            final_shards
        ),
        "served decisions differ from the replay's {events:?}"
    );
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kalstream-elastic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Both hooks at once — the composition no other test, bench or binary
/// builds: WAL append before every tick, cadence snapshots, and every
/// elastic resize behind its own checkpoint.
#[test]
fn durable_elastic_tcp_fleet_resizes_and_stays_bit_identical() {
    let dir = tmp_dir("durable-fleet");
    let report = serve_fleet(NetServerConfig {
        durable: Some(DurableConfig {
            dir: dir.clone(),
            snapshot_every: 7,
        }),
        ..NetServerConfig::default()
    });
    assert_eq!(report.total_shed(), 0);
    assert_eq!(report.ticks, TICKS);
    let elastic = report.elastic.as_ref().expect("elastic stats reported");
    let resizes = elastic.grows + elastic.shrinks;
    assert!(resizes >= 1, "eager controller must resize");
    let durable = report.durable.as_ref().expect("durable stats reported");
    // One snapshot per distinct barrier: genesis, every cadence barrier, the
    // final one (TICKS is not a multiple of 7) and every resize barrier. A
    // resize on a barrier that already has its snapshot reuses it. The
    // resizes are those of a replay of the traffic.
    let (events, _) = replayed_resizes();
    assert_eq!(resizes, events.len() as u64);
    let own_barrier = events
        .iter()
        .filter(|e| e.tick % 7 != 0 && e.tick != TICKS)
        .count() as u64;
    assert_eq!(
        durable.snapshots_written.get(),
        2 + TICKS / 7 + own_barrier,
        "every resize barrier has a snapshot: {durable:?} vs {events:?}"
    );
    assert!(
        workload::ingest_identical(&report.ingest, &reference()),
        "durable elastic TCP fleet diverged from the sequential sim reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dials `server`, claims the whole fleet, checks the hello status, and
/// writes `ticks` (marker-delimited) until done or the server dies. Returns
/// the open connection: dropping it while the server's return markers sit
/// unread resets it, and a reset discards the ticks still in the send
/// queue, so the caller decides when it closes.
fn replay(server: &NetServer, want_status: HelloStatus, ticks: &[Vec<u8>]) -> TcpStream {
    let mut conn = TcpStream::connect(server.addr()).expect("dial");
    conn.write_all(&encode_hello(&(0..STREAMS).collect::<Vec<_>>()))
        .expect("hello");
    let mut status = [0u8; STATUS_BYTES];
    conn.read_exact(&mut status).expect("status");
    assert_eq!(decode_status(&status), Ok(want_status));
    for frames in ticks {
        let mut wire = frames.clone();
        push_marker(&mut wire);
        if conn.write_all(&wire).is_err() {
            break; // the server aborted mid-run
        }
    }
    conn
}

/// Crash the durable + elastic server mid-serve, after it has resized;
/// restart on the same directory. Recovery replays into the configured
/// initial shape, the controller resizes again, and the finished fleet is
/// bit-identical to one that never died.
#[test]
fn durable_elastic_server_crash_recovers_bit_identically() {
    let kill = 23u64;
    let traffic = traffic();

    let dir = tmp_dir("durable-crash");
    let config = NetServerConfig {
        shards: 1,
        expected_conns: 1,
        lockstep: true,
        durable: Some(DurableConfig {
            dir: dir.clone(),
            snapshot_every: 7,
        }),
        elastic: Some(eager_elastic()),
        ..NetServerConfig::default()
    };
    let start = |config: NetServerConfig| {
        NetServer::start("127.0.0.1:0", workload::server_endpoints(STREAMS), config).expect("bind")
    };

    let server = start(NetServerConfig {
        crash_after_ticks: Some(kill),
        ..config.clone()
    });
    let conn = replay(&server, HelloStatus::Ready, &traffic);
    // Leave the connection open until the server aborts it.
    let err = server.join().expect_err("injected crash must surface");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    drop(conn);

    let server = start(config);
    let mut conn = replay(
        &server,
        HelloStatus::Recovering { next_tick: kill },
        &traffic[kill as usize..],
    );
    // Close the write half and read the return markers to EOF, so every
    // tick reaches the server before the socket closes.
    conn.shutdown(Shutdown::Write).expect("shutdown");
    conn.read_to_end(&mut Vec::new()).expect("drain");
    let report = server.join().expect("recovered serve");
    assert_eq!(report.ticks, TICKS - kill);
    assert!(report.replayed_ticks > 0, "recovery replayed the WAL");
    let elastic = report.elastic.as_ref().expect("elastic stats reported");
    assert!(
        elastic.grows >= 1,
        "recovered server resizes again: {elastic:?}"
    );

    // Shard message *counters* legitimately differ (the restarted pipeline
    // never saw the pre-crash ticks); the recovered endpoints must not.
    let want = reference();
    assert_eq!(report.ingest.endpoints.len(), want.endpoints.len());
    for ((ia, ea), (ib, eb)) in report.ingest.endpoints.iter().zip(&want.endpoints) {
        assert_eq!(ia, ib);
        assert_eq!(ea.syncs_applied(), eb.syncs_applied(), "stream {ia}");
        assert_eq!(
            workload::endpoint_bits(ea),
            workload::endpoint_bits(eb),
            "stream {ia} diverged across the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
