//! Elastic serving: a fleet over real TCP connections with the
//! closed-loop controller enabled keeps every connection alive across
//! resizes (they execute on the router thread between global ticks) and
//! converges to exactly the filter state the simulator's sequential
//! reference produces — growth is invisible to the protocol. With
//! durability hooked in as well, the same holds, and a crash mid-serve
//! recovers into it bit-identically.

use std::io::{Read as _, Write as _};

use kalstream_core::{FramingSink, IngestResult, SequentialIngest, TickIngest};
use kalstream_durable::DurableConfig;
use kalstream_elastic::{ControllerConfig, ElasticConfig};
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
    run_fleet_ingest(&mut fleet, TICKS, OVERHEAD, &mut sink);
    sink.into_inner().finish()
}

/// An eager controller: one frame per tick saturates a shard, so the
/// canonical workload's offered load forces growth off the single initial
/// shard within a couple of sample windows.
fn eager_elastic() -> ElasticConfig {
    let mut controller = ControllerConfig::new(1, 4, 1.0);
    controller.grow_after = 2;
    controller.cooldown = 1;
    ElasticConfig::new(controller, 5)
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
    assert!(elastic.resizes >= 1, "eager controller must resize");
    let durable = report.durable.as_ref().expect("durable stats reported");
    // One snapshot per distinct barrier: genesis, every cadence barrier, the
    // final one (TICKS is not a multiple of 7) and every resize barrier. A
    // resize on a barrier that already has its snapshot reuses it, and
    // resizes run only at sample barriers, so those that can share one are
    // the sample barriers that are cadence or final barriers too (35 and 60
    // here); which samples resize depends on live queue depths.
    let sample_every = eager_elastic().sample_every;
    let shareable = (sample_every..=TICKS)
        .step_by(sample_every as usize)
        .filter(|&t| t % 7 == 0 || t == TICKS)
        .count() as u64;
    let base = 2 + TICKS / 7;
    assert!(
        (base + elastic.resizes.saturating_sub(shareable)..=base + elastic.resizes)
            .contains(&durable.snapshots_written.get()),
        "every resize barrier has a snapshot: {durable:?} vs {elastic:?}"
    );
    assert!(
        workload::ingest_identical(&report.ingest, &reference()),
        "durable elastic TCP fleet diverged from the sequential sim reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keeps each tick's framed batch as the sim's ingest mode emits it.
struct Recorder(Vec<Vec<u8>>);

impl TickIngest for Recorder {
    fn ingest_tick(&mut self, wire: &[u8]) {
        self.0.push(wire.to_vec());
    }
}

/// Dials `server`, claims the whole fleet, checks the hello status, and
/// writes `ticks` (marker-delimited) until done or the server dies.
fn replay(server: &NetServer, want_status: HelloStatus, ticks: &[Vec<u8>]) {
    let mut conn = std::net::TcpStream::connect(server.addr()).expect("dial");
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
}

/// Crash the durable + elastic server mid-serve, after it has resized;
/// restart on the same directory. Recovery replays into the configured
/// initial shape, the controller resizes again, and the finished fleet is
/// bit-identical to one that never died.
#[test]
fn durable_elastic_server_crash_recovers_bit_identically() {
    let kill = 23u64;
    let ids: Vec<u32> = (0..STREAMS).collect();
    let mut recorder = FramingSink::new(Recorder(Vec::new()));
    run_fleet_ingest(
        &mut workload::source_streams(&ids),
        TICKS,
        OVERHEAD,
        &mut recorder,
    );
    let traffic = recorder.into_inner().0;

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
    replay(&server, HelloStatus::Ready, &traffic);
    let err = server.join().expect_err("injected crash must surface");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);

    let server = start(config);
    replay(
        &server,
        HelloStatus::Recovering { next_tick: kill },
        &traffic[kill as usize..],
    );
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
