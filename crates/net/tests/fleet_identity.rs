//! Fleet-level bit-identity: a fleet driven over real TCP connections
//! through [`NetServer`]'s sharded pipeline converges to exactly the
//! filter state the simulator's ingest mode produces through the
//! sequential reference — reliable or lossy, lockstep or throughput mode —
//! and a durable server restarted after a clean shutdown resumes that
//! state without replaying anything.

use std::io::{Read as _, Write as _};

use kalstream_core::{FramingSink, IngestResult, SequentialIngest};
use kalstream_durable::DurableConfig;
use kalstream_net::codec::{decode_status, encode_hello, STATUS_BYTES};
use kalstream_net::{workload, ClientConfig, HelloStatus, NetServer, NetServerConfig};
use kalstream_sim::{run_fleet_ingest_faulty, LinkFaults};

const OVERHEAD: usize = 8;

/// The simulator reference: the same workload through per-stream faulty
/// links into the sequential ingester.
fn reference(streams: u32, ticks: u64, faults: LinkFaults) -> IngestResult {
    let ids: Vec<u32> = (0..streams).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut sink = FramingSink::new(SequentialIngest::new(workload::server_endpoints(streams)));
    run_fleet_ingest_faulty(&mut fleet, ticks, OVERHEAD, faults, &mut sink);
    sink.into_inner().finish()
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
    batched: bool,
) -> kalstream_net::NetReport {
    over_tcp_inner(
        streams, conns, ticks, faults, lockstep, shards, batched, None,
    )
}

/// [`over_tcp`] with sequenced syncs + ack feedback enabled, lockstep.
fn over_tcp_acked(
    streams: u32,
    conns: usize,
    ticks: u64,
    ack_timeout: u64,
) -> kalstream_net::NetReport {
    over_tcp_inner(
        streams,
        conns,
        ticks,
        LinkFaults::default(),
        true,
        2,
        false,
        Some(ack_timeout),
    )
}

#[allow(clippy::too_many_arguments)]
fn over_tcp_inner(
    streams: u32,
    conns: usize,
    ticks: u64,
    faults: LinkFaults,
    lockstep: bool,
    shards: usize,
    batched: bool,
    ack_timeout: Option<u64>,
) -> kalstream_net::NetReport {
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
            batched,
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
                let mut fleet = match ack_timeout {
                    Some(t) => workload::source_streams_acked(&ids, t),
                    None => workload::source_streams(&ids),
                };
                kalstream_net::drive_connection(&addr, &mut fleet, base, &config)
                    .expect("connection")
            })
        })
        .collect();
    for t in client_threads {
        t.join().expect("client thread");
    }
    server.join().expect("server")
}

fn assert_clean_and_identical(report: &kalstream_net::NetReport, reference: &IngestResult) {
    assert_eq!(report.rejected_hellos, 0);
    assert_eq!(report.total_shed(), 0, "feedback shed on a reading fleet");
    assert!(
        workload::ingest_identical(&report.ingest, reference),
        "TCP fleet state diverged from the sequential sim reference"
    );
}

#[test]
fn reliable_fleet_over_tcp_is_bit_identical_to_sim() {
    let reference = reference(12, 50, LinkFaults::default());
    for (lockstep, shards, batched) in [(true, 3, false), (false, 3, false), (false, 2, true)] {
        let report = over_tcp(12, 4, 50, LinkFaults::default(), lockstep, shards, batched);
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
        let report = over_tcp(12, 3, 80, faults, lockstep, 3, false);
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
    let report = over_tcp_acked(6, 2, 40, 8);
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
