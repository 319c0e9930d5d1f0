//! Admission paths the other suites only ever assert `== 0`: connections
//! that never become part of the fleet must be counted (or ignored) without
//! disturbing the connection that does — and the queue primitive the
//! router's shed-and-count accounting stands on, `try_send` of the vendored
//! `crossbeam` stand-in (tested here because `vendor/` is outside the
//! workspace, so its own `#[cfg(test)]` modules never run in CI).

use std::io::{Read, Write};
use std::net::TcpStream;

use crossbeam::channel::{bounded, TrySendError};
use kalstream_core::{FramingSink, SequentialIngest};
use kalstream_net::{workload, ClientConfig, NetServer, NetServerConfig};
use kalstream_sim::{run_fleet_ingest_faulty, LinkFaults};

const STREAMS: u32 = 6;
const TICKS: u64 = 40;
const OVERHEAD: usize = 8;

#[test]
fn silent_and_bad_magic_connections_do_not_disturb_the_fleet() {
    let ids: Vec<u32> = (0..STREAMS).collect();
    let mut sink = FramingSink::new(SequentialIngest::new(workload::server_endpoints(STREAMS)));
    run_fleet_ingest_faulty(
        &mut workload::source_streams(&ids),
        TICKS,
        OVERHEAD,
        LinkFaults::default(),
        &mut sink,
    );
    let reference = sink.into_inner().finish();

    let server = NetServer::start(
        "127.0.0.1:0",
        workload::server_endpoints(STREAMS),
        NetServerConfig::default(),
    )
    .expect("bind");

    // (a) Dials and closes without a byte: not a hello, so not a rejected
    // one either — the reader vanishes quietly.
    drop(TcpStream::connect(server.addr()).expect("dial"));

    // (b) Eight bytes that are not a KSN1 hello. The reader reports the
    // rejection to the router *before* it closes the socket, so once this
    // read ends the rejection is queued ahead of the good hello below.
    let mut bad = TcpStream::connect(server.addr()).expect("dial");
    bad.write_all(b"NOPE\x01\0\0\0").expect("write");
    let _ = bad.read_to_end(&mut Vec::new());

    let config = ClientConfig {
        ticks: TICKS,
        overhead_bytes: OVERHEAD,
        faults: LinkFaults::default(),
        lockstep: true,
        expect_status: false,
    };
    let client = kalstream_net::drive_connection(
        &server.addr().to_string(),
        &mut workload::source_streams(&ids),
        0,
        &config,
    )
    .expect("good connection");
    let report = server.join().expect("server");

    assert_eq!(report.rejected_hellos, 1);
    assert_eq!(report.dropped_router_msgs, 0);
    assert_eq!(report.total_shed(), 0);
    assert_eq!(report.conns.len(), 1, "only the good hello was admitted");
    assert_eq!(report.ticks, TICKS);
    assert!(client.traffic.messages() > 0);
    assert!(
        workload::ingest_identical(&report.ingest, &reference),
        "fleet diverged from the sequential reference"
    );
}

#[test]
fn try_send_is_full_at_capacity_and_never_blocks() {
    let (tx, rx) = bounded::<u32>(2);
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
    assert_eq!(tx.len(), 2);
    assert_eq!(rx.recv(), Ok(1));
    tx.try_send(3).unwrap();
    assert_eq!(rx.iter().take(2).collect::<Vec<_>>(), vec![2, 3]);
}

#[test]
fn try_send_is_disconnected_after_the_receiver_drops() {
    let (tx, rx) = bounded::<u32>(2);
    drop(rx);
    assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
}

#[test]
fn try_send_wakes_a_blocked_recv() {
    let (tx, rx) = bounded::<u32>(1);
    let (running_tx, running_rx) = bounded::<()>(1);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            running_tx.send(()).unwrap();
            rx.recv()
        });
        // Whether the receiver is already parked in `recv` or only about
        // to be, the value must reach it.
        running_rx.recv().unwrap();
        tx.try_send(7).unwrap();
        assert_eq!(receiver.join().unwrap(), Ok(7));
    });
}
