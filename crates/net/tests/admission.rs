//! Admission paths the other suites only ever assert `== 0`: connections
//! that never become part of the fleet must be counted (or ignored) without
//! disturbing the connection that does. The queue primitive the router's
//! shed-and-count accounting stands on, `try_send` of the vendored
//! `crossbeam` stand-in, is tested in that stand-in's own test module,
//! which `ci/check.sh` runs.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use kalstream_core::{FramingSink, SequentialIngest};
use kalstream_net::codec::encode_hello;
use kalstream_net::{workload, ClientConfig, NetServer, NetServerConfig};
use kalstream_sim::{run_fleet_ingest, LinkFaults};

const STREAMS: u32 = 6;
const TICKS: u64 = 40;
const OVERHEAD: usize = 8;

#[test]
fn silent_bad_magic_and_over_claiming_connections_do_not_disturb_the_fleet() {
    let ids: Vec<u32> = (0..STREAMS).collect();
    let mut sink = FramingSink::new(SequentialIngest::new(workload::server_endpoints(STREAMS)));
    run_fleet_ingest(
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
    // one either — the hello thread vanishes quietly.
    drop(TcpStream::connect(server.addr()).expect("dial"));

    // (b) Eight bytes that are not a KSN1 hello. The hello thread reports the
    // rejection to the router *before* it closes the socket, so once this
    // read ends the rejection is queued ahead of the good hello below.
    let mut bad = TcpStream::connect(server.addr()).expect("dial");
    bad.write_all(b"NOPE\x01\0\0\0").expect("write");
    let _ = bad.read_to_end(&mut Vec::new());

    // (c) A well-formed hello claiming one stream more than the server
    // serves: rejected on its count, before the id list is read, and
    // reported before the socket closes, like (b). The close may arrive as
    // a reset, since the id list is left unread; a server that admitted
    // the hello would leave the connection open instead.
    let mut greedy = TcpStream::connect(server.addr()).expect("dial");
    greedy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    greedy
        .write_all(&encode_hello(&(0..=STREAMS).collect::<Vec<_>>()))
        .expect("write");
    let closed = match greedy.read_to_end(&mut Vec::new()) {
        Ok(_) => true,
        Err(err) => err.kind() == ErrorKind::ConnectionReset,
    };
    assert!(
        closed,
        "a hello claiming {} streams was kept open",
        STREAMS + 1
    );

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

    assert_eq!(
        report.rejected_hellos, 2,
        "the bad magic and the over-claim"
    );
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
