//! Network ingest check: the sharded TCP front end ([`NetServer`]) against
//! single-threaded sequential ingest, at fleet connection counts.
//!
//! This binary checks counts and identities. Throughput and latency are
//! measured by the four `BENCHMARK.json` workloads (`benchmark/`), recorded
//! in EXPERIMENTS.md T5 on a stated core count; nothing here is timed.
//!
//! Writes a `bench_net/v1` artifact to `--out`, by default
//! `target/bench_net.json` — not over the committed `BENCH_net.json`, which
//! is trimmed by hand to the keys `check_regression` reads. Usage:
//!
//! ```text
//! cargo run --release -p kalstream-bench --bin bench_net -- \
//!     [--out PATH] [--quick] [--metrics-out PATH]
//! ```
//!
//! Full mode drives **1024 real loopback connections** (one stream each)
//! into a running server; `--quick` shrinks the fleet to 64 connections
//! for the CI smoke lane. Every correctness gate applies in both modes:
//!
//! * the networked fleet's final filter state must be **bit-identical**
//!   to the same workload run through the simulator into the sequential
//!   reference ingester (`tcp_matches_sim`);
//! * zero feedback payloads shed, zero rejected hellos, zero decode
//!   failures — a clean loopback run has no excuse for any of them;
//! * the server advanced exactly the ticks the clients sent.
//!
//! `check_regression` additionally holds `total_messages` to the committed
//! `BENCH_net.json` (its `quick_shape` record for a `--quick` run).

use kalstream_bench::MetricsOut;
use kalstream_core::{FramingSink, IngestResult, SequentialIngest};
use kalstream_net::{workload, ClientConfig, NetServer, NetServerConfig};
use kalstream_sim::{run_fleet_ingest_faulty, LinkFaults};

const FULL_CONNS: usize = 1024;
const FULL_TICKS: u64 = 32;
const FULL_SHARDS: usize = 8;
/// `--quick` scale: small enough for a CI lane, large enough that the
/// barrier, routing, and shed accounting all see real concurrency.
const QUICK_CONNS: usize = 64;
const QUICK_TICKS: u64 = 48;
const QUICK_SHARDS: usize = 4;
/// One stream per connection: the benchmark measures connection scale.
const STREAMS_PER_CONN: u32 = 1;
/// Per-message link overhead, matching the net wire framing (8-byte
/// frame headers) so sim-side traffic accounting mirrors the socket.
const OVERHEAD: usize = 8;

/// The reference: the identical workload through per-stream (fault-free)
/// links into the sequential ingester.
fn sequential_reference(streams: u32, ticks: u64) -> IngestResult {
    let ids: Vec<u32> = (0..streams).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut sink = FramingSink::new(SequentialIngest::new(workload::server_endpoints(streams)));
    run_fleet_ingest_faulty(
        &mut fleet,
        ticks,
        OVERHEAD,
        LinkFaults::default(),
        &mut sink,
    );
    sink.into_inner().finish()
}

struct NetRun {
    report: kalstream_net::NetReport,
    socket_bytes_out: u64,
}

/// The system under test: `conns` real TCP connections blasting ticks in
/// throughput mode (no lockstep barrier) into the sharded pipeline.
fn over_tcp(conns: usize, ticks: u64, shards: usize) -> NetRun {
    let streams = conns as u32 * STREAMS_PER_CONN;
    let server = NetServer::start(
        "127.0.0.1:0",
        workload::server_endpoints(streams),
        NetServerConfig {
            shards,
            batched: false,
            expected_conns: conns,
            lockstep: false,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let client_threads: Vec<_> = (0..conns)
        .map(|conn| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let base = conn as u64 * STREAMS_PER_CONN as u64;
                let ids: Vec<u32> = (0..STREAMS_PER_CONN).map(|k| base as u32 + k).collect();
                let mut fleet = workload::source_streams(&ids);
                let config = ClientConfig {
                    ticks,
                    overhead_bytes: OVERHEAD,
                    faults: LinkFaults::default(),
                    lockstep: false,
                    expect_status: false,
                };
                kalstream_net::drive_connection(&addr, &mut fleet, base, &config)
                    .expect("connection")
            })
        })
        .collect();
    let mut socket_bytes_out = 0u64;
    for t in client_threads {
        socket_bytes_out += t.join().expect("client thread").socket_bytes_out;
    }
    let report = server.join().expect("server");
    NetRun {
        report,
        socket_bytes_out,
    }
}

fn main() {
    let mut out_path = String::from("target/bench_net.json");
    let mut quick = false;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--quick" => quick = true,
            "--metrics-out" => {
                metrics_path = Some(std::path::PathBuf::from(
                    args.next().expect("--metrics-out needs a path"),
                ));
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let mut metrics = MetricsOut::from_path(metrics_path);
    let (conns, ticks, shards) = if quick {
        (QUICK_CONNS, QUICK_TICKS, QUICK_SHARDS)
    } else {
        (FULL_CONNS, FULL_TICKS, FULL_SHARDS)
    };
    let streams = conns as u32 * STREAMS_PER_CONN;

    // --- sequential reference ---------------------------------------------
    println!("sequential reference: {streams} streams × {ticks} ticks…");
    let seq_result = sequential_reference(streams, ticks);
    println!("  {} msgs applied", seq_result.total_messages());

    // --- the networked fleet ----------------------------------------------
    println!("networked fleet: {conns} conns × {STREAMS_PER_CONN} stream(s), {shards} shards…");
    let run = over_tcp(conns, ticks, shards);
    let total_messages = run.report.ingest.total_messages();
    let bytes_in: u64 = run.report.conns.iter().map(|c| c.bytes_in).sum();
    let feedback_sent: u64 = run.report.conns.iter().map(|c| c.feedback_sent).sum();
    println!(
        "  {total_messages} msgs applied, {:.1} MiB on the wire",
        bytes_in as f64 / (1024.0 * 1024.0),
    );

    // --- gates ------------------------------------------------------------
    let tcp_matches_sim = workload::ingest_identical(&run.report.ingest, &seq_result);
    let shed = run.report.total_shed();
    let rejected = run.report.rejected_hellos;
    let decode_failures = run.report.ingest.total_decode_failures();

    // --- JSON -------------------------------------------------------------
    let doc = format!(
        "{{\n  \"schema\": \"bench_net/v1\",\n  \"quick\": {quick},\n  \
         \"conns\": {conns},\n  \"streams\": {streams},\n  \"streams_per_conn\": {STREAMS_PER_CONN},\n  \
         \"ticks\": {ticks},\n  \"shards\": {shards},\n  \
         \"total_messages\": {total_messages},\n  \
         \"tcp_matches_sim\": {tcp_matches_sim},\n  \"shed\": {shed},\n  \
         \"rejected_hellos\": {rejected},\n  \"decode_failures\": {decode_failures},\n  \
         \"socket_bytes_in\": {bytes_in},\n  \"socket_bytes_out\": {},\n  \
         \"feedback_sent\": {feedback_sent}\n}}\n",
        run.socket_bytes_out,
    );
    std::fs::write(&out_path, &doc).expect("write output");
    println!("wrote {out_path}");

    // --- metrics artifact (net.* snapshot + bench scalars) ----------------
    metrics.absorb("server", &run.report.snapshot());
    metrics
        .scope("sequential")
        .counter("total_messages", seq_result.total_messages());
    {
        let mut s = metrics.scope("net");
        s.counter("total_messages", total_messages);
        s.counter("socket_bytes_in", bytes_in);
        s.counter("socket_bytes_out", run.socket_bytes_out);
        s.counter("tcp_matches_sim", u64::from(tcp_matches_sim));
    }
    metrics.write();

    // --- verdict ----------------------------------------------------------
    let mut failed = false;
    if !tcp_matches_sim {
        eprintln!("GATE FAILURE: networked fleet state diverged from the sequential reference");
        failed = true;
    }
    if shed > 0 || rejected > 0 || decode_failures > 0 {
        eprintln!(
            "GATE FAILURE: shed {shed}, rejected hellos {rejected}, decode failures \
             {decode_failures} (all must be zero on a clean loopback run)"
        );
        failed = true;
    }
    if run.report.ticks != ticks {
        eprintln!(
            "GATE FAILURE: server advanced {} global ticks, expected {ticks}",
            run.report.ticks
        );
        failed = true;
    }
    if failed {
        eprintln!("bench-net: FAILED");
        std::process::exit(1);
    }
    println!("bench-net: all gates passed");
}
