//! `kalstream-server`: the TCP ingest server over the canonical net
//! workload.
//!
//! ```text
//! kalstream-server --addr 127.0.0.1:7171 --streams 1024 --shards 8 \
//!                  --conns 64 [--lockstep]
//! ```
//!
//! Serves stream ids `0..streams` (endpoints derived deterministically —
//! see `kalstream_net::workload`), waits for `--conns` connections to
//! drain, then prints a JSON report and exits non-zero if any feedback
//! was shed or any hello rejected.

use std::process::exit;

use kalstream_net::{workload, NetServer, NetServerConfig};

fn arg_val(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_val(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let streams: u32 = arg_val(&args, "--streams")
        .map(|v| v.parse().expect("--streams: integer"))
        .unwrap_or(64);
    let shards: usize = arg_val(&args, "--shards")
        .map(|v| v.parse().expect("--shards: integer"))
        .unwrap_or(4);
    let conns: usize = arg_val(&args, "--conns")
        .map(|v| v.parse().expect("--conns: integer"))
        .unwrap_or(1);
    let lockstep = args.iter().any(|a| a == "--lockstep");

    let server = NetServer::start(
        &addr,
        workload::server_endpoints(streams),
        NetServerConfig {
            shards,
            expected_conns: conns,
            lockstep,
            ..NetServerConfig::default()
        },
    )
    .expect("bind failed");
    eprintln!("kalstream-server listening on {}", server.addr());

    let report = server.join().expect("server failed");
    println!("{}", report.snapshot().to_json());
    if report.total_shed() > 0 || report.rejected_hellos > 0 {
        eprintln!(
            "FAIL: shed={} rejected_hellos={}",
            report.total_shed(),
            report.rejected_hellos
        );
        exit(1);
    }
}
