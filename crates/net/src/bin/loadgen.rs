//! `loadgen`: drives N concurrent connections of the canonical net
//! workload at a `kalstream-server`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7171 --conns 64 --streams-per-conn 16 \
//!         --ticks 2000 [--lockstep] [--loss 0.05 --dup 0.01 \
//!         --reorder 0.02 --seed 7]
//! ```
//!
//! Connection `i` owns stream ids `[i*K, (i+1)*K)` where `K` is
//! `--streams-per-conn`; ids, endpoints, and samplers derive
//! deterministically from the id alone, matching the server's fleet.
//! Prints fleet totals and exits non-zero on any connection error.

use std::process::exit;

use kalstream_net::{workload, ClientConfig, ClientReport};
use kalstream_sim::LinkFaults;

fn arg_val(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_val(&args, "--addr").expect("--addr required");
    let conns: usize = arg_val(&args, "--conns")
        .map(|v| v.parse().expect("--conns: integer"))
        .unwrap_or(1);
    let per_conn: u32 = arg_val(&args, "--streams-per-conn")
        .map(|v| v.parse().expect("--streams-per-conn: integer"))
        .unwrap_or(16);
    let ticks: u64 = arg_val(&args, "--ticks")
        .map(|v| v.parse().expect("--ticks: integer"))
        .unwrap_or(500);
    let lockstep = args.iter().any(|a| a == "--lockstep");
    let fault = |flag: &str| -> f64 {
        arg_val(&args, flag)
            .map(|v| v.parse().expect("fault rate: float"))
            .unwrap_or(0.0)
    };
    let faults = LinkFaults {
        loss: fault("--loss"),
        dup: fault("--dup"),
        reorder: fault("--reorder"),
        seed: arg_val(&args, "--seed")
            .map(|v| v.parse().expect("--seed: integer"))
            .unwrap_or(0),
        ..LinkFaults::default()
    };

    let start = std::time::Instant::now();
    // One OS thread per connection: producers are not Send, so each
    // connection's streams are built and driven entirely on its own thread.
    let handles: Vec<_> = (0..conns)
        .map(|conn| {
            let addr = addr.clone();
            let config = ClientConfig {
                ticks,
                overhead_bytes: 8,
                faults,
                lockstep,
                expect_status: false,
            };
            std::thread::spawn(move || {
                let base = conn as u64 * per_conn as u64;
                let ids: Vec<u32> = (0..per_conn).map(|k| base as u32 + k).collect();
                let mut streams = workload::source_streams(&ids);
                kalstream_net::drive_connection(&addr, &mut streams, base, &config)
            })
        })
        .collect();
    let reports: Vec<std::io::Result<ClientReport>> = handles
        .into_iter()
        .map(|h| h.join().expect("connection thread panicked"))
        .collect();
    let wall = start.elapsed().as_secs_f64();

    let mut failed = 0usize;
    let mut total = ClientReport::default();
    for r in &reports {
        match r {
            Ok(rep) => {
                total.traffic.merge(&rep.traffic);
                total.faults.merge(&rep.faults);
                total.acks += rep.acks;
                total.bounds += rep.bounds;
                total.socket_bytes_out += rep.socket_bytes_out;
            }
            Err(e) => {
                eprintln!("connection failed: {e}");
                failed += 1;
            }
        }
    }
    println!(
        "{{\"conns\": {}, \"streams\": {}, \"ticks\": {}, \"messages\": {}, \"acks\": {}, \"bounds\": {}, \"socket_bytes_out\": {}, \"wall_secs\": {:.3}, \"failed\": {}}}",
        conns,
        conns as u64 * per_conn as u64,
        ticks,
        total.traffic.messages(),
        total.acks,
        total.bounds,
        total.socket_bytes_out,
        wall,
        failed
    );
    if failed > 0 {
        exit(1);
    }
}
