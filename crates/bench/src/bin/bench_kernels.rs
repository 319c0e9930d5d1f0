//! Kernel-level check: allocs/tick in protocol steady state, a fixed
//! 100-stream fleet macro-run, and the scalar-vs-batch fleet identity.
//!
//! This binary checks counts and identities and times nothing, like
//! `bench_ingest` and `bench_net`. Throughput and latency — of a filter
//! step, a source decision, a wire parse or a batch lane — are measured by
//! the four `BENCHMARK.json` workloads (`benchmark/`), recorded in
//! EXPERIMENTS.md T5 on a stated core count.
//!
//! Writes the measurements as JSON (schema documented in EXPERIMENTS.md,
//! "BENCH_kernels.json") to `--out`, by default `target/bench_kernels.json`
//! — not over the committed `BENCH_kernels.json`, which keeps only the
//! gated keys. Usage:
//!
//! ```text
//! cargo run --release -p kalstream-bench --bin bench_kernels -- \
//!     [--out PATH] [--metrics-out PATH]
//! ```

use kalstream_baselines::PolicyKind;
use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_bench::fleet_batch::run_fleet_batch;
use kalstream_bench::harness::{run_method, StreamFamily};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec, SourceEndpoint};
use kalstream_filter::{models, KalmanFilter};
use kalstream_linalg::Vector;
use kalstream_sim::run_fleet;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FLEET_STREAMS: usize = 100;
const FLEET_TICKS: u64 = 2_000;
const ALLOC_TICKS: u64 = 10_000;
const BATCH_FLEET_STREAMS: usize = 1_000;
const BATCH_FLEET_TICKS: u64 = 2_000;

fn quiet_source(delta: f64) -> SourceEndpoint {
    SessionSpec::fixed(
        models::random_walk(0.01, 0.01),
        Vector::zeros(1),
        1.0,
        ProtocolConfig::new(delta).expect("valid delta"),
    )
    .expect("valid spec")
    .build()
    .split()
    .0
}

struct Measurements {
    allocs_per_tick: f64,
    allocs_per_filter_step: f64,
    fleet_total_messages: u64,
    batch_matches_scalar: bool,
}

fn measure() -> Measurements {
    // --- allocs/tick in protocol steady state ----------------------------
    let mut source = quiet_source(0.5);
    for _ in 0..1_000 {
        source.decide(&[0.0]); // settle: no syncs after this
    }
    let (allocs, _) = alloc_count::count_allocs(|| {
        for _ in 0..ALLOC_TICKS {
            std::hint::black_box(source.decide(&[0.0]));
        }
    });
    let allocs_per_tick = allocs as f64 / ALLOC_TICKS as f64;

    // Filter-only steady state (predict + update, no protocol).
    let mut kf = KalmanFilter::new(
        models::constant_velocity(1.0, 0.05, 0.1),
        Vector::zeros(2),
        1.0,
    )
    .expect("kf");
    let z = Vector::from_slice(&[0.5]);
    for _ in 0..100 {
        kf.step(&z).expect("step");
    }
    let (allocs, _) = alloc_count::count_allocs(|| {
        for _ in 0..ALLOC_TICKS {
            std::hint::black_box(kf.step(&z).expect("step").nis);
        }
    });
    let allocs_per_filter_step = allocs as f64 / ALLOC_TICKS as f64;

    // --- fleet macro-run --------------------------------------------------
    let families = StreamFamily::scalar_roster();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let jobs: Vec<_> = (0..FLEET_STREAMS)
        .map(|i| {
            let family = families[i % families.len()];
            let delta = family.natural_scale();
            move || {
                run_method(
                    PolicyKind::KalmanFixed,
                    family,
                    delta,
                    FLEET_TICKS,
                    7_000 + i as u64,
                )
                .report
            }
        })
        .collect();
    let fleet = run_fleet(jobs, threads);

    // --- scalar-vs-batch fleet identity ----------------------------------
    let batch = run_fleet_batch(BATCH_FLEET_STREAMS, BATCH_FLEET_TICKS);

    Measurements {
        allocs_per_tick,
        allocs_per_filter_step,
        fleet_total_messages: fleet.total_messages(),
        batch_matches_scalar: batch.matches,
    }
}

fn to_json(m: &Measurements) -> String {
    format!(
        "{{\n  \"schema\": \"bench_kernels/v1\",\n  \"allocs_per_tick\": {:.3},\n  \"allocs_per_filter_step\": {:.3},\n  \"fleet_streams\": {},\n  \"fleet_ticks\": {},\n  \"fleet_total_messages\": {},\n  \"batch_fleet_streams\": {},\n  \"batch_fleet_ticks\": {},\n  \"batch_matches_scalar\": {}\n}}\n",
        m.allocs_per_tick,
        m.allocs_per_filter_step,
        FLEET_STREAMS,
        FLEET_TICKS,
        m.fleet_total_messages,
        BATCH_FLEET_STREAMS,
        BATCH_FLEET_TICKS,
        m.batch_matches_scalar,
    )
}

fn main() {
    let mut out_path = String::from("target/bench_kernels.json");
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--metrics-out" => {
                metrics_path = Some(std::path::PathBuf::from(
                    args.next().expect("--metrics-out needs a path"),
                ));
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let mut metrics = MetricsOut::from_path(metrics_path);

    let m = measure();
    let doc = to_json(&m);

    std::fs::write(&out_path, &doc).expect("write output");
    println!("wrote {out_path}");
    println!(
        "allocs/tick {:.2} | allocs/filter step {:.2} | fleet {}x{}: {} messages | batch fleet {}x{}: bit-identical to scalar: {}",
        m.allocs_per_tick,
        m.allocs_per_filter_step,
        FLEET_STREAMS,
        FLEET_TICKS,
        m.fleet_total_messages,
        BATCH_FLEET_STREAMS,
        BATCH_FLEET_TICKS,
        m.batch_matches_scalar,
    );

    // --- metrics artifact (stdout already emitted above) ------------------
    {
        let mut s = metrics.scope("kernels");
        s.gauge("allocs_per_tick", m.allocs_per_tick);
        s.gauge("allocs_per_filter_step", m.allocs_per_filter_step);
    }
    {
        let mut s = metrics.scope("fleet");
        s.counter("streams", FLEET_STREAMS as u64);
        s.counter("ticks", FLEET_TICKS);
        s.counter("total_messages", m.fleet_total_messages);
    }
    {
        let mut s = metrics.scope("batch_fleet");
        s.counter("streams", BATCH_FLEET_STREAMS as u64);
        s.counter("ticks", BATCH_FLEET_TICKS);
        s.counter("matches_scalar", u64::from(m.batch_matches_scalar));
    }
    metrics.write();
}
