//! Kernel-level check: allocs/tick in protocol steady state, a fixed
//! 100-stream fleet macro-run, and the scalar-vs-batch fleet identity, with
//! ns/op for the filter hot path printed alongside.
//!
//! This binary checks counts and identities (plus one same-run ratio, the
//! batch-layout floor). Throughput and latency are measured by the four
//! `BENCHMARK.json` workloads (`benchmark/`), recorded in EXPERIMENTS.md T5
//! on a stated core count; the ns/op rows here are diagnostics — printed,
//! written to `--out`, compared with nothing.
//!
//! Writes the measurements as JSON (schema documented in EXPERIMENTS.md,
//! "BENCH_kernels.json") to `--out`, by default `target/bench_kernels.json`
//! — not over the committed `BENCH_kernels.json`. Usage:
//!
//! ```text
//! cargo run --release -p kalstream-bench --bin bench_kernels -- \
//!     [--out PATH] [--metrics-out PATH] [--quick]
//! ```
//!
//! `--quick` shortens the scalar-vs-batch fleet comparison (fewer ticks,
//! same stream count) for CI. The 100-stream protocol fleet — whose
//! `fleet_total_messages` count is the bit-identity canary — always runs
//! at full scale, so quick output is still gateable by `check_regression`.
//! The committed `BENCH_kernels.json` keeps only the gated keys of a full
//! run.

use std::time::Instant;

use bytes::Bytes;
use criterion::Criterion;
use kalstream_baselines::PolicyKind;
use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_bench::fleet_batch::run_fleet_batch;
use kalstream_bench::harness::{run_method, StreamFamily};
use kalstream_bench::MetricsOut;
use kalstream_core::wire::WireRef;
use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream_filter::{models, AdaptiveConfig, AdaptiveKalmanFilter, KalmanFilter};
use kalstream_linalg::Vector;
use kalstream_sim::{run_fleet, Consumer, Producer};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FLEET_STREAMS: usize = 100;
const FLEET_TICKS: u64 = 2_000;
const ALLOC_TICKS: u64 = 10_000;
const BATCH_FLEET_STREAMS: usize = 1_000;
const BATCH_FLEET_TICKS: u64 = 2_000;
const BATCH_FLEET_TICKS_QUICK: u64 = 200;

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

/// Streams in the fleet-footprint probe: the end-to-end benchmark's fleet.
const PROBE_STREAMS: usize = 512;
const PROBE_WARMUP_ROUNDS: u64 = 64;
const PROBE_ROUNDS: u64 = 400;

/// Per-operation cost over [`PROBE_STREAMS`] default-scalar streams visited
/// round-robin, in ns. Informational: printed and recorded, never gated.
///
/// The single-hot-filter rows above (`suppression_decision_ns` and friends)
/// time one endpoint in a tight loop with warm branch predictors and every
/// byte it touches in L1 — which is how a 220 ns `decide` row once sat next
/// to a 2.8 µs per-`decide` cost in the 512-stream fleet, when each stream
/// still walked ≈ 35 KB of window matrices per update. These rows time the
/// operations as the fleet runs them, one stream after another. Since the
/// windows became one small flat ring, `observe` costs the same per
/// observation over 16 streams (which fit in L2) as over 512, so what these
/// rows price is arithmetic, such as the adaptation's window sums
/// (`adaptive_step_ns` against `adaptive_fixed_step_ns`), not cache misses.
struct FleetProbe {
    adaptive_step_ns: f64,
    /// The same adaptive filters with `adapt_r` and `adapt_q` off: the
    /// wrapper and the inner step without the window sums, so that
    /// `adaptive_step_ns` minus this row prices the adaptation.
    adaptive_fixed_step_ns: f64,
    source_decide_suppressed_ns: f64,
    source_decide_sent_ns: f64,
    /// `Producer::observe` on the loud fleet: the sent branch as the fleet
    /// runs it, payload allocation included and no owned message built.
    source_observe_sent_ns: f64,
    shadow_predict_ns: f64,
    /// `WireRef::parse` of each stream's own recorded State sync.
    wire_parse_ns: f64,
    /// `receive` + `advance` on each stream's server endpoint: one sync
    /// validated, queued, and applied from the queue after the predict
    /// (`shadow_predict_ns` is that predict alone).
    server_apply_ns: f64,
}

/// The probe's per-stream signal: a slow sinusoid plus a per-stream offset.
fn probe_signal(stream: usize, round: u64) -> f64 {
    (round as f64 * 0.05 + stream as f64 * 0.37).sin() * 2.0 + stream as f64 * 0.01
}

/// Visits every item once per round and returns ns per visit over the
/// timed rounds (after the warm-up rounds have filled every window).
fn round_robin_ns<T>(items: &mut [T], mut visit: impl FnMut(&mut T, usize, u64)) -> f64 {
    for round in 0..PROBE_WARMUP_ROUNDS {
        for (i, item) in items.iter_mut().enumerate() {
            visit(item, i, round);
        }
    }
    let start = Instant::now();
    for round in PROBE_WARMUP_ROUNDS..PROBE_WARMUP_ROUNDS + PROBE_ROUNDS {
        for (i, item) in items.iter_mut().enumerate() {
            visit(item, i, round);
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / (PROBE_ROUNDS * items.len() as u64) as f64
}

fn default_scalar_sessions(delta: f64) -> Vec<(SourceEndpoint, ServerEndpoint)> {
    (0..PROBE_STREAMS)
        .map(|i| {
            let config = ProtocolConfig::new(delta).expect("valid delta");
            // Off the signal, so even the first observation moves.
            SessionSpec::default_scalar(probe_signal(i, 0) - 1.0, config)
                .expect("valid spec")
                .build()
                .split()
        })
        .collect()
}

fn default_scalar_sources(delta: f64) -> Vec<SourceEndpoint> {
    default_scalar_sessions(delta)
        .into_iter()
        .map(|(source, _)| source)
        .collect()
}

fn fleet_probe() -> FleetProbe {
    let walk =
        || KalmanFilter::new(models::random_walk(0.01, 0.01), Vector::zeros(1), 1.0).expect("kf");
    let mut z = Vector::zeros(1);
    let mut adaptive_fleet_ns = |config: AdaptiveConfig| {
        let mut adaptive: Vec<AdaptiveKalmanFilter> = (0..PROBE_STREAMS)
            .map(|_| AdaptiveKalmanFilter::new(walk(), config.clone()))
            .collect();
        round_robin_ns(&mut adaptive, |akf, i, round| {
            z[0] = probe_signal(i, round);
            std::hint::black_box(akf.step_lean(&z).expect("step").nis);
        })
    };
    let adaptive_step_ns = adaptive_fleet_ns(AdaptiveConfig::default());
    let adaptive_fixed_step_ns = adaptive_fleet_ns(AdaptiveConfig {
        adapt_r: false,
        adapt_q: false,
        ..AdaptiveConfig::default()
    });

    // A bound nothing exceeds / a bound everything exceeds: each fleet
    // takes one branch of `decide` on every observation.
    let mut quiet = default_scalar_sources(1e9);
    let source_decide_suppressed_ns = round_robin_ns(&mut quiet, |source, i, round| {
        let sent = source.decide(&[probe_signal(i, round)]).is_some();
        assert!(!sent, "the quiet fleet must suppress");
    });
    let mut loud = default_scalar_sources(1e-9);
    let source_decide_sent_ns = round_robin_ns(&mut loud, |source, i, round| {
        let sent = std::hint::black_box(source.decide(&[probe_signal(i, round)])).is_some();
        assert!(sent, "the loud fleet must sync");
    });

    let mut loud = default_scalar_sources(1e-9);
    let source_observe_sent_ns = round_robin_ns(&mut loud, |source, i, round| {
        let payload = std::hint::black_box(source.observe(round, &[probe_signal(i, round)]));
        assert!(payload.is_some(), "the loud fleet must sync");
    });

    let mut shadows: Vec<KalmanFilter> = (0..PROBE_STREAMS).map(|_| walk()).collect();
    let shadow_predict_ns = round_robin_ns(&mut shadows, |kf, _, _| {
        kf.predict().expect("predict");
        std::hint::black_box(kf.state());
    });

    // The server half: every stream's own State sync, parsed alone, then
    // received and applied by its endpoint.
    let mut servers: Vec<(Bytes, ServerEndpoint)> = default_scalar_sessions(1e-9)
        .into_iter()
        .enumerate()
        .map(|(i, (mut source, server))| {
            let payload = source.observe(0, &[probe_signal(i, 0)]);
            (payload.expect("the loud fleet must sync"), server)
        })
        .collect();
    let wire_parse_ns = round_robin_ns(&mut servers, |(payload, _), _, _| {
        std::hint::black_box(WireRef::parse(payload).expect("recorded sync parses"));
    });
    let server_apply_ns = round_robin_ns(&mut servers, |(payload, server), _, round| {
        server.receive(round, payload);
        server.advance();
        std::hint::black_box(server.filter().state());
    });
    let applied = (PROBE_WARMUP_ROUNDS + PROBE_ROUNDS) * PROBE_STREAMS as u64;
    let total: u64 = servers.iter().map(|(_, s)| s.syncs_applied()).sum();
    assert_eq!(total, applied, "every received sync must be applied");

    FleetProbe {
        adaptive_step_ns,
        adaptive_fixed_step_ns,
        source_decide_suppressed_ns,
        source_decide_sent_ns,
        source_observe_sent_ns,
        shadow_predict_ns,
        wire_parse_ns,
        server_apply_ns,
    }
}

struct Measurements {
    available_parallelism: usize,
    predict_ns: f64,
    update_ns: f64,
    decide_ns: f64,
    probe: FleetProbe,
    allocs_per_tick: f64,
    allocs_per_filter_step: f64,
    fleet_wall_ms: f64,
    fleet_total_messages: u64,
    batch_fleet_ticks: u64,
    batch_fleet_scalar_wall_ms: f64,
    batch_fleet_wall_ms: f64,
    batch_fleet_speedup: f64,
    batch_predict_ns: f64,
    batch_update_ns: f64,
    batch_matches_scalar: bool,
}

fn measure(quick: bool) -> Measurements {
    // --- criterion micro-benches -----------------------------------------
    let mut c = Criterion::default();

    let model = models::constant_velocity(1.0, 0.05, 0.1);
    let mut kf = KalmanFilter::new(model.clone(), Vector::zeros(2), 1.0).expect("kf");
    c.bench_function("predict_cv2", |b| {
        b.iter(|| {
            kf.predict().expect("predict");
            std::hint::black_box(kf.state());
        })
    });

    let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).expect("kf");
    let z = Vector::from_slice(&[0.5]);
    c.bench_function("update_cv2", |b| {
        b.iter(|| {
            kf.predict().expect("predict");
            std::hint::black_box(kf.update(&z).expect("update").nis);
        })
    });

    let mut source = quiet_source(0.5);
    for _ in 0..1_000 {
        source.decide(&[0.0]);
    }
    c.bench_function("suppression_decision_quiet", |b| {
        b.iter(|| std::hint::black_box(source.decide(&[0.0])))
    });

    let ns = |id: &str| {
        c.results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.ns_per_iter)
            .expect("bench ran")
    };
    let predict_ns = ns("predict_cv2");
    let update_ns = ns("update_cv2");
    let decide_ns = ns("suppression_decision_quiet");

    // --- fleet-footprint probe (informational) ---------------------------
    let probe = fleet_probe();

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
    let start = Instant::now();
    let fleet = run_fleet(jobs, threads);
    let fleet_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // --- scalar-vs-batch fleet stepping ----------------------------------
    let batch_ticks = if quick {
        BATCH_FLEET_TICKS_QUICK
    } else {
        BATCH_FLEET_TICKS
    };
    let batch = run_fleet_batch(BATCH_FLEET_STREAMS, batch_ticks, threads);

    Measurements {
        available_parallelism: threads,
        predict_ns,
        update_ns,
        decide_ns,
        probe,
        allocs_per_tick,
        allocs_per_filter_step,
        fleet_wall_ms,
        fleet_total_messages: fleet.total_messages(),
        batch_fleet_ticks: batch_ticks,
        batch_fleet_scalar_wall_ms: batch.scalar_wall_ms,
        batch_fleet_wall_ms: batch.batch_wall_ms,
        batch_fleet_speedup: batch.speedup,
        batch_predict_ns: batch.batch_predict_ns,
        batch_update_ns: batch.batch_update_ns,
        batch_matches_scalar: batch.matches,
    }
}

fn to_json(m: &Measurements) -> String {
    format!(
        "{{\n  \"schema\": \"bench_kernels/v1\",\n  \"available_parallelism\": {},\n  \"predict_ns\": {:.1},\n  \"update_ns\": {:.1},\n  \"suppression_decision_ns\": {:.1},\n  \"fleet_probe_streams\": {},\n  \"fleet_adaptive_step_ns\": {:.1},\n  \"fleet_adaptive_fixed_step_ns\": {:.1},\n  \"fleet_source_decide_suppressed_ns\": {:.1},\n  \"fleet_source_decide_sent_ns\": {:.1},\n  \"fleet_source_observe_sent_ns\": {:.1},\n  \"fleet_shadow_predict_ns\": {:.1},\n  \"fleet_wire_parse_ns\": {:.1},\n  \"fleet_server_apply_ns\": {:.1},\n  \"allocs_per_tick\": {:.3},\n  \"allocs_per_filter_step\": {:.3},\n  \"fleet_streams\": {},\n  \"fleet_ticks\": {},\n  \"fleet_wall_ms\": {:.1},\n  \"fleet_total_messages\": {},\n  \"batch_fleet_streams\": {},\n  \"batch_fleet_ticks\": {},\n  \"batch_fleet_scalar_wall_ms\": {:.1},\n  \"batch_fleet_wall_ms\": {:.1},\n  \"batch_fleet_speedup\": {:.2},\n  \"batch_predict_ns\": {:.1},\n  \"batch_update_ns\": {:.1},\n  \"batch_matches_scalar\": {}\n}}\n",
        m.available_parallelism,
        m.predict_ns,
        m.update_ns,
        m.decide_ns,
        PROBE_STREAMS,
        m.probe.adaptive_step_ns,
        m.probe.adaptive_fixed_step_ns,
        m.probe.source_decide_suppressed_ns,
        m.probe.source_decide_sent_ns,
        m.probe.source_observe_sent_ns,
        m.probe.shadow_predict_ns,
        m.probe.wire_parse_ns,
        m.probe.server_apply_ns,
        m.allocs_per_tick,
        m.allocs_per_filter_step,
        FLEET_STREAMS,
        FLEET_TICKS,
        m.fleet_wall_ms,
        m.fleet_total_messages,
        BATCH_FLEET_STREAMS,
        m.batch_fleet_ticks,
        m.batch_fleet_scalar_wall_ms,
        m.batch_fleet_wall_ms,
        m.batch_fleet_speedup,
        m.batch_predict_ns,
        m.batch_update_ns,
        m.batch_matches_scalar,
    )
}

fn main() {
    let mut out_path = String::from("target/bench_kernels.json");
    let mut metrics_path = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--metrics-out" => {
                metrics_path = Some(std::path::PathBuf::from(
                    args.next().expect("--metrics-out needs a path"),
                ));
            }
            "--quick" => quick = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    let mut metrics = MetricsOut::from_path(metrics_path);

    let m = measure(quick);
    let doc = to_json(&m);

    std::fs::write(&out_path, &doc).expect("write output");
    println!("\nwrote {out_path}");
    println!(
        "predict {:.1} ns | update {:.1} ns | decide {:.1} ns | allocs/tick {:.2} | fleet {:.0} ms",
        m.predict_ns, m.update_ns, m.decide_ns, m.allocs_per_tick, m.fleet_wall_ms
    );
    println!(
        "fleet probe, {} round-robin default-scalar streams: adaptive step {:.0} ns | adaptive step, both switches off {:.0} ns | decide suppressed {:.0} ns | decide sent {:.0} ns | observe sent {:.0} ns | shadow predict {:.0} ns | wire parse {:.0} ns | server receive+advance {:.0} ns",
        PROBE_STREAMS,
        m.probe.adaptive_step_ns,
        m.probe.adaptive_fixed_step_ns,
        m.probe.source_decide_suppressed_ns,
        m.probe.source_decide_sent_ns,
        m.probe.source_observe_sent_ns,
        m.probe.shadow_predict_ns,
        m.probe.wire_parse_ns,
        m.probe.server_apply_ns,
    );
    println!(
        "batch fleet {}x{}: scalar {:.0} ms vs batch {:.0} ms ({:.2}x, bit-identical: {})",
        BATCH_FLEET_STREAMS,
        m.batch_fleet_ticks,
        m.batch_fleet_scalar_wall_ms,
        m.batch_fleet_wall_ms,
        m.batch_fleet_speedup,
        m.batch_matches_scalar,
    );

    // --- metrics artifact (stdout already emitted above) ------------------
    {
        let mut s = metrics.scope("kernels");
        s.gauge("predict_ns", m.predict_ns);
        s.gauge("update_ns", m.update_ns);
        s.gauge("suppression_decision_ns", m.decide_ns);
        s.gauge("allocs_per_tick", m.allocs_per_tick);
        s.gauge("allocs_per_filter_step", m.allocs_per_filter_step);
    }
    {
        let mut s = metrics.scope("fleet_probe");
        s.counter("streams", PROBE_STREAMS as u64);
        s.gauge("adaptive_step_ns", m.probe.adaptive_step_ns);
        s.gauge("adaptive_fixed_step_ns", m.probe.adaptive_fixed_step_ns);
        s.gauge(
            "source_decide_suppressed_ns",
            m.probe.source_decide_suppressed_ns,
        );
        s.gauge("source_decide_sent_ns", m.probe.source_decide_sent_ns);
        s.gauge("source_observe_sent_ns", m.probe.source_observe_sent_ns);
        s.gauge("shadow_predict_ns", m.probe.shadow_predict_ns);
        s.gauge("wire_parse_ns", m.probe.wire_parse_ns);
        s.gauge("server_apply_ns", m.probe.server_apply_ns);
    }
    {
        let mut s = metrics.scope("fleet");
        s.counter("streams", FLEET_STREAMS as u64);
        s.counter("ticks", FLEET_TICKS);
        s.gauge("wall_ms", m.fleet_wall_ms);
        s.counter("total_messages", m.fleet_total_messages);
    }
    {
        let mut s = metrics.scope("batch_fleet");
        s.counter("streams", BATCH_FLEET_STREAMS as u64);
        s.counter("ticks", m.batch_fleet_ticks);
        s.gauge("scalar_wall_ms", m.batch_fleet_scalar_wall_ms);
        s.gauge("wall_ms", m.batch_fleet_wall_ms);
        s.gauge("speedup", m.batch_fleet_speedup);
        s.gauge("predict_ns", m.batch_predict_ns);
        s.gauge("update_ns", m.batch_update_ns);
        s.counter("matches_scalar", u64::from(m.batch_matches_scalar));
    }
    metrics.write();
}
