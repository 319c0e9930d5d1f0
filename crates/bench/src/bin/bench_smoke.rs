//! Fast allocation regression gate (`cargo bench-smoke`).
//!
//! Runs the protocol steady-state loop, the bare filter loop, an adaptive
//! filter past a full estimation window, a source endpoint syncing on
//! every observation and a Q3-shaped `QueryGraph` tick under the counting
//! allocator and **fails (exit 1) if any of them performs a heap allocation
//! per tick (the graph's `required_deltas` may allocate the one map it
//! returns), or if any `linalg` value fell back from inline to heap
//! storage**. Finishes in well under a second; wire it into CI next to the
//! unit tests. Honours `--metrics-out <path>` for the CI artifact contract.

use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::{models, AdaptiveConfig, AdaptiveKalmanFilter, KalmanFilter};
use kalstream_linalg::Vector;
use kalstream_query::{AggKind, QueryGraph, StreamId, StreamView, WindowSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const TICKS: u64 = 5_000;

/// Prints one gate line, records the count, and returns the failures it
/// adds (0 or 1). `allowed` is the exact count the loop is entitled to.
fn gate(metrics: &mut MetricsOut, scope: &str, what: &str, allocs: u64, allowed: u64) -> u32 {
    metrics.scope(scope).counter("allocations", allocs);
    if allocs == allowed {
        println!("OK   {what}: {allocs} allocations over {TICKS} ticks");
    } else {
        println!(
            "FAIL {what} allocated: {allocs} allocations over {TICKS} ticks ({:.2}/tick, {:.2} allowed)",
            allocs as f64 / TICKS as f64,
            allowed as f64 / TICKS as f64
        );
    }
    u32::from(allocs != allowed)
}

/// Raw streams under the smoke graph.
const GRAPH_STREAMS: usize = 16;
const GRAPH_PANE: usize = 32;

/// Experiment Q3's shape plus Q1's windows: two group averages, one of them
/// extended by a stream, a fleet average over the two, a tumbling pane, two
/// alerts, a sliding average and a sliding count, feedback on.
fn smoke_graph() -> QueryGraph {
    let mut g = QueryGraph::new();
    let ids: Vec<String> = (0..GRAPH_STREAMS).map(|i| format!("s{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        g.add_raw(id, StreamId(i)).expect("fresh raw id");
    }
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let (lo, hi) = ids.split_at(GRAPH_STREAMS / 2);
    g.add_aggregate("lo_avg", AggKind::Avg, lo, Some(0.4))
        .expect("lo_avg");
    // `lo_avg` plus one stream: it resumes `lo_avg`'s fold, so the gate
    // below covers the shared fold too.
    let wide = [lo, &hi[..1]].concat();
    g.add_aggregate("lo_wide", AggKind::Avg, &wide, Some(0.4))
        .expect("lo_wide");
    g.add_aggregate("hi_avg", AggKind::Avg, hi, Some(0.4))
        .expect("hi_avg");
    g.add_aggregate("fleet", AggKind::Avg, &["lo_avg", "hi_avg"], Some(0.5))
        .expect("fleet");
    g.add_tumbling_avg("lo_pane", "lo_avg", GRAPH_PANE, 0.2)
        .expect("lo_pane");
    g.add_alert("lo_alert", "lo_avg", 5.0, 0.05)
        .expect("lo_alert");
    g.add_alert("hi_alert", "hi_avg", 0.0, 0.05)
        .expect("hi_alert");
    g.add_sliding("fleet_win", "fleet", WindowSpec::Avg { window: 64 }, 0.5)
        .expect("fleet_win");
    let count = WindowSpec::CountAbove {
        window: 64,
        threshold: 0.0,
    };
    g.add_sliding("fleet_count", "fleet", count, 0.5)
        .expect("fleet_count");
    g.set_feedback(true);
    g
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    let mut failures = 0;

    // Protocol steady state: predict + update + suppression decision on a
    // quiet stream (settled, so no syncs — syncs are allowed to allocate).
    let mut source = SessionSpec::fixed(
        models::random_walk(0.01, 0.01),
        Vector::zeros(1),
        1.0,
        ProtocolConfig::new(0.5).expect("valid delta"),
    )
    .expect("valid spec")
    .build()
    .split()
    .0;
    for _ in 0..1_000 {
        source.decide(&[0.0]);
    }
    let (allocs, _) = alloc_count::count_allocs(|| {
        for _ in 0..TICKS {
            std::hint::black_box(source.decide(&[0.0]));
        }
    });
    failures += gate(
        &mut metrics,
        "smoke.protocol",
        "protocol steady-state tick",
        allocs,
        0,
    );

    // Bare filter: predict + update (Joseph form) on a 2-state model.
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
        for _ in 0..TICKS {
            std::hint::black_box(kf.step(&z).expect("step").nis);
        }
    });
    failures += gate(
        &mut metrics,
        "smoke.filter",
        "filter predict+update step",
        allocs,
        0,
    );

    // Adaptive filter, windows full: every update re-estimates R and may
    // rescale Q — in place, out of a ring allocated at construction.
    let mut akf = AdaptiveKalmanFilter::new(
        KalmanFilter::new(models::random_walk(0.01, 0.01), Vector::zeros(1), 1.0).expect("kf"),
        AdaptiveConfig::default(),
    );
    let mut z = Vector::zeros(1);
    let signal = |t: u64| (t as f64 * 0.05).sin() * 2.0 + (t as f64 * 1.7).sin() * 0.3;
    for t in 0..200 {
        z[0] = signal(t);
        akf.step(&z).expect("step");
    }
    let (allocs, _) = alloc_count::count_allocs(|| {
        for t in 200..200 + TICKS {
            z[0] = signal(t);
            std::hint::black_box(akf.step(&z).expect("step").nis);
        }
    });
    failures += gate(
        &mut metrics,
        "smoke.adaptive",
        "adaptive filter step past a full window",
        allocs,
        0,
    );

    // Source endpoint at a bound nothing meets: every observation cuts a
    // sync from the adaptive estimator and mirrors it onto the shadow.
    let mut source =
        SessionSpec::default_scalar(-1.0, ProtocolConfig::new(1e-9).expect("valid delta"))
            .expect("valid spec")
            .build()
            .split()
            .0;
    for t in 0..200 {
        source.decide(&[signal(t)]);
    }
    let mut syncs = 0u64;
    let (allocs, _) = alloc_count::count_allocs(|| {
        for t in 200..200 + TICKS {
            syncs += u64::from(std::hint::black_box(source.decide(&[signal(t)])).is_some());
        }
    });
    assert_eq!(syncs, TICKS, "the syncing source must sync every tick");
    failures += gate(
        &mut metrics,
        "smoke.source_sync",
        "source decide through a sync",
        allocs,
        0,
    );

    // Query graph past its first pane close and a full window: a tick
    // evaluates and verifies out of arrays the graph owns, and
    // `required_deltas` allocates the map it returns — sized once, so the
    // count is one per call however many nodes the graph holds.
    let mut graph = smoke_graph();
    let mut views = [StreamView {
        value: 0.0,
        delta: 0.1,
        staleness: 0,
    }; GRAPH_STREAMS];
    let variances = [0.01; GRAPH_STREAMS];
    let mut truth = [0.0; GRAPH_STREAMS];
    let feed = |t: u64, views: &mut [StreamView], truth: &mut [f64]| {
        for (i, (view, truth)) in views.iter_mut().zip(truth.iter_mut()).enumerate() {
            *truth = signal(t + 37 * i as u64);
            view.value = *truth + 0.05;
        }
    };
    for t in 0..200 {
        feed(t, &mut views, &mut truth);
        graph.observe_tick(&views, &variances);
        graph.verify_tick(&truth);
        graph.required_deltas();
    }
    assert!(
        graph.answer("lo_pane").is_some(),
        "the pane must have closed"
    );
    let mut grants = 0u64;
    let (mut tick_allocs, mut grant_allocs) = (0, 0);
    for t in 200..200 + TICKS {
        feed(t, &mut views, &mut truth);
        tick_allocs += alloc_count::count_allocs(|| {
            graph.observe_tick(&views, &variances);
            std::hint::black_box(graph.verify_tick(&truth));
        })
        .0;
        let (allocs, required) = alloc_count::count_allocs(|| graph.required_deltas());
        grant_allocs += allocs;
        grants += required.len() as u64;
    }
    assert_eq!(
        grants,
        TICKS * GRAPH_STREAMS as u64,
        "every raw stream must be granted a delta every tick"
    );
    failures += gate(
        &mut metrics,
        "smoke.graph_tick",
        "query graph observe_tick + verify_tick",
        tick_allocs,
        0,
    );
    failures += gate(
        &mut metrics,
        "smoke.graph_grants",
        "query graph required_deltas (the returned map)",
        grant_allocs,
        TICKS,
    );

    let heap_fallbacks = kalstream_linalg::heap_fallbacks();
    metrics
        .scope("linalg")
        .counter("heap_fallbacks", heap_fallbacks);
    if heap_fallbacks == 0 {
        println!("OK   linalg.heap_fallbacks: 0");
    } else {
        println!(
            "FAIL linalg.heap_fallbacks: {heap_fallbacks} inline values fell back to the heap"
        );
        failures += 1;
    }

    metrics.write();
    if failures > 0 {
        println!("bench-smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("bench-smoke: hot path is allocation-free");
}
