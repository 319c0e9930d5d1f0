//! Fast allocation regression gate (`cargo bench-smoke`).
//!
//! Runs the protocol steady-state loop, the bare filter loop, an adaptive
//! filter past a full estimation window and a source endpoint syncing on
//! every observation under the counting allocator and **fails (exit 1) if
//! any of them performs a heap allocation per tick, or if any `linalg`
//! value fell back from inline to heap storage**. Finishes in well under a
//! second; wire it into CI next to the unit tests. Honours
//! `--metrics-out <path>` for the CI artifact contract.

use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::{models, AdaptiveConfig, AdaptiveKalmanFilter, KalmanFilter};
use kalstream_linalg::Vector;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const TICKS: u64 = 5_000;

/// Prints one gate line, records the count, and returns the failures it
/// adds (0 or 1).
fn gate(metrics: &mut MetricsOut, scope: &str, what: &str, allocs: u64) -> u32 {
    metrics.scope(scope).counter("allocations", allocs);
    if allocs == 0 {
        println!("OK   {what}: 0 allocations over {TICKS} ticks");
    } else {
        println!(
            "FAIL {what} allocated: {allocs} allocations over {TICKS} ticks ({:.2}/tick)",
            allocs as f64 / TICKS as f64
        );
    }
    u32::from(allocs != 0)
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
