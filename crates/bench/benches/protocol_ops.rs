//! T4 (part 2) — protocol micro-benchmarks: the suppression decision, wire
//! codec, allocation step, and whole-session throughput per policy.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kalstream_baselines::{build_policy, PolicyKind};
use kalstream_core::{
    pin_to_measurement, wire::SyncMessage, BudgetAllocator, ProtocolConfig, SessionSpec,
    StreamDemand,
};
use kalstream_filter::models;
use kalstream_gen::{synthetic::RandomWalk, Stream};
use kalstream_linalg::{Matrix, Vector};
use kalstream_sim::{Session, SessionConfig};

fn bench_suppression_decision(c: &mut Criterion) {
    // A quiet stream: the decision almost always suppresses — the hot path.
    let spec = SessionSpec::default_scalar(0.0, ProtocolConfig::new(1.0).unwrap()).unwrap();
    let (mut source, _server) = spec.build().split();
    c.bench_function("suppression_decision_quiet", |b| {
        b.iter(|| {
            black_box(source.decide(&[0.001]));
        })
    });
}

fn bench_pinning(c: &mut Criterion) {
    let h = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 0.0, 1.0, 0.0]]);
    let x = Vector::from_slice(&[1.0, 0.5, 2.0, -0.5]);
    let z = Vector::from_slice(&[1.5, 2.5]);
    c.bench_function("pin_to_measurement_4state", |b| {
        b.iter(|| black_box(pin_to_measurement(&x, &h, &z).unwrap()))
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let state = SyncMessage::State {
        x: Vector::from_slice(&[1.0, 0.5]),
        p: Matrix::scalar(2, 0.3),
    };
    let model = SyncMessage::Model {
        model: Box::new(models::constant_velocity(1.0, 0.01, 0.1)),
        x: Vector::from_slice(&[1.0, 0.5]),
        p: Matrix::scalar(2, 0.3),
    };
    let mut group = c.benchmark_group("wire");
    for (name, msg) in [("state", &state), ("model", &model)] {
        let bytes = msg.encode();
        group.bench_function(BenchmarkId::new("encode", name), |b| {
            b.iter(|| black_box(msg.encode()))
        });
        group.bench_function(BenchmarkId::new("decode", name), |b| {
            b.iter(|| black_box(SyncMessage::decode(&bytes).unwrap()))
        });
    }
    group.finish();
}

fn bench_allocator(c: &mut Criterion) {
    let demands: Vec<StreamDemand> = (0..100)
        .map(|i| {
            let scale = 0.1 * (1 + i % 10) as f64;
            let samples: Vec<f64> = (1..=256).map(|k| scale * k as f64 / 256.0).collect();
            StreamDemand::new(samples, 1.0).unwrap()
        })
        .collect();
    c.bench_function("budget_allocate_100_streams", |b| {
        b.iter(|| black_box(BudgetAllocator::allocate(&demands, 10.0).unwrap()))
    });
}

fn bench_session_throughput(c: &mut Criterion) {
    let ticks = 10_000u64;
    let mut group = c.benchmark_group("session_throughput");
    group.throughput(Throughput::Elements(ticks));
    for policy in [
        PolicyKind::ValueCache,
        PolicyKind::KalmanFixed,
        PolicyKind::KalmanBank,
    ] {
        group.bench_function(BenchmarkId::from_parameter(policy.name()), |b| {
            b.iter(|| {
                let mut stream = RandomWalk::new(0.0, 0.0, 0.5, 0.1, 7);
                let first = stream.next_sample();
                let (mut p, mut c2) = build_policy(policy, 1, 1.0, &first.observed);
                let config = SessionConfig::instant(ticks, 1.0);
                let report = Session::run(
                    &config,
                    |obs, tru| stream.next_into(obs, tru),
                    p.as_mut(),
                    c2.as_mut(),
                    &mut (),
                );
                black_box(report.traffic.messages())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_suppression_decision,
    bench_pinning,
    bench_wire_codec,
    bench_allocator,
    bench_session_throughput
);
criterion_main!(benches);
