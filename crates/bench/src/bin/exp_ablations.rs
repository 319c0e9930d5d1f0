//! Behavioural ablations of the design choices DESIGN.md calls out.
//!
//! * **abl_joseph** — Joseph-form vs. textbook covariance update: maximum
//!   covariance asymmetry accumulated over a long filtering run (the
//!   numerical-robustness argument). The two forms' speed is not measured:
//!   no span of the `benchmark/` ledger times the simple form.
//! * **abl_resync** — full-state vs. measurement-only sync payloads:
//!   messages, bytes, and precision violations on a fast ramp. Measurement
//!   syncs are ~6× smaller but the server's posterior lags the signal, so
//!   the hard guarantee is lost — the quantified trade.
//! * **abl_adapt_window** — adaptation window length vs. message count on a
//!   noise-shifted stream: too short chases noise, too long reacts late.
//! * **abl_heartbeat** — heartbeat period vs. messages and worst staleness:
//!   the liveness/efficiency dial.

use kalstream_bench::harness::run_endpoints;
use kalstream_bench::table::{fmt_f, Table};
use kalstream_bench::MetricsOut;
use kalstream_core::{FleetController, ProtocolConfig, ResyncPayload, SessionSpec, SourceEndpoint};
use kalstream_filter::{models, AdaptiveConfig, CovarianceUpdate, KalmanFilter};
use kalstream_gen::{
    synthetic::{Ramp, RandomWalk},
    Stream,
};
use kalstream_linalg::{Matrix, Vector};
use kalstream_sim::SessionConfig;

fn max_asymmetry(p: &Matrix) -> f64 {
    let mut worst = 0.0f64;
    for r in 0..p.rows() {
        for c in 0..p.cols() {
            worst = worst.max((p.get(r, c) - p.get(c, r)).abs());
        }
    }
    worst
}

fn abl_joseph(metrics: &mut MetricsOut) {
    // Both update forms are algebraically identical, and the filter
    // re-symmetrises after every step, so the interesting questions are
    // (a) how far the two forms drift apart under rounding on an
    // ill-conditioned problem (tiny R against a huge initial P), and
    // (b) whether either loses positive definiteness. The Joseph form is
    // the library default; this ablation quantifies what the cheap form
    // would risk.
    let mut table = Table::new(
        "abl_joseph: Joseph vs simple covariance update, ill-conditioned CV filter, 100k steps",
        &["metric", "value"],
    );
    let model = models::constant_velocity(1.0, 1e-12, 1e-10);
    let mut joseph = KalmanFilter::new(model.clone(), Vector::zeros(2), 1e10).unwrap();
    let mut simple = KalmanFilter::new(model, Vector::zeros(2), 1e10).unwrap();
    simple.set_covariance_update(CovarianceUpdate::Simple);
    let mut stream = RandomWalk::new(0.0, 0.01, 0.05, 0.1, 77);
    let mut obs = [0.0];
    let mut tru = [0.0];
    let mut max_divergence = 0.0f64;
    let mut simple_failures = 0u64;
    let mut min_diag_simple = f64::INFINITY;
    let mut min_diag_joseph = f64::INFINITY;
    for t in 0..100_000u64 {
        stream.next_into(&mut obs, &mut tru);
        let z = Vector::from_slice(&obs);
        joseph.predict().unwrap();
        joseph.update(&z).unwrap();
        simple.predict().unwrap();
        if simple.update(&z).is_err() {
            simple_failures += 1;
            // Re-seed the simple filter from the healthy one and continue.
            let _ = simple.set_state(joseph.state().clone(), joseph.covariance().clone());
        }
        if t > 10 {
            max_divergence =
                max_divergence.max(joseph.covariance().max_abs_diff(simple.covariance()));
            for i in 0..2 {
                min_diag_joseph = min_diag_joseph.min(joseph.covariance().get(i, i));
                min_diag_simple = min_diag_simple.min(simple.covariance().get(i, i));
            }
        }
        let _ = max_asymmetry(joseph.covariance());
    }
    let mut s = metrics.scope("joseph");
    s.gauge("max_covariance_divergence", max_divergence);
    s.counter("simple_update_failures", simple_failures);
    table.add_row(vec![
        "max |P_joseph - P_simple|".into(),
        format!("{max_divergence:.3e}"),
    ]);
    table.add_row(vec![
        "min diag(P) joseph".into(),
        format!("{min_diag_joseph:.3e}"),
    ]);
    table.add_row(vec![
        "min diag(P) simple".into(),
        format!("{min_diag_simple:.3e}"),
    ]);
    table.add_row(vec![
        "simple-form update failures".into(),
        simple_failures.to_string(),
    ]);
    table.print();
}

fn abl_resync(metrics: &mut MetricsOut) {
    let mut table = Table::new(
        "abl_resync: sync payload ablation on a fast ramp (slope 0.5, delta 0.4, 20k ticks)",
        &[
            "payload",
            "messages",
            "total_bytes",
            "violations",
            "max_err",
        ],
    );
    for (name, payload) in [
        ("full_state", ResyncPayload::FullState),
        ("measurement_only", ResyncPayload::MeasurementOnly),
    ] {
        let config_proto = ProtocolConfig::new(0.4).unwrap().with_resync(payload);
        // A *smoothing* filter (large modelled R): its posterior lags the
        // ramp, which is exactly the condition that separates the two
        // payloads — full-state syncs pin the shipped state inside δ, while
        // measurement-only syncs leave the server on the lagging posterior.
        let spec = SessionSpec::fixed(
            models::random_walk(0.05, 1.0),
            Vector::zeros(1),
            1.0,
            config_proto,
        )
        .unwrap();
        let (mut source, mut server) = spec.build().split();
        let mut stream: Box<dyn Stream + Send> = Box::new(Ramp::new(0.0, 0.5, 0.02, 78));
        let config = SessionConfig::instant(20_000, 0.4);
        let report = run_endpoints(&mut source, &mut server, stream.as_mut(), &config, &mut ());
        metrics.record(&format!("resync.{name}"), &report);
        table.add_row(vec![
            name.to_string(),
            report.traffic.messages().to_string(),
            report.traffic.bytes().to_string(),
            report.error_vs_observed.violations().to_string(),
            fmt_f(report.error_vs_observed.max_abs()),
        ]);
    }
    table.print();
}

fn abl_adapt_window(metrics: &mut MetricsOut) {
    let mut table = Table::new(
        "abl_adapt_window: adaptation window vs messages (noise jumps 0.05 -> 0.8 mid-run, delta 1.0)",
        &["window", "messages", "rmse"],
    );
    for window in [8usize, 32, 128, 512] {
        let adapt = AdaptiveConfig {
            window,
            ..Default::default()
        };
        let spec = SessionSpec::adaptive(
            models::random_walk(0.01, 0.01),
            Vector::zeros(1),
            1.0,
            adapt,
            ProtocolConfig::new(1.0).unwrap(),
        )
        .unwrap();
        let (mut source, mut server) = spec.build().split();
        // Two-phase noise: quiet then loud.
        let mut quiet = RandomWalk::new(0.0, 0.0, 0.05, 0.05, 79);
        let mut loud = RandomWalk::new(0.0, 0.0, 0.05, 0.8, 80);
        let mut t = 0u64;
        let config = SessionConfig::instant(20_000, 1.0);
        let report = kalstream_sim::Session::run(
            &config,
            |obs, tru| {
                if t < 10_000 {
                    quiet.next_into(obs, tru);
                } else {
                    loud.next_into(obs, tru);
                }
                t += 1;
            },
            &mut source,
            &mut server,
            &mut (),
        );
        metrics.record(&format!("adapt_window.{window}"), &report);
        table.add_row(vec![
            window.to_string(),
            report.traffic.messages().to_string(),
            fmt_f(report.error_vs_observed.rmse()),
        ]);
    }
    table.print();
}

fn abl_heartbeat(metrics: &mut MetricsOut) {
    let mut table = Table::new(
        "abl_heartbeat: heartbeat period vs messages and staleness (quiet stream, delta 5.0, 20k ticks)",
        &["heartbeat", "messages", "max_staleness"],
    );
    for heartbeat in [None, Some(1000u64), Some(100), Some(10)] {
        let mut config_proto = ProtocolConfig::new(5.0).unwrap();
        if let Some(h) = heartbeat {
            config_proto = config_proto.with_heartbeat(h).unwrap();
        }
        let spec = SessionSpec::fixed(
            models::random_walk(0.01, 0.01),
            Vector::zeros(1),
            1.0,
            config_proto,
        )
        .unwrap();
        let (mut source, mut server) = spec.build().split();
        let mut stream: Box<dyn Stream + Send> =
            Box::new(RandomWalk::new(0.0, 0.0, 0.02, 0.02, 81));
        let config = SessionConfig::instant(20_000, 5.0);
        let mut series = kalstream_sim::ErrorSeries::default();
        let report = run_endpoints(
            &mut source,
            &mut server,
            stream.as_mut(),
            &config,
            &mut series,
        );
        // Max staleness from the cumulative message series.
        let mut max_age = 0u64;
        let mut last_tick = 0u64;
        let mut last_count = 0u64;
        for (t, &m) in series.messages.iter().enumerate() {
            if m > last_count {
                last_count = m;
                last_tick = t as u64;
            }
            max_age = max_age.max(t as u64 - last_tick);
        }
        let label = heartbeat.map_or("none".to_string(), |h| h.to_string());
        metrics.record(&format!("heartbeat.{label}"), &report);
        metrics
            .scope(&format!("heartbeat.{label}"))
            .counter("max_staleness", max_age);
        table.add_row(vec![
            label,
            report.traffic.messages().to_string(),
            max_age.to_string(),
        ]);
    }
    table.print();
}

fn abl_alloc_period(metrics: &mut MetricsOut) {
    // A fleet whose volatilities *swap* mid-run: stream 0 goes calm→wild
    // and stream 1 wild→calm at tick 10k. The faster the controller
    // re-allocates, the sooner the bounds follow — measured as fleet
    // messages (budget adherence) and the mean bound mismatch after the
    // swap (how long the wrong stream kept the tight bound).
    let mut table = Table::new(
        "abl_alloc_period: controller period vs adaptation to a volatility swap (20k ticks, budget 0.4 msg/tick)",
        &["period", "control_rounds", "fleet_messages", "post_swap_misallocated_ticks"],
    );
    for period in [500u64, 2_000, 8_000] {
        let mut sources: Vec<SourceEndpoint> = (0..2)
            .map(|_| {
                SessionSpec::default_scalar(0.0, ProtocolConfig::new(1.0).unwrap())
                    .unwrap()
                    .build()
                    .split()
                    .0
            })
            .collect();
        let mut ctrl = FleetController::new(2, period, 0.4).unwrap();
        let mut calm = RandomWalk::new(0.0, 0.0, 0.02, 0.01, 84);
        let mut wild = RandomWalk::new(0.0, 0.0, 1.0, 0.01, 85);
        let mut calm2 = RandomWalk::new(0.0, 0.0, 1.0, 0.01, 86); // stream 0 after swap
        let mut wild2 = RandomWalk::new(0.0, 0.0, 0.02, 0.01, 87); // stream 1 after swap
        let mut obs = [0.0];
        let mut tru = [0.0];
        let mut misallocated = 0u64;
        for t in 0..20_000u64 {
            for (i, source) in sources.iter_mut().enumerate() {
                let s: &mut dyn Stream = match (i, t < 10_000) {
                    (0, true) => &mut calm,
                    (1, true) => &mut wild,
                    (0, false) => &mut calm2,
                    _ => &mut wild2,
                };
                s.next_into(&mut obs, &mut tru);
                let _ = source.decide(&obs);
            }
            ctrl.tick(&mut sources);
            // After the swap, stream 0 is the wild one: it should hold the
            // looser bound. Count ticks where the allocation is backwards.
            if t >= 10_000 && sources[0].delta() < sources[1].delta() {
                misallocated += 1;
            }
        }
        let fleet_messages: u64 = sources.iter().map(SourceEndpoint::syncs).sum();
        metrics.record(&format!("alloc_period.{period}.controller"), &ctrl);
        for (i, source) in sources.iter().enumerate() {
            metrics.record(&format!("alloc_period.{period}.source.{i}"), source);
        }
        metrics
            .scope(&format!("alloc_period.{period}"))
            .counter("post_swap_misallocated_ticks", misallocated);
        table.add_row(vec![
            period.to_string(),
            ctrl.rounds().to_string(),
            fleet_messages.to_string(),
            misallocated.to_string(),
        ]);
    }
    table.print();
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    abl_joseph(&mut metrics);
    abl_resync(&mut metrics);
    abl_adapt_window(&mut metrics);
    abl_heartbeat(&mut metrics);
    abl_alloc_period(&mut metrics);
    metrics.write();
}
