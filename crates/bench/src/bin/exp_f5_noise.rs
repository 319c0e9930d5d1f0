//! F5 — adaptation to sensor noise: messages vs. measurement-noise level at
//! a fixed precision bound.
//!
//! Claim exercised (abstract): "The Kalman Filter has the ability to adapt
//! to various stream characteristics, **sensor noise**, and time variance."
//!
//! Setup: a trending stream (ramp, slope 0.1) observed at increasing sensor
//! noise σ_v, fixed δ = 1. Four methods:
//!
//! * value caching (no model at all);
//! * dead reckoning (trend model, but its slope is a raw one-tick
//!   difference — noise amplified by √2/tick);
//! * a constant-velocity Kalman protocol whose `R` is **frozen** at the
//!   σ_v = 0.1 value — as noise grows the filter keeps trusting
//!   measurements, its velocity estimate chases noise, and its shipped
//!   predictions degrade;
//! * the same protocol with **online R estimation** — it re-learns the
//!   noise level and keeps the velocity estimate smooth.
//!
//! Expected shape: at the modelled noise all Kalman rows are cheap; as σ_v
//! grows, dead reckoning explodes first, frozen-R degrades toward value
//! caching, and adaptive-R stays lowest — the gap at high noise *is* the
//! adaptivity claim.

use kalstream_baselines::PolicyKind;
use kalstream_bench::harness::{run_endpoints, run_on_stream};
use kalstream_bench::table::{fmt_f, Table};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::{models, AdaptiveConfig};
use kalstream_gen::{synthetic::Ramp, Stream};
use kalstream_linalg::Vector;
use kalstream_sim::SessionConfig;

const TICKS: u64 = 20_000;
const DELTA: f64 = 1.0;
const SLOPE: f64 = 0.1;

fn make_ramp(sigma_v: f64) -> Box<dyn Stream + Send> {
    Box::new(Ramp::new(0.0, SLOPE, sigma_v, 55))
}

fn run_kalman_cv(sigma_v: f64, adaptive: bool) -> kalstream_sim::SessionReport {
    // R frozen at the σ_v = 0.1 noise level (variance 0.01).
    let model = models::constant_velocity(1.0, 1e-4, 0.01);
    let config = ProtocolConfig::new(DELTA).unwrap();
    let spec = if adaptive {
        SessionSpec::adaptive(
            model,
            Vector::zeros(2),
            1.0,
            AdaptiveConfig {
                window: 64,
                adapt_q: false,
            },
            config,
        )
    } else {
        SessionSpec::fixed(model, Vector::zeros(2), 1.0, config)
    }
    .unwrap();
    let (mut source, mut server) = spec.build().split();
    let mut stream = make_ramp(sigma_v);
    let sim_config = SessionConfig::instant(TICKS, DELTA);
    run_endpoints(
        &mut source,
        &mut server,
        stream.as_mut(),
        &sim_config,
        &mut (),
    )
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    let noise_levels = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6];
    let mut table = Table::new(
        format!("F5: messages vs sensor noise, ramp slope {SLOPE}, delta={DELTA} ({TICKS} ticks)"),
        &[
            "sigma_v",
            "value_cache",
            "dead_reckoning",
            "kalman_frozen_r",
            "kalman_adaptive_r",
        ],
    );
    for &sigma_v in &noise_levels {
        let vc_report = run_on_stream(
            PolicyKind::ValueCache,
            make_ramp(sigma_v),
            DELTA,
            TICKS,
            &mut (),
        );
        let dr_report = run_on_stream(
            PolicyKind::DeadReckoning,
            make_ramp(sigma_v),
            DELTA,
            TICKS,
            &mut (),
        );
        let frozen_report = run_kalman_cv(sigma_v, false);
        let adaptive_report = run_kalman_cv(sigma_v, true);
        let noise = format!("{sigma_v}").replace('.', "_");
        metrics.record(&format!("noise_{noise}.value_cache"), &vc_report);
        metrics.record(&format!("noise_{noise}.dead_reckoning"), &dr_report);
        metrics.record(&format!("noise_{noise}.kalman_frozen_r"), &frozen_report);
        metrics.record(
            &format!("noise_{noise}.kalman_adaptive_r"),
            &adaptive_report,
        );
        table.add_row(vec![
            fmt_f(sigma_v),
            vc_report.traffic.messages().to_string(),
            dr_report.traffic.messages().to_string(),
            frozen_report.traffic.messages().to_string(),
            adaptive_report.traffic.messages().to_string(),
        ]);
    }
    table.print();
    println!(
        "# shape: adaptive_r flattest as sigma_v grows; frozen_r degrades; dead_reckoning worst"
    );
    metrics.write();
}
