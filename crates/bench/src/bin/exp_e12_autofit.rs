//! E12 (extension) — installing a *fitted* dynamic procedure.
//!
//! The protocol ships whatever model is installed. This experiment closes
//! the loop the paper implies but leaves manual: record a prefix of the
//! stream, fit candidate models (random walk / CV / CA / Yule-Walker AR) by
//! held-out predictive likelihood, and install the winner — then compare
//! message counts on the stream's continuation against the "know nothing"
//! default (adaptive random walk).
//!
//! Expected shape: on streams with structure the fitted model matches or
//! beats the default, with the big wins where the default's model family is
//! simply wrong (trends, mean reversion); on memoryless streams the fit
//! correctly selects (near-)walk models and changes nothing. The fit's
//! *model choice* per family is printed — it is the experiment's real
//! output.

use kalstream_bench::harness::{make_stream, run_endpoints, StreamFamily};
use kalstream_bench::table::{fmt_f, Table};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::fit::fit_scalar_model;
use kalstream_filter::{models, KalmanFilter};
use kalstream_linalg::Vector;
use kalstream_sim::SessionConfig;

const PREFIX: usize = 3_000;
const TICKS: u64 = 20_000;

fn main() {
    let mut metrics = MetricsOut::from_args();
    let families = [
        StreamFamily::Ramp,
        StreamFamily::MeanReverting,
        StreamFamily::RandomWalk,
        StreamFamily::Stock,
        StreamFamily::Temperature,
    ];
    let mut table = Table::new(
        format!("E12: fitted model vs default session, delta = natural scale ({TICKS} ticks after a {PREFIX}-tick fit prefix)"),
        &["family", "fitted_model", "r_hat", "default_msgs", "fitted_msgs", "fitted_bank_msgs", "best_ratio"],
    );
    for family in families {
        let delta = family.natural_scale();
        // One stream instance: prefix for fitting, continuation for both runs.
        // Both sessions must see the *same* continuation, so record it.
        let mut stream = make_stream(family, 61);
        let (prefix_obs, _) = stream.collect(PREFIX);
        let fitted = fit_scalar_model(&prefix_obs).expect("enough samples");

        let continuation = kalstream_gen::Trace::record(stream.as_mut(), TICKS as usize);

        let run = |spec: SessionSpec| -> u64 {
            let (mut source, mut server) = spec.build().split();
            let mut replay = kalstream_gen::TraceReplay::new(continuation.clone());
            let config = SessionConfig::instant(TICKS, delta);
            run_endpoints(&mut source, &mut server, &mut replay, &config, &mut ())
                .traffic
                .messages()
        };

        let default_msgs = run(SessionSpec::default_scalar(
            prefix_obs[PREFIX - 1],
            ProtocolConfig::new(delta).unwrap(),
        )
        .unwrap());
        let fitted_name = fitted.model.name().to_string();
        let r_hat = fitted.r_hat;
        let fitted_msgs = run(SessionSpec::fixed(
            fitted.model.clone(),
            fitted.x0.clone(),
            1.0,
            ProtocolConfig::new(delta).unwrap(),
        )
        .unwrap());
        // The robust installation: the fitted model competes with a plain
        // walk inside a bank, so a spurious fit (e.g. a trend fitted to a
        // drifting prefix of a martingale) is demoted by live likelihood.
        let fitted_kf = KalmanFilter::new(fitted.model, fitted.x0, 1.0).unwrap();
        let walk_kf = KalmanFilter::new(
            models::random_walk(0.05, r_hat.max(1e-6)),
            Vector::from_slice(&[prefix_obs[PREFIX - 1]]),
            1.0,
        )
        .unwrap();
        let bank_msgs = run(SessionSpec::bank(
            vec![walk_kf, fitted_kf],
            ProtocolConfig::new(delta).unwrap(),
        )
        .unwrap());
        let best = fitted_msgs.min(bank_msgs);
        let mut s = metrics.scope(family.name());
        s.counter("default.messages", default_msgs);
        s.counter("fitted.messages", fitted_msgs);
        s.counter("fitted_bank.messages", bank_msgs);
        s.gauge("r_hat", r_hat);
        table.add_row(vec![
            family.name().to_string(),
            fitted_name,
            fmt_f(r_hat),
            default_msgs.to_string(),
            fitted_msgs.to_string(),
            bank_msgs.to_string(),
            fmt_f(default_msgs as f64 / best.max(1) as f64),
        ]);
    }
    table.print();
    println!("# shape: fitted wins big on structured streams; the fitted-plus-walk bank hedges spurious fits on memoryless ones");
    metrics.write();
}
