//! Integration: full protocol pipelines through the simulator — wire
//! encoding on every hop, model syncs from bank switches, heartbeats,
//! latency, and the server/shadow lock-step invariant.

use kalstream::core::{Estimator, ProtocolConfig, ResyncPayload, SessionSpec};
use kalstream::filter::{models, KalmanFilter};
use kalstream::gen::{synthetic::Ramp, synthetic::RandomWalk, Stream};
use kalstream::linalg::Vector;
use kalstream::sim::{Consumer, Producer, Session, SessionConfig};

#[test]
fn bank_session_promotes_cv_and_ships_model_sync_over_the_wire() {
    let spec = SessionSpec::standard_bank(0.0, 0.05, ProtocolConfig::new(0.5).unwrap()).unwrap();
    let (mut source, mut server) = spec.build().split();
    assert_eq!(server.filter().model().name(), "random_walk");
    let mut stream = Ramp::new(0.0, 0.4, 0.05, 21);
    let config = SessionConfig::instant(3_000, 0.5);
    let report = Session::run(
        &config,
        |obs, tru| stream.next_into(obs, tru),
        &mut source,
        &mut server,
        &mut (),
    );
    // The trend forces a model switch, delivered via a wire Model sync.
    assert_eq!(server.filter().model().name(), "constant_velocity");
    assert_eq!(report.error_vs_observed.violations(), 0);
    assert_eq!(server.decode_failures(), 0);
    assert!(server.syncs_applied() > 0);
    // After lock-in, a ramp is nearly free for a CV model: far fewer
    // messages than the one-per-(δ/slope) a value cache would pay (≈ 2400).
    assert!(
        report.traffic.messages() < 600,
        "messages {}",
        report.traffic.messages()
    );
}

#[test]
fn server_matches_shadow_exactly_at_zero_latency() {
    // The protocol invariant: the source's shadow filter and the server
    // must agree bit-for-bit after every tick.
    let spec = SessionSpec::default_scalar(0.0, ProtocolConfig::new(0.3).unwrap()).unwrap();
    let (mut source, mut server) = spec.build().split();
    let mut stream = RandomWalk::new(0.0, 0.01, 0.2, 0.05, 22);
    let mut obs = [0.0];
    let mut tru = [0.0];
    for now in 0..2_000u64 {
        stream.next_into(&mut obs, &mut tru);
        let payload = source.observe(now, &obs);
        if let Some(p) = payload {
            server.receive(now, &p);
        }
        let mut est = [0.0];
        server.estimate(now, &mut est);
        // The served value must equal the measurement the shadow predicted
        // (which is what the suppression decision was based on) — both are
        // H·x of identical filters.
        let diff = (est[0] - source_shadow_prediction(&source)).abs();
        assert!(diff < 1e-12, "tick {now}: server/shadow diverged by {diff}");
    }
}

/// The shadow's current predicted measurement: after `observe` ran for tick
/// t, the shadow has predicted t and absorbed any sync — exactly the state
/// the server reaches after its `estimate` call for the same tick.
fn source_shadow_prediction(source: &kalstream::core::SourceEndpoint) -> f64 {
    source.shadow_predicted_value()
}

#[test]
fn heartbeat_keeps_staleness_bounded_through_the_simulator() {
    let config_proto = ProtocolConfig::new(1e9)
        .unwrap()
        .with_heartbeat(25)
        .unwrap();
    let spec = SessionSpec::default_scalar(0.0, config_proto).unwrap();
    let (mut source, mut server) = spec.build().split();
    let mut stream = RandomWalk::new(0.0, 0.0, 0.1, 0.05, 23);
    let mut obs = [0.0];
    let mut tru = [0.0];
    let mut worst = 0;
    for now in 0..1_000u64 {
        stream.next_into(&mut obs, &mut tru);
        if let Some(p) = source.observe(now, &obs) {
            server.receive(now, &p);
        }
        let mut est = [0.0];
        server.estimate(now, &mut est);
        worst = worst.max(server.staleness());
    }
    assert!(worst <= 25, "staleness {worst} exceeded heartbeat");
    assert!(source.syncs() >= 1_000 / 25 - 1);
}

#[test]
fn measurement_only_mode_runs_end_to_end() {
    let config_proto = ProtocolConfig::new(0.5)
        .unwrap()
        .with_resync(ResyncPayload::MeasurementOnly);
    let spec = SessionSpec::fixed(
        models::random_walk(0.05, 0.01),
        Vector::zeros(1),
        1.0,
        config_proto,
    )
    .unwrap();
    let (mut source, mut server) = spec.build().split();
    let mut stream = RandomWalk::new(0.0, 0.0, 0.3, 0.05, 24);
    let config = SessionConfig::instant(2_000, 0.5);
    let report = Session::run(
        &config,
        |obs, tru| stream.next_into(obs, tru),
        &mut source,
        &mut server,
        &mut (),
    );
    // Measurement syncs are tiny: tag + len + one f64 + 28B framing.
    let per_msg = report.traffic.bytes() as f64 / report.traffic.messages() as f64;
    assert!((per_msg - 41.0).abs() < 1e-9, "bytes/msg {per_msg}");
}

#[test]
fn latency_defers_corrections_and_is_measured() {
    let spec = SessionSpec::default_scalar(0.0, ProtocolConfig::new(0.3).unwrap()).unwrap();
    let (mut source, mut server) = spec.build().split();
    let mut stream = Ramp::new(0.0, 0.3, 0.02, 25);
    let config = SessionConfig {
        latency: 3,
        ..SessionConfig::instant(2_000, 0.3)
    };
    let report = Session::run(
        &config,
        |obs, tru| stream.next_into(obs, tru),
        &mut source,
        &mut server,
        &mut (),
    );
    // A 0.3/tick ramp with 3-tick-late corrections must show violations.
    assert!(report.error_vs_observed.violations() > 0);
}

#[test]
fn session_pair_from_identical_specs_is_reproducible() {
    let run_once = || {
        let spec =
            SessionSpec::standard_bank(0.0, 0.05, ProtocolConfig::new(0.4).unwrap()).unwrap();
        let (mut source, mut server) = spec.build().split();
        let mut stream = RandomWalk::new(0.0, 0.05, 0.3, 0.1, 26);
        let config = SessionConfig::instant(3_000, 0.4);
        let report = Session::run(
            &config,
            |obs, tru| stream.next_into(obs, tru),
            &mut source,
            &mut server,
            &mut (),
        );
        (
            report.traffic.messages(),
            report.traffic.bytes(),
            server.filter().state().clone(),
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn mixed_bank_session_never_panics_across_model_dims() {
    // Bank members with different state dimensions exchange Model syncs as
    // the active model flips; the server must resize its filter seamlessly.
    let walk = KalmanFilter::new(models::random_walk(0.05, 0.05), Vector::zeros(1), 1.0).unwrap();
    let ca = KalmanFilter::new(
        models::constant_acceleration(1.0, 0.01, 0.05),
        Vector::zeros(3),
        1.0,
    )
    .unwrap();
    let spec = SessionSpec::bank(vec![walk, ca], ProtocolConfig::new(0.4).unwrap()).unwrap();
    let (mut source, mut server) = spec.build().split();
    let mut t = 0.0f64;
    let config = SessionConfig::instant(4_000, 0.4);
    let report = Session::run(
        &config,
        |obs, tru| {
            // Quadratic phase then flat phase: forces switches both ways.
            let v = if t < 2_000.0 { 0.0005 * t * t } else { 2_000.0 };
            obs[0] = v;
            tru[0] = v;
            t += 1.0;
        },
        &mut source,
        &mut server,
        &mut (),
    );
    assert_eq!(report.error_vs_observed.violations(), 0);
    // Quadratic → acceleration model, flat → walk: both flips happen.
    let Estimator::Bank(bank) = source.estimator() else {
        panic!("a bank session runs a bank");
    };
    assert_eq!(bank.switches(), 2);
}
