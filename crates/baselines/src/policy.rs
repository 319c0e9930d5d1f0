//! Uniform policy factory used by the benchmark harness: every method in
//! the evaluation — baselines *and* the Kalman protocol — built behind the
//! same pair of boxed endpoint traits.

use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::{models, AdaptiveConfig};
use kalstream_linalg::Vector;
use kalstream_sim::{Consumer, Producer};

/// Every suppression policy in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Ship every sample (exact baseline, T1 denominator).
    ShipAll,
    /// Periodic refresh every `n` ticks.
    Ttl(u64),
    /// Approximate value caching at the experiment's `δ`.
    ValueCache,
    /// Linear dead reckoning at the experiment's `δ`.
    DeadReckoning,
    /// Holt-trend smoothing at the experiment's `δ`.
    HoltTrend,
    /// Dual-Kalman protocol with a fixed random-walk (1-D) /
    /// constant-velocity (2-D) model.
    KalmanFixed,
    /// Dual-Kalman protocol with adaptive `Q`/`R`.
    KalmanAdaptive,
    /// Dual-Kalman protocol with the standard walk/velocity/acceleration
    /// model bank (scalar streams only; falls back to adaptive for 2-D).
    KalmanBank,
    /// Dual-Kalman protocol with a known-frequency harmonic model — the
    /// "you know your stream's physics" configuration (scalar only). The
    /// payload is the angular frequency per tick.
    KalmanHarmonic(f64),
}

impl PolicyKind {
    /// Stable identifier used in experiment table rows.
    pub fn name(&self) -> String {
        match self {
            PolicyKind::ShipAll => "ship_all".into(),
            PolicyKind::Ttl(n) => format!("ttl_{n}"),
            PolicyKind::ValueCache => "value_cache".into(),
            PolicyKind::DeadReckoning => "dead_reckoning".into(),
            PolicyKind::HoltTrend => "holt_trend".into(),
            PolicyKind::KalmanFixed => "kalman_fixed".into(),
            PolicyKind::KalmanAdaptive => "kalman_adaptive".into(),
            PolicyKind::KalmanBank => "kalman_bank".into(),
            PolicyKind::KalmanHarmonic(_) => "kalman_harmonic".into(),
        }
    }

    /// The roster every comparison experiment iterates over.
    pub fn roster() -> Vec<PolicyKind> {
        vec![
            PolicyKind::ShipAll,
            PolicyKind::Ttl(10),
            PolicyKind::ValueCache,
            PolicyKind::DeadReckoning,
            PolicyKind::HoltTrend,
            PolicyKind::KalmanFixed,
            PolicyKind::KalmanAdaptive,
            PolicyKind::KalmanBank,
        ]
    }
}

/// Builds the producer/consumer pair for `kind` on a `dim`-dimensional
/// stream with precision bound `delta`, starting near `x0` (the stream's
/// first value, used to initialise model-based policies sensibly).
///
/// # Panics
/// Panics on invalid `delta` or unsupported `dim` (only 1 and 2 appear in
/// the evaluation).
pub fn build_policy(
    kind: PolicyKind,
    dim: usize,
    delta: f64,
    x0: &[f64],
) -> (Box<dyn Producer + Send>, Box<dyn Consumer + Send>) {
    assert!(dim == 1 || dim == 2, "evaluation streams are 1-D or 2-D");
    assert_eq!(x0.len(), dim, "x0 must match dim");
    match kind {
        PolicyKind::ShipAll => (
            Box::new(crate::ShipAll::new(dim)),
            Box::new(crate::LastValueServer::new(x0)),
        ),
        PolicyKind::Ttl(n) => (
            Box::new(crate::TtlCache::new(dim, n)),
            Box::new(crate::LastValueServer::new(x0)),
        ),
        PolicyKind::ValueCache => (
            Box::new(crate::ValueCache::new(dim, delta)),
            Box::new(crate::LastValueServer::new(x0)),
        ),
        PolicyKind::DeadReckoning => (
            Box::new(crate::DeadReckoning::new(dim, delta)),
            Box::new(crate::DeadReckoningServer::new(dim)),
        ),
        PolicyKind::HoltTrend => (
            Box::new(crate::HoltTrend::with_defaults(dim, delta)),
            Box::new(crate::HoltTrendServer::new(dim)),
        ),
        PolicyKind::KalmanFixed
        | PolicyKind::KalmanAdaptive
        | PolicyKind::KalmanBank
        | PolicyKind::KalmanHarmonic(_) => {
            let config = ProtocolConfig::new(delta).expect("validated delta");
            let spec = kalman_spec(kind, dim, x0, config);
            let (source, server) = spec.build().split();
            (Box::new(source), Box::new(server))
        }
    }
}

fn kalman_spec(kind: PolicyKind, dim: usize, x0: &[f64], config: ProtocolConfig) -> SessionSpec {
    match (kind, dim) {
        (PolicyKind::KalmanFixed, 1) => SessionSpec::fixed(
            models::random_walk(0.05, 0.01),
            Vector::from_slice(x0),
            1.0,
            config,
        )
        .expect("valid fixed spec"),
        (PolicyKind::KalmanFixed, _)
        | (PolicyKind::KalmanAdaptive, 2)
        | (PolicyKind::KalmanBank, 2) => {
            // 2-D tracking: adapt R (receiver noise is unknown) but keep Q
            // fixed — maneuver intensity is a domain constant, and letting
            // NIS-driven scaling fight the R estimator destabilises the
            // velocity estimate (measured in the abl_adapt ablation).
            SessionSpec::adaptive(
                models::constant_velocity_2d(1.0, 0.005, 1.0),
                Vector::from_slice(&[x0[0], 0.0, x0[1], 0.0]),
                10.0,
                AdaptiveConfig {
                    window: 128,
                    adapt_q: false,
                },
                config,
            )
            .expect("valid 2-D spec")
        }
        (PolicyKind::KalmanAdaptive, _) => SessionSpec::adaptive(
            models::random_walk(0.05, 0.01),
            Vector::from_slice(x0),
            1.0,
            AdaptiveConfig::default(),
            config,
        )
        .expect("valid adaptive spec"),
        (PolicyKind::KalmanBank, _) => {
            SessionSpec::standard_bank(x0[0], 0.05, config).expect("valid bank spec")
        }
        (PolicyKind::KalmanHarmonic(omega), 1) => SessionSpec::fixed(
            models::harmonic(omega, 1.0, 1e-5, 0.05),
            Vector::from_slice(&[x0[0], 0.0]),
            1.0,
            config,
        )
        .expect("valid harmonic spec"),
        (PolicyKind::KalmanHarmonic(_), _) => SessionSpec::adaptive(
            models::constant_velocity_2d(1.0, 0.005, 1.0),
            Vector::from_slice(&[x0[0], 0.0, x0[1], 0.0]),
            10.0,
            AdaptiveConfig {
                window: 128,
                adapt_q: false,
            },
            config,
        )
        .expect("valid 2-D spec"),
        _ => unreachable!("kalman_spec called for a baseline kind"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_sim::{Session, SessionConfig};

    fn run(kind: PolicyKind, dim: usize) -> kalstream_sim::SessionReport {
        let x0 = vec![0.0; dim];
        let (mut p, mut c) = build_policy(kind, dim, 0.5, &x0);
        let config = SessionConfig::instant(500, 0.5);
        let mut t = 0.0;
        Session::run(
            &config,
            move |obs, tru| {
                for i in 0..dim {
                    obs[i] = (0.01 * t + i as f64).sin();
                    tru[i] = obs[i];
                }
                t += 1.0;
            },
            p.as_mut(),
            c.as_mut(),
            &mut (),
        )
    }

    #[test]
    fn every_policy_builds_and_runs_scalar() {
        for kind in PolicyKind::roster() {
            let report = run(kind, 1);
            assert_eq!(report.ticks, 500, "policy {}", kind.name());
        }
    }

    #[test]
    fn every_policy_builds_and_runs_2d() {
        for kind in PolicyKind::roster() {
            let report = run(kind, 2);
            assert_eq!(report.ticks, 500, "policy {}", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = PolicyKind::roster().iter().map(|k| k.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn ship_all_never_suppresses_kalman_always_does_on_slow_stream() {
        let ship = run(PolicyKind::ShipAll, 1);
        let kalman = run(PolicyKind::KalmanFixed, 1);
        assert_eq!(ship.traffic.messages(), 500);
        assert!(
            kalman.traffic.messages() < ship.traffic.messages() / 4,
            "kalman sent {}",
            kalman.traffic.messages()
        );
    }

    #[test]
    fn delta_respecting_policies_have_zero_violations() {
        for kind in [
            PolicyKind::ShipAll,
            PolicyKind::ValueCache,
            PolicyKind::DeadReckoning,
            PolicyKind::HoltTrend,
            PolicyKind::KalmanFixed,
            PolicyKind::KalmanAdaptive,
            PolicyKind::KalmanBank,
        ] {
            let report = run(kind, 1);
            assert_eq!(
                report.error_vs_observed.violations(),
                0,
                "policy {} violated its bound",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "1-D or 2-D")]
    fn unsupported_dim_rejected() {
        let _ = build_policy(PolicyKind::ShipAll, 3, 0.5, &[0.0, 0.0, 0.0]);
    }
}
