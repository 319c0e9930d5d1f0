//! Workload presets and method runners shared by every experiment binary.

use kalstream_baselines::{build_policy, PolicyKind};
use kalstream_gen::{
    domain::{GpsTrack, NetworkRtt, StockTicker, TemperatureSensor},
    synthetic::{OrnsteinUhlenbeck, Ramp, RandomWalk, RegimeSwitching, Sinusoid},
    Stream,
};
use kalstream_sim::{Session, SessionConfig, SessionReport, TickObserver};

/// The stream families of the evaluation, each with canonical parameters so
/// every experiment that says e.g. "random walk" means the same process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFamily {
    /// Scalar random walk, σ_w = 0.5, σ_v = 0.1 (F1's workload).
    RandomWalk,
    /// Sinusoid, amplitude 10, period 200 ticks, σ_v = 0.2 (F2).
    Sinusoid,
    /// GBM stock ticker, liquid-large-cap preset (F3).
    Stock,
    /// 2-D random-waypoint GPS, pedestrian preset (F4).
    Gps,
    /// Diurnal temperature sensor (T1/T2 coverage).
    Temperature,
    /// Bursty WAN round-trip time (T1/T2 coverage).
    NetworkRtt,
    /// Mean-reverting Ornstein–Uhlenbeck process (T1/T2 coverage).
    MeanReverting,
    /// Walk → ramp → sinusoid regime switcher (F6).
    Regime,
    /// Pure linear ramp, slope 0.2, σ_v = 0.05 (ablations).
    Ramp,
}

impl StreamFamily {
    /// Stable name used in table rows.
    pub fn name(&self) -> &'static str {
        match self {
            StreamFamily::RandomWalk => "random_walk",
            StreamFamily::Sinusoid => "sinusoid",
            StreamFamily::Stock => "stock",
            StreamFamily::Gps => "gps",
            StreamFamily::Temperature => "temperature",
            StreamFamily::NetworkRtt => "network_rtt",
            StreamFamily::MeanReverting => "mean_reverting",
            StreamFamily::Regime => "regime",
            StreamFamily::Ramp => "ramp",
        }
    }

    /// Stream dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            StreamFamily::Gps => 2,
            _ => 1,
        }
    }

    /// A per-family "natural scale" used to choose comparable δ values
    /// across families (≈ the standard deviation of one-step moves).
    pub fn natural_scale(&self) -> f64 {
        match self {
            StreamFamily::RandomWalk => 0.5,
            StreamFamily::Sinusoid => 0.35, // amplitude · ω ≈ 10 · 2π/200 · mid-slope
            StreamFamily::Stock => 1.0,
            // GPS error floor is the 3 m receiver noise: bounds below ~2σ
            // saturate every policy, so the sweep centres above the floor.
            StreamFamily::Gps => 6.0,
            StreamFamily::Temperature => 0.2,
            StreamFamily::NetworkRtt => 2.0,
            StreamFamily::MeanReverting => 0.5,
            StreamFamily::Regime => 0.5,
            StreamFamily::Ramp => 0.2,
        }
    }

    /// The scalar families (every policy supports them).
    pub fn scalar_roster() -> Vec<StreamFamily> {
        vec![
            StreamFamily::RandomWalk,
            StreamFamily::Sinusoid,
            StreamFamily::Stock,
            StreamFamily::Temperature,
            StreamFamily::NetworkRtt,
            StreamFamily::MeanReverting,
            StreamFamily::Regime,
            StreamFamily::Ramp,
        ]
    }
}

/// Instantiates the canonical stream for `family` with reproducible `seed`.
pub fn make_stream(family: StreamFamily, seed: u64) -> Box<dyn Stream + Send> {
    match family {
        StreamFamily::RandomWalk => Box::new(RandomWalk::new(0.0, 0.0, 0.5, 0.1, seed)),
        StreamFamily::Sinusoid => Box::new(Sinusoid::new(
            10.0,
            core::f64::consts::TAU / 200.0,
            0.0,
            0.0,
            0.2,
            seed,
        )),
        StreamFamily::Stock => Box::new(StockTicker::liquid_default(seed)),
        StreamFamily::Gps => Box::new(GpsTrack::pedestrian_default(seed)),
        StreamFamily::Temperature => Box::new(TemperatureSensor::outdoor_default(seed)),
        StreamFamily::NetworkRtt => Box::new(NetworkRtt::wan_default(seed)),
        StreamFamily::MeanReverting => {
            Box::new(OrnsteinUhlenbeck::new(0.0, 0.1, 0.0, 0.5, 1.0, 0.1, seed))
        }
        StreamFamily::Regime => Box::new(RegimeSwitching::new(vec![
            (Box::new(RandomWalk::new(0.0, 0.0, 0.3, 0.1, seed)), 2000),
            (
                Box::new(Ramp::new(0.0, 0.4, 0.1, seed.wrapping_add(1))),
                2000,
            ),
            (
                Box::new(Sinusoid::new(
                    8.0,
                    core::f64::consts::TAU / 150.0,
                    0.0,
                    0.0,
                    0.1,
                    seed.wrapping_add(2),
                )),
                2000,
            ),
        ])),
        StreamFamily::Ramp => Box::new(Ramp::new(0.0, 0.2, 0.05, seed)),
    }
}

/// Result of running one method on one workload.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Which policy ran.
    pub policy: PolicyKind,
    /// Which family it ran on.
    pub family: StreamFamily,
    /// The precision bound in force.
    pub delta: f64,
    /// The simulator's full report.
    pub report: SessionReport,
}

/// Runs `policy` on `family` for `ticks` ticks at bound `delta` with the
/// given `seed`, and an optional per-tick observer.
pub fn run_method_observed<O: TickObserver + ?Sized>(
    policy: PolicyKind,
    family: StreamFamily,
    delta: f64,
    ticks: u64,
    seed: u64,
    observer: &mut O,
) -> MethodRun {
    let report = run_on_stream(policy, make_stream(family, seed), delta, ticks, observer);
    MethodRun {
        policy,
        family,
        delta,
        report,
    }
}

/// Runs `policy` on an explicitly constructed stream (noise sweeps and
/// other experiments that vary a generator parameter the canonical families
/// hold fixed).
pub fn run_on_stream<O: TickObserver + ?Sized>(
    policy: PolicyKind,
    mut stream: Box<dyn Stream + Send>,
    delta: f64,
    ticks: u64,
    observer: &mut O,
) -> SessionReport {
    let dim = stream.dim();
    // Prime with the first sample so model-based policies start near the
    // signal instead of paying artificial lock-in messages.
    let first = stream.next_sample();
    let (mut producer, mut consumer) = build_policy(policy, dim, delta, &first.observed);
    let config = SessionConfig::instant(ticks, delta);
    let mut first_pending = Some(first);
    Session::run(
        &config,
        move |obs, tru| {
            if let Some(f) = first_pending.take() {
                obs[..dim].copy_from_slice(&f.observed);
                tru[..dim].copy_from_slice(&f.truth);
            } else {
                stream.next_into(obs, tru);
            }
        },
        producer.as_mut(),
        consumer.as_mut(),
        observer,
    )
}

/// Runs pre-built endpoints on a stream under an explicit [`SessionConfig`]
/// (used by experiments that need non-zero latency, custom protocol configs,
/// or endpoint access after the run — budget allocation, ablations).
pub fn run_endpoints<O: TickObserver + ?Sized>(
    producer: &mut (impl kalstream_sim::Producer + ?Sized),
    consumer: &mut (impl kalstream_sim::Consumer + ?Sized),
    stream: &mut (dyn Stream + Send),
    config: &SessionConfig,
    observer: &mut O,
) -> SessionReport {
    Session::run(
        config,
        |obs, tru| stream.next_into(obs, tru),
        producer,
        consumer,
        observer,
    )
}

/// [`run_method_observed`] without an observer.
pub fn run_method(
    policy: PolicyKind,
    family: StreamFamily,
    delta: f64,
    ticks: u64,
    seed: u64,
) -> MethodRun {
    run_method_observed(policy, family, delta, ticks, seed, &mut ())
}

/// Sweeps `deltas` × `policies` on one family; rows are ordered
/// delta-major to match the figures' x-axes.
pub fn sweep_delta(
    policies: &[PolicyKind],
    family: StreamFamily,
    deltas: &[f64],
    ticks: u64,
    seed: u64,
) -> Vec<MethodRun> {
    let mut rows = Vec::with_capacity(policies.len() * deltas.len());
    for &delta in deltas {
        for &policy in policies {
            rows.push(run_method(policy, family, delta, ticks, seed));
        }
    }
    rows
}

/// Geometric grid of `n` deltas spanning `[scale/5, scale*10]` — the sweep
/// range every figure uses, expressed in units of the family's natural
/// scale.
pub fn delta_grid(scale: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two grid points");
    let lo = scale / 5.0;
    let hi = scale * 10.0;
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_instantiates_and_streams() {
        for family in StreamFamily::scalar_roster()
            .into_iter()
            .chain([StreamFamily::Gps])
        {
            let mut s = make_stream(family, 7);
            assert_eq!(s.dim(), family.dim());
            let sample = s.next_sample();
            assert!(
                sample.observed.iter().all(|x| x.is_finite()),
                "{}",
                family.name()
            );
        }
    }

    #[test]
    fn run_method_reports_requested_ticks() {
        let run = run_method(
            PolicyKind::ValueCache,
            StreamFamily::RandomWalk,
            1.0,
            500,
            3,
        );
        assert_eq!(run.report.ticks, 500);
        assert!(run.report.traffic.messages() > 0);
    }

    #[test]
    fn sweep_orders_delta_major() {
        let rows = sweep_delta(
            &[PolicyKind::ValueCache, PolicyKind::KalmanFixed],
            StreamFamily::RandomWalk,
            &[0.5, 2.0],
            200,
            3,
        );
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].delta, 0.5);
        assert_eq!(rows[1].delta, 0.5);
        assert_eq!(rows[2].delta, 2.0);
    }

    #[test]
    fn same_seed_same_messages() {
        let a = run_method(
            PolicyKind::KalmanAdaptive,
            StreamFamily::Stock,
            0.5,
            1000,
            11,
        );
        let b = run_method(
            PolicyKind::KalmanAdaptive,
            StreamFamily::Stock,
            0.5,
            1000,
            11,
        );
        assert_eq!(a.report.traffic.messages(), b.report.traffic.messages());
    }

    #[test]
    fn delta_grid_is_geometric_and_ordered() {
        let g = delta_grid(1.0, 8);
        assert_eq!(g.len(), 8);
        assert!((g[0] - 0.2).abs() < 1e-12);
        assert!((g[7] - 10.0).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn kalman_beats_value_cache_on_trending_family() {
        let vc = run_method(PolicyKind::ValueCache, StreamFamily::Ramp, 0.2, 3000, 5);
        let kf = run_method(PolicyKind::KalmanBank, StreamFamily::Ramp, 0.2, 3000, 5);
        assert!(
            kf.report.traffic.messages() * 2 < vc.report.traffic.messages(),
            "kalman {} vs value cache {}",
            kf.report.traffic.messages(),
            vc.report.traffic.messages()
        );
    }
}
