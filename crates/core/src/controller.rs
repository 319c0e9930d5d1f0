//! The closed-loop fleet controller: periodic re-allocation of per-stream
//! precision bounds from live rate estimates.
//!
//! [`crate::BudgetAllocator`] solves one allocation from demand curves; this
//! controller runs that solve *continuously*: every `period` ticks it reads
//! each stream's recent error magnitudes, recomputes the allocation for the
//! fleet budget, and hands back the new bounds — applied to the sources via
//! [`crate::SourceEndpoint::set_delta`] by [`FleetController::tick`], or
//! shipped as bound directives by a caller whose sources sit across a link.
//! Streams whose volatility changes mid-flight (regime switches, bursts)
//! automatically trade precision with the rest of the fleet at the next
//! control round — the "dynamic query optimization" flavour of the paper's
//! resource-management claim.

use kalstream_obs::{Counter, Instrument, Scope};

use crate::{BudgetAllocator, CoreError, Result, SourceEndpoint, StreamDemand};

/// Floor applied to allocated bounds (a protocol δ must be positive).
const DELTA_FLOOR: f64 = 1e-4;

/// Periodic fleet-wide δ re-allocation.
#[derive(Debug, Clone)]
pub struct FleetController {
    /// Streams in the fleet.
    n_streams: usize,
    /// Control period in ticks.
    period: u64,
    /// Fleet message budget (messages per tick, summed over streams).
    budget_rate: f64,
    ticks: u64,
    rounds: Counter,
    failed_rounds: Counter,
}

impl FleetController {
    /// Creates a controller for `n_streams` streams re-allocating every
    /// `period` ticks under `budget_rate` messages/tick.
    ///
    /// # Errors
    /// [`CoreError::BadConfig`] on a zero period, non-positive budget, or
    /// zero streams.
    pub fn new(n_streams: usize, period: u64, budget_rate: f64) -> Result<Self> {
        if period == 0 {
            return Err(CoreError::BadConfig {
                what: "period",
                reason: "must be ≥ 1".into(),
            });
        }
        if n_streams == 0 {
            return Err(CoreError::BadConfig {
                what: "n_streams",
                reason: "need at least one stream".into(),
            });
        }
        if !(budget_rate > 0.0 && budget_rate.is_finite()) {
            return Err(CoreError::BadConfig {
                what: "budget_rate",
                reason: format!("must be positive and finite, got {budget_rate}"),
            });
        }
        Ok(FleetController {
            n_streams,
            period,
            budget_rate,
            ticks: 0,
            rounds: Counter::new(),
            failed_rounds: Counter::new(),
        })
    }

    /// Retunes the fleet message budget mid-flight. The new value is
    /// validated at the next control round, not here: an invalid budget
    /// fails that round (counted in [`FleetController::failed_rounds`])
    /// rather than panicking the control loop.
    pub fn set_budget_rate(&mut self, rate: f64) {
        self.budget_rate = rate;
    }

    /// Control rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.get()
    }

    /// Control rounds that reached the allocator and failed — e.g. an
    /// invalid budget set via [`FleetController::set_budget_rate`]. A
    /// steadily growing count is the diagnostic that re-allocation is
    /// frozen; pre-fix, these failures were silently swallowed.
    pub fn failed_rounds(&self) -> u64 {
        self.failed_rounds.get()
    }

    /// Advances the controller one tick; `true` when a control round is
    /// due (every `period`-th tick), and the caller should run
    /// [`FleetController::allocate`].
    pub fn due(&mut self) -> bool {
        self.ticks += 1;
        self.ticks.is_multiple_of(self.period)
    }

    /// One control round: re-allocates the fleet budget from per-stream
    /// error samples and returns each stream's new bound, **without
    /// touching any source**. `samples[i]` is the recent error-magnitude
    /// window for stream `i` (any origin — live rate estimators, server
    /// residuals); a stream whose window is empty or invalid is cold and
    /// gets `None` (keep the current bound), and the allocation runs over
    /// the warm ones only.
    ///
    /// Returns `None` when every stream is cold (not a failure) or the
    /// allocator fails (counted in [`FleetController::failed_rounds`]).
    ///
    /// This is the round budget re-allocation under a standing query uses
    /// (experiment Q2): the sources live on the far side of a lossy link,
    /// so the bounds travel as [`crate::wire::WireMessage::Bound`]
    /// directives (via [`crate::ServerEndpoint::push_bound_directive`]).
    ///
    /// # Panics
    /// Panics when `samples.len()` disagrees with the configured stream
    /// count.
    pub fn allocate(&mut self, samples: &[Vec<f64>]) -> Option<Vec<Option<f64>>> {
        assert_eq!(samples.len(), self.n_streams, "stream count mismatch");
        let mut warm_index = Vec::new();
        let mut demands = Vec::new();
        for (i, window) in samples.iter().enumerate() {
            if let Ok(demand) = StreamDemand::new(window.clone(), 1.0) {
                warm_index.push(i);
                demands.push(demand);
            }
        }
        if demands.is_empty() {
            return None;
        }
        let allocation = match BudgetAllocator::allocate(&demands, self.budget_rate) {
            Ok(allocation) => allocation,
            Err(_) => {
                // Pre-fix this was `.ok()?`: a persistently failing solve
                // silently froze re-allocation forever. Count it so a frozen
                // fleet is diagnosable.
                self.failed_rounds += 1;
                return None;
            }
        };
        let mut bounds = vec![None; samples.len()];
        for (&i, delta) in warm_index.iter().zip(&allocation.deltas) {
            bounds[i] = Some(delta.max(DELTA_FLOOR));
        }
        self.rounds += 1;
        Some(bounds)
    }

    /// Advances the controller one tick; on period boundaries, re-allocates
    /// from the sources' live rate estimators and retunes them. Returns
    /// every source's bound when a control round ran.
    ///
    /// Sources whose rate estimator is still empty (cold start) keep their
    /// current bound.
    ///
    /// # Panics
    /// Panics when `sources.len()` disagrees with the configured stream
    /// count.
    pub fn tick(&mut self, sources: &mut [SourceEndpoint]) -> Option<Vec<f64>> {
        assert_eq!(sources.len(), self.n_streams, "stream count mismatch");
        if !self.due() {
            return None;
        }
        let samples: Vec<Vec<f64>> = sources
            .iter()
            .map(|source| source.rate_estimator().samples())
            .collect();
        let bounds = self.allocate(&samples)?;
        let mut new_deltas: Vec<f64> = sources.iter().map(SourceEndpoint::delta).collect();
        for ((source, new_delta), bound) in sources.iter_mut().zip(&mut new_deltas).zip(bounds) {
            if let Some(delta) = bound {
                source.set_delta(delta);
                *new_delta = delta;
            }
        }
        Some(new_deltas)
    }
}

impl Instrument for FleetController {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("ticks", self.ticks);
        scope.counter("rounds", self.rounds);
        scope.counter("failed_rounds", self.failed_rounds);
        scope.gauge("budget_rate", self.budget_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtocolConfig, SessionSpec};

    fn sources(n: usize) -> Vec<SourceEndpoint> {
        (0..n)
            .map(|_| {
                SessionSpec::default_scalar(0.0, ProtocolConfig::new(1.0).unwrap())
                    .unwrap()
                    .build()
                    .split()
                    .0
            })
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(FleetController::new(2, 0, 1.0).is_err());
        assert!(FleetController::new(0, 10, 1.0).is_err());
        assert!(FleetController::new(2, 10, 0.0).is_err());
        assert!(FleetController::new(2, 10, 1.0).is_ok());
    }

    #[test]
    fn fires_only_on_period_boundaries() {
        let mut ctrl = FleetController::new(2, 5, 10.0).unwrap();
        let mut srcs = sources(2);
        // Warm the estimators.
        for t in 0..4u64 {
            for s in srcs.iter_mut() {
                s.decide(&[t as f64 * 0.1]);
            }
            assert!(ctrl.tick(&mut srcs).is_none(), "fired early at tick {t}");
        }
        for s in srcs.iter_mut() {
            s.decide(&[0.5]);
        }
        assert!(ctrl.tick(&mut srcs).is_some());
        assert_eq!(ctrl.rounds(), 1);
    }

    #[test]
    fn volatile_stream_gets_looser_bound_live() {
        let mut ctrl = FleetController::new(2, 200, 0.2).unwrap();
        let mut srcs = sources(2);
        let mut last = None;
        for t in 0..400u64 {
            // Stream 0 calm, stream 1 wild.
            srcs[0].decide(&[(t as f64 * 0.001).sin() * 0.01]);
            srcs[1].decide(&[(t as f64 * 0.9).sin() * 5.0]);
            if let Some(deltas) = ctrl.tick(&mut srcs) {
                last = Some(deltas);
            }
        }
        let deltas = last.expect("at least one control round");
        assert!(
            deltas[0] < deltas[1],
            "calm stream should get the tighter bound: {deltas:?}"
        );
        assert_eq!(srcs[0].delta(), deltas[0]);
        assert_eq!(srcs[1].delta(), deltas[1]);
    }

    #[test]
    fn cold_sources_are_skipped_gracefully() {
        let mut ctrl = FleetController::new(1, 1, 1.0).unwrap();
        let mut srcs = sources(1);
        // No decide() calls yet: estimators empty ⇒ no allocation.
        assert!(ctrl.tick(&mut srcs).is_none());
        assert_eq!(srcs[0].delta(), 1.0);
    }

    #[test]
    fn failed_allocator_rounds_are_counted_not_swallowed() {
        // Pre-fix regression: `allocate(...).ok()?` silently swallowed
        // allocator errors, so a fleet whose budget went invalid mid-flight
        // froze re-allocation forever with zero diagnostics.
        let mut ctrl = FleetController::new(1, 1, 1.0).unwrap();
        let mut srcs = sources(1);
        srcs[0].decide(&[0.5]); // warm the estimator so allocate() is reached
        ctrl.set_budget_rate(f64::NAN);
        assert!(ctrl.tick(&mut srcs).is_none());
        assert_eq!(ctrl.failed_rounds(), 1, "failure must be counted");
        assert_eq!(ctrl.rounds(), 0);
        assert_eq!(srcs[0].delta(), 1.0, "bounds untouched on failure");
        // A repaired budget resumes control.
        ctrl.set_budget_rate(1.0);
        srcs[0].decide(&[0.5]);
        assert!(ctrl.tick(&mut srcs).is_some());
        assert_eq!(ctrl.failed_rounds(), 1);
        assert_eq!(ctrl.rounds(), 1);
    }

    #[test]
    fn nan_observations_do_not_freeze_fleet_reallocation() {
        // Composed regression across source + rate + controller: pre-fix,
        // NaN observations reached the rate window, every StreamDemand
        // failed validation, and the controller never ran a round again —
        // the fleet froze. Post-fix the source rejects NaN before the
        // window, so control rounds keep running.
        let mut ctrl = FleetController::new(1, 10, 1.0).unwrap();
        let mut srcs = sources(1);
        for t in 0..30u64 {
            let v = if t.is_multiple_of(3) {
                f64::NAN
            } else {
                (t as f64 * 0.3).sin()
            };
            srcs[0].decide(&[v]);
            ctrl.tick(&mut srcs);
        }
        assert!(
            ctrl.rounds() > 0,
            "NaN observations froze the fleet controller"
        );
        assert_eq!(ctrl.failed_rounds(), 0);
        assert_eq!(srcs[0].rejected_measurements(), 10);
    }

    #[test]
    fn allocate_mirrors_tick_without_touching_sources() {
        // The same demand windows must yield the same bounds through both
        // control paths — `allocate` just returns them instead of applying
        // them.
        let windows: Vec<Vec<f64>> = vec![
            (0..100)
                .map(|t| ((t as f64 * 0.001).sin() * 0.01).abs())
                .collect(),
            (0..100)
                .map(|t| ((t as f64 * 0.9).sin() * 5.0).abs())
                .collect(),
        ];
        let mut direct = FleetController::new(2, 1, 0.2).unwrap();
        let mut srcs = sources(2);
        for (s, w) in srcs.iter_mut().zip(&windows) {
            for &e in w {
                // Feed the same magnitudes into the live rate estimators.
                s.decide(&[e]);
            }
        }
        let applied = direct.tick(&mut srcs).expect("control round");

        let mut via_demands = FleetController::new(2, 1, 0.2).unwrap();
        let samples: Vec<Vec<f64>> = srcs.iter().map(|s| s.rate_estimator().samples()).collect();
        assert!(via_demands.due());
        let directives = via_demands.allocate(&samples).expect("control round");
        for (a, d) in applied.iter().zip(&directives) {
            assert_eq!(Some(*a), *d);
        }
        assert_eq!(via_demands.rounds(), 1);
    }

    #[test]
    fn allocate_skips_cold_streams_and_due_fires_on_period() {
        let mut ctrl = FleetController::new(2, 2, 1.0).unwrap();
        let warm: Vec<f64> = (0..50).map(|t| (t as f64 * 0.3).sin().abs()).collect();
        let samples = vec![warm, Vec::new()];
        assert!(!ctrl.due(), "off-period tick fired");
        assert!(ctrl.due(), "period boundary");
        let directives = ctrl.allocate(&samples).expect("warm stream allocated");
        assert!(directives[0].is_some());
        assert_eq!(directives[1], None, "cold stream keeps its bound");
    }

    #[test]
    fn allocate_counts_failed_rounds() {
        let mut ctrl = FleetController::new(1, 1, 1.0).unwrap();
        ctrl.set_budget_rate(f64::NAN);
        let samples = vec![vec![0.5, 0.7, 0.2]];
        assert!(ctrl.due());
        assert!(ctrl.allocate(&samples).is_none());
        assert_eq!(ctrl.failed_rounds(), 1);
        assert_eq!(ctrl.rounds(), 0);
    }
}
