//! The elastic scaling decision function: target-utilization band,
//! hysteresis and cooldown.

use kalstream_obs::{Instrument, Scope};

/// Shrink watermark: utilization below this arms the shrink run.
const LOW_UTILIZATION: f64 = 0.5;
/// Grow watermark: utilization above this arms the grow run.
const HIGH_UTILIZATION: f64 = 0.85;
/// Consecutive over-watermark samples before a grow fires.
const GROW_AFTER: u32 = 2;
/// Consecutive under-watermark samples before a shrink fires.
const SHRINK_AFTER: u32 = 2;
/// Samples held after any action, whatever the load.
const COOLDOWN: u32 = 1;

/// The host's shard range and capacity model for [`ElasticController`].
///
/// Utilization is *offered load over capacity*: with `per_tick` frames
/// arriving per tick across the fleet, utilization is
/// `per_tick / (shards × capacity_per_shard)`. The controller holds it
/// inside the band `[0.5, 0.85]` by resizing toward the band's midpoint,
/// acts only after a watermark has been breached for 2 consecutive samples
/// (hysteresis), and holds for 1 sample after each action (anti-thrash).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Smallest fleet the controller will shrink to. Always ≥ 1.
    pub min_shards: usize,
    /// Largest fleet the controller will grow to.
    pub max_shards: usize,
    /// Frames per tick one shard absorbs at utilization 1.0 — the
    /// operator's capacity model, and the only unit the controller needs.
    pub capacity_per_shard: f64,
}

impl ControllerConfig {
    /// The shard range `[min_shards, max_shards]` with the given capacity
    /// model.
    ///
    /// # Panics
    /// Panics when `min_shards` is 0, `max_shards < min_shards`, or
    /// `capacity_per_shard` is not positive.
    pub fn new(min_shards: usize, max_shards: usize, capacity_per_shard: f64) -> Self {
        assert!(min_shards >= 1, "need at least one shard");
        assert!(max_shards >= min_shards, "max_shards below min_shards");
        assert!(
            capacity_per_shard > 0.0,
            "capacity_per_shard must be positive"
        );
        ControllerConfig {
            min_shards,
            max_shards,
            capacity_per_shard,
        }
    }
}

/// One observation window handed to [`ElasticController::observe`].
#[derive(Debug, Clone, Copy)]
pub struct LoadSample {
    /// Frames offered to the pipeline over the window — the deterministic
    /// load signal (a pure function of the traffic).
    pub offered: u64,
    /// Window length in ticks. Must be ≥ 1.
    pub ticks: u64,
}

/// What the controller wants done after a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Stay at the current shape.
    Hold,
    /// Grow to `to` shards (always strictly more than current).
    Grow {
        /// Target shard count.
        to: usize,
    },
    /// Shrink to `to` shards (always strictly fewer than current).
    Shrink {
        /// Target shard count.
        to: usize,
    },
}

/// Decision counters and last-seen signal gauges, exported through obs so
/// a dashboard — and `check_regression` — can see what the controller did.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Samples observed.
    pub samples: u64,
    /// Grow decisions emitted.
    pub grows: u64,
    /// Shrink decisions emitted.
    pub shrinks: u64,
    /// Holds because signals were in band (or runs not yet satisfied).
    pub holds: u64,
    /// Holds forced by the post-action cooldown.
    pub cooldown_holds: u64,
    /// Utilization seen at the last sample.
    pub last_utilization: f64,
    /// Shard count the controller currently believes is live.
    pub shards: usize,
}

impl Instrument for ControllerStats {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("samples", self.samples);
        scope.counter("grows", self.grows);
        scope.counter("shrinks", self.shrinks);
        scope.counter("holds", self.holds);
        scope.counter("cooldown_holds", self.cooldown_holds);
        scope.gauge("last_utilization", self.last_utilization);
        scope.gauge("shards", self.shards as f64);
    }
}

/// The closed-loop scaling policy. Pure arithmetic — no clocks, no I/O —
/// so identical samples always produce identical decisions.
#[derive(Debug, Clone)]
pub struct ElasticController {
    config: ControllerConfig,
    shards: usize,
    high_run: u32,
    low_run: u32,
    cooldown_left: u32,
    stats: ControllerStats,
}

impl ElasticController {
    /// A controller believing `initial_shards` are live.
    ///
    /// # Panics
    /// Panics when `initial_shards` is outside `[min_shards, max_shards]`
    /// or the config is inconsistent (see [`ControllerConfig::new`]).
    pub fn new(config: ControllerConfig, initial_shards: usize) -> Self {
        assert!(config.min_shards >= 1, "need at least one shard");
        assert!(
            config.max_shards >= config.min_shards,
            "max_shards below min_shards"
        );
        assert!(
            config.capacity_per_shard > 0.0,
            "capacity_per_shard must be positive"
        );
        assert!(
            (config.min_shards..=config.max_shards).contains(&initial_shards),
            "initial_shards outside [min_shards, max_shards]"
        );
        let stats = ControllerStats {
            shards: initial_shards,
            ..ControllerStats::default()
        };
        ElasticController {
            config,
            shards: initial_shards,
            high_run: 0,
            low_run: 0,
            cooldown_left: 0,
            stats,
        }
    }

    /// Shard count the controller believes is live.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Decision counters and last-seen gauges.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Tells the controller what shape is *actually* live after a decision
    /// was executed — the executor may clamp or refuse (the sequential
    /// reference is un-resizable). Resets nothing else.
    pub fn sync_shards(&mut self, live: usize) {
        self.shards = live.clamp(self.config.min_shards, self.config.max_shards);
        self.stats.shards = self.shards;
    }

    /// Shard count that would put the offered load at the middle of the
    /// utilization band.
    fn target_for(&self, per_tick: f64) -> usize {
        let mid = (LOW_UTILIZATION + HIGH_UTILIZATION) / 2.0;
        let denominator = (self.config.capacity_per_shard * mid).max(f64::MIN_POSITIVE);
        let ideal = (per_tick / denominator).ceil();
        let ideal = if ideal.is_finite() && ideal >= 1.0 {
            ideal as usize
        } else {
            1
        };
        ideal.clamp(self.config.min_shards, self.config.max_shards)
    }

    /// Consumes one observation window and decides. The caller is expected
    /// to execute non-[`Decision::Hold`] decisions, then report the applied
    /// shape via [`ElasticController::sync_shards`].
    ///
    /// # Panics
    /// Panics when the sample's `ticks` is 0.
    pub fn observe(&mut self, sample: &LoadSample) -> Decision {
        assert!(
            sample.ticks >= 1,
            "sample window must cover at least 1 tick"
        );
        self.stats.samples += 1;

        let per_tick = sample.offered as f64 / sample.ticks as f64;
        let utilization = per_tick / (self.shards as f64 * self.config.capacity_per_shard);
        self.stats.last_utilization = utilization;

        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.stats.cooldown_holds += 1;
            return Decision::Hold;
        }

        if utilization > HIGH_UTILIZATION {
            self.high_run = self.high_run.saturating_add(1);
            self.low_run = 0;
        } else if utilization < LOW_UTILIZATION {
            self.low_run = self.low_run.saturating_add(1);
            self.high_run = 0;
        } else {
            self.high_run = 0;
            self.low_run = 0;
        }

        if self.high_run >= GROW_AFTER && self.shards < self.config.max_shards {
            let to = self
                .target_for(per_tick)
                .max(self.shards + 1)
                .min(self.config.max_shards);
            self.act();
            self.shards = to;
            self.stats.shards = to;
            self.stats.grows += 1;
            return Decision::Grow { to };
        }
        if self.low_run >= SHRINK_AFTER && self.shards > self.config.min_shards {
            let to = self
                .target_for(per_tick)
                .min(self.shards - 1)
                .max(self.config.min_shards);
            self.act();
            self.shards = to;
            self.stats.shards = to;
            self.stats.shrinks += 1;
            return Decision::Shrink { to };
        }
        self.stats.holds += 1;
        Decision::Hold
    }

    /// Common bookkeeping for any non-hold decision: start the cooldown and
    /// restart every hysteresis run.
    fn act(&mut self) {
        self.cooldown_left = COOLDOWN;
        self.high_run = 0;
        self.low_run = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ControllerConfig {
        // capacity 10 frames/tick/shard, band [0.5, 0.85], grow after 2,
        // shrink after 2, cooldown 1.
        ControllerConfig::new(1, 4, 10.0)
    }

    fn observe(ctl: &mut ElasticController, offered: u64, ticks: u64) -> Decision {
        ctl.observe(&LoadSample { offered, ticks })
    }

    #[test]
    fn grow_needs_a_sustained_run_then_fires_at_target() {
        let mut ctl = ElasticController::new(config(), 1);
        // 30 frames/tick at capacity 10 → utilization 3.0, way over band.
        assert_eq!(observe(&mut ctl, 30, 1), Decision::Hold, "run of 1");
        // Second consecutive high sample: fire, sized to the band midpoint
        // (30 / (10 × 0.675) = 4.4 → ceil 5 → clamped to max 4).
        assert_eq!(observe(&mut ctl, 30, 1), Decision::Grow { to: 4 });
        assert_eq!(ctl.shards(), 4);
        assert_eq!(ctl.stats().grows, 1);
    }

    #[test]
    fn sawtooth_load_never_resizes() {
        let mut ctl = ElasticController::new(config(), 2);
        // Alternating over/under the band every sample: neither run ever
        // reaches its threshold, so hysteresis holds the shape.
        for _ in 0..20 {
            assert_eq!(observe(&mut ctl, 40, 1), Decision::Hold);
            assert_eq!(observe(&mut ctl, 2, 1), Decision::Hold);
        }
        assert_eq!(ctl.shards(), 2);
        assert_eq!(ctl.stats().grows + ctl.stats().shrinks, 0);
    }

    #[test]
    fn cooldown_blocks_back_to_back_actions() {
        let mut ctl = ElasticController::new(config(), 1);
        assert_eq!(observe(&mut ctl, 12, 1), Decision::Hold);
        assert!(matches!(observe(&mut ctl, 12, 1), Decision::Grow { .. }));
        // Still hot, but the next sample is the cooldown and must hold.
        assert_eq!(observe(&mut ctl, 40, 1), Decision::Hold);
        assert_eq!(ctl.stats().cooldown_holds, 1);
        // After cooldown the grow run restarts from zero.
        assert_eq!(observe(&mut ctl, 40, 1), Decision::Hold);
        assert!(matches!(observe(&mut ctl, 40, 1), Decision::Grow { .. }));
    }

    #[test]
    fn shrinks_step_down_to_min_one_shard() {
        let mut ctl = ElasticController::new(config(), 2);
        // 2 frames/tick over 2 shards at capacity 10 → utilization 0.1.
        assert_eq!(observe(&mut ctl, 2, 1), Decision::Hold, "run of 1");
        assert_eq!(observe(&mut ctl, 2, 1), Decision::Shrink { to: 1 });
        assert_eq!(ctl.shards(), 1);
        // At min there is nothing left to shrink; quiet samples hold.
        for _ in 0..10 {
            assert_eq!(observe(&mut ctl, 0, 1), Decision::Hold);
        }
        assert_eq!(ctl.shards(), 1);
        assert_eq!(ctl.stats().shrinks, 1);
    }

    #[test]
    fn sync_shards_overrides_belief_after_refused_resize() {
        let mut ctl = ElasticController::new(config(), 1);
        observe(&mut ctl, 30, 1);
        assert!(matches!(observe(&mut ctl, 30, 1), Decision::Grow { .. }));
        // Executor could not grow (e.g. sequential reference): belief must
        // track reality, clamped into the configured range.
        ctl.sync_shards(1);
        assert_eq!(ctl.shards(), 1);
    }
}
