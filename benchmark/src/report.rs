//! What a run prints: the metric tables of `BENCHMARK.json`, the per-pass
//! record every workload fills, and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::{median, p99, quiet, quietest_per_tick, spread};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("obs_per_s", "1/s"),
    ("fresh_p50_ms", "ms"),
    ("msgs_per_obs", "count"),
    ("wire_bytes_per_obs", "count"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("gen.sample_ns", "ns"),
    ("filter.kalman.predict_ns", "ns"),
    ("filter.kalman.update_ns", "ns"),
    ("linalg.static_kernel.step_ns", "ns"),
    ("filter.batch.step_ns_per_lane", "ns"),
    ("core.source.observe_sent_ns", "ns"),
    ("core.source.observe_suppressed_ns", "ns"),
    ("core.source.sent_frac", "frac"),
    ("core.wire.encode_ns", "ns"),
    ("core.wire.decode_ns", "ns"),
    ("core.wire.bytes_per_msg", "count"),
    ("core.frame.push_raw_ns", "ns"),
    ("core.frame.decode_ns_per_frame", "ns"),
    ("core.server.apply_ns_per_msg", "ns"),
    ("core.server.advance_ns_per_stream", "ns"),
    ("core.ingest.seq_tick_us", "us"),
    ("core.ingest.pipeline_tick_us", "us"),
    ("core.ingest.pipeline_overhead_us", "us"),
    ("core.batch_ingest.tick_us", "us"),
    ("core.ingest.shard_busy_frac", "frac"),
    ("core.ingest.shard_skew", "frac"),
    ("core.ingest.queue_high_water", "count"),
    ("core.ingest.failed", "count"),
    ("net.codec.push_frame_ns", "ns"),
    ("net.codec.feed_ticks_ns_per_frame", "ns"),
    ("net.server.start_ms", "ms"),
    ("net.server.admit_ms", "ms"),
    ("net.server.drain_ms", "ms"),
    ("net.server.empty_tick_rtt_us", "us"),
    ("net.client.write_us", "us"),
    ("net.client.wait_us", "us"),
    ("net.server.residual_us", "us"),
    ("net.server.residual_frac", "frac"),
    ("net.server.shed", "count"),
    ("net.server.rejected_hellos", "count"),
    ("net.server.dropped_router_msgs", "count"),
    ("net.server.conn_queue_high_water", "count"),
    ("net.server.feedback_sent", "count"),
    ("durable.wal.append_us", "us"),
    ("durable.wal.bytes_per_tick", "count"),
    ("durable.snapshot.write_ms", "ms"),
    ("durable.snapshot.bytes", "count"),
    ("durable.store.recover_ms", "ms"),
    ("durable.store.replay_ticks_per_s", "1/s"),
    ("durable.overhead_frac", "frac"),
    ("query.graph.observe_tick_us", "us"),
    ("query.graph.verify_tick_us", "us"),
    ("query.graph.required_deltas_us", "us"),
    ("query.graph.nodes", "count"),
    ("query.graph.directives_per_tick", "count"),
    ("query.graph.relaxations", "count"),
    ("query.graph.coverage", "frac"),
    ("query.graph.share", "frac"),
    ("sim.lockstep.tick_us", "us"),
    ("e2e.setup_s", "s"),
    ("e2e.obs_per_s", "1/s"),
    ("e2e.fresh_p50_ms", "ms"),
    ("e2e.fresh_p99_ms", "ms"),
    ("e2e.fresh_samples", "count"),
    ("e2e.lockstep_obs_per_s", "1/s"),
    ("e2e.passes", "count"),
    ("e2e.pass_spread", "frac"),
    ("host.pinned_cpu", "count"),
    ("host.nproc", "count"),
    ("host.nice", "count"),
    ("host.store_fs", "count"),
    ("host.threads", "count"),
    ("host.ctx_switches_per_tick", "count"),
    ("host.cpu_us_per_obs", "us"),
    ("host.peak_rss_mib", "MiB"),
    ("loadgen.record_s", "s"),
    ("ledger.tick_us", "us"),
    ("ledger.accounted_us", "us"),
    ("ledger.accounted_frac", "frac"),
    ("ledger.workload_layers_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// Fewest timed passes a result may rest on.
pub const MIN_PASSES: usize = 5;

/// How long a run may go on before it gives up on reaching [`MIN_PASSES`].
const GIVE_UP: Duration = Duration::from_secs(150);

/// Set-ups an in-process pass does: each takes milliseconds against the
/// pass's seconds, and a run's `setup_s` rests on all of them.
pub const SETUPS_PER_PASS: usize = 3;

/// Sets the system under test up [`SETUPS_PER_PASS`] times with `build`,
/// dropping each but the last untimed, and returns every set-up's seconds
/// and the last one's result.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut seconds = Vec::with_capacity(SETUPS_PER_PASS);
    loop {
        let started = Instant::now();
        let built = build();
        seconds.push(started.elapsed().as_secs_f64());
        if seconds.len() == SETUPS_PER_PASS {
            return (seconds, built);
        }
    }
}

/// One complete pass: a fresh set-up, then the workload's timed loop(s).
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Every full set-up of the system under test the pass did.
    pub setup_s: Vec<f64>,
    /// In process: per timed tick, its start to the next tick's start, in
    /// nanoseconds. Empty over TCP.
    pub period_ns: Vec<f64>,
    /// Over TCP: observations per wall second of each stream phase (whose
    /// client cannot see where the server is until it has finished).
    /// Empty in process.
    pub phase_rates: Vec<f64>,
    /// Observations per wall second of the pass's whole throughput loop.
    pub obs_per_s: f64,
    /// Observations per tick.
    pub streams: u64,
    /// Per timed tick, measurement to servable, in nanoseconds.
    pub fresh_ns: Vec<f64>,
    /// Observations per wall second of the lockstep loop (TCP only).
    pub lockstep_obs_per_s: f64,
    /// Observations offered to the system, all phases and ticks.
    pub observations: u64,
    /// Messages and bytes on the wire, both directions, all phases.
    pub messages: u64,
    pub wire_bytes: u64,
    /// Operations that failed (see README, "Failures").
    pub failed: u64,
    /// The end state matched the reference bit for bit and the contract held.
    pub state_ok: bool,
}

impl Pass {
    /// The counts that must not move between passes of one run.
    fn counts(&self) -> (u64, u64, u64) {
        (self.observations, self.messages, self.wire_bytes)
    }
}

/// How many passes to run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// As many as end within this many seconds of `started` — the clock
    /// that already paid for recording the log — but at least
    /// [`MIN_PASSES`].
    Seconds(f64),
    /// Exactly this many (tests, and the traced run's reference passes).
    Passes(usize),
}

/// Runs one discarded warm-up pass (the first pass in a process is 10–15 %
/// slow: page faults, cold branch predictors, lazily bound symbols), then
/// timed passes until the budget is spent.
pub fn run_passes(
    budget: Budget,
    started: Instant,
    mut pass: impl FnMut() -> std::io::Result<Pass>,
) -> std::io::Result<Vec<Pass>> {
    pass()?;
    let mut passes = Vec::new();
    loop {
        let pass_started = Instant::now();
        passes.push(pass()?);
        let pass_time = pass_started.elapsed();
        match budget {
            Budget::Passes(n) if passes.len() >= n => break,
            Budget::Passes(_) => {}
            Budget::Seconds(s) => {
                let over = started.elapsed() + pass_time > Duration::from_secs_f64(s);
                if over && passes.len() >= MIN_PASSES {
                    break;
                }
                if started.elapsed() > GIVE_UP {
                    return Err(std::io::Error::other(format!(
                        "only {} of the {MIN_PASSES} passes a result needs fitted in {GIVE_UP:?}; \
                         the host is too slow for this benchmark",
                        passes.len()
                    )));
                }
            }
        }
    }
    Ok(passes)
}

/// The result of a run, as the last line of stdout reports it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// The five end-to-end numbers of a set of passes, plus the diagnostics
/// that describe the passes themselves. Per-tick timings are first reduced
/// to each tick's quietest repetition ([`quietest_per_tick`]); `fresh_p50_ms`
/// is the median of those and the in-process `obs_per_s` their sum's
/// inverse. Set-ups and TCP stream phases, timed whole, report their
/// [`quiet`] end.
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub obs_per_s: f64,
    pub fresh_p50_ms: f64,
    pub msgs_per_obs: f64,
    pub wire_bytes_per_obs: f64,
    pub fresh_p99_ms: f64,
    pub fresh_samples: u64,
    pub lockstep_obs_per_s: f64,
    pub passes: usize,
    pub pass_spread: f64,
    /// Medians over *all* passes: what one more pass is expected to
    /// measure, which is what a single traced pass is compared with.
    pub typical_obs_per_s: f64,
    pub typical_fresh_p50_ms: f64,
}

impl Summary {
    pub fn of(passes: &[Pass]) -> Summary {
        let first = &passes[0];
        let all = |f: &dyn Fn(&Pass) -> Vec<f64>| passes.iter().flat_map(f).collect::<Vec<_>>();
        let fresh = all(&|p| p.fresh_ns.clone());
        let pass_rates: Vec<f64> = passes.iter().map(|p| p.obs_per_s).collect();
        let pass_fresh = all(&|p| vec![median(&p.fresh_ns)]);
        Summary {
            correct: passes
                .iter()
                .all(|p| p.state_ok && p.counts() == first.counts()),
            attempted: passes.iter().map(|p| p.observations).sum(),
            failed: passes.iter().map(|p| p.failed).sum(),
            setup_s: quiet(&all(&|p| p.setup_s.clone()), false),
            obs_per_s: if first.period_ns.is_empty() {
                quiet(&all(&|p| p.phase_rates.clone()), true)
            } else {
                let periods = quietest_per_tick(passes.iter().map(|p| &p.period_ns[..]));
                first.streams as f64 * periods.len() as f64 / (periods.iter().sum::<f64>() / 1e9)
            },
            fresh_p50_ms: median(&quietest_per_tick(passes.iter().map(|p| &p.fresh_ns[..]))) / 1e6,
            msgs_per_obs: first.messages as f64 / first.observations as f64,
            wire_bytes_per_obs: first.wire_bytes as f64 / first.observations as f64,
            fresh_p99_ms: p99(&fresh) / 1e6,
            fresh_samples: fresh.len() as u64,
            lockstep_obs_per_s: quiet(&all(&|p| vec![p.lockstep_obs_per_s]), true),
            passes: passes.len(),
            pass_spread: spread(&pass_rates),
            typical_obs_per_s: median(&pass_rates),
            typical_fresh_p50_ms: median(&pass_fresh) / 1e6,
        }
    }

    /// The `--trace 0` result.
    pub fn end_to_end(&self) -> Outcome {
        let values = [
            self.setup_s,
            self.obs_per_s,
            self.fresh_p50_ms,
            self.msgs_per_obs,
            self.wire_bytes_per_obs,
        ];
        Outcome {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, unit, value))
                .collect(),
        }
    }

    /// The `--trace 1` result: every per-layer metric, 0 where `layers`
    /// has no value.
    ///
    /// # Panics
    /// Panics when `layers` holds a name [`PER_LAYER`] does not list — a
    /// typo that would otherwise drop the measurement silently.
    pub fn per_layer(&self, layers: &BTreeMap<&'static str, f64>) -> Outcome {
        for name in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(listed, _)| listed == name),
                "per-layer metric {name} is not in the table"
            );
        }
        Outcome {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
                .collect(),
        }
    }

    /// The passes' own numbers as `e2e.*` diagnostics of a traced run.
    pub fn diagnostics(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("e2e.setup_s", self.setup_s);
        layers.insert("e2e.obs_per_s", self.obs_per_s);
        layers.insert("e2e.fresh_p50_ms", self.fresh_p50_ms);
        layers.insert("e2e.fresh_p99_ms", self.fresh_p99_ms);
        layers.insert("e2e.fresh_samples", self.fresh_samples as f64);
        layers.insert("e2e.lockstep_obs_per_s", self.lockstep_obs_per_s);
        layers.insert("e2e.passes", self.passes as f64);
        layers.insert("e2e.pass_spread", self.pass_spread);
    }
}

impl Outcome {
    /// The one-line JSON object the contract asks for. A value that is not
    /// a finite number (a percentile the sample cannot support) prints as 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(rate: f64, messages: u64) -> Pass {
        Pass {
            setup_s: vec![0.5, 0.7],
            period_ns: Vec::new(),
            phase_rates: vec![rate, rate / 4.0],
            obs_per_s: rate / 2.0,
            streams: 10,
            fresh_ns: vec![2e6; 40],
            lockstep_obs_per_s: rate / 2.0,
            observations: 1000,
            messages,
            wire_bytes: 30_000,
            failed: 0,
            state_ok: true,
        }
    }

    #[test]
    fn summary_takes_each_tick_s_quietest_repetition_and_counts_from_the_first() {
        let mut slow = pass(200.0, 400);
        slow.fresh_ns = vec![9e6; 40];
        slow.fresh_ns[7] = 1e6;
        let s = Summary::of(&[pass(100.0, 400), pass(300.0, 400), slow]);
        assert!(s.correct);
        assert_eq!(s.attempted, 3000);
        // Six phase rates (300, 200, 100, 75, 50, 25): of so few, the best;
        // three lockstep rates likewise.
        assert_eq!(s.obs_per_s, 300.0);
        assert_eq!(s.lockstep_obs_per_s, 150.0);
        // Six set-ups: the smallest.
        assert_eq!(s.setup_s, 0.5);
        // 39 ticks were quietest at 2 ms, one at 1 ms: their median.
        assert_eq!(s.fresh_p50_ms, 2.0);
        assert_eq!(s.msgs_per_obs, 0.4);
        assert_eq!(s.wire_bytes_per_obs, 30.0);
        assert_eq!(s.fresh_samples, 120);
        assert!(s.fresh_p99_ms.is_nan());
        // What one more pass is expected to measure: medians over passes.
        assert_eq!(s.typical_obs_per_s, 100.0);
        assert_eq!(s.typical_fresh_p50_ms, 2.0);
        let json = s.end_to_end().to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3000, \"failed\": 0"));
        assert!(json.contains("\"obs_per_s\": {\"value\": 300, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn in_process_rate_is_the_sum_of_each_tick_s_quietest_period() {
        let with_periods = |periods: &[f64]| Pass {
            period_ns: periods.to_vec(),
            phase_rates: Vec::new(),
            ..pass(1.0, 400)
        };
        // Quietest periods 1 ms and 3 ms: 20 observations in 4 ms.
        let s = Summary::of(&[with_periods(&[1e6, 5e6]), with_periods(&[2e6, 3e6])]);
        assert_eq!(s.obs_per_s, 5_000.0);
    }

    #[test]
    fn a_pass_whose_counts_moved_makes_the_run_incorrect() {
        assert!(!Summary::of(&[pass(1.0, 400), pass(1.0, 401)]).correct);
        let mut bad = pass(1.0, 400);
        bad.state_ok = false;
        assert!(!Summary::of(&[pass(1.0, 400), bad]).correct);
    }

    #[test]
    fn per_layer_prints_every_listed_name_once_and_rejects_unlisted_ones() {
        let s = Summary::of(&[pass(1.0, 400)]);
        let mut layers = BTreeMap::new();
        layers.insert("gen.sample_ns", 41.5);
        s.diagnostics(&mut layers);
        let out = s.per_layer(&layers);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert!(out
            .to_json()
            .contains("\"gen.sample_ns\": {\"value\": 41.5, \"unit\": \"ns\"}"));
        // NaN (p99 of 40 samples) prints as 0, never as invalid JSON.
        assert!(out
            .to_json()
            .contains("\"e2e.fresh_p99_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        layers.insert("gen.sampel_ns", 1.0);
        assert!(std::panic::catch_unwind(|| s.per_layer(&layers)).is_err());
    }

    #[test]
    fn pass_budget_runs_a_warm_up_then_the_asked_number() {
        let mut calls = 0;
        let passes = run_passes(Budget::Passes(3), Instant::now(), || {
            calls += 1;
            Ok(pass(calls as f64, 400))
        })
        .unwrap();
        assert_eq!(calls, 4);
        assert_eq!(passes[0].obs_per_s, 1.0);
        // A seconds budget too small for anything still yields MIN_PASSES.
        let passes =
            run_passes(Budget::Seconds(0.0), Instant::now(), || Ok(pass(1.0, 400))).unwrap();
        assert_eq!(passes.len(), MIN_PASSES);
    }
}
