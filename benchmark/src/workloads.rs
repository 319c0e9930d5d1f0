//! The four workloads: what a pass of each does, and how a timed run and
//! a traced run are put together from passes.

use std::io;
use std::time::Instant;

use kalstream_core::IngestResult;
use kalstream_net::workload::ingest_identical;

use crate::fleet::{self, Log};
use crate::host;
use crate::query::{self, QueryPass};
use crate::report::{run_passes, Budget, Outcome, Pass, Summary};
use crate::stats::percentile;
use crate::tcp::{self, Phase, PhaseConfig};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InprocFleet,
    TcpReplay,
    TcpDurable,
    QueryGraph,
}

impl Workload {
    pub const NAMES: [&'static str; 4] =
        ["inproc_fleet", "tcp_replay", "tcp_durable", "query_graph"];

    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "inproc_fleet" => Workload::InprocFleet,
            "tcp_replay" => Workload::TcpReplay,
            "tcp_durable" => Workload::TcpDurable,
            "query_graph" => Workload::QueryGraph,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        Workload::NAMES[self as usize]
    }
}

/// Input sizes. One full-size set for measuring, one tiny set so the unit
/// tests can run every workload end to end.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Streams of the canonical fleet.
    pub streams: u32,
    /// Ticks per `inproc_fleet` pass.
    pub inproc_ticks: u64,
    /// Ticks of the recorded log, replayed once per TCP phase.
    pub tcp_ticks: u64,
    /// Snapshots per `tcp_durable` phase.
    pub snapshots: u64,
    /// Raw streams and ticks per `query_graph` pass.
    pub query_streams: usize,
    pub query_ticks: u64,
    /// Timed passes a traced run takes its untraced reference from.
    pub trace_passes: usize,
}

impl Scale {
    /// Sized so a pass takes 0.5–0.7 s on the recording host and a 30 s run
    /// holds 40 to 55: every tick is then timed that many times, and what
    /// a run reports of it is its quietest repetition
    /// ([`crate::stats::quietest_per_tick`]).
    pub const FULL: Scale = Scale {
        streams: 512,
        inproc_ticks: 500,
        tcp_ticks: 750,
        snapshots: 2,
        query_streams: 96,
        query_ticks: 1_000,
        trace_passes: 16,
    };

    fn snapshot_every(&self) -> u64 {
        (self.tcp_ticks / self.snapshots).max(1)
    }
}

/// Facts about the host a traced run reports beside its measurements.
pub struct Host {
    pub pinned_cpu: i64,
    pub nproc: usize,
    pub nice: i64,
}

/// The canonical fleet's recorded traffic and the end state it must lead to.
pub struct Recording {
    pub log: Log,
    pub reference: IngestResult,
    /// Wall time of recording: load generation, not set-up.
    pub record_s: f64,
    deterministic: bool,
}

fn record(seed: u64, streams: u32, ticks: u64) -> Recording {
    let started = Instant::now();
    let pass = fleet::inproc_pass(seed, streams, ticks, true);
    let deterministic = fleet::log_is_deterministic(seed, &pass.log);
    Recording {
        log: pass.log,
        reference: pass.result,
        record_s: started.elapsed().as_secs_f64(),
        deterministic,
    }
}

fn inproc_fleet_pass(seed: u64, scale: &Scale, recording: &Recording) -> Pass {
    let p = fleet::inproc_pass(seed, scale.streams, scale.inproc_ticks, false);
    let streams = u64::from(scale.streams);
    Pass {
        setup_s: p.setup_s,
        period_ns: p.starts_ns.windows(2).map(|w| w[1] - w[0]).collect(),
        phase_rates: Vec::new(),
        streams,
        obs_per_s: (streams * p.fresh_ns.len() as u64) as f64 / p.timed_s,
        lockstep_obs_per_s: 0.0,
        observations: streams * scale.inproc_ticks,
        messages: p.messages,
        wire_bytes: p.wire_bytes,
        failed: fleet::contract_misses(&p.result, &p.log.last_obs)
            + fleet::ingest_failures(&p.result),
        state_ok: ingest_identical(&p.result, &recording.reference),
        fresh_ns: p.fresh_ns,
    }
}

/// Everything a phase's server or client counted as lost or refused.
fn phase_failures(phase: &Phase, log: &Log) -> u64 {
    let report = &phase.report;
    fleet::ingest_failures(&report.ingest)
        + fleet::contract_misses(&report.ingest, &log.last_obs)
        + report.total_shed()
        + report.rejected_hellos
        + report.dropped_router_msgs
        + report
            .ingest
            .shards
            .iter()
            .map(|s| s.feedback_drops)
            .sum::<u64>()
}

/// Hands each phase of a run its own store directory.
pub struct Stores {
    pub durable: bool,
    pub snapshot_every: u64,
    serial: u64,
}

impl Stores {
    pub fn config(&mut self, lockstep: bool, sample_host: bool) -> PhaseConfig {
        self.serial += 1;
        PhaseConfig {
            lockstep,
            store: self
                .durable
                .then(|| (tcp::store_dir(self.serial), self.snapshot_every)),
            sample_host,
        }
    }
}

/// Stream phases per TCP pass. A lockstep phase yields a dozen latency
/// slices, a stream phase one rate, so a pass does more of the latter.
pub const STREAM_PHASES: usize = 2;

/// One TCP pass: a lockstep phase (latency) and [`STREAM_PHASES`] stream
/// phases (throughput), each against a freshly set-up server.
fn tcp_pass(recording: &Recording, stores: &mut Stores) -> io::Result<Pass> {
    let log = &recording.log;
    let mut phases = vec![tcp::run_phase(log, &stores.config(true, false))?];
    for _ in 0..STREAM_PHASES {
        phases.push(tcp::run_phase(log, &stores.config(false, false))?);
    }
    let offered = log.streams() * log.ticks;
    let (lock, streams) = (&phases[0], &phases[1..]);
    Ok(Pass {
        setup_s: phases.iter().map(|p| p.setup_s).collect(),
        period_ns: Vec::new(),
        phase_rates: streams.iter().map(|p| offered as f64 / p.phase_s).collect(),
        obs_per_s: (offered * streams.len() as u64) as f64
            / streams.iter().map(|p| p.phase_s).sum::<f64>(),
        streams: log.streams(),
        lockstep_obs_per_s: offered as f64 / lock.phase_s,
        observations: offered * phases.len() as u64,
        messages: phases
            .iter()
            .map(|p| p.report.ingest.total_messages() + p.feedback_frames)
            .sum(),
        wire_bytes: phases.iter().map(|p| p.bytes_out + p.bytes_in).sum(),
        failed: phases.iter().map(|p| phase_failures(p, log)).sum(),
        state_ok: phases
            .iter()
            .all(|p| ingest_identical(&p.report.ingest, &recording.reference)),
        fresh_ns: lock.fresh_ns.clone(),
    })
}

/// A `query_graph` pass as the run's record of it. The first pass's end
/// state becomes the `reference` later passes must reproduce.
pub fn query_graph_pass(q: &QueryPass, scale: &Scale, reference: &mut Option<Vec<u64>>) -> Pass {
    let streams = scale.query_streams as u64;
    let reference = reference.get_or_insert_with(|| q.state_bits.clone());
    Pass {
        setup_s: q.setup_s.clone(),
        period_ns: q.starts_ns.windows(2).map(|w| w[1] - w[0]).collect(),
        phase_rates: Vec::new(),
        streams,
        obs_per_s: (streams * q.fresh_ns.len() as u64) as f64 / q.timed_s,
        lockstep_obs_per_s: 0.0,
        observations: streams * scale.query_ticks,
        messages: q.messages,
        wire_bytes: q.wire_bytes,
        failed: q.violations,
        state_ok: q.state_bits == *reference && q.max_contract_ratio <= 1.0,
        fresh_ns: q.fresh_ns.clone(),
    }
}

/// A set of timed passes and what a traced run needs to go on from them.
pub struct Run {
    pub summary: Summary,
    pub recording: Option<Recording>,
    pub stores: Stores,
    /// End state of the first `query_graph` pass.
    pub query_reference: Option<Vec<u64>>,
    /// CPU seconds the process spent per observation offered in the passes.
    pub cpu_s_per_obs: f64,
}

/// Runs `workload`'s passes for `budget` and sums them up.
pub fn timed(workload: Workload, seed: u64, scale: &Scale, budget: Budget) -> io::Result<Run> {
    let started = Instant::now();
    let mut stores = Stores {
        durable: workload == Workload::TcpDurable,
        snapshot_every: scale.snapshot_every(),
        serial: 0,
    };
    let mut query_reference = None;
    let recording = match workload {
        Workload::InprocFleet => Some(record(seed, scale.streams, scale.inproc_ticks)),
        Workload::TcpReplay | Workload::TcpDurable => {
            Some(record(seed, scale.streams, scale.tcp_ticks))
        }
        Workload::QueryGraph => None,
    };
    let cpu_before = host::cpu_seconds();
    let passes = match (workload, &recording) {
        (Workload::InprocFleet, Some(recording)) => run_passes(budget, started, || {
            Ok(inproc_fleet_pass(seed, scale, recording))
        })?,
        (_, Some(recording)) => run_passes(budget, started, || tcp_pass(recording, &mut stores))?,
        (_, None) => run_passes(budget, started, || {
            let q = query::query_pass(
                seed,
                scale.query_streams,
                scale.query_ticks,
                &mut Tracer::off(),
            );
            Ok(query_graph_pass(&q, scale, &mut query_reference))
        })?,
    };
    let cpu_s = host::cpu_seconds() - cpu_before;
    let mut summary = Summary::of(&passes);
    // The warm-up pass burnt CPU too but is not in `attempted`.
    let cpu_s_per_obs =
        cpu_s / (summary.attempted as f64 * (passes.len() + 1) as f64 / passes.len() as f64);
    if recording.as_ref().is_some_and(|r| !r.deterministic) {
        eprintln!("kalstream-benchmark: the wire log recorded twice from seed {seed} differs");
        summary.correct = false;
    }
    eprintln!(
        "{}: passes={} pass_spread={:.4} setup_s={:.6} obs_per_s={:.0} fresh_p50_ms={:.5} \
         fresh_p99_ms={:.5} msgs_per_obs={:.5} wire_bytes_per_obs={:.4} failed={} correct={}",
        workload.name(),
        summary.passes,
        summary.pass_spread,
        summary.setup_s,
        summary.obs_per_s,
        summary.fresh_p50_ms,
        summary.fresh_p99_ms,
        summary.msgs_per_obs,
        summary.wire_bytes_per_obs,
        summary.failed,
        summary.correct,
    );
    // Where among all repetitions the reported values sit: the wider the
    // gap between the quiet end and the median, the more the host was
    // disturbed.
    eprintln!(
        "  share of the way in from the better end:   2%        5%       10%       25%       50%       75%"
    );
    let spread_of = |what: &str, unit: f64, higher_is_better: bool, values: Vec<f64>| {
        let at = |share: f64| {
            let q = if higher_is_better { 1.0 - share } else { share };
            percentile(&values, q) / unit
        };
        eprintln!(
            "  {what:<22} n={:<6}{:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            values.len(),
            at(0.02),
            at(0.05),
            at(0.1),
            at(0.25),
            at(0.5),
            at(0.75),
        );
    };
    let all = |f: &dyn Fn(&Pass) -> Vec<f64>| passes.iter().flat_map(f).collect::<Vec<_>>();
    spread_of("pass obs_per_s/1e3", 1e3, true, all(&|p| vec![p.obs_per_s]));
    spread_of("tick fresh_us", 1e3, false, all(&|p| p.fresh_ns.clone()));
    spread_of("setup_ms", 1e-3, false, all(&|p| p.setup_s.clone()));
    Ok(Run {
        summary,
        recording,
        stores,
        query_reference,
        cpu_s_per_obs,
    })
}

pub fn run_timed(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    budget: Budget,
) -> io::Result<Outcome> {
    Ok(timed(workload, seed, scale, budget)?.summary.end_to_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    /// Every workload end to end in well under a second.
    const SMOKE: Scale = Scale {
        streams: 16,
        inproc_ticks: 64,
        tcp_ticks: 64,
        snapshots: 4,
        query_streams: 16,
        query_ticks: 64,
        trace_passes: 2,
    };

    /// `(name, unit)` of every metric object between two keys of
    /// `BENCHMARK.json` (the file is small and ours: no JSON parser needed).
    fn listed(spec: &str, from: &str, to: Option<&str>) -> Vec<(String, String)> {
        let start = spec.find(from).expect("section present");
        let end = to.map_or(spec.len(), |to| spec.find(to).expect("section present"));
        let field = |object: &str, key: &str| {
            let after = &object[object.find(key).expect("key present") + key.len()..];
            let open = after.find('"').expect("string value") + 1;
            after[open..open + after[open..].find('"').expect("closing quote")].to_string()
        };
        spec[start..end]
            .split('{')
            .skip(1)
            .map(|object| (field(object, "\"name\":"), field(object, "\"unit\":")))
            .collect()
    }

    fn assert_prints(outcome: &Outcome, expected: &[(String, String)]) {
        let json = outcome.to_json();
        for (name, unit) in expected {
            let key = format!("\"{name}\": {{\"value\": ");
            assert_eq!(json.matches(&key).count(), 1, "{name} printed exactly once");
            let after = &json[json.find(&key).unwrap() + key.len()..];
            let object = &after[..after.find('}').unwrap()];
            assert!(
                object.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} carries unit {unit}: {object}"
            );
        }
        assert_eq!(
            outcome.metrics.len(),
            expected.len(),
            "nothing unlisted printed"
        );
    }

    fn smoke(workload: Workload) {
        let spec = include_str!("../../BENCHMARK.json");
        let timed = run_timed(workload, 7, &SMOKE, Budget::Passes(2)).expect("timed run");
        assert!(timed.correct, "{}: timed run correct", workload.name());
        assert_eq!(timed.failed, 0);
        assert!(timed.attempted > 0);
        assert_prints(
            &timed,
            &listed(spec, "\"end_to_end\"", Some("\"per_layer\"")),
        );
        assert!(
            timed
                .metrics
                .iter()
                .all(|(_, _, v)| *v > 0.0 && v.is_finite()),
            "end-to-end metrics are never 0: {:?}",
            timed.metrics
        );

        let host = Host {
            pinned_cpu: -1,
            nproc: 1,
            nice: 0,
        };
        let traced = crate::traced::run_traced(workload, 7, &SMOKE, &host).expect("traced run");
        assert!(traced.correct, "{}: traced run correct", workload.name());
        assert_eq!(traced.failed, 0);
        assert_prints(&traced, &listed(spec, "\"per_layer\"", None));
        let path = crate::out_dir().join(format!("trace-{}-7.json", workload.name()));
        assert!(std::fs::read_to_string(path)
            .unwrap()
            .contains("\"ledger\""));
    }

    #[test]
    fn inproc_fleet_smoke() {
        smoke(Workload::InprocFleet);
    }

    #[test]
    fn tcp_replay_smoke() {
        smoke(Workload::TcpReplay);
    }

    #[test]
    fn tcp_durable_smoke() {
        smoke(Workload::TcpDurable);
    }

    #[test]
    fn query_graph_smoke() {
        smoke(Workload::QueryGraph);
    }

    #[test]
    fn the_tables_in_the_binary_are_the_tables_in_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            listed(spec, "\"end_to_end\"", Some("\"per_layer\"")),
            own(&END_TO_END)
        );
        assert_eq!(listed(spec, "\"per_layer\"", None), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            [spec.find("\"workloads\"").unwrap()..spec.find("\"end_to_end\"").unwrap()]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect();
        assert_eq!(workloads, Workload::NAMES);
    }

    #[test]
    fn a_log_recorded_twice_from_one_seed_is_the_same_bytes_and_differs_across_seeds() {
        let a = fleet::inproc_pass(3, 16, 64, true).log;
        assert!(fleet::log_is_deterministic(3, &a));
        assert!(!fleet::log_is_deterministic(4, &a));
    }
}
