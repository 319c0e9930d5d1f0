//! Elastic scaling — the closed-loop controller tracking a load swing,
//! and proof that resizing changes nothing.
//!
//! The elastic layer's contract mirrors the durable one: resizes are
//! *invisible* to the protocol. This experiment records one framed log
//! whose offered load swings quiet → hot → quiet (every stream stays in
//! lockstep; only the number of volatile streams changes), then runs the
//! same log through a sequential reference, a fixed-max-shards pipeline,
//! and elastic pipelines started at several initial shard counts. Every
//! run must finish with **bit-identical** filter state — the controller
//! may grow, shrink, and pay drain-barrier stalls, but the arithmetic is
//! exactly the sequential run's. A lockstep protocol fleet driven by the
//! same swing schedule shows the precision contract holds with zero
//! violations while the message rate swings.
//!
//! Expected shape: the hot phase offers ≥ 4× the quiet phase's frames per
//! tick (the swing the controller must track); every elastic run grows to
//! the max during the hot phase and shrinks back to the floor on the quiet
//! tail; `identical` is true on every row. Decision counts are exact
//! run-to-run (the controller reads only the offered frames, a function of
//! the traffic) and gate as determinism canaries in `check_regression`.
//! Resize stall is wall clock, so it goes to the `--out` artifact only,
//! never stdout (the recorded table must be byte-stable).

use kalstream_bench::table::Table;
use kalstream_bench::MetricsOut;
use kalstream_core::frame::FrameBatch;
use kalstream_core::{
    IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec, StreamSession,
};
use kalstream_elastic::{ControllerConfig, ElasticDriver, ResizeKind, SAMPLE_EVERY};
use kalstream_net::workload::fleet_bits;
use kalstream_sim::{run_lockstep, LoadPhase, LoadSwing, LockstepStream, Producer, SessionConfig};

const STREAMS: u32 = 16;
const TICKS: u64 = 240;
const DELTA: f64 = 0.2;
const MIN_SHARDS: usize = 1;
const MAX_SHARDS: usize = 4;
const CAPACITY_PER_SHARD: f64 = 6.0;
const START_SHARDS: [usize; 3] = [1, 2, 4];

/// The swing schedule: quiet head, hot middle, quiet tail.
const QUIET_HEAD: u64 = 60;
const HOT_TICKS: u64 = 100;
const QUIET_TAIL: u64 = 80;

const LS_STREAMS: usize = 6;
const LS_DELTA: f64 = 0.5;

/// Volatile streams at tick `t`: all of them in the hot window, one
/// otherwise (so the quiet phases still carry a trickle).
fn hot_streams(t: u64) -> u32 {
    if (QUIET_HEAD..QUIET_HEAD + HOT_TICKS).contains(&t) {
        STREAMS
    } else {
        1
    }
}

/// The recorded swing workload: server endpoints, the framed per-tick
/// log, and each tick's frame count (the offered-load signal the
/// controller sees).
type SwingLog = (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>, Vec<u64>);

/// Record the load-swing workload once; every run replays the same log.
fn record_swing_log() -> SwingLog {
    let mut sources = Vec::new();
    let mut servers = Vec::new();
    for id in 0..STREAMS {
        let config = ProtocolConfig::new(DELTA).unwrap();
        let StreamSession { source, server } =
            SessionSpec::default_scalar(0.0, config).unwrap().build();
        sources.push((id, source));
        servers.push((id, server));
    }
    let mut log = Vec::new();
    let mut frames = Vec::new();
    for t in 0..TICKS {
        let hot = hot_streams(t);
        let mut batch = FrameBatch::new();
        let mut count = 0u64;
        for (id, source) in sources.iter_mut() {
            let v = if *id < hot {
                ((t as f64) * 1.3 + *id as f64).sin() * 10.0
            } else {
                0.0
            };
            if let Some(payload) = source.observe(t, &[v]) {
                batch.push_raw(*id, &payload);
                count += 1;
            }
        }
        log.push(batch.as_bytes().to_vec());
        frames.push(count);
    }
    (servers, log, frames)
}

/// Mean frames per tick over `[from, to)`.
fn frames_per_tick(frames: &[u64], from: u64, to: u64) -> f64 {
    let window = &frames[from as usize..to as usize];
    window.iter().sum::<u64>() as f64 / window.len().max(1) as f64
}

/// One elastic run's outcome.
struct Run {
    start_shards: usize,
    grows: u64,
    shrinks: u64,
    resizes: u64,
    final_shards: usize,
    messages: u64,
    identical: bool,
    max_stall_ms: f64,
    /// `(tick, kind, from, to)` per executed resize.
    timeline: Vec<(u64, ResizeKind, usize, usize)>,
}

fn elastic_run(
    servers: &[(u32, ServerEndpoint)],
    log: &[Vec<u8>],
    start_shards: usize,
    want_bits: &[(u32, Vec<u64>)],
    metrics: &mut MetricsOut,
) -> Run {
    let mut pipeline = IngestPipeline::start(start_shards, servers.to_vec());
    let mut elastic = ElasticDriver::new(
        ControllerConfig::new(MIN_SHARDS, MAX_SHARDS, CAPACITY_PER_SHARD),
        &mut pipeline,
    );
    for tick in log {
        pipeline.ingest_tick(tick);
        elastic
            .after_tick(&mut pipeline, |pipeline, to| Ok(pipeline.reassign(to)))
            .expect("plain reassign cannot fail");
    }
    metrics.record(&format!("start_{start_shards}"), &elastic);
    let stats = elastic.controller().stats().clone();
    let timeline = elastic
        .events()
        .iter()
        .map(|e| (e.tick, e.kind, e.from, e.to))
        .collect();
    let resizes = elastic.events().len() as u64;
    let max_stall_ms = elastic.max_stall_ms();
    let final_shards = pipeline.shards();
    let result = pipeline.finish();
    Run {
        start_shards,
        grows: stats.grows,
        shrinks: stats.shrinks,
        resizes,
        final_shards,
        messages: result.total_messages(),
        identical: fleet_bits(&result) == want_bits,
        max_stall_ms,
        timeline,
    }
}

fn kind_name(kind: ResizeKind) -> &'static str {
    match kind {
        ResizeKind::Grow => "grow",
        ResizeKind::Shrink => "shrink",
    }
}

struct LockstepOutcome {
    messages: u64,
    violations: u64,
}

/// The same swing schedule driven through a lockstep protocol fleet: the
/// precision contract must hold with zero violations while the message
/// rate swings.
fn lockstep_swing() -> LockstepOutcome {
    let swing = LoadSwing::new(vec![
        LoadPhase {
            ticks: QUIET_HEAD,
            amplitude: 0.02,
        },
        LoadPhase {
            ticks: HOT_TICKS,
            amplitude: 6.0,
        },
        LoadPhase {
            ticks: QUIET_TAIL,
            amplitude: 0.02,
        },
    ]);
    let mut streams: Vec<LockstepStream<'_, _, ServerEndpoint>> = (0..LS_STREAMS)
        .map(|i| {
            let session = SessionSpec::default_scalar(0.0, ProtocolConfig::new(LS_DELTA).unwrap())
                .unwrap()
                .build();
            let (source, server) = session.split();
            LockstepStream {
                producer: source,
                consumer: server,
                sampler: swing.sampler(i as u32),
            }
        })
        .collect();
    let config = SessionConfig::instant(swing.total_ticks(), LS_DELTA);
    let report = run_lockstep(&config, &mut streams, |_, _, _| {});
    LockstepOutcome {
        messages: report.total_messages(),
        violations: report.total_violations(),
    }
}

fn main() {
    let mut metrics = MetricsOut::from_args();
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--metrics-out" => {
                let _ = args.next(); // consumed by MetricsOut::from_args
            }
            other => panic!("unknown argument {other} (expected --out / --metrics-out)"),
        }
    }

    let (servers, log, frames) = record_swing_log();
    let quiet = (frames_per_tick(&frames, 0, QUIET_HEAD)
        + frames_per_tick(&frames, QUIET_HEAD + HOT_TICKS, TICKS))
        / 2.0;
    let hot = frames_per_tick(&frames, QUIET_HEAD, QUIET_HEAD + HOT_TICKS);
    let swing_factor = hot / quiet.max(f64::MIN_POSITIVE);

    let mut swing_table = Table::new(
        format!(
            "Offered load swing: {STREAMS} streams × {TICKS} ticks (delta={DELTA}), volatile streams 1 → {STREAMS} → 1"
        ),
        &["phase", "ticks", "hot_streams", "frames_per_tick"],
    );
    swing_table.add_row(vec![
        "quiet_head".to_string(),
        QUIET_HEAD.to_string(),
        "1".to_string(),
        format!("{:.3}", frames_per_tick(&frames, 0, QUIET_HEAD)),
    ]);
    swing_table.add_row(vec![
        "hot".to_string(),
        HOT_TICKS.to_string(),
        STREAMS.to_string(),
        format!("{hot:.3}"),
    ]);
    swing_table.add_row(vec![
        "quiet_tail".to_string(),
        QUIET_TAIL.to_string(),
        "1".to_string(),
        format!(
            "{:.3}",
            frames_per_tick(&frames, QUIET_HEAD + HOT_TICKS, TICKS)
        ),
    ]);
    swing_table.print();

    // Sequential reference: the bits every other run must reproduce.
    let mut reference = SequentialIngest::new(servers.clone());
    for tick in &log {
        reference.ingest_tick(tick);
    }
    let want = reference.finish();
    let want_bits = fleet_bits(&want);

    // Fixed-max pipeline: the "provision for peak" strawman the controller
    // must match bit-for-bit.
    let mut fixed = IngestPipeline::start(MAX_SHARDS, servers.clone());
    for tick in &log {
        fixed.ingest_tick(tick);
    }
    let fixed_result = fixed.finish();
    let fixed_identical = fleet_bits(&fixed_result) == want_bits;

    let mut run_table = Table::new(
        format!(
            "Elastic sweep: controller [{MIN_SHARDS}, {MAX_SHARDS}] shards, capacity {CAPACITY_PER_SHARD}/tick/shard, sample every {SAMPLE_EVERY} ticks, vs the fixed-max reference"
        ),
        &[
            "run",
            "grows",
            "shrinks",
            "resizes",
            "final_shards",
            "messages",
            "identical",
        ],
    );
    run_table.add_row(vec![
        format!("fixed_{MAX_SHARDS}"),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        MAX_SHARDS.to_string(),
        fixed_result.total_messages().to_string(),
        fixed_identical.to_string(),
    ]);
    let mut runs = Vec::new();
    for start in START_SHARDS {
        let run = elastic_run(&servers, &log, start, &want_bits, &mut metrics);
        run_table.add_row(vec![
            format!("elastic_{start}"),
            run.grows.to_string(),
            run.shrinks.to_string(),
            run.resizes.to_string(),
            run.final_shards.to_string(),
            run.messages.to_string(),
            run.identical.to_string(),
        ]);
        runs.push(run);
    }
    run_table.print();

    let mut timeline_table = Table::new(
        format!(
            "Resize timeline, elastic run started at {} shard(s)",
            START_SHARDS[0]
        ),
        &["tick", "action", "from_shards", "to_shards"],
    );
    for (tick, kind, from, to) in &runs[0].timeline {
        timeline_table.add_row(vec![
            tick.to_string(),
            kind_name(*kind).to_string(),
            from.to_string(),
            to.to_string(),
        ]);
    }
    timeline_table.print();

    let ls = lockstep_swing();
    let mut ls_table = Table::new(
        format!(
            "Lockstep protocol fleet under the same swing: {LS_STREAMS} streams (delta={LS_DELTA})"
        ),
        &["messages", "violations"],
    );
    ls_table.add_row(vec![ls.messages.to_string(), ls.violations.to_string()]);
    ls_table.print();
    println!(
        "# shape: the hot phase offers >=4x the quiet phases' frames per tick; every elastic run grows to the max during it, shrinks back to the floor on the quiet tail, and finishes bit-identical to both the sequential and the fixed-max reference; the precision contract holds with zero violations throughout"
    );

    let all_identical = fixed_identical && runs.iter().all(|r| r.identical);
    let stall_max = runs.iter().map(|r| r.max_stall_ms).fold(0.0_f64, f64::max);

    // --- metrics artifact -------------------------------------------------
    {
        let mut s = metrics.scope("gate");
        s.counter("elastic_all_identical", u64::from(all_identical));
        s.counter("violations", ls.violations);
        s.gauge("swing_factor", swing_factor);
    }

    // --- JSON baseline ----------------------------------------------------
    if let Some(path) = out_path {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let grows_total: u64 = runs.iter().map(|r| r.grows).sum();
        let shrinks_total: u64 = runs.iter().map(|r| r.shrinks).sum();
        let resizes_total: u64 = runs.iter().map(|r| r.resizes).sum();
        let run_docs = runs
            .iter()
            .map(|r| {
                format!(
                    "    {{ \"start_shards\": {}, \"grows\": {}, \"shrinks\": {}, \
                     \"resizes\": {}, \"final_shards\": {}, \"run_messages\": {}, \
                     \"elastic_bit_identical\": {} }}",
                    r.start_shards,
                    r.grows,
                    r.shrinks,
                    r.resizes,
                    r.final_shards,
                    r.messages,
                    r.identical,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let doc = format!(
            "{{\n  \"schema\": \"elastic/v1\",\n  \"available_parallelism\": {parallelism},\n  \
             \"streams\": {STREAMS},\n  \"ticks\": {TICKS},\n  \
             \"sample_every\": {SAMPLE_EVERY},\n  \
             \"min_shards\": {MIN_SHARDS},\n  \"max_shards\": {MAX_SHARDS},\n  \
             \"quiet_frames_per_tick\": {quiet:.4},\n  \
             \"hot_frames_per_tick\": {hot:.4},\n  \
             \"swing_factor\": {swing_factor:.4},\n  \
             \"runs\": [\n{run_docs}\n  ],\n  \
             \"fixed_reference_bit_identical\": {fixed_identical},\n  \
             \"grows_total\": {grows_total},\n  \"shrinks_total\": {shrinks_total},\n  \
             \"resizes_total\": {resizes_total},\n  \
             \"total_messages\": {},\n  \
             \"lockstep_swing_messages\": {},\n  \"violations\": {},\n  \
             \"resize_stall_ms_max\": {stall_max:.3}\n}}\n",
            want.total_messages(),
            ls.messages,
            ls.violations,
        );
        std::fs::write(&path, &doc).expect("write output");
        eprintln!("wrote {path}");
    }

    metrics.write();
}
