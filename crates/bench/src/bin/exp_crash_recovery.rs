//! Crash recovery — what killing the durable ingest at an arbitrary tick
//! costs, and proof that it changes nothing.
//!
//! The durability layer's contract is stronger than "no data loss": after
//! a crash the recovered fleet must be **bit-identical** to a fleet that
//! never died, so every post-recovery suppression and bound decision is
//! the one the uncrashed server would have made. This experiment records
//! one batch of real protocol traffic, then sweeps the kill tick across
//! the run: each row crashes a durable sharded pipeline mid-flight (no
//! checkpoint, no goodbye), recovers from snapshot + WAL into a
//! *different* shard count, finishes the run, and compares raw filter
//! bits and cumulative protocol counters against the sequential
//! reference. A second table crashes every server in a lockstep protocol
//! fleet at several ticks (rebuild = snapshot round-trip) and shows the
//! precision contract holds with zero violations and unchanged traffic.
//!
//! Expected shape: `identical` is true on every row, replay length is
//! `kill_tick − base_snapshot` (the cadence bounds it), and the crash
//! sweep's byte/replay totals are exact run-to-run — they gate as
//! determinism canaries in `check_regression`. Recovery
//! wall time is host noise, so it goes to the `--out` artifact only,
//! never stdout (the recorded table must be byte-stable).

use kalstream_bench::table::Table;
use kalstream_bench::MetricsOut;
use kalstream_core::{
    IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec,
};
use kalstream_durable::{Durability, DurableStore};
use kalstream_net::workload::{self, fleet_bits};
use kalstream_sim::{
    run_fleet_ingest, run_lockstep, IngestSink, LinkFaults, LockstepStream, SessionConfig,
};

use bytes::Bytes;
use kalstream_core::frame::FrameBatch;

const STREAMS: u32 = 8;
const TICKS: u64 = 60;
const SNAPSHOT_EVERY: u64 = 4;
const SEED_SHARDS: usize = 2;
const KILL_TICKS: [u64; 5] = [1, 7, 23, 45, 59];

const LS_STREAMS: usize = 4;
const LS_TICKS: u64 = 200;
const LS_DELTA: f64 = 0.75;
const LS_CRASHES: [u64; 4] = [17, 63, 64, 155];

/// Records each tick's framed wire batch so every run replays the
/// identical traffic.
#[derive(Default)]
struct TickRecorder {
    batch: FrameBatch,
    ticks: Vec<Vec<u8>>,
}

impl IngestSink for TickRecorder {
    fn push(&mut self, stream_id: u32, payload: &Bytes) {
        self.batch.push_raw(stream_id, payload);
    }
    fn end_tick(&mut self) {
        let batch = std::mem::take(&mut self.batch);
        self.ticks.push(batch.into_buffer().to_vec());
    }
}

fn record_traffic() -> Vec<Vec<u8>> {
    let ids: Vec<u32> = (0..STREAMS).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut recorder = TickRecorder::default();
    run_fleet_ingest(&mut fleet, TICKS, 0, LinkFaults::default(), &mut recorder);
    recorder.ticks
}

fn tempdir(kill: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("kalstream-exp-crash-{kill}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One crash/recover cycle's outcome.
struct Cycle {
    base_snapshot: u64,
    replayed: u64,
    recover_shards: usize,
    wal_bytes: u64,
    snapshot_bytes: u64,
    syncs: u64,
    identical: bool,
    recovery_wall_ms: f64,
}

fn crash_cycle(
    traffic: &[Vec<u8>],
    kill: u64,
    want_bits: &[(u32, Vec<u64>)],
    want_syncs: u64,
    metrics: &mut MetricsOut,
) -> Cycle {
    let dir = tempdir(kill);

    // Phase 1: durable pipeline, killed after `kill` ticks —
    // dropped mid-flight, no checkpoint.
    let store = DurableStore::open(&dir).expect("open store");
    let mut pipeline = IngestPipeline::start(SEED_SHARDS, workload::server_endpoints(STREAMS));
    let mut durable =
        Durability::start(store, SNAPSHOT_EVERY, 0, &pipeline.snapshot_states()).expect("genesis");
    for wire in &traffic[..kill as usize] {
        durable
            .ingest_tick(&mut pipeline, wire)
            .expect("append+apply");
    }
    let writer_stats = durable.store().stats().clone();
    metrics.record(&format!("kill_{kill}.writer"), &writer_stats);
    drop((durable, pipeline));

    // Phase 2: recover into a *different* shard count and finish the run.
    let recover_shards = (kill as usize % 3) + 1;
    let mut store = DurableStore::open(&dir).expect("reopen store");
    let recovery = store
        .recover()
        .expect("recover")
        .expect("genesis snapshot exists");
    assert_eq!(recovery.next_tick(), kill, "recovery lost ticks");
    let base_snapshot = recovery.snapshot_ticks;
    let replayed = store.stats().replay_ticks.get();
    let recovery_wall_ms = store.stats().recovery_wall_ms.get();
    let mut recovered = IngestPipeline::start(recover_shards, recovery.endpoints().expect("state"));
    recovery.replay_into(&mut recovered);
    let mut resumed = Durability::start(store, SNAPSHOT_EVERY, kill, &recovered.snapshot_states())
        .expect("resume");
    for wire in &traffic[kill as usize..] {
        resumed
            .ingest_tick(&mut recovered, wire)
            .expect("append+apply");
    }
    metrics.record(&format!("kill_{kill}.recovery"), resumed.store().stats());
    let result = recovered.finish();
    let syncs: u64 = result
        .endpoints
        .iter()
        .map(|(_, ep)| ep.syncs_applied())
        .sum();
    let identical = fleet_bits(&result) == want_bits && syncs == want_syncs;
    let _ = std::fs::remove_dir_all(&dir);

    Cycle {
        base_snapshot,
        replayed,
        recover_shards,
        wal_bytes: writer_stats.wal_bytes.get(),
        snapshot_bytes: writer_stats.snapshot_bytes.get(),
        syncs,
        identical,
        recovery_wall_ms,
    }
}

/// Protocol fleet for the lockstep runner: stream `i` levels at `i`.
fn protocol_streams() -> Vec<LockstepStream<'static, kalstream_core::SourceEndpoint, ServerEndpoint>>
{
    (0..LS_STREAMS)
        .map(|i| {
            let session =
                SessionSpec::default_scalar(i as f64, ProtocolConfig::new(LS_DELTA).unwrap())
                    .unwrap()
                    .build();
            let (source, server) = session.split();
            let mut v = i as f64;
            LockstepStream {
                producer: source,
                consumer: server,
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    v += ((v * 12.9898).sin() * 43758.5453).fract() * 0.2 - 0.1;
                    obs[0] = v;
                    tru[0] = v;
                }),
            }
        })
        .collect()
}

struct LockstepOutcome {
    rebuilds: u64,
    violations: u64,
    identical: bool,
}

fn lockstep_crashes() -> LockstepOutcome {
    let config = SessionConfig::instant(LS_TICKS, LS_DELTA);
    let mut plain = protocol_streams();
    let reference = run_lockstep(&config, &mut plain, |_, _, _| {});

    let mut crashed = protocol_streams();
    let mut rebuilds = 0u64;
    let report = run_lockstep(&config, &mut crashed, |now, _, streams| {
        if LS_CRASHES.contains(&now) {
            for stream in streams {
                stream.consumer = ServerEndpoint::from_state(stream.consumer.state()).unwrap();
                rebuilds += 1;
            }
        }
    });
    let identical = report
        .sessions
        .iter()
        .zip(&reference.sessions)
        .all(|(r, p)| {
            r.traffic == p.traffic
                && r.error_vs_observed.max_abs().to_bits()
                    == p.error_vs_observed.max_abs().to_bits()
        });
    LockstepOutcome {
        rebuilds,
        violations: report.total_violations(),
        identical,
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

    let traffic = record_traffic();
    let mut reference = SequentialIngest::new(workload::server_endpoints(STREAMS));
    for wire in &traffic {
        reference.ingest_tick(wire);
    }
    let want = reference.finish();
    let want_bits = fleet_bits(&want);
    let want_syncs: u64 = want
        .endpoints
        .iter()
        .map(|(_, ep)| ep.syncs_applied())
        .sum();

    let mut table = Table::new(
        format!(
            "Crash recovery: kill/recover sweep, {STREAMS} streams × {TICKS} ticks of protocol traffic, snapshot cadence {SNAPSHOT_EVERY}, {SEED_SHARDS}-shard batched pipeline killed and recovered"
        ),
        &[
            "kill_tick",
            "base_snapshot",
            "replayed",
            "recover_shards",
            "wal_bytes",
            "snap_bytes",
            "syncs",
            "identical",
        ],
    );
    let mut cycles = Vec::new();
    for kill in KILL_TICKS {
        let c = crash_cycle(&traffic, kill, &want_bits, want_syncs, &mut metrics);
        table.add_row(vec![
            kill.to_string(),
            c.base_snapshot.to_string(),
            c.replayed.to_string(),
            c.recover_shards.to_string(),
            c.wal_bytes.to_string(),
            c.snapshot_bytes.to_string(),
            c.syncs.to_string(),
            c.identical.to_string(),
        ]);
        cycles.push((kill, c));
    }
    table.print();

    let ls = lockstep_crashes();
    let mut ls_table = Table::new(
        format!(
            "Lockstep protocol fleet: {LS_STREAMS} streams × {LS_TICKS} ticks (delta={LS_DELTA}), every server crashed at ticks {LS_CRASHES:?}, rebuild = snapshot round-trip"
        ),
        &["rebuilds", "violations", "identical"],
    );
    ls_table.add_row(vec![
        ls.rebuilds.to_string(),
        ls.violations.to_string(),
        ls.identical.to_string(),
    ]);
    ls_table.print();
    println!(
        "# shape: every kill tick recovers bit-identically (identical=true throughout); replay length is bounded by the snapshot cadence; crashing the lockstep fleet changes neither traffic nor errors and the precision contract holds with zero violations"
    );

    // --- metrics artifact -------------------------------------------------
    {
        let mut s = metrics.scope("gate");
        s.counter(
            "recovered_all_identical",
            u64::from(cycles.iter().all(|(_, c)| c.identical)),
        );
        s.counter("post_recovery_violations", ls.violations);
    }

    // --- JSON baseline ----------------------------------------------------
    if let Some(path) = out_path {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let replay_total: u64 = cycles.iter().map(|(_, c)| c.replayed).sum();
        let wal_total: u64 = cycles.iter().map(|(_, c)| c.wal_bytes).sum();
        let snap_total: u64 = cycles.iter().map(|(_, c)| c.snapshot_bytes).sum();
        let wall_max = cycles
            .iter()
            .map(|(_, c)| c.recovery_wall_ms)
            .fold(0.0_f64, f64::max);
        let kills = cycles
            .iter()
            .map(|(kill, c)| {
                format!(
                    "    {{ \"kill_tick\": {kill}, \"recovered_bit_identical\": {}, \
                     \"base_snapshot\": {}, \"replay_ticks\": {}, \"recover_shards\": {}, \
                     \"wal_bytes\": {}, \"snapshot_bytes\": {}, \"syncs\": {} }}",
                    c.identical,
                    c.base_snapshot,
                    c.replayed,
                    c.recover_shards,
                    c.wal_bytes,
                    c.snapshot_bytes,
                    c.syncs,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let doc = format!(
            "{{\n  \"schema\": \"durable/v1\",\n  \"available_parallelism\": {parallelism},\n  \
             \"streams\": {STREAMS},\n  \"ticks\": {TICKS},\n  \
             \"snapshot_every\": {SNAPSHOT_EVERY},\n  \"kill_count\": {},\n  \
             \"kills\": [\n{kills}\n  ],\n  \
             \"replay_ticks_total\": {replay_total},\n  \
             \"wal_bytes_total\": {wal_total},\n  \
             \"snapshot_bytes_total\": {snap_total},\n  \"syncs_final\": {want_syncs},\n  \
             \"lockstep\": {{ \"streams\": {LS_STREAMS}, \"ticks\": {LS_TICKS}, \
             \"rebuilds\": {}, \"lockstep_traffic_identical\": {} }},\n  \
             \"post_recovery_violations\": {},\n  \
             \"recovery_wall_ms_max\": {wall_max:.3}\n}}\n",
            KILL_TICKS.len(),
            ls.rebuilds,
            ls.identical,
            ls.violations,
        );
        std::fs::write(&path, &doc).expect("write output");
        eprintln!("wrote {path}");
    }

    metrics.write();
}
