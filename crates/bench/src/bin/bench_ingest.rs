//! Ingest-pipeline check: sharded ≡ sequential bit-identity, exact wire
//! message and byte totals, and steady-state allocation discipline.
//!
//! This binary checks counts and identities. Throughput and latency are
//! measured by the four `BENCHMARK.json` workloads (`benchmark/`), recorded
//! in EXPERIMENTS.md T5 on a stated core count; nothing here is timed.
//!
//! Writes a `bench_ingest/v1` artifact (schema documented in EXPERIMENTS.md,
//! T3 addendum) to `--out`, by default `target/bench_ingest.json` — not over
//! the committed `BENCH_ingest.json`, which is trimmed by hand to the keys
//! `check_regression` reads. Usage:
//!
//! ```text
//! cargo run --release -p kalstream-bench --bin bench_ingest -- \
//!     [--out PATH] [--quick] [--metrics-out PATH]
//! ```
//!
//! `--quick` runs a reduced workload (fewer streams/ticks) for CI: every
//! correctness gate still applies, only the scale shrinks, and the emitted
//! JSON carries `"quick": true` so `check_regression` compares its totals
//! with the baseline's `quick_shape` record. `--metrics-out` additionally
//! writes a `kalstream-obs` snapshot artifact (stdout is unaffected).
//!
//! Method: a mixed fleet (adaptive scalar walks, scalar model banks, 4-state
//! GPS trackers) is driven once through the simulator's ingest mode to
//! **record** a framed per-tick message log; every run then *replays* that
//! identical log, so the shard-count sweep exercises the server-side drain
//! — decode, route, predict, apply — not source-side simulation.
//!
//! Correctness is a gate, not a statistic: for every shard count the fleet's
//! applied `total_messages` and every endpoint's filter state must be
//! **bit-identical** to the sequential reference, or the binary exits
//! non-zero.

use bytes::Bytes;
use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_bench::harness::{make_stream, StreamFamily};
use kalstream_bench::MetricsOut;
use kalstream_core::wire::SyncRef;
use kalstream_core::{
    FrameDecoder, FramingSink, IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint,
    SessionSpec, TickIngest,
};
use kalstream_filter::models;
use kalstream_linalg::Vector;
use kalstream_net::workload::ingest_identical;
use kalstream_sim::{run_fleet_ingest, IngestStream, LinkFaults};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const STREAMS: u32 = 768;
const LOG_TICKS: u64 = 512;
/// `--quick` scale: small enough for a CI lane, large enough that every
/// stream kind appears and the packing/bit-identity gates stay meaningful.
const QUICK_STREAMS: u32 = 192;
const QUICK_LOG_TICKS: u64 = 128;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Steady-state phase: fixed-model scalar fleet (no model syncs, so decode
/// stays within inline matrix storage). The whole log is replayed once as
/// warmup — so every pooled buffer has seen the workload's high-water batch
/// size — then the counted replay runs the identical ticks again.
const ALLOC_STREAMS: u32 = 256;
const ALLOC_TICKS: u64 = 256;
const ALLOC_SHARDS: usize = 4;

/// Messages and wire-body bytes of one sync tag.
#[derive(Default, Clone, Copy)]
struct Tally {
    messages: u64,
    packed_bytes: u64,
}

/// The sync tags, in the order [`LogRecorder::by_tag`] tallies them.
const TAGS: [&str; 3] = ["state_syncs", "model_syncs", "measurement_syncs"];

/// Records the framed tick log and tallies messages and bytes per tag.
#[derive(Default)]
struct LogRecorder {
    ticks: Vec<Bytes>,
    by_tag: [Tally; 3],
}

impl LogRecorder {
    fn total(&self) -> Tally {
        Tally {
            messages: self.by_tag.iter().map(|t| t.messages).sum(),
            packed_bytes: self.by_tag.iter().map(|t| t.packed_bytes).sum(),
        }
    }
}

impl TickIngest for LogRecorder {
    fn ingest_tick(&mut self, wire: &[u8]) {
        let mut dec = FrameDecoder::new();
        dec.for_each_frame(wire, |frame| {
            let tag = match SyncRef::parse(frame.body).expect("recorded frames decode") {
                SyncRef::State { .. } => 0,
                SyncRef::Model { .. } => 1,
                SyncRef::Measurement { .. } => 2,
            };
            self.by_tag[tag].messages += 1;
            self.by_tag[tag].packed_bytes += frame.body.len() as u64;
        });
        assert_eq!(dec.decode_failures(), 0, "recorded log must be clean");
        self.ticks.push(Bytes::copy_from_slice(wire));
    }
}

/// Builds the mixed fleet: per stream, a (source, server) endpoint pair and
/// the generator sampling its observations.
fn build_fleet<'a>(n: u32, mixed: bool) -> (Vec<IngestStream<'a>>, Vec<(u32, ServerEndpoint)>) {
    let scalar_families = StreamFamily::scalar_roster();
    let mut streams = Vec::new();
    let mut servers = Vec::new();
    for id in 0..n {
        let (family, kind) = if mixed {
            match id % 10 {
                0..=3 => (scalar_families[id as usize % scalar_families.len()], 0), // adaptive
                4..=6 => (scalar_families[id as usize % scalar_families.len()], 1), // bank
                _ => (StreamFamily::Gps, 2),                                        // 4-state CV
            }
        } else {
            (StreamFamily::RandomWalk, 3) // fixed model: steady-state phase
        };
        let mut stream = make_stream(family, 40_000 + id as u64);
        let first = stream.next_sample();
        let delta = family.natural_scale();
        let config = ProtocolConfig::new(delta).expect("valid delta");
        let session = match kind {
            0 => SessionSpec::default_scalar(first.observed[0], config),
            1 => SessionSpec::standard_bank(first.observed[0], 0.1, config),
            2 => SessionSpec::fixed(
                models::constant_velocity_2d(1.0, 0.005, 1.0),
                Vector::from_slice(&[first.observed[0], 0.0, first.observed[1], 0.0]),
                1.0,
                config,
            ),
            _ => SessionSpec::fixed(
                models::random_walk(0.25, 0.1),
                Vector::from_slice(&[first.observed[0]]),
                1.0,
                config,
            ),
        }
        .expect("valid session spec")
        .build();
        servers.push((id, session.server));
        let dim = stream.dim();
        let mut first_pending = Some(first);
        streams.push(IngestStream {
            stream_id: id,
            producer: Box::new(session.source),
            sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                if let Some(f) = first_pending.take() {
                    obs[..dim].copy_from_slice(&f.observed);
                    tru[..dim].copy_from_slice(&f.truth);
                } else {
                    stream.next_into(obs, tru);
                }
            }),
        });
    }
    (streams, servers)
}

fn record_log(n: u32, ticks: u64, mixed: bool) -> (LogRecorder, Vec<(u32, ServerEndpoint)>) {
    let (mut streams, servers) = build_fleet(n, mixed);
    let mut sink = FramingSink::new(LogRecorder::default());
    run_fleet_ingest(&mut streams, ticks, 0, LinkFaults::default(), &mut sink);
    (sink.into_inner(), servers)
}

struct ShardedRun {
    shards: usize,
    total_messages: u64,
    bit_identical: bool,
}

fn main() {
    let mut out_path = String::from("target/bench_ingest.json");
    let mut quick = false;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--quick" => quick = true,
            "--metrics-out" => {
                metrics_path = Some(std::path::PathBuf::from(
                    args.next().expect("--metrics-out needs a path"),
                ));
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let mut metrics = MetricsOut::from_path(metrics_path);
    let (streams, log_ticks) = if quick {
        (QUICK_STREAMS, QUICK_LOG_TICKS)
    } else {
        (STREAMS, LOG_TICKS)
    };

    // --- record the mixed-fleet log --------------------------------------
    println!("recording {streams}-stream / {log_ticks}-tick message log…");
    let (log, servers) = record_log(streams, log_ticks, true);
    let total = log.total();
    println!(
        "  {} messages ({} state, {} model, {} measurement syncs), {} wire-body bytes",
        total.messages,
        log.by_tag[0].messages,
        log.by_tag[1].messages,
        log.by_tag[2].messages,
        total.packed_bytes,
    );

    // --- sequential reference --------------------------------------------
    let mut seq = SequentialIngest::new(servers.clone());
    for tick in &log.ticks {
        seq.ingest_tick(tick);
    }
    let seq_result = seq.finish();
    println!("sequential: {} msgs applied", seq_result.total_messages());

    // --- sharded sweep ----------------------------------------------------
    let mut runs: Vec<ShardedRun> = Vec::new();
    let mut gate_failed = false;
    for &shards in &SHARD_COUNTS {
        let mut pipe = IngestPipeline::start(shards, servers.clone());
        for tick in &log.ticks {
            pipe.ingest_tick(tick);
        }
        pipe.flush();
        let result = pipe.finish();
        let bit_identical = ingest_identical(&result, &seq_result);
        if !bit_identical {
            eprintln!(
                "GATE FAILURE: {shards}-shard run diverged from sequential \
                 (messages {} vs {})",
                result.total_messages(),
                seq_result.total_messages()
            );
            gate_failed = true;
        }
        println!(
            "{shards} shard(s): {} msgs applied, identical: {bit_identical}",
            result.total_messages(),
        );
        runs.push(ShardedRun {
            shards,
            total_messages: result.total_messages(),
            bit_identical,
        });
    }

    // --- steady-state allocation discipline -------------------------------
    println!(
        "steady-state alloc check ({ALLOC_STREAMS} fixed scalar streams, {ALLOC_SHARDS} shards)…"
    );
    let (alloc_log, alloc_servers) = record_log(ALLOC_STREAMS, ALLOC_TICKS, false);
    let mut pipe = IngestPipeline::start(ALLOC_SHARDS, alloc_servers);
    for tick in &alloc_log.ticks {
        pipe.ingest_tick(tick);
    }
    pipe.flush(); // buffers have cycled: pools and queues are at high-water
    let (allocs, _) = alloc_count::count_allocs(|| {
        for tick in &alloc_log.ticks {
            pipe.ingest_tick(tick);
        }
        pipe.flush();
    });
    let batches = alloc_log.ticks.len() as u64 * ALLOC_SHARDS as u64;
    let allocs_per_batch = allocs as f64 / batches as f64;
    drop(pipe.finish());
    println!("  {allocs} allocations over {batches} drained batches ({allocs_per_batch:.3}/batch)");

    // --- JSON -------------------------------------------------------------
    let sharded_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{ \"shards\": {}, \"total_messages\": {}, \"bit_identical\": {} }}",
                r.shards, r.total_messages, r.bit_identical
            )
        })
        .collect();
    let by_tag_json: Vec<String> = TAGS
        .iter()
        .zip(&log.by_tag)
        .map(|(tag, t)| {
            format!(
                "    \"{tag}\": {{ \"messages\": {}, \"packed_bytes\": {} }}",
                t.messages, t.packed_bytes
            )
        })
        .collect();
    // The gated totals come first: `check_regression` reads the first
    // occurrence of a key.
    let doc = format!(
        "{{\n  \"schema\": \"bench_ingest/v1\",\n  \"quick\": {quick},\n  \
         \"streams\": {streams},\n  \"log_ticks\": {log_ticks},\n  \
         \"messages\": {},\n  \"packed_bytes\": {},\n  \"by_tag\": {{\n{}\n  }},\n  \
         \"sequential\": {{ \"total_messages\": {} }},\n  \
         \"sharded\": [\n{}\n  ],\n  \
         \"steady_state\": {{ \"streams\": {ALLOC_STREAMS}, \"ticks\": {}, \"shards\": {ALLOC_SHARDS}, \
         \"drained_batches\": {batches}, \"allocations\": {allocs}, \"allocs_per_batch\": {allocs_per_batch:.3} }}\n}}\n",
        total.messages,
        total.packed_bytes,
        by_tag_json.join(",\n"),
        seq_result.total_messages(),
        sharded_json.join(",\n"),
        alloc_log.ticks.len(),
    );
    std::fs::write(&out_path, &doc).expect("write output");
    println!("wrote {out_path}");

    // --- metrics artifact (stdout untouched) ------------------------------
    let tallies = TAGS.iter().copied().zip(log.by_tag);
    for (tag, t) in [("total", total)].into_iter().chain(tallies) {
        let mut s = metrics.scope(&format!("wire.{tag}"));
        s.counter("messages", t.messages);
        s.counter("packed_bytes", t.packed_bytes);
    }
    metrics
        .scope("sequential")
        .counter("total_messages", seq_result.total_messages());
    for r in &runs {
        let mut s = metrics.scope(&format!("sharded.{}", r.shards));
        s.counter("total_messages", r.total_messages);
        s.counter("bit_identical", u64::from(r.bit_identical));
    }
    {
        let mut s = metrics.scope("steady_state");
        s.counter("allocations", allocs);
        s.counter("drained_batches", batches);
    }
    metrics.write();

    // --- gates ------------------------------------------------------------
    if gate_failed {
        eprintln!("bench-ingest: FAILED — sharded ingest drifted from the sequential baseline");
        std::process::exit(1);
    }
    println!("bench-ingest: all gates passed");
}
