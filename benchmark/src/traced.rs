//! The traced run: a few ordinary passes for reference, then each layer
//! measured from outside and summed into the ledger of one tick.

use std::collections::BTreeMap;
use std::io;

use kalstream_net::workload::ingest_identical;

use crate::fleet::{self, Log};
use crate::layers::{self, Layers};
use crate::report::{Budget, Outcome};
use crate::stats::{median, quiet};
use crate::tcp::{self, PhaseConfig};
use crate::trace::{Ledger, Tracer};
use crate::workloads::{query_graph_pass, timed, Host, Run, Scale, Workload, STREAM_PHASES};
use crate::{host, query};

/// Spans of a trace written out in full; the ledger covers all of them.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// A ledger share below this is called out as a finding.
const ACCOUNTED_FLOOR: f64 = 0.8;

/// Per-name span totals of a finished trace.
struct Spans<'a> {
    tracer: &'a Tracer,
    ledger: BTreeMap<&'static str, Ledger>,
}

impl<'a> Spans<'a> {
    fn of(tracer: &'a Tracer) -> Self {
        Spans {
            tracer,
            ledger: tracer.ledger(),
        }
    }

    fn get(&self, name: &str) -> Ledger {
        self.ledger.get(name).copied().unwrap_or_default()
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64
    }

    fn count(&self, name: &str) -> f64 {
        self.get(name).count as f64
    }

    fn mean_ns(&self, name: &str) -> f64 {
        self.total_ns(name) / self.count(name).max(1.0)
    }

    fn median_us(&self, name: &str) -> f64 {
        let durations = self.tracer.durations(name);
        if durations.is_empty() {
            0.0
        } else {
            median(&durations) / 1e3
        }
    }
}

/// The ledger of one tick: what the layers account for, out of what.
fn ledger(layers: &mut Layers, tick_us: f64, accounted_us: f64, workload_us: f64) {
    layers.insert("ledger.tick_us", tick_us);
    layers.insert("ledger.accounted_us", accounted_us);
    layers.insert("ledger.accounted_frac", accounted_us / tick_us);
    layers.insert("ledger.workload_layers_frac", workload_us / tick_us);
}

/// The server path stage by stage over `log`: per-frame and per-message
/// costs of `net.codec`, `core.frame`, `core.wire` and `core.server`.
fn server_path(log: &Log, tracer: &mut Tracer, layers: &mut Layers) {
    let staged = layers::staged_server(log, tracer);
    let spans = Spans::of(tracer);
    let frames = staged.frames.max(1) as f64;
    let streams = log.streams() as f64;
    let idle_us = spans.median_us("core.server.advance_idle");
    layers.insert(
        "core.wire.encode_ns",
        spans.total_ns("core.wire.encode") / frames,
    );
    layers.insert(
        "core.wire.decode_ns",
        spans.total_ns("core.wire.decode") / frames,
    );
    layers.insert("core.wire.bytes_per_msg", staged.body_bytes as f64 / frames);
    layers.insert(
        "core.frame.decode_ns_per_frame",
        spans.total_ns("core.frame.feed") / frames,
    );
    layers.insert(
        "net.codec.feed_ticks_ns_per_frame",
        spans.total_ns("net.codec.feed_ticks") / frames,
    );
    layers.insert(
        "net.codec.push_frame_ns",
        spans.total_ns("net.codec.push_frame") / frames,
    );
    layers.insert("core.server.advance_ns_per_stream", idle_us * 1e3 / streams);
    // What a message adds to a tick of the server: queueing it, and the
    // advance loop's time beyond an idle fleet's.
    layers.insert(
        "core.server.apply_ns_per_msg",
        (spans.total_ns("core.server.enqueue_wire") + spans.total_ns("core.server.advance")
            - staged.ticks as f64 * idle_us * 1e3)
            / frames,
    );
}

fn trace_inproc(seed: u64, scale: &Scale, run: &Run, tracer: &mut Tracer, layers: &mut Layers) {
    fleet::inproc_traced(seed, scale.streams, scale.inproc_ticks, tracer);
    let spans = Spans::of(tracer);
    let ticks = spans.count("tick");
    let streams = f64::from(scale.streams);
    let sent = spans.count("core.source.observe_sent");
    let suppressed = spans.count("core.source.observe_suppressed");
    layers.insert(
        "gen.sample_ns",
        spans.total_ns("gen.sample") / (ticks * streams),
    );
    layers.insert(
        "core.source.observe_sent_ns",
        spans.mean_ns("core.source.observe_sent"),
    );
    layers.insert(
        "core.source.observe_suppressed_ns",
        spans.mean_ns("core.source.observe_suppressed"),
    );
    layers.insert("core.source.sent_frac", sent / (sent + suppressed));
    layers.insert(
        "core.frame.push_raw_ns",
        spans.total_ns("core.frame.push_raw") / sent.max(1.0),
    );
    layers.insert(
        "core.ingest.seq_tick_us",
        spans.median_us("core.ingest.seq_tick"),
    );
    let per_tick_us =
        |names: &[&str]| names.iter().map(|n| spans.self_ns(n)).sum::<f64>() / ticks / 1e3;
    let tick_us = spans.total_ns("tick") / ticks / 1e3;
    ledger(
        layers,
        tick_us,
        tick_us - per_tick_us(&["tick"]),
        per_tick_us(&[
            "gen.sample",
            "core.source.observe_sent",
            "core.source.observe_suppressed",
            "core.ingest.seq_tick",
        ]),
    );
    layers.insert(
        "trace.overhead_frac",
        spans.median_us("tick") / (run.summary.typical_fresh_p50_ms * 1e3) - 1.0,
    );
    let recording = run
        .recording
        .as_ref()
        .expect("inproc_fleet records its log");
    server_path(&recording.log, tracer, layers);
}

fn trace_tcp(run: &mut Run, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<bool> {
    let recording = run.recording.as_ref().expect("TCP workloads record a log");
    let (log, reference) = (&recording.log, &recording.reference);
    let ticks = log.ticks as f64;
    server_path(log, tracer, layers);

    let (engines, pipeline_s) = layers::ingest_engines(log, tcp::SHARDS, tracer);
    let mut ok = engines.iter().all(|r| ingest_identical(r, reference));
    let pipeline = &engines[1];
    let busy: Vec<f64> = pipeline.shards.iter().map(|s| s.busy_secs).collect();
    let busiest = busy.iter().copied().fold(0.0, f64::max);
    let idlest = busy.iter().copied().fold(f64::INFINITY, f64::min);
    layers.insert(
        "core.ingest.shard_busy_frac",
        busy.iter().sum::<f64>() / busy.len() as f64 / pipeline_s,
    );
    layers.insert("core.ingest.shard_skew", (busiest - idlest) / busiest);
    layers.insert(
        "core.ingest.queue_high_water",
        pipeline
            .shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    layers.insert(
        "core.ingest.failed",
        engines.iter().map(fleet::ingest_failures).sum::<u64>() as f64,
    );

    // Real sockets: one lockstep phase with the host counters sampled, and
    // one of marker-only ticks for the fixed per-tick cost.
    let lock = tcp::run_phase(log, &run.stores.config(true, true))?;
    ok &= ingest_identical(&lock.report.ingest, reference);
    let empty = tcp::run_phase(
        &tcp::empty_log(log.ticks),
        &PhaseConfig {
            lockstep: true,
            store: None,
            sample_host: false,
        },
    )?;
    let p50_us = median(&lock.fresh_ns) / 1e3;
    let write_us = median(&lock.write_ns) / 1e3;
    layers.insert("net.server.start_ms", lock.start_ms);
    layers.insert("net.server.admit_ms", lock.admit_ms);
    layers.insert("net.server.drain_ms", lock.drain_ms);
    layers.insert(
        "net.server.empty_tick_rtt_us",
        median(&empty.fresh_ns) / 1e3,
    );
    layers.insert("net.client.write_us", write_us);
    layers.insert("net.client.wait_us", median(&lock.wait_ns) / 1e3);
    layers.insert("net.server.shed", lock.report.total_shed() as f64);
    layers.insert(
        "net.server.rejected_hellos",
        lock.report.rejected_hellos as f64,
    );
    layers.insert(
        "net.server.dropped_router_msgs",
        lock.report.dropped_router_msgs as f64,
    );
    layers.insert(
        "net.server.conn_queue_high_water",
        lock.report
            .conns
            .iter()
            .map(|c| c.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    layers.insert(
        "net.server.feedback_sent",
        lock.report
            .conns
            .iter()
            .map(|c| c.feedback_sent)
            .sum::<u64>() as f64,
    );
    layers.insert("host.threads", lock.threads as f64);
    layers.insert("host.ctx_switches_per_tick", lock.ctx_switches_per_tick);

    let mut durable_us = 0.0;
    if run.stores.durable {
        let dir = tcp::store_dir(0);
        layers.insert(
            "host.store_fs",
            host::on_memory_fs(&crate::out_dir()) as f64,
        );
        let costs = layers::durable_store(log, run.stores.snapshot_every, &dir, tracer)?;
        ok &= fleet::endpoints_identical(&costs.recovered, reference);
        layers.insert("durable.wal.bytes_per_tick", costs.wal_bytes_per_tick);
        layers.insert("durable.snapshot.bytes", costs.snapshot_bytes);
        layers.insert("durable.store.recover_ms", costs.recover_ms);
        layers.insert("durable.store.replay_ticks_per_s", costs.replay_ticks_per_s);
        // As many stream phases without a store as the run did with one,
        // summed up as the run's own rate is, for what the store costs.
        let mut plain = Vec::new();
        for _ in 0..run.summary.passes * STREAM_PHASES {
            let phase = tcp::run_phase(
                log,
                &PhaseConfig {
                    lockstep: false,
                    store: None,
                    sample_host: false,
                },
            )?;
            plain.push((log.streams() * log.ticks) as f64 / phase.phase_s);
        }
        layers.insert(
            "durable.overhead_frac",
            1.0 - run.summary.obs_per_s / quiet(&plain, true),
        );
    }

    let spans = Spans::of(tracer);
    let seq_us = spans.median_us("core.ingest.seq_tick");
    let pipeline_us = spans.median_us("core.ingest.pipeline_tick");
    layers.insert("core.ingest.seq_tick_us", seq_us);
    layers.insert("core.ingest.pipeline_tick_us", pipeline_us);
    layers.insert("core.ingest.pipeline_overhead_us", pipeline_us - seq_us);
    layers.insert(
        "core.batch_ingest.tick_us",
        spans.median_us("core.batch_ingest.tick"),
    );
    if run.stores.durable {
        layers.insert(
            "durable.wal.append_us",
            spans.median_us("durable.wal.append"),
        );
        layers.insert(
            "durable.snapshot.write_ms",
            spans.median_us("durable.snapshot.write") / 1e3,
        );
        durable_us = (spans.total_ns("durable.wal.append")
            + spans.total_ns("durable.snapshot.write"))
            / 1e3
            / spans.count("durable.wal.append");
    }
    layers.insert("net.server.residual_us", p50_us - pipeline_us - write_us);
    layers.insert(
        "net.server.residual_frac",
        (p50_us - pipeline_us - write_us) / p50_us,
    );
    let feed_us = spans.total_ns("net.codec.feed_ticks")
        / 1e3
        / (ticks - fleet::warmup_ticks(log.ticks) as f64);
    ledger(
        layers,
        p50_us,
        write_us + feed_us + pipeline_us + durable_us,
        feed_us + pipeline_us + durable_us,
    );
    layers.insert(
        "trace.overhead_frac",
        p50_us / (run.summary.typical_fresh_p50_ms * 1e3) - 1.0,
    );
    Ok(ok)
}

fn trace_query(
    seed: u64,
    scale: &Scale,
    run: &mut Run,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> bool {
    let q = query::query_pass(seed, scale.query_streams, scale.query_ticks, tracer);
    let spans = Spans::of(tracer);
    let ticks = q.fresh_ns.len() as f64;
    let tick_us = q.timed_s * 1e6 / ticks;
    let graph_us = (spans.total_ns("query.graph.observe_tick")
        + spans.total_ns("query.graph.required_deltas"))
        / 1e3
        / ticks;
    let hook_us = graph_us
        + (spans.total_ns("query.graph.verify_tick")
            + spans.total_ns("core.server.push_bound_directive"))
            / 1e3
            / ticks;
    layers.insert(
        "query.graph.observe_tick_us",
        spans.median_us("query.graph.observe_tick"),
    );
    layers.insert(
        "query.graph.verify_tick_us",
        spans.median_us("query.graph.verify_tick"),
    );
    layers.insert(
        "query.graph.required_deltas_us",
        spans.median_us("query.graph.required_deltas"),
    );
    layers.insert("query.graph.nodes", q.nodes as f64);
    layers.insert(
        "query.graph.directives_per_tick",
        q.directives as f64 / scale.query_ticks as f64,
    );
    layers.insert("query.graph.relaxations", q.relaxations as f64);
    layers.insert("query.graph.coverage", q.coverage);
    layers.insert("query.graph.share", graph_us / tick_us);
    // Everything `run_lockstep` does outside our hook: sampling, both
    // endpoints of every stream, the links.
    layers.insert("sim.lockstep.tick_us", tick_us - hook_us);
    ledger(layers, tick_us, hook_us, graph_us);
    let untraced_tick_us = scale.query_streams as f64 / run.summary.typical_obs_per_s * 1e6;
    layers.insert("trace.overhead_frac", tick_us / untraced_tick_us - 1.0);
    query_graph_pass(&q, scale, &mut run.query_reference).state_ok && q.violations == 0
}

pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    host: &Host,
) -> io::Result<Outcome> {
    let mut run = timed(workload, seed, scale, Budget::Passes(scale.trace_passes))?;
    let mut layers = Layers::new();
    run.summary.diagnostics(&mut layers);
    layers.insert("host.pinned_cpu", host.pinned_cpu as f64);
    layers.insert("host.nproc", host.nproc as f64);
    layers.insert("host.nice", host.nice as f64);
    layers.insert("host.cpu_us_per_obs", run.cpu_s_per_obs * 1e6);
    layers.insert(
        "loadgen.record_s",
        run.recording.as_ref().map_or(0.0, |r| r.record_s),
    );
    // Room for every span, so that recording one never reallocates: the
    // in-process trace opens one per observation, the others a dozen per tick.
    let spans = match workload {
        Workload::InprocFleet => scale.inproc_ticks * (u64::from(scale.streams) + 32),
        Workload::TcpReplay | Workload::TcpDurable => scale.tcp_ticks * 32,
        Workload::QueryGraph => scale.query_ticks * 4,
    };
    let mut tracer = Tracer::with_capacity(spans as usize);
    let ok = match workload {
        Workload::InprocFleet => {
            trace_inproc(seed, scale, &run, &mut tracer, &mut layers);
            true
        }
        Workload::TcpReplay | Workload::TcpDurable => {
            trace_tcp(&mut run, &mut tracer, &mut layers)?
        }
        Workload::QueryGraph => trace_query(seed, scale, &mut run, &mut tracer, &mut layers),
    };
    layers::kernel_costs(&mut layers);
    layers.insert("trace.spans", tracer.spans().len() as f64);
    layers.insert("host.peak_rss_mib", host::peak_rss_mib());
    let path = crate::out_dir().join(format!("trace-{}-{seed}.json", workload.name()));
    tracer.write_json(&path, MAX_SPANS_WRITTEN)?;

    eprintln!(
        "{}: ledger of one tick ({})",
        workload.name(),
        path.display()
    );
    for (name, l) in tracer.ledger() {
        eprintln!(
            "  {name:<34} count {:>8}  total {:>12.3} ms  self {:>12.3} ms",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    let accounted = layers["ledger.accounted_frac"];
    eprintln!(
        "  tick {:.2} us, accounted {:.2} us ({accounted:.3}), layers this workload stresses {:.3}, \
         tracing overhead {:.3}",
        layers["ledger.tick_us"],
        layers["ledger.accounted_us"],
        layers["ledger.workload_layers_frac"],
        layers["trace.overhead_frac"],
    );
    if accounted < ACCOUNTED_FLOOR {
        eprintln!(
            "  FINDING: {:.0} % of the tick is in no measured layer",
            (1.0 - accounted) * 100.0
        );
    }
    if !ok {
        eprintln!("kalstream-benchmark: a traced replay's end state differs from the reference");
        run.summary.correct = false;
    }
    Ok(run.summary.per_layer(&layers))
}
