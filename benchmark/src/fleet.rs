//! The canonical fleet, the in-process loop that drives it, and the wire
//! log that loop records for the TCP workloads to replay.
//!
//! The fleet is the three-family scalar mix of `kalstream_net::workload`
//! (random walk / sinusoid / mean-reverting, δ 0.5 / 0.35 / 0.5), rebuilt
//! here so the generator seeds can derive from `--seed`.

use std::time::Instant;

use kalstream_core::{
    FrameBatch, IngestResult, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec,
    SourceEndpoint,
};
use kalstream_gen::synthetic::{OrnsteinUhlenbeck, RandomWalk, Sinusoid};
use kalstream_gen::Stream;
use kalstream_net::codec::push_marker;
use kalstream_sim::Producer;

use crate::report::repeat_setup;
use crate::trace::Tracer;

/// Connections the TCP workloads replay the log over; stream ids are split
/// into that many contiguous ranges.
pub const CONNS: usize = 2;

/// Share of a pass's ticks treated as warm-up and left out of its timings.
pub const WARMUP_FRAC: f64 = 0.1;

/// Warm-up ticks of a `ticks`-tick loop.
pub fn warmup_ticks(ticks: u64) -> u64 {
    (ticks as f64 * WARMUP_FRAC).ceil() as u64
}

/// Precision bound per stream family (about one natural step of the process).
pub fn delta_for(id: u32) -> f64 {
    match id % 3 {
        1 => 0.35, // sinusoid
        _ => 0.5,  // random walk, mean-reverting
    }
}

/// Generator seed for stream `id`: distinct per stream, and unrelated
/// between two `--seed` values.
pub fn stream_seed(seed: u64, id: u32) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (90_000 + u64::from(id))
}

fn generator(seed: u64, id: u32) -> Box<dyn Stream + Send> {
    let seed = stream_seed(seed, id);
    match id % 3 {
        0 => Box::new(RandomWalk::new(0.0, 0.0, 0.5, 0.1, seed)),
        1 => Box::new(Sinusoid::new(
            10.0,
            core::f64::consts::TAU / 200.0,
            0.0,
            0.0,
            0.2,
            seed,
        )),
        _ => Box::new(OrnsteinUhlenbeck::new(0.0, 0.1, 0.0, 0.5, 1.0, 0.1, seed)),
    }
}

/// The matched endpoint pair of stream `id`, both filters seeded with the
/// stream's first observation `x0`.
fn session(id: u32, x0: f64) -> (SourceEndpoint, ServerEndpoint) {
    let config = ProtocolConfig::new(delta_for(id)).expect("valid delta");
    SessionSpec::default_scalar(x0, config)
        .expect("valid session spec")
        .build()
        .split()
}

/// Server side of the fleet: one endpoint per first observation.
pub fn server_endpoints(first: &[f64]) -> Vec<(u32, ServerEndpoint)> {
    first
        .iter()
        .enumerate()
        .map(|(id, &x0)| (id as u32, session(id as u32, x0).1))
        .collect()
}

/// Source side of the fleet.
pub struct Sources {
    pub endpoints: Vec<SourceEndpoint>,
    pub generators: Vec<Box<dyn Stream + Send>>,
    /// First observation of every stream: what both ends' filters start
    /// from, and the observation replayed at tick 0.
    pub first: Vec<f64>,
}

impl Sources {
    pub fn build(seed: u64, streams: u32) -> (Sources, Vec<(u32, ServerEndpoint)>) {
        let mut sources = Sources {
            endpoints: Vec::with_capacity(streams as usize),
            generators: Vec::with_capacity(streams as usize),
            first: Vec::with_capacity(streams as usize),
        };
        let mut servers = Vec::with_capacity(streams as usize);
        for id in 0..streams {
            let mut gen = generator(seed, id);
            let x0 = gen.next_sample().observed[0];
            let (source, server) = session(id, x0);
            sources.endpoints.push(source);
            sources.generators.push(gen);
            sources.first.push(x0);
            servers.push((id, server));
        }
        (sources, servers)
    }

    /// Observation of stream `i` at tick `now`.
    #[inline]
    pub fn sample(&mut self, i: usize, now: u64) -> f64 {
        if now == 0 {
            return self.first[i];
        }
        let (mut observed, mut truth) = ([0.0], [0.0]);
        self.generators[i].next_into(&mut observed, &mut truth);
        observed[0]
    }
}

/// One connection's share of the recorded wire traffic: every tick's
/// frames followed by a tick marker, exactly the bytes a live source
/// connection would write after its hello.
#[derive(Default, Clone, PartialEq)]
pub struct ConnLog {
    pub ids: Vec<u32>,
    bytes: Vec<u8>,
    tick_end: Vec<usize>,
}

impl ConnLog {
    /// A log whose every tick is the same `wire` bytes.
    pub fn repeat(ids: Vec<u32>, wire: &[u8], ticks: u64) -> Self {
        ConnLog {
            ids,
            bytes: wire.repeat(ticks as usize),
            tick_end: (1..=ticks as usize).map(|t| t * wire.len()).collect(),
        }
    }

    pub fn tick(&self, t: u64) -> &[u8] {
        let t = t as usize;
        let start = if t == 0 { 0 } else { self.tick_end[t - 1] };
        &self.bytes[start..self.tick_end[t]]
    }

    /// The bytes of the first `ticks` ticks.
    pub fn prefix(&self, ticks: u64) -> &[u8] {
        &self.bytes[..self.tick_end[ticks as usize - 1]]
    }
}

/// The recorded wire log plus what a replay needs to rebuild the server
/// side and to check its end state.
pub struct Log {
    pub ticks: u64,
    pub conns: Vec<ConnLog>,
    pub first: Vec<f64>,
    /// Observation of every stream at the last tick, for the end-state
    /// δ-contract check.
    pub last_obs: Vec<f64>,
}

impl Log {
    pub fn streams(&self) -> u64 {
        self.first.len() as u64
    }

    /// One tick's frames in ingest order (all connections, markers
    /// stripped): the batch the server assembles from the sockets.
    pub fn tick_batch(&self, t: u64, out: &mut Vec<u8>) {
        out.clear();
        for conn in &self.conns {
            let wire = conn.tick(t);
            out.extend_from_slice(&wire[..wire.len() - kalstream_net::codec::MARKER_BYTES]);
        }
    }
}

/// What one run of the in-process loop produced.
pub struct InprocPass {
    /// Building both ends of the fleet, the ingester and the batch buffer,
    /// every time the pass did it.
    pub setup_s: Vec<f64>,
    /// First sample of a tick to `ingest_tick` returning, per timed tick.
    pub fresh_ns: Vec<f64>,
    /// When each timed tick started, in nanoseconds from the first; the
    /// last entry is the end of the loop.
    pub starts_ns: Vec<f64>,
    /// Wall time of the timed (post-warm-up) ticks.
    pub timed_s: f64,
    /// Sync messages and framed bytes over *all* ticks.
    pub messages: u64,
    pub wire_bytes: u64,
    pub result: IngestResult,
    pub log: Log,
}

/// The paper's core loop on one thread: sample → `SourceEndpoint::observe`
/// → `FrameBatch` → `SequentialIngest::ingest_tick`, `ticks` times over
/// `streams` streams. With `record` the framed traffic is also kept as the
/// [`Log`] the TCP workloads replay (otherwise `log.conns` stays empty).
pub fn inproc_pass(seed: u64, streams: u32, ticks: u64, record: bool) -> InprocPass {
    let (setup_s, (mut sources, mut ingest, mut batch)) = repeat_setup(|| {
        let (sources, servers) = Sources::build(seed, streams);
        let ingest = SequentialIngest::new(servers);
        (
            sources,
            ingest,
            FrameBatch::with_capacity(64 * streams as usize),
        )
    });

    let per_conn = (streams as usize).div_ceil(CONNS);
    let mut conns: Vec<ConnLog> = Vec::new();
    if record {
        conns = (0..streams)
            .collect::<Vec<u32>>()
            .chunks(per_conn)
            .map(|ids| ConnLog {
                ids: ids.to_vec(),
                ..ConnLog::default()
            })
            .collect();
    }
    let mut splits = [0usize; CONNS + 1];

    let warm = warmup_ticks(ticks);
    let mut fresh_ns = Vec::with_capacity((ticks - warm) as usize);
    let mut starts_ns = Vec::with_capacity((ticks - warm) as usize + 1);
    let mut last_obs = vec![0.0; streams as usize];
    let (mut messages, mut wire_bytes) = (0u64, 0u64);
    let mut timed_from = Instant::now();
    for now in 0..ticks {
        if now == warm {
            timed_from = Instant::now();
        }
        let tick_start = Instant::now();
        if now >= warm {
            starts_ns.push((tick_start - timed_from).as_nanos() as f64);
        }
        batch.clear();
        for i in 0..streams as usize {
            let z = sources.sample(i, now);
            last_obs[i] = z;
            if let Some(payload) = sources.endpoints[i].observe(now, &[z]) {
                batch.push_raw(i as u32, &payload);
            }
            if record && (i + 1) % per_conn == 0 {
                splits[(i + 1) / per_conn] = batch.wire_len();
            }
        }
        ingest.ingest_tick(batch.as_bytes());
        if now >= warm {
            fresh_ns.push(tick_start.elapsed().as_nanos() as f64);
        }
        messages += batch.frames() as u64;
        wire_bytes += batch.wire_len() as u64;
        if record {
            splits[conns.len()] = batch.wire_len();
            for (c, conn) in conns.iter_mut().enumerate() {
                conn.bytes
                    .extend_from_slice(&batch.as_bytes()[splits[c]..splits[c + 1]]);
                push_marker(&mut conn.bytes);
                conn.tick_end.push(conn.bytes.len());
            }
        }
    }
    let timed_s = timed_from.elapsed().as_secs_f64();
    starts_ns.push(timed_s * 1e9);
    InprocPass {
        setup_s,
        fresh_ns,
        starts_ns,
        timed_s,
        messages,
        wire_bytes,
        result: ingest.finish(),
        log: Log {
            ticks,
            conns,
            first: sources.first,
            last_obs,
        },
    }
}

/// The same loop taken apart stage by stage for the traced run, with a
/// span around every call into a layer: all streams are sampled first
/// (`gen.sample`), then observed one by one (`core.source.observe_sent` /
/// `_suppressed`), then framed (`core.frame.push_raw`), then ingested
/// (`core.ingest.seq_tick`). Only post-warm-up ticks are recorded.
pub fn inproc_traced(seed: u64, streams: u32, ticks: u64, tracer: &mut Tracer) {
    let (mut sources, servers) = Sources::build(seed, streams);
    let mut ingest = SequentialIngest::new(servers);
    let mut batch = FrameBatch::with_capacity(64 * streams as usize);
    let mut observed = vec![0.0; streams as usize];
    let mut payloads = Vec::with_capacity(streams as usize);
    let warm = warmup_ticks(ticks);
    tracer.set_recording(false);
    for now in 0..ticks {
        if now == warm {
            tracer.set_recording(true);
        }
        let tick = tracer.open("tick", now);
        let span = tracer.open("gen.sample", now);
        for (i, z) in observed.iter_mut().enumerate() {
            *z = sources.sample(i, now);
        }
        tracer.close(span);
        payloads.clear();
        for (i, &z) in observed.iter().enumerate() {
            let span = tracer.open("core.source.observe_suppressed", now);
            match sources.endpoints[i].observe(now, &[z]) {
                Some(payload) => {
                    tracer.close_as(span, "core.source.observe_sent");
                    payloads.push((i as u32, payload));
                }
                None => tracer.close(span),
            }
        }
        let span = tracer.open("core.frame.push_raw", now);
        batch.clear();
        for (id, payload) in &payloads {
            batch.push_raw(*id, payload);
        }
        tracer.close(span);
        let span = tracer.open("core.ingest.seq_tick", now);
        ingest.ingest_tick(batch.as_bytes());
        tracer.close(span);
        tracer.close(tick);
    }
}

/// Streams whose served value at the end of the run is further than δ from
/// the stream's last observation — the protocol's contract, checked on the
/// end state.
pub fn contract_misses(result: &IngestResult, last_obs: &[f64]) -> u64 {
    result
        .endpoints
        .iter()
        .filter(|(id, ep)| {
            let served = ep.filter().predicted_measurement().as_slice()[0];
            let error = (served - last_obs[*id as usize]).abs();
            // A NaN error is a miss too: only a proven bound counts.
            error.is_nan() || error > delta_for(*id) * (1.0 + 1e-12)
        })
        .count() as u64
}

/// Same streams, and per stream the same sync count and filter bits —
/// [`kalstream_net::workload::ingest_identical`] without the per-shard
/// message totals, which a state recovered from a snapshot starts over.
pub fn endpoints_identical(a: &IngestResult, b: &IngestResult) -> bool {
    use kalstream_net::workload::endpoint_bits;
    a.endpoints.len() == b.endpoints.len()
        && a.endpoints
            .iter()
            .zip(&b.endpoints)
            .all(|((ia, ea), (ib, eb))| {
                ia == ib
                    && ea.syncs_applied() == eb.syncs_applied()
                    && endpoint_bits(ea) == endpoint_bits(eb)
            })
}

/// Drops a server stage would count as failures: decode failures,
/// frames for unknown streams, and stale (duplicate / reordered) syncs.
pub fn ingest_failures(result: &IngestResult) -> u64 {
    result
        .shards
        .iter()
        .map(|s| s.decode_failures + s.unknown_streams + s.stale_drops)
        .sum()
}

/// Ticks the determinism self-check records a second time.
pub fn recheck_ticks(ticks: u64) -> u64 {
    ticks.min(256)
}

/// Records the log's first ticks again from the same seed and compares the
/// bytes: a benchmark whose inputs drift between runs measures nothing.
pub fn log_is_deterministic(seed: u64, log: &Log) -> bool {
    let ticks = recheck_ticks(log.ticks);
    let again = inproc_pass(seed, log.streams() as u32, ticks, true).log;
    again.first == log.first
        && again.conns.len() == log.conns.len()
        && again
            .conns
            .iter()
            .zip(&log.conns)
            .all(|(a, b)| a.ids == b.ids && a.prefix(ticks) == b.prefix(ticks))
}
