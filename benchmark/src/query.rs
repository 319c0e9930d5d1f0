//! The `query_graph` workload: a lockstep fleet of matched random walks
//! under a three-tier [`QueryGraph`] with punctuation feedback — the only
//! workload in which the server steers its sources (`Bound` directives).
//!
//! Scaled up from `exp_q3_query_graph`: fourteen families of overlapping
//! group averages (every stream starts a group of 3, 4, … 16 neighbours),
//! an alert per group, region averages over the groups, a tumbling pane per
//! region, one fleet average. Derived nodes outnumber raw streams 31 : 1,
//! which is what it takes for `QueryGraph` — not the filters — to be more
//! than half of a tick.

use std::cell::Cell;
use std::time::Instant;

use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream_filter::models;
use kalstream_gen::{synthetic::RandomWalk, Stream};
use kalstream_linalg::Vector;
use kalstream_query::{AggKind, QueryGraph, StreamId, StreamView};
use kalstream_sim::{run_lockstep, LockstepStream, SessionConfig};

use crate::fleet::{stream_seed, warmup_ticks};
use crate::report::repeat_setup;
use crate::trace::Tracer;

/// Distinct volatilities cycling through the fleet (as in Q3: a 10×
/// spread within every six neighbours).
const VOLATILITIES: usize = 6;
/// One family of overlapping groups per width: every stream starts a
/// group of that many neighbours. The count of families is what makes the
/// graph, not the filters, most of a tick (see `query.graph.share`).
const GROUP_WIDTHS: [usize; 14] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
/// Groups per region.
const REGION: usize = 8;
const PANE: usize = 64;
const SIGMA_V: f64 = 0.02;
const DELTA_FLOOR: f64 = 1e-4;
/// Directives are floored to `FLOOR · RATIO^n`: one ships only when a grant
/// crosses a grid level, and the pushed delta never exceeds the grant.
const GRID_RATIO: f64 = 1.25;
const LEVEL: f64 = 0.95;
/// Frame header bytes the links charge per message, as on the socket.
const OVERHEAD_BYTES: usize = 8;

const GROUP_CONTRACT: f64 = 0.6;
const REGION_CONTRACT: f64 = 0.7;
const FLEET_CONTRACT: f64 = 0.8;
const PANE_CONTRACT: f64 = 0.3;
/// `(threshold, margin)` of the group alerts, cycled over the families.
const ALERTS: [(f64, f64); 2] = [(2.5, 0.08), (3.0, 0.05)];

fn sigma_w(i: usize) -> f64 {
    0.02 * 10.0f64.powf((i % VOLATILITIES) as f64 / (VOLATILITIES - 1) as f64)
}

/// Registers the graph over `streams` raw streams.
fn build_graph(streams: usize) -> QueryGraph {
    let mut g = QueryGraph::new();
    let raw: Vec<String> = (0..streams).map(|i| format!("s{i}")).collect();
    for (i, id) in raw.iter().enumerate() {
        g.add_raw(id, StreamId(i)).expect("fresh raw id");
    }
    let mut regions: Vec<String> = Vec::new();
    for (family, &width) in GROUP_WIDTHS.iter().enumerate() {
        // One group per stream: the `width` streams starting at it, wrapping.
        let groups: Vec<String> = (0..streams).map(|k| format!("g{width}_{k}")).collect();
        let (threshold, margin) = ALERTS[family % ALERTS.len()];
        for (k, id) in groups.iter().enumerate() {
            let members: Vec<&str> = (0..width)
                .map(|m| raw[(k + m) % streams].as_str())
                .collect();
            g.add_aggregate(id, AggKind::Avg, &members, Some(GROUP_CONTRACT))
                .expect("group average");
            g.add_alert(&format!("{id}_alert"), id, threshold, margin)
                .expect("group alert");
        }
        for (j, members) in groups.chunks(REGION).enumerate() {
            let id = format!("g{width}_region{j}");
            let members: Vec<&str> = members.iter().map(String::as_str).collect();
            g.add_aggregate(&id, AggKind::Avg, &members, Some(REGION_CONTRACT))
                .expect("region average");
            g.add_tumbling_avg(&format!("{id}_pane"), &id, PANE, PANE_CONTRACT)
                .expect("region pane");
            regions.push(id);
        }
    }
    let regions: Vec<&str> = regions.iter().map(String::as_str).collect();
    g.add_aggregate("fleet", AggKind::Avg, &regions, Some(FLEET_CONTRACT))
        .expect("fleet average");
    g.set_level(LEVEL);
    g.set_feedback(true);
    g
}

/// Floors a grant to the directive grid (never above the grant, never
/// below the floor).
fn grid_floor(d: f64) -> f64 {
    if d <= DELTA_FLOOR {
        return DELTA_FLOOR;
    }
    let n = ((d / DELTA_FLOOR).ln() / GRID_RATIO.ln()).floor() as i32;
    (DELTA_FLOOR * GRID_RATIO.powi(n)).min(d)
}

/// What one lockstep run produced.
pub struct QueryPass {
    /// Building the sessions and registering the graph, every time the
    /// pass did it.
    pub setup_s: Vec<f64>,
    /// First sample of a tick to `observe_tick` returning, per timed tick.
    pub fresh_ns: Vec<f64>,
    /// When each timed tick started, in nanoseconds from the first; the
    /// last entry is the end of the run.
    pub starts_ns: Vec<f64>,
    /// Wall time of the timed (post-warm-up) ticks.
    pub timed_s: f64,
    /// Syncs plus delivered `Bound` directives, and their link bytes.
    pub messages: u64,
    pub wire_bytes: u64,
    pub violations: u64,
    pub max_contract_ratio: f64,
    pub coverage: f64,
    pub relaxations: u64,
    pub directives: u64,
    pub nodes: usize,
    /// Every server filter's final state bits: what must not differ
    /// between two passes over the same seed.
    pub state_bits: Vec<u64>,
}

/// The matched walks of the fleet, stream `i` starting at precision bound
/// `start_deltas[i]`; the sampler of stream 0 stamps `tick_started`.
fn build_fleet<'a>(
    seed: u64,
    start_deltas: &[f64],
    tick_started: &'a Cell<Instant>,
) -> Vec<LockstepStream<'a, SourceEndpoint, ServerEndpoint>> {
    start_deltas
        .iter()
        .enumerate()
        .map(|(i, &delta)| {
            // The model matches the generator exactly: coverage of the 95 %
            // intervals is a calibration claim about the filter.
            let (producer, consumer) = SessionSpec::fixed(
                models::random_walk(sigma_w(i) * sigma_w(i), SIGMA_V * SIGMA_V),
                Vector::zeros(1),
                1.0,
                ProtocolConfig::new(delta).expect("valid delta"),
            )
            .expect("valid session spec")
            .build()
            .split();
            // Where a walk goes decides how often it must correct the
            // server, so the paths are the workload's (Q3's seeds) and only
            // the sensor noise on top of them is drawn from `--seed`:
            // otherwise `msgs_per_obs` differs by a quarter between seeds.
            let mut path = RandomWalk::new(0.0, 0.0, sigma_w(i), 0.0, 31_000 + i as u64);
            let mut sensor = RandomWalk::new(0.0, 0.0, 0.0, SIGMA_V, stream_seed(seed, i as u32));
            LockstepStream {
                producer,
                consumer,
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    if i == 0 {
                        tick_started.set(Instant::now());
                    }
                    let mut noise = [0.0];
                    sensor.next_into(&mut noise, tru);
                    path.next_into(obs, tru);
                    obs[0] += noise[0];
                }),
            }
        })
        .collect()
}

/// One pass: `ticks` lockstep ticks over `streams` matched walks, the graph
/// observing, verifying and re-granting deltas every tick. `tracer` gets a
/// span around each `QueryGraph` call of the post-warm-up ticks.
pub fn query_pass(seed: u64, streams: usize, ticks: u64, tracer: &mut Tracer) -> QueryPass {
    let tick_started = Cell::new(Instant::now());
    let (setup_s, (mut graph, start_deltas, mut fleet)) = repeat_setup(|| {
        let graph = build_graph(streams);
        let static_req = {
            let mut unfed = build_graph(streams);
            unfed.set_feedback(false);
            unfed.required_deltas()
        };
        let start_deltas: Vec<f64> = (0..streams)
            .map(|i| static_req[&StreamId(i)].max(DELTA_FLOOR))
            .collect();
        let fleet = build_fleet(seed, &start_deltas, &tick_started);
        (graph, start_deltas, fleet)
    });

    // The delta each stream's decision at tick t is governed by: a
    // directive pushed at t is polled at t+1 and applies from t+2.
    let mut deltas_in_force = start_deltas;
    let mut last_pushed = deltas_in_force.clone();
    let mut directives = 0u64;
    let warm = warmup_ticks(ticks);
    let mut fresh_ns = Vec::with_capacity((ticks - warm) as usize);
    let mut starts_ns = Vec::with_capacity((ticks - warm) as usize + 1);
    let mut timed_from = Instant::now();
    let mut views = vec![
        StreamView {
            value: 0.0,
            delta: 0.0,
            staleness: 0,
        };
        streams
    ];
    let mut variances = vec![0.0; streams];
    let mut truth = vec![0.0; streams];
    tracer.set_recording(false);
    let config = SessionConfig {
        overhead_bytes: OVERHEAD_BYTES,
        ..SessionConfig::instant(ticks, GROUP_CONTRACT)
    };
    let report = run_lockstep(&config, &mut fleet, |now, tick, fleet| {
        for i in 0..streams {
            views[i] = StreamView {
                value: tick.estimates[i][0],
                delta: deltas_in_force[i],
                staleness: fleet[i].consumer.staleness(),
            };
            variances[i] = tick.variances[i].unwrap_or(0.0);
            truth[i] = tick.observed[i][0];
        }
        let span = tracer.open("query.graph.observe_tick", now);
        graph.observe_tick(&views, &variances);
        tracer.close(span);
        if now >= warm {
            fresh_ns.push(tick_started.get().elapsed().as_nanos() as f64);
            // The first timed tick started a few instructions after
            // `timed_from` was taken, at the end of the hook before it.
            starts_ns.push(
                tick_started
                    .get()
                    .saturating_duration_since(timed_from)
                    .as_nanos() as f64,
            );
        }
        let span = tracer.open("query.graph.verify_tick", now);
        graph.verify_tick(&truth);
        tracer.close(span);
        let span = tracer.open("query.graph.required_deltas", now);
        let required = graph.required_deltas();
        tracer.close(span);
        let span = tracer.open("core.server.push_bound_directive", now);
        for (i, stream) in fleet.iter_mut().enumerate() {
            let Some(&grant) = required.get(&StreamId(i)) else {
                continue;
            };
            let quantized = grid_floor(grant);
            if quantized != last_pushed[i] {
                stream.consumer.push_bound_directive(quantized);
                last_pushed[i] = quantized;
                directives += 1;
            }
        }
        tracer.close(span);
        for (slot, stream) in deltas_in_force.iter_mut().zip(fleet.iter()) {
            *slot = stream.producer.delta();
        }
        if now + 1 == warm {
            timed_from = Instant::now();
            tracer.set_recording(true);
        }
    });
    let timed_s = timed_from.elapsed().as_secs_f64();
    starts_ns.push(timed_s * 1e9);
    let feedback = report.sessions.iter().map(|s| &s.ack_traffic);
    QueryPass {
        setup_s,
        fresh_ns,
        starts_ns,
        timed_s,
        messages: report.total_traffic.messages()
            + feedback.clone().map(|t| t.messages()).sum::<u64>(),
        wire_bytes: report.total_traffic.bytes() + feedback.map(|t| t.bytes()).sum::<u64>(),
        violations: graph.violations(),
        max_contract_ratio: graph.max_contract_ratio(),
        coverage: graph.coverage().unwrap_or(0.0),
        relaxations: graph.relaxations(),
        directives,
        nodes: graph.len(),
        state_bits: fleet
            .iter()
            .flat_map(|s| kalstream_net::workload::endpoint_bits(&s.consumer))
            .collect(),
    }
}
