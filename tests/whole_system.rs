//! Integration: the whole system in one loop — a fleet of live protocol
//! sessions, the closed-loop controller re-allocating precision under a
//! message budget, and a query graph answering continuous queries, tick by
//! tick, with every guarantee checked.

use std::collections::HashMap;

use kalstream::core::{FleetController, ProtocolConfig, SessionSpec, StreamDemand};
use kalstream::gen::{synthetic::RandomWalk, Stream};
use kalstream::query::{AggKind, QueryGraph, StreamId, StreamView};
use kalstream::sim::{Consumer, Producer};

const STREAMS: usize = 6;
const TICKS: u64 = 12_000;
const BUDGET: f64 = 1.5; // messages/tick fleet-wide
const CONTROL_PERIOD: u64 = 1_000;

#[test]
fn fleet_controller_queries_and_guarantees_compose() {
    // Heterogeneous fleet: volatilities spanning 100×.
    let mut streams: Vec<RandomWalk> = (0..STREAMS)
        .map(|i| {
            let sigma = 0.02 * (100.0f64).powf(i as f64 / (STREAMS - 1) as f64);
            RandomWalk::new(0.0, 0.0, sigma, 0.01, 700 + i as u64)
        })
        .collect();
    let mut endpoints: Vec<_> = (0..STREAMS)
        .map(|_| {
            SessionSpec::default_scalar(0.0, ProtocolConfig::new(1.0).unwrap())
                .unwrap()
                .build()
                .split()
        })
        .collect();
    let mut controller = FleetController::new(STREAMS, CONTROL_PERIOD, BUDGET).unwrap();

    // Per-stream points plus a fleet AVG. (The point bounds are
    // deliberately loose so the controller owns the effective per-stream
    // precision.)
    let mut graph = QueryGraph::new();
    let raws: Vec<String> = (0..STREAMS).map(|i| format!("s{i}")).collect();
    for (i, raw) in raws.iter().enumerate() {
        graph.add_raw(raw, StreamId(i)).unwrap();
    }
    graph.add_point("p0", "s0", 50.0).unwrap();
    graph.add_point("p5", "s5", 50.0).unwrap();
    let members: Vec<&str> = raws.iter().map(String::as_str).collect();
    graph
        .add_aggregate("avg", AggKind::Avg, &members, Some(50.0))
        .unwrap();

    let mut obs = [0.0];
    let mut tru = [0.0];
    let mut control_rounds = 0;
    let mut per_tick_violations = 0u64;
    let mut views = Vec::with_capacity(STREAMS);
    for now in 0..TICKS {
        let mut observations = [0.0; STREAMS];
        views.clear();
        for (i, (stream, (source, server))) in
            streams.iter_mut().zip(endpoints.iter_mut()).enumerate()
        {
            stream.next_into(&mut obs, &mut tru);
            observations[i] = obs[0];
            if let Some(payload) = source.observe(now, &obs) {
                server.receive(now, &payload);
            }
            let mut est = [0.0];
            server.estimate(now, &mut est);
            // Per-stream contract at the *currently assigned* bound.
            if (est[0] - obs[0]).abs() > source.delta() * (1.0 + 1e-9) + 1e-12 {
                per_tick_violations += 1;
            }
            views.push(StreamView {
                value: est[0],
                delta: source.delta(),
                staleness: server.staleness(),
            });
        }
        graph.observe_tick(&views, &[]);
        graph.verify_tick(&observations);
        // Controller round (reads live rate estimators, retunes sources).
        let mut sources_only: Vec<_> = endpoints.iter_mut().map(|(s, _)| s.clone()).collect();
        if controller.tick(&mut sources_only).is_some() {
            control_rounds += 1;
            for ((source, _), tuned) in endpoints.iter_mut().zip(sources_only.iter()) {
                source.set_delta(tuned.delta());
            }
        }

        // Query answers stay sound every tick.
        let avg = graph.answer("avg").unwrap();
        let avg_obs = observations.iter().sum::<f64>() / STREAMS as f64;
        assert!(
            (avg.value - avg_obs).abs() <= avg.bound * (1.0 + 1e-9) + 1e-12,
            "tick {now}: AVG answer {} ± {} vs true {avg_obs}",
            avg.value,
            avg.bound
        );
    }

    assert_eq!(per_tick_violations, 0, "a per-stream contract was violated");
    assert_eq!(graph.violations(), 0, "a query answer left its bound");
    // Not vacuous: the fleet AVG was checked against the truth every tick.
    assert_eq!(
        graph.node_coverage("avg").map(|(_, checked)| checked),
        Some(TICKS)
    );
    assert!(
        control_rounds >= TICKS / CONTROL_PERIOD - 1,
        "controller barely ran"
    );

    // The controller differentiated the fleet: the calm extreme holds a
    // (much) tighter bound than the wild extreme.
    let calm_delta = endpoints[0].0.delta();
    let wild_delta = endpoints[STREAMS - 1].0.delta();
    assert!(
        calm_delta < wild_delta,
        "calm {calm_delta} should be tighter than wild {wild_delta}"
    );

    // And the fleet spend is in the budget's neighbourhood (rate curves are
    // estimates; allow 2×).
    let total_msgs: u64 = endpoints.iter().map(|(s, _)| s.syncs()).sum();
    let rate = total_msgs as f64 / TICKS as f64;
    assert!(
        rate < 2.0 * BUDGET,
        "fleet rate {rate} far above budget {BUDGET}"
    );
}

#[test]
fn demands_snapshot_matches_controller_view() {
    // The demands the controller would build equal StreamDemand::new over
    // the public rate-estimator samples — no hidden state.
    let (mut source, _server) = SessionSpec::default_scalar(0.0, ProtocolConfig::new(0.5).unwrap())
        .unwrap()
        .build()
        .split();
    for t in 0..300u64 {
        source.decide(&[(t as f64 * 0.2).sin()]);
    }
    let samples = source.rate_estimator().samples();
    let demand = StreamDemand::new(samples.clone(), 1.0).unwrap();
    // The demand's exceedance matches a direct count over the samples.
    for delta in [0.0, 0.1, 0.5, 2.0] {
        let direct = samples.iter().filter(|&&s| s > delta).count() as f64 / samples.len() as f64;
        assert!((demand.rate_at(delta) - direct).abs() < 1e-12);
    }
    let _ = HashMap::<StreamId, StreamDemand>::new(); // registry-compatible type
}
