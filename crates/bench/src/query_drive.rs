//! The lockstep loop the `exp_q*` binaries share: a live endpoint fleet
//! under one [`QueryGraph`], every answer verified every tick.

use kalstream_core::{ServerEndpoint, SourceEndpoint};
use kalstream_query::{QueryGraph, StreamView};
use kalstream_sim::{run_lockstep, FleetReport, LockstepStream, SessionConfig, Tick};

/// One scalar stream of a query experiment's fleet.
pub type QueryStream<'a> = LockstepStream<'a, SourceEndpoint, ServerEndpoint>;

/// Runs `streams` (stream `i` is raw stream `i` of `graph`) in lockstep.
/// Each tick the graph observes the server estimates and verifies them
/// against the observed signal; then `steer` may read answers and push
/// bound directives.
///
/// Views carry the delta that *governed* the tick's send decision: the
/// value `producer.delta()` held at the end of the previous tick. A
/// directive pushed at tick `t` is polled at `t + 1`, after that tick's
/// decision, so it is in force from `t + 2` — serving answers against the
/// in-force delta is what keeps verification sound while bounds move.
pub fn drive_graph<'a>(
    config: &SessionConfig,
    streams: &mut [QueryStream<'a>],
    graph: &mut QueryGraph,
    mut steer: impl FnMut(Tick, &mut QueryGraph, &mut [QueryStream<'a>]),
) -> FleetReport {
    let mut deltas_in_force: Vec<f64> = streams.iter().map(|s| s.producer.delta()).collect();
    run_lockstep(config, streams, |now, tick, streams| {
        let views: Vec<StreamView> = streams
            .iter()
            .zip(tick.estimates)
            .zip(&deltas_in_force)
            .map(|((stream, estimate), &delta)| StreamView {
                value: estimate[0],
                delta,
                staleness: stream.consumer.staleness(),
            })
            .collect();
        let variances: Vec<f64> = tick.variances.iter().map(|v| v.unwrap_or(0.0)).collect();
        graph.observe_tick(&views, &variances);
        let truth: Vec<f64> = tick.observed.iter().map(|o| o[0]).collect();
        graph.verify_tick(&truth);
        steer(now, graph, streams);
        for (slot, stream) in deltas_in_force.iter_mut().zip(streams.iter()) {
            *slot = stream.producer.delta();
        }
    })
}
