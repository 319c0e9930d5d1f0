//! The canonical fleet workload both net binaries build independently.
//!
//! `kalstream-server` and `loadgen` are separate processes: the server
//! needs every stream's [`ServerEndpoint`] and the client needs the
//! matching [`SourceEndpoint`] producer plus sampler. They cannot hand
//! objects to each other, so both derive the pair *deterministically from
//! the stream id alone* — same spec, same first sample, same seeds — and
//! the protocol keeps the two ends bit-identical from there.

use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream_gen::{
    synthetic::{OrnsteinUhlenbeck, RandomWalk, Sinusoid},
    Stream,
};
use kalstream_sim::{BoxedSampler, IngestStream};

/// Precision bound per stream family (≈ one natural step of the process).
fn delta_for(id: u32) -> f64 {
    match id % 3 {
        0 => 0.5,  // random walk
        1 => 0.35, // sinusoid
        _ => 0.5,  // mean-reverting
    }
}

/// The deterministic generator for stream `id`: a three-family scalar mix.
fn make_generator(id: u32) -> Box<dyn Stream + Send> {
    let seed = 90_000 + id as u64;
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

/// Builds stream `id`'s matched endpoint pair plus its generator, primed
/// with the first sample (which seeds the filters at both ends).
fn build_stream(
    id: u32,
    ack_timeout: Option<u64>,
) -> (
    SourceEndpoint,
    ServerEndpoint,
    Box<dyn Stream + Send>,
    Vec<f64>,
) {
    let mut gen = make_generator(id);
    let first = gen.next_sample();
    let mut config = ProtocolConfig::new(delta_for(id)).expect("valid delta");
    if let Some(t) = ack_timeout {
        config = config.with_ack_timeout(t).expect("valid ack timeout");
    }
    let session = SessionSpec::default_scalar(first.observed[0], config)
        .expect("valid session spec")
        .build();
    (session.source, session.server, gen, first.observed)
}

/// Server side of the canonical workload: `(id, endpoint)` pairs for ids
/// `0..n`, ready for [`kalstream_core::IngestPipeline`].
pub fn server_endpoints(n: u32) -> Vec<(u32, ServerEndpoint)> {
    (0..n).map(|id| (id, build_stream(id, None).1)).collect()
}

/// [`server_endpoints`] with ack-based loss recovery enabled — every sync
/// is sequenced and acknowledged.
pub fn server_endpoints_acked(n: u32, ack_timeout: u64) -> Vec<(u32, ServerEndpoint)> {
    (0..n)
        .map(|id| (id, build_stream(id, Some(ack_timeout)).1))
        .collect()
}

/// Source side of the canonical workload: ingest streams for `ids`, each
/// replaying its first (endpoint-seeding) sample on tick 0.
pub fn source_streams(ids: &[u32]) -> Vec<IngestStream<'static>> {
    sources(ids, None)
        .into_iter()
        .map(|(stream_id, source, sampler)| IngestStream {
            stream_id,
            producer: Box::new(source),
            sampler,
        })
        .collect()
}

/// What [`source_streams`] boxes into each [`IngestStream`], unboxed —
/// `(id, source, sampler)` — so a caller can read every source endpoint
/// after a run (resyncs, acked seq). `ack_timeout` enables ack-based loss
/// recovery, matching [`server_endpoints_acked`].
pub fn sources(
    ids: &[u32],
    ack_timeout: Option<u64>,
) -> Vec<(u32, SourceEndpoint, BoxedSampler<'static>)> {
    ids.iter()
        .map(|&id| {
            let (source, _, mut gen, first) = build_stream(id, ack_timeout);
            let dim = gen.dim();
            let mut first_pending = Some(first);
            let sampler: BoxedSampler<'static> =
                Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    if let Some(f) = first_pending.take() {
                        obs[..dim].copy_from_slice(&f);
                        tru[..dim].copy_from_slice(&f);
                    } else {
                        gen.next_into(obs, tru);
                    }
                });
            (id, source, sampler)
        })
        .collect()
}

/// Every bit of one server endpoint's filter — the model's name, `F`,
/// `Q`, `H` and `R`, the state, the covariance, the staleness and the
/// covariance form — the currency of the bit-identity gates. An ingest
/// shard hands its filters back rebuilt from their lanes, so a wrongly
/// rebuilt model shows here as surely as a drifted state.
pub fn endpoint_bits(ep: &ServerEndpoint) -> Vec<u64> {
    let f = ep.filter();
    let m = f.model();
    let name = m.name().bytes().map(u64::from);
    let floats = [m.f(), m.q(), m.h(), m.r(), f.covariance()]
        .into_iter()
        .flat_map(|mat| mat.as_slice())
        .chain(f.state().as_slice())
        .map(|v| v.to_bits());
    let form = f.covariance_update() as u64;
    std::iter::once(m.name().len() as u64)
        .chain(name)
        .chain(floats)
        .chain([f.steps_since_update(), form])
        .collect()
}

/// Every endpoint's [`endpoint_bits`], by stream id — what a recovered or
/// resized fleet must reproduce, whatever its message totals.
pub fn fleet_bits(result: &kalstream_core::IngestResult) -> Vec<(u32, Vec<u64>)> {
    let endpoints = result.endpoints.iter();
    endpoints.map(|(id, ep)| (*id, endpoint_bits(ep))).collect()
}

/// Bit-identity between two ingest outcomes: same applied messages, same
/// stream set, and per stream the same sync count and filter bits.
pub fn ingest_identical(
    a: &kalstream_core::IngestResult,
    b: &kalstream_core::IngestResult,
) -> bool {
    a.total_messages() == b.total_messages()
        && a.endpoints.len() == b.endpoints.len()
        && a.endpoints
            .iter()
            .zip(b.endpoints.iter())
            .all(|((ia, ea), (ib, eb))| {
                ia == ib
                    && ea.syncs_applied() == eb.syncs_applied()
                    && endpoint_bits(ea) == endpoint_bits(eb)
            })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_derive_the_same_fleet() {
        // The server's endpoint for id i must be the endpoint the source's
        // producer shadows — run a few ticks sequentially and check the
        // protocol holds (no violations ⇒ the pair really is matched).
        let mut streams = source_streams(&[0, 1, 2, 3, 4, 5]);
        let endpoints = server_endpoints(6);
        let mut sink =
            kalstream_core::FramingSink::new(kalstream_core::SequentialIngest::new(endpoints));
        let report = kalstream_sim::run_fleet_ingest(
            &mut streams,
            64,
            8,
            kalstream_sim::LinkFaults::default(),
            &mut sink,
        );
        assert_eq!(report.ticks, 64);
        assert!(report.total_traffic.messages() > 0);
        let result = sink.into_inner().finish();
        assert_eq!(result.shards[0].ticks, 64);
        assert!(result.total_messages() > 0);
    }
}
