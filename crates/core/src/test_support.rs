//! Fixtures shared by this crate's ingest test modules.

use kalstream_filter::models;
use kalstream_linalg::Vector;
use kalstream_sim::Producer;

use crate::frame::{FrameBatch, FrameDecoder};
use crate::{ProtocolConfig, ServerEndpoint, SessionSpec, StreamSession};

/// `n_cv` constant-velocity sessions (2-state) followed by `n_scalar`
/// default scalar sessions (1-state adaptive random walk) — both shapes
/// are in the batch table — plus a recorded framed log of `ticks` ticks of
/// deterministic per-stream sinusoid traffic.
pub(crate) fn record_log(
    n_cv: u32,
    n_scalar: u32,
    ticks: usize,
) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
    let specs = (0..n_cv + n_scalar)
        .map(|id| {
            let config = ProtocolConfig::new(0.25).unwrap();
            if id < n_cv {
                SessionSpec::fixed(
                    models::constant_velocity(1.0, 0.05, 0.1),
                    Vector::zeros(2),
                    1.0,
                    config,
                )
                .unwrap()
            } else {
                SessionSpec::default_scalar(0.0, config).unwrap()
            }
        })
        .collect();
    record_log_of(specs, ticks)
}

/// [`record_log`] over caller-chosen sessions; stream ids are the specs'
/// positions.
pub(crate) fn record_log_of(
    specs: Vec<SessionSpec>,
    ticks: usize,
) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
    let mut sources = Vec::new();
    let mut servers = Vec::new();
    for (id, spec) in specs.into_iter().enumerate() {
        let StreamSession { source, server } = spec.build();
        sources.push((id as u32, source));
        servers.push((id as u32, server));
    }
    let mut log = Vec::with_capacity(ticks);
    for t in 0..ticks {
        let mut batch = FrameBatch::new();
        for (id, source) in sources.iter_mut() {
            let v = (t as f64 * 0.1 + *id as f64).sin() * (1.0 + *id as f64 * 0.01);
            if let Some(payload) = source.observe(t as u64, &[v]) {
                batch.push_raw(*id, &payload);
            }
        }
        log.push(batch.as_bytes().to_vec());
    }
    (servers, log)
}

/// A filter's state and covariance as raw bits, for exact comparison.
pub(crate) fn filter_bits(ep: &ServerEndpoint) -> Vec<u64> {
    let f = ep.filter();
    f.state()
        .iter()
        .map(|v| v.to_bits())
        .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// The oracle every ingest engine is held to: each endpoint on its own
/// filter. Per tick, `ServerEndpoint::predict` on every endpoint, then each
/// frame admitted (`admit_view`) and applied (`apply_view`) where it lies.
/// No lanes, no queue and no shedding: a tick here carries fewer than
/// `PENDING_CAP` syncs per stream (the shed cases use the endpoint's own
/// queue as their oracle). Endpoints come back sorted by id.
pub(crate) fn oracle(
    mut endpoints: Vec<(u32, ServerEndpoint)>,
    log: &[Vec<u8>],
) -> Vec<(u32, ServerEndpoint)> {
    endpoints.sort_by_key(|(id, _)| *id);
    let mut decoder = FrameDecoder::new();
    for tick in log {
        endpoints.iter_mut().for_each(|(_, ep)| ep.predict());
        decoder.for_each_wire_message(tick, |id, msg| {
            if let Ok(i) = endpoints.binary_search_by_key(&id, |(id, _)| *id) {
                let ep = &mut endpoints[i].1;
                if let Some(sync) = ep.admit_view(msg) {
                    ep.apply_view(sync);
                }
            }
        });
    }
    endpoints
}

/// Asserts two endpoint sets end identical: ids, filter bits, applied
/// syncs, predict failures, staleness and delivery counters.
pub(crate) fn assert_same_endpoints(
    a: &[(u32, ServerEndpoint)],
    b: &[(u32, ServerEndpoint)],
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: stream count");
    for ((id_a, ea), (id_b, eb)) in a.iter().zip(b.iter()) {
        assert_eq!(id_a, id_b, "{what}");
        assert_eq!(filter_bits(ea), filter_bits(eb), "{what}: stream {id_a}");
        assert_eq!(ea.syncs_applied(), eb.syncs_applied(), "{what}: {id_a}");
        assert_eq!(
            ea.predict_failures(),
            eb.predict_failures(),
            "{what}: {id_a}"
        );
        assert_eq!(
            ea.filter().steps_since_update(),
            eb.filter().steps_since_update(),
            "{what}: {id_a}"
        );
        assert_eq!(ea.delivery(), eb.delivery(), "{what}: {id_a}");
    }
}
