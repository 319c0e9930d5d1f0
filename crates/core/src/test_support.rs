//! Fixtures shared by this crate's ingest test modules.

use kalstream_filter::models;
use kalstream_linalg::Vector;
use kalstream_sim::{Consumer, IngestStream, Producer};

use crate::frame::{FrameBatch, FrameDecoder};
use crate::ingest::TickIngest;
use crate::{EndpointState, ProtocolConfig, ServerEndpoint, SessionSpec, StreamSession};

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

/// `streams` adaptive default-scalar sessions with acks and
/// `ack_timeout = 6`, each source an [`IngestStream`] on its own
/// pseudo-random walk, and the servers. Under loss, every timeout resync
/// is a Model sync carrying the source's own adapted noise.
pub(crate) fn acked_fleet(
    streams: u32,
) -> (Vec<IngestStream<'static>>, Vec<(u32, ServerEndpoint)>) {
    let config = || {
        ProtocolConfig::new(0.3)
            .unwrap()
            .with_ack_timeout(6)
            .unwrap()
    };
    let mut sources = Vec::new();
    let mut servers = Vec::new();
    for id in 0..streams {
        let StreamSession { source, server } =
            SessionSpec::default_scalar(0.0, config()).unwrap().build();
        servers.push((id, server));
        let mut v = 0.0f64;
        let sampler = move |obs: &mut [f64], tru: &mut [f64]| {
            v += ((v * 12.9898 + id as f64).sin() * 43758.5453).fract() * 0.4 - 0.2;
            obs[0] = v;
            tru[0] = v;
        };
        sources.push(IngestStream {
            stream_id: id,
            producer: Box::new(source),
            sampler: Box::new(sampler),
        });
    }
    (sources, servers)
}

/// A [`TickIngest`] that keeps every tick it forwards.
pub(crate) struct Recording<I> {
    pub(crate) inner: I,
    pub(crate) log: Vec<Vec<u8>>,
}

impl<I: TickIngest> TickIngest for Recording<I> {
    fn ingest_tick(&mut self, wire: &[u8]) {
        self.log.push(wire.to_vec());
        self.inner.ingest_tick(wire);
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
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
/// No lanes and no tick flag. Endpoints come back sorted by id.
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
                if let Some(sync) = ep.protocol.admit_view(msg) {
                    ep.apply_view(sync);
                }
            }
        });
    }
    endpoints
}

/// Asserts two endpoint sets end identical, bit for bit: ids, and per
/// stream everything [`ServerEndpoint::state`] captures (see
/// [`assert_same_states`]). An endpoint an ingest shard rebuilds from its
/// protocol half and its lane must match the oracle's in all of it.
pub(crate) fn assert_same_endpoints(
    a: &[(u32, ServerEndpoint)],
    b: &[(u32, ServerEndpoint)],
    what: &str,
) {
    let states = |eps: &[(u32, ServerEndpoint)]| -> Vec<(u32, EndpointState)> {
        eps.iter().map(|(id, ep)| (*id, ep.state())).collect()
    };
    assert_same_states(&states(a), &states(b), what);
}

/// Asserts two captured state sets are identical, bit for bit: ids, the
/// model's name and `F`, `Q`, `H`, `R`, the filter's `x`, `P`, staleness
/// and covariance form, and the protocol half's sequence, feedback due and
/// counters.
pub(crate) fn assert_same_states(
    a: &[(u32, EndpointState)],
    b: &[(u32, EndpointState)],
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: stream count");
    for ((id_a, sa), (id_b, sb)) in a.iter().zip(b.iter()) {
        assert_eq!(id_a, id_b, "{what}");
        assert_eq!(state_bits(sa), state_bits(sb), "{what}: stream {id_a}");
    }
}

/// A captured state with every float as its bits.
fn state_bits(s: &EndpointState) -> impl PartialEq + std::fmt::Debug {
    let m = &s.model;
    let floats: Vec<u64> = [m.f(), m.q(), m.h(), m.r(), &s.p]
        .into_iter()
        .flat_map(|mat| mat.as_slice())
        .chain(s.x.as_slice())
        .map(|v| v.to_bits())
        .collect();
    (
        (
            m.name().to_owned(),
            floats,
            s.steps_since_update,
            s.cov_update,
        ),
        (s.syncs_applied, s.decode_failures, s.predict_failures),
        (s.last_seq, s.ack_due, s.bound_due.map(f64::to_bits)),
        (s.bounds_sent, s.delivery),
    )
}

/// Polls every endpoint's feedback until none is due — what an engine with
/// a feedback channel has done by the end of a run, for comparing it with
/// one that never polls.
pub(crate) fn poll_dry(endpoints: &mut [(u32, ServerEndpoint)]) {
    for (_, ep) in endpoints {
        while ep.poll_feedback(0).is_some() {}
    }
}
