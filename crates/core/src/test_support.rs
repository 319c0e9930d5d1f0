//! Fixtures shared by this crate's ingest test modules.

use kalstream_filter::models;
use kalstream_linalg::Vector;
use kalstream_sim::Producer;

use crate::frame::FrameBatch;
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
