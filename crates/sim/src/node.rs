//! Endpoint traits implemented by suppression protocols and baselines.

use bytes::Bytes;

use crate::metrics::DeliveryStats;
use crate::Tick;

/// The source-side endpoint: sees every raw observation, decides what (if
/// anything) to put on the wire.
///
/// A ship-everything baseline returns `Some(sample)` every tick; the
/// dual-Kalman protocol returns `Some(correction)` only when its shadow of
/// the server's prediction drifts past the precision bound.
pub trait Producer {
    /// Stream dimensionality this producer expects.
    fn dim(&self) -> usize;

    /// Called exactly once per tick with the new observation. Returning
    /// `Some(payload)` transmits one message (the simulator charges its
    /// bytes); `None` suppresses.
    fn observe(&mut self, now: Tick, observed: &[f64]) -> Option<Bytes>;

    /// Called for every message delivered on the reverse (server→source)
    /// channel — acknowledgements in the loss-tolerant protocol. The default
    /// ignores feedback, so fire-and-forget producers need no changes.
    fn feedback(&mut self, now: Tick, payload: &Bytes) {
        let _ = (now, payload);
    }
}

/// The server-side endpoint: consumes wire messages, answers value queries.
pub trait Consumer {
    /// Stream dimensionality this consumer serves.
    fn dim(&self) -> usize;

    /// Called for every delivered message, in delivery order.
    fn receive(&mut self, now: Tick, payload: &Bytes);

    /// Called once per tick *after* deliveries: writes the server's current
    /// best estimate of the stream value into `out` (length [`Consumer::dim`]).
    ///
    /// Taking `&mut self` lets prediction-based consumers advance their
    /// internal clock (one filter predict per tick) as a side effect.
    fn estimate(&mut self, now: Tick, out: &mut [f64]);

    /// Called after [`Consumer::estimate`] each tick, repeatedly until it
    /// returns `None`: each `Some(payload)` is sent on the reverse
    /// (server→source) channel. The default produces no feedback, so
    /// fire-and-forget consumers need no changes.
    fn poll_feedback(&mut self, now: Tick) -> Option<Bytes> {
        let _ = now;
        None
    }

    /// Receiver-side delivery accounting for the sequenced protocol. The
    /// default (all zeros) suits consumers without sequence tracking.
    fn delivery_stats(&self) -> DeliveryStats {
        DeliveryStats::default()
    }

    /// Predictive variance of the estimate written by the most recent
    /// [`Consumer::estimate`] call (first measurement component), when the
    /// consumer maintains one — model-based consumers expose their Kalman
    /// innovation covariance here so query layers can serve distributional
    /// answers. The default (`None`) suits value-cache consumers that track
    /// no uncertainty.
    fn served_variance(&self) -> Option<f64> {
        None
    }
}

/// A borrowed producer drives like an owned one ([`crate::Session::run`]).
impl<P: Producer + ?Sized> Producer for &mut P {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn observe(&mut self, now: Tick, observed: &[f64]) -> Option<Bytes> {
        (**self).observe(now, observed)
    }
    fn feedback(&mut self, now: Tick, payload: &Bytes) {
        (**self).feedback(now, payload);
    }
}

/// A borrowed consumer serves like an owned one.
impl<C: Consumer + ?Sized> Consumer for &mut C {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn receive(&mut self, now: Tick, payload: &Bytes) {
        (**self).receive(now, payload);
    }
    fn estimate(&mut self, now: Tick, out: &mut [f64]) {
        (**self).estimate(now, out);
    }
    fn poll_feedback(&mut self, now: Tick) -> Option<Bytes> {
        (**self).poll_feedback(now)
    }
    fn delivery_stats(&self) -> DeliveryStats {
        (**self).delivery_stats()
    }
    fn served_variance(&self) -> Option<f64> {
        (**self).served_variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial pair: producer ships every sample, consumer echoes the last.
    struct ShipAll;
    struct Echo {
        last: f64,
    }

    impl Producer for ShipAll {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, _now: Tick, observed: &[f64]) -> Option<Bytes> {
            Some(Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
    }

    impl Consumer for Echo {
        fn dim(&self) -> usize {
            1
        }
        fn receive(&mut self, _now: Tick, payload: &Bytes) {
            let mut b = [0u8; 8];
            b.copy_from_slice(payload);
            self.last = f64::from_le_bytes(b);
        }
        fn estimate(&mut self, _now: Tick, out: &mut [f64]) {
            out[0] = self.last;
        }
    }

    #[test]
    fn endpoints_roundtrip_a_value() {
        let mut p = ShipAll;
        let mut c = Echo { last: 0.0 };
        let payload = p.observe(0, &[42.5]).unwrap();
        c.receive(0, &payload);
        let mut out = [0.0];
        c.estimate(0, &mut out);
        assert_eq!(out[0], 42.5);
    }
}
