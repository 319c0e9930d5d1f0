//! The producer↔consumer transport seam.
//!
//! Everything a session needs from "the network" is four data movements —
//! forward payloads out, forward payloads in, feedback out, feedback in —
//! plus tick/lifecycle hooks and traffic accounting. [`Transport`] names
//! exactly that seam, so the same protocol endpoints can run over:
//!
//! * [`SimTransport`] — the deterministic in-process pair of [`Link`]s this
//!   crate has always modelled (latency, seeded fault injection, exact
//!   byte accounting). Every recorded experiment runs here.
//! * `kalstream-net`'s TCP transport — real sockets, real backpressure,
//!   the same wire-v3 frames. Bit-identity tests drive both from one
//!   schedule and assert identical consumer state.
//!
//! The trait is deliberately tick-oriented rather than future-oriented:
//! the protocol's precision guarantee is stated per tick, so even a real
//! socket implementation surfaces deliveries at tick granularity
//! ([`Transport::recv`] drains whatever the wire has produced for tick
//! `now`). Implementations own their clocking — the sim decides delivery
//! from `deliver_at`, a socket from what has actually arrived.

use bytes::Bytes;

use crate::{
    metrics::{FaultCounters, TrafficMetrics},
    Link, LinkFaults, Tick,
};

/// Seed offset deriving the reverse (feedback) link's RNG from the forward
/// seed, so the two directions draw independent fault schedules. Public so
/// that out-of-crate transports replicating the sim's fault schedule (the
/// net crate's bit-identity harness) derive identical reverse-link draws.
pub const ACK_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Traffic snapshot of one transport: both directions plus forward-path
/// fault injections (the direction the precision contract cares about).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportStats {
    /// Source→server traffic (what [`crate::SessionReport::traffic`] records).
    pub forward: TrafficMetrics,
    /// Server→source traffic (acks and bound directives).
    pub feedback: TrafficMetrics,
    /// Fault injections on the forward path (drops, dups, reorders).
    pub faults: FaultCounters,
}

/// A bidirectional producer↔consumer message channel at tick granularity.
///
/// Ordering contract, load-bearing for bit-identity across implementations:
/// within one direction, payloads surface in delivery order (send order for
/// a reliable transport); [`Transport::recv`] at tick `now` yields *every*
/// payload due at or before `now`, exactly once.
pub trait Transport {
    /// Queues one forward payload from `stream_id` at tick `now`.
    fn send(&mut self, now: Tick, stream_id: u32, payload: Bytes);

    /// Surfaces every forward payload due at `now` into `sink`, in
    /// delivery order.
    fn recv(&mut self, now: Tick, sink: &mut dyn FnMut(u32, Bytes));

    /// Queues one feedback payload (ack / bound directive) for `stream_id`
    /// at tick `now`.
    fn send_feedback(&mut self, now: Tick, stream_id: u32, payload: Bytes);

    /// Surfaces every feedback payload due at `now` into `sink`, in
    /// delivery order.
    fn recv_feedback(&mut self, now: Tick, sink: &mut dyn FnMut(u32, Bytes));

    /// Tick boundary: implementations that batch (a socket transport
    /// assembling frames) flush here. The sim delivers eagerly, so the
    /// default is a no-op.
    fn end_tick(&mut self, _now: Tick) {}

    /// Graceful teardown: drain queued traffic and release the channel.
    /// In-process transports have nothing to release.
    fn shutdown(&mut self) {}

    /// Accumulated traffic/fault accounting.
    fn stats(&self) -> TransportStats;
}

/// The deterministic in-process transport: a forward [`Link`] and a reverse
/// [`Link`] whose fault RNG seeds from the forward seed via
/// [`ACK_SEED_OFFSET`] — exactly the pair [`crate::Session::run`] has
/// always constructed, now behind the trait.
#[derive(Debug, Clone)]
pub struct SimTransport {
    forward: Link,
    feedback: Link,
}

impl SimTransport {
    /// A reliable transport with `latency` ticks of delay and
    /// `overhead_bytes` of per-message framing in both directions.
    pub fn new(latency: Tick, overhead_bytes: usize) -> Self {
        SimTransport::with_faults(latency, overhead_bytes, LinkFaults::default())
    }

    /// A transport with the given forward fault profile; the reverse link
    /// carries the same profile with its seed xor'd by [`ACK_SEED_OFFSET`].
    ///
    /// # Panics
    /// Panics when any fault probability is outside `[0, 1)`.
    pub fn with_faults(latency: Tick, overhead_bytes: usize, faults: LinkFaults) -> Self {
        SimTransport {
            forward: Link::with_faults(latency, overhead_bytes, faults),
            feedback: Link::with_faults(
                latency,
                overhead_bytes,
                LinkFaults {
                    seed: faults.seed ^ ACK_SEED_OFFSET,
                    ..faults
                },
            ),
        }
    }
}

impl Transport for SimTransport {
    fn send(&mut self, now: Tick, stream_id: u32, payload: Bytes) {
        self.forward.send_tagged(now, stream_id, payload);
    }

    fn recv(&mut self, now: Tick, sink: &mut dyn FnMut(u32, Bytes)) {
        // The deliver iterator borrows the link only, so a sink is free to
        // re-enter protocol state while it runs.
        for msg in self.forward.deliver(now) {
            sink(msg.stream_id, msg.payload);
        }
    }

    fn send_feedback(&mut self, now: Tick, stream_id: u32, payload: Bytes) {
        self.feedback.send_tagged(now, stream_id, payload);
    }

    fn recv_feedback(&mut self, now: Tick, sink: &mut dyn FnMut(u32, Bytes)) {
        for msg in self.feedback.deliver(now) {
            sink(msg.stream_id, msg.payload);
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            forward: self.forward.traffic().clone(),
            feedback: self.feedback.traffic().clone(),
            faults: self.forward.fault_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }

    #[test]
    fn forward_and_feedback_are_independent_directions() {
        let mut t = SimTransport::new(0, 0);
        t.send(0, 1, payload(b"fwd"));
        t.send_feedback(0, 1, payload(b"ack"));

        let mut fwd = Vec::new();
        t.recv(0, &mut |id, p| fwd.push((id, p)));
        assert_eq!(fwd, vec![(1, payload(b"fwd"))]);

        let mut fb = Vec::new();
        t.recv_feedback(0, &mut |id, p| fb.push((id, p)));
        assert_eq!(fb, vec![(1, payload(b"ack"))]);

        let stats = t.stats();
        assert_eq!(stats.forward.messages(), 1);
        assert_eq!(stats.feedback.messages(), 1);
    }

    #[test]
    fn latency_defers_through_the_trait() {
        let mut t = SimTransport::new(2, 0);
        t.send(0, 5, payload(b"x"));
        let mut got = 0;
        t.recv(1, &mut |_, _| got += 1);
        assert_eq!(got, 0);
        t.recv(2, &mut |id, _| {
            assert_eq!(id, 5);
            got += 1;
        });
        assert_eq!(got, 1);
    }

    #[test]
    fn faulty_transport_matches_manual_link_pair() {
        // The trait wrapper must draw the exact schedules Session::run's
        // hand-built links drew — that is what keeps recorded experiments
        // bit-identical across the refactor.
        let faults = LinkFaults::lossy(0.3, 1234);
        let mut t = SimTransport::with_faults(0, 0, faults);
        let mut fwd = Link::with_faults(0, 0, faults);
        let mut fb = Link::with_faults(
            0,
            0,
            LinkFaults {
                seed: faults.seed ^ ACK_SEED_OFFSET,
                ..faults
            },
        );
        for now in 0..500u64 {
            t.send(now, now as u32, payload(b"p"));
            t.send_feedback(now, now as u32, payload(b"q"));
            fwd.send_tagged(now, now as u32, payload(b"p"));
            fb.send_tagged(now, now as u32, payload(b"q"));
        }
        let mut via_trait = Vec::new();
        t.recv(500, &mut |id, _| via_trait.push(id));
        let manual: Vec<u32> = fwd.deliver(500).map(|m| m.stream_id).collect();
        assert_eq!(via_trait, manual);

        let mut via_trait_fb = Vec::new();
        t.recv_feedback(500, &mut |id, _| via_trait_fb.push(id));
        let manual_fb: Vec<u32> = fb.deliver(500).map(|m| m.stream_id).collect();
        assert_eq!(via_trait_fb, manual_fb);
        assert_eq!(t.stats().faults, fwd.fault_counters());
    }
}
