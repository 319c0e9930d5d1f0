//! The simulated network link with latency, fault injection, and traffic
//! accounting.

use std::collections::VecDeque;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::{
    metrics::{FaultCounters, TrafficMetrics},
    Tick,
};

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Tick at which the producer transmitted.
    pub sent_at: Tick,
    /// Tick at which the consumer receives.
    pub deliver_at: Tick,
    /// Which stream this message belongs to — the multiplexing key the
    /// ingest path shards on. Single-stream sessions leave it 0.
    pub stream_id: u32,
    /// Opaque payload (the wire encoding is the protocol's business).
    pub payload: Bytes,
}

/// Fault-injection profile of a [`Link`]: independent per-message loss,
/// duplication, reordering, and uniform delay jitter, all driven by one
/// seeded RNG so every schedule is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Independent per-message drop probability, in `[0, 1)`.
    pub loss: f64,
    /// Independent per-message duplication probability, in `[0, 1)`. The
    /// duplicate takes its own jitter draw, so copies may arrive at
    /// different ticks; the sender is charged for one message (it sent one
    /// — the network copied it).
    pub dup: f64,
    /// Independent probability, in `[0, 1)`, of pushing a message 1–2 extra
    /// ticks late so it lands behind later traffic.
    pub reorder: f64,
    /// Maximum extra delivery delay in ticks; each message draws uniformly
    /// from `0..=jitter`. Zero disables jitter.
    pub jitter: Tick,
    /// RNG seed driving every fault draw.
    pub seed: u64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            jitter: 0,
            seed: 0,
        }
    }
}

/// Seed offset giving a reverse link a fault schedule of its own.
const ACK_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

impl LinkFaults {
    /// Stream `i`'s forward-link profile in a fleet: this one, seeded
    /// `seed ^ i` (stream 0's is the profile itself).
    pub fn forward(&self, i: u64) -> LinkFaults {
        LinkFaults {
            seed: self.seed ^ i,
            ..*self
        }
    }

    /// Stream `i`'s reverse (feedback) link profile, seeded
    /// `seed ^ ACK_SEED_OFFSET ^ i`; so `forward(i).reverse(0) == reverse(i)`.
    pub fn reverse(&self, i: u64) -> LinkFaults {
        LinkFaults {
            seed: self.seed ^ ACK_SEED_OFFSET ^ i,
            ..*self
        }
    }

    /// Loss-only faults — the profile [`Link::lossy`] has always modelled.
    pub fn lossy(loss: f64, seed: u64) -> Self {
        LinkFaults {
            loss,
            seed,
            ..LinkFaults::default()
        }
    }

    /// `true` when no fault can ever fire (the link behaves reliably and
    /// skips the RNG entirely).
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0 && self.dup == 0.0 && self.reorder == 0.0 && self.jitter == 0
    }

    fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.loss),
            "loss_prob must be in [0, 1)"
        );
        assert!((0.0..1.0).contains(&self.dup), "dup_prob must be in [0, 1)");
        assert!(
            (0.0..1.0).contains(&self.reorder),
            "reorder_prob must be in [0, 1)"
        );
    }
}

/// A unidirectional link with fixed base latency, optional fault injection,
/// and FIFO-by-delivery-time ordering.
///
/// A reliable link keeps delivery order equal to send order, so the
/// `VecDeque` stays sorted by construction and delivery is O(1) amortised;
/// jitter and reordering insert at a sorted position instead. Per-message
/// overhead bytes model framing/headers so that "many small corrections" and
/// "few large syncs" are priced honestly in experiment T3.
#[derive(Debug, Clone)]
pub struct Link {
    latency: Tick,
    overhead_bytes: usize,
    /// Always sorted by `deliver_at`, ascending (ties keep insertion order).
    in_flight: VecDeque<Message>,
    traffic: TrafficMetrics,
    /// Fault profile with its RNG; `None` for a reliable link.
    faults: Option<(LinkFaults, SmallRng)>,
    counters: FaultCounters,
}

impl Link {
    /// Creates a reliable link with `latency` ticks delivery delay and
    /// `overhead_bytes` of framing charged per message.
    pub fn new(latency: Tick, overhead_bytes: usize) -> Self {
        Link {
            latency,
            overhead_bytes,
            in_flight: VecDeque::new(),
            traffic: TrafficMetrics::default(),
            faults: None,
            counters: FaultCounters::default(),
        }
    }

    /// Creates a link with the given fault-injection profile. A no-op
    /// profile yields a reliable link (no RNG is ever consulted).
    ///
    /// # Panics
    /// Panics when any probability is outside `[0, 1)`.
    pub fn with_faults(latency: Tick, overhead_bytes: usize, faults: LinkFaults) -> Self {
        faults.validate();
        let mut link = Link::new(latency, overhead_bytes);
        if !faults.is_noop() {
            link.faults = Some((faults, SmallRng::seed_from_u64(faults.seed)));
        }
        link
    }

    /// Creates a link that independently drops each message with
    /// probability `loss_prob` (deterministically, from `seed`). The sender
    /// is still charged for dropped messages — it transmitted them; the
    /// network lost them.
    ///
    /// The suppression protocol's guarantee assumes delivery; the
    /// `exp_loss_recovery` experiment measures what loss costs and how the
    /// ack-based recovery repairs it.
    ///
    /// # Panics
    /// Panics when `loss_prob ∉ [0, 1)`.
    pub fn lossy(latency: Tick, overhead_bytes: usize, loss_prob: f64, seed: u64) -> Self {
        Link::with_faults(latency, overhead_bytes, LinkFaults::lossy(loss_prob, seed))
    }

    /// Messages dropped by the link so far.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped
    }

    /// All fault counters (drops, duplicates, reorders).
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// A zero-latency link with a typical 28-byte (IP+UDP) header charge.
    pub fn instant() -> Self {
        Link::new(0, 28)
    }

    /// Link latency in ticks.
    pub fn latency(&self) -> Tick {
        self.latency
    }

    /// Accumulated traffic counters.
    pub fn traffic(&self) -> &TrafficMetrics {
        &self.traffic
    }

    /// Transmits `payload` at tick `now`; it will deliver at `now + latency`
    /// (plus any injected jitter/reorder delay) unless the link drops it.
    pub fn send(&mut self, now: Tick, payload: Bytes) {
        self.send_tagged(now, 0, payload);
    }

    /// Like [`Link::send`], tagging the message with the stream it belongs
    /// to — the multiplexed form the ingest path consumes, where one link
    /// carries frames from many sessions.
    pub fn send_tagged(&mut self, now: Tick, stream_id: u32, payload: Bytes) {
        self.traffic.record(payload.len() + self.overhead_bytes);
        let Some((f, rng)) = &mut self.faults else {
            self.in_flight.push_back(Message {
                sent_at: now,
                deliver_at: now + self.latency,
                stream_id,
                payload,
            });
            return;
        };
        // Every draw is guarded by its probability so that configurations
        // not using a fault consume no RNG values for it — a loss-only link
        // replays the exact historical draw sequence, keeping recorded
        // experiments (exp_e11_loss) bit-identical.
        if f.loss > 0.0 && rng.random::<f64>() < f.loss {
            self.counters.dropped += 1;
            return;
        }
        let mut deliver_at = now + self.latency;
        if f.jitter > 0 {
            deliver_at += rng.random::<u64>() % (f.jitter + 1);
        }
        if f.reorder > 0.0 && rng.random::<f64>() < f.reorder {
            deliver_at += 1 + rng.random::<u64>() % 2;
            self.counters.reordered += 1;
        }
        let dup_at = if f.dup > 0.0 && rng.random::<f64>() < f.dup {
            let mut at = now + self.latency;
            if f.jitter > 0 {
                at += rng.random::<u64>() % (f.jitter + 1);
            }
            Some(at)
        } else {
            None
        };
        let msg = Message {
            sent_at: now,
            deliver_at,
            stream_id,
            payload,
        };
        if let Some(at) = dup_at {
            self.counters.duplicated += 1;
            let mut dup = msg.clone();
            dup.deliver_at = at;
            // Insert the original first so that at equal delivery ticks the
            // original precedes its duplicate.
            self.insert_sorted(msg);
            self.insert_sorted(dup);
        } else {
            self.insert_sorted(msg);
        }
    }

    /// Inserts keeping `in_flight` sorted by `deliver_at`, preserving
    /// insertion order among equal ticks.
    fn insert_sorted(&mut self, msg: Message) {
        if self
            .in_flight
            .back()
            .is_none_or(|m| m.deliver_at <= msg.deliver_at)
        {
            self.in_flight.push_back(msg); // common case: already in order
            return;
        }
        let pos = self
            .in_flight
            .partition_point(|m| m.deliver_at <= msg.deliver_at);
        self.in_flight.insert(pos, msg);
    }

    /// Pops every message due at or before `now`, in delivery order.
    pub fn deliver(&mut self, now: Tick) -> impl Iterator<Item = Message> + '_ {
        std::iter::from_fn(move || {
            if self.in_flight.front().is_some_and(|m| m.deliver_at <= now) {
                self.in_flight.pop_front()
            } else {
                None
            }
        })
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    #[test]
    fn zero_latency_delivers_same_tick() {
        let mut link = Link::new(0, 0);
        link.send(5, payload(8));
        let got: Vec<_> = link.deliver(5).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].sent_at, 5);
        assert_eq!(got[0].deliver_at, 5);
    }

    #[test]
    fn latency_defers_delivery() {
        let mut link = Link::new(3, 0);
        link.send(10, payload(8));
        assert_eq!(link.deliver(10).count(), 0);
        assert_eq!(link.deliver(12).count(), 0);
        assert_eq!(link.in_flight(), 1);
        assert_eq!(link.deliver(13).count(), 1);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut link = Link::new(1, 0);
        link.send(0, Bytes::from_static(b"a"));
        link.send(0, Bytes::from_static(b"b"));
        link.send(1, Bytes::from_static(b"c"));
        let got: Vec<_> = link.deliver(2).map(|m| m.payload).collect();
        assert_eq!(
            got,
            vec![
                Bytes::from_static(b"a"),
                Bytes::from_static(b"b"),
                Bytes::from_static(b"c")
            ]
        );
    }

    #[test]
    fn tagged_sends_carry_their_stream_id() {
        let mut link = Link::new(0, 0);
        link.send_tagged(0, 42, payload(4));
        link.send(0, payload(4)); // untagged defaults to stream 0
        let ids: Vec<u32> = link.deliver(0).map(|m| m.stream_id).collect();
        assert_eq!(ids, vec![42, 0]);
    }

    #[test]
    fn traffic_counts_messages_and_bytes_with_overhead() {
        let mut link = Link::new(0, 28);
        link.send(0, payload(10));
        link.send(1, payload(20));
        assert_eq!(link.traffic().messages(), 2);
        assert_eq!(link.traffic().bytes(), 10 + 20 + 2 * 28);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let run = || {
            let mut link = Link::lossy(0, 0, 0.5, 99);
            for t in 0..1000 {
                link.send(t, payload(1));
            }
            let delivered = link.deliver(1000).count();
            (delivered, link.dropped())
        };
        let (delivered, dropped) = run();
        assert_eq!(delivered as u64 + dropped, 1000);
        // ~50% drop rate, and the sender is charged for all 1000.
        assert!(dropped > 350 && dropped < 650, "dropped {dropped}");
        assert_eq!(
            run(),
            (delivered, dropped),
            "loss must be deterministic per seed"
        );
    }

    #[test]
    fn zero_loss_prob_is_reliable() {
        let mut link = Link::lossy(0, 0, 0.0, 1);
        for t in 0..100 {
            link.send(t, payload(1));
        }
        assert_eq!(link.deliver(100).count(), 100);
        assert_eq!(link.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "loss_prob")]
    fn invalid_loss_prob_rejected() {
        let _ = Link::lossy(0, 0, 1.5, 1);
    }

    #[test]
    #[should_panic(expected = "dup_prob")]
    fn invalid_dup_prob_rejected() {
        let _ = Link::with_faults(
            0,
            0,
            LinkFaults {
                dup: 1.0,
                ..LinkFaults::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "reorder_prob")]
    fn invalid_reorder_prob_rejected() {
        let _ = Link::with_faults(
            0,
            0,
            LinkFaults {
                reorder: -0.1,
                ..LinkFaults::default()
            },
        );
    }

    #[test]
    fn duplication_delivers_copies_and_counts() {
        let mut link = Link::with_faults(
            0,
            0,
            LinkFaults {
                dup: 0.5,
                seed: 7,
                ..LinkFaults::default()
            },
        );
        for t in 0..200 {
            link.send(t, payload(1));
        }
        let delivered = link.deliver(200).count() as u64;
        assert_eq!(delivered, 200 + link.fault_counters().duplicated);
        assert!(
            link.fault_counters().duplicated > 50,
            "dups {}",
            link.fault_counters().duplicated
        );
        // Duplication charges the sender once per send.
        assert_eq!(link.traffic().messages(), 200);
    }

    #[test]
    fn jitter_delays_within_bound_and_keeps_sorted_delivery() {
        let mut link = Link::with_faults(
            2,
            0,
            LinkFaults {
                jitter: 3,
                seed: 11,
                ..LinkFaults::default()
            },
        );
        for t in 0..100 {
            link.send(t, payload(1));
        }
        let msgs: Vec<_> = link.deliver(1000).collect();
        assert_eq!(msgs.len(), 100);
        let mut prev = 0;
        for m in &msgs {
            assert!(m.deliver_at >= m.sent_at + 2 && m.deliver_at <= m.sent_at + 5);
            assert!(m.deliver_at >= prev, "delivery must be tick-sorted");
            prev = m.deliver_at;
        }
    }

    #[test]
    fn reordering_swaps_messages_and_counts() {
        let mut link = Link::with_faults(
            0,
            0,
            LinkFaults {
                reorder: 0.3,
                seed: 5,
                ..LinkFaults::default()
            },
        );
        for t in 0..200 {
            link.send_tagged(t, t as u32, payload(1));
        }
        let order: Vec<u32> = link.deliver(1000).map(|m| m.stream_id).collect();
        assert_eq!(order.len(), 200);
        assert!(link.fault_counters().reordered > 20);
        let inversions = order.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(
            inversions > 0,
            "reordering must produce out-of-order delivery"
        );
    }

    #[test]
    fn loss_only_faults_match_legacy_lossy_draw_sequence() {
        // Recorded experiments depend on the exact draw sequence of a
        // loss-only link: a fault-capable link configured for loss only must
        // drop the identical messages.
        let mut legacy = Link::lossy(0, 0, 0.1, 4242);
        let mut faulty = Link::with_faults(
            0,
            0,
            LinkFaults {
                loss: 0.1,
                seed: 4242,
                ..LinkFaults::default()
            },
        );
        for t in 0..2000 {
            legacy.send_tagged(t, t as u32, payload(1));
            faulty.send_tagged(t, t as u32, payload(1));
        }
        let a: Vec<u32> = legacy.deliver(2000).map(|m| m.stream_id).collect();
        let b: Vec<u32> = faulty.deliver(2000).map(|m| m.stream_id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn noop_faults_behave_reliably() {
        let mut link = Link::with_faults(1, 0, LinkFaults::default());
        for t in 0..50 {
            link.send(t, payload(1));
        }
        assert_eq!(link.deliver(51).count(), 50);
        assert_eq!(link.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn deliver_is_lazily_bounded() {
        let mut link = Link::new(5, 0);
        for t in 0..10 {
            link.send(t, payload(1));
        }
        // At tick 7, messages sent at 0..=2 are due.
        assert_eq!(link.deliver(7).count(), 3);
        assert_eq!(link.in_flight(), 7);
    }
}
