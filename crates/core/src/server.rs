//! The server endpoint: prediction-based query answering.

use bytes::Bytes;
use kalstream_filter::{CovarianceUpdate, FilterError, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, Vector};
use kalstream_obs::{Counter, Instrument, Scope};
use kalstream_sim::{Consumer, DeliveryStats, Tick};

use crate::wire::{SyncMessage, WireMessage};

/// Cap on queued-but-unapplied syncs. In every supported driver the queue
/// drains once per tick, so depth beyond a handful means `receive` is
/// outpacing `estimate` (a stalled or missing drain); shedding the oldest
/// entries bounds memory and — under full-state sync semantics — loses
/// nothing once a newer sync lands.
const PENDING_CAP: usize = 256;

/// The server side of the suppression protocol.
///
/// Holds the cached *dynamic procedure* — a Kalman filter — and serves the
/// stream's current value from its prediction. Between sync messages it
/// advances the filter one predict step per tick; sync messages overwrite
/// state (and possibly the model). This is the paper's "caching dynamic
/// procedures that can predict data reliably at the server without the
/// clients' involvement".
#[derive(Debug, Clone)]
pub struct ServerEndpoint {
    filter: KalmanFilter,
    /// Messages delivered this tick, applied inside [`Consumer::estimate`]
    /// *after* the predict step so server and shadow stay in lock-step.
    pending: Vec<SyncMessage>,
    syncs_applied: Counter,
    decode_failures: Counter,
    predict_failures: Counter,
    /// Highest sequence number accepted (0 before the first sequenced sync).
    last_seq: u64,
    /// Set when a sequenced message arrives; cleared when the ack is polled.
    ack_due: bool,
    /// A precision bound queued for the source, set by the query/allocation
    /// layer via [`ServerEndpoint::push_bound_directive`]. Last writer wins
    /// (a newer directive subsumes an unsent older one); cleared when
    /// polled onto the feedback link.
    bound_due: Option<f64>,
    /// Bound directives actually polled onto the feedback link.
    bounds_sent: Counter,
    delivery: DeliveryStats,
}

impl ServerEndpoint {
    /// Creates the server side from its initial filter (identical to the
    /// source's shadow — [`crate::StreamSession`] guarantees the pairing).
    pub(crate) fn new(filter: KalmanFilter) -> Self {
        ServerEndpoint {
            filter,
            pending: Vec::new(),
            syncs_applied: Counter::new(),
            decode_failures: Counter::new(),
            predict_failures: Counter::new(),
            last_seq: 0,
            ack_due: false,
            bound_due: None,
            bounds_sent: Counter::new(),
            delivery: DeliveryStats::default(),
        }
    }

    /// The cached filter (for query answering beyond plain values:
    /// covariance, staleness, forecasts).
    pub fn filter(&self) -> &KalmanFilter {
        &self.filter
    }

    /// Sync messages successfully applied.
    pub fn syncs_applied(&self) -> u64 {
        self.syncs_applied.get()
    }

    /// Wire messages that failed to decode (dropped, counted).
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures.get()
    }

    /// Ticks on which the predict step failed numerically (estimate then
    /// reuses the previous state).
    pub fn predict_failures(&self) -> u64 {
        self.predict_failures.get()
    }

    /// Ticks since the server last heard from the source — the "cache age"
    /// that experiment F10 profiles.
    pub fn staleness(&self) -> u64 {
        self.filter.steps_since_update()
    }

    /// Predictive variance of the served value (first measurement
    /// component): the innovation covariance `S = H P Hᵀ + R` of the cached
    /// filter, which grows with staleness as suppressed ticks accumulate
    /// process noise. This is the per-stream uncertainty the query graph
    /// propagates into distributional answers.
    pub fn served_variance(&self) -> f64 {
        self.filter.predicted_measurement_cov().get(0, 0)
    }

    /// Applies one decoded sync message immediately (test/query-layer hook;
    /// the simulator path goes through [`Consumer::receive`], the ingest
    /// path through [`ServerEndpoint::enqueue`]).
    pub fn apply(&mut self, msg: SyncMessage) {
        if apply_to_filter(&mut self.filter, msg) {
            self.syncs_applied += 1;
        }
    }

    /// Queues one decoded sync message for the next [`ServerEndpoint::advance`].
    /// At the cap the **oldest** queued sync is shed (and counted): under
    /// full-state semantics a newer sync subsumes older ones, so dropping
    /// from the front preserves the freshest state.
    pub fn enqueue(&mut self, msg: SyncMessage) {
        if self.pending.len() >= PENDING_CAP {
            self.pending.remove(0);
            self.delivery.shed += 1;
        }
        self.pending.push(msg);
    }

    /// Queues one decoded v3 wire message, running sequence bookkeeping —
    /// the loss-tolerant entry point for both the simulator path
    /// ([`Consumer::receive`]) and the ingest pipeline.
    ///
    /// A sequenced sync at or below the highest sequence already accepted is
    /// **stale** (a duplicate, or delivered after a newer overwrite) and is
    /// dropped deterministically and counted; arrival discontinuities are
    /// counted as gaps (messages lost *or* still in flight behind a newer
    /// one). Every sequenced arrival — stale included — re-arms the ack, so
    /// a lost ack is healed by the next arrival of anything.
    pub fn enqueue_wire(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Sync { seq: None, msg } => self.enqueue(msg),
            WireMessage::Sync {
                seq: Some(seq),
                msg,
            } => {
                self.ack_due = true;
                if seq <= self.last_seq {
                    self.delivery.stale_drops += 1;
                } else {
                    self.delivery.seq_gaps += seq - self.last_seq - 1;
                    self.last_seq = seq;
                    self.enqueue(msg);
                }
            }
            // An ack or bound directive on the forward channel is a protocol
            // violation by the peer; drop and count like any unusable message.
            WireMessage::Ack { .. } | WireMessage::Bound { .. } => self.decode_failures += 1,
        }
    }

    /// Highest sequence number accepted (0 before the first sequenced sync).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Receiver-side delivery accounting (stale drops, gaps, shed).
    pub fn delivery(&self) -> DeliveryStats {
        self.delivery
    }

    /// Syncs currently queued for the next advance.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Queues a precision-bound directive for the paired source; it rides
    /// the next [`Consumer::poll_feedback`] as a [`WireMessage::Bound`].
    ///
    /// This is the hook the query graph's precision propagation and the
    /// epoch budget allocator use to steer producers from the consumer side.
    /// Non-finite or non-positive bounds are ignored (the wire format would
    /// reject them anyway); a newer directive replaces an unsent older one,
    /// since only the latest bound is binding.
    pub fn push_bound_directive(&mut self, delta: f64) {
        if delta.is_finite() && delta > 0.0 {
            self.bound_due = Some(delta);
        }
    }

    /// Bound directives actually sent over the feedback link.
    pub fn bounds_sent(&self) -> u64 {
        self.bounds_sent.get()
    }

    /// Pops the oldest queued sync, if any — the batch ingest engine drains
    /// pending through this (front-to-back, like [`ServerEndpoint::advance`])
    /// while applying syncs to a fleet-batch lane instead of the endpoint's
    /// own filter. `Vec::remove(0)` keeps the buffer's capacity, and the
    /// queue is a handful of messages at most (see [`PENDING_CAP`]).
    pub(crate) fn pop_pending(&mut self) -> Option<SyncMessage> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.pending.remove(0))
        }
    }

    /// Counts one applied sync — the batch engine's twin of the bookkeeping
    /// inside [`ServerEndpoint::advance`].
    pub(crate) fn note_sync_applied(&mut self) {
        self.syncs_applied += 1;
    }

    /// Counts one failed predict step — the batch engine's twin of the
    /// bookkeeping inside [`ServerEndpoint::advance`].
    pub(crate) fn note_predict_failure(&mut self) {
        self.predict_failures += 1;
    }

    /// Mutable filter access for the batch engine's lane handoffs (restoring
    /// a demoted lane's state, installing a model-sync replacement filter).
    pub(crate) fn filter_mut(&mut self) -> &mut KalmanFilter {
        &mut self.filter
    }

    /// Captures the complete protocol state of this endpoint as a plain
    /// value — the unit the durability layer snapshots. Everything that
    /// influences future behaviour is included: the filter triplet (model,
    /// state, covariance) **and** its staleness/covariance-update mode, the
    /// undrained pending queue, the seq/ack tracker, the queued bound
    /// directive, and every counter. [`ServerEndpoint::from_state`] must
    /// rebuild an endpoint that is bit-identical going forward.
    pub fn state(&self) -> EndpointState {
        EndpointState {
            model: self.filter.model().clone(),
            x: self.filter.state().clone(),
            p: self.filter.covariance().clone(),
            steps_since_update: self.filter.steps_since_update(),
            cov_update: self.filter.covariance_update(),
            pending: self.pending.clone(),
            syncs_applied: self.syncs_applied.get(),
            decode_failures: self.decode_failures.get(),
            predict_failures: self.predict_failures.get(),
            last_seq: self.last_seq,
            ack_due: self.ack_due,
            bound_due: self.bound_due,
            bounds_sent: self.bounds_sent.get(),
            delivery: self.delivery,
        }
    }

    /// Rebuilds an endpoint from a captured [`EndpointState`] — the
    /// recovery half of the snapshot roundtrip. The filter is reconstructed
    /// through [`KalmanFilter::with_covariance`] + [`KalmanFilter::restore`],
    /// both of which store `x`/`p` verbatim, so a
    /// `state()` → `from_state()` roundtrip preserves every f64 bit.
    ///
    /// # Errors
    /// Propagates [`FilterError`] when the state's shapes are inconsistent
    /// (possible only for a corrupted or hand-built state).
    pub fn from_state(state: EndpointState) -> Result<Self, FilterError> {
        let EndpointState {
            model,
            x,
            p,
            steps_since_update,
            cov_update,
            pending,
            syncs_applied,
            decode_failures,
            predict_failures,
            last_seq,
            ack_due,
            bound_due,
            bounds_sent,
            delivery,
        } = state;
        let mut filter = KalmanFilter::with_covariance(model, x.clone(), p.clone())?;
        filter.set_covariance_update(cov_update);
        filter.restore(x, p, steps_since_update)?;
        Ok(ServerEndpoint {
            filter,
            pending,
            syncs_applied: Counter::from(syncs_applied),
            decode_failures: Counter::from(decode_failures),
            predict_failures: Counter::from(predict_failures),
            last_seq,
            ack_due,
            bound_due,
            bounds_sent: Counter::from(bounds_sent),
            delivery,
        })
    }

    /// Advances one tick: predict, then apply every queued sync — exactly
    /// [`Consumer::estimate`]'s transition without serving a value. Shard
    /// workers call this once per endpoint per tick; because the order is
    /// identical to the simulator path, ingest stays bit-compatible with it.
    pub fn advance(&mut self) {
        if self.filter.predict().is_err() {
            self.predict_failures += 1;
        }
        // Drain in place so `pending` keeps its capacity (steady-state
        // ingest ticks must not allocate).
        for msg in self.pending.drain(..) {
            if apply_to_filter(&mut self.filter, msg) {
                self.syncs_applied += 1;
            }
        }
    }
}

/// The complete externalised state of one [`ServerEndpoint`] — the value a
/// durability snapshot records and crash recovery replays from. Fields are
/// public: the encoding lives in `kalstream-durable`, outside this crate,
/// and the struct itself is the compatibility contract between them.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointState {
    /// The cached model (including adapted `Q`/`R`).
    pub model: StateModel,
    /// State estimate at the snapshot barrier.
    pub x: Vector,
    /// Estimate covariance at the snapshot barrier.
    pub p: Matrix,
    /// Predict steps since the last measurement update (cache age).
    pub steps_since_update: u64,
    /// Covariance update mode (Joseph vs. simple form — changes bits).
    pub cov_update: CovarianceUpdate,
    /// Delivered-but-unapplied syncs (mid-tick queue; empty at a barrier
    /// taken after `advance`, but captured anyway so the snapshot point is
    /// not restricted to post-advance instants).
    pub pending: Vec<SyncMessage>,
    /// Sync messages successfully applied.
    pub syncs_applied: u64,
    /// Wire messages that failed to decode.
    pub decode_failures: u64,
    /// Ticks on which the predict step failed numerically.
    pub predict_failures: u64,
    /// Highest sequence number accepted.
    pub last_seq: u64,
    /// Whether an ack is armed but not yet polled.
    pub ack_due: bool,
    /// A queued-but-unsent precision bound directive.
    pub bound_due: Option<f64>,
    /// Bound directives sent over the feedback link.
    pub bounds_sent: u64,
    /// Receiver-side delivery accounting (stale drops, gaps, shed).
    pub delivery: DeliveryStats,
}

/// Applies a sync to a filter, returning whether it was accepted. Free
/// function (not a method) so [`ServerEndpoint::advance`] can drain
/// `pending` while mutating the filter — disjoint field borrows.
fn apply_to_filter(filter: &mut KalmanFilter, msg: SyncMessage) -> bool {
    match msg {
        SyncMessage::State { x, p } => filter.set_state(x, p).is_ok(),
        SyncMessage::Model { model, x, p } => match KalmanFilter::with_covariance(model, x, p) {
            Ok(kf) => {
                *filter = kf;
                true
            }
            Err(_) => false,
        },
        SyncMessage::Measurement { z } => filter.update_lean(&z).is_ok(),
    }
}

impl Consumer for ServerEndpoint {
    fn dim(&self) -> usize {
        self.filter.model().measurement_dim()
    }

    fn receive(&mut self, _now: Tick, payload: &Bytes) {
        match WireMessage::decode(payload) {
            Ok(msg) => self.enqueue_wire(msg),
            Err(_) => self.decode_failures += 1,
        }
    }

    fn estimate(&mut self, _now: Tick, out: &mut [f64]) {
        // Predict first, then apply corrections — the exact order the
        // source's shadow uses, which is what makes the two bit-identical.
        self.advance();
        let z_hat = self.filter.predicted_measurement();
        out[..z_hat.dim()].copy_from_slice(z_hat.as_slice());
    }

    fn poll_feedback(&mut self, _now: Tick) -> Option<Bytes> {
        // One feedback payload per tick. Acks win ties (a starved ack
        // forces a spurious resync; a bound delayed one tick costs at most
        // one message) — the bound stays queued for the next poll.
        if self.ack_due {
            self.ack_due = false;
            Some(WireMessage::Ack { seq: self.last_seq }.encode())
        } else if let Some(delta) = self.bound_due.take() {
            self.bounds_sent += 1;
            Some(WireMessage::Bound { delta }.encode())
        } else {
            None
        }
    }

    fn delivery_stats(&self) -> DeliveryStats {
        self.delivery
    }

    fn served_variance(&self) -> Option<f64> {
        Some(self.served_variance())
    }
}

impl Instrument for ServerEndpoint {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("syncs_applied", self.syncs_applied);
        scope.counter("decode_failures", self.decode_failures);
        scope.counter("predict_failures", self.predict_failures);
        scope.counter("bounds_sent", self.bounds_sent);
        scope.counter("last_seq", self.last_seq);
        scope.counter("staleness", self.staleness());
        scope.observe("delivery", &self.delivery);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_filter::models;
    use kalstream_linalg::{Matrix, Vector};

    fn server() -> ServerEndpoint {
        let model = models::random_walk(0.01, 0.01);
        ServerEndpoint::new(KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap())
    }

    #[test]
    fn estimate_predicts_without_messages() {
        let mut s = server();
        let mut out = [0.0];
        s.estimate(0, &mut out);
        assert_eq!(out[0], 0.0); // random walk prediction keeps the level
        assert_eq!(s.staleness(), 1);
        s.estimate(1, &mut out);
        assert_eq!(s.staleness(), 2);
    }

    #[test]
    fn state_sync_overwrites_estimate() {
        let mut s = server();
        let msg = SyncMessage::State {
            x: Vector::from_slice(&[5.0]),
            p: Matrix::scalar(1, 0.5),
        };
        s.receive(3, &msg.encode());
        let mut out = [0.0];
        s.estimate(3, &mut out);
        assert_eq!(out[0], 5.0);
        assert_eq!(s.syncs_applied(), 1);
        assert_eq!(s.staleness(), 0);
    }

    #[test]
    fn model_sync_replaces_filter() {
        let mut s = server();
        let msg = SyncMessage::Model {
            model: models::constant_velocity(1.0, 0.01, 0.1),
            x: Vector::from_slice(&[2.0, 0.5]),
            p: Matrix::scalar(2, 1.0),
        };
        s.receive(0, &msg.encode());
        let mut out = [0.0];
        s.estimate(0, &mut out);
        assert_eq!(out[0], 2.0);
        assert_eq!(s.filter().model().name(), "constant_velocity");
        // Next tick the CV model extrapolates: 2.0 + 0.5.
        s.estimate(1, &mut out);
        assert!((out[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn measurement_sync_runs_an_update() {
        let mut s = server();
        let msg = SyncMessage::Measurement {
            z: Vector::from_slice(&[4.0]),
        };
        s.receive(0, &msg.encode());
        let mut out = [0.0];
        s.estimate(0, &mut out);
        // A KF update moves toward the measurement but not (necessarily)
        // onto it.
        assert!(out[0] > 2.0 && out[0] <= 4.0, "estimate {}", out[0]);
    }

    #[test]
    fn garbage_messages_are_counted_not_fatal() {
        let mut s = server();
        s.receive(0, &Bytes::from_static(b"\xFFgarbage"));
        assert_eq!(s.decode_failures(), 1);
        let mut out = [0.0];
        s.estimate(0, &mut out); // still serves
        assert_eq!(s.syncs_applied(), 0);
    }

    #[test]
    fn mismatched_state_sync_is_dropped() {
        let mut s = server();
        // 2-dimensional state for a 1-dimensional model: dropped.
        let msg = SyncMessage::State {
            x: Vector::zeros(2),
            p: Matrix::scalar(2, 1.0),
        };
        s.apply(msg);
        assert_eq!(s.syncs_applied(), 0);
    }

    fn state(v: f64) -> SyncMessage {
        SyncMessage::State {
            x: Vector::from_slice(&[v]),
            p: Matrix::scalar(1, 0.5),
        }
    }

    fn seq_sync(seq: u64, v: f64) -> WireMessage {
        WireMessage::Sync {
            seq: Some(seq),
            msg: state(v),
        }
    }

    #[test]
    fn stale_and_duplicate_sequences_are_dropped_deterministically() {
        let mut s = server();
        s.enqueue_wire(seq_sync(1, 1.0));
        s.enqueue_wire(seq_sync(2, 2.0));
        s.enqueue_wire(seq_sync(2, 9.0)); // duplicate
        s.enqueue_wire(seq_sync(1, 9.0)); // reordered stale
        assert_eq!(s.delivery().stale_drops, 2);
        assert_eq!(s.last_seq(), 2);
        let mut out = [0.0];
        s.estimate(0, &mut out);
        assert_eq!(out[0], 2.0); // stale 9.0s never applied
        assert_eq!(s.syncs_applied(), 2);
    }

    #[test]
    fn sequence_gaps_are_counted() {
        let mut s = server();
        s.enqueue_wire(seq_sync(1, 1.0));
        s.enqueue_wire(seq_sync(5, 5.0)); // 2, 3, 4 missing
        assert_eq!(s.delivery().seq_gaps, 3);
        assert_eq!(s.last_seq(), 5);
    }

    #[test]
    fn every_sequenced_arrival_rearms_the_ack() {
        let mut s = server();
        assert_eq!(s.poll_feedback(0), None);
        s.enqueue_wire(seq_sync(1, 1.0));
        let ack = s.poll_feedback(0).expect("ack due");
        assert_eq!(
            WireMessage::decode(&ack).unwrap(),
            WireMessage::Ack { seq: 1 }
        );
        assert_eq!(s.poll_feedback(0), None, "ack is polled once");
        // A stale duplicate still re-arms: this is what heals a lost ack.
        s.enqueue_wire(seq_sync(1, 1.0));
        let ack = s.poll_feedback(1).expect("re-armed");
        assert_eq!(
            WireMessage::decode(&ack).unwrap(),
            WireMessage::Ack { seq: 1 }
        );
    }

    #[test]
    fn unsequenced_traffic_generates_no_acks() {
        let mut s = server();
        s.receive(0, &state(1.0).encode());
        assert_eq!(s.poll_feedback(0), None);
        assert_eq!(s.delivery(), DeliveryStats::default());
    }

    #[test]
    fn ack_on_forward_channel_is_counted_as_failure() {
        let mut s = server();
        s.enqueue_wire(WireMessage::Ack { seq: 3 });
        assert_eq!(s.decode_failures(), 1);
        assert_eq!(s.last_seq(), 0);
    }

    #[test]
    fn pending_queue_is_capped_with_drop_oldest() {
        // Pre-fix regression: `receive` without `estimate` grew `pending`
        // without bound.
        let mut s = server();
        for i in 0..(PENDING_CAP + 10) {
            s.receive(0, &state(i as f64).encode());
        }
        assert_eq!(s.pending_len(), PENDING_CAP);
        assert_eq!(s.delivery().shed, 10);
        let mut out = [0.0];
        s.estimate(0, &mut out);
        // The newest sync survives the shedding.
        assert_eq!(out[0], (PENDING_CAP + 9) as f64);
    }

    #[test]
    fn sequenced_sync_applies_via_receive_wire_bytes() {
        let mut s = server();
        s.receive(0, &seq_sync(1, 7.5).encode());
        let mut out = [0.0];
        s.estimate(0, &mut out);
        assert_eq!(out[0], 7.5);
        assert_eq!(s.last_seq(), 1);
    }

    #[test]
    fn bound_directive_rides_the_feedback_poll() {
        let mut s = server();
        assert_eq!(s.poll_feedback(0), None);
        s.push_bound_directive(0.25);
        let payload = s.poll_feedback(0).expect("bound due");
        assert_eq!(
            WireMessage::decode(&payload).unwrap(),
            WireMessage::Bound { delta: 0.25 }
        );
        assert_eq!(s.bounds_sent(), 1);
        assert_eq!(s.poll_feedback(1), None, "directive is polled once");
    }

    #[test]
    fn newer_bound_directive_replaces_unsent_older_one() {
        let mut s = server();
        s.push_bound_directive(0.5);
        s.push_bound_directive(0.125); // only the latest bound is binding
        let payload = s.poll_feedback(0).expect("bound due");
        assert_eq!(
            WireMessage::decode(&payload).unwrap(),
            WireMessage::Bound { delta: 0.125 }
        );
        assert_eq!(s.bounds_sent(), 1);
        assert_eq!(s.poll_feedback(1), None);
    }

    #[test]
    fn ack_wins_the_feedback_tie_and_bound_follows() {
        let mut s = server();
        s.enqueue_wire(seq_sync(1, 1.0));
        s.push_bound_directive(0.75);
        let first = s.poll_feedback(0).expect("ack due");
        assert_eq!(
            WireMessage::decode(&first).unwrap(),
            WireMessage::Ack { seq: 1 }
        );
        let second = s.poll_feedback(1).expect("bound still queued");
        assert_eq!(
            WireMessage::decode(&second).unwrap(),
            WireMessage::Bound { delta: 0.75 }
        );
    }

    #[test]
    fn invalid_bound_directives_are_ignored() {
        let mut s = server();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            s.push_bound_directive(bad);
        }
        assert_eq!(s.poll_feedback(0), None);
        assert_eq!(s.bounds_sent(), 0);
    }

    #[test]
    fn bound_on_forward_channel_is_counted_as_failure() {
        let mut s = server();
        s.enqueue_wire(WireMessage::Bound { delta: 0.5 });
        assert_eq!(s.decode_failures(), 1);
    }

    /// Bit-level fingerprint of a filter (state + covariance), the currency
    /// of every identity assertion in this repo.
    fn bits(f: &KalmanFilter) -> (Vec<u64>, Vec<u64>) {
        (
            f.state().as_slice().iter().map(|v| v.to_bits()).collect(),
            f.covariance()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        )
    }

    #[test]
    fn state_roundtrip_is_bit_identical_and_behaviourally_equivalent() {
        // Drive an endpoint through every kind of protocol traffic so the
        // captured state has non-trivial values in every field...
        let mut s = server();
        let mut out = [0.0];
        s.enqueue_wire(seq_sync(1, 1.0));
        s.enqueue_wire(seq_sync(4, 2.5)); // gap of 2
        s.estimate(0, &mut out);
        s.enqueue_wire(seq_sync(4, 9.0)); // stale duplicate, re-arms ack
        s.push_bound_directive(0.25);
        s.receive(1, &Bytes::from_static(b"\xFFgarbage"));
        s.enqueue(state(7.0)); // left pending: mid-tick snapshot point

        // ...then roundtrip and compare the frozen state.
        let snap = s.state();
        let mut r = ServerEndpoint::from_state(snap.clone()).expect("rebuild");
        assert_eq!(bits(s.filter()), bits(r.filter()));
        assert_eq!(r.state(), snap, "re-capture reproduces the snapshot");

        // The two must stay bit-identical through future traffic: advance,
        // drain pending, poll feedback.
        for tick in 2..6 {
            s.enqueue_wire(seq_sync(5 + tick, tick as f64));
            r.enqueue_wire(seq_sync(5 + tick, tick as f64));
            s.estimate(tick, &mut out);
            let mut out_r = [0.0];
            r.estimate(tick, &mut out_r);
            assert_eq!(out[0].to_bits(), out_r[0].to_bits());
            assert_eq!(s.poll_feedback(tick), r.poll_feedback(tick));
        }
        assert_eq!(bits(s.filter()), bits(r.filter()));
        assert_eq!(s.delivery(), r.delivery());
        assert_eq!(s.syncs_applied(), r.syncs_applied());
        assert_eq!(s.decode_failures(), r.decode_failures());
        assert_eq!(s.last_seq(), r.last_seq());
        assert_eq!(s.staleness(), r.staleness());
    }
}
