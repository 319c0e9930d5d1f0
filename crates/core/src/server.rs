//! The server endpoint: prediction-based query answering.

use bytes::Bytes;
use kalstream_filter::{CovarianceUpdate, FilterError, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, Vector, VECTOR_INLINE_CAP};
use kalstream_obs::{Counter, Instrument, Scope};
use kalstream_sim::{Consumer, DeliveryStats, Tick};

use crate::wire::{self, SyncMessage, SyncRef, WireMessage, WireRef};

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
    /// Syncs delivered this tick, applied inside [`Consumer::estimate`]
    /// *after* the predict step so server and shadow stay in lock-step. The
    /// queue is bytes — each entry `len:u32` then the validated wire body,
    /// oldest first, the framing a durability snapshot writes for it — so a
    /// queued sync costs its wire size, and a drained queue keeps its
    /// capacity.
    pending: Vec<u8>,
    /// Entries in `pending`.
    pending_len: usize,
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
            pending_len: 0,
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
    /// propagates into distributional answers — read once per stream per
    /// tick, so it is computed as the one number it is
    /// ([`KalmanFilter::predicted_measurement_var`]), not read off a built `S`.
    pub fn served_variance(&self) -> f64 {
        self.filter.predicted_measurement_var(0)
    }

    /// Applies one owned sync message immediately (test/query-layer hook;
    /// the simulator path goes through [`Consumer::receive`], the ingest
    /// path through [`ServerEndpoint::enqueue_view`]).
    pub fn apply(&mut self, msg: SyncMessage) {
        // A hand-built message whose parts disagree does not parse back;
        // like any sync the filter refuses, it is dropped uncounted.
        if let Ok(view) = SyncRef::parse(&msg.encode()) {
            self.apply_view(view);
        }
    }

    /// Applies one sync view to the endpoint's own filter; returns whether
    /// the filter accepted it (and counts it when it did).
    pub(crate) fn apply_view(&mut self, msg: SyncRef<'_>) -> bool {
        let applied = apply_sync(&mut self.filter, msg);
        if applied {
            self.syncs_applied += 1;
        }
        applied
    }

    /// Queues one owned sync message for the next
    /// [`ServerEndpoint::advance`] — the value-type twin of the view path,
    /// for tests and snapshot restore. At the cap the **oldest** queued sync
    /// is shed (and counted): under full-state semantics a newer sync
    /// subsumes older ones, so dropping from the front preserves the
    /// freshest state.
    pub fn enqueue(&mut self, msg: SyncMessage) {
        self.shed_at_cap();
        self.push_pending(|queue| msg.encode_into(queue));
    }

    /// Makes room for one more entry: at [`PENDING_CAP`] the oldest is
    /// dropped and counted.
    fn shed_at_cap(&mut self) {
        if self.pending_len >= PENDING_CAP {
            if let Some((oldest, _)) = split_entry(&self.pending) {
                let entry = ENTRY_PREFIX_BYTES + oldest.len();
                self.pending.drain(..entry);
                self.pending_len -= 1;
            }
            self.delivery.shed += 1;
        }
    }

    /// Appends one entry whose body `write_body` appends to the queue.
    fn push_pending(&mut self, write_body: impl FnOnce(&mut Vec<u8>)) {
        let at = self.pending.len();
        self.pending.extend_from_slice(&[0; ENTRY_PREFIX_BYTES]);
        write_body(&mut self.pending);
        let len = (self.pending.len() - at - ENTRY_PREFIX_BYTES) as u32;
        self.pending[at..at + ENTRY_PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
        self.pending_len += 1;
    }

    /// Sequence bookkeeping for one arriving sync; `true` when it is to be
    /// queued.
    ///
    /// A sequenced sync at or below the highest sequence already accepted is
    /// **stale** (a duplicate, or delivered after a newer overwrite) and is
    /// dropped deterministically and counted; arrival discontinuities are
    /// counted as gaps (messages lost *or* still in flight behind a newer
    /// one). Every sequenced arrival — stale included — re-arms the ack, so
    /// a lost ack is healed by the next arrival of anything.
    fn admit(&mut self, seq: Option<u64>) -> bool {
        let Some(seq) = seq else {
            return true;
        };
        self.ack_due = true;
        if seq <= self.last_seq {
            self.delivery.stale_drops += 1;
            false
        } else {
            self.delivery.seq_gaps += seq - self.last_seq - 1;
            self.last_seq = seq;
            true
        }
    }

    /// Queues one validated v3 wire message, running sequence bookkeeping
    /// (stale and duplicate drops, gap counting, ack re-arming) — the entry
    /// point of both the simulator path ([`Consumer::receive`]) and the
    /// ingest pipeline. What is queued is the viewed body itself: no owned
    /// message exists between the socket and the filter.
    pub fn enqueue_view(&mut self, msg: WireRef<'_>) {
        match msg {
            WireRef::Sync { seq, body, .. } => {
                if self.admit(seq) {
                    self.shed_at_cap();
                    self.push_pending(|queue| queue.extend_from_slice(body));
                }
            }
            // An ack or bound directive on the forward channel is a protocol
            // violation by the peer; drop and count like any unusable message.
            WireRef::Ack { .. } | WireRef::Bound { .. } => self.decode_failures += 1,
        }
    }

    /// [`ServerEndpoint::enqueue_view`] for an owned message — same
    /// bookkeeping, the body encoded into the queue.
    pub fn enqueue_wire(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Sync { seq, msg } => {
                if self.admit(seq) {
                    self.enqueue(msg);
                }
            }
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
        self.pending_len
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

    /// Hands every queued sync, oldest first, to `apply` (with the endpoint
    /// itself, for its counters and filter) and leaves the queue empty with
    /// its capacity kept — steady-state ticks must not allocate.
    /// [`ServerEndpoint::advance`] applies them to the endpoint's filter; the
    /// batch ingest engine applies them to a fleet-batch lane.
    pub(crate) fn drain_pending(&mut self, mut apply: impl FnMut(&mut Self, SyncRef<'_>)) {
        if self.pending_len == 0 {
            return;
        }
        let mut queue = std::mem::take(&mut self.pending);
        for body in entries(&queue) {
            // Bodies arriving as views were validated on the way in; an
            // owned message that does not parse back is dropped uncounted.
            if let Ok(msg) = SyncRef::parse(body) {
                apply(self, msg);
            }
        }
        queue.clear();
        self.pending = queue;
        self.pending_len = 0;
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
            pending: entries(&self.pending)
                .filter_map(|body| SyncRef::parse(body).ok())
                .map(|msg| msg.to_owned())
                .collect(),
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
        let mut endpoint = ServerEndpoint {
            filter,
            pending: Vec::new(),
            pending_len: 0,
            syncs_applied: Counter::from(syncs_applied),
            decode_failures: Counter::from(decode_failures),
            predict_failures: Counter::from(predict_failures),
            last_seq,
            ack_due,
            bound_due,
            bounds_sent: Counter::from(bounds_sent),
            delivery,
        };
        // Straight into the queue: a restore sheds nothing.
        for msg in &pending {
            endpoint.push_pending(|queue| msg.encode_into(queue));
        }
        Ok(endpoint)
    }

    /// Advances one tick: predict, then apply every queued sync — exactly
    /// [`Consumer::estimate`]'s transition without serving a value. Shard
    /// workers call this once per endpoint per tick; because the order is
    /// identical to the simulator path, ingest stays bit-compatible with it.
    pub fn advance(&mut self) {
        if self.filter.predict().is_err() {
            self.predict_failures += 1;
        }
        self.drain_pending(|endpoint, msg| {
            endpoint.apply_view(msg);
        });
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

/// Bytes of the `len:u32` in front of each pending-queue entry.
const ENTRY_PREFIX_BYTES: usize = 4;

/// Splits the first `len:u32 body` entry off a pending queue.
fn split_entry(queue: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = queue.split_first_chunk::<ENTRY_PREFIX_BYTES>()?;
    rest.split_at_checked(u32::from_le_bytes(*len) as usize)
}

/// The bodies queued in `queue`, oldest first.
fn entries(queue: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = queue;
    std::iter::from_fn(move || {
        let (body, tail) = split_entry(rest)?;
        rest = tail;
        Some(body)
    })
}

/// Applies a sync to a filter, returning whether it was accepted — the one
/// definition of what a sync *does*, shared by the server's filter and the
/// source's shadow of it (which is what keeps the two bit-identical). State
/// and Measurement syncs go from the viewed bytes into the filter's own
/// storage; only a Model sync, which replaces the filter, builds values.
pub(crate) fn apply_sync(filter: &mut KalmanFilter, msg: SyncRef<'_>) -> bool {
    match msg {
        SyncRef::State { x, p } => filter.set_state_packed(x.iter(), p.iter()).is_ok(),
        SyncRef::Model(model) => {
            let (model, x, p) = model.to_owned();
            match KalmanFilter::with_covariance(model, x, p) {
                Ok(kf) => {
                    *filter = kf;
                    true
                }
                Err(_) => false,
            }
        }
        // A filter's measurement is within the inline cap, so a `z` too
        // long for the stack is one the update would refuse anyway.
        SyncRef::Measurement { z } => z
            .read_into(&mut [0.0; VECTOR_INLINE_CAP])
            .is_some_and(|z| filter.update_lean_slice(z).is_ok()),
    }
}

impl Consumer for ServerEndpoint {
    fn dim(&self) -> usize {
        self.filter.model().measurement_dim()
    }

    fn receive(&mut self, _now: Tick, payload: &Bytes) {
        match WireRef::parse(payload) {
            Ok(msg) => self.enqueue_view(msg),
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
            Some(Bytes::copy_from_slice(&wire::ack_bytes(self.last_seq)))
        } else if let Some(delta) = self.bound_due.take() {
            self.bounds_sent += 1;
            Some(Bytes::copy_from_slice(&wire::bound_bytes(delta)))
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
            model: Box::new(models::constant_velocity(1.0, 0.01, 0.1)),
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

    #[test]
    fn endpoint_stays_small() {
        // Footprint guard: one endpoint per stream, walked every tick.
        assert!(
            std::mem::size_of::<ServerEndpoint>() <= 3200,
            "ServerEndpoint grew to {} bytes",
            std::mem::size_of::<ServerEndpoint>()
        );
    }

    #[test]
    fn served_variance_is_the_first_diagonal_of_s_bit_for_bit() {
        // Every table shape, a few predicts and syncs in.
        let shapes = [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|n| (1..=n.min(4)).map(move |m| (n, m)));
        for (n, m) in shapes {
            let mut h = Matrix::zeros(m, n);
            for j in 0..m {
                for k in 0..n {
                    h.set(
                        j,
                        k,
                        if k == j {
                            1.0
                        } else {
                            0.25 / (1 + j + k) as f64
                        },
                    );
                }
            }
            let mut f = Matrix::identity(n);
            for r in 0..n.saturating_sub(1) {
                f.set(r, r + 1, 0.5);
            }
            let model = StateModel::new(
                "dense",
                f,
                Matrix::scalar(n, 0.02),
                h,
                Matrix::scalar(m, 0.3),
            )
            .unwrap();
            let mut s =
                ServerEndpoint::new(KalmanFilter::new(model, Vector::zeros(n), 0.9).unwrap());
            for t in 0..6u64 {
                if t % 3 == 1 {
                    s.enqueue(SyncMessage::Measurement {
                        z: Vector::filled(m, t as f64),
                    });
                }
                s.advance();
                assert_eq!(
                    s.served_variance().to_bits(),
                    s.filter().predicted_measurement_cov().get(0, 0).to_bits(),
                    "{n}x{m} tick {t}"
                );
            }
        }
    }

    /// The transition an endpoint makes on an accepted sync, written on
    /// owned values against the filter's value-taking API — what
    /// `apply_to_filter` was before syncs were applied from views.
    fn apply_owned(filter: &mut KalmanFilter, msg: SyncMessage) -> bool {
        match msg {
            SyncMessage::State { x, p } => filter.set_state(x, p).is_ok(),
            SyncMessage::Model { model, x, p } => {
                match KalmanFilter::with_covariance(*model, x, p) {
                    Ok(kf) => {
                        *filter = kf;
                        true
                    }
                    Err(_) => false,
                }
            }
            SyncMessage::Measurement { z } => filter.update_lean(&z).is_ok(),
        }
    }

    /// Four ticks of traffic covering every queue behaviour: mixed kinds in
    /// one tick, stale/duplicate/gapped sequence numbers, more than
    /// `PENDING_CAP` arrivals in one tick, and syncs the filter refuses.
    fn scripted_traffic() -> Vec<Vec<WireMessage>> {
        let sync = |seq, msg| WireMessage::Sync { seq, msg };
        let state2 = |a: f64, b: f64| SyncMessage::State {
            x: Vector::from_slice(&[a, b]),
            p: Matrix::from_rows(&[&[0.5, 0.125], &[0.125, 0.75]]),
        };
        let state3 = |a: f64| SyncMessage::State {
            x: Vector::from_slice(&[a, 0.5, -0.25]),
            p: Matrix::scalar(3, 0.4),
        };
        let measurement = |v: f64| SyncMessage::Measurement {
            z: Vector::from_slice(&[v]),
        };
        let model = SyncMessage::Model {
            model: Box::new(models::constant_acceleration(1.0, 0.02, 0.1)),
            x: Vector::from_slice(&[2.0, 0.5, 0.1]),
            p: Matrix::scalar(3, 1.0),
        };
        vec![
            vec![
                sync(Some(1), state2(1.0, 0.1)),
                sync(Some(2), measurement(1.4)),
                sync(Some(3), model),
                sync(Some(4), state3(2.5)),
                sync(Some(5), measurement(2.75)),
            ],
            vec![
                sync(Some(5), state3(99.0)), // duplicate
                sync(Some(3), state3(98.0)), // stale
                sync(Some(9), state3(3.0)),  // gap of 3
                sync(None, measurement(3.1)),
                WireMessage::Ack { seq: 9 }, // protocol violation
            ],
            (0..PENDING_CAP + 44)
                .map(|i| sync(None, state3(i as f64 * 0.01)))
                .chain([sync(Some(10), measurement(3.3))])
                .collect(),
            vec![
                sync(Some(11), state2(7.0, 7.0)), // wrong dimension now
                sync(
                    Some(12),
                    SyncMessage::Measurement {
                        z: Vector::from_slice(&[1.0, 2.0]),
                    },
                ),
                sync(Some(13), state3(4.0)),
            ],
        ]
    }

    fn cv_server() -> ServerEndpoint {
        let model = models::constant_velocity(1.0, 0.05, 0.1);
        ServerEndpoint::new(KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap())
    }

    #[test]
    fn view_path_matches_owned_application_in_bits_and_counters() {
        let mut viewed = cv_server(); // wire bytes in, applied from the queue
        let mut owned = cv_server(); // owned messages through `enqueue_wire`
        let mut applied = cv_server(); // accepted messages through `apply`
        let mut reference = cv_server().filter().clone(); // owned values, no endpoint
        let (mut last_seq, mut stale, mut gaps, mut shed, mut failures, mut syncs) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        let mut out = [0.0];
        for (t, tick) in scripted_traffic().into_iter().enumerate() {
            let t = t as u64;
            // What the sequence layer and the cap let through, by hand.
            let mut accepted = Vec::new();
            for wire in &tick {
                match wire {
                    WireMessage::Sync { seq: None, msg } => accepted.push(msg.clone()),
                    WireMessage::Sync {
                        seq: Some(seq),
                        msg,
                    } => {
                        if *seq <= last_seq {
                            stale += 1;
                        } else {
                            gaps += seq - last_seq - 1;
                            last_seq = *seq;
                            accepted.push(msg.clone());
                        }
                    }
                    _ => failures += 1,
                }
            }
            if accepted.len() > PENDING_CAP {
                shed += (accepted.len() - PENDING_CAP) as u64;
                accepted.drain(..accepted.len() - PENDING_CAP);
            }
            for wire in tick {
                viewed.receive(t, &wire.encode());
                owned.enqueue_wire(wire);
            }
            if t == 2 {
                // A payload that does not parse is counted, not queued.
                viewed.receive(t, &Bytes::from_static(b"\x01\x02garbage"));
                owned.decode_failures += 1;
                failures += 1;
            }
            assert_eq!(viewed.pending_len(), accepted.len());
            assert_eq!(viewed.state(), owned.state(), "tick {t}, queued");

            viewed.estimate(t, &mut out);
            owned.advance();
            applied.advance();
            let _ = reference.predict();
            for msg in accepted {
                applied.apply(msg.clone());
                syncs += u64::from(apply_owned(&mut reference, msg));
            }
            assert_eq!(viewed.state(), owned.state(), "tick {t}, advanced");
            assert_eq!(bits(viewed.filter()), bits(&reference), "tick {t}");
            assert_eq!(bits(viewed.filter()), bits(applied.filter()), "tick {t}");
            assert_eq!(viewed.filter().model(), reference.model());
            assert_eq!(viewed.staleness(), reference.steps_since_update());
            assert_eq!(viewed.syncs_applied(), syncs);
            assert_eq!(applied.syncs_applied(), syncs);
            assert_eq!(viewed.poll_feedback(t), owned.poll_feedback(t));
        }
        assert_eq!(viewed.last_seq(), last_seq);
        assert_eq!(viewed.decode_failures(), failures);
        let delivery = viewed.delivery();
        assert_eq!(
            (delivery.stale_drops, delivery.seq_gaps, delivery.shed),
            (stale, gaps, shed)
        );
        // The script really did exercise each behaviour.
        assert!(stale == 2 && gaps == 3 && shed == 45 && failures == 2);
        assert_eq!(viewed.filter().model().name(), "constant_acceleration");
        assert!(
            syncs < 5 + 2 + PENDING_CAP as u64 + 3,
            "refused syncs counted"
        );
    }

    #[test]
    fn mid_tick_snapshot_of_a_view_fed_queue_resumes_bit_identically() {
        let traffic = scripted_traffic();
        let mut live = cv_server();
        for wire in &traffic[0] {
            live.receive(0, &wire.encode());
        }
        // Five syncs of three kinds queued, none applied: snapshot here.
        let snap = live.state();
        assert_eq!(snap.pending.len(), 5);
        let mut restored = ServerEndpoint::from_state(snap.clone()).expect("rebuild");
        assert_eq!(restored.state(), snap, "re-capture reproduces the snapshot");
        assert_eq!(restored.pending, live.pending, "same queue bytes");
        let mut out = [[0.0]; 2];
        for (t, tick) in traffic.iter().enumerate() {
            if t > 0 {
                for wire in tick {
                    live.receive(t as u64, &wire.encode());
                    restored.receive(t as u64, &wire.encode());
                }
            }
            live.estimate(t as u64, &mut out[0]);
            restored.estimate(t as u64, &mut out[1]);
            assert_eq!(out[0][0].to_bits(), out[1][0].to_bits());
            assert_eq!(live.state(), restored.state(), "tick {t}");
        }
    }

    #[test]
    fn disagreeing_owned_message_is_dropped_uncounted() {
        // Hand-built: a 2-state `x` with a 3×3 `P` encodes to bytes no
        // decoder accepts. Like any sync the filter would refuse, it is not
        // applied — through `apply` or through the queue.
        let bad = || SyncMessage::State {
            x: Vector::zeros(2),
            p: Matrix::scalar(3, 1.0),
        };
        let mut s = cv_server();
        s.apply(bad());
        s.enqueue(bad());
        s.enqueue(state(1.0)); // 1-state: refused by the 2-state filter
        assert_eq!(s.pending_len(), 2);
        s.advance();
        assert_eq!(s.syncs_applied(), 0);
        assert_eq!(s.pending_len(), 0);
    }
}
