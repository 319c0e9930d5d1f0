//! The server endpoint: prediction-based query answering.
//!
//! A sync is applied when it is delivered. The tick's first applied sync
//! runs the tick's predict, and [`ServerEndpoint::advance`] predicts only
//! on a tick nothing arrived: predict, then the tick's syncs in arrival
//! order — the order the source's shadow uses, and the one an ingest shard
//! makes with its lanes. Nothing is queued, so nothing is held back or
//! shed: each sync carries the full corrected state, and the newest one
//! subsumes the older ones.

use bytes::Bytes;
use kalstream_filter::{CovarianceUpdate, FilterError, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, Vector};
use kalstream_obs::{Counter, Instrument, Scope};
use kalstream_sim::{Consumer, DeliveryStats, Tick};

use crate::wire::{self, ModelRef, SyncRef, WireMessage, WireRef};

/// The server side of the suppression protocol.
///
/// Holds the cached *dynamic procedure* — a Kalman filter — and serves the
/// stream's current value from its prediction. Between sync messages it
/// advances the filter one predict step per tick; sync messages overwrite
/// state (and possibly the model). This is the paper's "caching dynamic
/// procedures that can predict data reliably at the server without the
/// clients' involvement".
///
/// It is two halves: the filter, and the protocol half that admits,
/// counts and acknowledges syncs. An ingest shard takes the two apart for
/// as long as it owns the stream: it keeps the protocol half, and the
/// filter lives on one of its lanes (`crate::batch_ingest`).
#[derive(Debug, Clone)]
pub struct ServerEndpoint {
    pub(crate) filter: KalmanFilter,
    pub(crate) protocol: ProtocolHalf,
    /// Whether this tick's predict has run: set by the tick's first
    /// applied sync, cleared by [`ServerEndpoint::advance`]. Set means a
    /// tick is in progress.
    pub(crate) predicted: bool,
}

/// Everything a server endpoint keeps about its stream but the filter:
/// sequence admission, the feedback due and the counters — the one copy
/// of those rules, for the endpoint and for the ingest shard alike.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProtocolHalf {
    pub(crate) syncs_applied: Counter,
    decode_failures: Counter,
    pub(crate) predict_failures: Counter,
    /// Highest sequence number accepted (0 before the first sequenced sync).
    pub(crate) last_seq: u64,
    /// Set when a sequenced message arrives; cleared when the ack is polled.
    ack_due: bool,
    /// A precision bound queued for the source, set by the query/allocation
    /// layer via [`ServerEndpoint::push_bound_directive`]. Last writer wins
    /// (a newer directive subsumes an unsent older one); cleared when
    /// polled onto the feedback link.
    bound_due: Option<f64>,
    /// Bound directives actually polled onto the feedback link.
    bounds_sent: Counter,
    pub(crate) delivery: DeliveryStats,
}

impl ProtocolHalf {
    /// Sequence bookkeeping for one arriving sync; `true` when it is to be
    /// applied.
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

    /// Runs one validated v3 wire message through sequence bookkeeping
    /// (stale and duplicate drops, gap counting, ack re-arming) and returns
    /// the sync to apply, if any — the admission both the endpoint
    /// ([`ServerEndpoint::enqueue_view`]) and the ingest shard go through.
    pub(crate) fn admit_view<'a>(&mut self, msg: WireRef<'a>) -> Option<SyncRef<'a>> {
        match msg {
            WireRef::Sync { seq, msg } => self.admit(seq).then_some(msg),
            // An ack or bound directive on the forward channel is a protocol
            // violation by the peer; drop and count like any unusable message.
            WireRef::Ack { .. } | WireRef::Bound { .. } => {
                self.decode_failures += 1;
                None
            }
        }
    }

    /// Whether an ack or a bound directive waits for the next feedback
    /// poll.
    pub(crate) fn feedback_due(&self) -> bool {
        self.ack_due || self.bound_due.is_some()
    }

    /// One feedback payload, if any is due. Acks win ties (a starved ack
    /// forces a spurious resync; a bound delayed one tick costs at most one
    /// message) — the bound stays queued for the next poll.
    pub(crate) fn poll_feedback(&mut self) -> Option<Bytes> {
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

    /// Captures this half and `filter` as one [`EndpointState`]: see
    /// [`ServerEndpoint::state`].
    pub(crate) fn state(&self, filter: &KalmanFilter) -> EndpointState {
        EndpointState {
            model: filter.model().clone(),
            x: filter.state().clone(),
            p: filter.covariance().clone(),
            steps_since_update: filter.steps_since_update(),
            cov_update: filter.covariance_update(),
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
}

impl ServerEndpoint {
    /// Creates the server side from its initial filter (identical to the
    /// source's shadow — [`crate::StreamSession`] guarantees the pairing).
    pub(crate) fn new(filter: KalmanFilter) -> Self {
        ServerEndpoint::from_halves(filter, ProtocolHalf::default())
    }

    /// Puts an endpoint together from its two halves, between ticks — how
    /// an ingest shard hands a stream back.
    pub(crate) fn from_halves(filter: KalmanFilter, protocol: ProtocolHalf) -> Self {
        ServerEndpoint {
            filter,
            protocol,
            predicted: false,
        }
    }

    /// The cached filter (for query answering beyond plain values:
    /// covariance, staleness, forecasts).
    pub fn filter(&self) -> &KalmanFilter {
        &self.filter
    }

    /// Sync messages successfully applied.
    pub fn syncs_applied(&self) -> u64 {
        self.protocol.syncs_applied.get()
    }

    /// Wire messages that failed to decode (dropped, counted).
    pub fn decode_failures(&self) -> u64 {
        self.protocol.decode_failures.get()
    }

    /// Ticks on which the predict step failed numerically (estimate then
    /// reuses the previous state).
    pub fn predict_failures(&self) -> u64 {
        self.protocol.predict_failures.get()
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

    /// Applies one sync view to the endpoint's own filter; returns whether
    /// the filter accepted it (and counts it when it did).
    pub(crate) fn apply_view(&mut self, msg: SyncRef<'_>) -> bool {
        let applied = apply_sync(&mut self.filter, msg);
        self.protocol.syncs_applied += u64::from(applied);
        applied
    }

    /// Delivers one validated v3 wire message within the current tick:
    /// sequence bookkeeping (stale and duplicate drops, gap counting, ack
    /// re-arming), then the admitted sync applied to the filter — after the
    /// tick's predict, which the tick's first applied sync runs. The
    /// simulator path's entry ([`Consumer::receive`]); the sync is applied
    /// from the viewed bytes, so no owned message exists between the socket
    /// and the filter. [`ServerEndpoint::advance`] closes the tick.
    pub fn enqueue_view(&mut self, msg: WireRef<'_>) {
        if let Some(sync) = self.protocol.admit_view(msg) {
            self.deliver(sync);
        }
    }

    /// [`ServerEndpoint::enqueue_view`] for an owned message — same
    /// bookkeeping, the sync applied from a view of its encoding. A
    /// hand-built sync whose parts disagree does not parse back; like any
    /// sync the filter refuses, it is dropped uncounted.
    pub fn enqueue_wire(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Sync { seq, msg } => {
                if self.protocol.admit(seq) {
                    msg.with_view(|sync| self.deliver(sync));
                }
            }
            WireMessage::Ack { .. } | WireMessage::Bound { .. } => {
                self.protocol.decode_failures += 1
            }
        }
    }

    /// Highest sequence number accepted (0 before the first sequenced sync).
    pub fn last_seq(&self) -> u64 {
        self.protocol.last_seq
    }

    /// Receiver-side delivery accounting (stale drops, gaps).
    pub fn delivery(&self) -> DeliveryStats {
        self.protocol.delivery
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
            self.protocol.bound_due = Some(delta);
        }
    }

    /// Bound directives actually sent over the feedback link.
    pub fn bounds_sent(&self) -> u64 {
        self.protocol.bounds_sent.get()
    }

    /// Captures the complete protocol state of this endpoint as a plain
    /// value — the unit the durability layer snapshots. Everything that
    /// influences future behaviour is included: the filter triplet (model,
    /// state, covariance) **and** its staleness/covariance-update mode, the
    /// seq/ack tracker, the queued bound directive, and every counter.
    /// [`ServerEndpoint::from_state`] must rebuild an endpoint that is
    /// bit-identical going forward.
    ///
    /// # Panics
    /// Panics when a tick is in progress: a sync was applied since the last
    /// [`ServerEndpoint::advance`] (or [`Consumer::estimate`]). A capture is
    /// taken at a tick boundary.
    pub fn state(&self) -> EndpointState {
        assert!(
            !self.predicted,
            "ServerEndpoint::state captures at a tick boundary, not mid-tick"
        );
        self.protocol.state(&self.filter)
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
        let protocol = ProtocolHalf {
            syncs_applied: Counter::from(syncs_applied),
            decode_failures: Counter::from(decode_failures),
            predict_failures: Counter::from(predict_failures),
            last_seq,
            ack_due,
            bound_due,
            bounds_sent: Counter::from(bounds_sent),
            delivery,
        };
        Ok(ServerEndpoint::from_halves(filter, protocol))
    }

    /// Closes one tick: predicts when no sync arrived this tick (the
    /// tick's first sync ran the predict already) — [`Consumer::estimate`]'s
    /// transition without serving a value. With the deliveries before it,
    /// a tick is predict, then the tick's syncs in arrival order: the
    /// transition an ingest shard makes with its lanes, so ingest stays
    /// bit-compatible with the simulator path.
    pub fn advance(&mut self) {
        if !std::mem::take(&mut self.predicted) {
            self.predict();
        }
    }

    /// Applies one admitted sync within the current tick, running the
    /// tick's predict first if no sync has yet.
    fn deliver(&mut self, msg: SyncRef<'_>) {
        if !self.predicted {
            self.predict();
            self.predicted = true;
        }
        self.apply_view(msg);
    }

    /// The predict step of a tick: one filter predict, a failure counted.
    pub(crate) fn predict(&mut self) {
        if self.filter.predict().is_err() {
            self.protocol.predict_failures += 1;
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
    /// Receiver-side delivery accounting (stale drops, gaps).
    pub delivery: DeliveryStats,
}

/// Applies a sync to a filter, returning whether it was accepted — the one
/// definition of what a sync *does*, shared by the server's filter and the
/// source's shadow of it (which is what keeps the two bit-identical). A
/// State sync goes from the viewed bytes into the filter's own storage, a
/// Measurement sync through an inline `Vector` on the stack; only a Model
/// sync, which replaces the filter, builds values.
pub(crate) fn apply_sync(filter: &mut KalmanFilter, msg: SyncRef<'_>) -> bool {
    match msg {
        SyncRef::State { x, p } => filter.set_state_packed(x.iter(), p.iter()).is_ok(),
        SyncRef::Model(model) => model_filter(model).map(|kf| *filter = kf).is_some(),
        SyncRef::Measurement { z } => filter.update(&z.to_vector()).is_ok(),
    }
}

/// The filter a Model sync installs — its model, state and covariance,
/// shape-checked once by [`KalmanFilter::with_covariance`], in the default
/// covariance form — or `None` when they make no filter and the sync is
/// refused. The ingest shard writes it onto the stream's lane.
pub(crate) fn model_filter(model: ModelRef<'_>) -> Option<KalmanFilter> {
    let (model, x, p) = model.to_owned();
    KalmanFilter::with_covariance(model, x, p).ok()
}

impl Consumer for ServerEndpoint {
    fn dim(&self) -> usize {
        self.filter.model().measurement_dim()
    }

    fn receive(&mut self, _now: Tick, payload: &Bytes) {
        match WireRef::parse(payload) {
            Ok(msg) => self.enqueue_view(msg),
            Err(_) => self.protocol.decode_failures += 1,
        }
    }

    fn estimate(&mut self, _now: Tick, out: &mut [f64]) {
        // Predict first, then apply corrections — the exact order the
        // source's shadow uses, which is what makes the two bit-identical.
        // The tick's syncs were applied on delivery, after its predict.
        self.advance();
        let z_hat = self.filter.predicted_measurement();
        out[..z_hat.dim()].copy_from_slice(z_hat.as_slice());
    }

    fn poll_feedback(&mut self, _now: Tick) -> Option<Bytes> {
        self.protocol.poll_feedback()
    }

    fn delivery_stats(&self) -> DeliveryStats {
        self.delivery()
    }

    fn served_variance(&self) -> Option<f64> {
        Some(self.served_variance())
    }
}

impl Instrument for ServerEndpoint {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("syncs_applied", self.protocol.syncs_applied);
        scope.counter("decode_failures", self.protocol.decode_failures);
        scope.counter("predict_failures", self.protocol.predict_failures);
        scope.counter("bounds_sent", self.protocol.bounds_sent);
        scope.counter("last_seq", self.protocol.last_seq);
        scope.counter("staleness", self.staleness());
        scope.observe("delivery", &self.protocol.delivery);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SyncMessage;
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
        s.enqueue_wire(WireMessage::Sync { seq: None, msg });
        assert_eq!(s.syncs_applied(), 0);
    }

    #[test]
    fn an_over_cap_model_sync_is_refused_by_server_and_shadow_alike() {
        // One state seen through five measurement rows: the wire carries
        // it, but no filter admits a measurement wider than 4.
        let wide = StateModel::new(
            "wide",
            Matrix::identity(1),
            Matrix::scalar(1, 0.01),
            Matrix::from_row_major(5, 1, vec![1.0; 5]),
            Matrix::scalar(5, 0.25),
        )
        .unwrap();
        let bytes = SyncMessage::Model {
            model: Box::new(wide),
            x: Vector::from_slice(&[3.0]),
            p: Matrix::scalar(1, 0.5),
        }
        .encode();
        let bits = |kf: &KalmanFilter| {
            let values = kf.state().iter().chain(kf.covariance().as_slice());
            values.map(|v| v.to_bits()).collect::<Vec<_>>()
        };

        let mut s = server();
        s.estimate(0, &mut [0.0]);
        let before = s.filter().clone();
        let view = SyncRef::parse(&bytes).expect("the wire takes an m = 5 model");
        assert!(!s.apply_view(view));
        assert_eq!(s.syncs_applied(), 0);
        assert_eq!(bits(s.filter()), bits(&before));
        assert_eq!(s.filter().model(), before.model());

        // The source's shadow applies syncs through the same function.
        let mut shadow = before.clone();
        assert!(!apply_sync(&mut shadow, SyncRef::parse(&bytes).unwrap()));
        assert_eq!(bits(&shadow), bits(&before));
        assert_eq!(shadow.model(), before.model());
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
        s.receive(1, &state(7.0).encode());
        s.estimate(1, &mut out);

        // ...then roundtrip and compare the frozen state.
        let snap = s.state();
        let mut r = ServerEndpoint::from_state(snap.clone()).expect("rebuild");
        assert_eq!(bits(s.filter()), bits(r.filter()));
        assert_eq!(r.state(), snap, "re-capture reproduces the snapshot");

        // The two must stay bit-identical through future traffic: deliver,
        // advance, poll feedback.
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
    fn protocol_half_stays_small() {
        // Footprint guard: the one record an ingest shard keeps per stream
        // besides its lane, walked on every admit.
        assert!(
            std::mem::size_of::<ProtocolHalf>() <= 80,
            "ProtocolHalf grew to {} bytes",
            std::mem::size_of::<ProtocolHalf>()
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
                    s.enqueue_wire(WireMessage::Sync {
                        seq: None,
                        msg: SyncMessage::Measurement {
                            z: Vector::filled(m, t as f64),
                        },
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
            SyncMessage::Measurement { z } => filter.update(&z).is_ok(),
        }
    }

    /// Five ticks of traffic covering every delivery behaviour: mixed kinds
    /// in one tick, stale/duplicate/gapped sequence numbers, 301 arrivals
    /// in one tick, syncs the filter refuses, and a Model sync too wide to
    /// encode on the stack (an 8-state AR model, `F` alone 512 bytes).
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
            (0..300)
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
            vec![sync(
                Some(14),
                SyncMessage::Model {
                    model: Box::new(
                        models::ar(&[0.3, 0.2, 0.1, 0.05, 0.05, 0.04, 0.03, 0.02], 0.02, 0.1)
                            .unwrap(),
                    ),
                    x: Vector::filled(8, 0.5),
                    p: Matrix::scalar(8, 1.0),
                },
            )],
        ]
    }

    fn cv_server() -> ServerEndpoint {
        let model = models::constant_velocity(1.0, 0.05, 0.1);
        ServerEndpoint::new(KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap())
    }

    #[test]
    fn view_path_matches_owned_application_in_bits_and_counters() {
        let mut viewed = cv_server(); // wire bytes in, applied on delivery
        let mut owned = cv_server(); // owned messages through `enqueue_wire`
        let mut reference = cv_server().filter().clone(); // owned values, no endpoint
        let (mut last_seq, mut stale, mut gaps, mut failures, mut syncs) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut out = [0.0];
        for (t, tick) in scripted_traffic().into_iter().enumerate() {
            let t = t as u64;
            // What the sequence layer lets through, by hand.
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
            for wire in tick {
                viewed.receive(t, &wire.encode());
                owned.enqueue_wire(wire);
            }
            if t == 2 {
                // A payload that does not parse is counted, not applied.
                viewed.receive(t, &Bytes::from_static(b"\x01\x02garbage"));
                owned.protocol.decode_failures += 1;
                failures += 1;
            }
            let _ = reference.predict();
            for msg in accepted {
                syncs += u64::from(apply_owned(&mut reference, msg));
            }
            assert_eq!(
                bits(viewed.filter()),
                bits(owned.filter()),
                "tick {t}, delivered"
            );
            assert_eq!(
                bits(viewed.filter()),
                bits(&reference),
                "tick {t}, delivered"
            );

            viewed.estimate(t, &mut out);
            owned.advance();
            assert_eq!(viewed.state(), owned.state(), "tick {t}, advanced");
            assert_eq!(bits(viewed.filter()), bits(&reference), "tick {t}");
            assert_eq!(viewed.filter().model(), reference.model());
            assert_eq!(viewed.staleness(), reference.steps_since_update());
            assert_eq!(viewed.syncs_applied(), syncs);
            assert_eq!(viewed.poll_feedback(t), owned.poll_feedback(t));
        }
        assert_eq!(viewed.last_seq(), last_seq);
        assert_eq!(viewed.decode_failures(), failures);
        let delivery = viewed.delivery();
        assert_eq!((delivery.stale_drops, delivery.seq_gaps), (stale, gaps));
        // The script really did exercise each behaviour.
        assert!(stale == 2 && gaps == 3 && failures == 2);
        assert_eq!(viewed.filter().model().name(), "ar");
        assert!(syncs < 5 + 2 + 301 + 3 + 1, "refused syncs counted");
    }

    #[test]
    fn barrier_snapshot_of_a_view_fed_endpoint_resumes_bit_identically() {
        let traffic = scripted_traffic();
        let mut live = cv_server();
        let mut out = [[0.0]; 2];
        for wire in &traffic[0] {
            live.receive(0, &wire.encode());
        }
        live.estimate(0, &mut out[0]);
        // Five syncs of three kinds applied, the tick closed: snapshot here.
        let snap = live.state();
        assert_eq!(snap.syncs_applied, 5);
        let mut restored = ServerEndpoint::from_state(snap.clone()).expect("rebuild");
        assert_eq!(restored.state(), snap, "re-capture reproduces the snapshot");
        for (t, tick) in traffic.iter().enumerate().skip(1) {
            for wire in tick {
                live.receive(t as u64, &wire.encode());
                restored.receive(t as u64, &wire.encode());
            }
            live.estimate(t as u64, &mut out[0]);
            restored.estimate(t as u64, &mut out[1]);
            assert_eq!(out[0][0].to_bits(), out[1][0].to_bits());
            assert_eq!(live.state(), restored.state(), "tick {t}");
        }
    }

    #[test]
    #[should_panic(expected = "tick boundary")]
    fn state_panics_mid_tick() {
        let mut s = server();
        s.receive(0, &state(1.0).encode());
        let _ = s.state();
    }

    #[test]
    fn disagreeing_owned_message_is_dropped_uncounted() {
        // Hand-built: a 2-state `x` with a 3×3 `P` encodes to bytes no
        // decoder accepts. Like any sync the filter would refuse, it is not
        // applied.
        let unsequenced = |msg| WireMessage::Sync { seq: None, msg };
        let mut s = cv_server();
        s.enqueue_wire(unsequenced(SyncMessage::State {
            x: Vector::zeros(2),
            p: Matrix::scalar(3, 1.0),
        }));
        s.enqueue_wire(unsequenced(state(1.0))); // 1-state: refused by the 2-state filter
        s.advance();
        assert_eq!(s.syncs_applied(), 0);
        assert_eq!(s.decode_failures(), 0, "dropped uncounted");
        assert_eq!(s.staleness(), 1, "the tick predicted once");
    }
}
