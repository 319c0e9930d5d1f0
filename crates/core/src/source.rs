//! The source endpoint: suppression decisions and sync construction.

use bytes::Bytes;
use kalstream_filter::KalmanFilter;
use kalstream_linalg::{Vector, VECTOR_INLINE_CAP};
use kalstream_obs::{Counter, Instrument, Scope};
use kalstream_sim::{Producer, Tick};

use crate::protocol::{pin_into, AckTracker};
use crate::server::apply_sync;
use crate::wire::{self, SyncMessage, SyncRef, WireRef, SEQ_HEADER_BYTES};
use crate::{Estimator, ProtocolConfig, RateEstimator, ResyncPayload};

/// Fraction of δ a sync's shipped state may leave as measurement residual:
/// the largest value (most smoothing preserved) that still guarantees the
/// served value is strictly within δ at the sync tick. Applies only to
/// isolated syncs; consecutive syncs pin fully (see `build_sync`).
const PIN_FRACTION: f64 = 0.9;

/// The stream-source side of the suppression protocol.
///
/// Owns two filters:
///
/// * the **local estimator** ([`Estimator`]), fed every measurement — the
///   best available model of the stream;
/// * the **shadow filter**, a bit-identical replica of the server's filter,
///   which sees only what the server sees (predictions plus sync
///   corrections).
///
/// Every tick the shadow predicts one step, exactly as the server will, and
/// the source compares that prediction against the fresh measurement. Within
/// `δ`: transmit nothing. Beyond `δ` (or on heartbeat): cut a sync message
/// from the local estimator, apply it to the shadow, and transmit it.
#[derive(Debug, Clone)]
pub struct SourceEndpoint {
    estimator: Estimator,
    shadow: KalmanFilter,
    config: ProtocolConfig,
    rate: RateEstimator,
    ticks_since_sync: u64,
    /// `true` when the previous tick also synced — the signal that the
    /// local posterior is persistently lagging and partial pinning would
    /// leave the server chronically `PIN_FRACTION·δ` behind.
    synced_last_tick: bool,
    syncs: Counter,
    estimator_failures: Counter,
    /// Observations rejected before touching any filter: short slices and
    /// non-finite values (NaN/∞) — each would otherwise poison the
    /// estimator, the shadow, and the rate window.
    rejected_measurements: Counter,
    /// Sequence/ack bookkeeping for loss recovery (idle when
    /// `config.ack_timeout` is `None`).
    acks: AckTracker,
    /// Forced full resyncs cut because the newest sync went unacked past
    /// the configured timeout.
    resyncs: Counter,
    /// Seq of the first unconfirmed Model-bearing sync. A cumulative ack is
    /// only sound for payloads every sync fully re-conveys; the model is
    /// not one — a State sync acked *after* a dropped Model sync would
    /// reconcile `x`/`P` while the server kept evolving them under stale
    /// dynamics. So once a Model sync is cut, every subsequent sync carries
    /// the model too until an ack for any of those seqs arrives.
    unconfirmed_model_seq: Option<u64>,
    /// Reverse-channel payloads that failed to decode as acks.
    feedback_failures: Counter,
    /// Bound directives received on the reverse channel and applied.
    bound_directives: Counter,
    /// Scratch measurement vector (hot-path allocation avoidance).
    z: Vector,
    /// The sync being sent, as wire bytes: [`SEQ_HEADER_BYTES`] kept free
    /// for a sequence header, then the body `build_sync` encoded this tick.
    /// The shadow is corrected from a view of these bytes and the payload
    /// is a copy of them, so what the server will apply is what the shadow
    /// applied. Capacity is kept: a sent tick allocates its payload only.
    wire: Vec<u8>,
}

impl SourceEndpoint {
    /// Creates the source side. `server_filter` must be the exact filter the
    /// paired [`crate::ServerEndpoint`] starts with —
    /// [`crate::StreamSession`] guarantees this pairing.
    pub(crate) fn new(
        estimator: Estimator,
        server_filter: KalmanFilter,
        config: ProtocolConfig,
    ) -> Self {
        let m = server_filter.model().measurement_dim();
        SourceEndpoint {
            estimator,
            shadow: server_filter,
            config,
            rate: RateEstimator::new(512),
            ticks_since_sync: 0,
            synced_last_tick: false,
            syncs: Counter::new(),
            estimator_failures: Counter::new(),
            rejected_measurements: Counter::new(),
            acks: AckTracker::new(),
            resyncs: Counter::new(),
            unconfirmed_model_seq: None,
            feedback_failures: Counter::new(),
            bound_directives: Counter::new(),
            z: Vector::zeros(m),
            wire: Vec::new(),
        }
    }

    /// Sync messages sent so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.get()
    }

    /// Times the local estimator diverged: a failed step, after which it
    /// was reset, or a failed predict through a rejected observation
    /// (should be 0 in healthy runs; failure-injection tests exercise it).
    pub fn estimator_failures(&self) -> u64 {
        self.estimator_failures.get()
    }

    /// Observations rejected as unusable (short slice or non-finite value)
    /// before reaching any filter.
    pub fn rejected_measurements(&self) -> u64 {
        self.rejected_measurements.get()
    }

    /// Forced full resyncs triggered by the ack timeout.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.get()
    }

    /// Reverse-channel payloads that failed to decode as acks.
    pub fn feedback_failures(&self) -> u64 {
        self.feedback_failures.get()
    }

    /// Bound directives received over the feedback link and applied via
    /// [`SourceEndpoint::set_delta`].
    pub fn bound_directives(&self) -> u64 {
        self.bound_directives.get()
    }

    /// Highest cumulative ack received from the server (0 before the
    /// first, or when recovery is disabled).
    pub fn acked_seq(&self) -> u64 {
        self.acks.last_acked()
    }

    /// The shadow filter itself — invariant tests compare its bits against
    /// the paired server's filter.
    pub fn shadow_filter(&self) -> &KalmanFilter {
        &self.shadow
    }

    /// The live message-rate estimator (consumed by the allocation layer).
    pub fn rate_estimator(&self) -> &RateEstimator {
        &self.rate
    }

    /// The local estimator (read access for diagnostics).
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// The shadow filter's current predicted measurement — what the source
    /// believes the server is serving right now. Diagnostics and invariant
    /// tests compare this against the actual server output (they must be
    /// bit-identical at zero latency).
    pub fn shadow_prediction(&self) -> Vector {
        self.shadow.predicted_measurement()
    }

    /// Scalar convenience over [`SourceEndpoint::shadow_prediction`].
    pub fn shadow_predicted_value(&self) -> f64 {
        self.shadow.predicted_measurement()[0]
    }

    /// Current precision bound.
    pub fn delta(&self) -> f64 {
        self.config.delta
    }

    /// Retunes the precision bound mid-session — the hook the fleet
    /// allocation controller uses when it reassigns budgets.
    ///
    /// Only future suppression decisions change; no message is sent. A
    /// *tightened* bound takes effect at the next tick's check.
    pub fn set_delta(&mut self, delta: f64) {
        if delta > 0.0 && delta.is_finite() {
            self.config.delta = delta;
        }
    }

    /// One suppression decision, returning the sync (if one was cut) as an
    /// owned value. Exposed for protocol-level tests; the simulator calls the
    /// same decision through the [`Producer`] impl, which never builds the
    /// value.
    pub fn decide(&mut self, observed: &[f64]) -> Option<SyncMessage> {
        self.decide_view(observed).map(|sync| sync.to_owned())
    }

    /// One suppression decision. A sync, when one is cut, is encoded into
    /// `self.wire` and returned as a view of it.
    fn decide_view(&mut self, observed: &[f64]) -> Option<SyncRef<'_>> {
        let m = self.z.dim();

        // 0. Reject unusable observations — a short slice or a non-finite
        //    value — before they touch any filter. A NaN fed through would
        //    make the innovation norm NaN, the suppression test permanently
        //    false, and the source would then sync NaN state every tick.
        //    Both filters still predict: the shadow because the server
        //    predicts every tick regardless of what the source observed, so
        //    the pair stays in lock-step; the estimator so that it stays on
        //    the stream's clock instead of falling a step behind.
        if observed.len() < m || observed[..m].iter().any(|v| !v.is_finite()) {
            self.rejected_measurements += 1;
            if self.estimator.predict().is_err() {
                self.estimator_failures += 1;
            }
            let _ = self.shadow.predict();
            self.ticks_since_sync += 1;
            self.synced_last_tick = false;
            self.acks.tick();
            return None;
        }
        self.z.as_mut_slice().copy_from_slice(&observed[..m]);

        // 1. Feed the local estimator. A diverged estimator is reset to the
        //    measurement rather than poisoning the session.
        if self.estimator.step(&self.z).is_err() {
            self.estimator_failures += 1;
            let h = self.estimator.active_model().h();
            let origin = [0.0; VECTOR_INLINE_CAP];
            let mut pinned = Vector::zeros(h.cols());
            // An unpinnable model (rank-deficient H) resets to the origin.
            let _ = pin_into(
                &origin[..h.cols()],
                h,
                self.z.as_slice(),
                pinned.as_mut_slice(),
            );
            let _ = self.estimator.reset_to(pinned, 1.0);
        }

        // 2. Advance the shadow exactly as the server will this tick.
        let shadow_healthy = self.shadow.predict().is_ok();

        // 3. Suppression test. The ack tracker ages one tick first so that
        //    "unacked for t ticks" counts decision ticks, and a sync whose
        //    ack is outstanding past the timeout forces a resync even when
        //    the prediction currently holds — the shadow applied that sync,
        //    the server (probably) never saw it, and only a full overwrite
        //    re-converges the two.
        self.acks.tick();
        let resync_due = self
            .config
            .ack_timeout
            .is_some_and(|t| self.acks.overdue(t));
        let err = self.shadow.innovation_norm(&self.z);
        self.rate.record(err);
        let heartbeat_due = self
            .config
            .heartbeat
            .is_some_and(|h| self.ticks_since_sync + 1 >= h);
        if err <= self.config.delta && !heartbeat_due && !resync_due && shadow_healthy {
            self.ticks_since_sync += 1;
            self.synced_last_tick = false;
            return None;
        }

        // 4. Cut a sync from the local estimator and mirror it onto the
        //    shadow. A timeout-triggered resync ships the full model: the
        //    server may have missed an earlier Model sync, so state alone
        //    might be interpreted under the wrong dynamics.
        if resync_due {
            self.resyncs += 1;
        }
        self.build_sync(resync_due || self.unconfirmed_model_seq.is_some());
        let sync = SyncRef::parse(&self.wire[SEQ_HEADER_BYTES..])
            .expect("build_sync encodes a well-formed body");
        apply_sync(&mut self.shadow, sync);
        self.ticks_since_sync = 0;
        self.synced_last_tick = true;
        self.syncs += 1;
        Some(sync)
    }

    /// Encodes this tick's sync body into `self.wire`, behind the bytes
    /// reserved for a sequence header: the state pinned on the stack, `P`
    /// (and, for a Model sync, the model) read where the estimator keeps
    /// them.
    fn build_sync(&mut self, force_model: bool) {
        self.wire.clear();
        self.wire.resize(SEQ_HEADER_BYTES, 0);
        if self.config.resync == ResyncPayload::MeasurementOnly {
            wire::put_measurement(&mut self.wire, self.z.as_slice());
            return;
        }
        let active = self.estimator.active();
        let model = active.model();
        // The shipped state must serve a value within δ of the observation
        // *at this tick*, but pinning it all the way onto the (noisy)
        // measurement would anchor the server to one noise draw and throw
        // away the filter's smoothing — under heavy sensor noise that
        // degenerates into value caching. So pin conditionally: ship the
        // smoothed posterior untouched when its measurement residual is
        // already within the pin target, otherwise move it just far enough
        // along the minimum-norm correction to reach the target. The target
        // is 0.9·δ: as close to the smoothed estimate as the guarantee
        // allows, with a 10% margin against rounding.
        let posterior = active.state().as_slice();
        let resid = active.innovation_norm(&self.z);
        // Partial pinning assumes the smoothed posterior is a *better*
        // anchor than the raw measurement. When syncs come back to back the
        // posterior is demonstrably lagging (e.g. an unmodelled trend with a
        // mis-adapted filter), and a partial pin would park the server a
        // constant PIN_FRACTION·δ behind the signal — paying one message
        // per tick forever. Back-to-back syncs therefore pin fully.
        let target = if self.synced_last_tick {
            0.0
        } else {
            PIN_FRACTION * self.config.delta
        };
        // A filter's state is within the inline cap, so `x` fits the stack.
        let mut x = [0.0; VECTOR_INLINE_CAP];
        let x = &mut x[..posterior.len()];
        if resid <= target || pin_into(posterior, model.h(), self.z.as_slice(), x).is_err() {
            x.copy_from_slice(posterior);
        } else if target != 0.0 {
            // The pinned residual is 0 and the correction is linear, so
            // blending with weight α leaves residual (1−α)·resid.
            let alpha = 1.0 - target / resid;
            for (x_i, posterior_i) in x.iter_mut().zip(posterior) {
                let delta_x = *x_i - posterior_i;
                *x_i = posterior_i + alpha * delta_x;
            }
        }
        // A Model sync is several times the size of a State sync, so it is
        // sent only on *structural* change (F or H): the served value is
        // `H Fᵏ x`, which never reads Q or R. Adaptive Q/R re-estimates
        // therefore ride along in ordinary State syncs implicitly — the
        // server's Q/R go stale, which affects only its uncertainty
        // metadata, not the values it serves (and the shadow mirrors the
        // same staleness, so determinism holds). The model the server runs
        // is the shadow's: a Model sync hands both the same one.
        let synced = self.shadow.model();
        let structural_change = model.f() != synced.f() || model.h() != synced.h();
        if structural_change || force_model {
            wire::put_model(&mut self.wire, model, x, active.covariance());
        } else {
            wire::put_state(&mut self.wire, x, active.covariance());
        }
    }
}

impl Producer for SourceEndpoint {
    fn dim(&self) -> usize {
        self.z.dim()
    }

    fn observe(&mut self, _now: Tick, observed: &[f64]) -> Option<Bytes> {
        let is_model = matches!(self.decide_view(observed)?, SyncRef::Model(_));
        let payload = if self.config.ack_timeout.is_some() {
            let seq = self.acks.on_send();
            if is_model && self.unconfirmed_model_seq.is_none() {
                self.unconfirmed_model_seq = Some(seq);
            }
            self.wire[..SEQ_HEADER_BYTES].copy_from_slice(&wire::seq_header(seq));
            &self.wire[..]
        } else {
            &self.wire[SEQ_HEADER_BYTES..]
        };
        Some(Bytes::copy_from_slice(payload))
    }

    fn feedback(&mut self, _now: Tick, payload: &Bytes) {
        match WireRef::parse(payload) {
            Ok(WireRef::Ack { seq }) => {
                self.acks.on_ack(seq);
                // Every sync sent since `unconfirmed_model_seq` carried the
                // model, so an ack at or past it proves the server applied
                // one of them and now runs the shadow's dynamics.
                if self
                    .unconfirmed_model_seq
                    .is_some_and(|m| self.acks.last_acked() >= m)
                {
                    self.unconfirmed_model_seq = None;
                }
            }
            // A downstream-propagated precision bound: the decoder already
            // guarantees `delta` is finite and positive, so `set_delta`
            // always accepts it.
            Ok(WireRef::Bound { delta }) => {
                self.set_delta(delta);
                self.bound_directives += 1;
            }
            _ => self.feedback_failures += 1,
        }
    }
}

impl Instrument for SourceEndpoint {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("syncs", self.syncs);
        scope.counter("estimator_failures", self.estimator_failures);
        scope.counter("rejected_measurements", self.rejected_measurements);
        scope.counter("resyncs", self.resyncs);
        scope.counter("feedback_failures", self.feedback_failures);
        scope.counter("bound_directives", self.bound_directives);
        scope.counter("acked_seq", self.acks.last_acked());
        scope.gauge("delta", self.delta());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMessage;
    use kalstream_filter::models;

    fn source(delta: f64) -> SourceEndpoint {
        let model = models::random_walk(0.01, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        SourceEndpoint::new(
            Estimator::Fixed(kf.clone()),
            kf,
            ProtocolConfig::new(delta).unwrap(),
        )
    }

    #[test]
    fn static_stream_is_suppressed_after_lockin() {
        let mut s = source(0.5);
        let mut sent = 0;
        for _ in 0..200 {
            if s.decide(&[1.0]).is_some() {
                sent += 1;
            }
        }
        assert!(sent <= 3, "sent {sent} messages for a constant stream");
        assert_eq!(s.syncs(), sent);
    }

    #[test]
    fn jump_triggers_exactly_one_sync() {
        let mut s = source(0.5);
        for _ in 0..50 {
            s.decide(&[0.0]);
        }
        let before = s.syncs();
        assert!(s.decide(&[10.0]).is_some());
        assert_eq!(s.syncs(), before + 1);
        // And the shadow is now pinned to the new level: next tick is quiet.
        assert!(s.decide(&[10.0]).is_none());
    }

    #[test]
    fn tighter_delta_sends_more() {
        let trace: Vec<f64> = (0..500).map(|t| (t as f64 * 0.1).sin() * 3.0).collect();
        let mut loose = source(1.0);
        let mut tight = source(0.1);
        for &v in &trace {
            loose.decide(&[v]);
            tight.decide(&[v]);
        }
        assert!(tight.syncs() > loose.syncs());
    }

    #[test]
    fn heartbeat_forces_syncs() {
        let model = models::random_walk(0.01, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        let config = ProtocolConfig::new(100.0)
            .unwrap()
            .with_heartbeat(10)
            .unwrap();
        let mut s = SourceEndpoint::new(Estimator::Fixed(kf.clone()), kf, config);
        for _ in 0..100 {
            s.decide(&[0.0]);
        }
        // δ=100 would never trigger; 100 ticks / heartbeat 10 ⇒ ≥ 9 syncs.
        assert!(s.syncs() >= 9, "syncs {}", s.syncs());
    }

    #[test]
    fn state_syncs_are_pinned_within_half_delta() {
        let mut s = source(0.5);
        for _ in 0..20 {
            s.decide(&[0.0]);
        }
        let msg = s.decide(&[7.0]).expect("jump must sync");
        match msg {
            SyncMessage::State { x, .. } => {
                // The filter posterior after a 0→7 jump lags far behind 7;
                // conditional pinning must pull the shipped state to within
                // δ/2 of the observation (and no further).
                let resid = (x[0] - 7.0).abs();
                assert!(
                    resid <= 0.45 + 1e-9,
                    "residual {resid} exceeds the pin target"
                );
                assert!(resid >= 0.45 - 1e-9, "over-pinned: residual {resid}");
            }
            other => panic!("expected State sync, got {other:?}"),
        }
    }

    #[test]
    fn smooth_posterior_is_shipped_unpinned() {
        // When the posterior already sits within δ/2 of the observation the
        // sync must ship it untouched (preserving smoothing under noise).
        let mut s = source(0.5);
        for _ in 0..50 {
            s.decide(&[1.0]);
        }
        // Posterior ≈ 1.0; a 1.6 observation triggers (pred err 0.6 > 0.5).
        // The filter posterior moves partway toward 1.6; it lands within the
        // 0.45 pin target, so it must be shipped untouched rather than
        // overwritten by the raw measurement.
        let msg = s.decide(&[1.6]).expect("0.6 jump must sync at delta 0.5");
        match msg {
            SyncMessage::State { x, .. } => {
                let resid = (x[0] - 1.6).abs();
                assert!(resid <= 0.45 + 1e-9, "guarantee broken: resid {resid}");
                assert!(
                    x[0] < 1.6 - 1e-6,
                    "posterior was overwritten by the raw measurement"
                );
            }
            other => panic!("expected State sync, got {other:?}"),
        }
    }

    #[test]
    fn measurement_only_mode_ships_measurements() {
        let model = models::random_walk(0.01, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        let config = ProtocolConfig::new(0.5)
            .unwrap()
            .with_resync(ResyncPayload::MeasurementOnly);
        let mut s = SourceEndpoint::new(Estimator::Fixed(kf.clone()), kf, config);
        let msg = s.decide(&[7.0]).expect("jump must sync");
        assert!(matches!(msg, SyncMessage::Measurement { .. }));
    }

    #[test]
    fn endpoint_stays_small() {
        // Footprint guard: 512 of these are walked every tick. The source
        // holds the estimator and the shadow and nothing else model-sized —
        // the model the server runs is the shadow's own, not a third copy.
        assert!(
            std::mem::size_of::<SourceEndpoint>() <= 7168,
            "SourceEndpoint grew to {} bytes",
            std::mem::size_of::<SourceEndpoint>()
        );
    }

    #[test]
    fn model_change_ships_model_sync() {
        use kalstream_filter::{BankConfig, ModelBank};
        let walk =
            KalmanFilter::new(models::random_walk(0.01, 0.05), Vector::zeros(1), 1.0).unwrap();
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.01, 0.05),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        let bank = ModelBank::new(vec![walk.clone(), cv], BankConfig::default()).unwrap();
        let mut s = SourceEndpoint::new(
            Estimator::Bank(bank),
            walk,
            ProtocolConfig::new(0.5).unwrap(),
        );
        let mut saw_model_sync = false;
        for t in 0..400 {
            if let Some(SyncMessage::Model { model, .. }) = s.decide(&[t as f64 * 0.8]) {
                assert_eq!(model.name(), "constant_velocity");
                saw_model_sync = true;
            }
        }
        assert!(saw_model_sync, "bank switch never propagated to the wire");
    }

    #[test]
    fn set_delta_changes_behaviour() {
        let trace: Vec<f64> = (0..400).map(|t| (t as f64 * 0.2).sin() * 5.0).collect();
        let mut s = source(5.0);
        for &v in &trace[..200] {
            s.decide(&[v]);
        }
        let loose_phase = s.syncs();
        s.set_delta(0.05);
        for &v in &trace[200..] {
            s.decide(&[v]);
        }
        let tight_phase = s.syncs() - loose_phase;
        assert!(
            tight_phase > loose_phase,
            "loose {loose_phase} tight {tight_phase}"
        );
        // Invalid deltas are ignored.
        s.set_delta(-1.0);
        assert_eq!(s.delta(), 0.05);
    }

    #[test]
    fn producer_impl_encodes_decisions() {
        let mut s = source(0.5);
        let bytes = s.observe(0, &[9.0]).expect("first jump syncs");
        let msg = SyncMessage::decode(&bytes).unwrap();
        assert!(matches!(msg, SyncMessage::State { .. }));
        assert_eq!(Producer::dim(&s), 1);
    }

    fn recovering_source(delta: f64, timeout: u64) -> SourceEndpoint {
        let model = models::random_walk(0.01, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        let config = ProtocolConfig::new(delta)
            .unwrap()
            .with_ack_timeout(timeout)
            .unwrap();
        SourceEndpoint::new(Estimator::Fixed(kf.clone()), kf, config)
    }

    #[test]
    fn short_measurement_slice_is_rejected_not_fatal() {
        // Pre-fix regression: `decide(&[])` panicked in copy_from_slice.
        let mut s = source(0.5);
        assert_eq!(s.decide(&[]), None);
        assert_eq!(s.rejected_measurements(), 1);
        // The session continues normally afterwards.
        assert!(s.decide(&[9.0]).is_some());
    }

    #[test]
    fn non_finite_measurements_are_rejected_before_any_filter() {
        // Pre-fix regression: one NaN made the suppression test permanently
        // false (NaN ≤ δ is false), so the source synced NaN state every
        // tick and poisoned the rate window.
        let mut s = source(0.5);
        for _ in 0..20 {
            s.decide(&[1.0]);
        }
        let syncs_before = s.syncs();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(s.decide(&[bad]), None, "bad observation must not sync");
        }
        assert_eq!(s.rejected_measurements(), 3);
        assert_eq!(s.syncs(), syncs_before);
        // Shadow stayed finite and the session resumes cleanly.
        assert!(s.shadow_predicted_value().is_finite());
        assert!(
            s.decide(&[1.0]).is_none(),
            "prediction still holds after rejects"
        );
        assert_eq!(
            s.rate_estimator().rejected(),
            0,
            "NaN never reached the window"
        );
    }

    #[test]
    fn rejected_tick_keeps_shadow_in_lockstep_with_server() {
        // The server predicts every tick no matter what the source observed;
        // a rejected observation must advance the shadow identically.
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.01, 0.05),
            Vector::from_slice(&[0.0, 1.0]),
            1.0,
        )
        .unwrap();
        let mut s = SourceEndpoint::new(
            Estimator::Fixed(cv.clone()),
            cv.clone(),
            ProtocolConfig::new(1e9).unwrap(), // never syncs
        );
        let mut server = cv;
        s.decide(&[f64::NAN]);
        server.predict().unwrap();
        assert_eq!(
            s.shadow_prediction().as_slice(),
            server.predicted_measurement().as_slice(),
            "shadow must predict through a rejected tick"
        );
    }

    #[test]
    fn rejected_tick_keeps_the_estimator_on_the_stream_clock() {
        // Pre-fix regression: a rejected observation predicted the shadow
        // but not the estimator, which then ran a step behind the stream —
        // at t = 51 it read x = [50, 1] against [51, 1], at t = 52
        // [51.36, 1.08] against [52, 1] — and cut its next syncs from that.
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.01, 0.05),
            Vector::from_slice(&[0.0, 1.0]),
            1.0,
        )
        .unwrap();
        let mut s = SourceEndpoint::new(
            Estimator::Fixed(cv.clone()),
            cv.clone(),
            ProtocolConfig::new(0.5).unwrap(),
        );
        let mut reference = cv;
        for t in 0..=60 {
            if t == 51 {
                assert_eq!(s.decide(&[f64::NAN]), None);
                reference.predict().unwrap();
            } else {
                s.decide(&[t as f64]);
                reference.step(&Vector::from_slice(&[t as f64])).unwrap();
            }
            assert_eq!(s.estimator().active().state(), reference.state(), "t = {t}");
            assert_eq!(
                s.estimator().active().covariance(),
                reference.covariance(),
                "t = {t}"
            );
        }
        assert_eq!(s.rejected_measurements(), 1);
        assert_eq!(s.estimator_failures(), 0);
    }

    #[test]
    fn unacked_sync_forces_full_resync_after_timeout() {
        let mut s = recovering_source(0.5, 3);
        // Tick 0: jump → sequenced sync 1 (never acked: simulated loss).
        let bytes = s.observe(0, &[9.0]).expect("jump syncs");
        match WireMessage::decode(&bytes).unwrap() {
            WireMessage::Sync { seq, .. } => assert_eq!(seq, Some(1)),
            other => panic!("expected sequenced sync, got {other:?}"),
        }
        // Prediction holds for the next ticks, but the ack never arrives.
        assert!(s.observe(1, &[9.0]).is_none());
        assert!(s.observe(2, &[9.0]).is_none());
        let resync = s.observe(3, &[9.0]).expect("timeout must force a resync");
        match WireMessage::decode(&resync).unwrap() {
            WireMessage::Sync {
                seq: Some(2),
                msg: SyncMessage::Model { .. },
            } => {}
            other => panic!("expected full Model resync with seq 2, got {other:?}"),
        }
        assert_eq!(s.resyncs(), 1);
    }

    #[test]
    fn acked_sync_never_triggers_resync() {
        let mut s = recovering_source(0.5, 3);
        let _ = s.observe(0, &[9.0]).expect("jump syncs");
        s.feedback(0, &WireMessage::Ack { seq: 1 }.encode());
        for t in 1..50 {
            assert!(
                s.observe(t, &[9.0]).is_none(),
                "tick {t} resynced needlessly"
            );
        }
        assert_eq!(s.resyncs(), 0);
        assert_eq!(s.acked_seq(), 1);
    }

    #[test]
    fn repeated_loss_retries_until_acked() {
        let mut s = recovering_source(0.5, 2);
        let _ = s.observe(0, &[9.0]).expect("jump syncs");
        // Lose sync 1 and the first resync too.
        assert!(s.observe(1, &[9.0]).is_none());
        assert!(s.observe(2, &[9.0]).is_some(), "first resync");
        assert!(s.observe(3, &[9.0]).is_none());
        assert!(s.observe(4, &[9.0]).is_some(), "second resync");
        assert_eq!(s.resyncs(), 2);
        // Ack the latest: quiet from here on.
        s.feedback(4, &WireMessage::Ack { seq: 3 }.encode());
        for t in 5..30 {
            assert!(s.observe(t, &[9.0]).is_none());
        }
    }

    #[test]
    fn dropped_model_sync_is_recarried_until_acked() {
        // Pre-fix regression: a dropped Model resync followed by an acked
        // plain State sync cleared the outstanding window while the server
        // kept running the old dynamics — x reconciled, P (and for bank
        // switches the served values) diverged forever. The fix: once a
        // Model sync is cut, every later sync carries the model until one
        // of those seqs is acked.
        let decode = |bytes: &Bytes| match WireMessage::decode(bytes).unwrap() {
            WireMessage::Sync {
                seq: Some(seq),
                msg,
            } => (seq, msg),
            other => panic!("expected sequenced sync, got {other:?}"),
        };
        let mut s = recovering_source(0.5, 2);
        let (seq, msg) = decode(&s.observe(0, &[9.0]).expect("jump syncs"));
        assert_eq!(seq, 1);
        assert!(
            matches!(msg, SyncMessage::State { .. }),
            "no model change yet"
        );
        // Lose it; the timeout resync ships the model — lose that too.
        assert!(s.observe(1, &[9.0]).is_none());
        let (seq, msg) = decode(&s.observe(2, &[9.0]).expect("timeout resync"));
        assert_eq!(seq, 2);
        assert!(
            matches!(msg, SyncMessage::Model { .. }),
            "resync must carry the model"
        );
        // A natural sync while the model is unconfirmed must re-carry it.
        let (seq, msg) = decode(&s.observe(3, &[25.0]).expect("jump syncs"));
        assert_eq!(seq, 3);
        assert!(
            matches!(msg, SyncMessage::Model { .. }),
            "model still unconfirmed"
        );
        // Ack it: the server provably runs the shadow's dynamics now, so
        // the next sync shrinks back to State-only.
        s.feedback(3, &WireMessage::Ack { seq: 3 }.encode());
        let (seq, msg) = decode(&s.observe(4, &[40.0]).expect("jump syncs"));
        assert_eq!(seq, 4);
        assert!(
            matches!(msg, SyncMessage::State { .. }),
            "confirmed model rides no more"
        );
    }

    #[test]
    fn garbage_feedback_is_counted_not_fatal() {
        let mut s = recovering_source(0.5, 3);
        s.feedback(0, &Bytes::from_static(b"\xFFnot an ack"));
        // A sync on the reverse channel is equally invalid as feedback.
        s.feedback(
            0,
            &SyncMessage::Measurement {
                z: Vector::zeros(1),
            }
            .encode(),
        );
        assert_eq!(s.feedback_failures(), 2);
    }

    #[test]
    fn bound_directive_feedback_retunes_delta() {
        let mut s = source(0.5);
        s.feedback(0, &WireMessage::Bound { delta: 0.125 }.encode());
        assert_eq!(s.delta(), 0.125);
        assert_eq!(s.bound_directives(), 1);
        // A directive is valid feedback, not a failure.
        assert_eq!(s.feedback_failures(), 0);
    }

    #[test]
    fn bound_directive_works_alongside_acks() {
        // On a recovering source the reverse channel carries both acks and
        // bound directives; each must be dispatched to its own handler.
        let mut s = recovering_source(0.5, 3);
        let _ = s.observe(0, &[9.0]).expect("jump syncs");
        s.feedback(1, &WireMessage::Ack { seq: 1 }.encode());
        s.feedback(1, &WireMessage::Bound { delta: 0.25 }.encode());
        assert_eq!(s.acked_seq(), 1);
        assert_eq!(s.delta(), 0.25);
        assert_eq!(s.bound_directives(), 1);
        assert_eq!(s.feedback_failures(), 0);
    }

    #[test]
    fn recovery_off_encodes_legacy_unsequenced_bytes() {
        let mut s = source(0.5);
        let bytes = s.observe(0, &[9.0]).expect("jump syncs");
        assert!(SyncMessage::decode(&bytes).is_ok(), "must stay plain v2");
    }

    /// A dense, full-row-rank `n`-state, `m`-measurement model: every
    /// component leaks into the next so all of `x` and `P` move.
    fn dense_model(n: usize, m: usize) -> kalstream_filter::StateModel {
        use kalstream_linalg::Matrix;
        let mut f = Matrix::identity(n);
        for r in 0..n.saturating_sub(1) {
            f.set(r, r + 1, 0.5);
        }
        let mut h = Matrix::zeros(m, n);
        for j in 0..m {
            for k in 0..n {
                h.set(
                    j,
                    k,
                    if k == j {
                        1.0
                    } else {
                        0.125 / (1 + j + k) as f64
                    },
                );
            }
        }
        kalstream_filter::StateModel::new(
            "dense",
            f,
            Matrix::scalar(n, 0.02),
            h,
            Matrix::scalar(m, 0.05),
        )
        .unwrap()
    }

    /// The sync state as `build_sync` computed it before it pinned in
    /// place: allocating pin, `Vector` blend.
    fn oracle_sync_state(
        posterior: &Vector,
        h: &kalstream_linalg::Matrix,
        z: &Vector,
        resid: f64,
        target: f64,
    ) -> Vector {
        if resid <= target {
            return posterior.clone();
        }
        match crate::pin_to_measurement(posterior, h, z) {
            Ok(full_pin) if target == 0.0 => full_pin,
            Ok(full_pin) => {
                let alpha = 1.0 - target / resid;
                let mut x = posterior.clone();
                let delta_x = &full_pin - posterior;
                x.axpy(alpha, &delta_x).expect("same dimension");
                x
            }
            Err(_) => posterior.clone(),
        }
    }

    #[test]
    fn shipped_state_matches_the_allocating_pin_on_every_shape_and_branch() {
        let shapes = (1..=8usize)
            .filter(|n| n.is_power_of_two())
            .flat_map(|n| (1..=n.min(4)).map(move |m| (n, m)));
        let (mut unpinned, mut partial, mut full) = (0, 0, 0);
        for (n, m) in shapes {
            let kf = KalmanFilter::new(dense_model(n, m), Vector::zeros(n), 1.0).unwrap();
            let delta = 0.5;
            let mut s = SourceEndpoint::new(
                Estimator::Fixed(kf.clone()),
                kf,
                ProtocolConfig::new(delta).unwrap(),
            );
            let mut observed = vec![0.0; m];
            for t in 0..400u64 {
                // Slow drift (unpinned syncs), jumps (partial pins) and a
                // ramp too steep to track (back-to-back syncs, full pins).
                for (j, o) in observed.iter_mut().enumerate() {
                    let phase = t as f64 * 0.05 + j as f64;
                    *o = 0.6 * phase.sin()
                        + if t % 97 == 50 { 4.0 } else { 0.0 }
                        + if (200..260).contains(&t) {
                            (t - 200) as f64 * 0.9
                        } else {
                            0.0
                        };
                }
                // Replay the estimator on a clone to see what the sync was
                // cut from.
                let mut probe = s.clone();
                let z = Vector::from_slice(&observed);
                probe.estimator.step(&z).expect("healthy estimator");
                let Some(msg) = s.decide(&observed) else {
                    continue;
                };
                let active = probe.estimator.active();
                let resid = active.innovation_norm(&z);
                let target = if probe.synced_last_tick {
                    full += 1;
                    0.0
                } else {
                    if resid <= PIN_FRACTION * delta {
                        unpinned += 1;
                    } else {
                        partial += 1;
                    }
                    PIN_FRACTION * delta
                };
                let expected =
                    oracle_sync_state(active.state(), active.model().h(), &z, resid, target);
                match msg {
                    SyncMessage::State { x, p } => {
                        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(x.as_slice()),
                            bits(expected.as_slice()),
                            "{n}x{m} tick {t}"
                        );
                        assert_eq!(
                            bits(p.as_slice()),
                            bits(active.covariance().as_slice()),
                            "{n}x{m} tick {t}: P is the estimator's, mirrored"
                        );
                    }
                    other => panic!("fixed model ships State syncs, got {other:?}"),
                }
            }
        }
        assert!(
            unpinned > 0 && partial > 0 && full > 0,
            "branches hit: unpinned {unpinned}, partial {partial}, full {full}"
        );
    }

    #[test]
    fn rank_deficient_observation_ships_the_posterior() {
        // H with a zero row cannot be pinned: the sync carries the
        // estimator's posterior, as the allocating path's `Err` arm did.
        use kalstream_linalg::Matrix;
        let model = kalstream_filter::StateModel::new(
            "blind",
            Matrix::identity(2),
            Matrix::scalar(2, 0.01),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
            Matrix::scalar(2, 0.05),
        )
        .unwrap();
        let kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        let mut s = SourceEndpoint::new(
            Estimator::Fixed(kf.clone()),
            kf,
            ProtocolConfig::new(0.5).unwrap(),
        );
        let mut probe = s.clone();
        probe
            .estimator
            .step(&Vector::from_slice(&[9.0, 3.0]))
            .unwrap();
        match s.decide(&[9.0, 3.0]).expect("jump syncs") {
            SyncMessage::State { x, .. } => assert_eq!(&x, probe.estimator.active().state()),
            other => panic!("expected State sync, got {other:?}"),
        }
    }

    #[test]
    fn decide_and_observe_emit_identical_bytes() {
        // Two identical sources, one asked for owned messages, one for
        // payloads: same decisions, and the owned message encodes to the
        // payload's bytes — over an adaptive session and a model bank (whose
        // switch ships Model syncs).
        let specs = || {
            let config = ProtocolConfig::new(0.3).unwrap();
            [
                crate::SessionSpec::default_scalar(0.0, config.clone()).unwrap(),
                crate::SessionSpec::standard_bank(0.0, 0.05, config).unwrap(),
            ]
        };
        for (owned, borrowed) in specs().into_iter().zip(specs()) {
            let (mut owned, mut borrowed) = (owned.build().source, borrowed.build().source);
            let (mut sent, mut models) = (0, 0);
            for t in 0..2000u64 {
                let phase = t as f64 * 0.03;
                let v = 2.0 * phase.sin()
                    + if t > 1000 {
                        (t - 1000) as f64 * 0.4
                    } else {
                        0.0
                    };
                let msg = owned.decide(&[v]);
                let payload = borrowed.observe(t, &[v]);
                assert_eq!(msg.is_some(), payload.is_some(), "tick {t}");
                if let (Some(msg), Some(payload)) = (msg, payload) {
                    assert_eq!(&msg.encode()[..], &payload[..], "tick {t}");
                    sent += 1;
                    models += usize::from(matches!(msg, SyncMessage::Model { .. }));
                }
            }
            assert!(sent > 100, "only {sent} syncs in 2000 ticks");
            if matches!(owned.estimator, Estimator::Bank(_)) {
                assert!(models > 0, "bank never switched");
            }
            assert_eq!(owned.syncs(), borrowed.syncs());
        }
    }

    #[test]
    fn sequenced_payload_is_the_header_plus_the_unsequenced_body() {
        let mut plain = source(0.5);
        let mut sequenced = recovering_source(0.5, 50);
        for (t, v) in [9.0, 9.0, 20.0, 21.5].into_iter().enumerate() {
            let a = plain.observe(t as u64, &[v]);
            let b = sequenced.observe(t as u64, &[v]);
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(b.len(), SEQ_HEADER_BYTES + a.len());
                assert_eq!(&b[SEQ_HEADER_BYTES..], &a[..]);
                assert_eq!(
                    &b[..SEQ_HEADER_BYTES],
                    &wire::seq_header(sequenced.acks.newest_seq())
                );
            }
        }
    }
}
