//! The single-session entries (a fleet of one), the session config, and
//! the ingest-sink and per-tick observer traits.

use crate::{run_lockstep, Consumer, LinkFaults, LockstepStream, Producer, SessionReport, Tick};

/// Configuration for one simulated source→server session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of ticks to simulate.
    pub ticks: u64,
    /// Precision bound the error accounting scores against.
    pub delta: f64,
    /// Link latency in ticks (0 = corrections visible the tick they are sent).
    pub latency: Tick,
    /// Per-message framing overhead charged by the link, in bytes.
    pub overhead_bytes: usize,
    /// Independent per-message drop probability (0.0 = reliable link).
    pub loss_prob: f64,
    /// Seed of the link's fault RNG (ignored when no fault is configured).
    pub loss_seed: u64,
    /// Independent per-message duplication probability (0.0 = never).
    pub dup_prob: f64,
    /// Independent per-message reordering probability (0.0 = never).
    pub reorder_prob: f64,
    /// Maximum extra delivery delay in ticks, drawn uniformly per message
    /// (0 = no jitter).
    pub jitter: Tick,
}

impl SessionConfig {
    /// A zero-latency session with IP+UDP-sized framing — the setting under
    /// which the suppression protocol's precision guarantee is exact.
    pub fn instant(ticks: u64, delta: f64) -> Self {
        SessionConfig {
            ticks,
            delta,
            latency: 0,
            overhead_bytes: 28,
            loss_prob: 0.0,
            loss_seed: 0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            jitter: 0,
        }
    }

    /// Same as [`SessionConfig::instant`] with a lossy link.
    pub fn instant_lossy(ticks: u64, delta: f64, loss_prob: f64, loss_seed: u64) -> Self {
        SessionConfig {
            loss_prob,
            loss_seed,
            ..SessionConfig::instant(ticks, delta)
        }
    }

    /// Adds duplication, reordering, and delay jitter to the link faults.
    #[must_use]
    pub fn with_link_faults(mut self, dup_prob: f64, reorder_prob: f64, jitter: Tick) -> Self {
        self.dup_prob = dup_prob;
        self.reorder_prob = reorder_prob;
        self.jitter = jitter;
        self
    }

    /// The fault profile both session links are built from.
    pub fn faults(&self) -> LinkFaults {
        LinkFaults {
            loss: self.loss_prob,
            dup: self.dup_prob,
            reorder: self.reorder_prob,
            jitter: self.jitter,
            seed: self.loss_seed,
        }
    }
}

/// Server-side ingest mode: the multiplexed alternative to a per-session
/// [`crate::Consumer`].
///
/// In ingest mode the fleet loop does not hand each message to its own
/// consumer; it pushes every delivered message — from *all* streams — into
/// one sink, then closes the tick. The sink owns framing, shard routing,
/// and endpoint advancement (in `kalstream-core`, the frame batcher wrapped
/// around the sharded ingest pipeline). The simulator stays wire-format
/// agnostic, exactly as it is Kalman-agnostic via [`crate::Producer`] /
/// [`crate::Consumer`].
///
/// Contract per tick: any number of [`IngestSink::push`] calls (delivery
/// order within a stream is send order), then exactly one
/// [`IngestSink::end_tick`], which must advance **every** stream's
/// server-side state by one tick — matching [`crate::Consumer::estimate`]'s
/// predict-then-apply semantics so ingest-mode servers stay bit-identical
/// to session-mode servers — then one [`IngestSink::feedback`].
pub trait IngestSink {
    /// Delivers one message for `stream_id` into the current tick's batch.
    fn push(&mut self, stream_id: u32, payload: &bytes::Bytes);

    /// Closes the tick: drain the batch and advance every endpoint.
    fn end_tick(&mut self);

    /// Hands the tick's feedback (acks, bound directives) to `out`, tagged
    /// with its stream and in poll order within one; the fleet loop puts
    /// each on its stream's reverse link. The default produces none.
    fn feedback(&mut self, out: &mut dyn FnMut(u32, bytes::Bytes)) {
        let _ = out;
    }
}

/// Per-tick hook for experiments that need time series rather than final
/// aggregates (cumulative-message plots, staleness profiles).
pub trait TickObserver {
    /// Called once per tick after scoring, with the server estimate and the
    /// cumulative message count.
    fn on_tick(
        &mut self,
        now: Tick,
        observed: &[f64],
        truth: &[f64],
        estimate: &[f64],
        messages: u64,
    );
}

/// No-op observer used when a session needs no per-tick output.
impl TickObserver for () {
    fn on_tick(&mut self, _: Tick, _: &[f64], _: &[f64], _: &[f64], _: u64) {}
}

/// Collects the max-norm error time series — the workhorse observer.
#[derive(Debug, Default)]
pub struct ErrorSeries {
    /// `|estimate − observed|` (max-norm) per tick.
    pub errors: Vec<f64>,
    /// Cumulative message count per tick.
    pub messages: Vec<u64>,
}

impl TickObserver for ErrorSeries {
    fn on_tick(
        &mut self,
        _now: Tick,
        observed: &[f64],
        _t: &[f64],
        estimate: &[f64],
        messages: u64,
    ) {
        let err = max_norm_diff(estimate, observed);
        self.errors.push(err);
        self.messages.push(messages);
    }
}

/// One simulated session: a sampler (the stream), a producer (source-side
/// policy), a consumer (server-side estimator), and a link between them.
pub struct Session;

impl Session {
    /// Runs the session and reports traffic + error metrics: a fleet of one
    /// through [`run_lockstep`] ([the tick](crate#the-tick)), with the
    /// observer as the hook.
    ///
    /// # Panics
    /// Panics when producer/consumer dimensions disagree with each other.
    pub fn run<'a, P, C, F, O>(
        config: &SessionConfig,
        sampler: F,
        producer: &mut P,
        consumer: &mut C,
        observer: &mut O,
    ) -> SessionReport
    where
        P: Producer + ?Sized,
        C: Consumer + ?Sized,
        F: FnMut(&mut [f64], &mut [f64]) + 'a,
        O: TickObserver + ?Sized,
    {
        let mut stream = [LockstepStream {
            producer,
            consumer,
            sampler: Box::new(sampler),
        }];
        let report = run_lockstep(config, &mut stream, |now, tick, _| {
            let (observed, truth) = (&tick.observed[0], &tick.truth[0]);
            observer.on_tick(now, observed, truth, &tick.estimates[0], tick.sent[0]);
        });
        report.sessions.into_iter().next().expect("a fleet of one")
    }
}

/// Max-norm (ℓ∞) difference between two equal-length slices — the norm the
/// precision contract uses for multi-dimensional streams.
pub(crate) fn max_norm_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Producer that ships every k-th sample; consumer holds the last value.
    struct EveryKth {
        k: u64,
    }
    struct Hold {
        last: f64,
    }

    impl Producer for EveryKth {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, now: Tick, observed: &[f64]) -> Option<Bytes> {
            (now.is_multiple_of(self.k)).then(|| Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
    }

    impl Consumer for Hold {
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

    fn ramp_sampler() -> impl FnMut(&mut [f64], &mut [f64]) {
        let mut t = 0.0;
        move |obs, tru| {
            obs[0] = t;
            tru[0] = t;
            t += 1.0;
        }
    }

    #[test]
    fn message_counting_matches_policy() {
        let config = SessionConfig::instant(100, 10.0);
        let mut p = EveryKth { k: 4 };
        let mut c = Hold { last: 0.0 };
        let report = Session::run(&config, ramp_sampler(), &mut p, &mut c, &mut ());
        assert_eq!(report.traffic.messages(), 25);
        assert!((report.message_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_latency_error_bounded_by_gap() {
        // Ship every 4th sample of a unit ramp: worst error is 3.
        let config = SessionConfig::instant(100, 3.0);
        let mut p = EveryKth { k: 4 };
        let mut c = Hold { last: 0.0 };
        let report = Session::run(&config, ramp_sampler(), &mut p, &mut c, &mut ());
        assert_eq!(report.error_vs_observed.max_abs(), 3.0);
        assert_eq!(report.error_vs_observed.violations(), 0);
    }

    #[test]
    fn latency_creates_violations() {
        // Same policy over a ramp, but 2-tick latency: right after each send
        // the server still shows stale data, errors reach 3 + ... > bound.
        let config = SessionConfig {
            latency: 2,
            overhead_bytes: 0,
            ..SessionConfig::instant(100, 3.0)
        };
        let mut p = EveryKth { k: 4 };
        let mut c = Hold { last: 0.0 };
        let report = Session::run(&config, ramp_sampler(), &mut p, &mut c, &mut ());
        assert!(report.error_vs_observed.violations() > 0);
        assert!(report.error_vs_observed.max_abs() > 3.0);
    }

    #[test]
    fn observer_sees_every_tick() {
        let config = SessionConfig::instant(50, 1.0);
        let mut p = EveryKth { k: 1 };
        let mut c = Hold { last: 0.0 };
        let mut series = ErrorSeries::default();
        let report = Session::run(&config, ramp_sampler(), &mut p, &mut c, &mut series);
        assert_eq!(series.errors.len(), 50);
        assert_eq!(*series.messages.last().unwrap(), report.traffic.messages());
        // Ship-all at zero latency: error always 0.
        assert!(series.errors.iter().all(|&e| e == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        struct TwoDim;
        impl Consumer for TwoDim {
            fn dim(&self) -> usize {
                2
            }
            fn receive(&mut self, _: Tick, _: &Bytes) {}
            fn estimate(&mut self, _: Tick, _: &mut [f64]) {}
        }
        let config = SessionConfig::instant(1, 1.0);
        let mut p = EveryKth { k: 1 };
        let mut c = TwoDim;
        let _ = Session::run(&config, ramp_sampler(), &mut p, &mut c, &mut ());
    }
}
