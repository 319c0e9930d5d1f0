//! The one fleet tick loop and its entries — lockstep fleets of
//! per-stream consumers, the multiplexed ingest mode — plus parallel
//! execution of many independent sessions (experiment F7's 100-stream
//! fleet and every parameter sweep).

use std::collections::HashMap;

use bytes::Bytes;
use crossbeam::channel;
use kalstream_obs::{Registry, Snapshot};

use crate::{
    metrics::{DeliveryStats, ErrorMetrics, FaultCounters},
    runner::max_norm_diff,
    Consumer, IngestSink, LinkFaults, Producer, SessionConfig, SessionReport, SimTransport, Tick,
    TrafficMetrics, Transport,
};

/// Aggregated result of a fleet run: per-session reports in submission
/// order, plus fleet-wide traffic totals.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-session reports, index-aligned with the submitted jobs.
    pub sessions: Vec<SessionReport>,
    /// Fleet-wide traffic (sum over sessions).
    pub total_traffic: TrafficMetrics,
    /// Fleet-wide link-fault injections (sum over sessions' forward links).
    pub total_faults: FaultCounters,
    /// Fleet-wide server-side delivery accounting (sum over sessions).
    pub total_delivery: DeliveryStats,
}

impl FleetReport {
    /// Sums the per-session reports into fleet totals.
    fn new(sessions: Vec<SessionReport>) -> FleetReport {
        let mut total_traffic = TrafficMetrics::default();
        let mut total_faults = FaultCounters::default();
        let mut total_delivery = DeliveryStats::default();
        for s in &sessions {
            total_traffic.merge(&s.traffic);
            total_faults.merge(&s.faults);
            total_delivery.merge(&s.delivery);
        }
        FleetReport {
            sessions,
            total_traffic,
            total_faults,
            total_delivery,
        }
    }

    /// Total messages across the fleet.
    pub fn total_messages(&self) -> u64 {
        self.total_traffic.messages()
    }

    /// Mean per-session message rate.
    pub fn mean_message_rate(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(SessionReport::message_rate)
            .sum::<f64>()
            / self.sessions.len() as f64
    }

    /// Total precision violations (vs. observed signal) across the fleet.
    pub fn total_violations(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| s.error_vs_observed.violations())
            .sum()
    }

    /// The fleet-aggregated snapshot (`fleet.*` metrics): traffic, fault,
    /// and delivery totals plus violation and session counts.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut fleet = reg.scope("fleet");
        fleet.counter("sessions", self.sessions.len() as u64);
        fleet.counter("violations", self.total_violations());
        fleet.gauge("mean_message_rate", self.mean_message_rate());
        fleet.observe("traffic", &self.total_traffic);
        fleet.observe("faults", &self.total_faults);
        fleet.observe("delivery", &self.total_delivery);
        reg.snapshot()
    }

    /// The per-stream snapshot (`stream.<index>.*` metrics): every
    /// session's full report, index-aligned with the submitted jobs.
    /// Merging this with [`FleetReport::snapshot`] gives one artifact with
    /// both granularities.
    pub fn stream_snapshots(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut streams = reg.scope("stream");
        for (i, session) in self.sessions.iter().enumerate() {
            streams.observe(&i.to_string(), session);
        }
        reg.snapshot()
    }
}

/// Runs `jobs` across `threads` worker threads and collects their reports.
///
/// Each job is an independent closed-over session (stream + endpoints);
/// sessions themselves never synchronise — matching the real system, where
/// sources are independent devices. Work is distributed over a crossbeam
/// channel so long sessions don't convoy behind a static partition, and
/// workers send `(index, report)` pairs back over a second channel — no
/// shared lock anywhere, so a slow session never blocks another's result
/// hand-off.
///
/// # Panics
/// Panics if a worker thread panics (propagated by `std::thread::scope`).
pub fn run_fleet<F>(jobs: Vec<F>, threads: usize) -> FleetReport
where
    F: FnOnce() -> SessionReport + Send,
{
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    let (tx, rx) = channel::unbounded::<(usize, F)>();
    for job in jobs.into_iter().enumerate() {
        tx.send(job).expect("channel open");
    }
    drop(tx);
    let (report_tx, report_rx) = channel::unbounded::<(usize, SessionReport)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let report_tx = report_tx.clone();
            scope.spawn(move || {
                while let Ok((idx, job)) = rx.recv() {
                    let report = job();
                    report_tx.send((idx, report)).expect("collector alive");
                }
            });
        }
    });
    drop(report_tx);

    // Workers finish in arbitrary order; restore submission order by index.
    let mut slots: Vec<Option<SessionReport>> = (0..n).map(|_| None).collect();
    while let Ok((idx, report)) = report_rx.recv() {
        slots[idx] = Some(report);
    }
    FleetReport::new(
        slots
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect(),
    )
}

/// A boxed `(observed, truth)` sampler, as carried by [`IngestStream`].
pub type BoxedSampler<'a> = Box<dyn FnMut(&mut [f64], &mut [f64]) + 'a>;

/// One phase of a [`LoadSwing`]: hold `amplitude` for `ticks` ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// How long the phase lasts.
    pub ticks: u64,
    /// Signal amplitude during the phase. Under a deadband/suppression
    /// producer with threshold δ, amplitudes well above δ make nearly every
    /// tick ship while amplitudes well below δ suppress nearly everything —
    /// so the phase schedule *is* the offered-load schedule.
    pub amplitude: f64,
}

/// A deterministic piecewise-constant load schedule for swing scenarios:
/// the elastic-scaling experiments drive grow/shrink decisions by swinging
/// signal volatility (and therefore suppression failures, and therefore
/// message rate) through these phases.
///
/// The final phase extends indefinitely, so a swing can be shorter than the
/// run that consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSwing {
    phases: Vec<LoadPhase>,
}

impl LoadSwing {
    /// Builds a swing from its phases.
    ///
    /// # Panics
    /// Panics on an empty schedule or a zero-length phase — both would make
    /// [`LoadSwing::amplitude_at`] ill-defined.
    pub fn new(phases: Vec<LoadPhase>) -> LoadSwing {
        assert!(!phases.is_empty(), "a load swing needs at least one phase");
        assert!(
            phases.iter().all(|p| p.ticks > 0),
            "every phase must last at least one tick"
        );
        LoadSwing { phases }
    }

    /// Sum of the phase lengths (the swing's natural duration; runs may be
    /// longer, in which case the last phase extends).
    pub fn total_ticks(&self) -> u64 {
        self.phases.iter().map(|p| p.ticks).sum()
    }

    /// The amplitude in force at `tick`. Past the end of the schedule the
    /// final phase's amplitude holds.
    pub fn amplitude_at(&self, tick: u64) -> f64 {
        let mut start = 0u64;
        for phase in &self.phases {
            if tick < start + phase.ticks {
                return phase.amplitude;
            }
            start += phase.ticks;
        }
        self.phases
            .last()
            .expect("non-empty by construction")
            .amplitude
    }

    /// The phase schedule.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// A self-clocking sampler for `stream_id`: an amplitude-modulated
    /// sinusoid `A(t) · sin(0.9·t + id)`, with `A(t)` from the schedule and
    /// truth equal to the clean signal. Deterministic — two samplers built
    /// from the same swing and id produce bit-identical sequences — and
    /// self-clocking, so a run may be split across several fleet-driver
    /// calls (e.g. one per phase, to measure per-phase traffic) without
    /// losing its place in the schedule.
    pub fn sampler(&self, stream_id: u32) -> BoxedSampler<'static> {
        let swing = self.clone();
        let mut tick = 0u64;
        Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
            let amplitude = swing.amplitude_at(tick);
            let v = amplitude * (0.9 * tick as f64 + stream_id as f64).sin();
            tick += 1;
            obs[0] = v;
            tru[0] = v;
        })
    }
}

/// One stream in an ingest-mode fleet: its id, source-side producer, and
/// the sampler generating its observations.
pub struct IngestStream<'a> {
    /// The stream's multiplexing key (what the ingest layer shards on).
    pub stream_id: u32,
    /// Source-side policy deciding what goes on the wire.
    pub producer: Box<dyn Producer + 'a>,
    /// Fills `(observed, truth)` each tick.
    pub sampler: BoxedSampler<'a>,
}

/// Traffic outcome of an ingest-mode fleet run (source side; the server
/// side's per-shard story comes from the sink's own reporting).
#[derive(Debug, Default)]
pub struct IngestFleetReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Fleet-wide traffic (sum over streams).
    pub total_traffic: TrafficMetrics,
    /// Per-stream traffic, index-aligned with the submitted streams.
    pub per_stream: Vec<TrafficMetrics>,
    /// Fault injections summed over every stream's forward link.
    pub faults: FaultCounters,
    /// The sink's feedback summed over every stream's reverse link.
    pub feedback: TrafficMetrics,
}

impl IngestFleetReport {
    /// Sums the links' accounting after `ticks` ticks.
    fn new<T: Transport>(ticks: u64, links: &[T]) -> IngestFleetReport {
        let mut report = IngestFleetReport {
            ticks,
            ..IngestFleetReport::default()
        };
        for stats in links.iter().map(Transport::stats) {
            report.total_traffic.merge(&stats.forward);
            report.faults.merge(&stats.faults);
            report.feedback.merge(&stats.feedback);
            report.per_stream.push(stats.forward);
        }
        report
    }

    /// The fleet-aggregated snapshot (`fleet.*` metrics) of the source
    /// side of an ingest run.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut fleet = reg.scope("fleet");
        fleet.counter("streams", self.per_stream.len() as u64);
        fleet.counter("ticks", self.ticks);
        fleet.observe("traffic", &self.total_traffic);
        fleet.observe("faults", &self.faults);
        fleet.observe("feedback", &self.feedback);
        reg.snapshot()
    }

    /// The per-stream traffic snapshot (`stream.<index>.traffic.*`).
    pub fn stream_snapshots(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut streams = reg.scope("stream");
        for (i, traffic) in self.per_stream.iter().enumerate() {
            let mut stream = streams.scope(&i.to_string());
            stream.observe("traffic", traffic);
        }
        reg.snapshot()
    }
}

/// One stream in a lockstep fleet: its endpoints plus the sampler
/// generating its observations.
pub struct LockstepStream<'a, P, C> {
    /// Source-side policy deciding what goes on the wire.
    pub producer: P,
    /// Server-side estimator consuming the wire.
    pub consumer: C,
    /// Fills `(observed, truth)` each tick.
    pub sampler: BoxedSampler<'a>,
}

/// Read-only view of one lockstep tick, handed to the per-tick hook:
/// everything sampled and estimated this tick, index-aligned with the
/// streams.
pub struct LockstepTick<'t> {
    /// Per-stream observations of this tick.
    pub observed: &'t [Vec<f64>],
    /// Per-stream ground truth of this tick.
    pub truth: &'t [Vec<f64>],
    /// Per-stream server estimates of this tick.
    pub estimates: &'t [Vec<f64>],
    /// Per-stream predictive variance of the estimate
    /// ([`Consumer::served_variance`]), `None` for consumers that track no
    /// uncertainty. Query layers use this to serve distributional answers.
    pub variances: &'t [Option<f64>],
    /// Per-stream forward messages sent so far (what each link charged).
    pub sent: &'t [u64],
}

type SamplerMut<'r> = &'r mut (dyn FnMut(&mut [f64], &mut [f64]) + 'r);

/// One stream's source side: the sampler and the producer it lends.
trait Source {
    type Producer: Producer + ?Sized;
    fn parts(&mut self) -> (SamplerMut<'_>, &mut Self::Producer);
}

impl<P: Producer, C> Source for LockstepStream<'_, P, C> {
    type Producer = P;
    fn parts(&mut self) -> (SamplerMut<'_>, &mut P) {
        (&mut *self.sampler, &mut self.producer)
    }
}

impl<'a> Source for IngestStream<'a> {
    type Producer = dyn Producer + 'a;
    fn parts(&mut self) -> (SamplerMut<'_>, &mut Self::Producer) {
        (&mut *self.sampler, &mut *self.producer)
    }
}

/// A fleet: `streams[i]` on link `links[i]` (tag `i`), and sample buffers.
struct Fleet<'s, S, T> {
    streams: &'s mut [S],
    links: &'s mut [T],
    observed: Vec<Vec<f64>>,
    truth: Vec<Vec<f64>>,
    sent: Vec<u64>,
}

impl<'s, S: Source, T: Transport> Fleet<'s, S, T> {
    /// Puts `streams[i]` on `links[i]`; panics when their lengths differ.
    fn new(streams: &'s mut [S], links: &'s mut [T]) -> Self {
        assert_eq!(streams.len(), links.len(), "one link per stream");
        let dims = streams.iter_mut().map(|s| vec![0.0; s.parts().1.dim()]);
        let observed: Vec<Vec<f64>> = dims.collect();
        Fleet {
            truth: observed.clone(),
            observed,
            sent: vec![0; streams.len()],
            streams,
            links,
        }
    }

    /// The one tick loop behind every entry: `ticks` of [the
    /// tick](crate#the-tick) against `server`, `after` being step 6.
    fn run<V: Server<S>>(
        &mut self,
        ticks: u64,
        server: &mut V,
        mut after: impl FnMut(Tick, &mut Self, &mut V),
    ) {
        for now in 0..ticks {
            let links = self.links.iter_mut();
            for (i, (stream, link)) in self.streams.iter_mut().zip(links).enumerate() {
                let (sampler, producer) = stream.parts();
                sampler(&mut self.observed[i], &mut self.truth[i]);
                if let Some(payload) = producer.observe(now, &self.observed[i]) {
                    link.send(now, i as u32, payload);
                    self.sent[i] += 1;
                }
                link.end_tick(now);
                link.recv(now, |_, payload| server.receive(now, stream, payload));
            }
            server.close(now, self);
            for (stream, link) in self.streams.iter_mut().zip(self.links.iter_mut()) {
                let producer = stream.parts().1;
                link.recv_feedback(now, |_, payload| producer.feedback(now, &payload));
            }
            after(now, self, server);
        }
    }
}

/// The server side of [the tick](crate#the-tick): `receive` is step 3,
/// `close` step 4 (feedback onto `fleet`'s reverse links).
trait Server<S> {
    fn receive(&mut self, now: Tick, stream: &mut S, payload: Bytes);
    fn close<T: Transport>(&mut self, now: Tick, fleet: &mut Fleet<'_, S, T>);
}

/// Ingest mode's server side: the engine, and the stream id → index map
/// its feedback is routed by (feedback for an id outside the fleet drops).
struct Engine<'k, K: ?Sized> {
    sink: &'k mut K,
    index: HashMap<u32, usize>,
}

impl<'a, K: IngestSink + ?Sized> Server<IngestStream<'a>> for Engine<'_, K> {
    fn receive(&mut self, _: Tick, stream: &mut IngestStream<'a>, payload: Bytes) {
        self.sink.push(stream.stream_id, &payload);
    }
    fn close<T: Transport>(&mut self, now: Tick, fleet: &mut Fleet<'_, IngestStream<'a>, T>) {
        self.sink.end_tick();
        let (index, links) = (&self.index, &mut *fleet.links);
        self.sink.feedback(&mut |id, payload| {
            if let Some(&i) = index.get(&id) {
                links[i].send_feedback(now, id, payload);
            }
        });
    }
}

/// Consumer mode's server side: the streams' consumers' estimates, scores.
struct Consumers {
    estimates: Vec<Vec<f64>>,
    variances: Vec<Option<f64>>,
    /// Per stream: error vs observed, error vs truth.
    scores: Vec<[ErrorMetrics; 2]>,
}

impl<'a, P: Producer, C: Consumer> Server<LockstepStream<'a, P, C>> for Consumers {
    fn receive(&mut self, now: Tick, stream: &mut LockstepStream<'a, P, C>, msg: Bytes) {
        stream.consumer.receive(now, &msg);
    }
    fn close<T: Transport>(
        &mut self,
        now: Tick,
        fleet: &mut Fleet<'_, LockstepStream<'a, P, C>, T>,
    ) {
        let links = fleet.links.iter_mut();
        for (i, (stream, link)) in fleet.streams.iter_mut().zip(links).enumerate() {
            let estimate = &mut self.estimates[i];
            stream.consumer.estimate(now, estimate);
            self.variances[i] = stream.consumer.served_variance();
            while let Some(fb) = stream.consumer.poll_feedback(now) {
                link.send_feedback(now, i as u32, fb);
            }
            let [obs, truth] = &mut self.scores[i];
            obs.record(max_norm_diff(estimate, &fleet.observed[i]));
            truth.record(max_norm_diff(estimate, &fleet.truth[i]));
        }
    }
}

/// Stream `i`'s sim link pair, drawing `faults.forward(i)`/`reverse(i)`.
fn sim_links(n: usize, latency: Tick, overhead: usize, faults: LinkFaults) -> Vec<SimTransport> {
    (0..n as u64)
        .map(|i| SimTransport::with_faults(latency, overhead, faults.forward(i)))
        .collect()
}

/// Ingest mode: [the fleet tick](crate#the-tick) with every stream's
/// traffic converging on one multiplexed [`IngestSink`], whose feedback
/// rides the reverse links back. Stream `i`'s zero-latency sim links draw
/// `faults.forward(i)` and price `overhead_bytes` per message; zero latency
/// keeps the ingest server bit-identical to [`crate::Session::run`]'s.
pub fn run_fleet_ingest<K: IngestSink + ?Sized>(
    streams: &mut [IngestStream<'_>],
    ticks: u64,
    overhead_bytes: usize,
    faults: LinkFaults,
    sink: &mut K,
) -> IngestFleetReport {
    let mut links = sim_links(streams.len(), 0, overhead_bytes, faults);
    run_ingest_over(streams, &mut links, ticks, sink)
}

/// [`run_fleet_ingest`] with stream `i` on `links[i]`, any [`Transport`]
/// (panics when the two lengths differ).
pub fn run_ingest_over<T: Transport, K: IngestSink + ?Sized>(
    streams: &mut [IngestStream<'_>],
    links: &mut [T],
    ticks: u64,
    sink: &mut K,
) -> IngestFleetReport {
    let index = streams.iter().enumerate();
    let mut engine = Engine {
        index: index.map(|(i, s)| (s.stream_id, i)).collect(),
        sink,
    };
    Fleet::new(streams, links).run(ticks, &mut engine, |_, _, _| {});
    IngestFleetReport::new(ticks, links)
}

/// Drives many sessions through [the fleet tick](crate#the-tick) together
/// (stream `i` on sim links drawing `config.faults().forward(i)`), with a
/// fleet-level hook after each tick. The hook sees the whole fleet: a
/// controller (a query graph re-granting deltas) reads every server and
/// pushes control back — feedback it queues at `t` rides at `t + 1` — and
/// a crash is a hook that replaces consumer state, with producers, links
/// and in-flight messages untouched (`TcpTransport::kill_at` is the
/// complement).
///
/// # Panics
/// Panics when a producer/consumer pair disagrees on dimensionality.
pub fn run_lockstep<'a, P, C, H>(
    config: &SessionConfig,
    streams: &mut [LockstepStream<'a, P, C>],
    hook: H,
) -> FleetReport
where
    P: Producer,
    C: Consumer,
    H: FnMut(Tick, &LockstepTick<'_>, &mut [LockstepStream<'a, P, C>]),
{
    let faults = config.faults();
    let mut links = sim_links(streams.len(), config.latency, config.overhead_bytes, faults);
    run_lockstep_over(config, streams, &mut links, hook)
}

/// [`run_lockstep`] with stream `i` on `links[i]`, any [`Transport`]; of
/// the config, only `ticks` and `delta` apply.
///
/// # Panics
/// Panics when a producer/consumer pair disagrees on dimensionality, or
/// when `links` and `streams` differ in length.
pub fn run_lockstep_over<'a, P, C, T, H>(
    config: &SessionConfig,
    streams: &mut [LockstepStream<'a, P, C>],
    links: &mut [T],
    mut hook: H,
) -> FleetReport
where
    P: Producer,
    C: Consumer,
    T: Transport,
    H: FnMut(Tick, &LockstepTick<'_>, &mut [LockstepStream<'a, P, C>]),
{
    let matched = streams.iter().all(|s| s.producer.dim() == s.consumer.dim());
    assert!(matched, "producer/consumer dimension mismatch");
    let score = ErrorMetrics::new(config.delta);
    let mut fleet = Fleet::new(streams, links);
    let mut consumers = Consumers {
        estimates: fleet.observed.clone(),
        variances: vec![None; fleet.sent.len()],
        scores: vec![[score.clone(), score]; fleet.sent.len()],
    };
    fleet.run(config.ticks, &mut consumers, |now, fleet, consumers| {
        let tick = LockstepTick {
            observed: &fleet.observed,
            truth: &fleet.truth,
            estimates: &consumers.estimates,
            variances: &consumers.variances,
            sent: &fleet.sent,
        };
        hook(now, &tick, fleet.streams);
    });
    let scores = consumers.scores;
    let sessions = fleet.streams.iter().zip(fleet.links.iter()).zip(scores);
    let sessions = sessions.map(|((stream, link), [error_vs_observed, error_vs_truth])| {
        let stats = link.stats();
        SessionReport {
            ticks: config.ticks,
            traffic: stats.forward,
            error_vs_observed,
            error_vs_truth,
            faults: stats.faults,
            delivery: stream.consumer.delivery_stats(),
            ack_traffic: stats.feedback,
        }
    });
    FleetReport::new(sessions.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Consumer, Producer, Session, SessionConfig, Tick};
    use bytes::Bytes;

    struct ShipAll;
    struct Hold(f64);

    impl Producer for ShipAll {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, _: Tick, observed: &[f64]) -> Option<Bytes> {
            Some(Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
    }
    impl Consumer for Hold {
        fn dim(&self) -> usize {
            1
        }
        fn receive(&mut self, _: Tick, payload: &Bytes) {
            let mut b = [0u8; 8];
            b.copy_from_slice(payload);
            self.0 = f64::from_le_bytes(b);
        }
        fn estimate(&mut self, _: Tick, out: &mut [f64]) {
            out[0] = self.0;
        }
    }

    fn job(ticks: u64) -> impl FnOnce() -> SessionReport + Send {
        move || {
            let config = SessionConfig::instant(ticks, 1.0);
            let mut p = ShipAll;
            let mut c = Hold(0.0);
            let mut v = 0.0;
            Session::run(
                &config,
                move |obs, tru| {
                    v += 1.0;
                    obs[0] = v;
                    tru[0] = v;
                },
                &mut p,
                &mut c,
                &mut (),
            )
        }
    }

    #[test]
    fn fleet_preserves_job_order() {
        let jobs: Vec<_> = (1..=8u64).map(|i| job(i * 10)).collect();
        let report = run_fleet(jobs, 4);
        assert_eq!(report.sessions.len(), 8);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.ticks, (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn fleet_totals_add_up() {
        let jobs: Vec<_> = (0..5).map(|_| job(100)).collect();
        let report = run_fleet(jobs, 2);
        assert_eq!(report.total_messages(), 500);
        assert!((report.mean_message_rate() - 1.0).abs() < 1e-12);
        assert_eq!(report.total_violations(), 0);
        // A reliable fleet reports no injected faults and no delivery drops.
        assert_eq!(report.total_faults, FaultCounters::default());
        assert_eq!(report.total_delivery, DeliveryStats::default());
    }

    #[test]
    fn single_thread_and_many_threads_agree() {
        let a = run_fleet((0..6).map(|_| job(50)).collect::<Vec<_>>(), 1);
        let b = run_fleet((0..6).map(|_| job(50)).collect::<Vec<_>>(), 8);
        assert_eq!(a.total_messages(), b.total_messages());
    }

    #[test]
    fn empty_fleet() {
        let report = run_fleet(Vec::<fn() -> SessionReport>::new(), 4);
        assert_eq!(report.sessions.len(), 0);
        assert_eq!(report.mean_message_rate(), 0.0);
    }

    /// Sink that records (stream_id, decoded value) pushes and tick closes.
    #[derive(Default)]
    struct Recorder {
        pushes: Vec<(u32, f64)>,
        ticks_closed: u64,
    }

    impl crate::IngestSink for Recorder {
        fn push(&mut self, stream_id: u32, payload: &Bytes) {
            let mut b = [0u8; 8];
            b.copy_from_slice(payload);
            self.pushes.push((stream_id, f64::from_le_bytes(b)));
        }
        fn end_tick(&mut self) {
            self.ticks_closed += 1;
        }
    }

    #[test]
    fn ingest_fleet_multiplexes_all_streams_into_one_sink() {
        let mut streams: Vec<IngestStream<'_>> = (0..3u32)
            .map(|id| IngestStream {
                stream_id: id * 10,
                producer: Box::new(ShipAll),
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    obs[0] = id as f64;
                    tru[0] = id as f64;
                }),
            })
            .collect();
        let mut sink = Recorder::default();
        let report = run_fleet_ingest(&mut streams, 5, 8, LinkFaults::default(), &mut sink);
        assert_eq!(report.ticks, 5);
        assert_eq!(sink.ticks_closed, 5);
        // Ship-all: 3 streams × 5 ticks, tagged with their ids, in order.
        assert_eq!(sink.pushes.len(), 15);
        assert_eq!(sink.pushes[0..3], [(0, 0.0), (10, 1.0), (20, 2.0)]);
        assert_eq!(report.total_traffic.messages(), 15);
        // Each payload is 8 bytes (one f64) + 8 bytes declared overhead.
        assert_eq!(report.total_traffic.bytes(), 15 * 16);
        assert_eq!(report.per_stream.len(), 3);
        assert!(report.per_stream.iter().all(|t| t.messages() == 5));
        assert_eq!(report.faults, FaultCounters::default());
        assert_eq!(report.feedback.messages(), 0, "the recorder sends none");
    }

    #[test]
    fn faulty_ingest_fleet_drops_and_counts() {
        let mut streams: Vec<IngestStream<'_>> = (0..4u32)
            .map(|id| IngestStream {
                stream_id: id,
                producer: Box::new(ShipAll),
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    obs[0] = id as f64;
                    tru[0] = id as f64;
                }),
            })
            .collect();
        let mut sink = Recorder::default();
        let faults = LinkFaults {
            loss: 0.5,
            seed: 7,
            ..LinkFaults::default()
        };
        let report = run_fleet_ingest(&mut streams, 100, 0, faults, &mut sink);
        assert!(
            report.faults.dropped > 0,
            "50% loss over 400 sends must drop"
        );
        assert_eq!(
            sink.pushes.len() as u64 + report.faults.dropped,
            400,
            "every send is either delivered or counted dropped"
        );
        // The sender is charged for every send, dropped or not.
        assert_eq!(report.total_traffic.messages(), 400);
    }

    /// Counts the feedback a producer is handed.
    struct CountFeedback(u64);
    impl Producer for CountFeedback {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, _: Tick, observed: &[f64]) -> Option<Bytes> {
            Some(Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
        fn feedback(&mut self, _: Tick, _: &Bytes) {
            self.0 += 1;
        }
    }

    /// Acks every push at the end of its tick, tagged with its stream.
    #[derive(Default)]
    struct Acker(Vec<u32>);
    impl crate::IngestSink for Acker {
        fn push(&mut self, stream_id: u32, _: &Bytes) {
            self.0.push(stream_id);
        }
        fn end_tick(&mut self) {}
        fn feedback(&mut self, out: &mut dyn FnMut(u32, Bytes)) {
            for id in self.0.drain(..) {
                out(id, Bytes::from_static(b"ack"));
            }
        }
    }

    #[test]
    fn ingest_feedback_rides_each_streams_reverse_link() {
        let run = |faults: LinkFaults| {
            let mut producers = [CountFeedback(0), CountFeedback(0), CountFeedback(0)];
            let mut streams: Vec<IngestStream<'_>> = producers
                .iter_mut()
                .enumerate()
                .map(|(i, p)| IngestStream {
                    stream_id: 10 * i as u32,
                    producer: Box::new(p),
                    sampler: counting_sampler(1.0),
                })
                .collect();
            let report = run_fleet_ingest(&mut streams, 200, 0, faults, &mut Acker::default());
            drop(streams);
            (report, producers.map(|p| p.0))
        };
        // Reliable: every push is acked the tick it lands.
        let (_, acked) = run(LinkFaults::default());
        assert_eq!(acked, [200; 3]);
        // Lossy both ways: an ack reaches a producer only if its sync
        // survived the forward link *and* the ack the reverse one.
        let (report, acked) = run(LinkFaults::lossy(0.3, 5));
        let delivered = 600 - report.faults.dropped;
        let total: u64 = acked.iter().sum();
        assert!(total < delivered, "reverse links dropped no ack");
        assert!(acked.iter().all(|&n| n > 0), "{acked:?}");
    }

    /// Ships every k-th sample; `k` is adjustable mid-run (what a lockstep
    /// hook retunes).
    struct EveryKth {
        k: u64,
    }
    impl Producer for EveryKth {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, now: Tick, observed: &[f64]) -> Option<Bytes> {
            now.is_multiple_of(self.k)
                .then(|| Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
    }

    fn counting_sampler(step: f64) -> crate::BoxedSampler<'static> {
        let mut v = 0.0;
        Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
            v += step;
            obs[0] = v;
            tru[0] = v;
        })
    }

    #[test]
    fn lockstep_with_noop_hook_matches_session_run() {
        let config = SessionConfig::instant(80, 5.0);
        let mut streams: Vec<LockstepStream<'_, EveryKth, Hold>> = (1..=3u64)
            .map(|k| LockstepStream {
                producer: EveryKth { k },
                consumer: Hold(0.0),
                sampler: counting_sampler(k as f64),
            })
            .collect();
        let fleet = run_lockstep(&config, &mut streams, |_, _, _| {});
        for (i, k) in (1..=3u64).enumerate() {
            let mut p = EveryKth { k };
            let mut c = Hold(0.0);
            let solo = Session::run(&config, counting_sampler(k as f64), &mut p, &mut c, &mut ());
            assert_eq!(fleet.sessions[i].traffic, solo.traffic, "stream {i}");
            assert_eq!(
                fleet.sessions[i].error_vs_observed.max_abs(),
                solo.error_vs_observed.max_abs(),
                "stream {i}"
            );
        }
    }

    #[test]
    fn lockstep_hook_sees_the_tick_and_can_retune_producers() {
        let config = SessionConfig::instant(100, 100.0);
        let mut streams: Vec<LockstepStream<'_, EveryKth, Hold>> = (0..2)
            .map(|_| LockstepStream {
                producer: EveryKth { k: 1 },
                consumer: Hold(0.0),
                sampler: counting_sampler(1.0),
            })
            .collect();
        let mut observed_ticks = 0u64;
        let fleet = run_lockstep(&config, &mut streams, |now, tick, streams| {
            observed_ticks += 1;
            assert_eq!(tick.observed.len(), 2);
            assert_eq!(tick.observed[0][0], (now + 1) as f64);
            // Halfway through, drop stream 0 to every-10th shipping.
            if now == 49 {
                streams[0].producer.k = 10;
            }
        });
        assert_eq!(observed_ticks, 100);
        // Stream 0: 50 ship-all ticks + 5 every-10th ticks (50, 60, ..., 90).
        assert_eq!(fleet.sessions[0].traffic.messages(), 55);
        assert_eq!(fleet.sessions[1].traffic.messages(), 100);
    }

    fn crash_streams() -> Vec<LockstepStream<'static, EveryKth, Hold>> {
        (0..2)
            .map(|_| LockstepStream {
                producer: EveryKth { k: 10 },
                consumer: Hold(0.0),
                sampler: counting_sampler(1.0),
            })
            .collect()
    }

    #[test]
    fn lockstep_crash_with_noop_rebuild_is_bit_identical_to_plain_run() {
        let config = SessionConfig::instant(100, 1000.0);
        let mut plain = crash_streams();
        let reference = run_lockstep(&config, &mut plain, |_, _, _| {});
        let mut crashed = crash_streams();
        let mut fired = Vec::new();
        let report = run_lockstep(&config, &mut crashed, |now, _, streams| {
            if [13, 55, 99].contains(&now) {
                fired.extend((0..streams.len()).map(|i| (now, i)));
            }
        });
        assert_eq!(
            fired,
            vec![(13, 0), (13, 1), (55, 0), (55, 1), (99, 0), (99, 1)]
        );
        for (r, p) in report.sessions.iter().zip(&reference.sessions) {
            assert_eq!(r.traffic, p.traffic);
            assert_eq!(
                r.error_vs_observed.max_abs().to_bits(),
                p.error_vs_observed.max_abs().to_bits()
            );
        }
    }

    #[test]
    fn lockstep_crash_that_loses_state_visibly_diverges() {
        // EveryKth{k:10} consumers coast on a held value between ships;
        // zeroing that value mid-coast is unrecovered state loss and must
        // show up in the error metric.
        let config = SessionConfig::instant(100, 1000.0);
        let mut plain = crash_streams();
        let reference = run_lockstep(&config, &mut plain, |_, _, _| {});
        let mut crashed = crash_streams();
        let report = run_lockstep(&config, &mut crashed, |now, _, streams| {
            if now == 55 {
                for stream in streams {
                    stream.consumer.0 = 0.0;
                }
            }
        });
        // Transport untouched: the producers shipped exactly the same bytes.
        assert_eq!(report.sessions[0].traffic, reference.sessions[0].traffic);
        // But the fleet coasted on zero from tick 56 until the tick-60 ship.
        assert!(
            report.sessions[0].error_vs_observed.max_abs()
                > reference.sessions[0].error_vs_observed.max_abs()
        );
    }

    /// Ships only when the observation moved more than δ since the last
    /// ship — the suppression discipline the load swing is built to defeat
    /// (high amplitude) or satisfy (low amplitude).
    struct Deadband {
        delta: f64,
        last: f64,
    }
    impl Producer for Deadband {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, _: Tick, observed: &[f64]) -> Option<Bytes> {
            if (observed[0] - self.last).abs() > self.delta {
                self.last = observed[0];
                Some(Bytes::copy_from_slice(&observed[0].to_le_bytes()))
            } else {
                None
            }
        }
    }

    #[test]
    fn load_swing_schedule_is_piecewise_with_extending_tail() {
        let swing = LoadSwing::new(vec![
            LoadPhase {
                ticks: 10,
                amplitude: 4.0,
            },
            LoadPhase {
                ticks: 5,
                amplitude: 0.01,
            },
        ]);
        assert_eq!(swing.total_ticks(), 15);
        assert_eq!(swing.phases().len(), 2);
        assert_eq!(swing.amplitude_at(0), 4.0);
        assert_eq!(swing.amplitude_at(9), 4.0);
        assert_eq!(swing.amplitude_at(10), 0.01);
        assert_eq!(swing.amplitude_at(14), 0.01);
        // The final phase extends indefinitely.
        assert_eq!(swing.amplitude_at(10_000), 0.01);
    }

    #[test]
    fn load_swing_samplers_are_deterministic() {
        let swing = LoadSwing::new(vec![
            LoadPhase {
                ticks: 7,
                amplitude: 2.0,
            },
            LoadPhase {
                ticks: 7,
                amplitude: 0.1,
            },
        ]);
        let mut a = swing.sampler(3);
        let mut b = swing.sampler(3);
        let (mut oa, mut ta) = ([0.0], [0.0]);
        let (mut ob, mut tb) = ([0.0], [0.0]);
        for _ in 0..20 {
            a(&mut oa, &mut ta);
            b(&mut ob, &mut tb);
            assert_eq!(oa[0].to_bits(), ob[0].to_bits());
            assert_eq!(oa[0].to_bits(), ta[0].to_bits());
        }
    }

    #[test]
    fn load_swing_drives_a_big_message_rate_swing_through_suppression() {
        let swing = LoadSwing::new(vec![
            LoadPhase {
                ticks: 50,
                amplitude: 4.0,
            },
            LoadPhase {
                ticks: 50,
                amplitude: 0.01,
            },
        ]);
        let mut streams: Vec<IngestStream<'_>> = (0..4u32)
            .map(|id| IngestStream {
                stream_id: id,
                producer: Box::new(Deadband {
                    delta: 0.2,
                    last: 0.0,
                }),
                sampler: swing.sampler(id),
            })
            .collect();
        // Samplers self-clock, so running one fleet call per phase measures
        // per-phase traffic without losing schedule position.
        let mut sink = Recorder::default();
        let mut phase = || {
            run_fleet_ingest(&mut streams, 50, 0, LinkFaults::default(), &mut sink)
                .total_traffic
                .messages()
        };
        let (high, low) = (phase(), phase());
        assert!(
            high >= 4 * low.max(1),
            "high-amplitude phase must offer ≥4× the load: high={high} low={low}"
        );
    }

    #[test]
    fn fleet_snapshots_expose_totals_and_streams() {
        let jobs: Vec<_> = (0..3).map(|_| job(100)).collect();
        let report = run_fleet(jobs, 2);
        let fleet = report.snapshot();
        assert_eq!(fleet.counter("fleet.sessions"), Some(3));
        assert_eq!(fleet.counter("fleet.traffic.messages"), Some(300));
        assert_eq!(fleet.counter("fleet.violations"), Some(0));

        let streams = report.stream_snapshots();
        assert_eq!(streams.counter("stream.0.traffic.messages"), Some(100));
        assert_eq!(streams.counter("stream.2.ticks"), Some(100));

        // Merging granularities yields one artifact with both.
        let mut merged = fleet.clone();
        merged.merge(&streams);
        assert_eq!(merged.counter("fleet.traffic.messages"), Some(300));
        assert_eq!(merged.counter("stream.1.traffic.messages"), Some(100));

        // Determinism: an identical run snapshots byte-identically.
        let again = run_fleet((0..3).map(|_| job(100)).collect::<Vec<_>>(), 2);
        assert_eq!(again.snapshot().to_json(), fleet.to_json());
        assert_eq!(again.stream_snapshots().to_json(), streams.to_json());
    }

    #[test]
    fn ingest_fleet_snapshots_expose_totals_and_streams() {
        let mut streams: Vec<IngestStream<'_>> = (0..2u32)
            .map(|id| IngestStream {
                stream_id: id,
                producer: Box::new(ShipAll),
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    obs[0] = id as f64;
                    tru[0] = id as f64;
                }),
            })
            .collect();
        let mut sink = Recorder::default();
        let report = run_fleet_ingest(&mut streams, 5, 8, LinkFaults::default(), &mut sink);
        let fleet = report.snapshot();
        assert_eq!(fleet.counter("fleet.streams"), Some(2));
        assert_eq!(fleet.counter("fleet.ticks"), Some(5));
        assert_eq!(fleet.counter("fleet.traffic.messages"), Some(10));
        let per_stream = report.stream_snapshots();
        assert_eq!(per_stream.counter("stream.0.traffic.messages"), Some(5));
        assert_eq!(per_stream.counter("stream.1.traffic.bytes"), Some(5 * 16));
    }
}
