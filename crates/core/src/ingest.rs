//! Multi-stream ingest: one tick loop (the private `Shard`), run inline, or
//! inline for shard 0 and on a worker thread for each other shard.
//!
//! The paper's server is one loop — predict every cached per-stream filter
//! one step, then apply this tick's syncs to them. That loop exists once,
//! in `Shard::tick`; the public ingesters differ only in *where* it runs:
//!
//! ```text
//!  inline shard (zero workers) — SequentialIngest
//!
//!  tick batch ──▶ Shard::tick: predict every lane group
//!                             ▶ walk the frames once: parse ▶ admit ▶ apply in place
//!                             ▶ poll feedback
//!                 on the caller's thread; no routing, no queues
//!
//!  shard 0 on the router, shards 1.. on workers — IngestPipeline
//!
//!                 ┌── bounded queue ──▶ worker 1: Shard::tick  {route(id) == 1}
//!  tick batch ────┤── bounded queue ──▶ worker 2: …   each owns its endpoints
//!  (router)       └── then, in place ─▶ shard 0:  Shard::tick  {route(id) == 0}
//!                        ◀──── buffers, each back once its tick is done ────
//! ```
//!
//! Every shard keeps each stream's protocol half, and its filter only as a
//! structure-of-arrays lane (`crate::batch_ingest`): one engine,
//! bit-identical to stepping each endpoint's own filter.
//!
//! Each shard **owns** its endpoints — no locks on the hot path, in the
//! spirit of share-nothing per-core stream engines. Determinism falls out of
//! three facts: the `id % shards` route is stable between barriers, each
//! shard takes its ticks in order (a worker's queue is FIFO), and
//! endpoints are independent so cross-endpoint interleaving cannot change
//! any filter's arithmetic. The sharded pipeline is therefore bit-identical
//! to [`SequentialIngest`] for any shard count — a property the proptests
//! and `bench_ingest` both enforce.
//!
//! Tick semantics match the simulator exactly: one `ingest_tick` call takes
//! **every** endpoint one predict step, then applies that tick's syncs in
//! arrival order — the transition a [`ServerEndpoint`] makes as syncs are
//! delivered to it and [`ServerEndpoint::advance`] closes the tick, made
//! here with each sync applied where it lies in the tick buffer, parsed
//! once. Every admitted sync applies. [`IngestPipeline::flush`] is
//! the barrier that makes "all ticks sent so far are applied" observable;
//! durability and elasticity are hooks that act at that barrier
//! (`kalstream-durable`'s `Durability`, `kalstream-elastic`'s
//! `ElasticDriver`), handed the pipeline by reference.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};

use kalstream_obs::{Histogram, Instrument, Scope, SpanTimer};

use crate::batch_ingest::BatchLanes;
use crate::frame::{FrameBatch, FrameDecoder};
use crate::server::{EndpointState, ProtocolHalf, ServerEndpoint};

/// Per-shard job queue depth. Deep enough that the router can run ahead of
/// a momentarily slow shard, small enough to bound memory and exert
/// backpressure.
const QUEUE_DEPTH: usize = 64;

/// The shard owning `stream_id` over `shards` shards: `stream_id % shards`,
/// the one route of the pipeline. A resize changes `shards` at a tick
/// barrier; routing never touches filter arithmetic, because endpoints are
/// independent and each stream's ticks stay FIFO within whichever shard
/// owns it, so any shard count — and any sequence of resizes at tick
/// barriers — is bit-identical to the sequential reference.
fn route(stream_id: u32, shards: usize) -> usize {
    stream_id as usize % shards
}

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit permutation (public
/// domain constants from Steele et al.), the step of [`IdHasher`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a stream id for the shard's id → endpoint map, which every frame
/// looks up: one [`splitmix64`] where the default hasher runs keyed SipHash
/// rounds. Ids arrive from the wire, but a shard only maps the ids it
/// serves, so a crafted id costs at most a probe of a map it is not in.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(*b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = splitmix64(u64::from(id));
    }
}

/// What one [`IngestPipeline::reassign`] did: the shard counts it moved
/// from/to and how long ingest was stalled at the drain barrier.
#[derive(Debug, Clone, Copy)]
pub struct ResizeTransition {
    /// Shard count before the resize.
    pub from: usize,
    /// Shard count after the resize.
    pub to: usize,
    /// Wall-clock time the ingest path was quiesced (drain + respawn).
    /// Wall-clock, so reported in artifacts but never in deterministic
    /// experiment tables.
    pub stall: std::time::Duration,
}

enum ShardJob {
    /// One tick's frames for this shard (possibly empty — every endpoint
    /// still takes its predict step).
    Tick(BytesMut),
    /// Capture every endpoint's [`EndpointState`] and send it back. Because
    /// each worker drains its queue in order, the capture lands exactly at
    /// the tick boundary where the job was enqueued — the durability
    /// layer's snapshot barrier, without stopping the other shards.
    Snapshot(Sender<Vec<(u32, EndpointState)>>),
}

/// What one shard did, reported at `finish`.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Report index within the run: the shard index for a fixed-shape run,
    /// or the worker-lifetime index (retired generations first) after
    /// resizes.
    pub shard: usize,
    /// Endpoints owned by this shard.
    pub streams: usize,
    /// Ticks processed.
    pub ticks: u64,
    /// Messages decoded and handed to endpoints.
    pub messages: u64,
    /// Wire bytes drained (frame headers + bodies).
    pub bytes_in: u64,
    /// Frames or bodies that failed to decode.
    pub decode_failures: u64,
    /// Frames addressed to a stream this shard has never heard of.
    pub unknown_streams: u64,
    /// Sequenced syncs dropped as stale/duplicate across this shard's
    /// endpoints during this worker lifetime (the v3 delivery layer's
    /// gap/duplicate detection; each endpoint keeps its whole count).
    pub stale_drops: u64,
    /// Seconds this shard spent *on CPU* (decoding + advancing endpoints),
    /// excluding time blocked on its queue — per-thread CPU time from
    /// `/proc/thread-self/schedstat` where the kernel exposes it (wall clock
    /// inside ticks otherwise, and for inline shards, which over-counts when
    /// the thread is preempted). The maximum across shards is the pipeline's
    /// critical path: on a machine with one core per shard, wall time
    /// converges to it. The benchmark's traced TCP runs read the shards'
    /// mean of it over the pipeline's wall time as
    /// `core.ingest.shard_busy_frac`.
    pub busy_secs: f64,
    /// Recycled-buffer hand-backs that failed because the router side of
    /// the recycle channel was already gone. Pre-fix this was a silent
    /// `let _ =`; a non-zero count during steady state means pooled buffers
    /// are being dropped (and re-allocated) instead of reused.
    pub recycle_drops: u64,
    /// Feedback payloads (acks, bound directives) polled off this shard's
    /// endpoints onto the feedback channel. Zero unless the pipeline was
    /// started with a feedback sender ([`IngestPipeline::start_with`]).
    pub feedback_out: u64,
    /// Feedback payloads dropped because the feedback receiver was already
    /// gone. Like `recycle_drops`, counted rather than swallowed: during a
    /// drain, a non-zero count here is lost acks/bounds, not clean teardown.
    pub feedback_drops: u64,
    /// Deepest this shard's job queue ever got, in jobs, *including* the
    /// one being processed (0 for inline shards, which have no queue).
    /// Exported per shard so a dashboard can see which shard's queue backed
    /// up rather than just "some shard was busy".
    pub queue_high_water: u64,
    /// Per-tick processing span (decode + endpoint advance) in log₂-
    /// bucketed nanoseconds. Wall-clock, so reported in snapshots but never
    /// folded into deterministic experiment tables.
    pub tick_ns: Histogram,
}

impl Instrument for ShardReport {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("streams", self.streams as u64);
        scope.counter("ticks", self.ticks);
        scope.counter("messages", self.messages);
        scope.counter("bytes_in", self.bytes_in);
        scope.counter("decode_failures", self.decode_failures);
        scope.counter("unknown_streams", self.unknown_streams);
        scope.counter("stale_drops", self.stale_drops);
        scope.counter("recycle_drops", self.recycle_drops);
        scope.counter("feedback_out", self.feedback_out);
        scope.counter("feedback_drops", self.feedback_drops);
        scope.gauge("busy_secs", self.busy_secs);
        scope.gauge("queue_high_water", self.queue_high_water as f64);
        scope.histogram("tick_ns", &self.tick_ns);
    }
}

/// Aggregate outcome of an ingest run.
#[derive(Debug)]
pub struct IngestResult {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Every endpoint, sorted by stream id — the state a caller compares
    /// bit-for-bit against the sequential reference.
    pub endpoints: Vec<(u32, ServerEndpoint)>,
    /// Frames whose *header* was malformed where a sharded pipeline splits
    /// the tick between its shards: a truncated header or an overrunning
    /// length ends that tick's walk, and no shard ever sees the frame. Zero
    /// for the inline engines, whose one shard meets the same fault in its
    /// own decoder and counts it in its report.
    pub router_decode_failures: u64,
}

impl IngestResult {
    /// Total messages applied across shards.
    pub fn total_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.messages).sum()
    }

    /// Total wire bytes drained across shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_in).sum()
    }

    /// Total decode failures: every shard's, and the router's.
    pub fn total_decode_failures(&self) -> u64 {
        self.shards.iter().map(|s| s.decode_failures).sum::<u64>() + self.router_decode_failures
    }
}

impl Instrument for IngestResult {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("messages", self.total_messages());
        scope.counter("bytes_in", self.total_bytes());
        scope.counter("decode_failures", self.total_decode_failures());
        for shard in &self.shards {
            scope.observe(&format!("shard.{}", shard.shard), shard);
        }
    }
}

/// One shard: a set of streams, and the only copy of the tick loop. It
/// takes each [`ServerEndpoint`] handed to it apart into its two halves —
/// the protocol half stays here, the filter goes onto a lane — and puts
/// them back together only to snapshot or hand the streams back. A worker
/// thread owns one behind a queue; [`SequentialIngest`] owns one directly.
pub(crate) struct Shard {
    /// Each stream's protocol half, sorted by stream id, so feedback poll
    /// order, snapshots and teardown are deterministic without sorting (and
    /// never depend on `HashMap` iteration). A stream's position here is
    /// its *slot*. Membership is fixed for the shard's lifetime.
    streams: Vec<(u32, ProtocolHalf)>,
    /// Stream id → slot.
    index: HashMap<u32, usize, BuildHasherDefault<IdHasher>>,
    /// Every stream's filter, one lane per slot.
    lanes: BatchLanes,
    /// One bit per stream that may have feedback to poll after this
    /// tick: every stream on the first tick (one can arrive with an ack
    /// or a bound armed), then those a frame was addressed to. So a tick
    /// polls the streams it touched, not the whole shard.
    ///
    /// Invariant: while the shard owns a stream, only a frame addressed
    /// to it arms its feedback (an ack; nothing pushes a bound directive
    /// into a shard). Anything that comes to arm feedback another way must
    /// mark the stream here too, or its feedback is never polled; debug
    /// builds check after every poll that no stream is left holding any.
    due: Vec<u64>,
    decoder: FrameDecoder,
    feedback: Option<Sender<(u32, Bytes)>>,
    /// The streams' summed stale drops when the shard took them over: a
    /// protocol half carries its count across hand-overs, and the report
    /// counts this worker lifetime's drops only.
    stale_at_start: u64,
    report: ShardReport,
}

/// Marks stream `slot` in a [`Shard`]'s `due` bitmap.
fn mark(due: &mut [u64], slot: usize) {
    due[slot / 64] |= 1 << (slot % 64);
}

impl Shard {
    /// Takes `endpoints` over: each one's filter onto a lane, its protocol
    /// half kept here.
    ///
    /// # Panics
    /// Panics when an endpoint is handed over mid-tick (a sync applied
    /// since its last [`ServerEndpoint::advance`]): a shard takes streams
    /// over at a tick boundary.
    pub(crate) fn new(
        shard: usize,
        mut endpoints: Vec<(u32, ServerEndpoint)>,
        feedback: Option<Sender<(u32, Bytes)>>,
    ) -> Self {
        endpoints.sort_by_key(|(id, _)| *id);
        let n = endpoints.len();
        let (mut lanes, mut streams) = (BatchLanes::default(), Vec::with_capacity(n));
        let mut index = HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default());
        // Taken apart in place: moving each ≈ 2.9 KB endpoint out costs set-up.
        for (id, ep) in &mut endpoints {
            assert!(!ep.predicted, "stream {id} handed to a shard mid-tick");
            index.insert(*id, streams.len());
            lanes.push(&ep.filter);
            streams.push((*id, std::mem::take(&mut ep.protocol)));
        }
        let stale_at_start = streams.iter().map(|(_, h)| h.delivery.stale_drops).sum();
        Shard {
            lanes,
            due: {
                let mut due = vec![0; streams.len().div_ceil(64)];
                (0..streams.len()).for_each(|slot| mark(&mut due, slot));
                due
            },
            report: ShardReport {
                shard,
                streams: streams.len(),
                ..ShardReport::default()
            },
            streams,
            index,
            decoder: FrameDecoder::new(),
            feedback,
            stale_at_start,
        }
    }

    /// One tick: predict every lane; walk `buf`'s frames once, each sync
    /// parsed, admitted (`ProtocolHalf::admit_view`) and applied where it
    /// lies to its stream's lane; poll feedback (acks before bounds per
    /// stream, streams in ascending id order — the ingest-mode twin of the
    /// session loop's `while let Some(fb) = consumer.poll_feedback(now)`);
    /// then hand `buf` to `recycle`.
    ///
    /// The hand-back is the tick's last act, so a buffer back at the router
    /// means its tick is done, feedback sent: [`IngestPipeline::flush`]
    /// waits for nothing else. `recycle` returns whether it succeeded.
    pub(crate) fn tick<B: Deref<Target = [u8]>>(
        &mut self,
        buf: B,
        recycle: impl FnOnce(B) -> bool,
    ) {
        let span = SpanTimer::start();
        let Shard {
            streams,
            index,
            lanes,
            due,
            decoder,
            report,
            ..
        } = self;
        lanes.predict(|slot| streams[slot].1.predict_failures += 1);
        report.bytes_in += buf.len() as u64;
        decoder.for_each_wire_message(&buf, |id, msg| match index.get(&id) {
            Some(&slot) => {
                report.messages += 1;
                mark(due, slot);
                let half = &mut streams[slot].1;
                if let Some(sync) = half.admit_view(msg) {
                    half.syncs_applied += u64::from(lanes.apply(slot, sync));
                }
            }
            None => report.unknown_streams += 1,
        });
        if let Some(tx) = &self.feedback {
            for (word, bits) in due.iter_mut().enumerate() {
                let mut bits = std::mem::take(bits);
                while bits != 0 {
                    let (id, half) = &mut streams[word * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    while let Some(payload) = half.poll_feedback() {
                        // A closed receiver during drain is lost feedback —
                        // count it, never `let _` it away.
                        match tx.send((*id, payload)) {
                            Ok(()) => report.feedback_out += 1,
                            Err(_) => report.feedback_drops += 1,
                        }
                    }
                }
            }
            debug_assert!(
                streams.iter().all(|(_, half)| !half.feedback_due()),
                "a stream outside `due` holds feedback"
            );
        }
        // A failed hand-back (router gone) must be counted, not swallowed:
        // in steady state it means the pool is leaking capacity.
        if !recycle(buf) {
            report.recycle_drops += 1;
        }
        report.ticks += 1;
        span.stop(&mut report.tick_ns);
    }

    /// Captures every stream's [`EndpointState`], sorted by stream id,
    /// without consuming the shard: its protocol half with the filter
    /// assembled from its lane — the endpoint [`Shard::finish`] would hand
    /// back, captured.
    pub(crate) fn snapshot_states(&self) -> Vec<(u32, EndpointState)> {
        let streams = self.streams.iter().enumerate();
        streams
            .map(|(slot, (id, half))| (*id, half.state(&self.lanes.filter(slot))))
            .collect()
    }

    /// Tears down into a one-shard [`IngestResult`], each stream's protocol
    /// half and its lane's filter put back together as a
    /// [`ServerEndpoint`]. `cpu_secs` is the owning worker thread's on-CPU
    /// time, when it has one and the kernel exposes it; the summed tick
    /// spans stand in otherwise.
    pub(crate) fn finish(self, cpu_secs: Option<f64>) -> IngestResult {
        let mut report = self.report;
        report.decode_failures = self.decoder.decode_failures();
        let streams = self.streams.iter();
        let stale: u64 = streams.map(|(_, half)| half.delivery.stale_drops).sum();
        report.stale_drops = stale - self.stale_at_start;
        report.busy_secs = cpu_secs.unwrap_or(report.tick_ns.sum() as f64 / 1e9);
        let streams = self.streams.into_iter().enumerate();
        let endpoints = streams.map(|(slot, (id, protocol))| {
            let filter = self.lanes.filter(slot);
            (id, ServerEndpoint::from_halves(filter, protocol))
        });
        IngestResult {
            shards: vec![report],
            endpoints: endpoints.collect(),
            router_decode_failures: 0,
        }
    }
}

/// A worker thread's end of the pipeline: its job queue and its handle.
struct Worker {
    tx: Sender<ShardJob>,
    handle: JoinHandle<IngestResult>,
}

/// The sharded ingest pipeline: steps shard 0 on the caller's thread,
/// spawns one worker thread for each other shard, routes framed tick
/// batches to the shards, and joins them back into an [`IngestResult`].
pub struct IngestPipeline {
    /// Shard 0, stepped by [`IngestPipeline::ingest_tick`] itself.
    inline: Shard,
    /// Shards 1.., one worker thread each.
    workers: Vec<Worker>,
    /// Each shard's batch being filled. Shard 0's never leaves the router:
    /// it is cleared once its tick is done.
    batches: Vec<FrameBatch>,
    /// Buffers not in a batch or in flight, each cleared and reserved to
    /// `high_water`. The whole population is made up front
    /// ([`IngestPipeline::buffer_cap`], topped up by a grow), so a tick
    /// never mints one: past the free ones, the router waits for a worker
    /// to hand one back. That bounds pipeline memory, and lets every buffer
    /// reach the workload's high-water capacity during warm-up — the
    /// property that makes steady-state ticks allocation-free.
    free: Vec<BytesMut>,
    /// Every buffer the pipeline owns: free, in a batch or in flight.
    population: usize,
    /// Buffers the workers hand back once their tick is done. Bounded by
    /// the population, so a hand-back never blocks (while the router waits
    /// on that worker's queue) and the queue never grows; re-made at each
    /// [`IngestPipeline::reassign`], which respawns the workers anyway.
    recycle_rx: Receiver<BytesMut>,
    /// Feedback channel handed to every shard generation, when enabled.
    feedback: Option<Sender<(u32, Bytes)>>,
    /// Reports from shard generations retired by earlier resizes; folded
    /// into the final [`IngestResult`] so totals stay comparable to the
    /// sequential reference across any resize history.
    retired: Vec<ShardReport>,
    router: FrameDecoder,
    /// Frames routed since the last [`IngestPipeline::take_offered`] — the
    /// elastic controller's deterministic load signal, counted where every
    /// frame is routed anyway.
    offered: u64,
    /// Largest batch (wire bytes) sent to any worker so far. Every buffer
    /// is reserved to this size when it comes back and — free ones — when
    /// the mark rises, so none grows later on the hot path.
    high_water: usize,
}

impl IngestPipeline {
    /// Starts `shards` shards — shard 0 inline, a worker thread for each
    /// other — and distributes `endpoints` among them by
    /// `stream_id % shards`, without a feedback channel.
    ///
    /// # Panics
    /// Panics when `shards` is 0, or when an endpoint is handed over
    /// mid-tick (a sync applied since its last [`ServerEndpoint::advance`]).
    pub fn start(shards: usize, endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        IngestPipeline::start_with(shards, endpoints, None)
    }

    /// The fully specified constructor.
    ///
    /// * `shards` — the shard count; stream `id` lives on shard
    ///   `id % shards`. Shard 0 steps on the caller's thread, so one shard
    ///   starts no thread.
    /// * `feedback` — when set, each shard polls its endpoints' feedback
    ///   (acks, bound directives) after every tick's advance and sends
    ///   `(stream_id, payload)` pairs into it — the hook a network server
    ///   uses to route acks back to source connections. The channel **must
    ///   be unbounded**, so a slow drain can never deadlock the flush
    ///   barrier. Ordering: within one stream, poll order (acks before
    ///   bounds, per [`ServerEndpoint`]'s contract); across streams of one
    ///   shard, ascending stream id per tick; across shards, unordered
    ///   (streams never span shards, so no consumer can observe it).
    ///   [`IngestPipeline::flush`] guarantees all feedback for flushed
    ///   ticks is in the channel when it returns.
    ///
    /// # Panics
    /// Panics when `shards` is 0, or when an endpoint is handed over
    /// mid-tick (a sync applied since its last [`ServerEndpoint::advance`]).
    pub fn start_with(
        shards: usize,
        endpoints: Vec<(u32, ServerEndpoint)>,
        feedback: Option<Sender<(u32, Bytes)>>,
    ) -> Self {
        assert!(shards > 0, "a pipeline needs at least one shard");
        let population = IngestPipeline::buffer_cap(shards);
        let (recycle_tx, recycle_rx) = bounded(population);
        let (inline, workers) = start_shards(shards, endpoints, &feedback, recycle_tx);
        IngestPipeline {
            inline,
            workers,
            batches: (0..shards).map(|_| FrameBatch::new()).collect(),
            free: (shards..population).map(|_| BytesMut::new()).collect(),
            population,
            recycle_rx,
            feedback,
            retired: Vec::new(),
            router: FrameDecoder::new(),
            offered: 0,
            high_water: 0,
        }
    }

    /// Buffers in circulation over `shards` shards: each shard's batch
    /// being filled plus four in flight. Deliberately small — a few ticks
    /// of run-ahead per shard.
    fn buffer_cap(shards: usize) -> usize {
        shards * 5
    }

    /// Moves every buffer the workers have handed back to the free list,
    /// cleared and reserved to the high-water mark.
    fn reclaim(&mut self) {
        while let Ok(buf) = self.recycle_rx.try_recv() {
            let buf = self.ready(buf);
            self.free.push(buf);
        }
    }

    /// A handed-back buffer made ready for reuse: cleared and reserved to
    /// the high-water mark. The one place a returned buffer is reserved.
    fn ready(&self, mut buf: BytesMut) -> BytesMut {
        buf.clear();
        buf.reserve(self.high_water);
        buf
    }

    /// A cleared buffer for the next batch: a free one if there is one,
    /// otherwise recycled — blocking until a worker hands one back
    /// (bounded, since a worker hands each tick buffer back as soon as its
    /// tick is done).
    fn next_buffer(&mut self) -> BytesMut {
        self.reclaim();
        match self.free.pop() {
            Some(buf) => buf,
            None => {
                let buf = self.recycle_rx.recv().expect("ingest shard worker died");
                self.ready(buf)
            }
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.batches.len()
    }

    /// Frames routed since the previous call (or the last resize by
    /// [`IngestPipeline::reassign`]), resetting the count — a pure function
    /// of the traffic, no clocks.
    pub fn take_offered(&mut self) -> u64 {
        std::mem::take(&mut self.offered)
    }

    /// Moves the pipeline to `to` shards at a drain barrier: hands the
    /// inline shard's endpoints back and closes every worker's queue (each
    /// worker applies all in-flight ticks, then hands back its endpoints —
    /// the quiesce point), regroups the endpoints over `to` shards, and
    /// restarts the shards. Retired shards' reports are folded into the
    /// final [`IngestResult`], so totals stay comparable to the sequential
    /// reference across any resize history.
    ///
    /// Bit-identity is preserved by construction: reassignment happens at a
    /// tick boundary, every stream's ticks stay FIFO within whichever shard
    /// owns it, and endpoints are independent — so no filter's arithmetic
    /// can observe the move. A same-count call is a no-op.
    ///
    /// # Panics
    /// Panics when `to` is 0 or a worker panicked.
    pub fn reassign(&mut self, to: usize) -> ResizeTransition {
        assert!(to > 0, "a pipeline needs at least one shard");
        let from = self.shards();
        if to == from {
            return ResizeTransition {
                from,
                to,
                stall: std::time::Duration::ZERO,
            };
        }
        let start = std::time::Instant::now();
        let endpoints = self.join_workers();
        // Every worker is gone and every buffer back. Match the router-side
        // batch set to the new shard count (a shrink frees the spare
        // buffers, a grow's new batches start empty), top the free list up
        // to the new population, reserved to the high-water mark, and
        // size a new recycle channel for it.
        self.reclaim();
        while self.batches.len() > to {
            let batch = self.batches.pop().expect("length checked above");
            self.free.push(batch.into_buffer());
        }
        self.batches.resize_with(to, FrameBatch::new);
        self.population = (self.free.len() + to).max(IngestPipeline::buffer_cap(to));
        let high_water = self.high_water;
        self.free
            .resize_with(self.population - to, || BytesMut::with_capacity(high_water));
        let (recycle_tx, recycle_rx) = bounded(self.population);
        self.recycle_rx = recycle_rx;
        (self.inline, self.workers) = start_shards(to, endpoints, &self.feedback, recycle_tx);
        self.offered = 0;
        ResizeTransition {
            from,
            to,
            stall: start.elapsed(),
        }
    }

    /// Tears shard 0 down, closes each worker's queue (it drains, then
    /// exits) and joins it, retires every report — shard 0's first — and
    /// returns every shard's endpoints, sorted by stream id.
    fn join_workers(&mut self) -> Vec<(u32, ServerEndpoint)> {
        let inline = std::mem::replace(&mut self.inline, Shard::new(0, Vec::new(), None));
        let joined = self.workers.drain(..).map(|worker| {
            drop(worker.tx);
            worker.handle.join().expect("ingest shard worker panicked")
        });
        let mut runs = Vec::with_capacity(self.batches.len());
        for result in std::iter::once(inline.finish(None)).chain(joined) {
            self.retired.extend(result.shards);
            runs.push(result.endpoints);
        }
        merge_by_id(runs)
    }

    /// Routes one tick's framed traffic to the shards and advances every
    /// endpoint one tick, shard 0's here once the workers' batches are sent
    /// (so on more cores they overlap). `wire` is a batch as assembled by
    /// [`FrameBatch`]; it may be empty (a quiet tick still predicts).
    ///
    /// Returns with the workers' batches only *enqueued* — workers apply
    /// asynchronously; call [`IngestPipeline::flush`] when "applied" must
    /// be observable.
    pub fn ingest_tick(&mut self, wire: &[u8]) {
        let shards = self.batches.len();
        let batches = &mut self.batches;
        let offered = &mut self.offered;
        self.router.for_each_frame(wire, |frame| {
            *offered += 1;
            batches[route(frame.stream_id, shards)].push_raw(frame.stream_id, frame.body);
        });
        for shard in 1..shards {
            let fresh = FrameBatch::from_buffer(self.next_buffer());
            let batch = std::mem::replace(&mut self.batches[shard], fresh);
            if batch.wire_len() > self.high_water {
                self.high_water = batch.wire_len();
                for buf in self.free.iter_mut() {
                    buf.reserve(self.high_water);
                }
            }
            self.workers[shard - 1]
                .tx
                .send(ShardJob::Tick(batch.into_buffer()))
                .expect("ingest shard worker died");
        }
        let batch = &mut self.batches[0];
        self.inline.tick(batch.as_bytes(), |_| true);
        batch.clear();
    }

    /// Barrier: blocks until every shard has applied all previously
    /// ingested ticks and sent their feedback — until every buffer is back,
    /// free or in a batch, since a worker hands a tick's buffer back as the
    /// tick's last act. No job is sent and no reply awaited.
    pub fn flush(&mut self) {
        while self.free.len() + self.batches.len() < self.population {
            let buf = self.recycle_rx.recv().expect("ingest shard worker died");
            let buf = self.ready(buf);
            self.free.push(buf);
        }
    }

    /// Captures every endpoint's [`EndpointState`] at the current tick
    /// boundary, sorted by stream id — the durability layer's snapshot
    /// hook. The snapshot job rides each worker's ordered queue, so the
    /// capture observes exactly the ticks ingested before this call and
    /// none after; the call blocks until every worker has replied (it is a
    /// flush barrier as a side effect). Shard 0 is captured in place.
    pub fn snapshot_states(&mut self) -> Vec<(u32, EndpointState)> {
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let (tx, rx) = bounded(1);
            let job = ShardJob::Snapshot(tx);
            worker.tx.send(job).expect("ingest shard worker died");
            replies.push(rx);
        }
        let mut runs = vec![self.inline.snapshot_states()];
        for rx in replies {
            runs.push(rx.recv().expect("ingest shard worker died"));
        }
        merge_by_id(runs)
    }

    /// Shuts the shards down and collects their reports and endpoints
    /// (sorted by stream id); each worker applies its queued ticks first.
    /// After resizes the result carries one report per shard *lifetime* —
    /// retired generations first, then the final one — renumbered
    /// sequentially so scoped metric names stay unique.
    pub fn finish(mut self) -> IngestResult {
        let endpoints = self.join_workers();
        let mut shards = std::mem::take(&mut self.retired);
        for (i, report) in shards.iter_mut().enumerate() {
            report.shard = i;
        }
        IngestResult {
            shards,
            endpoints,
            router_decode_failures: self.router.decode_failures(),
        }
    }
}

/// Merges the shards' id-sorted `runs` into one id-sorted `Vec`, sized
/// once: each element is taken from the head of its run and pushed, where
/// appending the runs and sorting moved ≈ 2.9 KB endpoints again. Streams
/// never span shards, so ids are unique across runs.
fn merge_by_id<T>(runs: Vec<Vec<(u32, T)>>) -> Vec<(u32, T)> {
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    loop {
        let heads = runs.iter().enumerate();
        let next = heads.filter_map(|(run, rest)| Some((rest.as_slice().first()?.0, run)));
        let Some((_, run)) = next.min() else {
            return merged;
        };
        merged.push(runs[run].next().expect("the run has a head"));
    }
}

/// Groups `endpoints` over `shards` shards: shard 0 to step inline, and a
/// worker thread spawned for each other, handing its tick buffers back on
/// `recycle`. Shared by pipeline start and [`IngestPipeline::reassign`] so
/// both generations are built by exactly the same code path.
fn start_shards(
    shards: usize,
    endpoints: Vec<(u32, ServerEndpoint)>,
    feedback: &Option<Sender<(u32, Bytes)>>,
    recycle: Sender<BytesMut>,
) -> (Shard, Vec<Worker>) {
    let mut groups: Vec<Vec<(u32, ServerEndpoint)>> = (0..shards).map(|_| Vec::new()).collect();
    for (id, ep) in endpoints {
        groups[route(id, shards)].push((id, ep));
    }
    let inline = Shard::new(0, groups.remove(0), feedback.clone());
    let workers = groups.into_iter().zip(1..).map(|(group, i)| {
        let shard = Shard::new(i, group, feedback.clone());
        let (tx, rx) = bounded(QUEUE_DEPTH);
        let recycle = recycle.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ingest-shard-{i}"))
            .spawn(move || shard_worker(shard, rx, recycle))
            .expect("failed to spawn shard worker");
        Worker { tx, handle }
    });
    (inline, workers.collect())
}

/// On-CPU nanoseconds of the calling thread so far — field 1 of
/// `/proc/thread-self/schedstat` — when the kernel exposes it. Unlike wall
/// clock, this excludes time the thread was preempted or blocked, which is
/// what makes per-shard busy time meaningful on machines with fewer cores
/// than shards.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// A worker thread: [`Shard::tick`] behind a job queue, until the queue
/// closes.
fn shard_worker(
    mut shard: Shard,
    rx: Receiver<ShardJob>,
    recycle: Sender<BytesMut>,
) -> IngestResult {
    let cpu_start = thread_cpu_ns();
    while let Ok(job) = rx.recv() {
        // Depth including the job just taken: what the router saw stacked
        // against this shard when it was deepest.
        shard.report.queue_high_water = shard.report.queue_high_water.max(rx.len() as u64 + 1);
        match job {
            ShardJob::Tick(buf) => shard.tick(buf, |buf| recycle.send(buf).is_ok()),
            ShardJob::Snapshot(reply) => reply
                .send(shard.snapshot_states())
                .expect("ingest pipeline dropped its snapshot receiver"),
        }
    }
    let cpu_secs = cpu_start
        .zip(thread_cpu_ns())
        .map(|(start, end)| (end - start) as f64 / 1e9);
    shard.finish(cpu_secs)
}

/// The single-threaded ingester: one inline `Shard` — no threads, no
/// routing, no queues — stepping on the caller's thread. The sharded
/// pipeline must match this bit for bit; `bench_ingest` exits non-zero if
/// it ever doesn't.
pub struct SequentialIngest(Shard);

impl SequentialIngest {
    /// Builds the ingester over `endpoints`, every one on a lane.
    ///
    /// # Panics
    /// Panics when an endpoint is handed over mid-tick (a sync applied
    /// since its last [`ServerEndpoint::advance`]).
    pub fn new(endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        SequentialIngest(Shard::new(0, endpoints, None))
    }

    /// Drains one tick's batch and advances every endpoint, synchronously.
    pub fn ingest_tick(&mut self, wire: &[u8]) {
        self.0.tick(wire, |_| true);
    }

    /// Captures every endpoint's [`EndpointState`], sorted by stream id —
    /// trivially a barrier, since this ingester applies ticks inline.
    pub fn snapshot_states(&self) -> Vec<(u32, EndpointState)> {
        self.0.snapshot_states()
    }

    /// Collects the run into the same shape as the sharded pipeline
    /// (one pseudo-shard).
    pub fn finish(self) -> IngestResult {
        self.0.finish(None)
    }
}

/// Anything that can drain one tick's framed batch — implemented by the
/// sharded pipeline and the inline ingester so callers (the sim bridge,
/// WAL replay, `bench_ingest`) can swap them behind one shape.
pub trait TickIngest {
    /// Drains one tick's batch and advances every endpoint one tick.
    fn ingest_tick(&mut self, wire: &[u8]);

    /// Barrier: returns once every ingested tick is applied and its
    /// feedback sent. The inline ingesters apply before returning from
    /// [`TickIngest::ingest_tick`], so the default does nothing.
    fn flush(&mut self) {}
}

impl TickIngest for IngestPipeline {
    fn ingest_tick(&mut self, wire: &[u8]) {
        IngestPipeline::ingest_tick(self, wire);
    }

    fn flush(&mut self) {
        IngestPipeline::flush(self);
    }
}

impl TickIngest for SequentialIngest {
    fn ingest_tick(&mut self, wire: &[u8]) {
        SequentialIngest::ingest_tick(self, wire);
    }
}

/// Bridges the simulator's ingest mode ([`kalstream_sim::IngestSink`]) onto
/// a framed ingester: pushes accumulate into a pooled [`FrameBatch`]; the
/// end-of-tick hook drains the batch into the wrapped ingester; with a
/// feedback channel, the ingester's acks and bound directives go back to
/// the fleet loop, which puts each on its stream's reverse link.
pub struct FramingSink<I: TickIngest> {
    batch: FrameBatch,
    inner: I,
    feedback: Option<Receiver<(u32, Bytes)>>,
}

impl<I: TickIngest> FramingSink<I> {
    /// Wraps an ingester whose feedback, if any, is not returned.
    pub fn new(inner: I) -> Self {
        FramingSink {
            batch: FrameBatch::new(),
            inner,
            feedback: None,
        }
    }

    /// Wraps an ingester that sends its feedback into the channel
    /// `feedback` receives from — [`IngestPipeline::start_with`]'s. Each
    /// tick's is handed to the fleet loop after a [`TickIngest::flush`].
    pub fn with_feedback(inner: I, feedback: Receiver<(u32, Bytes)>) -> Self {
        FramingSink {
            feedback: Some(feedback),
            ..FramingSink::new(inner)
        }
    }

    /// Unwraps the ingester (to call its `finish`).
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: TickIngest> kalstream_sim::IngestSink for FramingSink<I> {
    fn push(&mut self, stream_id: u32, payload: &bytes::Bytes) {
        self.batch.push_raw(stream_id, payload);
    }

    fn end_tick(&mut self) {
        self.inner.ingest_tick(self.batch.as_bytes());
        self.batch.clear();
    }

    fn feedback(&mut self, out: &mut dyn FnMut(u32, Bytes)) {
        let Some(feedback) = &self.feedback else {
            return;
        };
        self.inner.flush();
        while let Ok((stream_id, payload)) = feedback.try_recv() {
            out(stream_id, payload);
        }
    }
}

#[cfg(test)]
impl SequentialIngest {
    /// The shard's lanes, for the batch engine's tests.
    pub(crate) fn lanes(&self) -> &BatchLanes {
        &self.0.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBatch;
    use crate::test_support::{
        assert_same_endpoints, assert_same_states, filter_bits, oracle, poll_dry, record_log,
    };
    use crate::wire::SyncMessage;
    use crate::{ProtocolConfig, SessionSpec, StreamSession};
    use crossbeam::channel::unbounded;
    use kalstream_sim::{Consumer, Producer};

    #[test]
    fn failed_recycle_handback_is_counted_not_swallowed() {
        // Pre-fix, a dead recycle channel made `let _ = recycle.send(buf)`
        // silently drop every pooled buffer; the worker must count it.
        let (tx, rx) = bounded(4);
        let (recycle_tx, recycle_rx) = unbounded();
        drop(recycle_rx); // router gone: every hand-back fails
        tx.send(ShardJob::Tick(BytesMut::new())).unwrap();
        tx.send(ShardJob::Tick(BytesMut::new())).unwrap();
        drop(tx);
        let shard = Shard::new(0, Vec::new(), None);
        let report = &shard_worker(shard, rx, recycle_tx).shards[0];
        assert_eq!(report.recycle_drops, 2);
        assert_eq!(report.ticks, 2);
        assert_eq!(report.tick_ns.count(), 2, "every tick span recorded");
    }

    /// Runs `log` through a `SequentialIngest` and through a pipeline at
    /// each of `shard_counts`, and holds every result to the oracle.
    fn assert_engines_match_the_oracle(
        servers: Vec<(u32, ServerEndpoint)>,
        log: &[Vec<u8>],
        shard_counts: &[usize],
    ) {
        let want = oracle(servers.clone(), log);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0, "log recorded no syncs");
        assert_same_endpoints(&seq_result.endpoints, &want, "sequential");
        for &shards in shard_counts {
            let mut pipe = IngestPipeline::start(shards, servers.clone());
            for tick in log {
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            assert_eq!(result.total_messages(), seq_result.total_messages());
            assert_same_endpoints(&result.endpoints, &want, &format!("{shards} shards"));
        }
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        let (servers, log) = record_log(0, 12, 60);
        assert_engines_match_the_oracle(servers, &log, &[1, 2, 3, 5, 8]);
    }

    #[test]
    fn constant_velocity_pipeline_matches_the_oracle_bit_for_bit() {
        // 2-state constant-velocity sessions on lanes: the pipeline must
        // reproduce the oracle exactly at every shard count.
        use kalstream_filter::models;
        use kalstream_linalg::Vector;
        let mut sources = Vec::new();
        let mut servers = Vec::new();
        for id in 0..12u32 {
            let config = ProtocolConfig::new(0.25).unwrap();
            let StreamSession { source, server } = SessionSpec::fixed(
                models::constant_velocity(1.0, 0.05, 0.1),
                Vector::zeros(2),
                1.0,
                config,
            )
            .unwrap()
            .build();
            sources.push((id, source));
            servers.push((id, server));
        }
        let mut log = Vec::new();
        for t in 0..60 {
            let mut batch = FrameBatch::new();
            for (id, source) in sources.iter_mut() {
                let v = (t as f64 * 0.1 + *id as f64).sin();
                if let Some(payload) = source.observe(t, &[v]) {
                    batch.push_raw(*id, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        assert_engines_match_the_oracle(servers, &log, &[1, 2, 3, 5]);
    }

    #[test]
    fn every_buffer_comes_back_reserved_and_nothing_grows() {
        // Each phase's last tick raises the high-water mark while buffers
        // sit free and others are in flight, with a grow and a shrink in
        // between. After each flush every buffer is back — free or a router
        // batch — each free one reserved to the mark, and the free list
        // still has the room it had.
        let (servers, _) = record_log(0, 8, 0);
        let mut pipe = IngestPipeline::start(2, servers);
        for (phase, shards) in [2, 4, 1].into_iter().enumerate() {
            pipe.reassign(shards);
            let reserved = pipe.free.capacity();
            for n in 1..=20 {
                let frames = if n < 20 { n } else { 60 + 20 * phase };
                let mut batch = FrameBatch::new();
                for i in 0..frames {
                    batch.push(
                        i as u32 % 8,
                        &SyncMessage::Measurement {
                            z: kalstream_linalg::Vector::from_slice(&[i as f64]),
                        },
                    );
                }
                pipe.ingest_tick(batch.as_bytes());
            }
            pipe.flush();
            assert_eq!(pipe.free.capacity(), reserved, "{shards} shards");
            assert_eq!(pipe.free.len() + shards, [10, 20, 20][phase]);
            assert!(pipe.free.iter().all(|b| b.capacity() >= pipe.high_water));
        }
        pipe.finish();
    }

    #[test]
    fn resizes_at_tick_barriers_are_bit_identical_to_unresized() {
        let (servers, log) = record_log(0, 12, 60);
        let want = oracle(servers.clone(), &log);
        let servers_again = servers.clone();
        // Grow, shrink, and shrink to one — mid-run, at tick barriers.
        // None of it may be visible in the final filter state.
        let schedule = [(15usize, 4usize), (40, 2), (50, 1)];
        let mut pipe = IngestPipeline::start(1, servers);
        for (t, tick) in log.iter().enumerate() {
            if let Some(&(_, to)) = schedule.iter().find(|(at, _)| *at == t) {
                let transition = pipe.reassign(to);
                assert_eq!(transition.to, to);
                assert_eq!(pipe.shards(), to);
            }
            pipe.ingest_tick(tick);
        }
        let result = pipe.finish();
        // One report per worker lifetime: 1 + 4 + 2 + 1.
        assert_eq!(result.shards.len(), 8);
        // Every frame is counted by exactly one shard across the resizes.
        let mut seq = SequentialIngest::new(servers_again);
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_messages = seq.finish().total_messages();
        assert!(seq_messages > 0, "log recorded no syncs");
        assert_eq!(result.total_messages(), seq_messages);
        let ticks: u64 = result.shards.iter().map(|s| s.ticks).sum();
        // Phase ticks × worker count per phase: 15·1 + 25·4 + 10·2 + 10·1.
        let expected_ticks: u64 = 15 + 25 * 4 + 10 * 2 + 10;
        assert_eq!(ticks, expected_ticks);
        assert_same_endpoints(&result.endpoints, &want, "across resizes");
    }

    #[test]
    fn scattered_ids_come_back_merged_in_id_order_at_every_shard_count() {
        // Ids out of order and far apart, so every shard count splits them
        // unevenly and a merge that drops, repeats or misorders a run's
        // head shows.
        const IDS: [u32; 7] = [41, 7, 1000, 3, 12, 99, 64];
        let (servers, log) = record_log(0, IDS.len() as u32, 40);
        let servers: Vec<_> = servers
            .into_iter()
            .map(|(i, ep)| (IDS[i as usize], ep))
            .collect();
        let log: Vec<Vec<u8>> = log
            .iter()
            .map(|tick| {
                let mut batch = FrameBatch::new();
                FrameDecoder::new().for_each_frame(tick, |frame| {
                    batch.push_raw(IDS[frame.stream_id as usize], frame.body)
                });
                batch.as_bytes().to_vec()
            })
            .collect();
        fn increasing<T>(items: &[(u32, T)], what: &str) {
            let ids: Vec<u32> = items.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids.len(), IDS.len(), "{what}");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: {ids:?}");
        }
        let mut seq = SequentialIngest::new(servers.clone());
        let mut seq_states = Vec::new();
        for (t, tick) in log.iter().enumerate() {
            seq.ingest_tick(tick);
            if t % 10 == 9 {
                seq_states.push(seq.snapshot_states());
            }
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0, "log recorded no syncs");
        // Each start count alone, then resized to 2 and to 5 mid-run.
        for (start, resizes) in [(1, vec![]), (2, vec![]), (3, vec![]), (5, vec![])]
            .into_iter()
            .chain([1, 3].map(|start| (start, vec![(15, 2), (25, 5)])))
        {
            let what = format!("{start} shards, resized {resizes:?}");
            let mut pipe = IngestPipeline::start(start, servers.clone());
            for (t, tick) in log.iter().enumerate() {
                if let Some(&(_, to)) = resizes.iter().find(|(at, _)| *at == t) {
                    pipe.reassign(to);
                }
                pipe.ingest_tick(tick);
                if t % 10 == 9 {
                    let states = pipe.snapshot_states();
                    increasing(&states, &what);
                    assert_same_states(&states, &seq_states[t / 10], &what);
                }
            }
            let result = pipe.finish();
            increasing(&result.endpoints, &what);
            assert_same_endpoints(&result.endpoints, &seq_result.endpoints, &what);
        }
    }

    #[test]
    fn same_count_reassign_is_a_noop() {
        let (servers, log) = record_log(0, 4, 10);
        let mut pipe = IngestPipeline::start(2, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        let transition = pipe.reassign(2);
        assert_eq!(transition.from, transition.to);
        assert_eq!(transition.stall, std::time::Duration::ZERO);
        let result = pipe.finish();
        assert_eq!(result.shards.len(), 2, "no retired generation");
    }

    #[test]
    fn take_offered_counts_the_frames_routed_since_the_last_call() {
        let (servers, _) = record_log(0, 8, 0);
        let tick = |frames: u32| {
            let mut batch = FrameBatch::new();
            for i in 0..frames {
                batch.push(
                    i % 8,
                    &SyncMessage::Measurement {
                        z: kalstream_linalg::Vector::from_slice(&[f64::from(i)]),
                    },
                );
            }
            batch.as_bytes().to_vec()
        };
        let mut pipe = IngestPipeline::start(2, servers);
        assert_eq!(pipe.take_offered(), 0);
        for frames in [3, 0, 5] {
            pipe.ingest_tick(&tick(frames));
        }
        assert_eq!(pipe.take_offered(), 8);
        assert_eq!(pipe.take_offered(), 0, "taking resets the count");
        pipe.ingest_tick(&tick(4));
        pipe.reassign(3);
        assert_eq!(pipe.take_offered(), 0, "a resize opens a new window");
        pipe.ingest_tick(&tick(7));
        pipe.reassign(3);
        assert_eq!(
            pipe.take_offered(),
            7,
            "a same-count reassign moves nothing"
        );
        pipe.finish();
    }

    #[test]
    fn queue_depths_and_high_water_are_reported() {
        let (servers, log) = record_log(0, 6, 30);
        let mut pipe = IngestPipeline::start(3, servers);
        assert_eq!(pipe.shards(), 3);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        let result = pipe.finish();
        let (inline, workers) = result.shards.split_first().unwrap();
        assert_eq!(inline.queue_high_water, 0, "shard 0 steps inline, unqueued");
        assert_eq!(workers.len(), 2);
        for shard in workers {
            assert!(
                shard.queue_high_water >= 1,
                "every worker saw at least one job"
            );
            assert!(shard.queue_high_water <= QUEUE_DEPTH as u64 + 1);
        }
        // The gauge must surface in the obs export path.
        let mut registry = kalstream_obs::Registry::new();
        registry.observe("ingest", &result);
        let snap = registry.snapshot();
        assert!(snap.gauge("ingest.shard.0.queue_high_water").is_some());
    }

    #[test]
    fn flush_makes_applied_work_observable() {
        let (servers, log) = record_log(0, 4, 20);
        let expected: u64 = {
            let mut seq = SequentialIngest::new(servers.clone());
            for tick in &log {
                seq.ingest_tick(tick);
            }
            seq.finish().total_messages()
        };
        let mut pipe = IngestPipeline::start(2, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        pipe.flush(); // after the barrier, all ticks are applied
        let result = pipe.finish();
        assert_eq!(result.total_messages(), expected);
        let ticks: Vec<u64> = result.shards.iter().map(|s| s.ticks).collect();
        assert!(
            ticks.iter().all(|&t| t == log.len() as u64),
            "ticks {ticks:?}"
        );
    }

    #[test]
    fn unknown_streams_are_counted_not_fatal() {
        let (servers, _) = record_log(0, 2, 1);
        let mut batch = FrameBatch::new();
        batch.push(
            999, // no such stream
            &SyncMessage::Measurement {
                z: kalstream_linalg::Vector::from_slice(&[1.0]),
            },
        );
        let mut pipe = IngestPipeline::start(2, servers);
        pipe.ingest_tick(batch.as_bytes());
        let result = pipe.finish();
        assert_eq!(result.total_messages(), 0);
        let unknown: u64 = result.shards.iter().map(|s| s.unknown_streams).sum();
        assert_eq!(unknown, 1);
    }

    #[test]
    fn ingest_mode_matches_session_mode_bit_for_bit() {
        use kalstream_sim::{run_fleet_ingest, IngestStream, LinkFaults, Session, SessionConfig};
        let sampler = |id: u32| {
            let mut t = 0.0f64;
            move |obs: &mut [f64], tru: &mut [f64]| {
                let v = (t * 0.07 + id as f64).sin() + 0.3 * (t * 0.31).cos();
                obs[0] = v;
                tru[0] = v;
                t += 1.0;
            }
        };
        let ticks = 80u64;

        // Session mode: each stream runs through Session::run.
        let mut session_servers = Vec::new();
        for id in 0..6u32 {
            let config = ProtocolConfig::new(0.2).unwrap();
            let StreamSession {
                mut source,
                mut server,
            } = SessionSpec::default_scalar(0.0, config).unwrap().build();
            Session::run(
                &SessionConfig::instant(ticks, 0.2),
                sampler(id),
                &mut source,
                &mut server,
                &mut (),
            );
            session_servers.push((id, server));
        }

        // Ingest mode: the same fleet multiplexed into a sequential ingester.
        let mut servers = Vec::new();
        let mut streams: Vec<IngestStream<'_>> = Vec::new();
        for id in 0..6u32 {
            let config = ProtocolConfig::new(0.2).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            servers.push((id, server));
            streams.push(IngestStream {
                stream_id: id,
                producer: Box::new(source),
                sampler: Box::new(sampler(id)),
            });
        }
        let mut sink = FramingSink::new(SequentialIngest::new(servers));
        run_fleet_ingest(&mut streams, ticks, 0, LinkFaults::default(), &mut sink);
        let result = sink.into_inner().finish();

        assert!(result.total_messages() > 0);
        for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(&session_servers) {
            assert_eq!(id_a, id_b);
            assert_eq!(filter_bits(a), filter_bits(b), "stream {id_a} diverged");
            assert_eq!(a.syncs_applied(), b.syncs_applied());
        }
    }

    #[test]
    fn feedback_pipeline_ships_acks_and_stays_bit_identical() {
        use crate::wire::WireMessage;
        let seq_body = |seq: u64, v: f64| {
            WireMessage::Sync {
                seq: Some(seq),
                msg: SyncMessage::State {
                    x: kalstream_linalg::Vector::from_slice(&[v]),
                    p: kalstream_linalg::Matrix::scalar(1, 0.5),
                },
            }
            .encode()
        };
        let (servers, _) = record_log(0, 6, 0);
        let mut log = Vec::new();
        for t in 0..4u64 {
            let mut batch = FrameBatch::new();
            for id in 0..6u32 {
                if (id as u64 + t).is_multiple_of(2) {
                    batch.push_raw(id, &seq_body(t + 1, t as f64 + id as f64));
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        let mut want = oracle(servers.clone(), &log);
        poll_dry(&mut want);

        let (fb_tx, fb_rx) = unbounded();
        let mut pipe = IngestPipeline::start_with(3, servers, Some(fb_tx));
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        pipe.flush();
        // Every sequenced arrival re-arms exactly one ack, polled the
        // tick it arrived; flush guarantees they are all in the channel.
        let mut acks: Vec<(u32, u64)> = Vec::new();
        while let Ok((id, payload)) = fb_rx.try_recv() {
            match WireMessage::decode(&payload).unwrap() {
                WireMessage::Ack { seq } => acks.push((id, seq)),
                other => panic!("unexpected feedback {other:?}"),
            }
        }
        let expected: u64 = 3 * 4; // 3 streams sync per tick, 4 ticks
        assert_eq!(acks.len() as u64, expected);
        let result = pipe.finish();
        let out: u64 = result.shards.iter().map(|s| s.feedback_out).sum();
        let drops: u64 = result.shards.iter().map(|s| s.feedback_drops).sum();
        assert_eq!(out, expected);
        assert_eq!(drops, 0);
        // Feedback polling must not perturb filter arithmetic.
        assert_same_endpoints(&result.endpoints, &want, "with feedback");
    }

    #[test]
    fn flush_returns_with_every_flushed_ticks_feedback_in_the_channel() {
        // A lossy acked fleet recorded through a 1-shard pipeline, then
        // replayed with `ingest_tick` + `flush` per tick through 1 shard
        // (inline) and through 3 (two workers). A worker hands its buffer
        // back only after its feedback poll, so each tick's drained
        // feedback must be that tick's whole feedback, whatever the shard
        // count: a hand-back before the poll lets `flush` return early and
        // a tick's acks slide into the next tick's drain.
        use kalstream_sim::{run_fleet_ingest, LinkFaults};
        let (mut sources, servers) = crate::test_support::acked_fleet(48);
        let (tx, rx) = unbounded();
        let inner = IngestPipeline::start_with(1, servers.clone(), Some(tx));
        let recording = crate::test_support::Recording {
            inner,
            log: Vec::new(),
        };
        let mut sink = FramingSink::with_feedback(recording, rx);
        let faults = LinkFaults {
            loss: 0.1,
            seed: 5,
            ..LinkFaults::default()
        };
        let report = run_fleet_ingest(&mut sources, 200, 0, faults, &mut sink);
        assert!(report.faults.dropped > 0, "no message lost");
        let log = sink.into_inner().log;
        let per_tick = |shards: usize| -> Vec<Vec<(u32, Vec<u8>)>> {
            let (tx, rx) = unbounded();
            let mut pipe = IngestPipeline::start_with(shards, servers.clone(), Some(tx));
            let ticks = log.iter().map(|wire| {
                pipe.ingest_tick(wire);
                pipe.flush();
                let feedback = std::iter::from_fn(|| rx.try_recv().ok());
                let mut feedback: Vec<_> = feedback.map(|(id, fb)| (id, fb.to_vec())).collect();
                feedback.sort();
                feedback
            });
            let ticks = ticks.collect();
            pipe.finish();
            ticks
        };
        let want = per_tick(1);
        assert!(
            want.iter().all(|tick| !tick.is_empty()),
            "a tick acked nothing"
        );
        for (t, (got, want)) in per_tick(3).iter().zip(&want).enumerate() {
            assert_eq!(got, want, "tick {t}");
        }
    }

    #[test]
    fn feedback_armed_before_the_hand_over_is_polled_on_the_first_tick() {
        // Stream 1 reaches the pipeline with a bound directive armed and no
        // traffic: the first tick polls every endpoint, so the bound goes
        // out then, once; later ticks poll only the streams they touched.
        use crate::wire::WireMessage;
        let (mut servers, _) = record_log(0, 3, 0);
        servers[1].1.push_bound_directive(0.5);
        let (fb_tx, fb_rx) = unbounded();
        let mut pipe = IngestPipeline::start_with(2, servers, Some(fb_tx));
        let quiet = FrameBatch::new();
        for _ in 0..3 {
            pipe.ingest_tick(quiet.as_bytes());
        }
        pipe.flush();
        let mut feedback = Vec::new();
        while let Ok((id, payload)) = fb_rx.try_recv() {
            feedback.push((id, WireMessage::decode(&payload).unwrap()));
        }
        assert_eq!(feedback, vec![(1, WireMessage::Bound { delta: 0.5 })]);
        assert_eq!(pipe.finish().endpoints[1].1.bounds_sent(), 1);
    }

    #[test]
    fn dropped_feedback_receiver_is_counted_not_swallowed() {
        use crate::wire::WireMessage;
        let (servers, _) = record_log(0, 2, 0);
        let (fb_tx, fb_rx) = unbounded();
        let mut pipe = IngestPipeline::start_with(2, servers, Some(fb_tx));
        drop(fb_rx); // consumer gone mid-drain: sheds must still be counted
        let mut batch = FrameBatch::new();
        batch.push_raw(
            0,
            &WireMessage::Sync {
                seq: Some(1),
                msg: SyncMessage::Measurement {
                    z: kalstream_linalg::Vector::from_slice(&[1.0]),
                },
            }
            .encode(),
        );
        pipe.ingest_tick(batch.as_bytes());
        let result = pipe.finish();
        let drops: u64 = result.shards.iter().map(|s| s.feedback_drops).sum();
        let out: u64 = result.shards.iter().map(|s| s.feedback_out).sum();
        assert_eq!(drops, 1, "lost ack must be visible in the report");
        assert_eq!(out, 0);
    }

    #[test]
    fn corrupt_frames_do_not_stall_the_pipeline() {
        let (servers, _) = record_log(0, 2, 1);
        let mut batch = FrameBatch::new();
        batch.push_raw(0, b"\xFF\xFF"); // garbage body for a real stream
        batch.push(
            1,
            &SyncMessage::Measurement {
                z: kalstream_linalg::Vector::from_slice(&[2.0]),
            },
        );
        let mut pipe = IngestPipeline::start(2, servers);
        pipe.ingest_tick(batch.as_bytes());
        let result = pipe.finish();
        assert_eq!(result.total_messages(), 1);
        assert_eq!(result.total_decode_failures(), 1);
    }

    #[test]
    fn an_over_cap_model_sync_is_a_decode_failure_not_an_admission() {
        // A sequenced 9-state Model sync: parse refuses it, so it is counted
        // and never reaches sequence admission — the sequence stays where it
        // was and no ack is armed.
        let [model, _] = crate::wire::tests::over_cap_syncs();
        let mut batch = FrameBatch::new();
        batch.push_raw(0, &[&crate::wire::seq_header(7)[..], &model].concat());
        let (servers, _) = record_log(0, 1, 0);
        let mut ingest = SequentialIngest::new(servers);
        ingest.ingest_tick(batch.as_bytes());
        let mut result = ingest.finish();
        assert_eq!(result.total_decode_failures(), 1);
        let (_, ep) = &mut result.endpoints[0];
        assert_eq!(ep.last_seq(), 0);
        assert_eq!(ep.poll_feedback(1), None, "no ack is due");
    }

    #[test]
    fn a_tick_truncated_mid_header_is_counted_by_every_engine() {
        // One good frame, then three bytes of a second frame's eight-byte
        // header: the sequential decoder and the pipeline's router both end
        // the walk there, and both must say so in the result.
        let measurement = SyncMessage::Measurement {
            z: kalstream_linalg::Vector::from_slice(&[2.0]),
        };
        let mut batch = FrameBatch::new();
        batch.push(0, &measurement);
        let whole = batch.wire_len();
        batch.push(1, &measurement);
        let wire = &batch.as_bytes()[..whole + 3];

        let (servers, _) = record_log(0, 2, 1);
        let mut sequential = SequentialIngest::new(servers);
        sequential.ingest_tick(wire);
        let sequential = sequential.finish();
        let (servers, _) = record_log(0, 2, 1);
        let mut pipe = IngestPipeline::start(2, servers);
        pipe.ingest_tick(wire);
        let sharded = pipe.finish();

        assert_eq!(sequential.total_messages(), 1);
        assert_eq!(sharded.total_messages(), 1);
        assert_eq!(sequential.total_decode_failures(), 1);
        assert_eq!(
            sharded.total_decode_failures(),
            sequential.total_decode_failures()
        );
    }

    /// Runs `log` through both shard engines — sequential and a 2-shard
    /// pipeline —, through each endpoint on its own (`enqueue_view` per
    /// frame, then `advance`) and through the oracle, and asserts all four
    /// end bit-identical in everything `state()` captures. Returns the
    /// endpoints fed on their own.
    fn assert_engines_match_the_endpoints(
        servers: Vec<(u32, ServerEndpoint)>,
        log: &[Vec<u8>],
    ) -> Vec<(u32, ServerEndpoint)> {
        let mut delivered = servers.clone();
        for tick in log {
            FrameDecoder::new()
                .for_each_wire_message(tick, |id, msg| delivered[id as usize].1.enqueue_view(msg));
            delivered.iter_mut().for_each(|(_, ep)| ep.advance());
        }
        assert_same_endpoints(&oracle(servers.clone(), log), &delivered, "oracle");
        let mut sequential = SequentialIngest::new(servers.clone());
        let mut pipeline = IngestPipeline::start(2, servers);
        for tick in log {
            sequential.ingest_tick(tick);
            pipeline.ingest_tick(tick);
        }
        for (engine, result) in [
            ("sequential", sequential.finish()),
            ("pipeline", pipeline.finish()),
        ] {
            assert_eq!(result.total_decode_failures(), 0, "{engine}");
            assert_same_endpoints(&result.endpoints, &delivered, engine);
        }
        delivered
    }

    /// A sequenced 1-state sync: every third a State, the rest Measurements
    /// (so how many apply shows in the filter bits, not just the counters).
    fn scalar_sync(seq: u64, i: usize) -> Bytes {
        let msg = if i.is_multiple_of(3) {
            SyncMessage::State {
                x: kalstream_linalg::Vector::from_slice(&[i as f64 * 0.01]),
                p: kalstream_linalg::Matrix::scalar(1, 0.5),
            }
        } else {
            SyncMessage::Measurement {
                z: kalstream_linalg::Vector::from_slice(&[(i as f64 * 0.37).sin()]),
            }
        };
        let seq = Some(seq);
        crate::wire::WireMessage::Sync { seq, msg }.encode()
    }

    #[test]
    fn a_tick_of_300_syncs_to_one_stream_applies_every_one_on_every_engine() {
        use crate::wire::WireMessage;
        // Stream 1 gets 300 fresh syncs in one tick, with a stale duplicate
        // and a forward-channel ack among them; streams 0 and 2 get one
        // sync each. The next tick is ordinary. No count caps a tick: every
        // admitted sync applies, in arrival order.
        let mut first = FrameBatch::new();
        first.push_raw(0, &scalar_sync(1, 1));
        for i in 1..=300 {
            first.push_raw(1, &scalar_sync(i as u64, i));
            if i == 40 {
                first.push_raw(1, &scalar_sync(5, 999));
                first.push_raw(1, &WireMessage::Ack { seq: 3 }.encode());
            }
        }
        first.push_raw(2, &scalar_sync(1, 2));
        let mut second = FrameBatch::new();
        for id in 0..3u32 {
            second.push_raw(id, &scalar_sync(301, 7 + id as usize));
        }
        let (servers, _) = record_log(0, 3, 0);
        let delivered = assert_engines_match_the_endpoints(
            servers,
            &[first.as_bytes().to_vec(), second.as_bytes().to_vec()],
        );
        let (_, hot) = &delivered[1];
        assert_eq!(hot.delivery().stale_drops, 1, "the duplicate of seq 5");
        assert_eq!(hot.decode_failures(), 1, "the forward-channel ack");
        assert_eq!(
            hot.syncs_applied(),
            300 + 1,
            "all 300, then the next tick's"
        );
    }

    #[test]
    #[should_panic(expected = "mid-tick")]
    fn a_stream_handed_over_mid_tick_is_refused() {
        let (mut servers, _) = record_log(0, 1, 0);
        servers[0].1.receive(0, &scalar_sync(1, 1));
        SequentialIngest::new(servers);
    }

    #[test]
    fn sequenced_traffic_with_duplicates_is_deduplicated_by_ingest() {
        use crate::wire::WireMessage;
        let state = |v: f64| SyncMessage::State {
            x: kalstream_linalg::Vector::from_slice(&[v]),
            p: kalstream_linalg::Matrix::scalar(1, 0.5),
        };
        let seq_body = |seq: u64, v: f64| {
            WireMessage::Sync {
                seq: Some(seq),
                msg: state(v),
            }
            .encode()
        };
        let run = |servers: Vec<(u32, ServerEndpoint)>, shards: Option<usize>| {
            let mut batch = FrameBatch::new();
            batch.push_raw(0, &seq_body(1, 1.0));
            batch.push_raw(0, &seq_body(2, 2.0));
            batch.push_raw(0, &seq_body(2, 9.0)); // network duplicate
            batch.push_raw(0, &seq_body(1, 9.0)); // stale re-delivery
            batch.push_raw(1, &seq_body(1, 5.0));
            match shards {
                Some(n) => {
                    let mut pipe = IngestPipeline::start(n, servers);
                    pipe.ingest_tick(batch.as_bytes());
                    pipe.finish()
                }
                None => {
                    let mut seq = SequentialIngest::new(servers);
                    seq.ingest_tick(batch.as_bytes());
                    seq.finish()
                }
            }
        };
        let (servers, _) = record_log(0, 2, 0);
        for result in [run(servers.clone(), None), run(servers, Some(2))] {
            let stale: u64 = result.shards.iter().map(|s| s.stale_drops).sum();
            assert_eq!(stale, 2, "duplicate + stale must both be dropped");
            let (_, ep0) = &result.endpoints[0];
            assert_eq!(ep0.last_seq(), 2);
            assert_eq!(
                ep0.filter().predicted_measurement()[0],
                2.0,
                "stale 9.0 applied"
            );
            assert_eq!(ep0.delivery().stale_drops, 2);
        }
    }

    #[test]
    fn a_resize_counts_each_stale_drop_once() {
        // Stream 0 re-sends seq 1 every tick: five stale drops in six
        // ticks. A worker generation reports the drops of its own
        // lifetime, so the generations a resize makes sum to the same five
        // as one sequential shard (the endpoints carry the whole count).
        let config = ProtocolConfig::new(0.25)
            .unwrap()
            .with_ack_timeout(4)
            .unwrap();
        let servers: Vec<(u32, ServerEndpoint)> = (0..4)
            .map(|id| {
                let spec = SessionSpec::default_scalar(0.0, config.clone()).unwrap();
                (id, spec.build().server)
            })
            .collect();
        let ticks: Vec<Vec<u8>> = (1..=6u64)
            .map(|t| {
                let mut batch = FrameBatch::new();
                for id in 0..4u32 {
                    let seq = if id == 0 { 1 } else { t };
                    let body = crate::wire::WireMessage::Sync {
                        seq: Some(seq),
                        msg: SyncMessage::Measurement {
                            z: kalstream_linalg::Vector::from_slice(&[t as f64]),
                        },
                    }
                    .encode();
                    batch.push_raw(id, &body);
                }
                batch.into_buffer().to_vec()
            })
            .collect();
        let mut seq = SequentialIngest::new(servers.clone());
        let mut pipe = IngestPipeline::start(2, servers);
        for (t, wire) in ticks.iter().enumerate() {
            if t == 3 {
                pipe.reassign(1);
            }
            seq.ingest_tick(wire);
            pipe.ingest_tick(wire);
        }
        let (seq, pipe) = (seq.finish(), pipe.finish());
        let stale = |r: &IngestResult| r.shards.iter().map(|s| s.stale_drops).sum::<u64>();
        assert_eq!((seq.total_messages(), pipe.total_messages()), (24, 24));
        assert_eq!(stale(&seq), 5);
        assert_eq!(stale(&pipe), stale(&seq), "a resize re-counted drops");
        assert_eq!(pipe.endpoints[0].1.delivery().stale_drops, 5);
        assert_same_endpoints(&pipe.endpoints, &seq.endpoints, "resized");
    }
}
