//! Multi-stream ingest: one tick loop (the private `Shard`), run inline or on
//! per-shard worker threads.
//!
//! The paper's server is one loop — apply this tick's syncs to the cached
//! per-stream filters, then predict every stream one step. That loop exists
//! once, in `Shard::tick`; the public ingesters differ only in *where* it
//! runs:
//!
//! ```text
//!  inline shard (zero workers) — SequentialIngest, BatchedIngest
//!
//!  tick batch ──▶ Shard::tick: decode ▶ enqueue ▶ advance ▶ poll feedback
//!                 on the caller's thread; no routing, no queues
//!
//!  worker shards — IngestPipeline
//!
//!                 ┌── bounded queue ──▶ worker 0: Shard::tick  {route(id) == 0}
//!  tick batch ────┤── bounded queue ──▶ worker 1: Shard::tick  {route(id) == 1}
//!  (router)       └── …                 each owns its endpoints
//!                        ◀──────────── recycled buffers ─────────────
//! ```
//!
//! Each worker **owns** its endpoints — no locks on the hot path, in the
//! spirit of share-nothing per-core stream engines. Determinism falls out of
//! three facts: the [`ShardAssignment`] route is stable between barriers,
//! each shard's queue is FIFO so a stream's ticks arrive in order, and
//! endpoints are independent so cross-endpoint interleaving cannot change
//! any filter's arithmetic. The sharded pipeline is therefore bit-identical
//! to [`SequentialIngest`] for any shard count — a property the proptests
//! and `bench_ingest` both enforce.
//!
//! Tick semantics match the simulator exactly: one `ingest_tick` call
//! advances **every** endpoint one predict step (via
//! [`ServerEndpoint::advance`]) after enqueueing that tick's messages, just
//! like [`kalstream_sim::Consumer::estimate`]. [`IngestPipeline::flush`] is
//! the barrier that makes "all ticks sent so far are applied" observable;
//! durability and elasticity are hooks that act at that barrier
//! (`kalstream-durable`'s `Durability`, `kalstream-elastic`'s
//! `ElasticDriver`), handed the pipeline by reference.

use std::collections::HashMap;
use std::ops::Deref;
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use kalstream_sim::Consumer;

use kalstream_obs::{Histogram, Instrument, Scope, SpanTimer};

use crate::batch_ingest::BatchLanes;
use crate::frame::{BufferPool, FrameBatch, FrameDecoder};
use crate::server::{EndpointState, ServerEndpoint};

/// Per-shard job queue depth. Deep enough that the router can run ahead of
/// a momentarily slow shard, small enough to bound memory and exert
/// backpressure.
const QUEUE_DEPTH: usize = 64;

/// The stream→shard routing function, made explicit so a resize can change
/// it atomically at a tick barrier.
///
/// `salt == 0` is exactly the historical `stream_id % shards` route — every
/// pre-elastic pipeline uses it, and it stays byte-for-byte stable. A
/// non-zero salt mixes the id through SplitMix64 first, so a *rebalance*
/// (same shard count, new salt) genuinely reshuffles placement instead of
/// reproducing the old partition.
///
/// Routing never touches filter arithmetic: endpoints are independent and
/// each stream's ticks stay FIFO within whichever shard owns it, so *any*
/// assignment — and any sequence of reassignments at tick barriers — is
/// bit-identical to the sequential reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Number of shards routed across. Always ≥ 1.
    pub shards: usize,
    /// Hash salt; `0` selects the plain `id % shards` route.
    pub salt: u64,
}

impl ShardAssignment {
    /// The historical modulo route over `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn modulo(shards: usize) -> Self {
        ShardAssignment::salted(shards, 0)
    }

    /// A salted-hash route: same shard count, different placement per salt.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn salted(shards: usize, salt: u64) -> Self {
        assert!(shards > 0, "assignment needs at least one shard");
        ShardAssignment { shards, salt }
    }

    /// Shard owning `stream_id` under this assignment.
    pub fn route(&self, stream_id: u32) -> usize {
        if self.salt == 0 {
            stream_id as usize % self.shards
        } else {
            (splitmix64(stream_id as u64 ^ self.salt) % self.shards as u64) as usize
        }
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit permutation (public
/// domain constants from Steele et al.), used to spread consecutive stream
/// ids across shards under salted assignments.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What one [`IngestPipeline::reassign`] did: the assignment it moved
/// from/to and how long ingest was stalled at the drain barrier.
#[derive(Debug, Clone, Copy)]
pub struct ResizeTransition {
    /// Assignment before the resize.
    pub from: ShardAssignment,
    /// Assignment after the resize.
    pub to: ShardAssignment,
    /// Wall-clock time the ingest path was quiesced (drain + respawn).
    /// Wall-clock, so reported in artifacts but never in deterministic
    /// experiment tables.
    pub stall: std::time::Duration,
}

enum ShardJob {
    /// One tick's frames for this shard (possibly empty — every endpoint
    /// still takes its predict step).
    Tick(BytesMut),
    /// Barrier: acknowledge once every prior job has been applied.
    Flush,
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
    /// Messages decoded and enqueued to endpoints.
    pub messages: u64,
    /// Wire bytes drained (frame headers + bodies).
    pub bytes_in: u64,
    /// Frames or bodies that failed to decode.
    pub decode_failures: u64,
    /// Frames addressed to a stream this shard has never heard of.
    pub unknown_streams: u64,
    /// Sequenced syncs dropped as stale/duplicate across this shard's
    /// endpoints (the v3 delivery layer's gap/duplicate detection).
    pub stale_drops: u64,
    /// Seconds this shard spent *on CPU* (decoding + advancing endpoints),
    /// excluding time blocked on its queue — per-thread CPU time from
    /// `/proc/thread-self/schedstat` where the kernel exposes it (wall clock
    /// inside ticks otherwise, and for inline shards, which over-counts when
    /// the thread is preempted). The maximum across shards is the pipeline's
    /// critical path: on a machine with one core per shard, wall time
    /// converges to it, so `total_messages / max(busy_secs)` is the capacity
    /// throughput `bench_ingest` reports next to measured wall-clock
    /// throughput.
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
    /// Exported per shard so the elastic controller — and a dashboard — can
    /// see the imbalance a rebalance fixes rather than just "some shard was
    /// busy".
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

/// One shard: a set of endpoints and the only copy of the tick loop that
/// steps them. A worker thread owns one behind a queue; the inline
/// ingesters ([`SequentialIngest`], [`crate::BatchedIngest`]) own one
/// directly.
pub(crate) struct Shard {
    /// Sorted by stream id, so feedback poll order, snapshots and teardown
    /// are deterministic without sorting (and never depend on `HashMap`
    /// iteration). Membership is fixed for the shard's lifetime.
    endpoints: Vec<(u32, ServerEndpoint)>,
    /// Stream id → position in `endpoints`.
    index: HashMap<u32, usize>,
    /// Fleet-batch lanes carrying the eligible endpoints' filter arithmetic,
    /// for a batched shard. Either way the tick semantics — and, for the
    /// same traffic, the resulting bits — are identical.
    lanes: Option<BatchLanes>,
    decoder: FrameDecoder,
    feedback: Option<Sender<(u32, Bytes)>>,
    report: ShardReport,
}

impl Shard {
    pub(crate) fn new(
        shard: usize,
        mut endpoints: Vec<(u32, ServerEndpoint)>,
        batched: bool,
        feedback: Option<Sender<(u32, Bytes)>>,
    ) -> Self {
        endpoints.sort_by_key(|(id, _)| *id);
        let index = endpoints
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        Shard {
            lanes: batched.then(|| BatchLanes::new(&endpoints)),
            report: ShardReport {
                shard,
                streams: endpoints.len(),
                ..ShardReport::default()
            },
            endpoints,
            index,
            decoder: FrameDecoder::new(),
            feedback,
        }
    }

    /// `(batched, scalar)` stream counts; `None` for a plain shard.
    pub(crate) fn coverage(&self) -> Option<(usize, usize)> {
        self.lanes.as_ref().map(BatchLanes::coverage)
    }

    /// One tick: decode `buf` and enqueue its messages, hand `buf` to
    /// `recycle`, advance every endpoint one step, then poll feedback
    /// (acks before bounds per stream, streams in ascending id order — the
    /// ingest-mode twin of the session loop's
    /// `while let Some(fb) = consumer.poll_feedback(now)`).
    ///
    /// `recycle` runs *before* the compute phase so a worker's router can
    /// reuse the buffer while the filters advance; it returns whether the
    /// hand-back succeeded.
    pub(crate) fn tick<B: Deref<Target = [u8]>>(
        &mut self,
        buf: B,
        recycle: impl FnOnce(B) -> bool,
    ) {
        let span = SpanTimer::start();
        let Shard {
            endpoints,
            index,
            report,
            ..
        } = self;
        report.bytes_in += buf.len() as u64;
        self.decoder
            .for_each_wire_message(&buf, |id, msg| match index.get(&id) {
                Some(&i) => {
                    endpoints[i].1.enqueue_view(msg);
                    report.messages += 1;
                }
                None => report.unknown_streams += 1,
            });
        // A failed hand-back (router gone) must be counted, not swallowed:
        // in steady state it means the pool is leaking capacity.
        if !recycle(buf) {
            report.recycle_drops += 1;
        }
        match &mut self.lanes {
            Some(lanes) => lanes.advance_tick(endpoints),
            None => endpoints.iter_mut().for_each(|(_, ep)| ep.advance()),
        }
        if let Some(tx) = &self.feedback {
            for (id, ep) in endpoints.iter_mut() {
                while let Some(payload) = ep.poll_feedback(report.ticks) {
                    // A closed receiver during drain is lost feedback —
                    // count it, never `let _` it away.
                    match tx.send((*id, payload)) {
                        Ok(()) => report.feedback_out += 1,
                        Err(_) => report.feedback_drops += 1,
                    }
                }
            }
        }
        report.ticks += 1;
        span.stop(&mut report.tick_ns);
    }

    /// Captures every endpoint's protocol state, sorted by stream id,
    /// without consuming the shard. For batched streams the live
    /// `x`/`p`/staleness sit on a fleet-batch lane, so the captured state is
    /// the endpoint's bookkeeping overlaid with the lane's triplet — exactly
    /// the bits [`Shard::finish`] would restore, but copied instead of moved.
    pub(crate) fn snapshot_states(&self) -> Vec<(u32, EndpointState)> {
        let mut states: Vec<(u32, EndpointState)> = self
            .endpoints
            .iter()
            .map(|(id, ep)| (*id, ep.state()))
            .collect();
        if let Some(lanes) = &self.lanes {
            lanes.overlay(&mut states);
        }
        states
    }

    /// Tears down into a one-shard [`IngestResult`] (batched lanes are
    /// restored into their endpoint filters first). `cpu_secs` is the
    /// owning worker thread's on-CPU time, when it has one and the kernel
    /// exposes it; the summed tick spans stand in otherwise.
    pub(crate) fn finish(mut self, cpu_secs: Option<f64>) -> IngestResult {
        if let Some(lanes) = &self.lanes {
            lanes.restore(&mut self.endpoints);
        }
        let mut report = self.report;
        report.decode_failures = self.decoder.decode_failures();
        report.stale_drops = self
            .endpoints
            .iter()
            .map(|(_, ep)| ep.delivery().stale_drops)
            .sum();
        report.busy_secs = cpu_secs.unwrap_or(report.tick_ns.sum() as f64 / 1e9);
        IngestResult {
            shards: vec![report],
            endpoints: self.endpoints,
            router_decode_failures: 0,
        }
    }
}

struct ShardHandle {
    tx: Sender<ShardJob>,
    ack_rx: Receiver<()>,
    handle: JoinHandle<IngestResult>,
}

/// The sharded ingest pipeline: spawns one worker thread per shard, routes
/// framed tick batches to them, and joins them back into an [`IngestResult`].
pub struct IngestPipeline {
    shards: Vec<ShardHandle>,
    batches: Vec<FrameBatch>,
    pool: BufferPool,
    recycle_rx: Receiver<BytesMut>,
    /// Kept so [`IngestPipeline::reassign`] can hand fresh worker
    /// generations the same recycle channel the buffer pool drains.
    recycle_tx: Sender<BytesMut>,
    /// The live stream→shard route, shared by the router and worker spawn.
    assignment: ShardAssignment,
    /// Whether shards run the fleet-batch engine (preserved across resizes).
    batched: bool,
    /// Feedback channel handed to every worker generation, when enabled.
    feedback: Option<Sender<(u32, Bytes)>>,
    /// Reports from worker generations retired by earlier resizes; folded
    /// into the final [`IngestResult`] so totals stay comparable to the
    /// sequential reference across any resize history.
    retired: Vec<ShardReport>,
    router: FrameDecoder,
    /// Frames routed to each live shard since the last
    /// [`IngestPipeline::take_offered`] — the elastic controller's
    /// deterministic load signal, counted where every frame is routed
    /// anyway.
    offered: Vec<u64>,
    /// Buffers minted so far. Capped at [`IngestPipeline::buffer_cap`]: once
    /// the population covers every queue slot plus in-progress batches, the
    /// router *waits* for a recycled buffer instead of minting a fresh
    /// (zero-capacity) one. That both bounds pipeline memory and lets every
    /// buffer in rotation reach the workload's high-water capacity — the
    /// property that makes steady-state ticks allocation-free.
    outstanding: usize,
    /// Largest batch (wire bytes) sent to any shard so far. Every buffer
    /// handed out is reserved to this size, so after a new high-water tick
    /// the whole population converges within one rotation instead of
    /// stragglers paying growth reallocs arbitrarily late.
    high_water: usize,
    /// `(batched, scalar)` stream counts across the live shards (`None` for
    /// plain pipelines).
    coverage: Option<(usize, usize)>,
}

impl IngestPipeline {
    /// Spawns `shards` plain workers and distributes `endpoints` among them
    /// by `stream_id % shards`, without a feedback channel.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn start(shards: usize, endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        IngestPipeline::start_with(ShardAssignment::modulo(shards), endpoints, false, None)
    }

    /// The fully specified constructor.
    ///
    /// * `assignment` — shard count *and* placement salt. This is how a
    ///   restarted process re-enters the shape an elastic run resized into:
    ///   recovery hands it the assignment the crashed run last held, and
    ///   routing resumes byte-for-byte.
    /// * `batched` — each shard steps its eligible endpoints through the
    ///   fleet-batch lanes (see [`crate::BatchedIngest`]): bit-identical
    ///   output, one structure-of-arrays predict per same-model group per
    ///   tick instead of one filter call per stream.
    ///   [`IngestPipeline::coverage`] reports how many streams took the
    ///   batch path.
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
    pub fn start_with(
        assignment: ShardAssignment,
        endpoints: Vec<(u32, ServerEndpoint)>,
        batched: bool,
        feedback: Option<Sender<(u32, Bytes)>>,
    ) -> Self {
        let (recycle_tx, recycle_rx) = unbounded();
        let (shards, coverage) =
            spawn_workers(assignment, endpoints, batched, &feedback, &recycle_tx);
        IngestPipeline {
            shards,
            batches: (0..assignment.shards).map(|_| FrameBatch::new()).collect(),
            pool: BufferPool::new(),
            recycle_rx,
            recycle_tx,
            assignment,
            batched,
            feedback,
            retired: Vec::new(),
            router: FrameDecoder::new(),
            offered: vec![0; assignment.shards],
            outstanding: 0,
            high_water: 0,
            coverage,
        }
    }

    /// `(batched, scalar)` stream counts across shards for a batched
    /// pipeline; `None` for the plain pipeline.
    pub fn coverage(&self) -> Option<(usize, usize)> {
        self.coverage
    }

    /// Maximum buffers in circulation. Deliberately small — a few ticks of
    /// run-ahead per shard: a small population circulates every buffer
    /// constantly, so all of them reach the workload's high-water capacity
    /// almost immediately and stay there (a large population leaves
    /// undersized stragglers parked in queues that surface — and pay a
    /// growth realloc — arbitrarily late).
    fn buffer_cap(&self) -> usize {
        self.shards.len() * 4
    }

    /// A cleared buffer for the next batch: pooled if available, freshly
    /// minted while under the population cap, otherwise recycled — blocking
    /// until a worker hands one back (bounded, since workers always recycle
    /// their tick buffers before advancing endpoints).
    fn next_buffer(&mut self) -> BytesMut {
        while let Ok(buf) = self.recycle_rx.try_recv() {
            self.pool.put(buf);
        }
        let mut buf = if !self.pool.is_empty() {
            self.pool.get()
        } else if self.outstanding < self.buffer_cap() {
            self.outstanding += 1;
            BytesMut::new()
        } else {
            let mut buf = self.recycle_rx.recv().expect("ingest shard worker died");
            buf.clear();
            buf
        };
        buf.reserve(self.high_water);
        buf
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The live stream→shard assignment.
    pub fn assignment(&self) -> ShardAssignment {
        self.assignment
    }

    /// Jobs currently queued per shard (the job being processed excluded) —
    /// the instantaneous imbalance signal the elastic controller's
    /// rebalancer reads. Snapshot semantics: values can be stale by the time
    /// the caller looks at them.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|shard| shard.tx.len()).collect()
    }

    /// Frames routed to each live shard since the previous call (or the
    /// last [`IngestPipeline::reassign`]), resetting the counts — a pure
    /// function of the traffic and the live assignment, no clocks.
    pub fn take_offered(&mut self) -> Vec<u64> {
        std::mem::replace(&mut self.offered, vec![0; self.assignment.shards])
    }

    /// Moves the pipeline to a new stream→shard assignment at a drain
    /// barrier: closes every shard's queue (each worker applies all
    /// in-flight ticks, then hands back its endpoints — the quiesce point),
    /// regroups the endpoints under `to`, and restarts workers. Retired
    /// workers' reports are folded into the final [`IngestResult`], so
    /// totals stay comparable to the sequential reference across any resize
    /// history.
    ///
    /// Bit-identity is preserved by construction: reassignment happens at a
    /// tick boundary, every stream's ticks stay FIFO within whichever shard
    /// owns it, and endpoints are independent — so no filter's arithmetic
    /// can observe the move. A same-assignment call is a no-op.
    ///
    /// # Panics
    /// Panics when a worker panicked.
    pub fn reassign(&mut self, to: ShardAssignment) -> ResizeTransition {
        let from = self.assignment;
        if to == from {
            return ResizeTransition {
                from,
                to,
                stall: std::time::Duration::ZERO,
            };
        }
        let start = std::time::Instant::now();
        let mut endpoints = Vec::new();
        self.join_workers(&mut endpoints);
        let (shards, coverage) = spawn_workers(
            to,
            endpoints,
            self.batched,
            &self.feedback,
            &self.recycle_tx,
        );
        self.shards = shards;
        self.coverage = coverage;
        self.assignment = to;
        self.offered = vec![0; to.shards];
        // Match the router-side batch set to the new shard count. Shrinks
        // park the spare buffers in the pool (they keep their high-water
        // capacity); grows start empty like at pipeline start.
        while self.batches.len() > to.shards {
            let batch = self.batches.pop().expect("length checked above");
            self.pool.put(batch.into_buffer());
        }
        self.batches.resize_with(to.shards, FrameBatch::new);
        ResizeTransition {
            from,
            to,
            stall: start.elapsed(),
        }
    }

    /// Closes every live shard's queue (the worker drains, then exits),
    /// joins it, retires its report and collects its endpoints.
    fn join_workers(&mut self, endpoints: &mut Vec<(u32, ServerEndpoint)>) {
        for shard in self.shards.drain(..) {
            drop(shard.tx);
            let result = shard.handle.join().expect("ingest shard worker panicked");
            self.retired.extend(result.shards);
            endpoints.extend(result.endpoints);
        }
    }

    /// Routes one tick's framed traffic to the shards and advances every
    /// endpoint one tick. `wire` is a batch as assembled by
    /// [`FrameBatch`]; it may be empty (a quiet tick still predicts).
    ///
    /// Returns after *enqueueing* — shards apply asynchronously; call
    /// [`IngestPipeline::flush`] when "applied" must be observable.
    pub fn ingest_tick(&mut self, wire: &[u8]) {
        let shards = self.shards.len();
        let batches = &mut self.batches;
        let offered = &mut self.offered;
        let assignment = self.assignment;
        self.router.for_each_frame(wire, |frame| {
            let shard = assignment.route(frame.stream_id);
            offered[shard] += 1;
            batches[shard].push_raw(frame.stream_id, frame.body);
        });
        for shard in 0..shards {
            let fresh = FrameBatch::from_buffer(self.next_buffer());
            let batch = std::mem::replace(&mut self.batches[shard], fresh);
            self.high_water = self.high_water.max(batch.wire_len());
            self.shards[shard]
                .tx
                .send(ShardJob::Tick(batch.into_buffer()))
                .expect("ingest shard worker died");
        }
    }

    /// Barrier: blocks until every shard has applied all previously
    /// ingested ticks.
    pub fn flush(&mut self) {
        for shard in &self.shards {
            shard
                .tx
                .send(ShardJob::Flush)
                .expect("ingest shard worker died");
        }
        for shard in &self.shards {
            shard.ack_rx.recv().expect("ingest shard worker died");
        }
    }

    /// Captures every endpoint's [`EndpointState`] at the current tick
    /// boundary, sorted by stream id — the durability layer's snapshot
    /// hook. The snapshot job rides each shard's ordered queue, so the
    /// capture observes exactly the ticks ingested before this call and
    /// none after; the call blocks until every shard has replied (it is a
    /// flush barrier as a side effect).
    pub fn snapshot_states(&mut self) -> Vec<(u32, EndpointState)> {
        let replies: Vec<Receiver<Vec<(u32, EndpointState)>>> = self
            .shards
            .iter()
            .map(|shard| {
                let (tx, rx) = bounded(1);
                shard
                    .tx
                    .send(ShardJob::Snapshot(tx))
                    .expect("ingest shard worker died");
                rx
            })
            .collect();
        let mut states: Vec<(u32, EndpointState)> = replies
            .into_iter()
            .flat_map(|rx| rx.recv().expect("ingest shard worker died"))
            .collect();
        states.sort_by_key(|(id, _)| *id);
        states
    }

    /// Flushes, shuts the workers down, and collects their reports and
    /// endpoints (sorted by stream id). After resizes the result carries one
    /// report per worker *lifetime* — retired generations first, then the
    /// final one — renumbered sequentially so scoped metric names stay
    /// unique.
    pub fn finish(mut self) -> IngestResult {
        self.flush();
        let mut endpoints = Vec::new();
        self.join_workers(&mut endpoints);
        let mut shards = std::mem::take(&mut self.retired);
        for (i, report) in shards.iter_mut().enumerate() {
            report.shard = i;
        }
        endpoints.sort_by_key(|(id, _)| *id);
        IngestResult {
            shards,
            endpoints,
            router_decode_failures: self.router.decode_failures(),
        }
    }
}

/// Groups `endpoints` under `assignment` and spawns one worker per shard.
/// Shared by pipeline start and [`IngestPipeline::reassign`] so both
/// generations are built by exactly the same code path. Returns the shard
/// handles and the batch-path coverage (`None` for plain pipelines).
fn spawn_workers(
    assignment: ShardAssignment,
    endpoints: Vec<(u32, ServerEndpoint)>,
    batched: bool,
    feedback: &Option<Sender<(u32, Bytes)>>,
    recycle_tx: &Sender<BytesMut>,
) -> (Vec<ShardHandle>, Option<(usize, usize)>) {
    let mut groups: Vec<Vec<(u32, ServerEndpoint)>> =
        (0..assignment.shards).map(|_| Vec::new()).collect();
    for (id, ep) in endpoints {
        groups[assignment.route(id)].push((id, ep));
    }
    let mut coverage = batched.then_some((0, 0));
    let handles = groups
        .into_iter()
        .enumerate()
        .map(|(i, group)| {
            let shard = Shard::new(i, group, batched, feedback.clone());
            if let (Some(total), Some((b, s))) = (coverage.as_mut(), shard.coverage()) {
                total.0 += b;
                total.1 += s;
            }
            let (tx, rx) = bounded(QUEUE_DEPTH);
            let (ack_tx, ack_rx) = bounded(1);
            let recycle = recycle_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ingest-shard-{i}"))
                .spawn(move || shard_worker(shard, rx, ack_tx, recycle))
                .expect("failed to spawn shard worker");
            ShardHandle { tx, ack_rx, handle }
        })
        .collect();
    (handles, coverage)
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
    ack_tx: Sender<()>,
    recycle: Sender<BytesMut>,
) -> IngestResult {
    let cpu_start = thread_cpu_ns();
    while let Ok(job) = rx.recv() {
        // Depth including the job just taken: what the router saw stacked
        // against this shard when it was deepest.
        shard.report.queue_high_water = shard.report.queue_high_water.max(rx.len() as u64 + 1);
        match job {
            ShardJob::Tick(buf) => shard.tick(buf, |buf| recycle.send(buf).is_ok()),
            ShardJob::Flush => ack_tx
                .send(())
                .expect("ingest pipeline dropped its ack receiver"),
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

/// The single-threaded reference: one plain inline `Shard` — no threads,
/// no routing, no queues — stepping on the caller's thread. The sharded
/// pipeline must match this bit for bit; `bench_ingest` exits non-zero if
/// it ever doesn't.
pub struct SequentialIngest(Shard);

impl SequentialIngest {
    /// Builds the reference ingester over `endpoints`.
    pub fn new(endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        SequentialIngest(Shard::new(0, endpoints, false, None))
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
/// sharded pipeline and both inline ingesters so callers (the sim bridge,
/// WAL replay, `bench_ingest`) can swap them behind one shape.
pub trait TickIngest {
    /// Drains one tick's batch and advances every endpoint one tick.
    fn ingest_tick(&mut self, wire: &[u8]);
}

impl TickIngest for IngestPipeline {
    fn ingest_tick(&mut self, wire: &[u8]) {
        IngestPipeline::ingest_tick(self, wire);
    }
}

impl TickIngest for SequentialIngest {
    fn ingest_tick(&mut self, wire: &[u8]) {
        SequentialIngest::ingest_tick(self, wire);
    }
}

/// Bridges the simulator's ingest mode ([`kalstream_sim::IngestSink`]) onto
/// a framed ingester: pushes accumulate into a pooled [`FrameBatch`]; the
/// end-of-tick hook drains the batch into the wrapped ingester.
pub struct FramingSink<I: TickIngest> {
    batch: FrameBatch,
    inner: I,
}

impl<I: TickIngest> FramingSink<I> {
    /// Wraps an ingester.
    pub fn new(inner: I) -> Self {
        FramingSink {
            batch: FrameBatch::new(),
            inner,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBatch;
    use crate::test_support::{filter_bits, record_log};
    use crate::wire::SyncMessage;
    use crate::{ProtocolConfig, SessionSpec, StreamSession};
    use kalstream_sim::Producer;

    #[test]
    fn failed_recycle_handback_is_counted_not_swallowed() {
        // Pre-fix, a dead recycle channel made `let _ = recycle.send(buf)`
        // silently drop every pooled buffer; the worker must count it.
        let (tx, rx) = bounded(4);
        let (ack_tx, _ack_rx) = unbounded();
        let (recycle_tx, recycle_rx) = unbounded();
        drop(recycle_rx); // router gone: every hand-back fails
        tx.send(ShardJob::Tick(BytesMut::new())).unwrap();
        tx.send(ShardJob::Tick(BytesMut::new())).unwrap();
        drop(tx);
        let shard = Shard::new(0, Vec::new(), false, None);
        let report = &shard_worker(shard, rx, ack_tx, recycle_tx).shards[0];
        assert_eq!(report.recycle_drops, 2);
        assert_eq!(report.ticks, 2);
        assert_eq!(report.tick_ns.count(), 2, "every tick span recorded");
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        let (servers, log) = record_log(0, 12, 60);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0, "log recorded no syncs");

        for shards in [1, 2, 3, 5, 8] {
            let mut pipe = IngestPipeline::start(shards, servers.clone());
            for tick in &log {
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            assert_eq!(result.total_messages(), seq_result.total_messages());
            assert_eq!(result.endpoints.len(), seq_result.endpoints.len());
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    filter_bits(a),
                    filter_bits(b),
                    "stream {id_a} diverged at {shards} shards"
                );
                assert_eq!(a.syncs_applied(), b.syncs_applied());
            }
        }
    }

    #[test]
    fn batched_pipeline_matches_sequential_bit_for_bit() {
        // 2-state constant-velocity sessions are batch-eligible; the
        // batched pipeline must reproduce the sequential reference exactly
        // at every shard count, like the plain pipeline does.
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
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0);

        for shards in [1, 2, 3, 5] {
            let mut pipe = IngestPipeline::start_with(
                ShardAssignment::modulo(shards),
                servers.clone(),
                true,
                None,
            );
            assert_eq!(pipe.coverage(), Some((12, 0)));
            for tick in &log {
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            assert_eq!(result.total_messages(), seq_result.total_messages());
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    filter_bits(a),
                    filter_bits(b),
                    "stream {id_a} diverged at {shards} batched shards"
                );
                assert_eq!(a.syncs_applied(), b.syncs_applied());
            }
        }
    }

    #[test]
    fn plain_pipeline_reports_no_coverage() {
        let (servers, _) = record_log(0, 2, 0);
        let pipe = IngestPipeline::start(2, servers);
        assert_eq!(pipe.coverage(), None);
        pipe.finish();
    }

    #[test]
    fn salted_route_spreads_and_modulo_route_is_stable() {
        let modulo = ShardAssignment::modulo(4);
        for id in 0..64u32 {
            assert_eq!(modulo.route(id), id as usize % 4);
        }
        let salted = ShardAssignment::salted(4, 7);
        let mut touched = [false; 4];
        for id in 0..64u32 {
            let shard = salted.route(id);
            assert!(shard < 4);
            touched[shard] = true;
        }
        assert!(
            touched.iter().all(|&t| t),
            "salted route left a shard empty"
        );
        // Different salts must produce different placements (that is what
        // makes a same-count rebalance a real reshuffle).
        let other = ShardAssignment::salted(4, 8);
        assert!((0..64u32).any(|id| salted.route(id) != other.route(id)));
    }

    #[test]
    fn resizes_at_tick_barriers_are_bit_identical_to_unresized() {
        let (servers, log) = record_log(0, 12, 60);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0);

        for batched in [false, true] {
            // Grow, rebalance (same count, new salt), shrink, and shrink to
            // one — mid-run, at tick barriers. None of it may be visible in
            // the final filter state.
            let schedule = [
                (15usize, ShardAssignment::modulo(4)),
                (30, ShardAssignment::salted(4, 3)),
                (40, ShardAssignment::salted(2, 3)),
                (50, ShardAssignment::modulo(1)),
            ];
            let mut pipe = IngestPipeline::start_with(
                ShardAssignment::modulo(1),
                servers.clone(),
                batched,
                None,
            );
            for (t, tick) in log.iter().enumerate() {
                if let Some((_, to)) = schedule.iter().find(|(at, _)| *at == t) {
                    let transition = pipe.reassign(*to);
                    assert_eq!(transition.to, *to);
                    assert_eq!(pipe.assignment(), *to);
                    assert_eq!(pipe.shards(), to.shards);
                }
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            // One report per worker lifetime: 1 + 4 + 4 + 2 + 1.
            assert_eq!(result.shards.len(), 12);
            assert_eq!(result.total_messages(), seq_result.total_messages());
            let ticks: u64 = result.shards.iter().map(|s| s.ticks).sum();
            // Phase ticks × worker count per phase: 15·1 + 15·4 + 10·4 + 10·2 + 10·1.
            let expected_ticks: u64 = 15 + 15 * 4 + 10 * 4 + 10 * 2 + 10;
            assert_eq!(ticks, expected_ticks);
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    filter_bits(a),
                    filter_bits(b),
                    "stream {id_a} diverged across resizes (batched={batched})"
                );
                assert_eq!(a.syncs_applied(), b.syncs_applied());
            }
        }
    }

    #[test]
    fn same_assignment_reassign_is_a_noop() {
        let (servers, log) = record_log(0, 4, 10);
        let mut pipe = IngestPipeline::start(2, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        let transition = pipe.reassign(ShardAssignment::modulo(2));
        assert_eq!(transition.from, transition.to);
        assert_eq!(transition.stall, std::time::Duration::ZERO);
        let result = pipe.finish();
        assert_eq!(result.shards.len(), 2, "no retired generation");
    }

    #[test]
    fn queue_depths_and_high_water_are_reported() {
        let (servers, log) = record_log(0, 6, 30);
        let mut pipe = IngestPipeline::start(3, servers);
        assert_eq!(pipe.queue_depths().len(), 3);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        assert!(pipe.queue_depths().iter().all(|&d| d <= QUEUE_DEPTH));
        let result = pipe.finish();
        for shard in &result.shards {
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
        use kalstream_sim::{run_fleet_ingest, IngestStream, Session, SessionConfig};
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
        run_fleet_ingest(&mut streams, ticks, 0, &mut sink);
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
        let mut seq = SequentialIngest::new(servers.clone());
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
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();

        for batched in [false, true] {
            let (fb_tx, fb_rx) = unbounded();
            let mut pipe = IngestPipeline::start_with(
                ShardAssignment::modulo(3),
                servers.clone(),
                batched,
                Some(fb_tx),
            );
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
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(filter_bits(a), filter_bits(b));
            }
        }
    }

    #[test]
    fn dropped_feedback_receiver_is_counted_not_swallowed() {
        use crate::wire::WireMessage;
        let (servers, _) = record_log(0, 2, 0);
        let (fb_tx, fb_rx) = unbounded();
        let mut pipe =
            IngestPipeline::start_with(ShardAssignment::modulo(2), servers, false, Some(fb_tx));
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
}
