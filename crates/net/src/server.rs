//! [`NetServer`]: the fleet-scale TCP front end of the sharded
//! [`IngestPipeline`].
//!
//! ```text
//!  conn 0 ──┐                                      ┌─▶ shard 0, on the router
//!  conn 1 ──┼──▶ router (reads, cuts) ─ ingest ────┼─▶ shard 1 worker
//!  conn N ──┘          │                pipeline   └─▶ …
//!    ▲                 └─ feedback ──▶ per-conn writer threads
//!    └───────────── bounded send queues ◀──────────────┘
//! ```
//!
//! **Thread model.** Plain OS threads on blocking `std::net` sockets,
//! joined by bounded [`crossbeam::channel`] queues: the router
//! (`net-server`, which reads every admitted connection, steps the
//! pipeline's shard 0 and runs the ingest barrier hooks), one accept loop
//! (`net-accept`), a writer per connection (`net-writer-<n>`, `n` in
//! accept order), and a worker for each other shard — `1 + conns + shards`
//! in all. That is the benchmark's `host.threads` minus the benchmark's
//! own client threads. Each dial also
//! gets a hello thread (`net-hello-<n>`) that reads and checks the hello,
//! spawns the writer, hands the socket to the router and exits.
//!
//! **Reading.** Each connection's bytes land in its own input buffer
//! ([`TickCutter`]), which one walk over the frame headers cuts at the
//! markers; a tick's segment is copied once, into the tick's wire bytes.
//! Before closing a tick the router reads, in admission order, each live
//! connection that holds no complete segment, and blocks there until it
//! does: the tick waits for that segment anyway. It never reads a
//! connection that holds one, so TCP flow control holds a peer that runs
//! ahead to one segment plus one read, and a connected but silent peer
//! stops the tick in `read`, as it always stopped the tick. Hellos are
//! taken without waiting between ticks, and waited for until the fleet is
//! present.
//!
//! **Tick discipline.** Clients delimit ticks with marker frames
//! ([`crate::codec::TICK_MARKER_STREAM`]). The router advances the global
//! tick only when every admitted, still-active connection has delivered
//! its tick segment — so a fleet over sockets replays through the pipeline
//! in exactly the per-tick batches the simulator's ingest mode produces,
//! which is what keeps the final endpoint state bit-identical to
//! [`kalstream_core::SequentialIngest`] over the same traffic.
//!
//! **Backpressure & shedding.** Feedback (acks, bound directives) rides
//! per-connection bounded queues. The router never blocks on a slow
//! client: a full or closed queue sheds the payload and *counts it* —
//! including during connection drain, where a `let _` would silently eat
//! acks. A payload for a stream no connection claims is shed and counted
//! too (`unrouted_feedback`). Per-connection shed counts and queue
//! high-water marks surface in the [`NetReport`] obs snapshot.
//!
//! **Lifecycle.** A connection drains by shutting down its write side:
//! the router reads EOF and stops requiring its markers (a read error or a
//! frame length over the limit ends a connection the same way; complete
//! segments it left are still applied). When every expected connection
//! has ended and its segments are applied, the router flushes the
//! pipeline, routes the final feedback, closes the writer queues (each
//! writer flushes and shuts its socket's write side down) and tears down.
//! The accept loop is unblocked by a sentinel connection to the server's
//! own port.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use kalstream_core::{IngestPipeline, IngestResult, ServerEndpoint};
use kalstream_durable::{Durability, DurableConfig, DurableStats, DurableStore};
use kalstream_elastic::{ControllerConfig, ElasticDriver, ResizeKind};
use kalstream_obs::{Instrument, Registry, Scope, Snapshot};

use crate::codec::{
    decode_hello_ids, decode_hello_prefix, encode_status, push_frame, push_marker, HelloStatus,
    TickCutter, MARKER_BYTES,
};

/// Per-connection feedback queue depth. Small enough to bound server
/// memory against a stalled client, deep enough that a reading client
/// never sheds (acks are tiny and drained continuously).
pub const FEEDBACK_QUEUE_DEPTH: usize = 256;

/// How the server ingests and feeds back.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Shards of the ingest pipeline: the router steps shard 0, and each
    /// other shard has a worker thread.
    pub shards: usize,
    /// Does nothing: every shard steps its endpoints as fleet-batch lanes.
    /// Kept so configurations that still name it compile.
    #[deprecated(note = "every shard steps lanes; the field does nothing")]
    pub batched: bool,
    /// Connections to admit before the first tick barrier (and to expect
    /// before finishing). The lockstep tick discipline needs the full
    /// fleet present from tick 0.
    pub expected_conns: usize,
    /// After each global tick, flush the pipeline and route every pending
    /// feedback payload before acknowledging the tick to clients (send a
    /// return marker). Deterministic — the mode the bit-identity tests
    /// and the loss-recovery protocol run in. When `false` the server
    /// never blocks on feedback: it routes whatever the shard workers
    /// have polled so far and clients read acks asynchronously — the mode
    /// the benchmark's TCP stream phases (`obs_per_s`) run in.
    pub lockstep: bool,
    /// Durability: when set, every tick batch is WAL-appended before it is
    /// applied and the fleet is snapshotted at the configured cadence, so
    /// a restarted server recovers bit-identical filter state. On start
    /// the directory is recovered and replayed *before* any connection is
    /// admitted, and every accepted hello gets a [`HelloStatus`] reply
    /// (clients must set `expect_status`).
    pub durable: Option<DurableConfig>,
    /// Fault injection for the crash-recovery tests: after this many
    /// global ticks have been fully processed, `serve` aborts with
    /// `ConnectionAborted` — no drain, no final snapshot, pipeline dropped
    /// mid-flight. With `durable` set, the next start on the same
    /// directory must recover everything the aborted run applied.
    pub crash_after_ticks: Option<u64>,
    /// Elasticity: when set, the closed-loop [`ElasticDriver`] is hooked in
    /// after every tick and grows/shrinks the shard fleet from the frames
    /// offered, within this shard range and capacity model. Resizes execute on the router's
    /// thread between global ticks — writers, sockets and their buffers
    /// are untouched, so no connection ever drops across a resize. `shards`
    /// becomes the *initial* count and must lie inside the controller's
    /// `[min_shards, max_shards]` range. Composes with `durable`: each
    /// resize then checkpoints at its barrier first (shape-change
    /// checkpoint reuse).
    pub elastic: Option<ControllerConfig>,
}

#[allow(deprecated)] // fills in the deprecated field
impl Default for NetServerConfig {
    /// Single-shard, volatile, one-connection lockstep server — the
    /// configuration the bit-identity tests run; construction sites
    /// override what they vary and inherit new knobs safely.
    fn default() -> Self {
        NetServerConfig {
            shards: 1,
            batched: false,
            expected_conns: 1,
            lockstep: true,
            durable: None,
            crash_after_ticks: None,
            elastic: None,
        }
    }
}

/// What one connection did, reported at server teardown.
#[derive(Debug, Clone, Default)]
pub struct ConnReport {
    /// Admission index (order of hello arrival).
    pub conn: usize,
    /// Streams the hello claimed.
    pub streams: usize,
    /// Tick segments received.
    pub ticks: u64,
    /// Wire bytes received (frames + markers).
    pub bytes_in: u64,
    /// Feedback payloads queued to this connection.
    pub feedback_sent: u64,
    /// Feedback payloads shed (queue full or connection gone) — counted
    /// on every path, including drain.
    pub shed: u64,
    /// High-water mark of the feedback queue depth.
    pub queue_high_water: u64,
}

impl Instrument for ConnReport {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("streams", self.streams as u64);
        scope.counter("ticks", self.ticks);
        scope.counter("bytes_in", self.bytes_in);
        scope.counter("feedback_sent", self.feedback_sent);
        scope.counter("shed", self.shed);
        scope.gauge("queue_high_water", self.queue_high_water as f64);
    }
}

/// Elastic-controller outcome of a served fleet, reported when the server
/// ran with a [`ControllerConfig`].
#[derive(Debug, Clone)]
pub struct ElasticNetStats {
    /// Resizes that added shards.
    pub grows: u64,
    /// Resizes that removed shards.
    pub shrinks: u64,
    /// Shard count at teardown.
    pub final_shards: usize,
    /// Worst ingest stall paid at any resize barrier, in milliseconds
    /// (wall-clock — artifact material, not table material).
    pub max_stall_ms: f64,
}

impl Instrument for ElasticNetStats {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("grows", self.grows);
        scope.counter("shrinks", self.shrinks);
        scope.gauge("final_shards", self.final_shards as f64);
        scope.gauge("max_stall_ms", self.max_stall_ms);
    }
}

/// Aggregate outcome of a served fleet.
#[derive(Debug)]
pub struct NetReport {
    /// The ingest pipeline's own result (per-shard reports + endpoints,
    /// bit-comparable against a sequential reference).
    pub ingest: IngestResult,
    /// Per-connection accounting, admission order.
    pub conns: Vec<ConnReport>,
    /// Global ticks the router advanced through.
    pub ticks: u64,
    /// Hellos rejected (bad magic, reserved ids, oversized claims).
    pub rejected_hellos: u64,
    /// Hello-thread/router messages that could not be delivered: a hello
    /// or a refusal sent after the router was gone, or a durable status
    /// reply whose writer was already gone. Only hellos travel between
    /// threads; every lost one is counted.
    pub dropped_router_msgs: u64,
    /// Socket shutdowns that returned an error in the per-connection
    /// writer threads (formerly a silent `let _`).
    pub shutdown_errors: u64,
    /// Feedback payloads for a stream no admitted connection claims, shed
    /// by the router.
    pub unrouted_feedback: u64,
    /// Ticks re-applied from the WAL during startup recovery.
    pub replayed_ticks: u64,
    /// Feedback payloads produced by WAL replay and discarded (their
    /// clients received them before the crash).
    pub replay_feedback_discarded: u64,
    /// Durability counters, when the server ran with a [`DurableConfig`].
    pub durable: Option<DurableStats>,
    /// Elastic-controller counters, when the server ran with a
    /// [`ControllerConfig`].
    pub elastic: Option<ElasticNetStats>,
}

impl NetReport {
    /// Total feedback payloads shed across connections. The CI smoke lane
    /// gates on this being zero.
    pub fn total_shed(&self) -> u64 {
        self.conns.iter().map(|c| c.shed).sum()
    }

    /// Obs snapshot: `net.*` aggregates plus `net.conn.<i>.*` per
    /// connection (shed counters and queue-depth gauges included).
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut net = reg.scope("net");
        net.counter("conns", self.conns.len() as u64);
        net.counter("ticks", self.ticks);
        net.counter("rejected_hellos", self.rejected_hellos);
        net.counter("shed", self.total_shed());
        net.counter("dropped_router_msgs", self.dropped_router_msgs);
        net.counter("shutdown_errors", self.shutdown_errors);
        net.counter("unrouted_feedback", self.unrouted_feedback);
        net.counter("replayed_ticks", self.replayed_ticks);
        net.counter("replay_feedback_discarded", self.replay_feedback_discarded);
        if let Some(durable) = &self.durable {
            net.observe("durable", durable);
        }
        if let Some(elastic) = &self.elastic {
            net.observe("elastic", elastic);
        }
        net.counter(
            "feedback_sent",
            self.conns.iter().map(|c| c.feedback_sent).sum::<u64>(),
        );
        net.observe("ingest", &self.ingest);
        let mut conns = net.scope("conn");
        for c in &self.conns {
            conns.observe(&c.conn.to_string(), c);
        }
        reg.snapshot()
    }
}

/// Hello thread → router messages.
enum RouterMsg {
    Hello {
        streams: Vec<u32>,
        writer: Sender<Bytes>,
        /// The connection's read side, read by the router from now on.
        socket: Arc<TcpStream>,
    },
    HelloRejected,
}

/// Router-side connection state.
struct ConnState {
    writer: Option<Sender<Bytes>>,
    /// The read side; `None` once the connection ended (end of stream, a
    /// read error or an oversized frame).
    socket: Option<Arc<TcpStream>>,
    /// What was read and not yet applied, cut into tick segments.
    input: TickCutter,
    /// The connection's counters, updated in place and handed out as is.
    report: ConnReport,
}

impl ConnState {
    /// Reads until a complete segment is buffered or the connection ends.
    /// A live connection with no segment blocks the tick anyway, so the
    /// router waits here, in `read`, and nowhere else.
    fn fill(&mut self) {
        if let Some(socket) = &self.socket {
            if !matches!(self.input.fill(&**socket), Ok(true)) {
                self.socket = None;
            }
        }
    }
}

/// A running TCP ingest server. [`NetServer::start`] binds and serves on a
/// background thread; [`NetServer::join`] blocks until the fleet drains
/// and returns the [`NetReport`].
pub struct NetServer {
    addr: SocketAddr,
    handle: thread::JoinHandle<io::Result<NetReport>>,
}

impl NetServer {
    /// Binds `127.0.0.1:0` (or `addr`) and starts serving `endpoints`.
    ///
    /// # Errors
    /// `InvalidInput` for a configuration the ingest engine would reject
    /// (zero shards, a zero snapshot cadence, an initial shard count outside
    /// the elastic controller's range) — before anything is bound; bind and
    /// thread-spawn errors otherwise.
    pub fn start(
        addr: &str,
        endpoints: Vec<(u32, ServerEndpoint)>,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let invalid = |what: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        if config.shards == 0 {
            return invalid("shards must be at least 1");
        }
        if config
            .durable
            .as_ref()
            .is_some_and(|d| d.snapshot_every == 0)
        {
            return invalid("durable.snapshot_every must be at least 1");
        }
        if config
            .elastic
            .as_ref()
            .is_some_and(|e| !(e.min_shards..=e.max_shards).contains(&config.shards))
        {
            return invalid("shards lies outside elastic [min_shards, max_shards]");
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let handle = thread::Builder::new()
            .name("net-server".into())
            .spawn(move || serve(listener, endpoints, config))?;
        Ok(NetServer {
            addr: local,
            handle,
        })
    }

    /// The bound address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the fleet to drain and returns the report.
    ///
    /// # Panics
    /// Panics when the server thread panicked.
    pub fn join(self) -> io::Result<NetReport> {
        self.handle.join().expect("net-server thread panicked")
    }
}

/// The router's ingest engine: the pipeline plus whichever barrier hooks
/// the server was configured with. The hooks hold no ingester — each tick
/// lends them the pipeline.
struct Engine {
    pipeline: IngestPipeline,
    /// WAL-append before apply, cadence snapshots after.
    durable: Option<Durability>,
    /// Controller loop, run at the barrier after each tick.
    elastic: Option<ElasticDriver>,
    feedback: Receiver<(u32, Bytes)>,
    /// First tick the recovered state has *not* applied (0 when nothing was
    /// recovered).
    resume_at: u64,
    replayed_ticks: u64,
    replay_feedback_discarded: u64,
    /// Streams the fleet serves, counted after recovery: the most ids a
    /// hello may claim (the claim sizes a hello thread's buffer).
    streams: usize,
}

impl Engine {
    /// Builds the pipeline and attaches the configured hooks. A durable
    /// server first rebuilds the fleet from its newest valid snapshot and
    /// re-applies the intact WAL suffix through the *same* pipeline
    /// configuration the crashed run started with — bit-identical state,
    /// then a compaction snapshot so this recovery is never paid twice.
    fn start(endpoints: Vec<(u32, ServerEndpoint)>, config: &NetServerConfig) -> io::Result<Self> {
        let (store, recovery) = match &config.durable {
            Some(durable) => {
                let mut store = DurableStore::open(&durable.dir)?;
                let recovery = store.recover()?;
                (Some((store, durable.snapshot_every)), recovery)
            }
            None => (None, None),
        };
        let (initial, resume_at) = match &recovery {
            Some(rec) => {
                let rebuilt = rec.endpoints().map_err(|err| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("recovered snapshot rejected by filter: {err}"),
                    )
                })?;
                (rebuilt, rec.next_tick())
            }
            None => (endpoints, 0),
        };
        let streams = initial.len();
        let (feedback_tx, feedback) = crossbeam::channel::unbounded();
        let mut pipeline = IngestPipeline::start_with(config.shards, initial, Some(feedback_tx));
        let mut replay_feedback_discarded = 0;
        if let Some(rec) = &recovery {
            rec.replay_into(&mut pipeline);
            pipeline.flush();
            // Feedback from replayed ticks already reached its clients
            // before the crash: discard, but never silently.
            while feedback.try_recv().is_ok() {
                replay_feedback_discarded += 1;
            }
        }
        let durable = match store {
            Some((store, snapshot_every)) => Some(Durability::start(
                store,
                snapshot_every,
                resume_at,
                &pipeline.snapshot_states(),
            )?),
            None => None,
        };
        let elastic = config
            .elastic
            .clone()
            .map(|elastic| ElasticDriver::new(elastic, &mut pipeline));
        Ok(Engine {
            pipeline,
            durable,
            elastic,
            feedback,
            resume_at,
            replayed_ticks: recovery.map_or(0, |rec| rec.wal.len() as u64),
            replay_feedback_discarded,
            streams,
        })
    }

    /// One tick through the hooks: WAL-append, apply, cadence snapshot,
    /// then the elastic barrier. A store I/O error is returned, never
    /// panicked on; after a failed append the tick is **not** applied.
    fn ingest_tick(&mut self, wire: &[u8]) -> io::Result<()> {
        match &mut self.durable {
            Some(durable) => durable.ingest_tick(&mut self.pipeline, wire)?,
            None => self.pipeline.ingest_tick(wire),
        }
        if let Some(elastic) = &mut self.elastic {
            let durable = &mut self.durable;
            elastic.after_tick(&mut self.pipeline, |pipeline, to| match durable {
                Some(durable) => durable.reassign(pipeline, to),
                None => Ok(pipeline.reassign(to)),
            })?;
        }
        Ok(())
    }

    /// Clean teardown: a durable server checkpoints at the final barrier
    /// (so the next start replays nothing; a no-op when the cadence or a
    /// resize already snapshotted it), an elastic one reports its
    /// controller counters, then the pipeline finishes.
    fn finish(
        mut self,
    ) -> io::Result<(IngestResult, Option<DurableStats>, Option<ElasticNetStats>)> {
        let elastic = self.elastic.map(|elastic| {
            let count = |kind: ResizeKind| {
                elastic.events().iter().filter(|e| e.kind == kind).count() as u64
            };
            ElasticNetStats {
                grows: count(ResizeKind::Grow),
                shrinks: count(ResizeKind::Shrink),
                final_shards: self.pipeline.shards(),
                max_stall_ms: elastic.max_stall_ms(),
            }
        });
        if let Some(durable) = &mut self.durable {
            durable.checkpoint(|| self.pipeline.snapshot_states())?;
        }
        let durable = self.durable.map(|durable| durable.store().stats().clone());
        Ok((self.pipeline.finish(), durable, elastic))
    }
}

/// The router: admits connections, cuts the fleet's traffic into global
/// ticks, drives the engine, and routes feedback. Runs on `net-server`.
fn serve(
    listener: TcpListener,
    endpoints: Vec<(u32, ServerEndpoint)>,
    config: NetServerConfig,
) -> io::Result<NetReport> {
    let addr = listener.local_addr()?;
    let (router_tx, router_rx) = bounded::<RouterMsg>(config.expected_conns.max(16));
    let closing = Arc::new(AtomicBool::new(false));
    let dropped_router_msgs = Arc::new(AtomicU64::new(0));
    let shutdown_errors = Arc::new(AtomicU64::new(0));

    // Recovery happens in here, before any connection is admitted.
    let mut engine = Engine::start(endpoints, &config)?;
    let status = match engine.resume_at {
        0 => HelloStatus::Ready,
        next_tick => HelloStatus::Recovering { next_tick },
    };
    // Status reply appended to each admitted connection's (empty) writer
    // queue — only when durability is on; volatile clients don't expect it.
    let status_frame: Option<Bytes> = config
        .durable
        .is_some()
        .then(|| Bytes::copy_from_slice(&encode_status(status)));

    // Accept loop: admit connections until the router signals teardown
    // (checked after each accept; a sentinel dial unblocks the last one).
    let accept_closing = closing.clone();
    let accept_tx = router_tx.clone();
    let accept_dropped = dropped_router_msgs.clone();
    let accept_shutdown_errors = shutdown_errors.clone();
    let hello_cap = engine.streams;
    let accept_thread = thread::Builder::new()
        .name("net-accept".into())
        .spawn(move || {
            for seq in 0usize.. {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                if accept_closing.load(Ordering::SeqCst) {
                    break; // the sentinel itself: drop it and stop accepting
                }
                let tx = accept_tx.clone();
                let dropped = accept_dropped.clone();
                let shutdown_errs = accept_shutdown_errors.clone();
                // Detached on purpose: a hello thread may sit in `read` on a
                // peer that never speaks, and teardown must not wait for it.
                // What it has to report travels through the router queue
                // and the shared counters.
                let spawned = thread::Builder::new()
                    .name(format!("net-hello-{seq}"))
                    .spawn(move || {
                        hello_thread(seq, stream, tx, hello_cap, dropped, shutdown_errs)
                    });
                // Out of threads: the socket closed with the unspawned
                // closure, so the peer sees EOF; count it as a refusal.
                if spawned.is_err() && accept_tx.send(RouterMsg::HelloRejected).is_err() {
                    accept_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        })?;
    drop(router_tx);

    // ---- router ---------------------------------------------------------
    let mut conns: Vec<ConnState> = Vec::new();
    let mut ticks = 0u64;
    let mut rejected_hellos = 0u64;
    let mut tick_wire: Vec<u8> = Vec::new();
    let mut unrouted_feedback = 0u64;
    // One feedback frame at a time is built here, then copied once into
    // the `Bytes` the writer queue carries.
    let mut frame: Vec<u8> = Vec::new();

    // Drains every feedback payload currently in the channel onto its
    // owning connection's queue. `route` maps stream → conn; a payload for
    // a stream no connection claims is shed and counted in `unrouted`.
    let mut route_feedback = |conns: &mut [ConnState],
                              route: &HashMap<u32, usize>,
                              fb_rx: &crossbeam::channel::Receiver<(u32, Bytes)>,
                              unrouted: &mut u64| {
        while let Ok((stream_id, payload)) = fb_rx.try_recv() {
            let Some(&conn) = route.get(&stream_id) else {
                *unrouted += 1;
                continue;
            };
            let ConnState { writer, report, .. } = &mut conns[conn];
            let Some(writer) = writer else {
                // Writer already torn down (connection drained): the ack
                // is lost — count it instead of `let _`-dropping it.
                report.shed += 1;
                continue;
            };
            frame.clear();
            push_frame(&mut frame, stream_id, &payload);
            match writer.try_send(Bytes::copy_from_slice(&frame)) {
                Ok(()) => {
                    report.feedback_sent += 1;
                    report.queue_high_water = report.queue_high_water.max(writer.len() as u64);
                }
                Err(_) => report.shed += 1, // full or closed: count, don't block
            }
        }
    };

    // The lockstep return marker, built once: every send is a clone of it.
    let marker = {
        let mut marker = Vec::with_capacity(MARKER_BYTES);
        push_marker(&mut marker);
        Bytes::from(marker)
    };
    let mut route: HashMap<u32, usize> = HashMap::new();
    let mut admit = |conns: &mut Vec<ConnState>, route: &mut HashMap<u32, usize>, msg| {
        let RouterMsg::Hello {
            streams,
            writer,
            socket,
        } = msg
        else {
            rejected_hellos += 1;
            return;
        };
        let conn = conns.len();
        for &id in &streams {
            route.insert(id, conn);
        }
        if let Some(frame) = &status_frame {
            // The queue is empty at admission, so this only fails if the
            // writer died between hello and here.
            if writer.try_send(frame.clone()).is_err() {
                dropped_router_msgs.fetch_add(1, Ordering::Relaxed);
            }
        }
        conns.push(ConnState {
            writer: Some(writer),
            socket: Some(socket),
            input: TickCutter::new(),
            report: ConnReport {
                conn,
                streams: streams.len(),
                ..ConnReport::default()
            },
        });
    };
    loop {
        // Admission: wait for hellos until the fleet is present, then take
        // whichever have arrived between ticks without waiting.
        if conns.len() < config.expected_conns {
            let Ok(msg) = router_rx.recv() else {
                break; // accept loop and all hello threads gone
            };
            admit(&mut conns, &mut route, msg);
            continue;
        }
        while let Ok(msg) = router_rx.try_recv() {
            admit(&mut conns, &mut route, msg);
        }

        // Every live conn reads until it holds its next segment; a conn
        // that ended contributes whatever complete segments it left.
        for state in conns.iter_mut() {
            state.fill();
        }
        if !conns.iter().any(|c| c.input.has_segment()) {
            break; // every conn ended and every segment is applied
        }
        tick_wire.clear();
        for state in conns.iter_mut() {
            if let Some(frames) = state.input.pop_segment() {
                tick_wire.extend_from_slice(frames);
                state.report.ticks += 1;
                state.report.bytes_in += (frames.len() + MARKER_BYTES) as u64;
            }
        }
        engine.ingest_tick(&tick_wire)?;
        if config.lockstep {
            // Applied-before-acknowledged: flush, route *all* feedback for
            // this tick, then send every live conn its marker.
            engine.pipeline.flush();
            route_feedback(&mut conns, &route, &engine.feedback, &mut unrouted_feedback);
            for state in conns.iter_mut() {
                let Some(writer) = &state.writer else {
                    continue;
                };
                if state.socket.is_none() {
                    continue;
                }
                if writer.try_send(marker.clone()).is_err() {
                    state.report.shed += 1;
                }
            }
        } else {
            route_feedback(&mut conns, &route, &engine.feedback, &mut unrouted_feedback);
        }
        ticks += 1;
        if config.crash_after_ticks == Some(ticks) {
            // Injected crash: abort with no drain, no checkpoint — `engine`
            // drops mid-flight exactly as a killed process would lose it.
            // The WAL already holds this tick (appended before apply),
            // which is what recovery tests rely on.
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("injected crash after {ticks} ticks"),
            ));
        }
    }

    // ---- drain ----------------------------------------------------------
    engine.pipeline.flush();
    route_feedback(&mut conns, &route, &engine.feedback, &mut unrouted_feedback);
    // Dropping each writer sender closes its queue; the writer thread
    // drains remaining payloads and shuts the socket's write side down.
    for state in conns.iter_mut() {
        state.writer = None;
    }
    // Unblock the accept loop with a sentinel dial, then join it.
    closing.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    let _ = accept_thread.join();
    // Late feedback (none expected: the final flush waited for every
    // shard's last poll): count as shed, never drop silently.
    route_feedback(&mut conns, &route, &engine.feedback, &mut unrouted_feedback);

    let (replayed_ticks, replay_feedback_discarded) =
        (engine.replayed_ticks, engine.replay_feedback_discarded);
    let (ingest, durable, elastic) = engine.finish()?;
    Ok(NetReport {
        ingest,
        conns: conns.into_iter().map(|c| c.report).collect(),
        ticks,
        rejected_hellos,
        dropped_router_msgs: dropped_router_msgs.load(Ordering::Relaxed),
        shutdown_errors: shutdown_errors.load(Ordering::Relaxed),
        unrouted_feedback,
        replayed_ticks,
        replay_feedback_discarded,
        durable,
        elastic,
    })
}

/// Per-connection hello thread: reads and checks the hello, spawns the
/// connection's writer, hands the socket to the router, and exits. `seq`
/// is the accept order, used only to name the threads.
fn hello_thread(
    seq: usize,
    stream: TcpStream,
    router: Sender<RouterMsg>,
    hello_cap: usize,
    dropped_router_msgs: Arc<AtomicU64>,
    shutdown_errors: Arc<AtomicU64>,
) {
    let _ = stream.set_nodelay(true);
    // One socket, two directions: the router reads and the writer writes
    // through `&TcpStream`, so neither needs its own descriptor.
    let stream = Arc::new(stream);
    let mut read = &*stream;

    // A send to a closed router is a real loss of accounting, not noise.
    let report_or_count = |msg: RouterMsg| {
        if router.send(msg).is_err() {
            dropped_router_msgs.fetch_add(1, Ordering::Relaxed);
        }
    };

    let mut prefix = [0u8; 8];
    if read.read_exact(&mut prefix).is_err() {
        return; // sentinel or portscan: vanish quietly
    }
    let streams = match decode_hello_prefix(&prefix, hello_cap) {
        Ok(count) => {
            let mut body = vec![0u8; count * 4];
            if read.read_exact(&mut body).is_err() {
                return;
            }
            decode_hello_ids(&body)
        }
        Err(err) => Err(err),
    };
    let Ok(streams) = streams else {
        report_or_count(RouterMsg::HelloRejected);
        return;
    };

    let (writer_tx, writer_rx) = bounded::<Bytes>(FEEDBACK_QUEUE_DEPTH);
    let write = Arc::clone(&stream);
    // Detached; it exits when the router drops the queue.
    let spawned = thread::Builder::new()
        .name(format!("net-writer-{seq}"))
        .spawn(move || writer_thread(&write, writer_rx, shutdown_errors));
    if spawned.is_err() {
        // Out of threads: close the connection rather than serve it with
        // no feedback direction; count it as a refusal.
        report_or_count(RouterMsg::HelloRejected);
        return;
    }
    report_or_count(RouterMsg::Hello {
        streams,
        writer: writer_tx,
        socket: stream,
    });
}

/// Per-connection writer: drains the bounded feedback queue onto the
/// socket; on queue close, shuts the write side down.
fn writer_thread(mut write: &TcpStream, rx: Receiver<Bytes>, shutdown_errors: Arc<AtomicU64>) {
    for frame in &rx {
        // Peer gone: keep draining so the router's try_sends see a live
        // (then closed) queue rather than a wedged one.
        let _ = write.write_all(&frame);
    }
    if write.shutdown(Shutdown::Write).is_err() {
        shutdown_errors.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_hello;
    use crate::workload;
    use kalstream_core::wire::{SyncMessage, WireMessage};
    use kalstream_core::{FrameBatch, SequentialIngest};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kalstream-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn invalid_configs_are_rejected_before_binding() {
        let cases = [
            (
                "zero shards",
                NetServerConfig {
                    shards: 0,
                    ..NetServerConfig::default()
                },
            ),
            (
                "zero snapshot cadence",
                NetServerConfig {
                    durable: Some(DurableConfig {
                        dir: tmp_dir("invalid"),
                        snapshot_every: 0,
                    }),
                    ..NetServerConfig::default()
                },
            ),
            (
                "shards above the elastic range",
                NetServerConfig {
                    shards: 5,
                    elastic: Some(ControllerConfig::new(1, 4, 1.0)),
                    ..NetServerConfig::default()
                },
            ),
        ];
        for (what, config) in cases {
            let err = NetServer::start("127.0.0.1:0", workload::server_endpoints(2), config)
                .err()
                .unwrap_or_else(|| panic!("{what}: accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{what}");
        }
    }

    /// A store that stops accepting snapshots (its directory is gone; the
    /// already-open WAL segment still takes appends) must surface as `Err`
    /// from the tick that needed the snapshot — at the cadence barrier
    /// without the elastic hook, at the first resize-barrier checkpoint
    /// with it.
    #[test]
    fn store_failure_is_an_error_not_a_panic() {
        let mut hot = FrameBatch::new();
        for id in 0..4 {
            let z = kalstream_linalg::Vector::from_slice(&[1.0]);
            hot.push(id, &SyncMessage::Measurement { z });
        }
        // Four frames a tick against capacity 1 is over the band at every
        // sample, so the controller grows at its second sample.
        let first_grow = 2 * kalstream_elastic::SAMPLE_EVERY;
        for (snapshot_every, elastic, failing_tick) in [
            (2, None, 2),
            (1000, Some(ControllerConfig::new(1, 4, 1.0)), first_grow),
        ] {
            let dir = tmp_dir("store-failure");
            let config = NetServerConfig {
                durable: Some(DurableConfig {
                    dir: dir.clone(),
                    snapshot_every,
                }),
                elastic,
                ..NetServerConfig::default()
            };
            let mut engine = Engine::start(workload::server_endpoints(4), &config).unwrap();
            engine.ingest_tick(hot.as_bytes()).expect("WAL append");
            std::fs::remove_dir_all(&dir).unwrap();
            for tick in 2..failing_tick {
                engine
                    .ingest_tick(hot.as_bytes())
                    .unwrap_or_else(|err| panic!("tick {tick} needs no snapshot: {err}"));
            }
            let err = engine.ingest_tick(hot.as_bytes()).expect_err("snapshot");
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
            assert_eq!(engine.pipeline.shards(), 1, "failed resize not executed");
        }
    }

    /// Feedback for a stream no connection claims is shed and counted: a
    /// client that claims stream 0 of two sends a sequenced sync for
    /// stream 1, whose ack has nowhere to go.
    #[test]
    fn feedback_for_an_unclaimed_stream_is_counted() {
        let server = NetServer::start(
            "127.0.0.1:0",
            workload::server_endpoints(2),
            NetServerConfig::default(),
        )
        .expect("bind");
        let mut batch = FrameBatch::new();
        let sync = WireMessage::Sync {
            seq: Some(1),
            msg: SyncMessage::Measurement {
                z: kalstream_linalg::Vector::from_slice(&[1.0]),
            },
        };
        batch.push_raw(1, &sync.encode());
        let mut conn = TcpStream::connect(server.addr()).expect("dial");
        let mut wire = encode_hello(&[0]);
        wire.extend_from_slice(batch.as_bytes());
        push_marker(&mut wire);
        conn.write_all(&wire).expect("hello and one tick");
        conn.shutdown(Shutdown::Write).expect("shutdown");
        conn.read_to_end(&mut Vec::new()).expect("drain");
        let report = server.join().expect("serve");

        assert_eq!(report.ticks, 1);
        assert_eq!(report.unrouted_feedback, 1, "the ack is counted once");
        assert_eq!(report.snapshot().counter("net.unrouted_feedback"), Some(1));
        assert_eq!(report.conns[0].feedback_sent, 0);
        assert_eq!(report.conns[0].shed, 0);
        // Stream 0 saw only the tick's predict, exactly as a sequential
        // ingest of the same tick leaves it.
        let mut reference = SequentialIngest::new(workload::server_endpoints(2));
        reference.ingest_tick(batch.as_bytes());
        let reference = reference.finish();
        let (id, served) = &report.ingest.endpoints[0];
        assert_eq!(*id, 0);
        assert_eq!(served.syncs_applied(), 0);
        assert_eq!(
            workload::endpoint_bits(served),
            workload::endpoint_bits(&reference.endpoints[0].1)
        );
        assert_eq!(report.ingest.endpoints[1].1.syncs_applied(), 1);
    }

    /// One of three connections sends an oversized frame length mid-run:
    /// the router ends that connection alone, keeps the segments it cut
    /// before the bad header, and closes every tick the other two send.
    #[test]
    fn an_oversized_frame_ends_its_connection_and_the_fleet_goes_on() {
        crate::within_a_minute(|| {
            const TICKS: u32 = 12;
            const BAD_AFTER: u32 = 5;
            // Connection c owns streams 2c and 2c + 1; each tick carries one
            // measurement per stream.
            let segment = |c: u32, t: u32| {
                let mut batch = FrameBatch::new();
                for id in [2 * c, 2 * c + 1] {
                    let z = kalstream_linalg::Vector::from_slice(&[t as f64 * 0.1 - id as f64]);
                    batch.push(id, &SyncMessage::Measurement { z });
                }
                batch.as_bytes().to_vec()
            };
            let server = NetServer::start(
                "127.0.0.1:0",
                workload::server_endpoints(6),
                NetServerConfig {
                    shards: 2,
                    expected_conns: 3,
                    lockstep: false,
                    ..NetServerConfig::default()
                },
            )
            .expect("bind");
            let mut socks: Vec<TcpStream> = (0..3)
                .map(|c| {
                    let mut sock = TcpStream::connect(server.addr()).expect("dial");
                    sock.write_all(&encode_hello(&[2 * c, 2 * c + 1]))
                        .expect("hello");
                    sock
                })
                .collect();
            for t in 0..TICKS {
                for (c, sock) in socks.iter_mut().enumerate() {
                    let c = c as u32;
                    if c == 2 && t >= BAD_AFTER {
                        continue;
                    }
                    let mut wire = segment(c, t);
                    push_marker(&mut wire);
                    if c == 2 && t + 1 == BAD_AFTER {
                        wire.extend_from_slice(&4u32.to_le_bytes());
                        wire.extend_from_slice(&u32::MAX.to_le_bytes());
                    }
                    sock.write_all(&wire).expect("tick");
                }
            }
            // Every write side is shut before any is drained: the server
            // closes a connection only once all of them ended.
            for sock in &socks {
                sock.shutdown(Shutdown::Write).expect("shutdown");
            }
            for sock in &mut socks {
                sock.read_to_end(&mut Vec::new()).expect("drain");
            }
            let report = server.join().expect("serve");

            assert_eq!(report.ticks, TICKS as u64);
            // Reports come in admission order, which the hello threads race
            // for.
            let mut ticks: Vec<u64> = report.conns.iter().map(|c| c.ticks).collect();
            ticks.sort_unstable();
            assert_eq!(ticks, [BAD_AFTER as u64, TICKS as u64, TICKS as u64]);
            let mut reference = SequentialIngest::new(workload::server_endpoints(6));
            let mut good_only = SequentialIngest::new(workload::server_endpoints(6));
            for t in 0..TICKS {
                let good = [segment(0, t), segment(1, t)].concat();
                good_only.ingest_tick(&good);
                if t < BAD_AFTER {
                    reference.ingest_tick(&[good, segment(2, t)].concat());
                } else {
                    reference.ingest_tick(&good);
                }
            }
            let good_only = good_only.finish();
            for (served, expected) in report.ingest.endpoints[..4]
                .iter()
                .zip(&good_only.endpoints)
            {
                assert_eq!(served.0, expected.0);
                assert_eq!(
                    workload::endpoint_bits(&served.1),
                    workload::endpoint_bits(&expected.1),
                    "stream {}",
                    served.0
                );
            }
            assert!(
                workload::ingest_identical(&report.ingest, &reference.finish()),
                "the closed connection's segments before its bad frame were not applied once"
            );
        });
    }
}
