//! The TCP workloads' load generator: replays a recorded [`Log`] over
//! blocking loopback sockets into a fresh [`NetServer`].
//!
//! Replay rather than live sources because running the sources costs about
//! seven times what the whole server path costs per observation — a live
//! generator on the same core would mostly measure itself.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use kalstream_core::StreamDecoder;
use kalstream_durable::DurableConfig;
use kalstream_net::codec::{
    decode_status, encode_hello, push_marker, STATUS_BYTES, TICK_MARKER_STREAM,
};
use kalstream_net::{HelloStatus, NetReport, NetServer, NetServerConfig};

use crate::fleet::{server_endpoints, warmup_ticks, ConnLog, Log};
use crate::host;

/// Shard workers behind the server in every TCP workload.
pub const SHARDS: usize = 2;

/// How one phase drives the server.
pub struct PhaseConfig {
    /// One tick in flight per connection, each acknowledged by the server's
    /// return marker — the phase `fresh_p50_ms` is read from. Otherwise
    /// ticks are written back to back and the phase measures throughput.
    pub lockstep: bool,
    /// WAL and snapshots under this (fresh) directory, one snapshot every
    /// `snapshot_every` ticks.
    pub store: Option<(PathBuf, u64)>,
    /// Read thread and context-switch counters while the phase runs (the
    /// traced run's diagnostics; a few hundred microseconds of `/proc`).
    pub sample_host: bool,
}

/// What one phase measured.
pub struct Phase {
    /// Build endpoints, `NetServer::start`, connect, hello (and status).
    pub setup_s: f64,
    pub start_ms: f64,
    pub admit_ms: f64,
    /// The client's last write returning to `NetServer::join` returning:
    /// how far behind the server was, plus its tear-down.
    pub drain_ms: f64,
    /// First data write to `NetServer::join` returning.
    pub phase_s: f64,
    /// Lockstep only, per post-warm-up tick: stamp before writing tick `t`
    /// to connection 0's return marker for `t` read; and its two parts.
    pub fresh_ns: Vec<f64>,
    pub write_ns: Vec<f64>,
    pub wait_ns: Vec<f64>,
    /// Socket bytes in each direction, hello and status included.
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Server→source payload frames (acks, bound directives) read.
    pub feedback_frames: u64,
    pub report: NetReport,
    pub threads: u64,
    pub ctx_switches_per_tick: f64,
}

/// The reading half of one connection: counts what the server sends back.
struct Feedback {
    decoder: StreamDecoder,
    markers: u64,
    frames: u64,
    bytes: u64,
}

impl Feedback {
    fn new() -> Self {
        Feedback {
            decoder: StreamDecoder::new(),
            markers: 0,
            frames: 0,
            bytes: 0,
        }
    }

    /// One socket read; `Ok(false)` at end of stream.
    fn read_some(&mut self, sock: &mut TcpStream, chunk: &mut [u8]) -> io::Result<bool> {
        let n = sock.read(chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.bytes += n as u64;
        let (markers, frames) = (&mut self.markers, &mut self.frames);
        self.decoder
            .feed(&chunk[..n], |stream_id, _| {
                if stream_id == TICK_MARKER_STREAM {
                    *markers += 1;
                } else {
                    *frames += 1;
                }
            })
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        Ok(true)
    }

    /// Blocks until the return marker of tick `tick` (0-based) was read.
    fn wait_marker(&mut self, sock: &mut TcpStream, chunk: &mut [u8], tick: u64) -> io::Result<()> {
        while self.markers <= tick {
            if !self.read_some(sock, chunk)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server closed before acknowledging tick {tick}"),
                ));
            }
        }
        Ok(())
    }

    fn drain(&mut self, sock: &mut TcpStream) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        while self.read_some(sock, &mut chunk)? {}
        Ok(())
    }
}

fn connect(
    addr: std::net::SocketAddr,
    conn: &ConnLog,
    expect_status: bool,
) -> io::Result<(TcpStream, u64, u64)> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    let hello = encode_hello(&conn.ids);
    sock.write_all(&hello)?;
    let mut bytes_in = 0;
    if expect_status {
        let mut buf = [0u8; STATUS_BYTES];
        sock.read_exact(&mut buf)?;
        bytes_in = STATUS_BYTES as u64;
        let status =
            decode_status(&buf).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        if status != HelloStatus::Ready {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store directory was not empty: {status:?}"),
            ));
        }
    }
    Ok((sock, hello.len() as u64, bytes_in))
}

/// Thread and context-switch counters of a phase, read while its threads
/// are alive: switches from the first timed tick to the last, threads
/// half-way between. Reads nothing unless `enabled`.
struct HostSampler {
    enabled: bool,
    warm: u64,
    ticks: u64,
    ctx_at_warm: u64,
    threads: u64,
    ctx_switches_per_tick: f64,
}

impl HostSampler {
    fn new(enabled: bool, ticks: u64) -> Self {
        HostSampler {
            enabled,
            warm: warmup_ticks(ticks),
            ticks,
            ctx_at_warm: 0,
            threads: 0,
            ctx_switches_per_tick: 0.0,
        }
    }

    /// Call before writing tick `t`.
    fn before_tick(&mut self, t: u64) {
        if !self.enabled {
            return;
        }
        if t == self.warm {
            self.ctx_at_warm = host::ctx_switches();
        }
        if t == (self.warm + self.ticks) / 2 {
            self.threads = host::threads();
        }
        if t + 1 == self.ticks {
            self.ctx_switches_per_tick =
                (host::ctx_switches() - self.ctx_at_warm) as f64 / (t - self.warm).max(1) as f64;
        }
    }
}

/// Per post-warm-up tick timings of a lockstep phase.
#[derive(Default)]
struct Lockstep {
    fresh_ns: Vec<f64>,
    write_ns: Vec<f64>,
    wait_ns: Vec<f64>,
}

/// What a phase's ticks return: what the server sent back per connection,
/// and when the client had nothing left to write.
type Ticked = (Vec<Feedback>, Instant);

/// One tick in flight: write tick `t` to every connection, then wait for
/// every connection's return marker for `t`.
fn lockstep_ticks(
    log: &Log,
    socks: &mut [TcpStream],
    host: &mut HostSampler,
    out: &mut Lockstep,
) -> io::Result<Ticked> {
    let warm = warmup_ticks(log.ticks);
    let mut feedback: Vec<Feedback> = socks.iter().map(|_| Feedback::new()).collect();
    let mut chunk = [0u8; 4096];
    for t in 0..log.ticks {
        host.before_tick(t);
        let t0 = Instant::now();
        for (sock, conn) in socks.iter_mut().zip(&log.conns) {
            sock.write_all(conn.tick(t))?;
        }
        let written = Instant::now();
        feedback[0].wait_marker(&mut socks[0], &mut chunk, t)?;
        let served = Instant::now();
        for (fb, sock) in feedback.iter_mut().zip(socks.iter_mut()).skip(1) {
            fb.wait_marker(sock, &mut chunk, t)?;
        }
        if t >= warm {
            out.fresh_ns.push((served - t0).as_nanos() as f64);
            out.write_ns.push((written - t0).as_nanos() as f64);
            out.wait_ns.push((served - written).as_nanos() as f64);
        }
    }
    let done = Instant::now();
    // Every write side is shut before any connection is drained: the
    // server closes a connection only once all of them reached end of stream.
    for sock in socks.iter() {
        sock.shutdown(Shutdown::Write)?;
    }
    for (fb, sock) in feedback.iter_mut().zip(socks.iter_mut()) {
        fb.drain(sock)?;
    }
    Ok((feedback, done))
}

/// Ticks written back to back. A reader per connection keeps the return
/// direction drained, so a server that sends feedback can never stall on a
/// full socket; the readers end when the server closes.
fn stream_ticks(log: &Log, socks: &mut [TcpStream], host: &mut HostSampler) -> io::Result<Ticked> {
    let mut done = Instant::now();
    let feedback = std::thread::scope(|scope| -> io::Result<Vec<Feedback>> {
        let readers: Vec<_> = socks
            .iter()
            .map(|sock| {
                let mut sock = sock.try_clone()?;
                Ok(scope.spawn(move || {
                    let mut fb = Feedback::new();
                    fb.drain(&mut sock).map(|()| fb)
                }))
            })
            .collect::<io::Result<_>>()?;
        let written = (0..log.ticks).try_for_each(|t| -> io::Result<()> {
            host.before_tick(t);
            for (sock, conn) in socks.iter_mut().zip(&log.conns) {
                sock.write_all(conn.tick(t))?;
            }
            Ok(())
        });
        done = Instant::now();
        // The server closes once our write sides are shut — on the error
        // path too, or the readers and with them the scope would never end.
        let how = if written.is_ok() {
            Shutdown::Write
        } else {
            Shutdown::Both
        };
        let shut = socks.iter().try_for_each(|sock| sock.shutdown(how));
        written.and(shut)?;
        readers
            .into_iter()
            .map(|r| r.join().expect("feedback reader panicked"))
            .collect()
    })?;
    Ok((feedback, done))
}

/// Sets a fresh server up, replays all of `log` into it and tears it down.
pub fn run_phase(log: &Log, config: &PhaseConfig) -> io::Result<Phase> {
    if let Some((dir, _)) = &config.store {
        // A leftover store would turn set-up into a recovery.
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    let setup = Instant::now();
    let endpoints = server_endpoints(&log.first);
    let start = Instant::now();
    let server = NetServer::start(
        "127.0.0.1:0",
        endpoints,
        NetServerConfig {
            shards: SHARDS,
            batched: false,
            expected_conns: log.conns.len(),
            lockstep: config.lockstep,
            durable: config.store.as_ref().map(|(dir, every)| DurableConfig {
                dir: dir.clone(),
                snapshot_every: *every,
            }),
            ..NetServerConfig::default()
        },
    )?;
    let start_ms = start.elapsed().as_secs_f64() * 1e3;
    let admit = Instant::now();
    let (mut bytes_out, mut bytes_in) = (0u64, 0u64);
    let mut socks = Vec::with_capacity(log.conns.len());
    for conn in &log.conns {
        let (sock, out, inn) = connect(server.addr(), conn, config.store.is_some())?;
        bytes_out += out;
        bytes_in += inn;
        socks.push(sock);
    }
    let admit_ms = admit.elapsed().as_secs_f64() * 1e3;
    let setup_s = setup.elapsed().as_secs_f64();

    let mut sampler = HostSampler::new(config.sample_host, log.ticks);
    let mut lockstep = Lockstep::default();
    let phase = Instant::now();
    let (feedback, drain) = if config.lockstep {
        lockstep_ticks(log, &mut socks, &mut sampler, &mut lockstep)?
    } else {
        stream_ticks(log, &mut socks, &mut sampler)?
    };
    let report = server.join()?;
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    let phase_s = phase.elapsed().as_secs_f64();
    if let Some((dir, _)) = &config.store {
        std::fs::remove_dir_all(dir)?;
    }
    for (conn, fb) in log.conns.iter().zip(&feedback) {
        bytes_out += conn.prefix(log.ticks).len() as u64;
        bytes_in += fb.bytes;
    }
    Ok(Phase {
        setup_s,
        start_ms,
        admit_ms,
        drain_ms,
        phase_s,
        fresh_ns: lockstep.fresh_ns,
        write_ns: lockstep.write_ns,
        wait_ns: lockstep.wait_ns,
        bytes_out,
        bytes_in,
        feedback_frames: feedback.iter().map(|fb| fb.frames).sum(),
        report,
        threads: sampler.threads,
        ctx_switches_per_tick: sampler.ctx_switches_per_tick,
    })
}

/// A log of `ticks` marker-only ticks over `CONNS` one-stream connections:
/// what is left of a tick when no stream has anything to say and there is
/// next to no fleet to advance — socket writes, thread hand-offs and the
/// tick barrier.
pub fn empty_log(ticks: u64) -> Log {
    let mut marker = Vec::new();
    push_marker(&mut marker);
    let conns = (0..crate::fleet::CONNS as u32)
        .map(|id| ConnLog::repeat(vec![id], &marker, ticks))
        .collect::<Vec<_>>();
    Log {
        ticks,
        first: vec![0.0; conns.len()],
        last_obs: vec![0.0; conns.len()],
        conns,
    }
}

/// Directory for one phase's store, unique per process and call.
pub fn store_dir(n: u64) -> PathBuf {
    crate::out_dir().join(format!("store-{}-{n}", std::process::id()))
}
