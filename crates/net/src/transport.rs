//! [`TcpTransport`]: the [`Transport`] seam carried over a real TCP
//! socket pair.
//!
//! Both ends live in the calling process — the producer writes wire-v3
//! frames into one loopback socket, the consumer reads them back out of
//! the accepted peer — so the simulator's one fleet tick loop
//! ([`kalstream_sim::run_lockstep_over`]) drives real kernel sockets, real
//! framing, and real byte-stream reassembly (a [`TickCutter`] per
//! direction, the server's own) while keeping the deterministic tick clock
//! the protocol's precision contract is stated in.
//!
//! Determinism under faults: TCP never loses or reorders bytes, so fault
//! injection happens *before* the socket, in the exact [`Link`] machinery
//! the simulator uses (same seeds, same RNG draw order). What goes over
//! the wire is what a lossy network would have delivered; the socket adds
//! real framing, buffering, and reassembly on top. That is what makes
//! `SimTransport` vs `TcpTransport` bit-identity testable: for the same
//! fault profile both deliver the same payloads at the same ticks, and the
//! proptests in `tests/bit_identity.rs` hold them to it.
//!
//! Connection failure is modeled explicitly: [`TcpTransport::kill_at`]
//! schedules ticks at which the transport tears down its socket pair
//! mid-stream — every frame due that tick dies with the connection — and
//! transparently reconnects. The seq/ack layer above must then detect the
//! gap and resync, which `tests/loss_recovery.rs` (root package) asserts.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use bytes::Bytes;
use kalstream_core::walk_stream_frames;
use kalstream_sim::{Link, LinkFaults, Tick, Transport, TransportStats};

use crate::codec::{push_frame, push_marker, TickCutter};

/// The two ends of one established producer↔consumer connection.
struct Pair {
    /// Producer side: forward frames out, feedback frames in.
    client: TcpStream,
    /// Consumer side: forward frames in, feedback frames out.
    server: TcpStream,
}

/// A [`Transport`] over a real loopback TCP connection, with sim-identical
/// fault scheduling in front of the socket. See the module docs.
pub struct TcpTransport {
    listener: TcpListener,
    pair: Pair,
    forward: Link,
    feedback: Link,
    /// Each direction's input, cut at tick markers; lives as long as the
    /// connection, so bytes read past a marker wait for the next tick.
    fwd_cutter: TickCutter,
    fb_cutter: TickCutter,
    /// Ticks at which the connection dies mid-tick (ascending; consumed
    /// front to back).
    kill_at: Vec<Tick>,
    reconnects: u64,
    shutdown_errors: u64,
    socket_bytes_out: u64,
    socket_bytes_in: u64,
    write_buf: Vec<u8>,
}

impl TcpTransport {
    /// Establishes a reliable loopback transport with `latency` ticks of
    /// delay and `overhead_bytes` of accounted per-message framing.
    pub fn connect(latency: Tick, overhead_bytes: usize) -> std::io::Result<Self> {
        TcpTransport::with_faults(latency, overhead_bytes, LinkFaults::default())
    }

    /// Like [`TcpTransport::connect`], with the given fault profile on the
    /// forward path; the feedback path seeds from
    /// [`LinkFaults::reverse`]`(0)`, exactly like
    /// [`kalstream_sim::SimTransport::with_faults`].
    pub fn with_faults(
        latency: Tick,
        overhead_bytes: usize,
        faults: LinkFaults,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let pair = establish(&listener)?;
        Ok(TcpTransport {
            listener,
            pair,
            forward: Link::with_faults(latency, overhead_bytes, faults.forward(0)),
            feedback: Link::with_faults(latency, overhead_bytes, faults.reverse(0)),
            fwd_cutter: TickCutter::new(),
            fb_cutter: TickCutter::new(),
            kill_at: Vec::new(),
            reconnects: 0,
            shutdown_errors: 0,
            socket_bytes_out: 0,
            socket_bytes_in: 0,
            write_buf: Vec::new(),
        })
    }

    /// Schedules connection kills: at each listed tick the socket pair is
    /// torn down (losing every frame due that tick) and re-established.
    pub fn kill_at(mut self, mut ticks: Vec<Tick>) -> Self {
        ticks.sort_unstable();
        self.kill_at = ticks;
        self
    }

    /// Connections re-established after scheduled kills.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Shuts down both write directions, surfacing the first error — the
    /// fallible form of [`Transport::shutdown`]. Both halves are attempted
    /// even when the first fails (the second's result is reported only if
    /// the first succeeded), so one dead direction never strands the other.
    pub fn close(&mut self) -> std::io::Result<()> {
        let client = self.pair.client.shutdown(Shutdown::Write);
        let server = self.pair.server.shutdown(Shutdown::Write);
        client.and(server)
    }

    /// Shutdown errors swallowed by the infallible [`Transport::shutdown`]
    /// path (callers who can propagate should use [`TcpTransport::close`]).
    pub fn shutdown_errors(&self) -> u64 {
        self.shutdown_errors
    }

    /// Raw bytes written to sockets (frames + markers, both directions).
    pub fn socket_bytes_out(&self) -> u64 {
        self.socket_bytes_out
    }

    /// Raw bytes read from sockets.
    pub fn socket_bytes_in(&self) -> u64 {
        self.socket_bytes_in
    }

    /// Reads until `cutter` holds one marker-delimited tick segment, then
    /// sinks its frames in order. Bytes read past the marker stay in
    /// `cutter` for the next tick. End of stream or a read error before
    /// the marker means the connection died mid-tick: the partial tick is
    /// lost, as on the server.
    fn read_tick(
        read: &TcpStream,
        cutter: &mut TickCutter,
        bytes_in: &mut u64,
        sink: &mut dyn FnMut(u32, Bytes),
    ) {
        match cutter.fill(Counted { read, bytes_in }) {
            Ok(true) => {}
            Err(err) if err.kind() == io::ErrorKind::InvalidData => {
                panic!("peer sent an oversized frame: {err}")
            }
            Ok(false) | Err(_) => return,
        }
        let segment = cutter.pop_segment().expect("fill left a segment");
        walk_stream_frames(segment, |id, _, body| {
            sink(id, Bytes::copy_from_slice(body))
        })
        .expect("the cutter already walked these frames");
    }

    /// Writes every frame due at `now` on `link` plus the tick marker.
    fn write_due(&mut self, now: Tick, forward: bool) {
        self.write_buf.clear();
        let link = if forward {
            &mut self.forward
        } else {
            &mut self.feedback
        };
        for msg in link.deliver(now) {
            push_frame(&mut self.write_buf, msg.stream_id, &msg.payload);
        }
        push_marker(&mut self.write_buf);
        self.socket_bytes_out += self.write_buf.len() as u64;
        let mut write = if forward {
            &self.pair.client
        } else {
            &self.pair.server
        };
        write
            .write_all(&self.write_buf)
            .expect("loopback write failed");
    }
}

/// A socket read side that counts the bytes it reads into `bytes_in`.
struct Counted<'a> {
    read: &'a TcpStream,
    bytes_in: &'a mut u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.read.read(buf)?;
        *self.bytes_in += n as u64;
        Ok(n)
    }
}

/// Dials the listener and accepts the peer — one established pair.
fn establish(listener: &TcpListener) -> std::io::Result<Pair> {
    let addr = listener.local_addr()?;
    // Loopback connect completes from the listener's backlog, so a single
    // thread can dial then accept without deadlock.
    let client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;
    let (server, _) = listener.accept()?;
    server.set_nodelay(true)?;
    Ok(Pair { client, server })
}

impl Transport for TcpTransport {
    fn send(&mut self, now: Tick, stream_id: u32, payload: Bytes) {
        self.forward.send_tagged(now, stream_id, payload);
    }

    fn recv(&mut self, now: Tick, mut sink: impl FnMut(u32, Bytes)) {
        let _ = now;
        TcpTransport::read_tick(
            &self.pair.server,
            &mut self.fwd_cutter,
            &mut self.socket_bytes_in,
            &mut sink,
        );
    }

    fn send_feedback(&mut self, now: Tick, stream_id: u32, payload: Bytes) {
        self.feedback.send_tagged(now, stream_id, payload);
    }

    fn recv_feedback(&mut self, now: Tick, mut sink: impl FnMut(u32, Bytes)) {
        // The feedback direction flushes lazily: due frames are written
        // here (consumer side), then immediately read back (producer side)
        // — within one tick, matching the sim's same-tick ack delivery.
        self.write_due(now, false);
        TcpTransport::read_tick(
            &self.pair.client,
            &mut self.fb_cutter,
            &mut self.socket_bytes_in,
            &mut sink,
        );
    }

    fn end_tick(&mut self, now: Tick) {
        if self.kill_at.first() == Some(&now) {
            self.kill_at.remove(0);
            // Everything due this tick was "on the wire" when the
            // connection died: drain and discard, then reconnect. Frames
            // scheduled for later ticks are still in the sender's queue
            // and survive, like any buffered-but-unsent data would.
            self.forward.deliver(now).for_each(drop);
            let fresh = establish(&self.listener).expect("reconnect failed");
            // The old pair drops here: both sockets close, and unread
            // bytes are gone for good.
            self.pair = fresh;
            self.fwd_cutter = TickCutter::new();
            self.fb_cutter = TickCutter::new();
            self.reconnects += 1;
        }
        self.write_due(now, true);
    }

    fn shutdown(&mut self) {
        // The trait signature is infallible (the sim transport cannot
        // fail); an error here is still an event, not noise — count it.
        if self.close().is_err() {
            self.shutdown_errors += 1;
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            forward: self.forward.traffic().clone(),
            feedback: self.feedback.traffic().clone(),
            faults: self.forward.fault_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_sim::SimTransport;

    fn payload(b: &[u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }

    /// A `(tick, stream_id, payload)` delivery log, one per direction.
    type DeliveryLog = Vec<(Tick, u32, Bytes)>;

    /// Drives both transports through the same schedule and collects
    /// per-tick deliveries.
    fn drive(t: &mut impl Transport, ticks: Tick) -> (DeliveryLog, DeliveryLog) {
        let mut fwd = Vec::new();
        let mut fb = Vec::new();
        for now in 0..ticks {
            if now % 3 != 2 {
                t.send(now, now as u32, payload(format!("m{now}").as_bytes()));
            }
            t.end_tick(now);
            t.recv(now, |id, p| fwd.push((now, id, p)));
            if now % 4 == 1 {
                t.send_feedback(now, now as u32, payload(b"ack"));
            }
            t.recv_feedback(now, |id, p| fb.push((now, id, p)));
        }
        t.shutdown();
        (fwd, fb)
    }

    #[test]
    fn reliable_tcp_matches_sim_exactly() {
        for latency in [0u64, 1, 3] {
            let mut sim = SimTransport::new(latency, 4);
            let mut tcp = TcpTransport::connect(latency, 4).unwrap();
            let (sim_fwd, sim_fb) = drive(&mut sim, 40);
            let (tcp_fwd, tcp_fb) = drive(&mut tcp, 40);
            assert_eq!(sim_fwd, tcp_fwd, "forward deliveries at latency {latency}");
            assert_eq!(sim_fb, tcp_fb, "feedback deliveries at latency {latency}");
            assert_eq!(sim.stats(), tcp.stats());
        }
    }

    #[test]
    fn faulty_tcp_matches_sim_exactly() {
        let faults = LinkFaults {
            loss: 0.25,
            dup: 0.1,
            reorder: 0.2,
            seed: 99,
            ..LinkFaults::default()
        };
        let mut sim = SimTransport::with_faults(1, 0, faults);
        let mut tcp = TcpTransport::with_faults(1, 0, faults).unwrap();
        let (sim_fwd, sim_fb) = drive(&mut sim, 120);
        let (tcp_fwd, tcp_fb) = drive(&mut tcp, 120);
        assert_eq!(sim_fwd, tcp_fwd);
        assert_eq!(sim_fb, tcp_fb);
        assert_eq!(sim.stats(), tcp.stats());
    }

    #[test]
    fn killed_connection_loses_the_due_tick_and_recovers() {
        let mut tcp = TcpTransport::connect(0, 0).unwrap().kill_at(vec![5]);
        let mut got = Vec::new();
        for now in 0..10u64 {
            tcp.send(now, now as u32, payload(b"x"));
            tcp.end_tick(now);
            tcp.recv(now, |id, _| got.push(id));
            tcp.recv_feedback(now, |_, _| {});
        }
        assert_eq!(tcp.reconnects(), 1);
        // Tick 5's frame died with the connection; everything else landed.
        assert_eq!(got, vec![0, 1, 2, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn two_ticks_in_one_write_come_out_of_two_reads_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let Pair { mut client, server } = establish(&listener).unwrap();
        // A tick the reader lost would otherwise block the second read for
        // good: time it out, so the test fails instead.
        let timeout = std::time::Duration::from_secs(2);
        server.set_read_timeout(Some(timeout)).unwrap();
        let mut wire = Vec::new();
        push_frame(&mut wire, 1, b"a");
        push_marker(&mut wire);
        push_frame(&mut wire, 2, b"bb");
        push_frame(&mut wire, 3, b"c");
        push_marker(&mut wire);
        client.write_all(&wire).unwrap();
        let (mut cutter, mut bytes_in) = (TickCutter::new(), 0);
        let ticks: Vec<Vec<(u32, Bytes)>> = (0..2)
            .map(|_| {
                let mut tick = Vec::new();
                let mut sink = |id, body| tick.push((id, body));
                TcpTransport::read_tick(&server, &mut cutter, &mut bytes_in, &mut sink);
                tick
            })
            .collect();
        let want = vec![
            vec![(1, payload(b"a"))],
            vec![(2, payload(b"bb")), (3, payload(b"c"))],
        ];
        assert_eq!(ticks, want);
        assert_eq!(bytes_in, wire.len() as u64);
    }

    #[test]
    fn close_surfaces_shutdown_results() {
        let mut tcp = TcpTransport::connect(0, 0).unwrap();
        tcp.close().expect("closing a live pair succeeds");
        assert_eq!(tcp.shutdown_errors(), 0);
        // The infallible trait path swallows-but-counts; on an
        // already-closed pair it must at least not panic.
        Transport::shutdown(&mut tcp);
        let _ = tcp.shutdown_errors();
    }
}
