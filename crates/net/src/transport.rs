//! [`TcpTransport`]: the [`Transport`] seam carried over a real TCP
//! socket pair.
//!
//! Both ends live in the calling process — the producer writes wire-v3
//! frames into one loopback socket, the consumer reads them back out of
//! the accepted peer — so the simulator's one fleet tick loop
//! ([`kalstream_sim::run_lockstep_over`]) drives real kernel sockets, real
//! framing, and real byte-stream reassembly ([`StreamDecoder`]) while
//! keeping the deterministic tick clock the protocol's precision contract
//! is stated in.
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

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use bytes::Bytes;
use kalstream_core::StreamDecoder;
use kalstream_sim::{Link, LinkFaults, Tick, Transport, TransportStats};

use crate::codec::{feed_ticks, push_frame, push_marker, TICK_MARKER_STREAM};

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
    fwd_decoder: StreamDecoder,
    fb_decoder: StreamDecoder,
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
            fwd_decoder: StreamDecoder::new(),
            fb_decoder: StreamDecoder::new(),
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

    /// Reads one marker-delimited tick segment from `read`, sinking every
    /// non-marker frame. EOF before the marker means the connection died
    /// mid-tick: whatever arrived is delivered, the rest is lost.
    fn read_tick(
        mut read: &TcpStream,
        decoder: &mut StreamDecoder,
        bytes_in: &mut u64,
        sink: &mut dyn FnMut(u32, Bytes),
    ) {
        let mut chunk = [0u8; 4096];
        let mut tick_buf: Vec<u8> = Vec::new();
        loop {
            let n = match read.read(&mut chunk) {
                Ok(0) | Err(_) => break, // dead connection: lose the tail
                Ok(n) => n,
            };
            *bytes_in += n as u64;
            let mut done = false;
            // Frames were already re-framed once by `decoder`; re-parsing
            // the accumulated tick bytes is what `StreamDecoder`'s
            // split-invariance proptest licences.
            let markers = feed_ticks(decoder, &chunk[..n], &mut tick_buf, |tick| {
                let mut one_shot = StreamDecoder::new();
                one_shot
                    .feed(&tick, |id, body| {
                        debug_assert_ne!(id, TICK_MARKER_STREAM);
                        sink(id, Bytes::copy_from_slice(body));
                    })
                    .expect("tick re-parse of already-validated frames");
                done = true;
            })
            .expect("peer sent an oversized frame");
            debug_assert!(markers <= 1, "one marker per tick read");
            if done {
                break;
            }
        }
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
            &mut self.fwd_decoder,
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
            &mut self.fb_decoder,
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
            self.fwd_decoder = StreamDecoder::new();
            self.fb_decoder = StreamDecoder::new();
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
