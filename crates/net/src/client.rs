//! Source-side connection driver: pushes a set of streams' wire traffic
//! through one TCP connection, with sim-identical client-side fault
//! injection.
//!
//! The connection is the server side of the simulator's one tick loop
//! ([`kalstream_sim::run_ingest_over`]) over per-stream [`SimTransport`]
//! link pairs seeded by *fleet* index: the fleet samples, observes and
//! passes each send through its faulty forward link, and this driver only
//! frames each delivered payload onto the socket and closes the tick with
//! a marker. In lockstep mode the server's feedback is read back each
//! tick and rides its stream's reverse link to the producer, as an
//! engine's does in [`kalstream_sim::run_fleet_ingest`]. So a fleet driven
//! over sockets is bit-comparable, stream for stream, against the same
//! fleet run through the simulator into a [`kalstream_core::FramingSink`]
//! reference.
//!
//! Everything here is blocking `std::net` on the caller's thread; the one
//! extra thread is throughput mode's `net-drain`, scoped to the call.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;

use bytes::Bytes;
use kalstream_core::wire::WireMessage;
use kalstream_core::StreamDecoder;
use kalstream_sim::{
    run_ingest_over, FaultCounters, IngestSink, IngestStream, LinkFaults, SimTransport,
    TrafficMetrics,
};

use crate::codec::{
    decode_status, encode_hello, push_frame, push_marker, HelloStatus, STATUS_BYTES,
    TICK_MARKER_STREAM,
};

/// How one connection drives its streams.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ticks to run.
    pub ticks: u64,
    /// Per-message accounted overhead on each stream's link.
    pub overhead_bytes: usize,
    /// Fault profile; stream `i` (global index) draws
    /// [`LinkFaults::forward`]`(i)` and [`LinkFaults::reverse`]`(i)`.
    pub faults: LinkFaults,
    /// Wait for the server's return marker each tick (deterministic
    /// feedback delivery — requires the server's lockstep mode): each
    /// feedback payload read that tick rides its stream's reverse link to
    /// the producer. When `false` a second thread drains feedback
    /// concurrently and only counts it: there is no tick to deliver it at.
    pub lockstep: bool,
    /// Read the server's 13-byte [`HelloStatus`] reply right after the
    /// hello. Must match the server: durable servers always send it,
    /// volatile servers never do (the bytes would be misparsed as a frame
    /// header by whichever side got it wrong — that's why it's explicit
    /// on both ends rather than sniffed).
    pub expect_status: bool,
}

/// Source-side outcome of one connection.
#[derive(Debug, Default, Clone)]
pub struct ClientReport {
    /// Traffic summed over this connection's streams (link accounting —
    /// what the sim reference charges, not raw socket bytes).
    pub traffic: TrafficMetrics,
    /// Fault injections summed over this connection's streams.
    pub faults: FaultCounters,
    /// Acks read off the feedback direction.
    pub acks: u64,
    /// Bound directives read off the feedback direction.
    pub bounds: u64,
    /// Raw bytes written to the socket (hello + frames + markers).
    pub socket_bytes_out: u64,
    /// The server's hello-status reply, when
    /// [`ClientConfig::expect_status`] was set: [`HelloStatus::Recovering`]
    /// carries the first tick the recovered server has *not* applied, so a
    /// resuming source knows where to rejoin without re-sending ticks the
    /// durable state already reflects.
    pub status: Option<HelloStatus>,
}

fn open(addr: &str, ids: &[u32], report: &mut ClientReport) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let hello = encode_hello(ids);
    stream.write_all(&hello)?;
    report.socket_bytes_out += hello.len() as u64;
    Ok(stream)
}

/// The fleet's server side as a socket: delivered payloads are framed onto
/// it, a marker closes each tick and, in lockstep, the tick's feedback is
/// read back up to the server's return marker. The first I/O error ends
/// all socket work; the fleet finishes its ticks, then it is returned.
struct Socket<'c> {
    conn: &'c TcpStream,
    wire: Vec<u8>,
    /// Lockstep only: reassembles the feedback direction.
    feedback: Option<StreamDecoder>,
    report: ClientReport,
    error: Option<io::Error>,
}

impl IngestSink for Socket<'_> {
    fn push(&mut self, stream_id: u32, payload: &Bytes) {
        push_frame(&mut self.wire, stream_id, payload);
    }

    fn end_tick(&mut self) {
        push_marker(&mut self.wire);
        if self.error.is_none() {
            self.report.socket_bytes_out += self.wire.len() as u64;
            self.error = self.conn.write_all(&self.wire).err();
        }
        self.wire.clear();
    }

    fn feedback(&mut self, out: &mut dyn FnMut(u32, Bytes)) {
        let Some(decoder) = self.feedback.as_mut().filter(|_| self.error.is_none()) else {
            return;
        };
        let read = read_feedback(self.conn, decoder, &mut self.report, true, |id, body| {
            out(id, Bytes::copy_from_slice(body));
        });
        self.error = read.err();
    }
}

/// Connects, says hello for the streams' ids, and drives every tick.
///
/// `global_base` is the fleet-wide index of `streams[0]`: stream `i` runs
/// on the sim link pair of fleet stream `global_base + i`, matching the
/// sim reference. The write side shuts down after the last tick. In
/// lockstep mode each tick blocks on the server's return marker, handing
/// that tick's feedback to the producers; otherwise a scoped `net-drain`
/// thread reads feedback until the server closes.
///
/// # Errors
/// Socket errors on connect, hello and write; `InvalidData` when the server
/// sends a malformed status reply or an oversized feedback frame — in
/// either mode, the drain thread's result is part of this one.
pub fn drive_connection(
    addr: &str,
    streams: &mut [IngestStream<'_>],
    global_base: u64,
    config: &ClientConfig,
) -> io::Result<ClientReport> {
    let ids: Vec<u32> = streams.iter().map(|s| s.stream_id).collect();
    let mut report = ClientReport::default();
    let conn = open(addr, &ids, &mut report)?;
    if config.expect_status {
        let mut buf = [0u8; STATUS_BYTES];
        (&conn).read_exact(&mut buf)?;
        let status =
            decode_status(&buf).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        report.status = Some(status);
    }
    let mut links: Vec<SimTransport> = (global_base..global_base + streams.len() as u64)
        .map(|i| SimTransport::with_faults(0, config.overhead_bytes, config.faults.forward(i)))
        .collect();
    let mut socket = Socket {
        conn: &conn,
        wire: Vec::new(),
        feedback: config.lockstep.then(StreamDecoder::new),
        report,
        error: None,
    };

    let fleet = if config.lockstep {
        let fleet = run_ingest_over(streams, &mut links, config.ticks, &mut socket);
        socket.error.take().map_or(Ok(()), Err)?;
        conn.shutdown(Shutdown::Write)?;
        // Late feedback until the server closes its side.
        let decoder = socket.feedback.as_mut().expect("lockstep reads feedback");
        read_feedback(&conn, decoder, &mut socket.report, false, |_, _| {})?;
        fleet
    } else {
        thread::scope(|scope| {
            let drain = thread::Builder::new()
                .name("net-drain".into())
                .spawn_scoped(scope, || discard_feedback(&conn))?;
            let fleet = run_ingest_over(streams, &mut links, config.ticks, &mut socket);
            let error = socket.error.take();
            let sent = error.map_or_else(|| conn.shutdown(Shutdown::Write), Err);
            if sent.is_err() {
                // The server may never close its side now; closing ours
                // entirely is what lets the drain thread (and so the
                // scope) finish.
                let _ = conn.shutdown(Shutdown::Both);
            }
            let drained = drain
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("feedback drain thread panicked")));
            (socket.report.acks, socket.report.bounds) = sent.and(drained)?;
            io::Result::Ok(fleet)
        })?
    };
    socket.report.traffic = fleet.total_traffic;
    socket.report.faults = fleet.faults;
    Ok(socket.report)
}

/// Reads and counts feedback, handing each payload to `payload`, until the
/// connection ends or — with `until_marker` — the server's return marker
/// for this tick arrives. A server that is gone (EOF, read error) ends the
/// tick like a marker does.
fn read_feedback(
    mut read: &TcpStream,
    decoder: &mut StreamDecoder,
    report: &mut ClientReport,
    until_marker: bool,
    mut payload: impl FnMut(u32, &[u8]),
) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    loop {
        let n = match read.read(&mut chunk) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(n) => n,
        };
        if count_feedback(decoder, &chunk[..n], report, &mut payload)? && until_marker {
            return Ok(());
        }
    }
}

/// Feeds a feedback chunk, counting acks/bounds and handing every payload
/// to `payload`; `true` once a tick marker was seen. The bytes come from
/// the peer: a length prefix over the frame cap is `InvalidData`, never a
/// panic.
fn count_feedback(
    decoder: &mut StreamDecoder,
    chunk: &[u8],
    report: &mut ClientReport,
    payload: &mut impl FnMut(u32, &[u8]),
) -> io::Result<bool> {
    let mut marker = false;
    decoder
        .feed(chunk, |stream_id, body| {
            if stream_id == TICK_MARKER_STREAM {
                marker = true;
                return;
            }
            match WireMessage::decode(body) {
                Ok(WireMessage::Ack { .. }) => report.acks += 1,
                Ok(WireMessage::Bound { .. }) => report.bounds += 1,
                _ => {}
            }
            payload(stream_id, body);
        })
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
    Ok(marker)
}

/// Reads and discards feedback until EOF, counting payloads — the
/// throughput-mode companion that keeps the server's per-connection queue
/// drained (zero sheds) while the write side blasts ticks. Returns
/// `(acks, bounds)` read before the server closed.
fn discard_feedback(read: &TcpStream) -> io::Result<(u64, u64)> {
    let (mut counts, mut decoder) = (ClientReport::default(), StreamDecoder::new());
    read_feedback(read, &mut decoder, &mut counts, false, |_, _| {})?;
    Ok((counts.acks, counts.bounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use kalstream_core::MAX_FRAME_BYTES;
    use std::net::TcpListener;

    /// A server that answers the hello with a frame header whose length
    /// prefix is over the cap, then holds the socket until the client closes.
    /// Either mode must surface that as `InvalidData` from
    /// `drive_connection` — not a panicked thread (lockstep), and not a
    /// report claiming the server sent zero acks (throughput).
    #[test]
    fn oversized_feedback_frame_is_invalid_data_not_a_panic_or_a_zero() {
        const IDS: [u32; 2] = [0, 1];
        for lockstep in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let fake = thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                let mut hello = [0u8; 8 + 4 * IDS.len()];
                conn.read_exact(&mut hello).unwrap();
                let mut header = Vec::new();
                header.extend_from_slice(&0u32.to_le_bytes());
                header.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
                conn.write_all(&header).unwrap();
                let _ = io::copy(&mut conn, &mut io::sink());
            });
            let config = ClientConfig {
                ticks: 3,
                overhead_bytes: 8,
                faults: LinkFaults::default(),
                lockstep,
                expect_status: false,
            };
            let mut streams = workload::source_streams(&IDS);
            let err = drive_connection(&addr, &mut streams, 0, &config)
                .expect_err("oversized feedback frame accepted");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "lockstep={lockstep}"
            );
            fake.join().unwrap();
        }
    }
}
