//! Source-side connection driver: pushes a set of streams' wire traffic
//! through one TCP connection, with sim-identical client-side fault
//! injection.
//!
//! The driver reproduces [`kalstream_sim::run_fleet_ingest_faulty`]'s
//! source semantics exactly — per-stream zero-latency [`Link`]s seeded
//! `faults.seed ^ global_index`, sample → observe → send → deliver each
//! tick — so a fleet driven over sockets is bit-comparable, stream for
//! stream, against the same fleet run through the simulator into a
//! [`kalstream_core::SequentialIngest`] reference.
//!
//! Everything here is blocking `std::net` on the caller's thread; the one
//! extra thread is throughput mode's `net-drain`, scoped to the call.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;

use kalstream_core::wire::WireMessage;
use kalstream_core::StreamDecoder;
use kalstream_sim::{FaultCounters, IngestStream, Link, LinkFaults, TrafficMetrics};

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
    /// Fault profile; stream `i` (global index) seeds `faults.seed ^ i`.
    pub faults: LinkFaults,
    /// Wait for the server's return marker each tick (deterministic
    /// feedback delivery — requires the server's lockstep mode). When
    /// `false` a second thread drains feedback concurrently instead.
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

/// The per-connection source state: streams plus their fault links.
struct Driver<'s, 'a> {
    streams: &'s mut [IngestStream<'a>],
    links: Vec<Link>,
    observed: Vec<Vec<f64>>,
    truth: Vec<Vec<f64>>,
    wire: Vec<u8>,
}

impl<'s, 'a> Driver<'s, 'a> {
    fn new(streams: &'s mut [IngestStream<'a>], global_base: u64, config: &ClientConfig) -> Self {
        let links = (0..streams.len())
            .map(|i| {
                Link::with_faults(
                    0,
                    config.overhead_bytes,
                    LinkFaults {
                        seed: config.faults.seed ^ (global_base + i as u64),
                        ..config.faults
                    },
                )
            })
            .collect();
        let observed: Vec<Vec<f64>> = streams
            .iter()
            .map(|s| vec![0.0; s.producer.dim()])
            .collect();
        let truth = observed.clone();
        Driver {
            streams,
            links,
            observed,
            truth,
            wire: Vec::new(),
        }
    }

    /// One tick: sample every stream, pass what ships through its fault
    /// link, frame what the link delivers, close with a marker.
    fn write_tick(
        &mut self,
        now: u64,
        mut write: &TcpStream,
        report: &mut ClientReport,
    ) -> io::Result<()> {
        self.wire.clear();
        for (i, stream) in self.streams.iter_mut().enumerate() {
            (stream.sampler)(&mut self.observed[i], &mut self.truth[i]);
            if let Some(payload) = stream.producer.observe(now, &self.observed[i]) {
                self.links[i].send_tagged(now, stream.stream_id, payload);
            }
            for msg in self.links[i].deliver(now) {
                push_frame(&mut self.wire, msg.stream_id, &msg.payload);
            }
        }
        push_marker(&mut self.wire);
        report.socket_bytes_out += self.wire.len() as u64;
        write.write_all(&self.wire)
    }

    fn finish(self, report: &mut ClientReport) {
        for link in &self.links {
            report.traffic.merge(link.traffic());
            report.faults.merge(&link.fault_counters());
        }
    }
}

fn open(addr: &str, ids: &[u32], report: &mut ClientReport) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let hello = encode_hello(ids);
    stream.write_all(&hello)?;
    report.socket_bytes_out += hello.len() as u64;
    Ok(stream)
}

/// Connects, says hello for the streams' ids, and drives every tick.
///
/// `global_base` is the fleet-wide index of `streams[0]` (fault seeds are
/// per *fleet* stream index, matching the sim reference). The write side
/// shuts down after the last tick. In lockstep mode each tick blocks on
/// the server's return marker (reading that tick's feedback); otherwise a
/// scoped `net-drain` thread reads feedback until the server closes.
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
    let stream = open(addr, &ids, &mut report)?;
    let mut read = &stream;
    if config.expect_status {
        let mut buf = [0u8; STATUS_BYTES];
        read.read_exact(&mut buf)?;
        let status =
            decode_status(&buf).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        report.status = Some(status);
    }
    let mut driver = Driver::new(streams, global_base, config);

    if config.lockstep {
        let mut decoder = StreamDecoder::new();
        for now in 0..config.ticks {
            driver.write_tick(now, &stream, &mut report)?;
            read_feedback(read, &mut decoder, &mut report, true)?;
        }
        stream.shutdown(Shutdown::Write)?;
        // Late feedback until the server closes its side.
        read_feedback(read, &mut decoder, &mut report, false)?;
    } else {
        let (acks, bounds) = thread::scope(|scope| {
            let drain = thread::Builder::new()
                .name("net-drain".into())
                .spawn_scoped(scope, || discard_feedback(&stream))?;
            let sent = (0..config.ticks)
                .try_for_each(|now| driver.write_tick(now, &stream, &mut report))
                .and_then(|()| stream.shutdown(Shutdown::Write));
            if sent.is_err() {
                // The server may never close its side now; closing ours
                // entirely is what lets the drain thread (and so the
                // scope) finish.
                let _ = stream.shutdown(Shutdown::Both);
            }
            let drained = drain
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("feedback drain thread panicked")));
            sent.and(drained)
        })?;
        report.acks = acks;
        report.bounds = bounds;
    }
    driver.finish(&mut report);
    Ok(report)
}

/// Reads and counts feedback until the connection ends or — with
/// `until_marker` — the server's return marker for this tick arrives. A
/// server that is gone (EOF, read error) ends the tick like a marker does.
fn read_feedback(
    mut read: &TcpStream,
    decoder: &mut StreamDecoder,
    report: &mut ClientReport,
    until_marker: bool,
) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    loop {
        let n = match read.read(&mut chunk) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(n) => n,
        };
        if count_feedback(decoder, &chunk[..n], report)? && until_marker {
            return Ok(());
        }
    }
}

/// Feeds a feedback chunk, counting acks/bounds; `true` once a tick
/// marker was seen. The bytes come from the peer: a length prefix over the
/// frame cap is `InvalidData`, never a panic.
fn count_feedback(
    decoder: &mut StreamDecoder,
    chunk: &[u8],
    report: &mut ClientReport,
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
        })
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
    Ok(marker)
}

/// Reads and discards feedback until EOF, counting payloads — the
/// throughput-mode companion that keeps the server's per-connection queue
/// drained (zero sheds) while the write side blasts ticks. Returns
/// `(acks, bounds)` read before the server closed.
fn discard_feedback(read: &TcpStream) -> io::Result<(u64, u64)> {
    let mut report = ClientReport::default();
    read_feedback(read, &mut StreamDecoder::new(), &mut report, false)?;
    Ok((report.acks, report.bounds))
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
