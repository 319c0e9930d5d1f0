//! Socket-level protocol: hello handshake and tick markers on top of the
//! wire-v3 frame stream.
//!
//! A connection's byte stream is:
//!
//! ```text
//! "KSN1" | u32 stream_count | stream_count × u32 stream_id   (hello)
//! ( frame* tick_marker )*                                    (data)
//! ```
//!
//! where every `frame` is exactly [`kalstream_core`]'s batch framing —
//! `stream_id:u32 | len:u32 | body` little-endian, the same bytes
//! `FrameBatch` assembles and `StreamDecoder` re-frames — and
//! `tick_marker` is a zero-length frame on the reserved stream id
//! [`TICK_MARKER_STREAM`]. The marker is what carries the protocol's tick
//! semantics over a stream socket: everything between two markers belongs
//! to one tick, so the server can preserve the simulator's
//! "deliver-then-advance" order exactly and stay bit-identical to it.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::ops::Range;

use bytes::BufMut;
use kalstream_core::{walk_stream_frames, OversizedFrame, StreamDecoder, FRAME_HEADER_BYTES};

/// First bytes of every connection, little protection against port scans
/// and crossed wires ("KalStream Net v1").
pub const HELLO_MAGIC: [u8; 4] = *b"KSN1";

/// Reserved stream id whose zero-length frames delimit ticks. Real streams
/// must never use it; [`kalstream_core`]'s ingest router would shard it
/// like any other id, so the net layer strips markers before batches reach
/// the pipeline.
pub const TICK_MARKER_STREAM: u32 = u32::MAX;

/// Hard ceiling on the stream ids one hello may claim (64 Ki) — a
/// handshake from a confused or hostile peer must not pin server memory.
/// Servers pass their own (usually much smaller) cap, the number of
/// streams they serve, to [`decode_hello_prefix`]; this constant only
/// bounds it from above.
pub const MAX_HELLO_STREAMS: usize = 1 << 16;

/// Encodes the hello header for a connection owning `stream_ids`.
pub fn encode_hello(stream_ids: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 4 * stream_ids.len());
    buf.put_slice(&HELLO_MAGIC);
    buf.put_u32_le(stream_ids.len() as u32);
    for &id in stream_ids {
        buf.put_u32_le(id);
    }
    buf
}

/// Hello decode failures (each closes the connection).
#[derive(Debug, PartialEq, Eq)]
pub enum HelloError {
    /// First four bytes were not [`HELLO_MAGIC`].
    BadMagic,
    /// The claimed stream count exceeds the server's cap.
    TooManyStreams {
        /// Streams the peer's hello claimed.
        claimed: usize,
        /// The cap it was checked against (the streams the server serves,
        /// clamped to [`MAX_HELLO_STREAMS`]).
        cap: usize,
    },
    /// A claimed id collides with [`TICK_MARKER_STREAM`].
    ReservedStream,
}

impl std::fmt::Display for HelloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HelloError::BadMagic => write!(f, "hello does not start with KSN1"),
            HelloError::TooManyStreams { claimed, cap } => {
                write!(f, "hello claims {claimed} streams (cap {cap})")
            }
            HelloError::ReservedStream => write!(f, "hello claims the tick-marker stream id"),
        }
    }
}

impl std::error::Error for HelloError {}

/// Validates the fixed 8-byte hello prefix and returns the stream count.
///
/// The count is the *peer's* claim and sizes the server's id-list read
/// buffer, so it is checked against `max_streams` — the streams the server
/// serves, the most any hello can rightly claim — before a byte gets
/// allocated: never trusted outright, and never checked only against the
/// global [`MAX_HELLO_STREAMS`] ceiling (64 Ki ids from each of a few
/// thousand connections is an allocation attack on a small fleet).
pub fn decode_hello_prefix(prefix: &[u8; 8], max_streams: usize) -> Result<usize, HelloError> {
    if prefix[..4] != HELLO_MAGIC {
        return Err(HelloError::BadMagic);
    }
    let cap = max_streams.min(MAX_HELLO_STREAMS);
    let count = u32::from_le_bytes([prefix[4], prefix[5], prefix[6], prefix[7]]) as usize;
    if count > cap {
        return Err(HelloError::TooManyStreams {
            claimed: count,
            cap,
        });
    }
    Ok(count)
}

/// Decodes the id list that follows the prefix (`4 * count` bytes).
pub fn decode_hello_ids(body: &[u8]) -> Result<Vec<u32>, HelloError> {
    let ids: Vec<u32> = body
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    if ids.contains(&TICK_MARKER_STREAM) {
        return Err(HelloError::ReservedStream);
    }
    Ok(ids)
}

/// First bytes of the server's reply on a durable connection
/// ("KalStream Ack v1"): a fixed-size status telling the client whether
/// the server is fresh or resumed from a recovered barrier.
pub const STATUS_MAGIC: [u8; 4] = *b"KSA1";

/// Wire size of the hello-status reply: magic, kind byte, next-tick u64.
pub const STATUS_BYTES: usize = 13;

/// What a durable server tells each client right after accepting its
/// hello, *before* any feedback frames. Sent only when durability is
/// configured — clients of volatile servers would misparse the 13 bytes
/// as a frame header, so reading it is opt-in on both ends
/// (`NetServerConfig::durable` ⇄ `ClientConfig::expect_status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloStatus {
    /// Fresh state: no snapshot existed, the fleet starts from tick 0.
    Ready,
    /// State recovered from snapshot + WAL replay; the server's filters
    /// already reflect every tick before `next_tick`, so a resuming
    /// client must not re-send them.
    Recovering {
        /// First tick the server has not yet applied.
        next_tick: u64,
    },
}

/// Encodes the hello-status reply.
pub fn encode_status(status: HelloStatus) -> [u8; STATUS_BYTES] {
    let mut buf = [0u8; STATUS_BYTES];
    buf[..4].copy_from_slice(&STATUS_MAGIC);
    let (kind, next_tick) = match status {
        HelloStatus::Ready => (0u8, 0u64),
        HelloStatus::Recovering { next_tick } => (1, next_tick),
    };
    buf[4] = kind;
    buf[5..].copy_from_slice(&next_tick.to_le_bytes());
    buf
}

/// Hello-status decode failures (each closes the connection).
#[derive(Debug, PartialEq, Eq)]
pub enum StatusError {
    /// First four bytes were not [`STATUS_MAGIC`].
    BadMagic,
    /// Unknown status kind byte.
    BadKind(u8),
}

impl std::fmt::Display for StatusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatusError::BadMagic => write!(f, "status does not start with KSA1"),
            StatusError::BadKind(k) => write!(f, "unknown status kind {k}"),
        }
    }
}

impl std::error::Error for StatusError {}

/// Decodes the hello-status reply.
pub fn decode_status(buf: &[u8; STATUS_BYTES]) -> Result<HelloStatus, StatusError> {
    if buf[..4] != STATUS_MAGIC {
        return Err(StatusError::BadMagic);
    }
    let next_tick = u64::from_le_bytes(buf[5..].try_into().expect("8 status bytes"));
    match buf[4] {
        0 => Ok(HelloStatus::Ready),
        1 => Ok(HelloStatus::Recovering { next_tick }),
        k => Err(StatusError::BadKind(k)),
    }
}

/// Appends one `stream_id | len | body` frame to `buf`.
pub fn push_frame(buf: &mut Vec<u8>, stream_id: u32, body: &[u8]) {
    buf.put_u32_le(stream_id);
    buf.put_u32_le(body.len() as u32);
    buf.put_slice(body);
}

/// Appends the tick-marker frame to `buf`.
pub fn push_marker(buf: &mut Vec<u8>) {
    buf.put_u32_le(TICK_MARKER_STREAM);
    buf.put_u32_le(0);
}

/// Wire size of the marker frame.
pub const MARKER_BYTES: usize = FRAME_HEADER_BYTES;

/// Re-frames one socket read: feeds `chunk` into `decoder` and splits the
/// result at tick boundaries. Frames accumulate into `tick_buf` as raw
/// wire bytes (header + body, ready for `ingest_tick`); each completed
/// tick is taken out of `tick_buf` and handed to `on_tick`, and `tick_buf`
/// starts the next tick pre-sized to the one just handed out, so a steady
/// stream of similar ticks fills each with one allocation instead of
/// regrowing it from empty.
///
/// Returns the number of markers seen, or the decoder's poison error
/// (oversized frame — the caller closes the connection).
///
/// Each tick handed out is a fresh `Vec`, one allocation and one more
/// copy of its bytes. Neither the server nor [`crate::TcpTransport`] reads
/// ticks this way: both cut segments in place in a `TickCutter`, the same
/// bytes without the `Vec`.
pub fn feed_ticks(
    decoder: &mut StreamDecoder,
    chunk: &[u8],
    tick_buf: &mut Vec<u8>,
    mut on_tick: impl FnMut(Vec<u8>),
) -> Result<u64, OversizedFrame> {
    let mut markers = 0u64;
    decoder.feed(chunk, |stream_id, body| {
        if stream_id == TICK_MARKER_STREAM {
            markers += 1;
            let next = Vec::with_capacity(tick_buf.len());
            on_tick(std::mem::replace(tick_buf, next));
        } else {
            push_frame(tick_buf, stream_id, body);
        }
    })?;
    Ok(markers)
}

/// The most bytes one [`TickCutter::read_from`] takes off a socket.
pub(crate) const READ_BYTES: usize = 16 * 1024;

/// One connection's input buffer, cut at tick markers in place: the
/// server's side of the data stream, and each direction of a
/// [`crate::TcpTransport`]. Reads land straight in the buffer, one
/// walk over the frame headers ([`walk_stream_frames`], [`StreamDecoder`]'s
/// walk) finds the markers, and each complete segment — a tick's frames,
/// marker stripped, the bytes [`feed_ticks`] would hand out — stays a range
/// of the buffer until [`TickCutter::pop_segment`] lends it out.
///
/// A caller that reads only while no segment is complete holds at most one
/// segment, one read ([`READ_BYTES`]) and one partial frame: the peer's
/// further ticks wait in its socket, under TCP flow control.
#[derive(Debug, Default)]
pub(crate) struct TickCutter {
    /// `buf[..end]` is data read; the rest is zeroed room for the next read.
    buf: Vec<u8>,
    end: usize,
    /// Start of the first frame the walk has not passed.
    scan: usize,
    /// Start of the segment still open (after the last marker).
    open: usize,
    /// Complete segments, oldest first.
    segments: VecDeque<Range<usize>>,
}

impl TickCutter {
    /// An empty cutter.
    pub(crate) fn new() -> Self {
        TickCutter::default()
    }

    /// Whether a complete segment waits to be popped.
    pub(crate) fn has_segment(&self) -> bool {
        !self.segments.is_empty()
    }

    /// Bytes held: complete segments, their markers and the open tail.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.end
            - self
                .segments
                .front()
                .map_or(self.open, |frames| frames.start)
    }

    /// Reads once from `read` (at most [`READ_BYTES`]) into the buffer and
    /// cuts what arrived. Called only while no complete segment is held. `Ok(0)` is end of stream; a frame whose length is
    /// over the limit is an [`io::ErrorKind::InvalidData`] error, after
    /// every segment before it was cut.
    fn read_from(&mut self, mut read: impl Read) -> io::Result<usize> {
        self.make_room();
        let n = read.read(&mut self.buf[self.end..self.end + READ_BYTES])?;
        self.end += n;
        self.cut()
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        Ok(n)
    }

    /// Reads until a complete segment is held: `Ok(true)` once one is (at
    /// once when one already was), `Ok(false)` at end of stream. Never
    /// reading ahead of need is the connection's backpressure.
    pub(crate) fn fill(&mut self, mut read: impl Read) -> io::Result<bool> {
        while !self.has_segment() {
            if self.read_from(&mut read)? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Takes the oldest complete segment out and lends its frame bytes.
    pub(crate) fn pop_segment(&mut self) -> Option<&[u8]> {
        let frames = self.segments.pop_front()?;
        Some(&self.buf[frames])
    }

    /// Walks the frames read since the last walk, closing a segment at each
    /// marker.
    fn cut(&mut self) -> Result<(), OversizedFrame> {
        let (scan, segments, open) = (self.scan, &mut self.segments, &mut self.open);
        let mut walked = 0;
        let result = walk_stream_frames(&self.buf[scan..self.end], |stream_id, at, body| {
            walked = at + FRAME_HEADER_BYTES + body.len();
            if stream_id == TICK_MARKER_STREAM {
                segments.push_back(*open..scan + at);
                *open = scan + walked;
            }
        });
        self.scan += walked;
        result.map(drop)
    }

    /// Leaves [`READ_BYTES`] of room after `end`: starts over at the front
    /// when nothing is held, moves the open segment's bytes there when the
    /// room ran out, and grows the buffer only if that is still short. No
    /// complete segment is held, so nothing else points into the buffer.
    fn make_room(&mut self) {
        debug_assert!(self.segments.is_empty(), "read with a segment held");
        let live = self.open;
        if live == self.end || (live > 0 && self.buf.len() - self.end < READ_BYTES) {
            self.buf.copy_within(live..self.end, 0);
            self.end -= live;
            self.scan -= live;
            self.open = 0;
        }
        if self.buf.len() < self.end + READ_BYTES {
            self.buf.resize(self.end + READ_BYTES, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Splits `payloads` framed as `(stream_id, payload)` pairs into wire bytes
    /// terminated by a marker — one tick's worth of traffic for a connection.
    fn encode_tick(payloads: &[(u32, Bytes)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (id, payload) in payloads {
            push_frame(&mut buf, *id, payload);
        }
        push_marker(&mut buf);
        buf
    }

    fn prefix_claiming(count: u32) -> [u8; 8] {
        let mut prefix = [0u8; 8];
        prefix[..4].copy_from_slice(&HELLO_MAGIC);
        prefix[4..].copy_from_slice(&count.to_le_bytes());
        prefix
    }

    #[test]
    fn hello_roundtrip() {
        let ids = vec![0u32, 7, 42, 1_000_000];
        let wire = encode_hello(&ids);
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&wire[..8]);
        let count = decode_hello_prefix(&prefix, MAX_HELLO_STREAMS).unwrap();
        assert_eq!(count, ids.len());
        assert_eq!(decode_hello_ids(&wire[8..]).unwrap(), ids);
    }

    #[test]
    fn hello_rejects_bad_magic_and_reserved_ids() {
        let mut wire = encode_hello(&[1]);
        wire[0] = b'X';
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&wire[..8]);
        assert_eq!(
            decode_hello_prefix(&prefix, MAX_HELLO_STREAMS),
            Err(HelloError::BadMagic)
        );

        let wire = encode_hello(&[TICK_MARKER_STREAM]);
        assert_eq!(
            decode_hello_ids(&wire[8..]),
            Err(HelloError::ReservedStream)
        );

        assert!(matches!(
            decode_hello_prefix(&prefix_claiming(u32::MAX), MAX_HELLO_STREAMS),
            Err(HelloError::TooManyStreams { .. })
        ));
    }

    /// The pre-fix hole: a claim *under* the 64 Ki hard ceiling but far
    /// over what this server expects sailed through the old global-only
    /// check — every such hello pinned `4 * count` bytes before a single
    /// stream id was validated. The cap must be the server's own: the
    /// streams it serves.
    #[test]
    fn hello_cap_is_the_servers_own_not_just_the_hard_ceiling() {
        let claimed = 1 << 12; // 4 Ki streams: fine globally, absurd here
        assert!(claimed < MAX_HELLO_STREAMS);
        assert_eq!(
            decode_hello_prefix(&prefix_claiming(claimed as u32), 8),
            Err(HelloError::TooManyStreams { claimed, cap: 8 })
        );
        // At or under the server's cap: accepted.
        assert_eq!(decode_hello_prefix(&prefix_claiming(8), 8), Ok(8));
        // A fleet past the ceiling cannot re-open the hole above it.
        assert_eq!(
            decode_hello_prefix(&prefix_claiming(u32::MAX), usize::MAX),
            Err(HelloError::TooManyStreams {
                claimed: u32::MAX as usize,
                cap: MAX_HELLO_STREAMS,
            })
        );
    }

    #[test]
    fn status_roundtrip_and_rejects_garbage() {
        for status in [
            HelloStatus::Ready,
            HelloStatus::Recovering { next_tick: 0 },
            HelloStatus::Recovering {
                next_tick: u64::MAX,
            },
        ] {
            let wire = encode_status(status);
            assert_eq!(decode_status(&wire), Ok(status));
        }
        let mut wire = encode_status(HelloStatus::Ready);
        wire[0] = b'X';
        assert_eq!(decode_status(&wire), Err(StatusError::BadMagic));
        let mut wire = encode_status(HelloStatus::Ready);
        wire[4] = 9;
        assert_eq!(decode_status(&wire), Err(StatusError::BadKind(9)));
    }

    #[test]
    fn feed_ticks_splits_at_markers_and_preserves_frame_bytes() {
        let tick1 = encode_tick(&[
            (3, Bytes::from_static(b"abc")),
            (9, Bytes::from_static(b"d")),
        ]);
        let tick2 = encode_tick(&[]);
        let tick3 = encode_tick(&[(1, Bytes::from_static(b"zz"))]);
        let wire: Vec<u8> = [tick1.clone(), tick2.clone(), tick3.clone()].concat();

        // Feed in awkward split positions: tick reassembly must not depend
        // on read boundaries.
        for split in [1usize, 7, 11, wire.len() / 2] {
            let mut dec = StreamDecoder::new();
            let mut tick_buf = Vec::new();
            let mut ticks: Vec<Vec<u8>> = Vec::new();
            let mut markers = 0;
            for chunk in wire.chunks(split) {
                markers += feed_ticks(&mut dec, chunk, &mut tick_buf, |t| ticks.push(t)).unwrap();
            }
            assert_eq!(markers, 3, "split {split}");
            assert_eq!(ticks.len(), 3);
            // Re-framed bytes are the original batch bytes minus the marker.
            assert_eq!(ticks[0], tick1[..tick1.len() - MARKER_BYTES]);
            assert!(ticks[1].is_empty());
            assert_eq!(ticks[2], tick3[..tick3.len() - MARKER_BYTES]);
        }
    }

    #[test]
    fn feed_ticks_hands_out_each_tick_presized_to_the_previous_one() {
        // A long tick, then shorter ones: each handed-out buffer was
        // reserved at the previous tick's length before its first frame,
        // not regrown from empty to fit only itself.
        let long: Vec<(u32, Bytes)> = (0..64).map(|id| (id, Bytes::from(vec![7u8; 24]))).collect();
        let short = [(1, Bytes::from_static(b"abc"))];
        let wire: Vec<u8> = [
            encode_tick(&long),
            encode_tick(&short),
            encode_tick(&long),
            encode_tick(&short),
        ]
        .concat();
        let mut dec = StreamDecoder::new();
        let mut tick_buf = Vec::new();
        let mut ticks: Vec<Vec<u8>> = Vec::new();
        feed_ticks(&mut dec, &wire, &mut tick_buf, |t| ticks.push(t)).unwrap();
        assert_eq!(ticks.len(), 4);
        for pair in ticks.windows(2) {
            assert!(
                pair[1].capacity() >= pair[0].len(),
                "capacity {} after a {}-byte tick",
                pair[1].capacity(),
                pair[0].len()
            );
        }
    }

    /// What the old path cut from `wire`: [`feed_ticks`] over one feed.
    fn fed_ticks(wire: &[u8]) -> Vec<Vec<u8>> {
        let mut ticks = Vec::new();
        feed_ticks(&mut StreamDecoder::new(), wire, &mut Vec::new(), |t| {
            ticks.push(t)
        })
        .unwrap();
        ticks
    }

    /// A reader that hands out `wire` in reads of the given sizes, cycled.
    struct Trickle<'a> {
        rest: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (*self.sizes.next().unwrap()).min(buf.len());
            (&mut self.rest).take(n as u64).read(buf)
        }
    }

    /// Segments a cutter reads out of `read` to its end, popped one at a
    /// time as the server pops them.
    fn cut_all(mut read: impl Read) -> Vec<Vec<u8>> {
        let mut cutter = TickCutter::new();
        let mut segments = Vec::new();
        while cutter.fill(&mut read).unwrap() {
            segments.push(cutter.pop_segment().unwrap().to_vec());
        }
        assert_eq!(cutter.buffered(), 0, "a partial segment was left");
        segments
    }

    /// Ticks with empty ticks between them (back-to-back markers), a
    /// zero-length body and a body long enough to span reads.
    fn awkward_ticks() -> Vec<u8> {
        [
            encode_tick(&[]),
            encode_tick(&[
                (3, Bytes::from_static(b"abc")),
                (9, Bytes::from_static(b"")),
                (4, Bytes::from(vec![5u8; 40])),
            ]),
            encode_tick(&[]),
            encode_tick(&[]),
            encode_tick(&[(1, Bytes::from_static(b"zz"))]),
            encode_tick(&[]),
        ]
        .concat()
    }

    #[test]
    fn the_cutter_cuts_what_feed_ticks_cuts_at_every_split() {
        let wire = awkward_ticks();
        let expected = fed_ticks(&wire);
        assert_eq!(expected.len(), 6);
        // Every split point: a header, a body and a marker each end up cut
        // across two reads somewhere in this sweep.
        for split in 0..=wire.len() {
            let read = (&wire[..split]).chain(&wire[split..]);
            assert_eq!(cut_all(read), expected, "split {split}");
        }
        // One byte per read.
        let read = Trickle {
            rest: &wire,
            sizes: [1].iter().cycle(),
        };
        assert_eq!(cut_all(read), expected);
    }

    #[test]
    fn the_cutter_matches_feed_ticks_over_many_reads_of_full_size() {
        // Ticks of every size from empty to past one read, fed in reads
        // that end anywhere, full [`READ_BYTES`] ones included.
        let ticks: Vec<Vec<u8>> = (0..200u32)
            .map(|t| {
                let frames: Vec<(u32, Bytes)> = (0..t % 23)
                    .map(|id| (id, Bytes::from(vec![t as u8; (t * 7 + id) as usize % 300])))
                    .collect();
                encode_tick(&frames)
            })
            .chain([encode_tick(&[(7, Bytes::from(vec![1u8; 2 * READ_BYTES]))])])
            .collect();
        let wire = ticks.concat();
        assert!(wire.len() > 8 * READ_BYTES);
        let expected = fed_ticks(&wire);
        for sizes in [
            &[READ_BYTES][..],
            &[1, 4095, 17, READ_BYTES, 9],
            &[3 * READ_BYTES],
        ] {
            let read = Trickle {
                rest: &wire,
                sizes: sizes.iter().cycle(),
            };
            assert_eq!(cut_all(read), expected, "reads {sizes:?}");
        }
    }

    #[test]
    fn an_oversized_length_is_an_error_after_the_segments_before_it() {
        let mut wire = awkward_ticks();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&(kalstream_core::MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cutter = TickCutter::new();
        let err = cutter.read_from(&wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut segments = Vec::new();
        while let Some(frames) = cutter.pop_segment() {
            segments.push(frames.to_vec());
        }
        assert_eq!(segments, fed_ticks(&awkward_ticks()));
        // Sticky: reading on finds the same header again, cuts nothing.
        let err = cutter.read_from(&encode_tick(&[])[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!cutter.has_segment());
    }

    /// A peer that writes 1 000 ticks ahead: a reader that reads only while
    /// it has no complete segment holds at most that segment, its marker
    /// and one read, in a buffer no larger. The rest waits in the socket.
    #[test]
    fn a_peer_far_ahead_leaves_at_most_one_read_past_the_segment() {
        crate::within_a_minute(|| {
            use std::io::Write;
            use std::net::{TcpListener, TcpStream};

            let tick = encode_tick(&[
                (1, Bytes::from(vec![1u8; 700])),
                (2, Bytes::from(vec![2u8; 90])),
            ]);
            let segment = tick.len() - MARKER_BYTES;
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (socket, _) = listener.accept().unwrap();
            let wire = tick.repeat(1000);
            let writer = std::thread::spawn(move || {
                peer.write_all(&wire).unwrap();
                peer.shutdown(std::net::Shutdown::Write).unwrap();
            });

            let mut cutter = TickCutter::new();
            let mut ticks = 0;
            while cutter.fill(&socket).unwrap() {
                assert!(
                    cutter.buffered() <= segment + MARKER_BYTES + READ_BYTES,
                    "{} bytes held at tick {ticks}",
                    cutter.buffered()
                );
                assert!(
                    cutter.buf.len() <= segment + MARKER_BYTES + READ_BYTES,
                    "a {}-byte buffer at tick {ticks}",
                    cutter.buf.len()
                );
                assert_eq!(cutter.pop_segment().unwrap(), &tick[..segment]);
                ticks += 1;
            }
            assert_eq!(ticks, 1000);
            writer.join().unwrap();
        });
    }
}
