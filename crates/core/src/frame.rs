//! Length-prefixed frame layer for batched multi-stream ingest.
//!
//! One server drains traffic from many sessions, so the unit of transfer on
//! the ingest path is not a single [`SyncMessage`] but a **batch**: many
//! messages from many streams packed back-to-back into one contiguous
//! buffer. Each message travels inside a frame:
//!
//! ```text
//! frame := stream_id:u32 len:u32 body          (little-endian)
//! batch := frame*
//! ```
//!
//! The `len` prefix is what keeps a batch robust: a frame whose *body* fails
//! to decode is skipped (`len` says exactly where the next frame starts), so
//! one corrupt message never desyncs the rest of the batch. Only a mangled
//! frame *header* — truncation mid-header or a `len` that overruns the
//! buffer — ends the walk, because there is no longer a trustworthy
//! resynchronisation point.
//!
//! [`FrameBatch`] owns a [`BytesMut`] so batches can cycle through the
//! ingest pipeline's free list: in steady state every buffer has reached
//! its high-water capacity and batch assembly performs zero heap
//! allocations.

use bytes::{BufMut, BytesMut};

use crate::wire::{SyncMessage, WireRef};

/// Bytes of framing overhead per message: `stream_id:u32 len:u32`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// A batch of framed messages being assembled into one wire buffer.
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: BytesMut,
    frames: usize,
}

impl FrameBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Creates an empty batch with `cap` bytes of buffer capacity.
    pub fn with_capacity(cap: usize) -> Self {
        FrameBatch {
            buf: BytesMut::with_capacity(cap),
            frames: 0,
        }
    }

    /// Wraps a recycled buffer (cleared, capacity retained) — the pooled
    /// path that keeps steady-state batch assembly allocation-free.
    pub fn from_buffer(mut buf: BytesMut) -> Self {
        buf.clear();
        FrameBatch { buf, frames: 0 }
    }

    /// Appends one message as a frame for `stream_id`.
    pub fn push(&mut self, stream_id: u32, msg: &SyncMessage) {
        let len = msg.encoded_len();
        self.buf.reserve(FRAME_HEADER_BYTES + len);
        self.buf.put_u32_le(stream_id);
        self.buf.put_u32_le(len as u32);
        msg.encode_into(&mut self.buf);
        self.frames += 1;
    }

    /// Appends an already-encoded message body as a frame for `stream_id` —
    /// the shard router uses this to re-batch frames without re-encoding.
    pub fn push_raw(&mut self, stream_id: u32, body: &[u8]) {
        self.buf.reserve(FRAME_HEADER_BYTES + body.len());
        self.buf.put_u32_le(stream_id);
        self.buf.put_u32_le(body.len() as u32);
        self.buf.put_slice(body);
        self.frames += 1;
    }

    /// Number of frames in the batch.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Total wire bytes (headers + bodies).
    pub fn wire_len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no frames have been pushed.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// The assembled wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the batch, retaining buffer capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.frames = 0;
    }

    /// Unwraps the owned buffer (for sending through a channel and later
    /// recycling via [`FrameBatch::from_buffer`]).
    pub fn into_buffer(self) -> BytesMut {
        self.buf
    }
}

/// One decoded frame, borrowing the batch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The stream this message belongs to.
    pub stream_id: u32,
    /// The message's wire encoding (what [`SyncMessage::decode`] takes).
    pub body: &'a [u8],
}

/// The structurally valid frames of a batch, in order, counting nothing:
/// iteration ends at the end of the batch or at the first malformed header
/// (a truncated header or a length prefix overrunning the buffer), which
/// it leaves unconsumed in `.0`.
struct Frames<'a>(&'a [u8]);

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let (header, rest) = self.0.split_first_chunk::<FRAME_HEADER_BYTES>()?;
        let stream_id = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let (body, rest) = rest.split_at_checked(len)?;
        self.0 = rest;
        Some(Frame { stream_id, body })
    }
}

/// Stateful frame-batch decoder: walks batches and counts malformed input
/// instead of failing, mirroring [`crate::ServerEndpoint`]'s
/// drop-and-count policy for unparseable traffic.
#[derive(Debug, Default, Clone)]
pub struct FrameDecoder {
    decode_failures: u64,
}

impl FrameDecoder {
    /// Creates a decoder with zeroed failure counters.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Frames or message bodies that failed to parse (dropped, counted).
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }

    /// Walks every structurally valid frame in `wire`, without decoding
    /// bodies — the shard router's path. A truncated header or a length
    /// prefix overrunning the buffer counts one failure and ends the walk
    /// (past that point there is no reliable frame boundary).
    pub fn for_each_frame(&mut self, wire: &[u8], f: impl FnMut(Frame<'_>)) {
        let mut frames = Frames(wire);
        frames.by_ref().for_each(f);
        if !frames.0.is_empty() {
            self.decode_failures += 1;
        }
    }

    /// Walks `wire` and decodes each frame's body into an owned
    /// [`SyncMessage`] — for tests and tools that want values. A body that
    /// fails to decode counts one failure and the walk **continues** with
    /// the next frame: the length prefix, not the body, carries the framing.
    pub fn for_each_message(&mut self, wire: &[u8], mut f: impl FnMut(u32, SyncMessage)) {
        let mut body_failures = 0;
        self.for_each_frame(wire, |frame| match SyncMessage::decode(frame.body) {
            Ok(msg) => f(frame.stream_id, msg),
            Err(_) => body_failures += 1,
        });
        self.decode_failures += body_failures;
    }

    /// Walks `wire` and hands each frame's body to `f` as a validated
    /// [`WireRef`] view of the batch buffer — the shard worker's path:
    /// sequenced syncs, acks and bound directives alongside legacy v2
    /// bodies, none of them copied out of `wire`. Bad bodies are skipped and
    /// counted as in [`FrameDecoder::for_each_message`].
    pub fn for_each_wire_message(&mut self, wire: &[u8], mut f: impl FnMut(u32, WireRef<'_>)) {
        let mut body_failures = 0;
        self.for_each_frame(wire, |frame| match WireRef::parse(frame.body) {
            Ok(msg) => f(frame.stream_id, msg),
            Err(_) => body_failures += 1,
        });
        self.decode_failures += body_failures;
    }
}

/// Upper bound on a single frame body arriving over a byte stream. Largest
/// legitimate bodies are model syncs for high-dimensional banks (a few KiB);
/// 1 MiB leaves three orders of magnitude of slack while keeping a hostile
/// or corrupt length prefix from pinning buffer memory per connection.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Fatal framing error on a byte stream: the length prefix claims a body
/// larger than [`MAX_FRAME_BYTES`]. Unlike a bad body (skippable) this means
/// the stream's framing itself cannot be trusted, so the decoder poisons
/// itself and the connection must be torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame {
    /// Stream id carried by the offending header.
    pub stream_id: u32,
    /// Claimed body length.
    pub len: usize,
}

impl std::fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame for stream {} claims {} byte body (max {})",
            self.stream_id, self.len, MAX_FRAME_BYTES
        )
    }
}

impl std::error::Error for OversizedFrame {}

/// The frame walk of a byte stream, shared by [`StreamDecoder`] and the
/// net layer's tick cutter: hands each complete frame at the front of
/// `bytes` to `f` as `(stream_id, offset, body)`, `offset` being where the
/// frame's header starts, and returns the bytes walked. The walk stops at
/// the first incomplete frame, or fails at a header whose length is over
/// [`MAX_FRAME_BYTES`] once every frame before it has been handed out.
#[inline]
pub fn walk_stream_frames(
    bytes: &[u8],
    mut f: impl FnMut(u32, usize, &[u8]),
) -> Result<usize, OversizedFrame> {
    let mut at = 0;
    while let Some((header, rest)) = bytes[at..].split_first_chunk::<FRAME_HEADER_BYTES>() {
        let stream_id = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(OversizedFrame { stream_id, len });
        }
        let Some(body) = rest.get(..len) else { break };
        f(stream_id, at, body);
        at += FRAME_HEADER_BYTES + len;
    }
    Ok(at)
}

/// Incremental frame decoder for a continuous byte stream (a socket).
///
/// [`FrameDecoder`] assumes it sees whole batches; a socket delivers
/// arbitrary fragments — a read may end mid-header, mid-body, or contain
/// ten frames and half of an eleventh. `StreamDecoder` buffers the
/// unconsumed tail between [`StreamDecoder::feed`] calls and emits exactly
/// the frames the same bytes would produce if they had arrived in one
/// piece, no matter how the reads split them (the invariant the fuzz
/// proptest below pins down: byte-at-a-time equals one-shot).
///
/// Malformed input never panics and never mis-frames: the only
/// unrecoverable condition is a length prefix over [`MAX_FRAME_BYTES`],
/// which returns [`OversizedFrame`] and poisons the decoder (every later
/// `feed` repeats the error) so the owning connection closes instead of
/// buffering unboundedly.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so steady-state feeds
    /// don't memmove per frame.
    pos: usize,
    frames: u64,
    poisoned: Option<OversizedFrame>,
}

/// Compact the internal buffer once the dead prefix passes this many bytes.
const STREAM_COMPACT_BYTES: usize = 16 * 1024;

impl StreamDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends `bytes` and emits every frame that is now complete, in order.
    ///
    /// Partial trailing input (up to a header-plus-body minus one byte) is
    /// buffered for the next call — at EOF, leftover bytes mean the peer
    /// truncated a frame ([`StreamDecoder::buffered`] exposes this).
    pub fn feed(
        &mut self,
        bytes: &[u8],
        mut f: impl FnMut(u32, &[u8]),
    ) -> Result<(), OversizedFrame> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        self.buf.extend_from_slice(bytes);
        let mut frames = 0;
        let walked = walk_stream_frames(&self.buf[self.pos..], |stream_id, _, body| {
            f(stream_id, body);
            frames += 1;
        });
        self.frames += frames;
        match walked {
            Ok(walked) => self.pos += walked,
            Err(err) => {
                self.poisoned = Some(err);
                self.buf = Vec::new();
                self.pos = 0;
                return Err(err);
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > STREAM_COMPACT_BYTES {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(())
    }

    /// Complete frames emitted so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes buffered awaiting the rest of a frame (0 at any frame
    /// boundary; nonzero at EOF means the peer died mid-frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a fatal framing error has been seen.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMessage;
    use kalstream_linalg::{Matrix, Vector};

    fn msg(v: f64) -> SyncMessage {
        SyncMessage::State {
            x: Vector::from_slice(&[v]),
            p: Matrix::scalar(1, 1.0),
        }
    }

    #[test]
    fn batch_roundtrip_many_streams() {
        let mut batch = FrameBatch::new();
        for id in 0..5u32 {
            batch.push(id, &msg(id as f64));
        }
        assert_eq!(batch.frames(), 5);
        let one = msg(0.0).encoded_len();
        assert_eq!(batch.wire_len(), 5 * (FRAME_HEADER_BYTES + one));

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_message(batch.as_bytes(), |id, m| got.push((id, m)));
        assert_eq!(dec.decode_failures(), 0);
        assert_eq!(got.len(), 5);
        for (i, (id, m)) in got.iter().enumerate() {
            assert_eq!(*id, i as u32);
            assert_eq!(*m, msg(i as f64));
        }
    }

    #[test]
    fn push_raw_matches_push() {
        let m = msg(3.5);
        let mut a = FrameBatch::new();
        a.push(7, &m);
        let mut b = FrameBatch::new();
        b.push_raw(7, &m.encode());
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn garbage_body_skips_frame_without_desyncing() {
        let mut batch = FrameBatch::new();
        batch.push(1, &msg(1.0));
        batch.push_raw(2, b"\xFF\xFF\xFF"); // undecodable body, valid frame
        batch.push(3, &msg(3.0));

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_message(batch.as_bytes(), |id, _| got.push(id));
        assert_eq!(got, vec![1, 3]); // frame 2 dropped, frame 3 survives
        assert_eq!(dec.decode_failures(), 1);
    }

    #[test]
    fn truncated_header_counts_and_stops() {
        let mut batch = FrameBatch::new();
        batch.push(1, &msg(1.0));
        let mut wire = batch.as_bytes().to_vec();
        wire.extend_from_slice(&[9, 0, 0]); // 3 stray bytes: not a header

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_message(&wire, |id, _| got.push(id));
        assert_eq!(got, vec![1]);
        assert_eq!(dec.decode_failures(), 1);
    }

    #[test]
    fn overrunning_length_counts_and_stops() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&5u32.to_le_bytes());
        wire.extend_from_slice(&1000u32.to_le_bytes()); // body of 1000 bytes…
        wire.extend_from_slice(&[0; 10]); // …but only 10 present

        let mut dec = FrameDecoder::new();
        let mut count = 0;
        dec.for_each_frame(&wire, |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(dec.decode_failures(), 1);
    }

    #[test]
    fn empty_batch_decodes_to_nothing() {
        let mut dec = FrameDecoder::new();
        dec.for_each_frame(&[], |_| panic!("no frames expected"));
        assert_eq!(dec.decode_failures(), 0);
    }

    #[test]
    fn a_reused_buffer_keeps_its_capacity() {
        let mut batch = FrameBatch::new();
        for id in 0..8 {
            batch.push(id, &msg(id as f64));
        }
        let high_water = batch.wire_len();
        let mut buf = batch.into_buffer();
        let cap = buf.capacity();
        assert!(cap >= high_water);
        buf.clear();

        // Second fill of the same shape must not grow the buffer.
        let mut batch = FrameBatch::from_buffer(buf);
        for id in 0..8 {
            batch.push(id, &msg(id as f64));
        }
        assert_eq!(batch.wire_len(), high_water);
        assert_eq!(batch.into_buffer().capacity(), cap);
    }

    #[test]
    fn wire_message_walk_decodes_v3_and_legacy_frames() {
        let mut batch = FrameBatch::new();
        batch.push(1, &msg(1.0)); // legacy v2 body
        batch.push_raw(
            2,
            &WireMessage::Sync {
                seq: Some(9),
                msg: msg(2.0),
            }
            .encode(),
        );
        batch.push_raw(3, &WireMessage::Ack { seq: 4 }.encode());

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_wire_message(batch.as_bytes(), |id, m| got.push((id, m.to_owned())));
        assert_eq!(dec.decode_failures(), 0);
        assert_eq!(
            got,
            vec![
                (
                    1,
                    WireMessage::Sync {
                        seq: None,
                        msg: msg(1.0)
                    }
                ),
                (
                    2,
                    WireMessage::Sync {
                        seq: Some(9),
                        msg: msg(2.0)
                    }
                ),
                (3, WireMessage::Ack { seq: 4 }),
            ]
        );
    }

    #[test]
    fn wire_message_walk_skips_bad_body() {
        let mut batch = FrameBatch::new();
        batch.push_raw(1, b"\xFF\xFF"); // undecodable body, valid frame
        batch.push_raw(2, &WireMessage::Ack { seq: 1 }.encode());

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_wire_message(batch.as_bytes(), |id, _| got.push(id));
        assert_eq!(got, vec![2]);
        assert_eq!(dec.decode_failures(), 1);
    }

    /// Frames `wire` produces when fed through a [`StreamDecoder`] in the
    /// given chunk sizes.
    fn stream_decode(wire: &[u8], chunks: impl Iterator<Item = usize>) -> Vec<(u32, Vec<u8>)> {
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        let mut rest = wire;
        for size in chunks {
            if rest.is_empty() {
                break;
            }
            let take = size.min(rest.len()).max(1);
            dec.feed(&rest[..take], |id, body| got.push((id, body.to_vec())))
                .expect("well-formed stream");
            rest = &rest[take..];
        }
        if !rest.is_empty() {
            dec.feed(rest, |id, body| got.push((id, body.to_vec())))
                .expect("well-formed stream");
        }
        assert_eq!(dec.buffered(), 0, "stream ended mid-frame");
        got
    }

    #[test]
    fn stream_decoder_byte_at_a_time_matches_one_shot() {
        let mut batch = FrameBatch::new();
        batch.push(1, &msg(1.0));
        batch.push_raw(2, b""); // zero-length body is a legal frame
        batch.push(3, &msg(3.0));
        let wire = batch.as_bytes();

        let one_shot = stream_decode(wire, std::iter::once(wire.len()));
        let trickled = stream_decode(wire, std::iter::repeat(1));
        assert_eq!(one_shot, trickled);
        assert_eq!(one_shot.len(), 3);
        assert_eq!(one_shot[1], (2, Vec::new()));
    }

    #[test]
    fn stream_decoder_split_mid_length_prefix() {
        let mut batch = FrameBatch::new();
        batch.push(9, &msg(2.0));
        let wire = batch.as_bytes();

        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        // First feed ends 6 bytes in: after stream_id, mid-way through len.
        dec.feed(&wire[..6], |id, _| got.push(id)).unwrap();
        assert!(got.is_empty());
        assert_eq!(dec.buffered(), 6);
        dec.feed(&wire[6..], |id, _| got.push(id)).unwrap();
        assert_eq!(got, vec![9]);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.frames(), 1);
    }

    #[test]
    fn stream_decoder_oversized_len_poisons() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&7u32.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());

        let mut dec = StreamDecoder::new();
        let err = dec
            .feed(&wire, |_, _| panic!("no frame expected"))
            .unwrap_err();
        assert_eq!(err.stream_id, 7);
        assert_eq!(err.len, MAX_FRAME_BYTES + 1);
        assert!(dec.is_poisoned());
        // Poison is sticky: even valid bytes now error without emitting.
        let mut batch = FrameBatch::new();
        batch.push(1, &msg(1.0));
        let again = dec
            .feed(batch.as_bytes(), |_, _| panic!("poisoned decoder emitted"))
            .unwrap_err();
        assert_eq!(again, err);
    }

    #[test]
    fn stream_decoder_compacts_long_streams() {
        // Push far more than the compaction threshold through one decoder;
        // buffered() staying at 0 on frame boundaries proves the dead
        // prefix is reclaimed rather than accumulated.
        let mut batch = FrameBatch::new();
        batch.push(1, &msg(1.0));
        let wire = batch.as_bytes();
        let mut dec = StreamDecoder::new();
        let rounds = (4 * STREAM_COMPACT_BYTES / wire.len()) + 1;
        let mut count = 0u64;
        for _ in 0..rounds {
            dec.feed(wire, |_, _| count += 1).unwrap();
            assert_eq!(dec.buffered(), 0);
        }
        assert_eq!(count, rounds as u64);
        assert!(dec.buf.capacity() < 4 * STREAM_COMPACT_BYTES);
    }

    mod stream_decoder_fuzz {
        //! Fuzz-style properties for the socket-facing decoder: arbitrary
        //! split points must not change framing, and arbitrary garbage must
        //! never panic. This is the exact path raw TCP reads hit.
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_split_matches_one_shot(
                bodies in proptest::collection::vec(
                    proptest::collection::vec(0u8..=255, 0..40), 0..12),
                splits in proptest::collection::vec(1usize..17, 0..64),
            ) {
                let mut batch = FrameBatch::new();
                for (i, body) in bodies.iter().enumerate() {
                    batch.push_raw(i as u32, body);
                }
                let wire = batch.as_bytes();
                let one_shot = stream_decode(wire, std::iter::once(wire.len().max(1)));
                let split = stream_decode(wire, splits.into_iter().chain(std::iter::repeat(3)));
                prop_assert_eq!(&one_shot, &split);
                let expected: Vec<(u32, Vec<u8>)> = bodies
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (i as u32, b.clone()))
                    .collect();
                prop_assert_eq!(one_shot, expected);
            }

            #[test]
            fn garbage_never_panics_or_overbuffers(
                garbage in proptest::collection::vec(0u8..=255, 0..400),
                splits in proptest::collection::vec(1usize..9, 0..128),
            ) {
                let mut dec = StreamDecoder::new();
                let mut rest = &garbage[..];
                let mut emitted = 0usize;
                for size in splits {
                    if rest.is_empty() { break; }
                    let take = size.min(rest.len());
                    // Err (oversized len) is an acceptable outcome; panic is not.
                    if dec.feed(&rest[..take], |_, body| {
                        emitted += body.len();
                    }).is_err() {
                        prop_assert!(dec.is_poisoned());
                        prop_assert_eq!(dec.buffered(), 0);
                        return Ok(());
                    }
                    rest = &rest[take..];
                }
                // Whatever was emitted plus what waits is bounded by input.
                prop_assert!(dec.buffered() <= garbage.len());
                prop_assert!(emitted <= garbage.len());
            }
        }
    }
}
