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

use bytes::BufMut;
use kalstream_core::{OversizedFrame, StreamDecoder, FRAME_HEADER_BYTES};

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
/// Servers pass their own (usually much smaller) configured cap to
/// [`decode_hello_prefix`]; this constant only bounds it from above, so a
/// misconfigured cap can never re-open the allocation hole.
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
    /// The claimed stream count exceeds the server's configured cap.
    TooManyStreams {
        /// Streams the peer's hello claimed.
        claimed: usize,
        /// The cap it was checked against (configured, already clamped to
        /// [`MAX_HELLO_STREAMS`]).
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
/// buffer, so it is checked against the server's configured `max_streams`
/// before a single byte gets allocated — never trusted outright, and never
/// checked only against the global [`MAX_HELLO_STREAMS`] ceiling (64 Ki
/// ids from each of a few thousand connections is still an allocation
/// attack on a server expecting 8 streams per conn).
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
    /// stream id was validated. The cap must be the server's own.
    #[test]
    fn hello_cap_is_the_configured_one_not_just_the_hard_ceiling() {
        let claimed = 1 << 12; // 4 Ki streams: fine globally, absurd here
        assert!(claimed < MAX_HELLO_STREAMS);
        assert_eq!(
            decode_hello_prefix(&prefix_claiming(claimed as u32), 8),
            Err(HelloError::TooManyStreams { claimed, cap: 8 })
        );
        // At or under the configured cap: accepted.
        assert_eq!(decode_hello_prefix(&prefix_claiming(8), 8), Ok(8));
        // A misconfigured cap cannot re-open the hole past the ceiling.
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
}
