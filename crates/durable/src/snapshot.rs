//! Snapshot encoding: a versioned, checksummed capture of every endpoint's
//! [`EndpointState`] at one tick barrier.
//!
//! ## Format
//!
//! ```text
//! "KSD1" | version:u16 | reserved:u16 | ticks_applied:u64 | count:u32
//! count × ( stream_id:u32 | body_len:u32 | body )
//! crc:u32                                  (CRC-32/IEEE over all prior bytes)
//! ```
//!
//! and each entry `body` is:
//!
//! ```text
//! filter_len:u32 | filter                  (wire-v3 Model sync: model, x, p)
//! steps_since_update:u64 | cov_update:u8
//! last_seq:u64 | ack_due:u8
//! bound_flag:u8 | bound_bits:u64           (f64 bits; zero when flag = 0)
//! syncs_applied:u64 | decode_failures:u64 | predict_failures:u64 | bounds_sent:u64
//! stale_drops:u64 | seq_gaps:u64 | shed:u64
//! pending_count:u32 | pending_count × ( len:u32 | sync_message )
//! ```
//!
//! All integers little-endian, floats carried as raw bits — the decoder
//! reconstructs every f64 with `from_bits`, which is what lets a recovered
//! server be *bit*-identical rather than merely close. The filter triplet
//! rides inside a [`SyncMessage::Model`] wire body: the exact encoding the
//! protocol already trusts to move models and covariances losslessly
//! (triangle-packed symmetric matrices included), so the snapshot format
//! inherits wire-v3's packing and its tests instead of inventing a second
//! matrix codec.
//!
//! The one CRC in the crate lives here: [`Crc32`], slice-by-8 over
//! compile-time tables (eight bytes per step, not one), incremental so that
//! the WAL checksums each record's fields in place rather than copying them
//! into one buffer first. [`crc32`] is its one-shot form.

use bytes::BufMut;
use kalstream_core::wire::{SyncMessage, SyncRef};
use kalstream_core::EndpointState;
use kalstream_filter::CovarianceUpdate;
use kalstream_sim::DeliveryStats;

/// First bytes of every snapshot file ("KalStream Durable v1").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"KSD1";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Snapshot decode failures. Any of them invalidates the *whole* snapshot
/// file — recovery falls back to an older snapshot rather than trusting a
/// partially readable one.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// File does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Version field is newer than this build understands.
    BadVersion(u16),
    /// The trailing CRC does not match the bytes on disk.
    BadChecksum,
    /// The file ends mid-structure.
    Truncated,
    /// An entry body failed to decode (bad sync payload, bad enum tag).
    BadEntry,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot does not start with KSD1"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::BadEntry => write!(f, "snapshot entry failed to decode"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Slice-by-8 lookup tables for CRC-32/IEEE, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the register contribution of byte `b` followed by `k` zero bytes, so
/// eight independent lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// Incremental CRC-32/IEEE (reflected, the zlib/Ethernet polynomial),
/// slice-by-8. Hand-rolled because the workspace takes no new
/// dependencies. Feeding a message in any split gives the one-shot
/// [`crc32`] of the whole, which is what lets the WAL checksum
/// `tick || payload` in place instead of copying them together.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    register: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A CRC over no bytes yet.
    pub fn new() -> Self {
        Crc32 {
            register: 0xFFFF_FFFF,
        }
    }

    /// Folds `bytes` into the CRC: eight bytes per step, the tail one at a
    /// time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.register;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            crc = t[7][lo as u8 as usize]
                ^ t[6][(lo >> 8) as u8 as usize]
                ^ t[5][(lo >> 16) as u8 as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][word[4] as usize]
                ^ t[2][word[5] as usize]
                ^ t[1][word[6] as usize]
                ^ t[0][word[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
        }
        self.register = crc;
    }

    /// The CRC of everything fed so far.
    pub fn finish(self) -> u32 {
        self.register ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32/IEEE of `bytes` (see [`Crc32`]).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

fn push_endpoint_state(buf: &mut Vec<u8>, state: &EndpointState) {
    // The filter triplet as a Model sync — wire-v3 does the heavy lifting.
    let filter = SyncMessage::Model {
        model: Box::new(state.model.clone()),
        x: state.x.clone(),
        p: state.p.clone(),
    }
    .encode();
    buf.put_u32_le(filter.len() as u32);
    buf.put_slice(&filter);
    buf.put_u64_le(state.steps_since_update);
    buf.put_u8(match state.cov_update {
        CovarianceUpdate::Joseph => 0,
        CovarianceUpdate::Simple => 1,
    });
    buf.put_u64_le(state.last_seq);
    buf.put_u8(u8::from(state.ack_due));
    match state.bound_due {
        Some(delta) => {
            buf.put_u8(1);
            buf.put_u64_le(delta.to_bits());
        }
        None => {
            buf.put_u8(0);
            buf.put_u64_le(0);
        }
    }
    buf.put_u64_le(state.syncs_applied);
    buf.put_u64_le(state.decode_failures);
    buf.put_u64_le(state.predict_failures);
    buf.put_u64_le(state.bounds_sent);
    buf.put_u64_le(state.delivery.stale_drops);
    buf.put_u64_le(state.delivery.seq_gaps);
    buf.put_u64_le(state.delivery.shed);
    buf.put_u32_le(state.pending.len() as u32);
    for msg in &state.pending {
        let wire = msg.encode();
        buf.put_u32_le(wire.len() as u32);
        buf.put_slice(&wire);
    }
}

/// Encodes one snapshot: the fleet's states as captured at a tick barrier
/// after `ticks_applied` ticks.
pub fn encode_snapshot(ticks_applied: u64, states: &[(u32, EndpointState)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + states.len() * 256);
    buf.put_slice(&SNAPSHOT_MAGIC);
    buf.put_u16_le(SNAPSHOT_VERSION);
    buf.put_u16_le(0);
    buf.put_u64_le(ticks_applied);
    buf.put_u32_le(states.len() as u32);
    let mut body = Vec::new();
    for (id, state) in states {
        body.clear();
        push_endpoint_state(&mut body, state);
        buf.put_u32_le(*id);
        buf.put_u32_le(body.len() as u32);
        buf.put_slice(&body);
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf
}

/// A little-endian read cursor over a byte slice; every read is
/// bounds-checked so corrupt input surfaces as [`SnapshotError::Truncated`]
/// instead of a panic.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

fn read_endpoint_state(cur: &mut Cursor<'_>) -> Result<EndpointState, SnapshotError> {
    let filter_len = cur.u32()? as usize;
    let filter_wire = cur.take(filter_len)?;
    let (model, x, p) = match SyncRef::parse(filter_wire) {
        Ok(SyncRef::Model(filter)) => filter.to_owned(),
        _ => return Err(SnapshotError::BadEntry),
    };
    let steps_since_update = cur.u64()?;
    let cov_update = match cur.u8()? {
        0 => CovarianceUpdate::Joseph,
        1 => CovarianceUpdate::Simple,
        _ => return Err(SnapshotError::BadEntry),
    };
    let last_seq = cur.u64()?;
    let ack_due = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::BadEntry),
    };
    let bound_flag = cur.u8()?;
    let bound_bits = cur.u64()?;
    let bound_due = match bound_flag {
        0 => None,
        1 => Some(f64::from_bits(bound_bits)),
        _ => return Err(SnapshotError::BadEntry),
    };
    let syncs_applied = cur.u64()?;
    let decode_failures = cur.u64()?;
    let predict_failures = cur.u64()?;
    let bounds_sent = cur.u64()?;
    let delivery = DeliveryStats {
        stale_drops: cur.u64()?,
        seq_gaps: cur.u64()?,
        shed: cur.u64()?,
    };
    let pending_count = cur.u32()? as usize;
    let mut pending = Vec::with_capacity(pending_count.min(1024));
    for _ in 0..pending_count {
        let len = cur.u32()? as usize;
        let wire = cur.take(len)?;
        pending.push(SyncMessage::decode(wire).map_err(|_| SnapshotError::BadEntry)?);
    }
    Ok(EndpointState {
        model,
        x,
        p,
        steps_since_update,
        cov_update,
        pending,
        syncs_applied,
        decode_failures,
        predict_failures,
        last_seq,
        ack_due,
        bound_due,
        bounds_sent,
        delivery,
    })
}

/// Decodes a snapshot file, verifying magic, version, structure, and CRC.
/// Returns `(ticks_applied, states)`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<(u32, EndpointState)>), SnapshotError> {
    if bytes.len() < 4 + 2 + 2 + 8 + 4 + 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    // Checksum first: a corrupt version/count field must not steer parsing.
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(payload) != stored {
        return Err(SnapshotError::BadChecksum);
    }
    let mut cur = Cursor { buf: &payload[4..] };
    let version = cur.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let _reserved = cur.u16()?;
    let ticks_applied = cur.u64()?;
    let count = cur.u32()? as usize;
    let mut states = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let id = cur.u32()?;
        let body_len = cur.u32()? as usize;
        let body = cur.take(body_len)?;
        let mut body_cur = Cursor { buf: body };
        let state = read_endpoint_state(&mut body_cur)?;
        if !body_cur.is_empty() {
            return Err(SnapshotError::BadEntry);
        }
        states.push((id, state));
    }
    if !cur.is_empty() {
        return Err(SnapshotError::BadEntry);
    }
    Ok((ticks_applied, states))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec};
    use kalstream_linalg::Vector;

    /// A non-trivial endpoint: driven through real traffic so every state
    /// field is exercised by the roundtrip.
    fn endpoint() -> ServerEndpoint {
        use kalstream_sim::Consumer;
        let config = ProtocolConfig::new(0.5).expect("valid delta");
        let mut server = SessionSpec::default_scalar(0.25, config)
            .expect("valid spec")
            .build()
            .server;
        let mut out = [0.0];
        for tick in 0..5u64 {
            server.receive(
                tick,
                &kalstream_core::wire::WireMessage::Sync {
                    seq: Some(tick + 1),
                    msg: SyncMessage::State {
                        x: Vector::from_slice(&[tick as f64 * 0.3]),
                        p: kalstream_linalg::Matrix::scalar(1, 0.4),
                    },
                }
                .encode(),
            );
            server.estimate(tick, &mut out);
        }
        server.push_bound_directive(0.125);
        // Leave one sync pending: snapshots must capture mid-tick queues.
        server.enqueue(SyncMessage::Measurement {
            z: Vector::from_slice(&[1.5]),
        });
        server
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let states: Vec<(u32, EndpointState)> =
            vec![(3, endpoint().state()), (9, endpoint().state())];
        let wire = encode_snapshot(42, &states);
        let (ticks, decoded) = decode_snapshot(&wire).expect("decode");
        assert_eq!(ticks, 42);
        assert_eq!(decoded, states);
    }

    #[test]
    fn mid_tick_queue_fed_from_wire_bytes_survives_the_snapshot_file() {
        // Syncs of all three kinds arrive as wire bytes and sit in the
        // endpoint's byte queue (nothing applied yet) when the snapshot is
        // cut. The endpoint rebuilt from the *file* must drain the same
        // queue into the same bits, and keep matching afterwards.
        use kalstream_core::wire::WireMessage;
        use kalstream_filter::models;
        use kalstream_linalg::Matrix;
        use kalstream_sim::Consumer;
        let mut live = endpoint();
        let sync = |seq: u64, msg| WireMessage::Sync {
            seq: Some(seq),
            msg,
        };
        let mid_tick = [
            sync(
                6,
                SyncMessage::State {
                    x: Vector::from_slice(&[0.75]),
                    p: Matrix::scalar(1, 0.3),
                },
            ),
            sync(
                8,
                SyncMessage::Model {
                    model: Box::new(models::constant_velocity(1.0, 0.05, 0.1)),
                    x: Vector::from_slice(&[1.0, 0.25]),
                    p: Matrix::from_rows(&[&[0.5, 0.125], &[0.125, 0.75]]),
                },
            ),
            sync(
                9,
                SyncMessage::Measurement {
                    z: Vector::from_slice(&[1.25]),
                },
            ),
        ];
        for wire in &mid_tick {
            live.receive(5, &wire.encode());
        }
        let captured = live.state();
        assert_eq!(captured.pending.len(), 4, "one owned + three viewed");
        let file = encode_snapshot(5, &[(0, captured.clone())]);
        let (_, mut decoded) = decode_snapshot(&file).expect("decode");
        let (_, state) = decoded.pop().expect("one endpoint");
        assert_eq!(state, captured);
        let mut restored = ServerEndpoint::from_state(state).expect("rebuild");
        let mut out = [[0.0]; 2];
        for tick in 5..9u64 {
            live.estimate(tick, &mut out[0]);
            restored.estimate(tick, &mut out[1]);
            assert_eq!(out[0][0].to_bits(), out[1][0].to_bits(), "tick {tick}");
            assert_eq!(live.state(), restored.state(), "tick {tick}");
            assert_eq!(live.poll_feedback(tick), restored.poll_feedback(tick));
            let next = sync(
                10 + tick,
                SyncMessage::Measurement {
                    z: Vector::from_slice(&[tick as f64 * 0.5]),
                },
            )
            .encode();
            live.receive(tick, &next);
            restored.receive(tick, &next);
        }
        assert_eq!(live.filter().model().name(), "constant_velocity");
        assert_eq!(live.syncs_applied(), 5 + 4 + 3);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let states = vec![(0u32, endpoint().state())];
        let wire = encode_snapshot(7, &states);
        // Flip one bit at a time across the whole file: the CRC (or, for
        // bytes inside the CRC itself, the mismatch) must catch each one.
        for pos in 0..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "single-bit corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let states = vec![(0u32, endpoint().state())];
        let wire = encode_snapshot(7, &states);
        for len in 0..wire.len() {
            assert!(
                decode_snapshot(&wire[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let states = vec![(0u32, endpoint().state())];
        let mut wire = encode_snapshot(7, &states);
        wire[4] = 9; // version field
        let fixed = crc32(&wire[..wire.len() - 4]).to_le_bytes();
        let n = wire.len();
        wire[n - 4..].copy_from_slice(&fixed);
        assert_eq!(decode_snapshot(&wire), Err(SnapshotError::BadVersion(9)));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC the sliced one replaced, kept as its oracle.
    pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc_in_every_split_matches_the_byte_loop() {
        // Every alignment of the 8-byte step against the byte tail, up to a
        // benchmark-sized WAL record (6 319 bytes).
        for len in (0..=17).chain([63, 64, 6_319]) {
            let input: Vec<u8> = (0..len)
                .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
                .collect();
            let want = crc32_bytewise(&input);
            assert_eq!(crc32(&input), want, "one-shot, len {len}");
            for cut in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&input[..cut]);
                crc.update(&input[cut..]);
                assert_eq!(crc.finish(), want, "len {len}, split at {cut}");
            }
        }
    }
}
