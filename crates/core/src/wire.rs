//! Binary wire format for sync messages.
//!
//! A hand-rolled little-endian codec: the build has no serialisation
//! crate, and experiment T3 reports exact bytes-on-the-wire per policy, so
//! the encoding must be explicit and minimal. Layout (all integers
//! little-endian):
//!
//! ```text
//! message   := tag:u8 body
//! tag       := 1 (State) | 2 (Model) | 3 (Measurement)
//! State     := vec(x) utri(P)            — P is x.dim() × x.dim()
//! Model     := name_len:u16 name:utf8 flags:u8 n:u16 m:u16
//!              F:(utri|full) Q:utri H:full(m×n) R:utri x:f64[n] P:utri
//! Measurement := vec(z)
//! vec(v)    := len:u32 f64[len]
//! utri(M)   := f64[n(n+1)/2]             — upper triangle, row-major
//! full(M)   := f64[rows·cols]            — row-major, headerless
//! flags     := bit 0: F is upper-triangular and sent as utri(F)
//! ```
//!
//! **Triangle packing.** Covariance matrices (`P`, `Q`, `R`) are symmetric,
//! so only the upper triangle travels — `n(n+1)/2` instead of `n²` doubles —
//! and the decoder mirrors it back. The Kalman layer re-symmetrises after
//! every covariance update ([`kalstream_linalg::Matrix::symmetrize_mut`]
//! writes the *same* f64 to both halves), so for every message the protocol
//! produces the round trip is bit-exact. For hand-built messages the
//! contract is: the wire carries the **upper triangle**; a bitwise
//! asymmetric lower triangle is discarded in transit. Kinematic transition
//! matrices (`F` for random-walk/CV/CA models) are upper-triangular, so `F`
//! is triangle-packed too when (and only when) its sub-diagonal entries are
//! bitwise `+0.0`, signalled by a flags bit. Matrix dimensions implied by
//! context (P's by `x`, the model's by one `n:u16 m:u16` pair) are not
//! re-sent. Experiment T3 recorded the measured savings when packing landed
//! (EXPERIMENTS.md); `bench_ingest` pins the packed byte total exactly.
//!
//! **Two representations, one validator.** A sync on the move is a
//! [`SyncRef`]: a *view* of validated wire bytes (`x`, the packed triangle of
//! `P`, … as [`F64s`] sub-slices), a few words wide whatever the state
//! dimension. [`SyncRef::parse`] is the only code that checks a buffer
//! (truncation, trailing bytes, unknown tag, reserved flags, the element
//! limit); the source encodes into a buffer it owns and hands out views of
//! it, the frame layer hands views of the tick buffer to the endpoints, the
//! endpoints queue the viewed bytes and apply them from the queue — nothing
//! in between builds a `Vector` or a `Matrix`. The owned [`SyncMessage`] /
//! [`WireMessage`] are the value types tests, snapshots and diagnostics
//! hold; [`SyncMessage::decode`] is `SyncRef::parse(..)?.to_owned()`.

use bytes::{Buf, BufMut, Bytes};
use kalstream_filter::StateModel;
use kalstream_linalg::{Matrix, Vector};

use crate::{CoreError, Result};

/// A protocol sync message, owned — the value type of tests, snapshots and
/// diagnostics. The protocol's own paths carry [`SyncRef`] views instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncMessage {
    /// Corrected state and covariance; model unchanged.
    State {
        /// Corrected (pinned) state estimate.
        x: Vector,
        /// State covariance at the source.
        p: Matrix,
    },
    /// Model replacement plus corrected state — sent when the source's
    /// adaptive layer changed the model since the last sync.
    Model {
        /// The new model (including adapted `Q`/`R`). Boxed: a model is
        /// four inline matrices (2.2 KB), and sized by it every `State`
        /// message — the common one, 21 bytes on the wire — would be too.
        model: Box<StateModel>,
        /// Corrected (pinned) state estimate under the new model.
        x: Vector,
        /// State covariance under the new model.
        p: Matrix,
    },
    /// Raw measurement; the server runs a standard filter update
    /// ([`crate::ResyncPayload::MeasurementOnly`] mode).
    Measurement {
        /// The observation.
        z: Vector,
    },
}

const TAG_STATE: u8 = 1;
const TAG_MODEL: u8 = 2;
const TAG_MEASUREMENT: u8 = 3;
/// v3: a sequenced sync — `seq:u64` followed by an ordinary v2 body.
const TAG_SEQ: u8 = 4;
/// v3: a cumulative acknowledgement — `seq:u64`, travelling server→source.
const TAG_ACK: u8 = 5;
/// v3: a precision-bound directive — `delta:f64`, travelling server→source
/// on the feedback link (the query graph's downstream-bound propagation).
const TAG_BOUND: u8 = 6;

/// Bytes a sequence header (`TAG_SEQ seq:u64`) puts in front of a sync body;
/// also the whole length of an ack or a bound directive.
pub(crate) const SEQ_HEADER_BYTES: usize = 1 + 8;

/// Flags bit 0: the model's `F` is upper-triangular and triangle-packed.
const FLAG_F_UPPER_TRIANGULAR: u8 = 1;

/// Number of f64s in the upper triangle of an `n × n` matrix.
fn tri_elems(n: usize) -> usize {
    n * (n + 1) / 2
}

/// `true` when every sub-diagonal entry is bitwise `+0.0` — the exact
/// condition under which triangle-packing `F` round-trips losslessly
/// (`-0.0` would not survive, so it disables packing).
fn is_upper_triangular(m: &Matrix) -> bool {
    let zero = 0.0_f64.to_bits();
    (1..m.rows()).all(|r| (0..r).all(|c| m.get(r, c).to_bits() == zero))
}

/// Builds the one `Bytes` a message leaves as: bodies up to
/// [`STACK_ENCODE_BYTES`] are written on the stack and copied once into
/// their allocation (`BytesMut::freeze` costs a second allocation, a copy
/// and a free); larger ones — model syncs of wide models — go through a
/// `Vec`.
fn encode_once(len: usize, write: impl FnOnce(&mut dyn BufMut)) -> Bytes {
    if len <= STACK_ENCODE_BYTES {
        let mut buf = StackBuf {
            len: 0,
            bytes: [0; STACK_ENCODE_BYTES],
        };
        write(&mut buf);
        Bytes::copy_from_slice(&buf.bytes[..buf.len])
    } else {
        let mut buf = Vec::with_capacity(len);
        write(&mut buf);
        Bytes::from(buf)
    }
}

/// Holds every State sync up to the 8-state cap with its sequence header
/// (`9 + 1 + 4 + 8·8 + 8·36 = 366`).
const STACK_ENCODE_BYTES: usize = 384;

struct StackBuf {
    len: usize,
    bytes: [u8; STACK_ENCODE_BYTES],
}

impl BufMut for StackBuf {
    fn put_slice(&mut self, s: &[u8]) {
        self.bytes[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }
}

/// Appends a State sync body cut from borrowed parts: `x` and the upper
/// triangle of `p`. [`SyncMessage::encode_into`] and the source's sync path
/// both write through here.
pub(crate) fn put_state<B: BufMut + ?Sized>(buf: &mut B, x: &[f64], p: &Matrix) {
    buf.put_u8(TAG_STATE);
    put_vec(buf, x);
    put_upper_triangle(buf, p);
}

/// Appends a Model sync body cut from borrowed parts.
pub(crate) fn put_model<B: BufMut + ?Sized>(
    buf: &mut B,
    model: &StateModel,
    x: &[f64],
    p: &Matrix,
) {
    buf.put_u8(TAG_MODEL);
    let name = model.name().as_bytes();
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
    let f_tri = is_upper_triangular(model.f());
    buf.put_u8(if f_tri { FLAG_F_UPPER_TRIANGULAR } else { 0 });
    buf.put_u16_le(model.state_dim() as u16);
    buf.put_u16_le(model.measurement_dim() as u16);
    if f_tri {
        put_upper_triangle(buf, model.f());
    } else {
        put_f64s(buf, model.f().as_slice());
    }
    put_upper_triangle(buf, model.q());
    put_f64s(buf, model.h().as_slice());
    put_upper_triangle(buf, model.r());
    put_f64s(buf, x);
    put_upper_triangle(buf, p);
}

/// Appends a Measurement sync body.
pub(crate) fn put_measurement<B: BufMut + ?Sized>(buf: &mut B, z: &[f64]) {
    buf.put_u8(TAG_MEASUREMENT);
    put_vec(buf, z);
}

/// The 9 bytes of a sequence header; the sync body follows it.
pub(crate) fn seq_header(seq: u64) -> [u8; SEQ_HEADER_BYTES] {
    tagged_u64(TAG_SEQ, seq)
}

/// The 9 bytes of an ack.
pub(crate) fn ack_bytes(seq: u64) -> [u8; SEQ_HEADER_BYTES] {
    tagged_u64(TAG_ACK, seq)
}

/// The 9 bytes of a bound directive.
pub(crate) fn bound_bytes(delta: f64) -> [u8; SEQ_HEADER_BYTES] {
    tagged_u64(TAG_BOUND, delta.to_bits())
}

fn tagged_u64(tag: u8, bits: u64) -> [u8; SEQ_HEADER_BYTES] {
    let mut out = [tag; SEQ_HEADER_BYTES];
    out[1..].copy_from_slice(&bits.to_le_bytes());
    out
}

impl SyncMessage {
    /// Encodes to a freshly allocated wire buffer (one allocation for
    /// anything but a wide model sync).
    pub fn encode(&self) -> Bytes {
        encode_once(self.encoded_len(), |buf| self.encode_into(buf))
    }

    /// Appends the wire encoding to `buf` — the allocation-free kernel the
    /// frame layer batches through (mirroring the `_into` convention of the
    /// linear-algebra kernels). Exactly [`SyncMessage::encoded_len`] bytes
    /// are written.
    pub fn encode_into<B: BufMut + ?Sized>(&self, buf: &mut B) {
        match self {
            SyncMessage::State { x, p } => put_state(buf, x.as_slice(), p),
            SyncMessage::Model { model, x, p } => put_model(buf, model, x.as_slice(), p),
            SyncMessage::Measurement { z } => put_measurement(buf, z.as_slice()),
        }
    }

    /// Exact encoded size in bytes, used to pre-size buffers, by the frame
    /// layer's length prefixes, and by experiment T3's byte accounting.
    pub fn encoded_len(&self) -> usize {
        match self {
            SyncMessage::State { x, p } => 1 + vec_len(x) + 8 * tri_elems(p.rows()),
            SyncMessage::Model { model, x, p } => {
                let n = model.state_dim();
                let m = model.measurement_dim();
                let f_elems = if is_upper_triangular(model.f()) {
                    tri_elems(n)
                } else {
                    n * n
                };
                1 + 2
                    + model.name().len()
                    + 1 // flags
                    + 2 // n
                    + 2 // m
                    + 8 * (f_elems + tri_elems(n) + m * n + tri_elems(m) + x.dim() + tri_elems(p.rows()))
            }
            SyncMessage::Measurement { z } => 1 + vec_len(z),
        }
    }

    /// Decodes a wire buffer: [`SyncRef::parse`], then
    /// [`SyncRef::to_owned`].
    ///
    /// # Errors
    /// As [`SyncRef::parse`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        SyncRef::parse(buf).map(|view| view.to_owned())
    }
}

/// `f64`s borrowed from a wire buffer: little-endian, unaligned, read one
/// at a time by whoever consumes them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct F64s<'a>(&'a [u8]);

impl<'a> F64s<'a> {
    /// Number of values.
    pub fn len(self) -> usize {
        self.0.len() / 8
    }

    /// `true` when there are none.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The values, in wire order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.0
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("chunks of 8")))
    }

    /// Reads the values into the front of `buf` and returns that prefix —
    /// how a consumer that needs a `&[f64]` (a measurement update) gets one
    /// on its stack. `None` when there are more values than `buf` holds.
    pub(crate) fn read_into(self, buf: &mut [f64]) -> Option<&[f64]> {
        let buf = buf.get_mut(..self.len())?;
        for (dst, v) in buf.iter_mut().zip(self.iter()) {
            *dst = v;
        }
        Some(buf)
    }

    fn to_vector(self) -> Vector {
        let mut v = Vector::zeros(self.len());
        for (dst, src) in v.as_mut_slice().iter_mut().zip(self.iter()) {
            *dst = src;
        }
        v
    }

    /// A row-major `rows × cols` matrix.
    fn to_full(self, rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for (dst, src) in m.as_mut_slice().iter_mut().zip(self.iter()) {
            *dst = src;
        }
        m
    }

    /// An `n × n` matrix from its packed upper triangle: mirrored below the
    /// diagonal when `mirror`, `+0.0` there otherwise.
    fn to_triangular(self, n: usize, mirror: bool) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        let mut values = self.iter();
        for r in 0..n {
            for c in r..n {
                let v = values.next().expect("parse sized the triangle");
                m.set(r, c, v);
                if mirror {
                    m.set(c, r, v);
                }
            }
        }
        m
    }
}

impl std::fmt::Debug for F64s<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A sync message as a view of validated wire bytes — see the module docs.
/// `Copy`, and a few words wide whatever the state dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncRef<'a> {
    /// Corrected state and covariance; model unchanged.
    State {
        /// Corrected (pinned) state estimate.
        x: F64s<'a>,
        /// Packed upper triangle of the state covariance
        /// (`x.len()·(x.len()+1)/2` values, row-major).
        p: F64s<'a>,
    },
    /// Model replacement plus corrected state.
    Model(ModelRef<'a>),
    /// Raw measurement.
    Measurement {
        /// The observation.
        z: F64s<'a>,
    },
}

/// The body of a Model sync, viewed: the header fields and the six
/// back-to-back `f64` runs that follow it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelRef<'a> {
    name: &'a str,
    f_upper: bool,
    n: u16,
    m: u16,
    /// `F Q H R x P`, each run's length fixed by `n`, `m` and `f_upper`.
    values: F64s<'a>,
}

impl<'a> ModelRef<'a> {
    /// Model name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        self.n as usize
    }

    /// Measurement dimension.
    pub fn measurement_dim(&self) -> usize {
        self.m as usize
    }

    /// Elements in each of the six runs, in wire order: `F Q H R x P`.
    fn run_lens(n: usize, m: usize, f_upper: bool) -> [usize; 6] {
        let f = if f_upper { tri_elems(n) } else { n * n };
        [f, tri_elems(n), m * n, tri_elems(m), n, tri_elems(n)]
    }

    /// The model, the state and the covariance as owned values.
    pub fn to_owned(&self) -> (StateModel, Vector, Matrix) {
        let (n, m) = (self.state_dim(), self.measurement_dim());
        let mut rest = self.values.0;
        let [f, q, h, r, x, p] = Self::run_lens(n, m, self.f_upper).map(|elems| {
            let (run, tail) = rest.split_at(8 * elems);
            rest = tail;
            F64s(run)
        });
        let f = if self.f_upper {
            // Kinematic F: mirror-free reconstruction with exact +0.0 below
            // the diagonal (the encoder only sets the flag when that is
            // bit-exact).
            f.to_triangular(n, false)
        } else {
            f.to_full(n, n)
        };
        let model = StateModel::new(
            self.name,
            f,
            q.to_triangular(n, true),
            h.to_full(m, n),
            r.to_triangular(m, true),
        )
        .expect("one (n, m) pair sizes every matrix: the shapes cannot disagree");
        (model, x.to_vector(), p.to_triangular(n, true))
    }
}

impl<'a> SyncRef<'a> {
    /// Validates `buf` as one sync message body (tags 1–3) and returns the
    /// view of it — the workspace's only wire validator.
    ///
    /// # Errors
    /// [`CoreError::Decode`] on truncation, trailing bytes, unknown tags,
    /// bad UTF-8, reserved flag bits, or lengths past the element limit.
    /// (An embedded model cannot be *inconsistent*: one `n:u16 m:u16` pair
    /// sizes all four matrices, so a wrong dimension shows as truncation or
    /// trailing bytes.)
    pub fn parse(mut buf: &'a [u8]) -> Result<Self> {
        let tag = get_u8(&mut buf)?;
        let msg = match tag {
            TAG_STATE => {
                let x = get_vec(&mut buf)?;
                let p = get_triangle(&mut buf, x.len(), "symmetric matrix")?;
                SyncRef::State { x, p }
            }
            TAG_MODEL => {
                let name_len = get_u16(&mut buf)? as usize;
                if buf.remaining() < name_len {
                    return Err(decode_err("truncated model name"));
                }
                let name = std::str::from_utf8(&buf[..name_len])
                    .map_err(|e| decode_err(&format!("model name not utf-8: {e}")))?;
                buf.advance(name_len);
                let flags = get_u8(&mut buf)?;
                if flags & !FLAG_F_UPPER_TRIANGULAR != 0 {
                    return Err(decode_err(&format!("reserved flag bits set: {flags:#x}")));
                }
                let f_upper = flags & FLAG_F_UPPER_TRIANGULAR != 0;
                let n = get_u16(&mut buf)?;
                let m = get_u16(&mut buf)?;
                let (nn, mm) = (n as usize, m as usize);
                check_dims(nn, nn)?;
                check_dims(mm, nn.max(mm))?;
                let values = buf;
                if f_upper {
                    get_triangle(&mut buf, nn, "triangular matrix")?;
                } else {
                    get_f64s(&mut buf, nn * nn, "matrix")?;
                }
                get_triangle(&mut buf, nn, "symmetric matrix")?;
                get_f64s(&mut buf, mm * nn, "matrix")?;
                get_triangle(&mut buf, mm, "symmetric matrix")?;
                get_f64s(&mut buf, nn, "vector")?;
                get_triangle(&mut buf, nn, "symmetric matrix")?;
                SyncRef::Model(ModelRef {
                    name,
                    f_upper,
                    n,
                    m,
                    values: F64s(&values[..values.len() - buf.len()]),
                })
            }
            TAG_MEASUREMENT => SyncRef::Measurement {
                z: get_vec(&mut buf)?,
            },
            other => return Err(decode_err(&format!("unknown tag {other}"))),
        };
        if buf.has_remaining() {
            return Err(decode_err(&format!("{} trailing bytes", buf.remaining())));
        }
        Ok(msg)
    }

    /// The message as an owned value.
    pub fn to_owned(&self) -> SyncMessage {
        match self {
            SyncRef::State { x, p } => SyncMessage::State {
                x: x.to_vector(),
                p: p.to_triangular(x.len(), true),
            },
            SyncRef::Model(model) => {
                let (model, x, p) = model.to_owned();
                SyncMessage::Model {
                    model: Box::new(model),
                    x,
                    p,
                }
            }
            SyncRef::Measurement { z } => SyncMessage::Measurement { z: z.to_vector() },
        }
    }
}

/// A v3 wire message: everything that can travel on a link.
///
/// The loss-tolerant delivery layer wraps sync messages in an optional
/// **sequence header** (tag 4) and adds two reverse-direction messages: the
/// **ack** (tag 5) and the **bound directive** (tag 6).
/// Decoding is backward compatible with v2: a buffer starting with tags 1–3
/// is an unsequenced legacy sync, bit-identical to what
/// [`SyncMessage::decode`] accepts, and `Sync { seq: None, .. }` encodes to
/// exactly the v2 bytes — sessions that never enable recovery produce and
/// consume v2 traffic unchanged.
#[derive(Debug, Clone, PartialEq)]
// A value type off the protocol's paths (those carry `WireRef`), and almost
// every instance is the large variant.
#[allow(clippy::large_enum_variant)]
pub enum WireMessage {
    /// A sync message, optionally carrying a delivery sequence number
    /// (assigned by the source when ack-based recovery is enabled; `None`
    /// encodes the legacy v2 format).
    Sync {
        /// Monotonically increasing per-stream sequence number, starting
        /// at 1. `None` for legacy unsequenced traffic.
        seq: Option<u64>,
        /// The sync payload.
        msg: SyncMessage,
    },
    /// Cumulative acknowledgement: the server has applied every sync it
    /// will ever apply up to and including `seq` (later-delivered lower
    /// sequence numbers are dropped as stale, so the watermark is exact).
    Ack {
        /// Highest sequence number applied by the server.
        seq: u64,
    },
    /// Precision-bound directive, travelling server→source on the feedback
    /// link: the consumer side (query graph / fleet allocator) instructs
    /// the producer to adopt a new suppression bound `δ`. Last writer wins;
    /// a lost directive leaves the previous (by construction still sound)
    /// bound in force, so no retransmission machinery is needed.
    Bound {
        /// The new suppression bound. Must be finite and strictly positive;
        /// the decoder rejects anything else so a corrupted directive can
        /// never loosen a producer to a nonsensical bound.
        delta: f64,
    },
}

impl WireMessage {
    /// Encodes to a freshly allocated wire buffer.
    pub fn encode(&self) -> Bytes {
        encode_once(self.encoded_len(), |buf| self.encode_into(buf))
    }

    /// Appends the wire encoding to `buf`. Exactly
    /// [`WireMessage::encoded_len`] bytes are written.
    pub fn encode_into<B: BufMut + ?Sized>(&self, buf: &mut B) {
        match self {
            WireMessage::Sync { seq, msg } => {
                if let Some(seq) = seq {
                    buf.put_slice(&seq_header(*seq));
                }
                msg.encode_into(buf);
            }
            WireMessage::Ack { seq } => buf.put_slice(&ack_bytes(*seq)),
            WireMessage::Bound { delta } => buf.put_slice(&bound_bytes(*delta)),
        }
    }

    /// Exact encoded size in bytes. An unsequenced sync costs exactly its
    /// [`SyncMessage::encoded_len`]; a sequence header adds 9 bytes; acks
    /// and bound directives are 9 bytes total.
    pub fn encoded_len(&self) -> usize {
        match self {
            WireMessage::Sync { seq: None, msg } => msg.encoded_len(),
            WireMessage::Sync { seq: Some(_), msg } => SEQ_HEADER_BYTES + msg.encoded_len(),
            WireMessage::Ack { .. } | WireMessage::Bound { .. } => SEQ_HEADER_BYTES,
        }
    }

    /// Decodes a wire buffer, accepting both v3 (tags 4–6) and legacy v2
    /// (tags 1–3, decoded as an unsequenced sync): [`WireRef::parse`], then
    /// [`WireRef::to_owned`].
    ///
    /// # Errors
    /// As [`WireRef::parse`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        WireRef::parse(buf).map(|view| view.to_owned())
    }
}

/// A [`WireMessage`] as a view of validated wire bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireRef<'a> {
    /// A sync message, optionally sequenced.
    Sync {
        /// The delivery sequence number, when the source assigns them.
        seq: Option<u64>,
        /// The validated sync body (what a pending queue stores).
        body: &'a [u8],
        /// The view of `body`.
        msg: SyncRef<'a>,
    },
    /// Cumulative acknowledgement.
    Ack {
        /// Highest sequence number applied by the server.
        seq: u64,
    },
    /// Precision-bound directive (finite and strictly positive).
    Bound {
        /// The new suppression bound.
        delta: f64,
    },
}

impl<'a> WireRef<'a> {
    /// Validates `buf` as one v3 wire message (tags 4–6) or legacy v2 sync
    /// (tags 1–3, an unsequenced sync).
    ///
    /// # Errors
    /// [`CoreError::Decode`] on truncation, trailing bytes, a non-positive
    /// or non-finite bound, or a malformed inner sync body
    /// ([`SyncRef::parse`]).
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        let sync = |seq, body| SyncRef::parse(body).map(|msg| WireRef::Sync { seq, body, msg });
        match buf.first() {
            Some(&TAG_SEQ) => {
                let mut rest = &buf[1..];
                let seq = get_u64(&mut rest)?;
                sync(Some(seq), rest)
            }
            Some(&TAG_ACK) => {
                let mut rest = &buf[1..];
                let seq = get_u64(&mut rest)?;
                if rest.has_remaining() {
                    return Err(decode_err(&format!("{} trailing bytes", rest.remaining())));
                }
                Ok(WireRef::Ack { seq })
            }
            Some(&TAG_BOUND) => {
                let mut rest = &buf[1..];
                let delta = f64::from_bits(get_u64(&mut rest)?);
                if rest.has_remaining() {
                    return Err(decode_err(&format!("{} trailing bytes", rest.remaining())));
                }
                if !delta.is_finite() || delta <= 0.0 {
                    return Err(decode_err(&format!("bound delta {delta} not positive")));
                }
                Ok(WireRef::Bound { delta })
            }
            _ => sync(None, buf),
        }
    }

    /// The message as an owned value.
    pub fn to_owned(&self) -> WireMessage {
        match *self {
            WireRef::Sync { seq, msg, .. } => WireMessage::Sync {
                seq,
                msg: msg.to_owned(),
            },
            WireRef::Ack { seq } => WireMessage::Ack { seq },
            WireRef::Bound { delta } => WireMessage::Bound { delta },
        }
    }
}

fn decode_err(reason: &str) -> CoreError {
    CoreError::Decode {
        reason: reason.to_string(),
    }
}

fn vec_len(v: &Vector) -> usize {
    4 + 8 * v.dim()
}

fn put_vec<B: BufMut + ?Sized>(buf: &mut B, v: &[f64]) {
    buf.put_u32_le(v.len() as u32);
    put_f64s(buf, v);
}

/// Writes the upper triangle of a square matrix, row-major
/// (row `i` contributes columns `i..n`).
fn put_upper_triangle<B: BufMut + ?Sized>(buf: &mut B, m: &Matrix) {
    debug_assert!(m.is_square());
    let n = m.rows();
    for r in 0..n {
        put_f64s(buf, &m.row(r)[r..]);
    }
}

/// Writes `f64`s back to back (a full matrix row-major, a vector body).
fn put_f64s<B: BufMut + ?Sized>(buf: &mut B, values: &[f64]) {
    for &x in values {
        buf.put_f64_le(x);
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(decode_err("truncated tag"));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(decode_err("truncated u16"));
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(decode_err("truncated u32"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(decode_err("truncated u64"));
    }
    Ok(buf.get_u64_le())
}

/// Guard against adversarial length prefixes: no legitimate message in this
/// system has vectors/matrices beyond a few dozen elements.
const MAX_ELEMS: u64 = 1 << 16;

/// Rejects matrix dimensions whose full form would exceed [`MAX_ELEMS`]
/// (matches the old per-matrix-header guard: at most 256 × 256).
fn check_dims(rows: usize, cols: usize) -> Result<()> {
    if (rows as u64) * (cols as u64) > MAX_ELEMS {
        return Err(decode_err(&format!("matrix {rows}x{cols} exceeds limit")));
    }
    Ok(())
}

/// Takes a length-prefixed vector (`len:u32 f64[len]`).
fn get_vec<'a>(buf: &mut &'a [u8]) -> Result<F64s<'a>> {
    let n = get_u32(buf)? as u64;
    if n > MAX_ELEMS {
        return Err(decode_err(&format!("vector length {n} exceeds limit")));
    }
    get_f64s(buf, n as usize, "vector")
}

/// Takes `elems` headerless `f64`s; `what` names them in the truncation
/// error.
fn get_f64s<'a>(buf: &mut &'a [u8], elems: usize, what: &str) -> Result<F64s<'a>> {
    if (buf.remaining() as u64) < 8 * elems as u64 {
        return Err(decode_err(&format!("truncated {what} body")));
    }
    let (run, rest) = buf.split_at(8 * elems);
    *buf = rest;
    Ok(F64s(run))
}

/// Takes the packed upper triangle of an `n × n` matrix.
fn get_triangle<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<F64s<'a>> {
    check_dims(n, n)?;
    get_f64s(buf, tri_elems(n), what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use kalstream_filter::models;

    fn state_msg() -> SyncMessage {
        SyncMessage::State {
            x: Vector::from_slice(&[1.5, -2.5]),
            p: Matrix::from_rows(&[&[1.0, 0.1], &[0.1, 2.0]]),
        }
    }

    #[test]
    fn state_roundtrip() {
        let msg = state_msg();
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn model_roundtrip() {
        let msg = SyncMessage::Model {
            model: Box::new(models::constant_velocity(1.0, 0.01, 0.5)),
            x: Vector::from_slice(&[1.0, 0.2]),
            p: Matrix::scalar(2, 0.3),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn model_roundtrip_non_triangular_f() {
        // A harmonic-oscillator style F has a non-zero sub-diagonal: the
        // triangle flag must stay clear and the full matrix must survive.
        let f = Matrix::from_rows(&[&[0.9, 0.4], &[-0.4, 0.9]]);
        let model = StateModel::new(
            "rotation",
            f,
            Matrix::scalar(2, 0.01),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::scalar(1, 0.1),
        )
        .unwrap();
        let msg = SyncMessage::Model {
            model: Box::new(model),
            x: Vector::from_slice(&[1.0, 0.0]),
            p: Matrix::scalar(2, 1.0),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn measurement_roundtrip() {
        let msg = SyncMessage::Measurement {
            z: Vector::from_slice(&[3.25]),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
        // Measurement messages are the smallest: tag + len + one f64.
        assert_eq!(bytes.len(), 1 + 4 + 8);
    }

    #[test]
    fn encode_into_appends_to_caller_buffer() {
        // The pooled-buffer kernel: successive messages append, lengths are
        // exact, and the concatenation splits back into the originals.
        let a = state_msg();
        let b = SyncMessage::Measurement {
            z: Vector::from_slice(&[7.0]),
        };
        let mut buf = BytesMut::with_capacity(a.encoded_len() + b.encoded_len());
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), a.encoded_len());
        b.encode_into(&mut buf);
        assert_eq!(buf.len(), a.encoded_len() + b.encoded_len());
        assert_eq!(SyncMessage::decode(&buf[..a.encoded_len()]).unwrap(), a);
        assert_eq!(SyncMessage::decode(&buf[a.encoded_len()..]).unwrap(), b);
        // And the allocating spelling is the same bytes.
        assert_eq!(&a.encode()[..], &buf[..a.encoded_len()]);
    }

    #[test]
    fn encoded_len_exact_for_all_tags() {
        let msgs = [
            state_msg(),
            SyncMessage::Model {
                model: Box::new(models::constant_velocity_2d(1.0, 0.05, 3.0)),
                x: Vector::from_slice(&[1.0, 0.1, 2.0, -0.1]),
                p: Matrix::scalar(4, 0.5),
            },
            SyncMessage::Measurement {
                z: Vector::from_slice(&[1.0, 2.0]),
            },
        ];
        for msg in &msgs {
            let mut buf = BytesMut::new();
            msg.encode_into(&mut buf);
            assert_eq!(
                buf.len(),
                msg.encoded_len(),
                "encoded_len drift for {msg:?}"
            );
        }
    }

    #[test]
    fn triangle_packing_shrinks_covariances() {
        // 4-state state sync: P travels as 10 f64s instead of a 16-f64
        // matrix with an 8-byte header.
        let msg = SyncMessage::State {
            x: Vector::zeros(4),
            p: Matrix::scalar(4, 1.0),
        };
        assert_eq!(msg.encoded_len(), 1 + (4 + 32) + 80);
        // Model sync on the scalar walk: tag, name, flags + `n m`, and the
        // six scalars F Q H R x P — no per-matrix header, no length for x.
        let model = models::random_walk(0.1, 0.1);
        let name = model.name().len();
        let model_msg = SyncMessage::Model {
            model: Box::new(model),
            x: Vector::zeros(1),
            p: Matrix::scalar(1, 1.0),
        };
        assert_eq!(
            model_msg.encoded_len(),
            1 + (2 + name) + (1 + 2 + 2) + 8 * 6
        );
        assert_eq!(model_msg.encode().len(), model_msg.encoded_len());
    }

    #[test]
    fn asymmetric_lower_triangle_is_discarded_in_transit() {
        // The wire contract: symmetric slots carry the upper triangle; a
        // hand-built asymmetric P comes back mirrored.
        let msg = SyncMessage::State {
            x: Vector::from_slice(&[0.0, 0.0]),
            p: Matrix::from_rows(&[&[1.0, 0.5], &[999.0, 2.0]]),
        };
        match SyncMessage::decode(&msg.encode()).unwrap() {
            SyncMessage::State { p, .. } => {
                assert_eq!(p.get(1, 0), 0.5);
                assert_eq!(p.get(0, 1), 0.5);
            }
            other => panic!("expected State, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(matches!(
            SyncMessage::decode(&[99]),
            Err(CoreError::Decode { .. })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        for msg in [
            state_msg(),
            SyncMessage::Model {
                model: Box::new(models::constant_velocity(1.0, 0.01, 0.5)),
                x: Vector::from_slice(&[1.0, 0.2]),
                p: Matrix::scalar(2, 0.3),
            },
        ] {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    SyncMessage::decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = state_msg().encode().to_vec();
        bytes.push(0);
        assert!(matches!(
            SyncMessage::decode(&bytes),
            Err(CoreError::Decode { reason }) if reason.contains("trailing")
        ));
    }

    #[test]
    fn rejects_huge_length_prefix() {
        // Tag State + vector claiming u32::MAX elements.
        let mut buf = vec![TAG_STATE];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SyncMessage::decode(&buf),
            Err(CoreError::Decode { reason }) if reason.contains("limit")
        ));
    }

    #[test]
    fn rejects_huge_symmetric_dim() {
        // A 1024-dim state would imply a 1024² covariance: over the element
        // limit, rejected before any allocation.
        let mut buf = vec![TAG_STATE];
        buf.extend_from_slice(&1024u32.to_le_bytes());
        buf.extend(std::iter::repeat_n(0u8, 8 * 1024));
        assert!(matches!(
            SyncMessage::decode(&buf),
            Err(CoreError::Decode { reason }) if reason.contains("limit")
        ));
    }

    #[test]
    fn rejects_reserved_flag_bits() {
        let msg = SyncMessage::Model {
            model: Box::new(models::random_walk(0.1, 0.2)),
            x: Vector::from_slice(&[0.0]),
            p: Matrix::scalar(1, 1.0),
        };
        let mut bytes = msg.encode().to_vec();
        // name "random_walk" is 11 bytes; flags live at 1 (tag) + 2 (len)
        // + 11 = offset 14.
        bytes[14] |= 0x80;
        assert!(matches!(
            SyncMessage::decode(&bytes),
            Err(CoreError::Decode { reason }) if reason.contains("flag")
        ));
    }

    #[test]
    fn rejects_inconsistent_model() {
        // Encode a model message, then corrupt the state dimension: every
        // body length downstream of the header stops matching.
        let msg = SyncMessage::Model {
            model: Box::new(models::random_walk(0.1, 0.2)),
            x: Vector::from_slice(&[0.0]),
            p: Matrix::scalar(1, 1.0),
        };
        let bytes = msg.encode().to_vec();
        // Layout: tag 1 + name_len 2 + name 11 + flags 1 → n:u16 at 15.
        let mut corrupt = bytes.clone();
        corrupt[15] = 2; // n := 2 — but the body is sized for n = 1.
        assert!(SyncMessage::decode(&corrupt).is_err());
    }

    #[test]
    fn state_message_size_scales_with_dim() {
        let small = SyncMessage::State {
            x: Vector::zeros(1),
            p: Matrix::scalar(1, 1.0),
        };
        let large = SyncMessage::State {
            x: Vector::zeros(4),
            p: Matrix::scalar(4, 1.0),
        };
        assert!(large.encoded_len() > small.encoded_len());
        // Scalar: tag + vec(x) + one-element triangle.
        assert_eq!(small.encoded_len(), 1 + (4 + 8) + 8);
    }

    #[test]
    fn sequenced_sync_roundtrip() {
        let wire = WireMessage::Sync {
            seq: Some(42),
            msg: state_msg(),
        };
        let bytes = wire.encode();
        assert_eq!(bytes.len(), wire.encoded_len());
        assert_eq!(bytes.len(), 9 + state_msg().encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), wire);
    }

    #[test]
    fn ack_roundtrip() {
        let wire = WireMessage::Ack { seq: u64::MAX };
        let bytes = wire.encode();
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes.len(), wire.encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), wire);
    }

    #[test]
    fn bound_roundtrip() {
        let wire = WireMessage::Bound { delta: 0.25 };
        let bytes = wire.encode();
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes.len(), wire.encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), wire);
    }

    #[test]
    fn bound_rejects_non_positive_and_non_finite_delta() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = vec![TAG_BOUND];
            bytes.extend_from_slice(&bad.to_le_bytes());
            assert!(
                WireMessage::decode(&bytes).is_err(),
                "delta {bad} decoded successfully"
            );
        }
    }

    #[test]
    fn bound_rejects_truncation_and_trailing_bytes() {
        let bytes = WireMessage::Bound { delta: 1.5 }.encode();
        for cut in 0..bytes.len() {
            assert!(
                WireMessage::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(WireMessage::decode(&long).is_err());
    }

    #[test]
    fn legacy_decoder_rejects_bound_tag() {
        // A v2-only peer must not misinterpret a bound directive.
        let bytes = WireMessage::Bound { delta: 1.0 }.encode();
        assert!(SyncMessage::decode(&bytes).is_err());
    }

    #[test]
    fn unsequenced_sync_encodes_exact_v2_bytes() {
        // `seq: None` must be bit-identical to the legacy encoding so that
        // recovery-off sessions produce byte-for-byte v2 traffic.
        let msg = state_msg();
        let wire = WireMessage::Sync {
            seq: None,
            msg: msg.clone(),
        };
        assert_eq!(wire.encode(), msg.encode());
        assert_eq!(wire.encoded_len(), msg.encoded_len());
    }

    #[test]
    fn legacy_v2_bytes_decode_as_unsequenced_sync() {
        let msg = state_msg();
        let decoded = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, WireMessage::Sync { seq: None, msg });
    }

    #[test]
    fn legacy_decoder_rejects_v3_tags() {
        // A v2-only peer must not misinterpret sequenced traffic.
        let seq = WireMessage::Sync {
            seq: Some(7),
            msg: state_msg(),
        }
        .encode();
        assert!(SyncMessage::decode(&seq).is_err());
        let ack = WireMessage::Ack { seq: 7 }.encode();
        assert!(SyncMessage::decode(&ack).is_err());
    }

    #[test]
    fn wire_decode_rejects_truncation_at_every_prefix() {
        for wire in [
            WireMessage::Sync {
                seq: Some(9),
                msg: state_msg(),
            },
            WireMessage::Ack { seq: 9 },
        ] {
            let bytes = wire.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireMessage::decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn wire_decode_rejects_trailing_bytes() {
        for wire in [
            WireMessage::Sync {
                seq: Some(3),
                msg: state_msg(),
            },
            WireMessage::Ack { seq: 3 },
        ] {
            let mut bytes = wire.encode().to_vec();
            bytes.push(0);
            assert!(WireMessage::decode(&bytes).is_err());
        }
    }

    #[test]
    fn wire_decode_rejects_unknown_tag() {
        assert!(WireMessage::decode(&[99, 0, 0, 0]).is_err());
        assert!(WireMessage::decode(&[]).is_err());
    }

    #[test]
    fn owned_messages_stay_small() {
        // Footprint guard: sized by an inline `StateModel` the enum was
        // 2 816 bytes, moved by value at every hop of a 21-byte sync.
        assert!(
            std::mem::size_of::<SyncMessage>() <= 704,
            "SyncMessage grew to {} bytes",
            std::mem::size_of::<SyncMessage>()
        );
        assert!(std::mem::size_of::<WireMessage>() <= 720);
        assert!(std::mem::size_of::<WireRef<'_>>() <= 96);
    }

    #[test]
    fn views_read_what_the_owned_decoder_builds() {
        let bytes = state_msg().encode();
        match SyncRef::parse(&bytes).unwrap() {
            SyncRef::State { x, p } => {
                assert_eq!(x.iter().collect::<Vec<_>>(), [1.5, -2.5]);
                // Packed upper triangle, row-major.
                assert_eq!(p.iter().collect::<Vec<_>>(), [1.0, 0.1, 2.0]);
                assert_eq!((x.len(), p.len()), (2, 3));
            }
            other => panic!("expected State view, got {other:?}"),
        }
        let model = models::constant_velocity(1.0, 0.01, 0.5);
        let bytes = SyncMessage::Model {
            model: Box::new(model.clone()),
            x: Vector::from_slice(&[1.0, 0.2]),
            p: Matrix::scalar(2, 0.3),
        }
        .encode();
        match SyncRef::parse(&bytes).unwrap() {
            SyncRef::Model(view) => {
                assert_eq!(view.name(), "constant_velocity");
                assert_eq!((view.state_dim(), view.measurement_dim()), (2, 1));
                let (owned, x, p) = view.to_owned();
                assert_eq!(owned, model);
                assert_eq!(x, Vector::from_slice(&[1.0, 0.2]));
                assert_eq!(p, Matrix::scalar(2, 0.3));
            }
            other => panic!("expected Model view, got {other:?}"),
        }
        // A sequenced view remembers the body a pending queue stores.
        let wire = WireMessage::Sync {
            seq: Some(7),
            msg: state_msg(),
        }
        .encode();
        match WireRef::parse(&wire).unwrap() {
            WireRef::Sync { seq, body, msg } => {
                assert_eq!(seq, Some(7));
                assert_eq!(body, &state_msg().encode()[..]);
                assert_eq!(msg.to_owned(), state_msg());
            }
            other => panic!("expected Sync view, got {other:?}"),
        }
    }

    #[test]
    fn encode_is_the_same_bytes_on_every_route() {
        // Stack route, Vec route (a model too wide for the stack buffer)
        // and `encode_into` must agree.
        let wide = SyncMessage::Model {
            model: Box::new(models::constant_velocity_2d(1.0, 0.05, 3.0)),
            x: Vector::from_slice(&[1.0, 0.1, 2.0, -0.1]),
            p: Matrix::scalar(4, 0.5),
        };
        assert!(wide.encoded_len() > STACK_ENCODE_BYTES);
        for msg in [state_msg(), wide] {
            let mut reference = Vec::new();
            msg.encode_into(&mut reference);
            assert_eq!(&msg.encode()[..], &reference[..]);
            let sequenced = WireMessage::Sync {
                seq: Some(11),
                msg: msg.clone(),
            };
            let mut framed = seq_header(11).to_vec();
            framed.extend_from_slice(&reference);
            assert_eq!(&sequenced.encode()[..], &framed[..]);
        }
        assert_eq!(&WireMessage::Ack { seq: 5 }.encode()[..], &ack_bytes(5));
        assert_eq!(
            &WireMessage::Bound { delta: 0.5 }.encode()[..],
            &bound_bytes(0.5)
        );
    }

    /// The decoder as it stood before views existed — built values straight
    /// off the cursor, its own set of checks — kept verbatim as the oracle
    /// [`SyncRef::parse`] is held against.
    mod oracle {
        use super::super::*;

        pub fn decode_sync(mut buf: &[u8]) -> Result<SyncMessage> {
            let tag = get_u8(&mut buf)?;
            let msg = match tag {
                TAG_STATE => {
                    let x = get_vec(&mut buf)?;
                    let p = get_symmetric(&mut buf, x.dim())?;
                    SyncMessage::State { x, p }
                }
                TAG_MODEL => {
                    let name_len = get_u16(&mut buf)? as usize;
                    if buf.remaining() < name_len {
                        return Err(decode_err("truncated model name"));
                    }
                    let name = std::str::from_utf8(&buf[..name_len])
                        .map_err(|e| decode_err(&format!("model name not utf-8: {e}")))?
                        .to_string();
                    buf.advance(name_len);
                    let flags = get_u8(&mut buf)?;
                    if flags & !FLAG_F_UPPER_TRIANGULAR != 0 {
                        return Err(decode_err(&format!("reserved flag bits set: {flags:#x}")));
                    }
                    let n = get_u16(&mut buf)? as usize;
                    let m = get_u16(&mut buf)? as usize;
                    check_dims(n, n)?;
                    check_dims(m, n.max(m))?;
                    let f = if flags & FLAG_F_UPPER_TRIANGULAR != 0 {
                        get_upper_triangular(&mut buf, n)?
                    } else {
                        get_full(&mut buf, n, n)?
                    };
                    let q = get_symmetric(&mut buf, n)?;
                    let h = get_full(&mut buf, m, n)?;
                    let r = get_symmetric(&mut buf, m)?;
                    let x = get_fixed_vec(&mut buf, n)?;
                    let p = get_symmetric(&mut buf, n)?;
                    let model = StateModel::new(name, f, q, h, r)
                        .map_err(|e| decode_err(&format!("inconsistent model: {e}")))?;
                    SyncMessage::Model {
                        model: Box::new(model),
                        x,
                        p,
                    }
                }
                TAG_MEASUREMENT => SyncMessage::Measurement {
                    z: get_vec(&mut buf)?,
                },
                other => return Err(decode_err(&format!("unknown tag {other}"))),
            };
            if buf.has_remaining() {
                return Err(decode_err(&format!("{} trailing bytes", buf.remaining())));
            }
            Ok(msg)
        }

        pub fn decode_wire(buf: &[u8]) -> Result<WireMessage> {
            match buf.first() {
                Some(&TAG_SEQ) => {
                    let mut rest = &buf[1..];
                    let seq = get_u64(&mut rest)?;
                    let msg = decode_sync(rest)?;
                    Ok(WireMessage::Sync {
                        seq: Some(seq),
                        msg,
                    })
                }
                Some(&TAG_ACK) => {
                    let mut rest = &buf[1..];
                    let seq = get_u64(&mut rest)?;
                    if rest.has_remaining() {
                        return Err(decode_err(&format!("{} trailing bytes", rest.remaining())));
                    }
                    Ok(WireMessage::Ack { seq })
                }
                Some(&TAG_BOUND) => {
                    let mut rest = &buf[1..];
                    let delta = f64::from_bits(get_u64(&mut rest)?);
                    if rest.has_remaining() {
                        return Err(decode_err(&format!("{} trailing bytes", rest.remaining())));
                    }
                    if !delta.is_finite() || delta <= 0.0 {
                        return Err(decode_err(&format!("bound delta {delta} not positive")));
                    }
                    Ok(WireMessage::Bound { delta })
                }
                _ => decode_sync(buf).map(|msg| WireMessage::Sync { seq: None, msg }),
            }
        }

        fn get_vec(buf: &mut &[u8]) -> Result<Vector> {
            let n = get_u32(buf)? as u64;
            if n > MAX_ELEMS {
                return Err(decode_err(&format!("vector length {n} exceeds limit")));
            }
            get_fixed_vec(buf, n as usize)
        }

        fn get_fixed_vec(buf: &mut &[u8], n: usize) -> Result<Vector> {
            if (buf.remaining() as u64) < 8 * n as u64 {
                return Err(decode_err("truncated vector body"));
            }
            let mut v = Vector::zeros(n);
            for x in v.as_mut_slice() {
                *x = buf.get_f64_le();
            }
            Ok(v)
        }

        fn get_symmetric(buf: &mut &[u8], n: usize) -> Result<Matrix> {
            check_dims(n, n)?;
            if (buf.remaining() as u64) < 8 * tri_elems(n) as u64 {
                return Err(decode_err("truncated symmetric matrix body"));
            }
            let mut m = Matrix::zeros(n, n);
            for r in 0..n {
                for c in r..n {
                    let v = buf.get_f64_le();
                    m.set(r, c, v);
                    m.set(c, r, v);
                }
            }
            Ok(m)
        }

        fn get_upper_triangular(buf: &mut &[u8], n: usize) -> Result<Matrix> {
            check_dims(n, n)?;
            if (buf.remaining() as u64) < 8 * tri_elems(n) as u64 {
                return Err(decode_err("truncated triangular matrix body"));
            }
            let mut m = Matrix::zeros(n, n);
            for r in 0..n {
                for c in r..n {
                    m.set(r, c, buf.get_f64_le());
                }
            }
            Ok(m)
        }

        fn get_full(buf: &mut &[u8], rows: usize, cols: usize) -> Result<Matrix> {
            check_dims(rows, cols)?;
            if (buf.remaining() as u64) < 8 * (rows * cols) as u64 {
                return Err(decode_err("truncated matrix body"));
            }
            let mut m = Matrix::zeros(rows, cols);
            for x in m.as_mut_slice() {
                *x = buf.get_f64_le();
            }
            Ok(m)
        }
    }

    /// Bit-level equality of two decode results: `PartialEq` on `f64` would
    /// let `-0.0`/`0.0` through and trip on `NaN`, and arbitrary bytes decode
    /// to both. Re-encoding compares every bit that is on the wire.
    fn same_outcome(view: Result<WireMessage>, oracle: Result<WireMessage>) {
        match (view, oracle) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.encode(), b.encode());
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("view path {a:?}, oracle {b:?}"),
        }
    }

    /// State / Model (packed and full `F`) / Measurement, each bare and
    /// sequenced, plus the two feedback messages.
    fn one_of_each() -> Vec<WireMessage> {
        let rotation = StateModel::new(
            "rotation",
            Matrix::from_rows(&[&[0.9, 0.4], &[-0.4, 0.9]]),
            Matrix::scalar(2, 0.01),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::scalar(1, 0.1),
        )
        .unwrap();
        let syncs = [
            state_msg(),
            SyncMessage::State {
                x: Vector::from_slice(&[3.5]),
                p: Matrix::scalar(1, 0.25),
            },
            SyncMessage::Model {
                model: Box::new(models::constant_velocity_2d(1.0, 0.05, 3.0)),
                x: Vector::from_slice(&[1.0, 0.1, 2.0, -0.1]),
                p: Matrix::scalar(4, 0.5),
            },
            SyncMessage::Model {
                model: Box::new(rotation),
                x: Vector::from_slice(&[1.0, 0.0]),
                p: Matrix::from_rows(&[&[1.0, 0.25], &[0.25, 2.0]]),
            },
            SyncMessage::Measurement {
                z: Vector::from_slice(&[3.25, -1.0]),
            },
        ];
        let mut all = vec![
            WireMessage::Ack { seq: 9 },
            WireMessage::Bound { delta: 0.75 },
        ];
        for msg in syncs {
            all.push(WireMessage::Sync {
                seq: None,
                msg: msg.clone(),
            });
            all.push(WireMessage::Sync {
                seq: Some(u64::MAX - 1),
                msg,
            });
        }
        all
    }

    #[test]
    fn parse_matches_the_owned_decoder_on_every_truncation_prefix() {
        for wire in one_of_each() {
            let bytes = wire.encode();
            // The view re-encodes to the bytes it was parsed from.
            let view = WireRef::parse(&bytes).unwrap();
            assert_eq!(view.to_owned().encode(), bytes);
            assert_eq!(view.to_owned(), wire);
            for cut in 0..=bytes.len() {
                let prefix = &bytes[..cut];
                same_outcome(
                    WireRef::parse(prefix).map(|v| v.to_owned()),
                    oracle::decode_wire(prefix),
                );
                // And as a bare v2 body (sequenced prefixes must be
                // refused there for the same reason).
                same_outcome(
                    SyncRef::parse(prefix).map(|v| WireMessage::Sync {
                        seq: None,
                        msg: v.to_owned(),
                    }),
                    oracle::decode_sync(prefix).map(|msg| WireMessage::Sync { seq: None, msg }),
                );
            }
            // One byte too many, and every single-byte corruption of the
            // header region (tags, lengths, flags, dimensions).
            let mut long = bytes.to_vec();
            long.push(0);
            same_outcome(
                WireRef::parse(&long).map(|v| v.to_owned()),
                oracle::decode_wire(&long),
            );
            for at in 0..bytes.len().min(40) {
                for flip in [0x01, 0x02, 0x80, 0xFF] {
                    let mut corrupt = bytes.to_vec();
                    corrupt[at] ^= flip;
                    same_outcome(
                        WireRef::parse(&corrupt).map(|v| v.to_owned()),
                        oracle::decode_wire(&corrupt),
                    );
                }
            }
        }
    }

    mod view_fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn parse_matches_the_owned_decoder_on_arbitrary_bytes(
                tag in 0u8..8,
                tail in proptest::collection::vec(0u8..=255, 0..96),
                small in proptest::collection::vec(0u8..4, 0..12),
            ) {
                // Arbitrary bytes behind every tag (and two unknown ones);
                // `small` overwrites the bytes right after the tag so length
                // prefixes and dimensions are often plausible.
                let mut bytes = vec![tag];
                bytes.extend_from_slice(&tail);
                for (dst, v) in bytes[1..].iter_mut().zip(&small) {
                    *dst = *v;
                }
                same_outcome(
                    WireRef::parse(&bytes).map(|v| v.to_owned()),
                    oracle::decode_wire(&bytes),
                );
                // Re-encoding gives the bytes back — except for a model
                // whose triangular `F` arrived unpacked, which the encoder
                // would pack.
                match WireRef::parse(&bytes) {
                    Ok(WireRef::Sync { msg: SyncRef::Model(_), .. }) | Err(_) => {}
                    Ok(view) => prop_assert_eq!(&view.to_owned().encode()[..], &bytes[..]),
                }
            }
        }
    }
}
