//! Wire protocol v1: the length-prefixed binary framing the socket ingress
//! ([`crate::net`]) speaks.
//!
//! Every frame is `u32` little-endian *payload length* followed by the
//! payload itself; the payload opens with a fixed 4-byte header
//! (`magic 0xC5`, `version`, `kind`, `flags`) and closes with a kind-specific
//! body. All integers are little-endian; floats travel as their IEEE-754 bit
//! patterns, so a served estimate crosses the wire **bit-exactly**.
//!
//! ```text
//! frame    := len:u32 payload              (len = payload byte count)
//! payload  := magic:u8 version:u8 kind:u8 flags:u8 body
//! request  := id:u64 client:u64 θ:f64 deadline_us:u32 model:str8 query
//! query    := 0x00 index:u64  |  0x01 bits:u32 words:[u64]
//! response := id:u64 epoch:u64 ĉ:f64 lo:f64 hi:f64 source:u8 batch:u32
//! error    := id:u64 code:u8 message:str16
//! ping/pong:= token:u64
//! statsreq := token:u64
//! stats    := token:u64 n:u16 (name:str8 value:u64)*n
//! tracereq := token:u64 max:u32
//! traces   := token:u64 n:u16 trace*n
//! trace    := id:u64 epoch:u64 total_ns:u64 source:u8 k:u8 stage_ns:[u64;k]
//! str8/16  := len:u8|u16 utf8-bytes
//! ```
//!
//! The decoder is **total**: any byte sequence either yields frames or a
//! typed [`WireError`] — it never panics and never allocates proportionally
//! to a hostile length prefix (lengths above [`MAX_PAYLOAD`] are rejected
//! before any buffering decision is made on them). Encoding is *canonical*
//! (query padding bits zero, exact body length), so
//! `decode(encode(f)) == f` for every value and the proptests in
//! `crates/serve/tests/wire_proptest.rs` can require exact round-trips.

// Bytes from the network reach this file: no code outside the tests may
// panic on them.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use cardest_data::BitVec;
use std::io::Write;

/// First payload byte of every frame.
pub const MAGIC: u8 = 0xC5;
/// Protocol version this build speaks (header byte 2).
pub const WIRE_VERSION: u8 = 1;
/// Hard ceiling on a frame's payload size. A length prefix above this is a
/// protocol error — the decoder refuses it *before* buffering, so a hostile
/// 4 GiB length prefix cannot reserve memory or stall the connection.
pub const MAX_PAYLOAD: usize = 64 * 1024;
/// Response-header flag: the estimate is a degraded (load-shed) answer from
/// the monotone cache bracket, not a model run.
pub const FLAG_DEGRADED: u8 = 0b0000_0001;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_PING: u8 = 4;
const KIND_PONG: u8 = 5;
const KIND_STATS_REQUEST: u8 = 6;
const KIND_STATS: u8 = 7;
const KIND_TRACE_REQUEST: u8 = 8;
const KIND_TRACES: u8 = 9;

/// Most counter entries a [`StatsFrame`] encodes. Each entry is at most
/// 264 bytes (str8 name + u64), so the cap keeps the frame well inside
/// [`MAX_PAYLOAD`]; the encoder truncates beyond it.
pub const MAX_STATS_ENTRIES: usize = 200;
/// Most traces a [`TracesFrame`] encodes; with [`MAX_TRACE_STAGES`] stages a
/// trace is ≤ 282 bytes, so 128 traces stay inside [`MAX_PAYLOAD`].
pub const MAX_WIRE_TRACES: usize = 128;
/// Most per-stage entries one wire trace carries (the encoder truncates the
/// stage array beyond this).
pub const MAX_TRACE_STAGES: usize = 32;

/// The query a request carries: an index into the server's loaded dataset
/// (the compact form optimizer sessions co-located with the data use), or an
/// inline extracted bit vector for clients that do not share the dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireQuery {
    Index(u64),
    Bits(BitVec),
}

/// One estimation request (client → server).
#[derive(Clone, Debug)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed verbatim in the answer.
    pub request_id: u64,
    /// Stable client identity for quota accounting; `0` means anonymous
    /// (the server falls back to per-connection identity).
    pub client_id: u64,
    /// Similarity threshold θ.
    pub theta: f64,
    /// Per-request latency budget in microseconds; `0` defers to the
    /// server's default. A request still queued past its deadline is load-
    /// shed instead of computed.
    pub deadline_us: u32,
    /// Registry model name; empty selects `"default"`.
    pub model: String,
    pub query: WireQuery,
}

/// How the server produced a response (mirrors
/// [`crate::EstimateSource`] plus the shed path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireSource {
    Computed = 0,
    Coalesced = 1,
    CacheExact = 2,
    CacheBounds = 3,
    /// Load-shed: answered from the monotone cache bracket without a model
    /// run. Always paired with the [`FLAG_DEGRADED`] header flag.
    ShedBracket = 4,
}

impl WireSource {
    fn from_u8(v: u8) -> Option<WireSource> {
        match v {
            0 => Some(WireSource::Computed),
            1 => Some(WireSource::Coalesced),
            2 => Some(WireSource::CacheExact),
            3 => Some(WireSource::CacheBounds),
            4 => Some(WireSource::ShedBracket),
            _ => None,
        }
    }
}

/// One served estimate (server → client).
#[derive(Clone, Debug)]
pub struct ResponseFrame {
    pub request_id: u64,
    /// Publish epoch of the model that answered.
    pub epoch: u64,
    pub estimate: f64,
    /// Monotone bounds around the estimate (`lo == hi == estimate` when the
    /// value is exact). For a degraded answer these are the cache bracket
    /// the client should trust instead of the point value.
    pub lo: f64,
    pub hi: f64,
    pub source: WireSource,
    /// Micro-batch size for computed answers, `0` otherwise.
    pub batch: u32,
    /// Mirrors the [`FLAG_DEGRADED`] header flag.
    pub degraded: bool,
}

/// Typed error codes a server can answer with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame could not be decoded; the connection closes after
    /// this frame (a corrupt length-prefixed stream cannot be resynced).
    Malformed = 1,
    UnknownModel = 2,
    /// Query index out of range, or an inline query the model cannot take.
    BadQuery = 3,
    /// Admission control rejected the request and no cache bracket was
    /// available for a degraded answer.
    Overloaded = 4,
    QuotaExceeded = 5,
    ShuttingDown = 6,
    /// The request sat queued past its deadline and no bracket was cached.
    DeadlineExceeded = 7,
    ConnLimit = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnknownModel),
            3 => Some(ErrorCode::BadQuery),
            4 => Some(ErrorCode::Overloaded),
            5 => Some(ErrorCode::QuotaExceeded),
            6 => Some(ErrorCode::ShuttingDown),
            7 => Some(ErrorCode::DeadlineExceeded),
            8 => Some(ErrorCode::ConnLimit),
            _ => None,
        }
    }
}

/// A request-scoped failure (server → client). `request_id == 0` marks
/// connection-level errors that are not tied to one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    pub request_id: u64,
    pub code: ErrorCode,
    pub message: String,
}

/// Server metrics pulled over the socket (server → client): a flat,
/// order-preserving list of named counters — the wire form of the
/// observability layer's `MetricsSnapshot` counter section. Self-describing
/// by name so new metrics never require a protocol change.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsFrame {
    /// Echo of the requesting [`Frame::StatsRequest`] token.
    pub token: u64,
    /// `(metric name, value)` pairs in export order (at most
    /// [`MAX_STATS_ENTRIES`]; the encoder truncates beyond that).
    pub counters: Vec<(String, u64)>,
}

impl StatsFrame {
    /// Look up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// One captured request trace in wire form: per-stage nanoseconds indexed by
/// the observability layer's stage order, plus end-to-end total, epoch, and
/// answer source.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTrace {
    pub id: u64,
    pub epoch: u64,
    pub total_ns: u64,
    /// Answer-source code (the [`WireSource`] discriminant).
    pub source: u8,
    /// Per-stage accumulated nanoseconds (at most [`MAX_TRACE_STAGES`]).
    pub stages_ns: Vec<u64>,
}

/// Recent traces pulled over the socket (server → client).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TracesFrame {
    /// Echo of the requesting [`Frame::TraceRequest`] token.
    pub token: u64,
    /// Oldest-first traces (at most [`MAX_WIRE_TRACES`]).
    pub traces: Vec<WireTrace>,
}

/// Every frame the protocol knows.
#[derive(Clone, Debug)]
pub enum Frame {
    Request(RequestFrame),
    Response(ResponseFrame),
    Error(ErrorFrame),
    Ping(u64),
    Pong(u64),
    /// Client → server: pull a [`Frame::Stats`] metrics snapshot. The token
    /// is echoed in the reply so pipelined pulls can be correlated.
    StatsRequest(u64),
    Stats(StatsFrame),
    /// Client → server: pull up to `max` recent traces (slow queries first
    /// are the server's choice; `max == 0` means the server's cap).
    TraceRequest {
        token: u64,
        max: u32,
    },
    Traces(TracesFrame),
}

// Floats compare by bit pattern: the protocol's contract is bit-exact
// transport, and `NaN != NaN` would make valid round-trips "unequal".
impl PartialEq for RequestFrame {
    fn eq(&self, other: &Self) -> bool {
        self.request_id == other.request_id
            && self.client_id == other.client_id
            && self.theta.to_bits() == other.theta.to_bits()
            && self.deadline_us == other.deadline_us
            && self.model == other.model
            && self.query == other.query
    }
}

impl PartialEq for ResponseFrame {
    fn eq(&self, other: &Self) -> bool {
        self.request_id == other.request_id
            && self.epoch == other.epoch
            && self.estimate.to_bits() == other.estimate.to_bits()
            && self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.source == other.source
            && self.batch == other.batch
            && self.degraded == other.degraded
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Frame::Request(a), Frame::Request(b)) => a == b,
            (Frame::Response(a), Frame::Response(b)) => a == b,
            (Frame::Error(a), Frame::Error(b)) => a == b,
            (Frame::Ping(a), Frame::Ping(b)) | (Frame::Pong(a), Frame::Pong(b)) => a == b,
            (Frame::StatsRequest(a), Frame::StatsRequest(b)) => a == b,
            (Frame::Stats(a), Frame::Stats(b)) => a == b,
            (
                Frame::TraceRequest { token: a, max: am },
                Frame::TraceRequest { token: b, max: bm },
            ) => a == b && am == bm,
            (Frame::Traces(a), Frame::Traces(b)) => a == b,
            _ => false,
        }
    }
}

/// Everything that can be wrong with incoming bytes. Total: the decoder
/// maps any input to frames or one of these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    BadMagic(u8),
    BadVersion(u8),
    BadKind(u8),
    /// Length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload ended before the body it promised.
    Truncated,
    /// The body decoded but bytes were left over — a framing bug on the
    /// sender's side, rejected to keep encoding canonical.
    TrailingBytes,
    BadUtf8,
    BadQueryTag(u8),
    BadSource(u8),
    BadErrorCode(u8),
    /// Header flag bits this frame kind does not define — rejected so every
    /// accepted payload has exactly one encoding.
    BadFlags(u8),
    /// Inline query bits with nonzero padding in the last word — rejected
    /// so equal queries have exactly one wire form.
    NonCanonicalBits,
    /// A stats/traces list longer than the protocol cap — rejected so
    /// accepted payloads always re-encode byte-identically (the encoder
    /// truncates at the cap).
    TooManyEntries(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02X} (want 0x{MAGIC:02X})"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v} (speak {WIRE_VERSION})"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds max payload {MAX_PAYLOAD}")
            }
            WireError::Truncated => write!(f, "payload shorter than its body"),
            WireError::TrailingBytes => write!(f, "payload longer than its body"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadQueryTag(t) => write!(f, "unknown query tag {t}"),
            WireError::BadSource(s) => write!(f, "unknown response source {s}"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadFlags(b) => write!(f, "undefined header flag bits 0x{b:02X}"),
            WireError::NonCanonicalBits => write!(f, "inline query has nonzero padding bits"),
            WireError::TooManyEntries(n) => write!(f, "list of {n} entries exceeds protocol cap"),
        }
    }
}

impl std::error::Error for WireError {}

// ── Encoding ─────────────────────────────────────────────────────────────

/// Longest prefix of `s` at most `max` bytes that ends on a char boundary —
/// truncating an over-long string must never split a multi-byte character,
/// or the receiver would reject the frame as [`WireError::BadUtf8`].
fn utf8_prefix(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    // Single backward scan over the raw bytes: step past UTF-8 continuation
    // bytes (0b10xxxxxx) to the nearest boundary at or below `max`, then
    // slice exactly once. `.get(..end)` cannot fail here, but the fallback
    // keeps the hostile-input no-panic guarantee structural.
    let b = s.as_bytes();
    let mut end = max;
    while end > 0 && b.get(end).is_some_and(|&c| c & 0xC0 == 0x80) {
        end -= 1;
    }
    s.get(..end).unwrap_or(s)
}

fn put_str8(out: &mut Vec<u8>, s: &str) {
    let s = utf8_prefix(s, u8::MAX as usize);
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
}

/// Byte budget for a str16 field: the longest message that still leaves an
/// error frame (header, request id, code, length prefix) within
/// [`MAX_PAYLOAD`], so truncated encodes always produce acceptable frames.
const MAX_STR16: usize = MAX_PAYLOAD - 32;

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let s = utf8_prefix(s, MAX_STR16);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl Frame {
    /// Serializes the frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, flags) = match self {
            Frame::Request(_) => (KIND_REQUEST, 0),
            Frame::Response(r) => (KIND_RESPONSE, if r.degraded { FLAG_DEGRADED } else { 0 }),
            Frame::Error(_) => (KIND_ERROR, 0),
            Frame::Ping(_) => (KIND_PING, 0),
            Frame::Pong(_) => (KIND_PONG, 0),
            Frame::StatsRequest(_) => (KIND_STATS_REQUEST, 0),
            Frame::Stats(_) => (KIND_STATS, 0),
            Frame::TraceRequest { .. } => (KIND_TRACE_REQUEST, 0),
            Frame::Traces(_) => (KIND_TRACES, 0),
        };
        let mut payload = vec![MAGIC, WIRE_VERSION, kind, flags];
        match self {
            Frame::Request(r) => {
                payload.extend_from_slice(&r.request_id.to_le_bytes());
                payload.extend_from_slice(&r.client_id.to_le_bytes());
                payload.extend_from_slice(&r.theta.to_bits().to_le_bytes());
                payload.extend_from_slice(&r.deadline_us.to_le_bytes());
                put_str8(&mut payload, &r.model);
                match &r.query {
                    WireQuery::Index(i) => {
                        payload.push(0);
                        payload.extend_from_slice(&i.to_le_bytes());
                    }
                    WireQuery::Bits(bits) => {
                        payload.push(1);
                        payload.extend_from_slice(&(bits.len() as u32).to_le_bytes());
                        for w in bits.words() {
                            payload.extend_from_slice(&w.to_le_bytes());
                        }
                    }
                }
            }
            Frame::Response(r) => {
                payload.extend_from_slice(&r.request_id.to_le_bytes());
                payload.extend_from_slice(&r.epoch.to_le_bytes());
                payload.extend_from_slice(&r.estimate.to_bits().to_le_bytes());
                payload.extend_from_slice(&r.lo.to_bits().to_le_bytes());
                payload.extend_from_slice(&r.hi.to_bits().to_le_bytes());
                payload.push(r.source as u8);
                payload.extend_from_slice(&r.batch.to_le_bytes());
            }
            Frame::Error(e) => {
                payload.extend_from_slice(&e.request_id.to_le_bytes());
                payload.push(e.code as u8);
                put_str16(&mut payload, &e.message);
            }
            Frame::Ping(token) | Frame::Pong(token) | Frame::StatsRequest(token) => {
                payload.extend_from_slice(&token.to_le_bytes());
            }
            Frame::Stats(s) => {
                payload.extend_from_slice(&s.token.to_le_bytes());
                let n = s.counters.len().min(MAX_STATS_ENTRIES);
                payload.extend_from_slice(&(n as u16).to_le_bytes());
                for (name, value) in s.counters.iter().take(n) {
                    put_str8(&mut payload, name);
                    payload.extend_from_slice(&value.to_le_bytes());
                }
            }
            Frame::TraceRequest { token, max } => {
                payload.extend_from_slice(&token.to_le_bytes());
                payload.extend_from_slice(&max.to_le_bytes());
            }
            Frame::Traces(t) => {
                payload.extend_from_slice(&t.token.to_le_bytes());
                let n = t.traces.len().min(MAX_WIRE_TRACES);
                payload.extend_from_slice(&(n as u16).to_le_bytes());
                for trace in t.traces.iter().take(n) {
                    payload.extend_from_slice(&trace.id.to_le_bytes());
                    payload.extend_from_slice(&trace.epoch.to_le_bytes());
                    payload.extend_from_slice(&trace.total_ns.to_le_bytes());
                    payload.push(trace.source);
                    let k = trace.stages_ns.len().min(MAX_TRACE_STAGES);
                    payload.push(k as u8);
                    for ns in trace.stages_ns.iter().take(k) {
                        payload.extend_from_slice(&ns.to_le_bytes());
                    }
                }
            }
        }
        debug_assert!(
            payload.len() <= MAX_PAYLOAD,
            "encoder produced a giant frame"
        );
        let mut out = Vec::with_capacity(4 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Writes the encoded frame to `w` (one `write_all`, no flush).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.encode())
    }
}

// ── Decoding ─────────────────────────────────────────────────────────────

/// Cursor over one frame's payload; every read is bounds-checked.
struct Body<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.b.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Fixed-size read; `take` guarantees exactly `N` bytes, so the
    /// conversion cannot fail, but the error path stays typed regardless.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str8(&mut self) -> Result<String, WireError> {
        let n = self.u8()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Decodes one complete payload (header + body, length prefix already
/// stripped and bounded by [`MAX_PAYLOAD`]).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut body = Body { b: payload, pos: 0 };
    let magic = body.u8()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = body.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = body.u8()?;
    let flags = body.u8()?;
    // Only responses define a flag; undefined bits are rejected so accepted
    // payloads stay canonical (exactly one wire form per frame value).
    let defined = if kind == KIND_RESPONSE {
        FLAG_DEGRADED
    } else {
        0
    };
    if flags & !defined != 0 {
        return Err(WireError::BadFlags(flags & !defined));
    }
    let frame = match kind {
        KIND_REQUEST => {
            let request_id = body.u64()?;
            let client_id = body.u64()?;
            let theta = body.f64()?;
            let deadline_us = body.u32()?;
            let model = body.str8()?;
            let query = match body.u8()? {
                0 => WireQuery::Index(body.u64()?),
                1 => {
                    let len = body.u32()? as usize;
                    let n_words = len.div_ceil(64);
                    // The bit count is attacker-controlled: before allocating
                    // anything proportional to it, require the payload to
                    // actually carry the words it promises. This caps the
                    // allocation at the payload size (≤ MAX_PAYLOAD) instead
                    // of the 512 MiB a hostile `len = u32::MAX` would claim.
                    let promised = n_words.checked_mul(8).ok_or(WireError::Truncated)?;
                    if promised > body.b.len() - body.pos {
                        return Err(WireError::Truncated);
                    }
                    let mut bits = BitVec::zeros(len);
                    for w in 0..n_words {
                        let word = body.u64()?;
                        let base = w * 64;
                        for b in 0..64 {
                            if (word >> b) & 1 == 1 {
                                if base + b >= len {
                                    return Err(WireError::NonCanonicalBits);
                                }
                                bits.set(base + b, true);
                            }
                        }
                    }
                    WireQuery::Bits(bits)
                }
                tag => return Err(WireError::BadQueryTag(tag)),
            };
            Frame::Request(RequestFrame {
                request_id,
                client_id,
                theta,
                deadline_us,
                model,
                query,
            })
        }
        KIND_RESPONSE => Frame::Response(ResponseFrame {
            request_id: body.u64()?,
            epoch: body.u64()?,
            estimate: body.f64()?,
            lo: body.f64()?,
            hi: body.f64()?,
            source: {
                let s = body.u8()?;
                WireSource::from_u8(s).ok_or(WireError::BadSource(s))?
            },
            batch: body.u32()?,
            degraded: flags & FLAG_DEGRADED != 0,
        }),
        KIND_ERROR => Frame::Error(ErrorFrame {
            request_id: body.u64()?,
            code: {
                let c = body.u8()?;
                ErrorCode::from_u8(c).ok_or(WireError::BadErrorCode(c))?
            },
            message: body.str16()?,
        }),
        KIND_PING => Frame::Ping(body.u64()?),
        KIND_PONG => Frame::Pong(body.u64()?),
        KIND_STATS_REQUEST => Frame::StatsRequest(body.u64()?),
        KIND_STATS => {
            let token = body.u64()?;
            let n = body.u16()?;
            if n as usize > MAX_STATS_ENTRIES {
                return Err(WireError::TooManyEntries(n));
            }
            let mut counters = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let name = body.str8()?;
                let value = body.u64()?;
                counters.push((name, value));
            }
            Frame::Stats(StatsFrame { token, counters })
        }
        KIND_TRACE_REQUEST => Frame::TraceRequest {
            token: body.u64()?,
            max: body.u32()?,
        },
        KIND_TRACES => {
            let token = body.u64()?;
            let n = body.u16()?;
            if n as usize > MAX_WIRE_TRACES {
                return Err(WireError::TooManyEntries(n));
            }
            let mut traces = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let id = body.u64()?;
                let epoch = body.u64()?;
                let total_ns = body.u64()?;
                let source = body.u8()?;
                let k = body.u8()?;
                if k as usize > MAX_TRACE_STAGES {
                    return Err(WireError::TooManyEntries(k as u16));
                }
                let mut stages_ns = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    stages_ns.push(body.u64()?);
                }
                traces.push(WireTrace {
                    id,
                    epoch,
                    total_ns,
                    source,
                    stages_ns,
                });
            }
            Frame::Traces(TracesFrame { token, traces })
        }
        other => return Err(WireError::BadKind(other)),
    };
    body.done()?;
    Ok(frame)
}

/// Incremental frame decoder: feed bytes as they arrive, pop frames as they
/// complete. After the first [`WireError`] the stream is unrecoverable (a
/// corrupt length prefix desynchronizes everything after it), so callers
/// close the connection.
#[derive(Default)]
#[must_use]
pub struct Decoder {
    buf: Vec<u8>,
    bytes_consumed: u64,
    frames_decoded: u64,
}

impl Decoder {
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are needed.
    #[must_use = "a dropped feed result may hide a decoded frame or a fatal wire error"]
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len as usize > MAX_PAYLOAD {
            return Err(WireError::Oversized(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let result = decode_payload(self.buf.get(4..total).ok_or(WireError::Truncated)?);
        // Consume the frame even on error: the caller is about to close the
        // connection, but a consistent buffer costs nothing.
        self.buf.drain(..total);
        self.bytes_consumed += total as u64;
        if result.is_ok() {
            self.frames_decoded += 1;
        }
        result.map(Some)
    }

    /// Total bytes consumed from the stream as complete frames (length
    /// prefixes included; buffered partial input is *not* counted until its
    /// frame completes). Feeds per-connection ingress byte-rate metrics.
    pub fn bytes_consumed(&self) -> u64 {
        self.bytes_consumed
    }

    /// Total frames successfully decoded from the stream.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Whether a frame has started arriving but is not complete — the
    /// condition a slow-loris watchdog times out on.
    pub fn mid_frame(&self) -> bool {
        if self.buf.is_empty() {
            return false;
        }
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return true;
        };
        let len = u32::from_le_bytes(*prefix);
        self.buf.len() < 4 + (len as usize).min(MAX_PAYLOAD + 1)
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Request(RequestFrame {
                request_id: 7,
                client_id: 3,
                theta: 8.25,
                deadline_us: 1500,
                model: "default".into(),
                query: WireQuery::Index(42),
            }),
            Frame::Request(RequestFrame {
                request_id: u64::MAX,
                client_id: 0,
                theta: f64::NAN,
                deadline_us: 0,
                model: String::new(),
                query: WireQuery::Bits({
                    // Two words, so the encoder's word loop is exercised.
                    let mut bits = BitVec::zeros(70);
                    for i in [0, 1, 3, 64, 69] {
                        bits.set(i, true);
                    }
                    bits
                }),
            }),
            Frame::Response(ResponseFrame {
                request_id: 7,
                epoch: 2,
                estimate: 123.5,
                lo: 120.0,
                hi: 130.0,
                source: WireSource::ShedBracket,
                batch: 0,
                degraded: true,
            }),
            Frame::Error(ErrorFrame {
                request_id: 9,
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            }),
            Frame::Ping(0xDEAD),
            Frame::Pong(0xBEEF),
            Frame::StatsRequest(11),
            Frame::Stats(StatsFrame {
                token: 11,
                counters: vec![
                    ("cardest_requests_total".into(), 12345),
                    ("cardest_sheds_total".into(), 0),
                    (String::new(), u64::MAX),
                ],
            }),
            Frame::TraceRequest { token: 5, max: 64 },
            Frame::Traces(TracesFrame {
                token: 5,
                traces: vec![
                    WireTrace {
                        id: 1,
                        epoch: 3,
                        total_ns: 1_000_000,
                        source: 0,
                        stages_ns: vec![10, 20, 30, 0, 40, 0, 900_000, 800_000, 90_000, 5],
                    },
                    WireTrace {
                        id: 2,
                        epoch: 3,
                        total_ns: 0,
                        source: 4,
                        stages_ns: Vec::new(),
                    },
                ],
            }),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let mut dec = Decoder::new();
            dec.extend(&bytes);
            let back = dec.next_frame().expect("valid").expect("complete");
            assert_eq!(back, frame);
            assert_eq!(dec.buffered(), 0);
            assert!(dec.next_frame().expect("clean").is_none());
        }
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_the_same_stream() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut dec = Decoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::Oversized(u32::MAX)));
    }

    #[test]
    fn header_errors_are_typed() {
        // Bad magic.
        let mut bad = Frame::Ping(1).encode();
        bad[4] = 0x00;
        assert_eq!(decode_payload(&bad[4..]), Err(WireError::BadMagic(0)));
        // Bad version.
        let mut bad = Frame::Ping(1).encode();
        bad[5] = 99;
        assert_eq!(decode_payload(&bad[4..]), Err(WireError::BadVersion(99)));
        // Bad kind.
        let mut bad = Frame::Ping(1).encode();
        bad[6] = 0xFF;
        assert_eq!(decode_payload(&bad[4..]), Err(WireError::BadKind(0xFF)));
    }

    #[test]
    fn body_level_errors_are_typed() {
        // Undefined flag bits: only responses define a flag, so any flag on
        // a ping is rejected with the offending bits.
        let mut payload = vec![MAGIC, WIRE_VERSION, KIND_PING, 0x02];
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(decode_payload(&payload), Err(WireError::BadFlags(0x02)));

        // Request prefix shared by the query-tag and UTF-8 probes.
        let request_prefix = |model: &[u8]| {
            let mut p = vec![MAGIC, WIRE_VERSION, KIND_REQUEST, 0];
            p.extend_from_slice(&1u64.to_le_bytes()); // request_id
            p.extend_from_slice(&0u64.to_le_bytes()); // client_id
            p.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // theta
            p.extend_from_slice(&0u32.to_le_bytes()); // deadline_us
            p.push(model.len() as u8);
            p.extend_from_slice(model);
            p
        };

        // Invalid UTF-8 in the model-name string field.
        let payload = request_prefix(&[0xFF, 0xFE]);
        assert_eq!(decode_payload(&payload), Err(WireError::BadUtf8));

        // Unknown query tag after a valid prefix.
        let mut payload = request_prefix(b"m");
        payload.push(9); // neither 0 (index) nor 1 (inline bits)
        assert_eq!(decode_payload(&payload), Err(WireError::BadQueryTag(9)));

        // Unknown response source byte.
        let mut payload = vec![MAGIC, WIRE_VERSION, KIND_RESPONSE, 0];
        payload.extend_from_slice(&1u64.to_le_bytes()); // request_id
        payload.extend_from_slice(&3u64.to_le_bytes()); // epoch
        for _ in 0..3 {
            payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // estimate/lo/hi
        }
        payload.push(0xEE);
        assert_eq!(decode_payload(&payload), Err(WireError::BadSource(0xEE)));

        // Unknown error code byte.
        let mut payload = vec![MAGIC, WIRE_VERSION, KIND_ERROR, 0];
        payload.extend_from_slice(&1u64.to_le_bytes()); // request_id
        payload.push(0x7F);
        assert_eq!(decode_payload(&payload), Err(WireError::BadErrorCode(0x7F)));
    }

    #[test]
    fn truncated_and_padded_bodies_are_rejected() {
        let full = Frame::Ping(12345).encode();
        // Shorten the payload but fix the length prefix to match.
        let mut short = full.clone();
        short.truncate(full.len() - 3);
        let short_len = (short.len() - 4) as u32;
        short[..4].copy_from_slice(&short_len.to_le_bytes());
        assert_eq!(decode_payload(&short[4..]), Err(WireError::Truncated));
        // Extend the payload and the prefix: trailing bytes.
        let mut long = full;
        long.push(0);
        let long_len = (long.len() - 4) as u32;
        long[..4].copy_from_slice(&long_len.to_le_bytes());
        assert_eq!(decode_payload(&long[4..]), Err(WireError::TrailingBytes));
    }

    #[test]
    fn hostile_inline_bit_count_is_rejected_before_allocating() {
        // A request whose inline query claims u32::MAX bits but carries no
        // words: the decoder must reject it from the byte count alone, never
        // allocating the ~512 MiB the claim implies.
        let mut payload = vec![MAGIC, WIRE_VERSION, KIND_REQUEST, 0];
        payload.extend_from_slice(&1u64.to_le_bytes()); // request_id
        payload.extend_from_slice(&0u64.to_le_bytes()); // client_id
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // theta
        payload.extend_from_slice(&0u32.to_le_bytes()); // deadline_us
        payload.push(0); // empty model name
        payload.push(1); // inline-bits query tag
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile bit count
        assert_eq!(decode_payload(&payload), Err(WireError::Truncated));
        // Same through the incremental decoder (length prefix included).
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        let mut dec = Decoder::new();
        dec.extend(&framed);
        assert_eq!(dec.next_frame(), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_strings_truncate_on_char_boundaries() {
        // 200 two-byte chars = 400 bytes: str8 must cut at ≤255 bytes
        // without splitting a 'é', so the frame stays decodable.
        let long_model: String = "é".repeat(200);
        let frame = Frame::Request(RequestFrame {
            request_id: 1,
            client_id: 0,
            theta: 1.0,
            deadline_us: 0,
            model: long_model.clone(),
            query: WireQuery::Index(0),
        });
        let mut dec = Decoder::new();
        dec.extend(&frame.encode());
        match dec.next_frame().expect("valid utf8").expect("complete") {
            Frame::Request(r) => {
                assert!(r.model.len() <= 255);
                assert_eq!(r.model, utf8_prefix(&long_model, 255));
                assert!(r.model.chars().all(|c| c == 'é'));
            }
            other => panic!("expected request, got {other:?}"),
        }
        // Same for str16 error messages past the frame budget.
        let long_msg: String = "漢".repeat(30_000); // 90_000 bytes of 3-byte chars
        let frame = Frame::Error(ErrorFrame {
            request_id: 2,
            code: ErrorCode::Malformed,
            message: long_msg.clone(),
        });
        let mut dec = Decoder::new();
        dec.extend(&frame.encode());
        match dec.next_frame().expect("valid utf8").expect("complete") {
            Frame::Error(e) => {
                assert!(e.message.len() <= MAX_STR16);
                assert_eq!(e.message, utf8_prefix(&long_msg, MAX_STR16));
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn utf8_prefix_truncation_at_the_exact_cap() {
        // The cap landing exactly on a char boundary must keep every byte:
        // 85 three-byte chars are exactly 255 bytes of str8 budget…
        let exact: String = "漢".repeat(85);
        assert_eq!(exact.len(), 255);
        assert_eq!(utf8_prefix(&exact, 255), exact);
        // …and 86 of them still fill the cap to the last byte, because the
        // boundary after the 85th char is exactly at byte 255.
        let over: String = "漢".repeat(86);
        let cut = utf8_prefix(&over, 255);
        assert_eq!(cut.len(), 255);
        assert_eq!(cut.chars().count(), 85);
        // A 2-byte-char string straddling the cap must back up to the
        // previous boundary — one byte short, never a split char.
        let straddle: String = "é".repeat(128); // 256 bytes
        let cut = utf8_prefix(&straddle, 255);
        assert_eq!(cut.len(), 254);
        assert_eq!(cut.chars().count(), 127);
        // And the encoded str8 roundtrips byte-for-byte at the exact cap.
        let mut out = Vec::new();
        put_str8(&mut out, &exact);
        assert_eq!(out[0] as usize, 255);
        assert_eq!(&out[1..], exact.as_bytes());
    }

    #[test]
    fn noncanonical_padding_bits_are_rejected() {
        let frame = Frame::Request(RequestFrame {
            request_id: 1,
            client_id: 0,
            theta: 1.0,
            deadline_us: 0,
            model: "m".into(),
            query: WireQuery::Bits(BitVec::from_u64(0b111, 10)),
        });
        let mut bytes = frame.encode();
        // Set a padding bit (bit 63 of the single query word — the query
        // word is the last 8 bytes of the frame).
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        let mut dec = Decoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next_frame(), Err(WireError::NonCanonicalBits));
    }

    #[test]
    fn decoder_counters_reconcile_with_chunked_multi_frame_feed() {
        // Feed a many-frame stream in awkward chunk sizes: the decoder's
        // ingress counters must land exactly on the stream's byte and frame
        // totals, with partial input never counted early.
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut dec = Decoder::new();
        let mut decoded = 0u64;
        let mut fed = 0u64;
        for chunk in stream.chunks(7) {
            dec.extend(chunk);
            fed += chunk.len() as u64;
            while let Some(_f) = dec.next_frame().expect("valid stream") {
                decoded += 1;
            }
            // Every byte handed over is either consumed as a complete frame
            // or still buffered as partial input — never dropped or
            // double-counted.
            assert_eq!(dec.bytes_consumed() + dec.buffered() as u64, fed);
            assert_eq!(dec.frames_decoded(), decoded);
        }
        assert_eq!(decoded, frames.len() as u64);
        assert_eq!(dec.frames_decoded(), frames.len() as u64);
        assert_eq!(dec.bytes_consumed(), stream.len() as u64);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn stats_entry_cap_is_enforced_canonically() {
        // An over-cap stats frame truncates on encode...
        let big = StatsFrame {
            token: 1,
            counters: (0..MAX_STATS_ENTRIES + 10)
                .map(|i| (format!("c{i}"), i as u64))
                .collect(),
        };
        let bytes = Frame::Stats(big).encode();
        let mut dec = Decoder::new();
        dec.extend(&bytes);
        match dec.next_frame().expect("valid").expect("complete") {
            Frame::Stats(s) => assert_eq!(s.counters.len(), MAX_STATS_ENTRIES),
            other => panic!("expected stats, got {other:?}"),
        }
        // ...and a hand-built payload claiming more than the cap is rejected
        // before any entry is read.
        let mut payload = vec![MAGIC, WIRE_VERSION, KIND_STATS, 0];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&(MAX_STATS_ENTRIES as u16 + 1).to_le_bytes());
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::TooManyEntries(MAX_STATS_ENTRIES as u16 + 1))
        );
    }

    #[test]
    fn mid_frame_tracks_partial_input() {
        let bytes = Frame::Ping(5).encode();
        let mut dec = Decoder::new();
        assert!(!dec.mid_frame());
        dec.extend(&bytes[..3]);
        assert!(dec.mid_frame());
        assert!(dec.next_frame().expect("no error yet").is_none());
        dec.extend(&bytes[3..]);
        assert!(dec.next_frame().expect("valid").is_some());
        assert!(!dec.mid_frame());
    }
}
