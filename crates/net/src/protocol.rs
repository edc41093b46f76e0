//! The IS-LABEL wire protocol: versioned handshake, length-prefixed
//! frames, request/response encode/decode.
//!
//! Everything here is pure byte-shuffling — no sockets — so the whole
//! protocol is testable on in-memory buffers. The carriers are the
//! vendored [`bytes`] traits: encoding appends to any [`BufMut`] (a
//! `Vec<u8>` in practice), decoding walks a `&[u8]` through a checked
//! cursor that returns [`DecodeError`] instead of panicking on truncated
//! input. The decoder **never panics** on adversarial bytes; every reject
//! is a typed error.
//!
//! # Wire format
//!
//! All integers are little-endian.
//!
//! ```text
//! hello      := magic:[4] = "ISLW" | version:u16 | token_len:u16
//!               | token:[token_len]     (client→server only, cap 256)
//! frame      := len:u32 | body:[len]           (len capped by config)
//! request    := id:u64 | opcode:u8 | payload
//! response   := id:u64 | status:u8 | payload
//!   status 0   = Ok:   payload := opcode:u8 | result (shape per opcode)
//!   status > 0 = Err:  status is the stable error code, payload per code
//! ```
//!
//! The handshake is symmetric: the client sends its hello first, the
//! server validates and answers with its own. A magic mismatch closes the
//! connection; a version mismatch is reported through the hello itself
//! (each side sees the other's version and gives up cleanly).
//!
//! The hello's trailing `u16` (reserved and always 0 in earlier builds) is
//! the byte length of an optional **admin token** the client sends
//! immediately after its fixed 8 hello bytes. Servers configured with a
//! shared secret require it for the admin opcodes (`Reload`, `Shutdown`,
//! `Compact`) and answer unauthorized attempts with the stable code 21
//! ([`WireError::AdminDenied`]); query opcodes never need it. The server's
//! hello always carries `token_len = 0`, which is byte-identical to the
//! legacy reserved field — old clients and new servers (and vice versa)
//! interoperate for non-admin traffic.
//!
//! Request ids are chosen by the client and should be **nonzero**: the
//! server addresses errors it cannot attribute to any request (e.g. an
//! oversized length prefix, where the id is unknowable) to the reserved
//! id 0.
//!
//! Request payloads:
//!
//! | opcode | name     | payload                                |
//! |-------:|----------|----------------------------------------|
//! | `0x01` | Ping     | empty                                  |
//! | `0x02` | Query    | `s:u32, t:u32`                         |
//! | `0x03` | Batch    | `count:u32, count × (s:u32, t:u32)`    |
//! | `0x04` | Stats    | empty                                  |
//! | `0x05` | Reload   | `path_len:u16, path:utf8`              |
//! | `0x06` | Shutdown | empty                                  |
//! | `0x07` | Compact  | empty                                  |
//! | `0x08` | Metrics  | empty                                  |
//!
//! Ok-response results: Ping → empty; Query → `dist:u64` (`u64::MAX` =
//! unreachable, the in-process `INF` sentinel); Batch → `count:u32,
//! count × dist:u64`; Stats → [`WireStats`]; Reload → `version:u64,
//! num_vertices:u64`; Shutdown → empty; Compact → `version:u64,
//! num_vertices:u64`; Metrics → `text_len:u32, text:utf8` (Prometheus
//! exposition text — a `u32` length because exposition easily exceeds the
//! `u16` string-field cap).
//!
//! The Stats result ends with an optional latency-histogram tail
//! (`bucket_count:u32, bucket_count × count:u64, sum_nanos:u64`): encoders
//! that have a histogram append it, and the decoder reads it only when
//! bytes remain — so a pre-histogram Stats payload still decodes (the
//! field comes back `None`).
//!
//! Error codes are stable across releases (see [`WireError::code`]).
//! Codes `1..=3` carry engine-level [`QueryError`]s and round-trip the
//! wire *exactly* ([`WireError::to_query_error`]); code 15 is the lossy
//! escape hatch for future `QueryError` variants (the display string
//! survives, the type does not — `to_query_error` returns `None`); `16..`
//! are protocol-level rejections with no in-process counterpart.
//!
//! This module is a **panic-free zone** and its opcodes/error codes are
//! pinned by `docs/wire_registry.toml` — both enforced by `islabel-lint`
//! (see `lint.toml` at the repo root and § Static analysis in the README).

use bytes::BufMut;
use islabel_core::QueryError;
use islabel_graph::{Dist, VertexId, INF};

/// First bytes of every connection: "IS-Label Wire".
pub const MAGIC: [u8; 4] = *b"ISLW";

/// Protocol version spoken by this build. Bumped on any frame-layout
/// change; the handshake rejects mismatches before any frame is parsed.
pub const VERSION: u16 = 1;

/// Bytes of a serialized hello (either direction).
pub const HELLO_LEN: usize = 8;

/// Default cap on one frame's body, shared by server and client.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Everything a request frame can ask of the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with an empty Ok.
    Ping,
    /// One point-to-point distance query.
    Query {
        /// Source vertex.
        s: VertexId,
        /// Target vertex.
        t: VertexId,
    },
    /// Many independent queries answered in one response frame, in input
    /// order. One failing pair fails the whole batch (mirroring
    /// `DistanceOracle::distance_batch`).
    Batch {
        /// The `(s, t)` pairs to answer.
        pairs: Vec<(VertexId, VertexId)>,
    },
    /// Server/serving statistics ([`WireStats`]).
    Stats,
    /// Admin: load a persisted index from a path *on the server's
    /// filesystem* and hot-swap it in; in-flight queries finish on the
    /// generation they pinned.
    Reload {
        /// Server-side path of the `.islx` artifact.
        path: String,
    },
    /// Admin: ask the server to drain and exit.
    Shutdown,
    /// Admin: fold accumulated dynamic updates into a fresh pristine index
    /// (background rebuild-then-swap, then WAL truncation) and hot-swap it
    /// in; queries keep flowing on the old snapshot meanwhile.
    Compact,
    /// Prometheus exposition text of the server's metrics registry plus
    /// the slow-query log. Not an admin opcode — scraping needs no token —
    /// but a draining server refuses it like the other work-carrying
    /// opcodes (rendering the registry is not free).
    Metrics,
}

impl Request {
    /// The opcode byte this request serializes to.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => opcode::PING,
            Request::Query { .. } => opcode::QUERY,
            Request::Batch { .. } => opcode::BATCH,
            Request::Stats => opcode::STATS,
            Request::Reload { .. } => opcode::RELOAD,
            Request::Shutdown => opcode::SHUTDOWN,
            Request::Compact => opcode::COMPACT,
            Request::Metrics => opcode::METRICS,
        }
    }
}

/// Request opcode bytes (stable wire constants).
pub mod opcode {
    /// [`super::Request::Ping`].
    pub const PING: u8 = 0x01;
    /// [`super::Request::Query`].
    pub const QUERY: u8 = 0x02;
    /// [`super::Request::Batch`].
    pub const BATCH: u8 = 0x03;
    /// [`super::Request::Stats`].
    pub const STATS: u8 = 0x04;
    /// [`super::Request::Reload`].
    pub const RELOAD: u8 = 0x05;
    /// [`super::Request::Shutdown`].
    pub const SHUTDOWN: u8 = 0x06;
    /// [`super::Request::Compact`].
    pub const COMPACT: u8 = 0x07;
    /// [`super::Request::Metrics`].
    pub const METRICS: u8 = 0x08;
}

/// Server/serving statistics as reported by the `Stats` opcode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Engine identifier of the currently served snapshot.
    pub engine: String,
    /// Vertices the served index answers for.
    pub num_vertices: u64,
    /// Hot-swap generation of the served snapshot.
    pub snapshot_version: u64,
    /// Connections accepted since the server started.
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Request frames processed (all opcodes).
    pub frames: u64,
    /// Distance queries answered (singles plus batch members).
    pub queries: u64,
    /// Batch frames answered.
    pub batches: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Median per-query service latency, microseconds (histogram upper
    /// bound; 0 when no query has been served).
    pub p50_us: u64,
    /// 99th-percentile per-query service latency, microseconds.
    pub p99_us: u64,
    /// Full per-query latency histogram (pow-2 nanosecond buckets), from
    /// which any percentile can be derived client-side. `None` when the
    /// payload predates the histogram tail — the scalar `p50_us`/`p99_us`
    /// stay authoritative either way. Boxed so the common histogram-free
    /// responses don't carry the 40-bucket array inline.
    pub latency: Option<Box<islabel_obs::LatencyHistogram>>,
}

/// Everything the server can answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Ok for [`Request::Ping`].
    Pong,
    /// Ok for [`Request::Query`]; `None` = unreachable (never an error).
    Distance(Option<Dist>),
    /// Ok for [`Request::Batch`], distances in input order.
    Batch(Vec<Option<Dist>>),
    /// Ok for [`Request::Stats`].
    Stats(WireStats),
    /// Ok for [`Request::Reload`]: the new snapshot generation and size.
    Reloaded {
        /// Generation the swap installed.
        version: u64,
        /// Vertices of the freshly loaded index.
        num_vertices: u64,
    },
    /// Ok for [`Request::Shutdown`]: the server acknowledges and drains.
    ShutdownAck,
    /// Ok for [`Request::Compact`]: the rebuilt snapshot's generation and
    /// size.
    Compacted {
        /// Generation the rebuild-then-swap installed.
        version: u64,
        /// Vertices of the rebuilt (pristine) index.
        num_vertices: u64,
    },
    /// Ok for [`Request::Metrics`]: Prometheus exposition text.
    Metrics {
        /// The rendered registry plus slow-query log comment block.
        text: String,
    },
    /// Any failure, carrying a stable code (see [`WireError`]).
    Error(WireError),
}

/// A typed error response with a stable wire code.
///
/// Codes `1..=3` map engine-level [`QueryError`]s and round-trip exactly
/// ([`from`](From::from) / [`to_query_error`](WireError::to_query_error));
/// code 15 lossily carries future `QueryError` variants as their display
/// string; codes `16..` are protocol-level and exist only on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Code 1: [`QueryError::VertexOutOfRange`], payload preserved.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices the served index answers for.
        universe: u64,
    },
    /// Code 2: [`QueryError::StaleIndex`].
    StaleIndex,
    /// Code 3: [`QueryError::NoPathInfo`].
    NoPathInfo,
    /// Code 15: a [`QueryError`] variant this protocol version has no
    /// dedicated code for (the enum is `#[non_exhaustive]`); the display
    /// string survives, the type does not.
    UnknownQuery {
        /// `Display` of the original error.
        message: String,
    },
    /// Code 16: the frame body did not parse; the offending frame is
    /// answered with this error and the connection stays up.
    Malformed {
        /// Human-readable description of the parse failure.
        message: String,
    },
    /// Code 17: an opcode this server does not implement.
    UnsupportedOpcode {
        /// The unrecognized opcode byte.
        opcode: u8,
    },
    /// Code 18: a well-formed request exceeding a server limit (batch size,
    /// path length).
    TooLarge {
        /// Which limit was exceeded.
        message: String,
    },
    /// Code 19: admin reload failed (bad path, corrupt artifact, disabled).
    ReloadFailed {
        /// Why the reload was rejected.
        message: String,
    },
    /// Code 20: the server is draining and no longer answers queries.
    ShuttingDown,
    /// Code 21: an admin opcode (`Reload`, `Shutdown`, `Compact`) from a
    /// connection whose hello did not present the server's admin token.
    AdminDenied,
    /// Code 22: the background compaction could not complete (another one
    /// running, I/O failure, no artifact/WAL configured).
    CompactFailed {
        /// Why the compaction was rejected or failed.
        message: String,
    },
}

impl WireError {
    /// The stable one-byte wire code of this error.
    pub fn code(&self) -> u8 {
        match self {
            WireError::VertexOutOfRange { .. } => 1,
            WireError::StaleIndex => 2,
            WireError::NoPathInfo => 3,
            WireError::UnknownQuery { .. } => 15,
            WireError::Malformed { .. } => 16,
            WireError::UnsupportedOpcode { .. } => 17,
            WireError::TooLarge { .. } => 18,
            WireError::ReloadFailed { .. } => 19,
            WireError::ShuttingDown => 20,
            WireError::AdminDenied => 21,
            WireError::CompactFailed { .. } => 22,
        }
    }

    /// Maps engine-level codes back to the in-process [`QueryError`];
    /// `None` for protocol-level errors that have no local counterpart.
    pub fn to_query_error(&self) -> Option<QueryError> {
        match self {
            WireError::VertexOutOfRange { vertex, universe } => {
                Some(QueryError::VertexOutOfRange {
                    vertex: *vertex,
                    universe: *universe as usize,
                })
            }
            WireError::StaleIndex => Some(QueryError::StaleIndex),
            WireError::NoPathInfo => Some(QueryError::NoPathInfo),
            _ => None,
        }
    }
}

impl From<QueryError> for WireError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::VertexOutOfRange { vertex, universe } => WireError::VertexOutOfRange {
                vertex,
                universe: universe as u64,
            },
            QueryError::StaleIndex => WireError::StaleIndex,
            QueryError::NoPathInfo => WireError::NoPathInfo,
            // `QueryError` is #[non_exhaustive]: future variants degrade to
            // their display string instead of breaking the wire.
            other => WireError::UnknownQuery {
                message: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::VertexOutOfRange { vertex, universe } => {
                write!(f, "vertex {vertex} out of range (universe {universe})")
            }
            WireError::StaleIndex => write!(f, "index has pending dynamic updates on the server"),
            WireError::NoPathInfo => write!(f, "served index carries no path info"),
            WireError::UnknownQuery { message } => write!(f, "query error: {message}"),
            WireError::Malformed { message } => write!(f, "malformed frame: {message}"),
            WireError::UnsupportedOpcode { opcode } => {
                write!(f, "unsupported opcode 0x{opcode:02x}")
            }
            WireError::TooLarge { message } => write!(f, "request too large: {message}"),
            WireError::ReloadFailed { message } => write!(f, "reload failed: {message}"),
            WireError::ShuttingDown => write!(f, "server is shutting down"),
            WireError::AdminDenied => {
                write!(
                    f,
                    "admin opcode denied: connection presented no valid token"
                )
            }
            WireError::CompactFailed { message } => write!(f, "compaction failed: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a byte sequence failed to parse. Never a panic: every decode path
/// length-checks before reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the field being read.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The hello did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes received instead.
        got: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The peer's version.
        got: u16,
        /// Our [`VERSION`].
        want: u16,
    },
    /// An opcode byte no [`Request`] maps to.
    UnknownOpcode(u8),
    /// A status byte no [`Response`] maps to.
    UnknownStatus(u8),
    /// The payload parsed but bytes were left over — a framing bug or an
    /// attack, either way rejected.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A declared element count disagrees with the bytes present.
    CountMismatch {
        /// Elements the header declared.
        declared: usize,
        /// Elements the remaining bytes can hold.
        actual: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated: field needs {needed} bytes, {have} left")
            }
            DecodeError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            DecodeError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks {got}, we speak {want}"
                )
            }
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::UnknownStatus(st) => write!(f, "unknown status 0x{st:02x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::CountMismatch { declared, actual } => {
                write!(
                    f,
                    "count mismatch: header declares {declared}, bytes hold {actual}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Checked sequential reader over a byte slice: the panic-free counterpart
/// of the vendored [`bytes::Buf`], returning [`DecodeError::Truncated`]
/// where `Buf` would panic.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(rest: &'a [u8]) -> Self {
        Self { rest }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated {
                needed: n,
                have: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        // `bytes(N)` guarantees the length, so the conversion cannot
        // actually fail; mapping instead of unwrapping keeps the decode
        // path free of panicking constructs.
        self.bytes(N)?
            .try_into()
            .map_err(|_| DecodeError::Truncated { needed: N, have: 0 })
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.rest.len()))
        }
    }
}

fn put_string(out: &mut impl BufMut, s: &str) {
    // String fields carry a u16 length; longer inputs (e.g. an error
    // message quoting a client-supplied 64 KiB reload path) are truncated
    // at a char boundary so the receiver always gets valid UTF-8.
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.put_u16_le(len as u16);
    out.put_slice(s.as_bytes().get(..len).unwrap_or_default());
}

fn put_dist(out: &mut impl BufMut, d: Option<Dist>) {
    // `INF` is already the in-process "unreachable" sentinel, so the wire
    // reuses it: no real distance collides with it.
    out.put_u64_le(d.unwrap_or(INF));
}

fn get_dist(c: &mut Cursor<'_>) -> Result<Option<Dist>, DecodeError> {
    let raw = c.u64()?;
    Ok(if raw == INF { None } else { Some(raw) })
}

/// Longest admin token the hello accepts, in bytes. A bound keeps the
/// pre-authentication read trivially small.
pub const MAX_TOKEN_LEN: usize = 256;

/// Appends the serialized hello (either direction, no token) to `out`.
pub fn encode_hello(out: &mut impl BufMut) {
    encode_hello_with_token(out, None);
}

/// Appends a client hello announcing `token` (sent verbatim right after
/// the fixed 8 bytes). Tokens longer than [`MAX_TOKEN_LEN`] are truncated
/// — the server would reject the excess read anyway.
pub fn encode_hello_with_token(out: &mut impl BufMut, token: Option<&str>) {
    let token = token.map(str::as_bytes).unwrap_or_default();
    let len = token.len().min(MAX_TOKEN_LEN);
    out.put_slice(&MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(len as u16);
    out.put_slice(token.get(..len).unwrap_or_default());
}

/// Validates a received hello and returns the peer's version. The caller
/// decides whether a differing (but well-formed) version is fatal;
/// [`DecodeError::BadMagic`] always is. Ignores the token-length field —
/// use [`decode_hello_head`] when the trailing token bytes matter.
pub fn decode_hello(raw: &[u8; HELLO_LEN]) -> Result<u16, DecodeError> {
    decode_hello_head(raw).map(|(version, _)| version)
}

/// Validates a received hello and returns the peer's `(version,
/// token_len)`: `token_len` bytes of admin token follow the fixed hello
/// on the wire (0 for legacy peers and for server hellos).
pub fn decode_hello_head(raw: &[u8; HELLO_LEN]) -> Result<(u16, u16), DecodeError> {
    let mut c = Cursor::new(raw);
    let magic: [u8; 4] = c.array()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    let version = c.u16()?;
    let token_len = c.u16()?;
    Ok((version, token_len))
}

/// Appends one request *body* (no length prefix) to `out`.
pub fn encode_request(id: u64, req: &Request, out: &mut impl BufMut) {
    out.put_u64_le(id);
    out.put_u8(req.opcode());
    match req {
        Request::Ping
        | Request::Stats
        | Request::Shutdown
        | Request::Compact
        | Request::Metrics => {}
        Request::Query { s, t } => {
            out.put_u32_le(*s);
            out.put_u32_le(*t);
        }
        Request::Batch { pairs } => {
            out.put_u32_le(pairs.len() as u32);
            for &(s, t) in pairs {
                out.put_u32_le(s);
                out.put_u32_le(t);
            }
        }
        Request::Reload { path } => put_string(out, path),
    }
}

/// Parses one request body. The id parses even when the payload is
/// malformed — it is returned *inside* the error so the server can still
/// address its error response (see [`decode_request_id`]).
pub fn decode_request(body: &[u8]) -> Result<(u64, Request), DecodeError> {
    let mut c = Cursor::new(body);
    let id = c.u64()?;
    let op = c.u8()?;
    let req = match op {
        opcode::PING => Request::Ping,
        opcode::QUERY => Request::Query {
            s: c.u32()?,
            t: c.u32()?,
        },
        opcode::BATCH => {
            let declared = c.u32()? as usize;
            let actual = c.remaining() / 8;
            if declared != actual || !c.remaining().is_multiple_of(8) {
                return Err(DecodeError::CountMismatch { declared, actual });
            }
            let mut pairs = Vec::with_capacity(declared);
            for _ in 0..declared {
                pairs.push((c.u32()?, c.u32()?));
            }
            Request::Batch { pairs }
        }
        opcode::STATS => Request::Stats,
        opcode::RELOAD => Request::Reload { path: c.string()? },
        opcode::SHUTDOWN => Request::Shutdown,
        opcode::COMPACT => Request::Compact,
        opcode::METRICS => Request::Metrics,
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok((id, req))
}

/// Best-effort request id of a frame body that may not parse: enough of a
/// malformed frame to address an error response to it. `None` when even
/// the id is truncated.
pub fn decode_request_id(body: &[u8]) -> Option<u64> {
    Cursor::new(body).u64().ok()
}

/// Appends one response *body* (no length prefix) to `out`.
pub fn encode_response(id: u64, resp: &Response, out: &mut impl BufMut) {
    out.put_u64_le(id);
    match resp {
        Response::Error(err) => {
            out.put_u8(err.code());
            match err {
                WireError::VertexOutOfRange { vertex, universe } => {
                    out.put_u32_le(*vertex);
                    out.put_u64_le(*universe);
                }
                WireError::StaleIndex
                | WireError::NoPathInfo
                | WireError::ShuttingDown
                | WireError::AdminDenied => {}
                WireError::UnknownQuery { message }
                | WireError::Malformed { message }
                | WireError::TooLarge { message }
                | WireError::ReloadFailed { message }
                | WireError::CompactFailed { message } => put_string(out, message),
                WireError::UnsupportedOpcode { opcode } => out.put_u8(*opcode),
            }
        }
        // Success arms each write the 0 status byte themselves: keeping
        // the match exhaustive at the top level means no `unreachable!`
        // in a panic-free zone (and no way for a new variant to be
        // half-handled — the compiler forces a real arm).
        Response::Pong => {
            out.put_u8(0);
            out.put_u8(opcode::PING);
        }
        Response::Distance(d) => {
            out.put_u8(0);
            out.put_u8(opcode::QUERY);
            put_dist(out, *d);
        }
        Response::Batch(dists) => {
            out.put_u8(0);
            out.put_u8(opcode::BATCH);
            out.put_u32_le(dists.len() as u32);
            for &d in dists {
                put_dist(out, d);
            }
        }
        Response::Stats(s) => {
            out.put_u8(0);
            out.put_u8(opcode::STATS);
            put_string(out, &s.engine);
            for v in [
                s.num_vertices,
                s.snapshot_version,
                s.connections_total,
                s.connections_active,
                s.frames,
                s.queries,
                s.batches,
                s.errors,
                s.uptime_ms,
                s.p50_us,
                s.p99_us,
            ] {
                out.put_u64_le(v);
            }
            if let Some(h) = &s.latency {
                out.put_u32_le(h.buckets().len() as u32);
                for &count in h.buckets() {
                    out.put_u64_le(count);
                }
                out.put_u64_le(h.sum_nanos());
            }
        }
        Response::Reloaded {
            version,
            num_vertices,
        } => {
            out.put_u8(0);
            out.put_u8(opcode::RELOAD);
            out.put_u64_le(*version);
            out.put_u64_le(*num_vertices);
        }
        Response::ShutdownAck => {
            out.put_u8(0);
            out.put_u8(opcode::SHUTDOWN);
        }
        Response::Compacted {
            version,
            num_vertices,
        } => {
            out.put_u8(0);
            out.put_u8(opcode::COMPACT);
            out.put_u64_le(*version);
            out.put_u64_le(*num_vertices);
        }
        Response::Metrics { text } => {
            out.put_u8(0);
            out.put_u8(opcode::METRICS);
            // Exposition text can exceed the u16 string-field cap, so it
            // carries its own u32 length instead of using `put_string`.
            out.put_u32_le(text.len() as u32);
            out.put_slice(text.as_bytes());
        }
    }
}

/// Parses one response body.
pub fn decode_response(body: &[u8]) -> Result<(u64, Response), DecodeError> {
    let mut c = Cursor::new(body);
    let id = c.u64()?;
    let status = c.u8()?;
    let resp = match status {
        0 => match c.u8()? {
            opcode::PING => Response::Pong,
            opcode::QUERY => Response::Distance(get_dist(&mut c)?),
            opcode::BATCH => {
                let declared = c.u32()? as usize;
                let actual = c.remaining() / 8;
                if declared != actual || !c.remaining().is_multiple_of(8) {
                    return Err(DecodeError::CountMismatch { declared, actual });
                }
                let mut dists = Vec::with_capacity(declared);
                for _ in 0..declared {
                    dists.push(get_dist(&mut c)?);
                }
                Response::Batch(dists)
            }
            opcode::STATS => {
                // Struct-literal fields evaluate in written order, which
                // matches the wire order the encoder writes.
                let mut stats = WireStats {
                    engine: c.string()?,
                    num_vertices: c.u64()?,
                    snapshot_version: c.u64()?,
                    connections_total: c.u64()?,
                    connections_active: c.u64()?,
                    frames: c.u64()?,
                    queries: c.u64()?,
                    batches: c.u64()?,
                    errors: c.u64()?,
                    uptime_ms: c.u64()?,
                    p50_us: c.u64()?,
                    p99_us: c.u64()?,
                    latency: None,
                };
                // Optional histogram tail: absent in pre-histogram
                // payloads, which therefore still decode.
                if c.remaining() > 0 {
                    let declared = c.u32()? as usize;
                    if declared != islabel_obs::LATENCY_BUCKETS {
                        return Err(DecodeError::CountMismatch {
                            declared,
                            actual: islabel_obs::LATENCY_BUCKETS,
                        });
                    }
                    let mut counts = [0u64; islabel_obs::LATENCY_BUCKETS];
                    for slot in counts.iter_mut() {
                        *slot = c.u64()?;
                    }
                    let sum_nanos = c.u64()?;
                    stats.latency = Some(Box::new(islabel_obs::LatencyHistogram::from_parts(
                        counts, sum_nanos,
                    )));
                }
                Response::Stats(stats)
            }
            opcode::RELOAD => Response::Reloaded {
                version: c.u64()?,
                num_vertices: c.u64()?,
            },
            opcode::SHUTDOWN => Response::ShutdownAck,
            opcode::COMPACT => Response::Compacted {
                version: c.u64()?,
                num_vertices: c.u64()?,
            },
            opcode::METRICS => {
                let len = c.u32()? as usize;
                let raw = c.bytes(len)?;
                Response::Metrics {
                    text: String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::InvalidUtf8)?,
                }
            }
            other => return Err(DecodeError::UnknownOpcode(other)),
        },
        1 => Response::Error(WireError::VertexOutOfRange {
            vertex: c.u32()?,
            universe: c.u64()?,
        }),
        2 => Response::Error(WireError::StaleIndex),
        3 => Response::Error(WireError::NoPathInfo),
        15 => Response::Error(WireError::UnknownQuery {
            message: c.string()?,
        }),
        16 => Response::Error(WireError::Malformed {
            message: c.string()?,
        }),
        17 => Response::Error(WireError::UnsupportedOpcode { opcode: c.u8()? }),
        18 => Response::Error(WireError::TooLarge {
            message: c.string()?,
        }),
        19 => Response::Error(WireError::ReloadFailed {
            message: c.string()?,
        }),
        20 => Response::Error(WireError::ShuttingDown),
        21 => Response::Error(WireError::AdminDenied),
        22 => Response::Error(WireError::CompactFailed {
            message: c.string()?,
        }),
        other => return Err(DecodeError::UnknownStatus(other)),
    };
    c.finish()?;
    Ok((id, resp))
}

/// Appends a full frame — length prefix plus `body` — to `out`.
pub fn encode_frame(body: &[u8], out: &mut impl BufMut) {
    out.put_u32_le(body.len() as u32);
    out.put_slice(body);
}

/// Appends a full frame to `out`: a length placeholder, the body
/// `encode_body` writes after it, then the prefix patched in place — no
/// buffer per frame, no body copy. Returns the body length. The single
/// definition of the prefix layout both halves of the connection use on
/// their hot paths.
pub fn append_framed(out: &mut Vec<u8>, encode_body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_body(out);
    let len = out.len().saturating_sub(at + 4);
    // The placeholder always exists — it was appended above and
    // `encode_body` only appends after it.
    if let Some(prefix) = out.get_mut(at..at + 4) {
        prefix.copy_from_slice(&(len as u32).to_le_bytes());
    }
    len
}

/// Why [`read_frame`] stopped without producing a frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying transport failed (includes mid-frame EOF, surfaced
    /// as [`std::io::ErrorKind::UnexpectedEof`]).
    Io(std::io::Error),
    /// The length prefix exceeds the configured cap. Unrecoverable for the
    /// connection: the stream cannot be resynchronized past a lying
    /// prefix, so the caller must close it.
    Oversized {
        /// The declared body length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// A read timeout expired *between* frames (no prefix byte arrived).
    /// The connection is still perfectly synchronized — the caller may do
    /// idle housekeeping (e.g. refresh a pinned snapshot) and read again.
    /// A timeout *inside* a frame is [`Io`](FrameReadError::Io) instead:
    /// the peer stalled mid-message.
    IdleTimeout,
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame read: {e}"),
            FrameReadError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameReadError::IdleTimeout => write!(f, "read timed out between frames"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<std::io::Error> for FrameReadError {
    fn from(e: std::io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

/// Reads one length-prefixed frame body into `buf` (cleared first).
/// `Ok(false)` means the peer closed cleanly at a frame boundary;
/// `Ok(true)` means `buf` holds one complete body.
pub fn read_frame(
    r: &mut impl std::io::Read,
    max_len: u32,
    buf: &mut Vec<u8>,
) -> Result<bool, FrameReadError> {
    let mut prefix = [0u8; 4];
    // A clean EOF before any prefix byte is a normal close; EOF inside the
    // prefix or body is not.
    let mut filled = 0;
    while filled < prefix.len() {
        let Some(dst) = prefix.get_mut(filled..) else {
            break; // unreachable: the loop condition bounds `filled`
        };
        match r.read(dst) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                )
                .into())
            }
            Ok(n) => filled += n,
            // A timeout with zero prefix bytes read is a between-frames
            // idle tick, not a broken stream.
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(FrameReadError::IdleTimeout)
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(FrameReadError::Oversized { len, max: max_len });
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut body = Vec::new();
        encode_request(42, &req, &mut body);
        assert_eq!(decode_request(&body), Ok((42, req)));
    }

    fn roundtrip_response(resp: Response) {
        let mut body = Vec::new();
        encode_response(7, &resp, &mut body);
        assert_eq!(decode_response(&body), Ok((7, resp)));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Query { s: 0, t: u32::MAX });
        roundtrip_request(Request::Batch { pairs: vec![] });
        roundtrip_request(Request::Batch {
            pairs: vec![(1, 2), (3, 4), (u32::MAX, 0)],
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Reload {
            path: "/tmp/ix.islx".into(),
        });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Compact);
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Distance(Some(0)));
        roundtrip_response(Response::Distance(None));
        roundtrip_response(Response::Batch(vec![Some(3), None, Some(INF - 1)]));
        roundtrip_response(Response::Stats(WireStats {
            engine: "islabel".into(),
            num_vertices: 9,
            snapshot_version: 2,
            connections_total: 5,
            connections_active: 1,
            frames: 100,
            queries: 90,
            batches: 3,
            errors: 2,
            uptime_ms: 12_345,
            p50_us: 8,
            p99_us: 120,
            latency: Some(Box::new({
                let mut h = islabel_obs::LatencyHistogram::new();
                h.record(std::time::Duration::from_micros(8));
                h.record(std::time::Duration::from_micros(120));
                h
            })),
        }));
        roundtrip_response(Response::Stats(WireStats::default()));
        roundtrip_response(Response::Metrics {
            text: "# HELP islabel_net_queries_total q\n".into(),
        });
        roundtrip_response(Response::Reloaded {
            version: 3,
            num_vertices: 1000,
        });
        roundtrip_response(Response::ShutdownAck);
        roundtrip_response(Response::Compacted {
            version: 4,
            num_vertices: 151,
        });
        for err in [
            WireError::VertexOutOfRange {
                vertex: 99,
                universe: 10,
            },
            WireError::StaleIndex,
            WireError::NoPathInfo,
            WireError::UnknownQuery {
                message: "future".into(),
            },
            WireError::Malformed {
                message: "bad".into(),
            },
            WireError::UnsupportedOpcode { opcode: 0xEE },
            WireError::TooLarge {
                message: "batch".into(),
            },
            WireError::ReloadFailed {
                message: "corrupt".into(),
            },
            WireError::ShuttingDown,
            WireError::AdminDenied,
            WireError::CompactFailed {
                message: "busy".into(),
            },
        ] {
            roundtrip_response(Response::Error(err));
        }
    }

    #[test]
    fn pre_histogram_stats_payload_still_decodes() {
        // Hand-build the old Stats wire shape: engine string + 11 u64
        // scalars, no histogram tail. The decoder must accept it and
        // report `latency: None` rather than erroring on the short body.
        let mut body = Vec::new();
        body.put_u64_le(7); // id
        body.put_u8(0); // status Ok
        body.put_u8(opcode::STATS);
        put_string(&mut body, "islabel");
        for v in 1..=11u64 {
            body.put_u64_le(v);
        }
        let (id, resp) = decode_response(&body).expect("legacy payload decodes");
        assert_eq!(id, 7);
        match resp {
            Response::Stats(s) => {
                assert_eq!(s.engine, "islabel");
                assert_eq!(s.num_vertices, 1);
                assert_eq!(s.p99_us, 11);
                assert_eq!(s.latency, None);
            }
            other => panic!("wrong response {other:?}"),
        }

        // A tail with a lying bucket count is rejected, not mis-read.
        body.put_u32_le(3);
        body.put_u64_le(0);
        assert!(matches!(
            decode_response(&body),
            Err(DecodeError::CountMismatch { declared: 3, .. })
        ));
    }

    #[test]
    fn query_error_roundtrips_through_wire_codes() {
        let original = QueryError::VertexOutOfRange {
            vertex: 999,
            universe: 120,
        };
        let wire = WireError::from(original);
        assert_eq!(wire.code(), 1);
        assert_eq!(wire.to_query_error(), Some(original));
        assert_eq!(
            WireError::from(QueryError::StaleIndex).to_query_error(),
            Some(QueryError::StaleIndex)
        );
        assert_eq!(
            WireError::from(QueryError::NoPathInfo).to_query_error(),
            Some(QueryError::NoPathInfo)
        );
        // Protocol-level errors have no in-process counterpart.
        assert_eq!(WireError::ShuttingDown.to_query_error(), None);
    }

    #[test]
    fn overlong_string_fields_truncate_at_a_char_boundary() {
        // A server error message can quote a client-supplied 64 KiB path;
        // the u16-length string field must truncate to *valid UTF-8*, not
        // panic or split a multibyte char.
        let mut message = "é".repeat(40_000); // 80 000 bytes, 2 each
        message.push('x');
        let mut body = Vec::new();
        encode_response(
            1,
            &Response::Error(WireError::ReloadFailed { message }),
            &mut body,
        );
        let (_, decoded) = decode_response(&body).expect("truncated field stays decodable");
        match decoded {
            Response::Error(WireError::ReloadFailed { message }) => {
                assert!(message.len() <= u16::MAX as usize);
                assert!(message.len() >= u16::MAX as usize - 3, "{}", message.len());
                assert!(message.chars().all(|c| c == 'é'));
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn hello_roundtrip_and_rejection() {
        let mut hello = Vec::new();
        encode_hello(&mut hello);
        assert_eq!(hello.len(), HELLO_LEN);
        let raw: [u8; HELLO_LEN] = hello.as_slice().try_into().unwrap();
        assert_eq!(decode_hello(&raw), Ok(VERSION));

        let mut bad = raw;
        bad[0] = b'X';
        assert!(matches!(
            decode_hello(&bad),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn hello_token_field_roundtrips_and_stays_legacy_compatible() {
        // Token-less hello is byte-identical to the legacy reserved field.
        let mut plain = Vec::new();
        encode_hello(&mut plain);
        assert_eq!(plain.len(), HELLO_LEN);
        let head: [u8; HELLO_LEN] = plain.as_slice().try_into().unwrap();
        assert_eq!(decode_hello_head(&head), Ok((VERSION, 0)));

        // A token rides after the fixed head, its length announced in the
        // formerly-reserved u16.
        let mut with = Vec::new();
        encode_hello_with_token(&mut with, Some("sesame"));
        assert_eq!(with.len(), HELLO_LEN + 6);
        let head: [u8; HELLO_LEN] = with[..HELLO_LEN].try_into().unwrap();
        assert_eq!(decode_hello_head(&head), Ok((VERSION, 6)));
        assert_eq!(&with[HELLO_LEN..], b"sesame");

        // Oversized tokens clamp to the wire cap instead of overflowing.
        let mut huge = Vec::new();
        encode_hello_with_token(&mut huge, Some(&"a".repeat(MAX_TOKEN_LEN + 50)));
        assert_eq!(huge.len(), HELLO_LEN + MAX_TOKEN_LEN);
    }

    #[test]
    fn truncated_bodies_error_instead_of_panicking() {
        let mut body = Vec::new();
        encode_request(1, &Request::Query { s: 3, t: 4 }, &mut body);
        for cut in 0..body.len() {
            let r = decode_request(&body[..cut]);
            assert!(r.is_err(), "prefix of len {cut} decoded");
        }
        let mut resp = Vec::new();
        encode_response(1, &Response::Batch(vec![Some(1), None]), &mut resp);
        for cut in 0..resp.len() {
            assert!(decode_response(&resp[..cut]).is_err());
        }
    }

    #[test]
    fn batch_count_lies_are_rejected() {
        // Header declares more pairs than the body carries: must reject
        // without allocating the declared amount.
        let mut body = Vec::new();
        body.put_u64_le(1);
        body.put_u8(opcode::BATCH);
        body.put_u32_le(u32::MAX);
        body.put_u32_le(5);
        body.put_u32_le(6);
        assert!(matches!(
            decode_request(&body),
            Err(DecodeError::CountMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Vec::new();
        encode_request(1, &Request::Ping, &mut body);
        body.put_u8(0xAA);
        assert_eq!(decode_request(&body), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn malformed_request_still_yields_its_id() {
        let mut body = Vec::new();
        body.put_u64_le(0xFEED);
        body.put_u8(0xFF); // unknown opcode
        assert_eq!(decode_request(&body), Err(DecodeError::UnknownOpcode(0xFF)));
        assert_eq!(decode_request_id(&body), Some(0xFEED));
        assert_eq!(decode_request_id(&[1, 2, 3]), None);
    }

    #[test]
    fn frame_reader_handles_eof_and_caps() {
        let mut out = Vec::new();
        encode_frame(b"hello", &mut out);
        let mut r: &[u8] = &out;
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, 64, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(!read_frame(&mut r, 64, &mut buf).unwrap()); // clean EOF

        // Oversized prefix is a typed, unrecoverable rejection.
        let mut lying = Vec::new();
        lying.put_u32_le(1 << 30);
        let mut r: &[u8] = &lying;
        assert!(matches!(
            read_frame(&mut r, 64, &mut buf),
            Err(FrameReadError::Oversized { len, max: 64 }) if len == 1 << 30
        ));

        // EOF mid-body is an I/O error, not a hang or a panic.
        let mut truncated = Vec::new();
        encode_frame(b"hello", &mut truncated);
        truncated.truncate(6);
        let mut r: &[u8] = &truncated;
        assert!(matches!(
            read_frame(&mut r, 64, &mut buf),
            Err(FrameReadError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn appended_frames_match_the_copying_encoder() {
        // Two frames appended behind bytes already in the buffer: each
        // prefix is patched at its own offset, nothing before it moves.
        let mut out = b"kept".to_vec();
        let mut want = out.clone();
        for (id, req) in [(1, Request::Ping), (2, Request::Query { s: 3, t: 9 })] {
            let mut body = Vec::new();
            encode_request(id, &req, &mut body);
            encode_frame(&body, &mut want);
            let len = append_framed(&mut out, |out| encode_request(id, &req, out));
            assert_eq!(len, body.len());
        }
        assert_eq!(out, want);
    }
}
