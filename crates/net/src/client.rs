//! [`DistanceClient`] and [`ClientPool`]: the blocking side of the wire.
//!
//! A client owns one TCP connection. The synchronous conveniences
//! ([`distance`](DistanceClient::distance),
//! [`distance_batch`](DistanceClient::distance_batch), ...) send one
//! request and block for its response; the raw
//! [`send`](DistanceClient::send) / [`recv`](DistanceClient::recv)
//! primitives expose the pipeline — issue any number of requests, then
//! collect responses correlated by request id (out-of-order arrivals are
//! stashed, so interleaved waits are safe).
//!
//! [`ClientPool`] multiplexes a workload over several connections for
//! load generation: round-robin singles and batch fan-out across the
//! pool.

use crate::protocol::{
    self, DecodeError, FrameReadError, Request, Response, WireError, WireStats, HELLO_LEN,
};
use islabel_core::QueryError;
use islabel_graph::{Dist, VertexId};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Any failure of a client-side operation.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, unexpected EOF).
    Io(std::io::Error),
    /// The peer sent bytes that do not parse as this protocol version.
    Decode(DecodeError),
    /// The handshake failed: the peer is not an IS-LABEL server, or
    /// speaks a different protocol version.
    Handshake(DecodeError),
    /// The server answered with a typed wire error; engine-level codes
    /// convert back to [`QueryError`] via [`NetError::as_query_error`].
    Remote(WireError),
    /// The server announced a frame larger than this client's inbound
    /// cap (see [`DistanceClient::connect_with`]).
    FrameTooLarge {
        /// The announced body length.
        len: u32,
        /// The client's cap.
        max: u32,
    },
    /// The server answered the request id with the wrong response shape
    /// (a server bug, not a transport problem).
    UnexpectedResponse {
        /// What the request expected.
        expected: &'static str,
        /// Debug rendering of what arrived.
        got: String,
    },
}

impl NetError {
    /// The in-process [`QueryError`] behind a [`NetError::Remote`], when
    /// the wire code maps to one — the round-trip of typed errors across
    /// the network boundary.
    pub fn as_query_error(&self) -> Option<QueryError> {
        match self {
            NetError::Remote(w) => w.to_query_error(),
            _ => None,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O: {e}"),
            NetError::Decode(e) => write!(f, "protocol decode: {e}"),
            NetError::Handshake(e) => write!(f, "handshake failed: {e}"),
            NetError::Remote(e) => write!(f, "server error: {e}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "inbound frame of {len} bytes exceeds client cap {max}")
            }
            NetError::UnexpectedResponse { expected, got } => {
                write!(f, "unexpected response: wanted {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Decode(e) | NetError::Handshake(e) => Some(e),
            NetError::Remote(e) => Some(e),
            NetError::FrameTooLarge { .. } | NetError::UnexpectedResponse { .. } => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> Self {
        NetError::Decode(e)
    }
}

impl From<FrameReadError> for NetError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(io) => NetError::Io(io),
            // A client-side read timeout (set_read_timeout) is an error
            // here, not a housekeeping tick as on the server.
            FrameReadError::IdleTimeout => NetError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "timed out waiting for a response frame",
            )),
            FrameReadError::Oversized { len, max } => NetError::FrameTooLarge { len, max },
        }
    }
}

/// A blocking client over one pipelined connection. Not `Sync`: one
/// client belongs to one thread (wrap each in a mutex or use a
/// [`ClientPool`] for concurrency).
pub struct DistanceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    stashed: HashMap<u64, Response>,
    max_frame_bytes: u32,
    frame: Vec<u8>,
    /// The request being encoded by `send`, reused across calls.
    outgoing: Vec<u8>,
}

impl DistanceClient {
    /// Connects and performs the magic/version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::handshake(addr, protocol::DEFAULT_MAX_FRAME_BYTES, None)
    }

    /// [`connect`](DistanceClient::connect) with a custom inbound frame
    /// cap (must admit the server's largest batch response).
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame_bytes: u32) -> Result<Self, NetError> {
        Self::handshake(addr, max_frame_bytes, None)
    }

    /// [`connect`](DistanceClient::connect) presenting an admin token in
    /// the hello. Required for the admin opcodes (`reload`,
    /// `shutdown_server`, `compact`) against a server configured with
    /// [`NetConfig::admin_token`](crate::NetConfig::admin_token); query
    /// traffic never needs it. A wrong token still connects — the server
    /// answers admin requests with the `AdminDenied` code instead.
    pub fn connect_with_token(addr: impl ToSocketAddrs, token: &str) -> Result<Self, NetError> {
        Self::handshake(addr, protocol::DEFAULT_MAX_FRAME_BYTES, Some(token))
    }

    fn handshake(
        addr: impl ToSocketAddrs,
        max_frame_bytes: u32,
        token: Option<&str>,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);

        let mut hello = Vec::with_capacity(HELLO_LEN);
        protocol::encode_hello_with_token(&mut hello, token);
        writer.write_all(&hello)?;
        writer.flush()?;
        let mut server_hello = [0u8; HELLO_LEN];
        reader.read_exact(&mut server_hello)?;
        let version = protocol::decode_hello(&server_hello).map_err(NetError::Handshake)?;
        if version != protocol::VERSION {
            return Err(NetError::Handshake(DecodeError::VersionMismatch {
                got: version,
                want: protocol::VERSION,
            }));
        }

        Ok(Self {
            reader,
            writer,
            next_id: 1,
            stashed: HashMap::new(),
            max_frame_bytes,
            frame: Vec::new(),
            outgoing: Vec::new(),
        })
    }

    /// Bounds how long any blocking receive waits for the server; `None`
    /// (the default) waits forever. Set it when talking to servers that
    /// may wedge or vanish behind a partition — a timeout surfaces as
    /// [`NetError::Io`] with kind `WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Bounds how long a blocking send waits on a full socket buffer;
    /// `None` (the default) waits forever.
    pub fn set_write_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.writer.get_ref().set_write_timeout(timeout)
    }

    /// Pipelining primitive: encodes and buffers one request, returning
    /// the id its response will carry. Nothing hits the wire until
    /// [`flush`](DistanceClient::flush) (or a blocking `recv`-side call).
    /// A request that would exceed the frame cap is rejected locally with
    /// [`NetError::FrameTooLarge`] — sending it would only get the
    /// connection closed by the server's prefix check.
    ///
    /// The pipeline is a **window**, not a queue: the server answers on
    /// the thread that reads, so it stops reading once the responses
    /// nobody collects fill the socket buffers, and closes the connection
    /// after its `write_timeout`. Keep a bounded number of requests in
    /// flight and [`recv`](DistanceClient::recv) as you go.
    pub fn send(&mut self, request: &Request) -> Result<u64, NetError> {
        let id = self.next_id;
        self.outgoing.clear();
        let body_len = protocol::append_framed(&mut self.outgoing, |out| {
            protocol::encode_request(id, request, out)
        });
        if body_len > self.max_frame_bytes as usize {
            return Err(NetError::FrameTooLarge {
                len: body_len as u32,
                max: self.max_frame_bytes,
            });
        }
        self.next_id += 1;
        self.writer.write_all(&self.outgoing)?;
        Ok(id)
    }

    /// Pushes all buffered requests onto the wire.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Pipelining primitive: blocks for the next response frame, whatever
    /// request it answers.
    pub fn recv(&mut self) -> Result<(u64, Response), NetError> {
        if !protocol::read_frame(&mut self.reader, self.max_frame_bytes, &mut self.frame)? {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(protocol::decode_response(&self.frame)?)
    }

    /// Blocks until the response for `id` arrives, stashing responses to
    /// other in-flight requests for their own waiters. A response tagged
    /// with the reserved id 0 — the server's address for errors it cannot
    /// attribute to any request (client ids start at 1) — is surfaced
    /// here instead of stashed, since nothing could ever wait for it.
    pub fn wait_for(&mut self, id: u64) -> Result<Response, NetError> {
        if let Some(resp) = self.stashed.remove(&id) {
            return Ok(resp);
        }
        self.flush()?;
        loop {
            let (rid, resp) = self.recv()?;
            if rid == id {
                return Ok(resp);
            }
            if rid == 0 {
                if let Response::Error(e) = resp {
                    return Err(NetError::Remote(e));
                }
            }
            self.stashed.insert(rid, resp);
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let id = self.send(request)?;
        self.wait_for(id)
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", other)),
        }
    }

    /// Remote `dist(s, t)`; `Ok(None)` = unreachable, exactly like
    /// [`DistanceOracle::try_distance`](islabel_core::DistanceOracle::try_distance).
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, NetError> {
        match self.call(&Request::Query { s, t })? {
            Response::Distance(d) => Ok(d),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("Distance", other)),
        }
    }

    /// Remote batch: distances in input order; one failing pair fails the
    /// batch (the in-process `distance_batch` contract over the wire).
    pub fn distance_batch(
        &mut self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Vec<Option<Dist>>, NetError> {
        match self.call(&Request::Batch {
            pairs: pairs.to_vec(),
        })? {
            Response::Batch(d) => Ok(d),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("Batch", other)),
        }
    }

    /// Server statistics (counters plus latency percentiles).
    pub fn stats(&mut self) -> Result<WireStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// The server's metrics registry plus slow-query log as Prometheus
    /// exposition text. Needs no admin token.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("Metrics", other)),
        }
    }

    /// Admin: hot-swap the served index from a path on the *server's*
    /// filesystem; returns the new snapshot generation and vertex count.
    pub fn reload(&mut self, path: &str) -> Result<(u64, u64), NetError> {
        match self.call(&Request::Reload {
            path: path.to_string(),
        })? {
            Response::Reloaded {
                version,
                num_vertices,
            } => Ok((version, num_vertices)),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("Reloaded", other)),
        }
    }

    /// Admin: fold the server's WAL into a fresh pristine index
    /// (rebuild-then-swap compaction); returns the new snapshot generation
    /// and vertex count. Blocks for the duration of the rebuild.
    pub fn compact(&mut self) -> Result<(u64, u64), NetError> {
        match self.call(&Request::Compact)? {
            Response::Compacted {
                version,
                num_vertices,
            } => Ok((version, num_vertices)),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("Compacted", other)),
        }
    }

    /// Admin: ask the server to drain and exit (acknowledged before the
    /// server starts tearing down).
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            Response::Error(e) => Err(NetError::Remote(e)),
            other => Err(unexpected("ShutdownAck", other)),
        }
    }
}

impl std::fmt::Debug for DistanceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceClient")
            .field("next_id", &self.next_id)
            .field("stashed", &self.stashed.len())
            .finish_non_exhaustive()
    }
}

fn unexpected(expected: &'static str, got: Response) -> NetError {
    NetError::UnexpectedResponse {
        expected,
        got: format!("{got:?}"),
    }
}

/// A fixed-size pool of connections for concurrent load: singles
/// round-robin across the pool, batches fan out over it. `&self`
/// everywhere — share one pool across worker threads.
pub struct ClientPool {
    clients: Vec<Mutex<DistanceClient>>,
    next: AtomicUsize,
}

impl ClientPool {
    /// Opens `connections` independent connections to `addr`.
    pub fn connect(addr: impl ToSocketAddrs + Copy, connections: usize) -> Result<Self, NetError> {
        assert!(connections > 0, "a pool needs at least one connection");
        let clients = (0..connections)
            .map(|_| DistanceClient::connect(addr).map(Mutex::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            clients,
            next: AtomicUsize::new(0),
        })
    }

    /// Connections in the pool.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the pool is empty (never true: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    fn checkout(&self) -> &Mutex<DistanceClient> {
        // ordering: Relaxed — round-robin ticket; only uniqueness
        // matters, no memory is published through it.
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.clients.len();
        &self.clients[i]
    }

    /// Remote `dist(s, t)` on the next connection (round-robin).
    pub fn distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, NetError> {
        self.checkout()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .distance(s, t)
    }

    /// Remote batch fanned out over every connection concurrently,
    /// results in input order. One failing chunk fails the call (first
    /// error in chunk order wins).
    pub fn distance_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Vec<Option<Dist>>, NetError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let chunks = self.clients.len().min(pairs.len());
        let chunk = pairs.len().div_ceil(chunks);
        let results: Vec<Result<Vec<Option<Dist>>, NetError>> = std::thread::scope(|scope| {
            let workers: Vec<_> = pairs
                .chunks(chunk)
                .zip(&self.clients)
                .map(|(work, client)| {
                    scope.spawn(move || {
                        client
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .distance_batch(work)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("pool worker panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(pairs.len());
        for r in results {
            out.extend(r?);
        }
        Ok(out)
    }

    /// Server statistics through the first connection.
    pub fn stats(&self) -> Result<WireStats, NetError> {
        self.clients[0]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats()
    }
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("connections", &self.clients.len())
            .finish_non_exhaustive()
    }
}
