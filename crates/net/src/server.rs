//! [`DistanceServer`]: the TCP front of the serving stack.
//!
//! One acceptor thread plus **one thread per connection**, which owns a
//! request from `recv` to `send`: it parses request frames out of a
//! connection-owned input buffer, answers each through a
//! [`QuerySession`](islabel_core::QuerySession) pinned to the current
//! [`Snapshot`], and appends the encoded response — tagged with the
//! request id it answers — to a connection-owned output buffer. One rule
//! moves that buffer onto the socket: **a connection never waits for
//! input while it holds unwritten output** (and never holds more than a
//! fixed flush size of it). So a depth-1 request costs one `recv`, one
//! `send` and no thread wake-up; a pipelined burst that arrived together
//! is answered with one `send`; and a client whose next frame is only
//! half-arrived still gets the replies to the frames before it. A
//! connection is a **pipeline**: the client may have a window of requests
//! in flight and responses arrive in request order, correlated by id.
//! Backpressure is the kernel's socket buffer: a client that stops
//! reading stalls only its own connection's thread, for at most
//! [`NetConfig::write_timeout`], and is then closed. See
//! `docs/adr/0004-one-thread-per-connection.md`.
//!
//! Hot swap follows `QueryService`'s rule — a request is answered from
//! the one generation pinned before it — with the pin and its session
//! held across frames. Every `Query` and every pair of a `Batch` goes
//! through [`islabel_serve::answer_traced`], the service's own per-query
//! step. After every frame the connection compares its pinned generation
//! with the shared [`OracleHandle`]; when a swap (e.g. a wire-triggered
//! `Reload` or `Compact`) has landed, it re-pins and opens a fresh
//! session, and the frame being processed when the swap hit finishes on
//! the generation it pinned. Idle connections re-pin too: the socket
//! read runs under [`NetConfig::idle_tick`], and a timeout that fires
//! *between* frames checks the handle generation and drops a retired pin
//! — a silent connection no longer keeps an old index's memory alive
//! beyond one tick.
//!
//! Admin opcodes (`Reload`, `Shutdown`, `Compact`) can be gated behind a
//! shared secret ([`NetConfig::admin_token`]) presented in the client's
//! hello; connections without it get the stable `AdminDenied` code while
//! query traffic flows unauthenticated.
//!
//! Error handling is frame-scoped: a body that fails to decode is
//! answered with a `Malformed` error carrying the frame's request id (if
//! one could be recovered) and the connection keeps serving. Only lies
//! the stream cannot recover from — a length prefix over the configured
//! cap, a broken socket, a bad handshake — close the connection.
//!
//! This module is a **panic-free zone** (escapes need a `lint:allow`
//! comment with a reason) and every atomic ordering here carries an
//! `// ordering:` justification — enforced by `islabel-lint` via
//! `lint.toml` at the repo root.

use crate::protocol::{
    self, FrameReadError, Request, Response, WireError, WireStats, HELLO_LEN, MAX_TOKEN_LEN,
};
use islabel_core::persist::try_load_oracle_from_path;
use islabel_core::snapshot::{OracleHandle, SharedOracle, Snapshot};
use islabel_obs::{AtomicLatencyHistogram, LatencyHistogram};
use islabel_serve::{answer_traced, RebuildCoordinator};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Limits and toggles of a [`DistanceServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Cap on one frame body's length; a prefix above it closes the
    /// connection (the stream cannot be resynchronized past it).
    pub max_frame_bytes: u32,
    /// Cap on pairs in one `Batch` request; larger well-formed batches are
    /// answered with a `TooLarge` error and the connection stays up.
    pub max_batch_pairs: usize,
    /// Cap on simultaneously open connections; excess accepts are dropped.
    pub max_connections: usize,
    /// Whether the admin `Reload` opcode is honored; when `false` it is
    /// answered with `ReloadFailed` even for token-bearing connections.
    pub allow_reload: bool,
    /// The peer-stall bound, per connection: how long a peer that stops
    /// *reading* — or never finishes its hello — can hold its connection
    /// thread (it is the socket write timeout, and the read timeout of
    /// the handshake) before the connection is closed, and therefore how
    /// long [`DistanceServer::shutdown`] can block on such a peer.
    /// `None` disables the bound (not recommended).
    pub write_timeout: Option<Duration>,
    /// Shared secret gating the admin opcodes (`Reload`, `Shutdown`,
    /// `Compact`): when set, only connections whose hello presented
    /// exactly this token may use them (stable error code 21,
    /// `AdminDenied`, otherwise). `None` (the default) leaves admin open,
    /// matching earlier builds.
    pub admin_token: Option<String>,
    /// Read timeout of the per-connection frame loop. A timeout between
    /// frames is an idle housekeeping tick — the connection re-checks the
    /// snapshot generation and releases a retired pin — not an error.
    /// `None` blocks forever (idle connections then pin retired snapshots
    /// until they next speak).
    pub idle_tick: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            max_batch_pairs: 65_536,
            max_connections: 1024,
            allow_reload: true,
            write_timeout: Some(Duration::from_secs(30)),
            admin_token: None,
            idle_tick: Some(Duration::from_millis(500)),
        }
    }
}

/// Monotonic server-wide counters (relaxed atomics, written by the
/// connection threads).
struct NetCounters {
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    frames: AtomicU64,
    queries: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    flushes: AtomicU64,
    latency: AtomicLatencyHistogram,
    started: Instant,
}

impl NetCounters {
    fn new() -> Self {
        Self {
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            latency: AtomicLatencyHistogram::new(),
            started: Instant::now(),
        }
    }
}

/// A point-in-time snapshot of a server's counters.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Connections accepted since start.
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
    /// Socket writes issued by connection threads; `frames / flushes` is
    /// the coalescing factor (1.0 when every request is sent alone).
    pub flushes: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Per-query service-time distribution (p50/p99 accessors).
    pub latency: LatencyHistogram,
}

/// State shared by the acceptor, the connections and the owning handle.
struct ServerShared {
    handle: Arc<OracleHandle>,
    config: NetConfig,
    counters: NetCounters,
    /// Serves the wire `Compact` opcode when configured (see
    /// [`DistanceServer::bind_with_coordinator`]); `None` answers with
    /// `CompactFailed`.
    coordinator: Option<Arc<RebuildCoordinator>>,
    shutting_down: AtomicBool,
    /// Set with the signal below; connections check it per frame and refuse
    /// queries with `ShuttingDown` once a drain has been requested.
    draining: AtomicBool,
    /// Signaled when a wire `Shutdown` (or `request_shutdown`) asks the
    /// owner to drain; `wait_for_shutdown_request` blocks on it.
    shutdown_requested: (Mutex<bool>, Condvar),
}

impl ServerShared {
    fn signal_shutdown(&self) {
        // ordering: SeqCst — the drain flag must be globally ordered
        // against in-flight request checks so no opcode is accepted after
        // a shutdown ack was sent.
        self.draining.store(true, Ordering::SeqCst);
        let (lock, cv) = &self.shutdown_requested;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }
}

struct ConnSlot {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    done: Arc<AtomicBool>,
}

/// A TCP server answering the IS-LABEL wire protocol from a hot-swappable
/// index snapshot. See the [module docs](self) for the threading and
/// pipelining model.
pub struct DistanceServer {
    shared: Arc<ServerShared>,
    conns: Arc<Mutex<Vec<ConnSlot>>>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl DistanceServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving the engine wrapped as a fresh generation-0 snapshot.
    pub fn start(
        oracle: SharedOracle,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        Self::bind(
            Arc::new(OracleHandle::new(Snapshot::from_arc(oracle))),
            addr,
            config,
        )
    }

    /// Binds `addr` and serves through an existing [`OracleHandle`],
    /// sharing it with whoever else performs swaps (an in-process
    /// [`islabel_serve::QueryService`], a rebuild pipeline, ...).
    pub fn bind(
        handle: Arc<OracleHandle>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        Self::bind_with_coordinator(handle, addr, config, None)
    }

    /// [`bind`](Self::bind) with the compaction coordinator serving the
    /// wire `Compact` opcode, wired up *before* the acceptor thread starts,
    /// so a `Compact` request racing server startup can never observe the
    /// unconfigured state. Without one, `Compact` is answered with
    /// `CompactFailed` — a server fronting an in-memory oracle has no
    /// artifact + WAL pair to fold.
    pub fn bind_with_coordinator(
        handle: Arc<OracleHandle>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
        coordinator: Option<Arc<RebuildCoordinator>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            handle,
            config,
            counters: NetCounters::new(),
            coordinator,
            shutting_down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
        });
        register_net_metrics(&shared);
        let conns: Arc<Mutex<Vec<ConnSlot>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("islabel-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &conns))
                // lint:allow(panic, OS refusing to spawn the acceptor at startup is unrecoverable — no server exists to degrade)
                .expect("spawn acceptor thread")
        };
        Ok(Self {
            shared,
            conns,
            acceptor: Some(acceptor),
            local_addr,
        })
    }

    /// The address the server is listening on (with the OS-assigned port
    /// resolved when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared handle queries answer from; swap it to hot-swap the
    /// served index.
    pub fn handle(&self) -> &Arc<OracleHandle> {
        &self.shared.handle
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        // ordering: Relaxed — independent monotonic counters; a stats
        // snapshot tolerates tearing across counters by design.
        ServerStats {
            connections_total: c.connections_total.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            // ordering: Relaxed — same counter discipline.
            flushes: c.flushes.load(Ordering::Relaxed),
            uptime: c.started.elapsed(),
            latency: c.latency.snapshot(),
        }
    }

    /// Blocks until a wire `Shutdown` request (or
    /// [`request_shutdown`](DistanceServer::request_shutdown)) arrives.
    /// The embedder then calls [`shutdown`](DistanceServer::shutdown) to
    /// actually drain and join — the split keeps thread teardown on the
    /// owning thread.
    pub fn wait_for_shutdown_request(&self) {
        let (lock, cv) = &self.shared.shutdown_requested;
        let mut requested = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*requested {
            requested = cv.wait(requested).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the server as shutdown-requested, waking
    /// [`wait_for_shutdown_request`](DistanceServer::wait_for_shutdown_request).
    pub fn request_shutdown(&self) {
        self.shared.signal_shutdown();
    }

    /// Graceful shutdown: stop accepting, close every connection's read
    /// side, let each connection answer the frames it already received
    /// and write those answers out, join everything, and return the final
    /// stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        // ordering: SeqCst — pairs with the acceptor's SeqCst load so the
        // wake-up connection below cannot be accepted before the flag is
        // visible.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.signal_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor blocks in accept(); a throwaway connection
            // wakes it to observe the flag.
            drop(TcpStream::connect(self.local_addr));
            // lint:allow(panic, a panicked acceptor is a server bug — propagating the panic out of shutdown is the honest failure)
            acceptor.join().expect("acceptor thread panicked");
        }
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        for conn in conns.iter_mut() {
            // Read side only: the connection answers what it already
            // received, writes that out (it flushes before every read),
            // then reads EOF and exits. The write side stays bounded by
            // `NetConfig::write_timeout`, so a client that stopped
            // reading cannot wedge this join.
            let _ = conn.stream.shutdown(Shutdown::Read);
            if let Some(reader) = conn.reader.take() {
                // lint:allow(panic, re-raising a reader thread's panic at join keeps connection bugs loud instead of swallowed)
                reader.join().expect("connection reader panicked");
            }
        }
        conns.clear();
    }
}

impl Drop for DistanceServer {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl std::fmt::Debug for DistanceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceServer")
            .field("local_addr", &self.local_addr)
            .field("handle", &self.shared.handle)
            .finish_non_exhaustive()
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    conns: &Arc<Mutex<Vec<ConnSlot>>>,
) {
    for stream in listener.incoming() {
        // ordering: SeqCst — pairs with close_and_join's SeqCst store;
        // the shutdown wake-up connection must observe the flag.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mut guard = conns.lock().unwrap_or_else(|e| e.into_inner());
        // Reap finished connections so a long-lived server's registry
        // tracks live sockets, not history.
        guard.retain_mut(|c| {
            // ordering: Acquire — pairs with the reader's Release store
            // of `done`, so everything the finished thread wrote
            // happens-before this reap observes it.
            if c.done.load(Ordering::Acquire) {
                if let Some(r) = c.reader.take() {
                    // lint:allow(panic, re-raising a reader thread's panic at reap keeps connection bugs loud instead of swallowed)
                    r.join().expect("connection reader panicked");
                }
                false
            } else {
                true
            }
        });
        if guard.len() >= shared.config.max_connections {
            drop(stream); // over the cap: refuse by closing
            continue;
        }
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let shared = Arc::clone(shared);
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name("islabel-net-conn".into())
                .spawn(move || {
                    // ordering: Relaxed — independent monotonic counters,
                    // no other memory is published through them.
                    shared
                        .counters
                        .connections_total
                        .fetch_add(1, Ordering::Relaxed);
                    // ordering: Relaxed — same counter discipline.
                    shared
                        .counters
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    connection_loop(stream, &shared);
                    // ordering: Relaxed — same counter discipline.
                    shared
                        .counters
                        .connections_active
                        .fetch_sub(1, Ordering::Relaxed);
                    // ordering: Release — pairs with the reaper's Acquire
                    // load; publishes this thread's writes before `done`.
                    done.store(true, Ordering::Release);
                })
                // lint:allow(panic, OS refusing to spawn a connection thread means resource exhaustion — failing loudly beats silently dropping the socket)
                .expect("spawn connection reader")
        };
        guard.push(ConnSlot {
            stream,
            reader: Some(reader),
            done,
        });
    }
}

/// Everything one connection does, on its own thread: handshake, then
/// answer frames until EOF / fatal framing error / shutdown opcode.
fn connection_loop(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    // One bound for a peer that stalls us: it times out the writes, and
    // the reads of the handshake — a socket that connects and never says
    // hello must not hold a connection slot for ever.
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let _ = stream.set_read_timeout(shared.config.write_timeout);
    run_connection(&mut stream, shared);
    // Socket-level shutdown on *every* exit path (including handshake
    // rejections): the acceptor's registry holds a clone of this stream,
    // so merely dropping ours would leave the socket open and the peer
    // waiting for an EOF that never comes.
    let _ = stream.shutdown(Shutdown::Both);
}

fn run_connection(stream: &mut TcpStream, shared: &Arc<ServerShared>) {
    // Handshake: read the client hello head, then the (possibly empty)
    // admin token it declares; always answer with our hello (so a
    // mismatched peer learns *our* version), then bail on mismatch.
    let mut hello = [0u8; HELLO_LEN];
    if stream.read_exact(&mut hello).is_err() {
        return;
    }
    let head = protocol::decode_hello_head(&hello);
    let token = match head {
        Ok((_, token_len)) => {
            if usize::from(token_len) > MAX_TOKEN_LEN {
                return; // lying length: no way to resync, close unanswered
            }
            let mut buf = vec![0u8; usize::from(token_len)];
            if stream.read_exact(&mut buf).is_err() {
                return;
            }
            buf
        }
        Err(_) => Vec::new(),
    };
    let mut our_hello = Vec::with_capacity(HELLO_LEN);
    protocol::encode_hello(&mut our_hello);
    if stream.write_all(&our_hello).is_err() || stream.flush().is_err() {
        return;
    }
    match head {
        Ok((v, _)) if v == protocol::VERSION => {}
        _ => return, // bad magic or foreign version: hello sent, close
    }
    // Admin gate: open when no token is configured; otherwise an exact
    // byte match of the presented token. Decided once per connection.
    let authed = match &shared.config.admin_token {
        None => true,
        Some(expected) => token == expected.as_bytes(),
    };
    // The handshake is over: from here a silent peer is idle, not
    // stalled, and the frame loop's reads wake periodically so an idle
    // connection can release a retired snapshot pin.
    let _ = stream.set_read_timeout(shared.config.idle_tick);
    serve_frames(stream, shared, authed);
}

/// Responses are written out once this many bytes of them are pending, so
/// a long pipelined burst streams instead of accumulating, and a larger
/// buffer is not kept after it has been written.
const FLUSH_BYTES: usize = 64 * 1024;

/// One connection's socket with its pending output. Reading through it
/// writes that output first, which is all of the flow control there is:
/// the connection **never waits for input while it holds unwritten
/// output**, so no reply is ever stuck behind a frame that has not
/// arrived, and a burst parsed out of one `recv` leaves in one `send`.
struct Wire<'a> {
    stream: &'a TcpStream,
    out: Vec<u8>,
    counters: &'a NetCounters,
}

impl Wire<'_> {
    /// Writes the pending output out. An error — the peer is gone, or
    /// stopped reading for `write_timeout` — leaves an unknown prefix on
    /// the wire, so the caller must drop the connection.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        // ordering: Relaxed — independent monotonic counter.
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        let mut stream = self.stream;
        let written = stream.write_all(&self.out);
        self.out.clear();
        // One 512 KiB `Batch`/`Metrics` reply must not pin that much for
        // the life of the connection.
        self.out.shrink_to(FLUSH_BYTES);
        written
    }

    /// Appends one response frame; `false` once the socket has refused
    /// output (client gone).
    fn respond(&mut self, id: u64, resp: &Response) -> bool {
        if matches!(resp, Response::Error(_)) {
            // ordering: Relaxed — independent monotonic counter.
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        protocol::append_framed(&mut self.out, |out| {
            protocol::encode_response(id, resp, out)
        });
        self.out.len() < FLUSH_BYTES || self.flush().is_ok()
    }
}

impl Read for Wire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // A write that timed out must not read as the *read* timing out:
        // between frames that is an idle tick, and the loop would carry
        // on over a torn stream.
        self.flush()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::BrokenPipe, e))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// The frame loop: pin a snapshot, answer frames through one session,
/// re-pin when a hot swap is observed between frames — or, for an idle
/// connection, when the read-timeout tick notices a retired pin.
fn serve_frames(stream: &TcpStream, shared: &Arc<ServerShared>, authed: bool) {
    let mut frame = Vec::new();
    // One `recv` per burst: frames are parsed out of the buffered reader,
    // which goes back to the socket (through `Wire::read`, so after the
    // pending replies have left) only when it holds no whole frame.
    let mut conn = BufReader::new(Wire {
        stream,
        out: Vec::new(),
        counters: &shared.counters,
    });
    'pin: loop {
        let pinned = shared.handle.load();
        let mut session = pinned.session();
        loop {
            match protocol::read_frame(&mut conn, shared.config.max_frame_bytes, &mut frame) {
                Ok(true) => {}
                // Clean close. Like every exit on a read, it leaves
                // nothing unwritten: the read flushed first.
                Ok(false) => return,
                Err(FrameReadError::Oversized { len, max }) => {
                    // The stream cannot be resynchronized past a lying
                    // prefix: answer (id unknowable) and close.
                    let wire = conn.get_mut();
                    wire.respond(
                        0,
                        &Response::Error(WireError::TooLarge {
                            message: format!("frame length {len} exceeds cap {max}"),
                        }),
                    );
                    let _ = wire.flush();
                    return;
                }
                Err(FrameReadError::IdleTimeout) => {
                    // Between-frames housekeeping tick: if a swap landed
                    // while this connection sat silent, drop the retired
                    // pin (and its memory) by re-pinning now rather than
                    // whenever the client next speaks.
                    if shared.handle.version() != pinned.version() {
                        continue 'pin;
                    }
                    continue;
                }
                Err(FrameReadError::Io(_)) => return,
            }
            // ordering: Relaxed — independent monotonic counter.
            shared.counters.frames.fetch_add(1, Ordering::Relaxed);

            let (id, request) = match protocol::decode_request(&frame) {
                Ok(parsed) => parsed,
                Err(e) => {
                    // Frame-scoped failure: answer it, keep the connection.
                    let id = protocol::decode_request_id(&frame).unwrap_or(0);
                    if !conn.get_mut().respond(
                        id,
                        &Response::Error(WireError::Malformed {
                            message: e.to_string(),
                        }),
                    ) {
                        return;
                    }
                    continue;
                }
            };

            let mut shutdown_after = false;
            // Once a drain has been requested, work-carrying opcodes are
            // refused with the documented ShuttingDown code; Ping/Stats
            // stay answerable so clients can observe the drain.
            // ordering: SeqCst — pairs with signal_shutdown's SeqCst
            // store; after a shutdown ack no work opcode may slip in.
            let draining = shared.draining.load(Ordering::SeqCst);
            let response = match request {
                _ if draining
                    && matches!(
                        request,
                        Request::Query { .. }
                            | Request::Batch { .. }
                            | Request::Reload { .. }
                            | Request::Compact
                            | Request::Metrics
                    ) =>
                {
                    Response::Error(WireError::ShuttingDown)
                }
                // Admin gate: when a token is configured and this
                // connection's hello didn't present it, every admin opcode
                // gets the stable code — before any of its side effects.
                _ if !authed
                    && matches!(
                        request,
                        Request::Reload { .. } | Request::Shutdown | Request::Compact
                    ) =>
                {
                    Response::Error(WireError::AdminDenied)
                }
                Request::Ping => Response::Pong,
                Request::Query { s, t } => {
                    // ordering: Relaxed — independent monotonic counter.
                    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
                    let (answer, elapsed) = answer_traced(session.as_mut(), s, t, pinned.version());
                    shared.counters.latency.record(elapsed);
                    match answer {
                        Ok(d) => Response::Distance(d),
                        Err(e) => Response::Error(WireError::from(e)),
                    }
                }
                Request::Batch { pairs } => {
                    if pairs.len() > shared.config.max_batch_pairs {
                        Response::Error(WireError::TooLarge {
                            message: format!(
                                "batch of {} pairs exceeds cap {}",
                                pairs.len(),
                                shared.config.max_batch_pairs
                            ),
                        })
                    } else {
                        // ordering: Relaxed — independent monotonic counter.
                        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
                        let mut dists = Vec::with_capacity(pairs.len());
                        let mut failed = None;
                        for &(s, t) in &pairs {
                            // ordering: Relaxed — independent monotonic counter.
                            shared.counters.queries.fetch_add(1, Ordering::Relaxed);
                            let (answer, elapsed) =
                                answer_traced(session.as_mut(), s, t, pinned.version());
                            shared.counters.latency.record(elapsed);
                            match answer {
                                Ok(d) => dists.push(d),
                                Err(e) => {
                                    failed = Some(e);
                                    break;
                                }
                            }
                        }
                        match failed {
                            // Mirror `distance_batch`: one bad pair fails
                            // the whole batch with the first error.
                            Some(e) => Response::Error(WireError::from(e)),
                            None => Response::Batch(dists),
                        }
                    }
                }
                Request::Stats => Response::Stats(wire_stats(shared, &pinned)),
                Request::Reload { path } => {
                    if !shared.config.allow_reload {
                        Response::Error(WireError::ReloadFailed {
                            message: "admin reload disabled by server config".into(),
                        })
                    } else {
                        // Mmap-preferred: a pristine artifact is served
                        // zero-copy off the mapped file, one with sealed
                        // updates loads onto the heap.
                        match try_load_oracle_from_path(&path) {
                            Ok(oracle) => {
                                let num_vertices = oracle.num_vertices() as u64;
                                // The retired snapshot pins which swap was
                                // ours; re-reading handle.version() would
                                // race a concurrent admin's swap.
                                let retired = shared.handle.swap(oracle);
                                Response::Reloaded {
                                    version: retired.version() + 1,
                                    num_vertices,
                                }
                            }
                            Err(e) => Response::Error(WireError::ReloadFailed {
                                message: format!("{path}: {e}"),
                            }),
                        }
                    }
                }
                Request::Compact => match &shared.coordinator {
                    None => Response::Error(WireError::CompactFailed {
                        message: "no compaction coordinator configured".into(),
                    }),
                    Some(c) => match c.compact() {
                        Ok(stats) => Response::Compacted {
                            version: stats.version,
                            num_vertices: stats.info.num_vertices as u64,
                        },
                        Err(e) => Response::Error(WireError::CompactFailed {
                            message: e.to_string(),
                        }),
                    },
                },
                Request::Metrics => {
                    let mut text = islabel_obs::Registry::global().render();
                    islabel_obs::SlowQueryLog::global().render_into(&mut text);
                    Response::Metrics { text }
                }
                Request::Shutdown => {
                    shutdown_after = true;
                    Response::ShutdownAck
                }
            };
            if !conn.get_mut().respond(id, &response) {
                return;
            }
            if shutdown_after {
                // The ack is on the wire before the teardown it
                // acknowledges can start.
                let _ = conn.get_mut().flush();
                shared.signal_shutdown();
                return;
            }
            if shared.handle.version() != pinned.version() {
                // A swap (possibly our own Reload) landed: re-pin so the
                // next frame answers from the new generation.
                continue 'pin;
            }
        }
    }
}

/// Registers this server's counters as collectors on the global metrics
/// registry (exposed by the wire `Metrics` opcode and the CLI `metrics`
/// command). Re-binding a server replaces the previous one's collectors —
/// one process serves one exposition, and collectors are upserted by
/// (name, labels).
fn register_net_metrics(shared: &Arc<ServerShared>) {
    use islabel_obs::names::{
        METRIC_NET_BATCHES_TOTAL, METRIC_NET_CONNECTIONS_ACTIVE, METRIC_NET_CONNECTIONS_TOTAL,
        METRIC_NET_ERRORS_TOTAL, METRIC_NET_FLUSHES_TOTAL, METRIC_NET_FRAMES_TOTAL,
        METRIC_NET_QUERIES_TOTAL, METRIC_NET_QUERY_LATENCY_SECONDS, METRIC_NET_SNAPSHOT_GENERATION,
    };
    let registry = islabel_obs::Registry::global();
    type Pick = fn(&NetCounters) -> &AtomicU64;
    let counters: [(&'static str, &'static str, Pick); 6] = [
        (
            METRIC_NET_CONNECTIONS_TOTAL,
            "Connections accepted since the server started.",
            |c| &c.connections_total,
        ),
        (
            METRIC_NET_FRAMES_TOTAL,
            "Request frames processed (all opcodes).",
            |c| &c.frames,
        ),
        (
            METRIC_NET_QUERIES_TOTAL,
            "Distance queries answered over the wire (singles plus batch members).",
            |c| &c.queries,
        ),
        (
            METRIC_NET_BATCHES_TOTAL,
            "Batch frames answered over the wire.",
            |c| &c.batches,
        ),
        (
            METRIC_NET_ERRORS_TOTAL,
            "Error responses sent over the wire.",
            |c| &c.errors,
        ),
        (
            METRIC_NET_FLUSHES_TOTAL,
            "Socket writes issued by connection threads (frames / flushes = coalescing factor).",
            |c| &c.flushes,
        ),
    ];
    for (name, help, pick) in counters {
        let s = Arc::clone(shared);
        registry.counter_fn(name, help, &[], move || {
            // ordering: Relaxed — independent monotonic counter; a scrape
            // tolerates tearing across counters by design.
            pick(&s.counters).load(Ordering::Relaxed)
        });
    }
    let s = Arc::clone(shared);
    registry.gauge_fn(
        METRIC_NET_CONNECTIONS_ACTIVE,
        "Connections currently open.",
        &[],
        move || {
            // ordering: Relaxed — same counter discipline.
            s.counters.connections_active.load(Ordering::Relaxed) as i64
        },
    );
    let s = Arc::clone(shared);
    registry.gauge_fn(
        METRIC_NET_SNAPSHOT_GENERATION,
        "Hot-swap generation of the currently served snapshot.",
        &[],
        move || s.handle.version() as i64,
    );
    let s = Arc::clone(shared);
    registry.histogram_fn(
        METRIC_NET_QUERY_LATENCY_SECONDS,
        "Per-query service latency over the wire.",
        &[],
        move || s.counters.latency.snapshot(),
    );
}

fn wire_stats(shared: &ServerShared, pinned: &Snapshot) -> WireStats {
    let c = &shared.counters;
    let latency = c.latency.snapshot();
    WireStats {
        // One consistent view: the snapshot *this connection* answers
        // from. Mixing the pinned engine identity with the shared
        // handle's (possibly newer) version would let a Stats response
        // pair a fresh generation number with a stale index's identity.
        engine: pinned.oracle().engine_name().to_string(),
        num_vertices: pinned.oracle().num_vertices() as u64,
        snapshot_version: pinned.version(),
        // ordering: Relaxed — independent monotonic counters; a stats
        // frame tolerates tearing across counters by design.
        connections_total: c.connections_total.load(Ordering::Relaxed),
        connections_active: c.connections_active.load(Ordering::Relaxed),
        frames: c.frames.load(Ordering::Relaxed),
        queries: c.queries.load(Ordering::Relaxed),
        batches: c.batches.load(Ordering::Relaxed),
        errors: c.errors.load(Ordering::Relaxed),
        uptime_ms: c.started.elapsed().as_millis() as u64,
        p50_us: latency.p50().as_micros() as u64,
        p99_us: latency.p99().as_micros() as u64,
        // The scalars above stay for old clients; new ones derive any
        // percentile from the full buckets.
        latency: Some(Box::new(latency)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flush that times out while the connection sits between frames
    /// must end it. Surfacing the write's `WouldBlock` from the read would
    /// make it an idle tick, and the loop would carry on over a stream
    /// with half a reply on it.
    #[test]
    fn stalled_write_is_not_an_idle_tick() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _never_reads = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let counters = NetCounters::new();
        let mut wire = Wire {
            stream: &stream,
            out: vec![0; 32 << 20], // more than the socket buffers take
            counters: &counters,
        };
        let mut frame = Vec::new();
        assert!(matches!(
            protocol::read_frame(&mut wire, 64, &mut frame),
            Err(FrameReadError::Io(_))
        ));
    }
}
