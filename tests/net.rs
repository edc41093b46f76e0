//! Network-serving correctness: every engine served over loopback must
//! answer bit-identically to an in-process session, under concurrent
//! pipelined clients; a wire-triggered `Reload` hot-swap completes while
//! in-flight remote queries finish on their pinned snapshot generation;
//! malformed frames error without dropping the connection; typed query
//! errors round-trip the wire.

mod common;

use common::TempDir;
use islabel::core::persist::try_save_index_to_path;
use islabel::graph::generators::{erdos_renyi_gnm, WeightModel};
use islabel::net::protocol::{self, Request, Response, WireError};
use islabel::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn pair_mix(n: u32, count: u32) -> Vec<(VertexId, VertexId)> {
    (0..count)
        .map(|i| ((i * 13) % n, (i * 37 + 5) % n))
        .collect()
}

/// Every engine, served over a real socket, hammered by pipelined
/// concurrent clients: answers must be bit-identical to an in-process
/// session on the same oracle.
#[test]
fn all_engines_bit_identical_over_loopback_under_pipelined_clients() {
    let g = erdos_renyi_gnm(200, 520, WeightModel::UniformRange(1, 9), 0xA7);
    let pairs = pair_mix(200, 100);

    for engine in Engine::ALL {
        let oracle: SharedOracle =
            Arc::from(build_oracle(engine, &g, &BuildConfig::default()).unwrap());
        let truth: Vec<Option<Dist>> = {
            let mut session = oracle.session();
            pairs
                .iter()
                .map(|&(s, t)| session.distance(s, t).unwrap())
                .collect()
        };
        let server =
            DistanceServer::start(Arc::clone(&oracle), "127.0.0.1:0", NetConfig::default())
                .unwrap();
        let addr = server.local_addr();

        std::thread::scope(|scope| {
            for c in 0..4usize {
                let pairs = &pairs;
                let truth = &truth;
                scope.spawn(move || {
                    let mut client = DistanceClient::connect(addr).unwrap();
                    // Pipelined: a window of 8 requests in flight, each
                    // client walking the mix from its own offset.
                    const DEPTH: usize = 8;
                    let order: Vec<usize> = (0..pairs.len())
                        .map(|i| (i + c * 23) % pairs.len())
                        .collect();
                    let mut sent = std::collections::VecDeque::new();
                    let mut next = 0;
                    while next < order.len() || !sent.is_empty() {
                        while next < order.len() && sent.len() < DEPTH {
                            let i = order[next];
                            let (s, t) = pairs[i];
                            let id = client.send(&Request::Query { s, t }).unwrap();
                            sent.push_back((id, i));
                            next += 1;
                        }
                        client.flush().unwrap();
                        let (rid, resp) = client.recv().unwrap();
                        let (id, i) = sent.pop_front().unwrap();
                        assert_eq!(rid, id, "{engine}: responses out of order");
                        assert_eq!(
                            resp,
                            Response::Distance(truth[i]),
                            "{engine}: client {c} pair {i} diverged from in-process"
                        );
                    }
                });
            }
        });

        // Batches through a pool agree too.
        let pool = ClientPool::connect(addr, 3).unwrap();
        assert_eq!(pool.distance_batch(&pairs).unwrap(), truth, "{engine}");

        let stats = server.shutdown();
        assert_eq!(stats.errors, 0, "{engine}");
        assert_eq!(
            stats.queries,
            4 * pairs.len() as u64 + pairs.len() as u64,
            "{engine}: query counter missed traffic"
        );
        assert!(stats.latency.count() == stats.queries, "{engine}");
        assert!(stats.latency.p99() >= stats.latency.p50(), "{engine}");
    }
}

/// A gate that lets the test hold a server-side query mid-flight (same
/// instrument as `tests/serve.rs`).
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: bool,
    released: bool,
}

impl Gate {
    fn new() -> Self {
        Self {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.entered = true;
        self.cv.notify_all();
        while !st.released {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.entered {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.released = true;
        self.cv.notify_all();
    }
}

struct GatedOracle {
    inner: IsLabelIndex,
    gate: Arc<Gate>,
}

impl DistanceOracle for GatedOracle {
    fn engine_name(&self) -> &'static str {
        "gated-islabel"
    }

    fn num_vertices(&self) -> usize {
        DistanceOracle::num_vertices(&self.inner)
    }

    fn index_bytes(&self) -> usize {
        self.inner.index_bytes()
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.gate.pass();
        self.inner.try_distance(s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(GatedSession { oracle: self })
    }
}

struct GatedSession<'a> {
    oracle: &'a GatedOracle,
}

impl QuerySession for GatedSession<'_> {
    fn engine_name(&self) -> &'static str {
        "gated-islabel"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.oracle.try_distance(s, t)
    }
}

fn line_index(weight: u32) -> IsLabelIndex {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, weight);
    b.add_edge(1, 2, weight);
    IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap()
}

/// The end-to-end Reload contract: an admin connection hot-swaps the
/// served index from a persisted artifact while another connection is
/// *inside* a query — that query finishes on the generation it pinned,
/// and the same connection's next query sees the new generation.
#[test]
fn wire_reload_swaps_while_in_flight_queries_finish_on_their_generation() {
    let dir = TempDir::new("net-reload");
    let artifact = dir.join("reload.islx");
    try_save_index_to_path(&line_index(1), &artifact).unwrap(); // dist(0,2) = 2

    let gate = Arc::new(Gate::new());
    let gated = GatedOracle {
        inner: line_index(5), // generation 0: dist(0, 2) = 10
        gate: Arc::clone(&gate),
    };
    let server =
        DistanceServer::start(Arc::new(gated), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut querier = DistanceClient::connect(addr).unwrap();
    let mut admin = DistanceClient::connect(addr).unwrap();

    let in_flight = std::thread::spawn(move || {
        let d = querier.distance(0, 2).unwrap();
        (d, querier)
    });
    // The server's reader for `querier` is now provably inside the query,
    // holding its generation-0 pin.
    gate.wait_entered();

    let (version, num_vertices) = admin.reload(artifact.to_str().unwrap()).unwrap();
    assert_eq!(version, 1);
    assert_eq!(num_vertices, 3);
    assert_eq!(server.handle().version(), 1);

    // Release the gated query: it must answer from generation 0.
    gate.release();
    let (d, mut querier) = in_flight.join().unwrap();
    assert_eq!(d, Some(10), "in-flight query escaped its pinned snapshot");

    // The same connection's next query runs on the reloaded snapshot
    // (the reader re-pins after observing the swap).
    assert_eq!(querier.distance(0, 2).unwrap(), Some(2));
    // And the admin connection sees it too.
    assert_eq!(admin.distance(0, 2).unwrap(), Some(2));

    let stats = admin.stats().unwrap();
    assert_eq!(stats.snapshot_version, 1);
    assert_eq!(
        stats.engine, "islabel-mmap",
        "a reloaded pristine artifact is served zero-copy off the mapped file"
    );

    server.shutdown();
}

/// Regression: an *idle* connection used to hold its snapshot pin until
/// the client next spoke, keeping a retired index's memory alive
/// indefinitely after a hot swap. The reader's read-timeout tick
/// ([`NetConfig::idle_tick`]) must drop the retired pin within a tick,
/// with no traffic from the client.
#[test]
fn idle_connection_releases_retired_snapshot_within_a_tick() {
    let first: SharedOracle = Arc::new(line_index(5)); // dist(0, 2) = 10
    let observer = Arc::clone(&first);
    let server = DistanceServer::start(
        first,
        "127.0.0.1:0",
        NetConfig {
            idle_tick: Some(Duration::from_millis(30)),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut idle = DistanceClient::connect(server.local_addr()).unwrap();
    assert_eq!(idle.distance(0, 2).unwrap(), Some(10)); // pins generation 0

    // Hot-swap while the connection sits silent; retire our own pin too.
    drop(server.handle().swap_oracle(line_index(1)));

    // Without a single byte from the client, the idle tick must release
    // the generation-0 oracle: our observer Arc becomes the last owner.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Arc::strong_count(&observer) > 1 {
        assert!(
            Instant::now() < deadline,
            "idle connection still pins the retired snapshot after 5s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The same silent connection answers its next query on the new
    // generation (it already re-pinned during the tick).
    assert_eq!(idle.distance(0, 2).unwrap(), Some(2));
    server.shutdown();
}

/// With `NetConfig::admin_token` set, admin opcodes require the token
/// presented in the hello (stable code 21 otherwise) while query traffic
/// stays open; a wrong token connects but stays unprivileged.
#[test]
fn admin_token_gates_admin_opcodes_but_not_queries() {
    let server = DistanceServer::start(
        Arc::new(line_index(3)),
        "127.0.0.1:0",
        NetConfig {
            admin_token: Some("sesame".into()),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut anon = DistanceClient::connect(addr).unwrap();
    assert_eq!(anon.distance(0, 2).unwrap(), Some(6), "queries stay open");
    for err in [
        anon.reload("whatever.islx").unwrap_err(),
        anon.compact().unwrap_err(),
        anon.shutdown_server().unwrap_err(),
    ] {
        assert!(
            matches!(&err, NetError::Remote(WireError::AdminDenied)),
            "{err:?}"
        );
    }
    assert_eq!(server.handle().version(), 0, "denied admin had no effect");
    assert_eq!(anon.distance(0, 2).unwrap(), Some(6), "connection survives");

    let mut wrong = DistanceClient::connect_with_token(addr, "guess").unwrap();
    assert!(matches!(
        wrong.shutdown_server().unwrap_err(),
        NetError::Remote(WireError::AdminDenied)
    ));

    let mut admin = DistanceClient::connect_with_token(addr, "sesame").unwrap();
    assert_eq!(admin.distance(0, 2).unwrap(), Some(6));
    // The token opens the gate; without a coordinator configured the
    // compaction itself fails typed — not a denial.
    assert!(matches!(
        admin.compact().unwrap_err(),
        NetError::Remote(WireError::CompactFailed { .. })
    ));
    admin.shutdown_server().unwrap();
    server.shutdown();
}

/// A reload of a nonexistent artifact is a frame-scoped typed error; the
/// connection and the served snapshot are untouched.
#[test]
fn failed_reload_keeps_generation_and_connection() {
    let server =
        DistanceServer::start(Arc::new(line_index(4)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    let err = client
        .reload("/nonexistent/definitely-missing.islx")
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(WireError::ReloadFailed { .. })),
        "{err:?}"
    );
    assert_eq!(server.handle().version(), 0);
    assert_eq!(client.distance(0, 2).unwrap(), Some(8));
    server.shutdown();
}

/// Typed query errors round-trip the wire: the remote error maps back to
/// the exact in-process `QueryError`.
#[test]
fn query_errors_round_trip_the_wire() {
    let server =
        DistanceServer::start(Arc::new(line_index(2)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    let err = client.distance(0, 999).unwrap_err();
    assert_eq!(
        err.as_query_error(),
        Some(QueryError::VertexOutOfRange {
            vertex: 999,
            universe: 3
        })
    );
    // A failing pair fails a batch with the same round-tripped error.
    let err = client.distance_batch(&[(0, 1), (7, 0)]).unwrap_err();
    assert_eq!(
        err.as_query_error(),
        Some(QueryError::VertexOutOfRange {
            vertex: 7,
            universe: 3
        })
    );
    // The connection is still healthy.
    assert_eq!(client.distance(0, 2).unwrap(), Some(4));
    let stats = server.shutdown();
    assert_eq!(stats.errors, 2);
}

/// Hand-rolled socket speaking the protocol directly: a malformed body in
/// a well-formed frame is answered with a `Malformed` error and the
/// connection keeps serving; an oversized length prefix is rejected and
/// the connection closed — but the server survives both for other
/// clients.
#[test]
fn malformed_frames_error_without_dropping_the_connection() {
    let server =
        DistanceServer::start(Arc::new(line_index(3)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    let mut hello = Vec::new();
    protocol::encode_hello(&mut hello);
    raw.write_all(&hello).unwrap();
    let mut server_hello = [0u8; protocol::HELLO_LEN];
    raw.read_exact(&mut server_hello).unwrap();
    assert_eq!(protocol::decode_hello(&server_hello), Ok(protocol::VERSION));

    let read_one = |raw: &mut TcpStream| -> (u64, Response) {
        let mut buf = Vec::new();
        assert!(protocol::read_frame(raw, 1 << 20, &mut buf).unwrap());
        protocol::decode_response(&buf).unwrap()
    };

    // 1. A garbage body (unknown opcode) in a valid frame: answered with
    //    Malformed, carrying the id we sent.
    let mut body = Vec::new();
    bytes::BufMut::put_u64_le(&mut body, 77u64);
    bytes::BufMut::put_u8(&mut body, 0xEE);
    let mut framed = Vec::new();
    protocol::encode_frame(&body, &mut framed);
    raw.write_all(&framed).unwrap();
    let (id, resp) = read_one(&mut raw);
    assert_eq!(id, 77);
    assert!(
        matches!(resp, Response::Error(WireError::Malformed { .. })),
        "{resp:?}"
    );

    // 2. The *same* connection still answers real queries.
    let mut body = Vec::new();
    protocol::encode_request(78, &Request::Query { s: 0, t: 2 }, &mut body);
    let mut framed = Vec::new();
    protocol::encode_frame(&body, &mut framed);
    raw.write_all(&framed).unwrap();
    let (id, resp) = read_one(&mut raw);
    assert_eq!((id, resp), (78, Response::Distance(Some(6))));

    // 3. A truncated frame (half a body, then close) must not take the
    //    server down.
    let mut truncating = TcpStream::connect(addr).unwrap();
    truncating.write_all(&hello).unwrap();
    truncating.read_exact(&mut server_hello).unwrap();
    truncating.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
    drop(truncating);

    // 4. An oversized length prefix is answered with TooLarge and the
    //    connection is closed (the stream cannot be resynchronized).
    let mut lying = TcpStream::connect(addr).unwrap();
    lying.write_all(&hello).unwrap();
    lying.read_exact(&mut server_hello).unwrap();
    lying.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let (_, resp) = read_one(&mut lying);
    assert!(
        matches!(resp, Response::Error(WireError::TooLarge { .. })),
        "{resp:?}"
    );
    let mut scratch = [0u8; 1];
    assert_eq!(
        lying.read(&mut scratch).unwrap(),
        0,
        "connection stayed open"
    );

    // 5. A client with a bad magic is closed before any frame.
    let mut imposter = TcpStream::connect(addr).unwrap();
    imposter.write_all(b"HTTP/1.1").unwrap();
    let mut sink = Vec::new();
    // The server sends its hello (so real-but-mismatched peers can
    // diagnose) and closes; nothing else arrives.
    imposter.read_to_end(&mut sink).unwrap();
    assert!(sink.len() <= protocol::HELLO_LEN);

    // The original well-behaved connection *still* works.
    let mut body = Vec::new();
    protocol::encode_request(79, &Request::Ping, &mut body);
    let mut framed = Vec::new();
    protocol::encode_frame(&body, &mut framed);
    raw.write_all(&framed).unwrap();
    let (id, resp) = read_one(&mut raw);
    assert_eq!((id, resp), (79, Response::Pong));

    let stats = server.shutdown();
    assert!(stats.errors >= 2, "{stats:?}");
}

/// Batches over the configured pair cap are refused with `TooLarge`
/// without killing the connection.
#[test]
fn oversized_batches_are_refused_frame_scoped() {
    let server = DistanceServer::start(
        Arc::new(line_index(2)),
        "127.0.0.1:0",
        NetConfig {
            max_batch_pairs: 4,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    let err = client.distance_batch(&[(0, 1); 5]).unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(WireError::TooLarge { .. })),
        "{err:?}"
    );
    assert_eq!(
        client.distance_batch(&[(0, 1); 4]).unwrap(),
        vec![Some(2); 4]
    );
    server.shutdown();
}

/// Once a drain has been requested, work-carrying opcodes are refused
/// with the documented `ShuttingDown` code while Ping/Stats stay
/// answerable, and the refusal round-trips as a typed remote error.
#[test]
fn draining_server_refuses_queries_with_shutting_down() {
    let server =
        DistanceServer::start(Arc::new(line_index(2)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.distance(0, 2).unwrap(), Some(4));

    server.request_shutdown();
    let err = client.distance(0, 2).unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(WireError::ShuttingDown)),
        "{err:?}"
    );
    // Observability opcodes keep working so clients can see the drain.
    client.ping().unwrap();
    assert!(client.stats().unwrap().queries >= 1);
    server.shutdown();
}

/// A request that would exceed the frame cap is rejected locally, before
/// anything hits the wire, with a typed error instead of a dead socket.
#[test]
fn oversized_outbound_requests_are_rejected_client_side() {
    let server =
        DistanceServer::start(Arc::new(line_index(2)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    let huge: Vec<(VertexId, VertexId)> = vec![(0, 1); 200_000]; // > 1 MiB encoded
    let err = client.distance_batch(&huge).unwrap_err();
    assert!(matches!(&err, NetError::FrameTooLarge { .. }), "{err:?}");
    // The connection is untouched: nothing was sent.
    assert_eq!(client.distance(0, 2).unwrap(), Some(4));
    server.shutdown();
}

/// The wire `Stats` opcode reports real percentiles and counters.
#[test]
fn wire_stats_report_latency_percentiles() {
    let g = erdos_renyi_gnm(150, 400, WeightModel::UniformRange(1, 6), 0x33);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let server =
        DistanceServer::start(Arc::new(index), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    for &(s, t) in pair_mix(150, 50).iter() {
        client.distance(s, t).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.engine, "islabel");
    assert_eq!(stats.num_vertices, 150);
    assert_eq!(stats.queries, 50);
    assert_eq!(stats.connections_active, 1);
    // The wire fields are µs-truncated (0 is legitimate for sub-µs
    // queries on a fast machine); the nanosecond-precision histogram
    // behind them is what must prove real observations.
    assert!(stats.p99_us >= stats.p50_us);
    let server_stats = server.shutdown();
    assert_eq!(server_stats.latency.count(), 50);
    assert!(server_stats.latency.p50() > std::time::Duration::ZERO);
}

/// The wire `Stats` payload now carries the full latency histogram, so a
/// remote client derives the same percentiles the server computes — not
/// just the µs-truncated scalars.
#[test]
fn wire_stats_carry_full_histogram_buckets() {
    let g = erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 6), 0x44);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let server =
        DistanceServer::start(Arc::new(index), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    for &(s, t) in pair_mix(120, 40).iter() {
        client.distance(s, t).unwrap();
    }
    let stats = client.stats().unwrap();
    let hist = stats.latency.expect("histogram tail present");
    assert_eq!(hist.count(), 40);
    assert!(hist.sum_nanos() > 0);
    // The scalar fields are the histogram's own percentiles, µs-truncated.
    assert_eq!(stats.p50_us, hist.p50().as_micros() as u64);
    assert_eq!(stats.p99_us, hist.p99().as_micros() as u64);
    server.shutdown();
}

/// The `Metrics` opcode (0x08) streams non-empty Prometheus exposition
/// text with the registered families over a live socket — and a draining
/// server refuses it like the other work-carrying opcodes.
#[test]
fn metrics_opcode_round_trips_and_is_refused_while_draining() {
    let g = erdos_renyi_gnm(100, 260, WeightModel::UniformRange(1, 5), 0x55);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let server =
        DistanceServer::start(Arc::new(index), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();
    for &(s, t) in pair_mix(100, 20).iter() {
        client.distance(s, t).unwrap();
    }

    let text = client.metrics().unwrap();
    assert!(!text.is_empty());
    // The server's own counter families are registered and typed.
    assert!(
        text.contains("# TYPE islabel_net_queries_total counter"),
        "{text}"
    );
    assert!(text.contains("islabel_net_connections_active"), "{text}");
    assert!(
        text.contains("# TYPE islabel_net_query_latency_seconds histogram"),
        "{text}"
    );
    // The per-phase query trace re-emitted by the frame loop shows up
    // with a nonzero traced-query count.
    let traced = text
        .lines()
        .find(|l| l.starts_with("islabel_query_traced_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("traced counter rendered");
    assert!(traced >= 20, "{traced}");

    server.request_shutdown();
    let err = client.metrics().unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(WireError::ShuttingDown)),
        "{err:?}"
    );
    server.shutdown();
}

/// A raw socket past a real handshake, with a client-side read timeout so
/// a reply that never comes fails the test instead of hanging it.
fn raw_connection(addr: std::net::SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut hello = Vec::new();
    protocol::encode_hello(&mut hello);
    raw.write_all(&hello).unwrap();
    let mut server_hello = [0u8; protocol::HELLO_LEN];
    raw.read_exact(&mut server_hello).unwrap();
    assert_eq!(protocol::decode_hello(&server_hello), Ok(protocol::VERSION));
    raw
}

fn push_request(out: &mut Vec<u8>, id: u64, request: &Request) {
    protocol::append_framed(out, |out| protocol::encode_request(id, request, out));
}

fn read_response(raw: &mut TcpStream) -> (u64, Response) {
    let mut buf = Vec::new();
    assert!(protocol::read_frame(raw, 1 << 20, &mut buf).unwrap());
    protocol::decode_response(&buf).unwrap()
}

/// Polls until the server reports `want` open connections (the counter
/// drops just after the socket closes).
fn wait_for_active(server: &DistanceServer, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().connections_active != want {
        assert!(
            Instant::now() < deadline,
            "connections_active stuck at {} (want {want})",
            server.stats().connections_active
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Regression: the hello was read with no timeout, so a peer that stalls
/// after `sent` bytes of it held a connection thread and one of
/// `max_connections` slots until the server shut down. The handshake is
/// now bounded by the peer-stall bound, `write_timeout`.
fn assert_stalled_hello_is_closed(sent: &[u8]) {
    let server = DistanceServer::start(
        Arc::new(line_index(2)),
        "127.0.0.1:0",
        NetConfig {
            write_timeout: Some(Duration::from_millis(150)),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    raw.write_all(sent).unwrap();
    let mut scratch = [0u8; 1];
    assert_eq!(raw.read(&mut scratch).unwrap(), 0, "peer was not closed");
    wait_for_active(&server, 0);
    server.shutdown();
}

#[test]
fn peer_that_never_says_hello_is_closed_after_the_stall_bound() {
    assert_stalled_hello_is_closed(b"");
}

#[test]
fn peer_that_sends_half_a_hello_is_closed_after_the_stall_bound() {
    assert_stalled_hello_is_closed(b"ISLW");
}

/// The invariant that replaced the writer thread: the connection never
/// waits for input while it holds unwritten output. One segment carries
/// frame A whole and the first bytes of frame B; A's reply must arrive
/// while B is still incomplete (a server that flushes only when its
/// input buffer is *empty* would sit on it), and B's reply after it.
#[test]
fn reply_is_not_held_behind_a_half_arrived_next_frame() {
    let server =
        DistanceServer::start(Arc::new(line_index(3)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let mut raw = raw_connection(server.local_addr());

    let (mut segment, mut b) = (Vec::new(), Vec::new());
    push_request(&mut segment, 1, &Request::Query { s: 0, t: 2 });
    push_request(&mut b, 2, &Request::Query { s: 0, t: 1 });
    segment.extend_from_slice(&b[..6]);
    raw.write_all(&segment).unwrap();
    assert_eq!(read_response(&mut raw), (1, Response::Distance(Some(6))));

    raw.write_all(&b[6..]).unwrap();
    assert_eq!(read_response(&mut raw), (2, Response::Distance(Some(3))));
    server.shutdown();
}

/// A pipelined burst that arrives together is answered in request order
/// and leaves in a handful of socket writes, not one per frame.
#[test]
fn pipelined_burst_is_answered_in_order_with_coalesced_writes() {
    let g = erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 6), 0x66);
    let oracle: SharedOracle =
        Arc::new(IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap());
    let pairs = pair_mix(120, 64);
    let truth: Vec<Option<Dist>> = {
        let mut session = oracle.session();
        pairs
            .iter()
            .map(|&(s, t)| session.distance(s, t).unwrap())
            .collect()
    };
    let server = DistanceServer::start(oracle, "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut raw = raw_connection(server.local_addr());
    let before = server.stats();

    let mut burst = Vec::new();
    for (i, &(s, t)) in pairs.iter().enumerate() {
        push_request(&mut burst, i as u64 + 1, &Request::Query { s, t });
    }
    raw.write_all(&burst).unwrap();
    for (i, want) in truth.iter().enumerate() {
        assert_eq!(
            read_response(&mut raw),
            (i as u64 + 1, Response::Distance(*want))
        );
    }

    let after = server.stats();
    assert_eq!(after.frames - before.frames, 64);
    let flushes = after.flushes - before.flushes;
    assert!(
        (1..=8).contains(&flushes),
        "{flushes} writes for 64 replies"
    );
    server.shutdown();
}

/// Backpressure without a queue: a client that pipelines requests and
/// never reads stalls only its own connection's thread, is closed after
/// `write_timeout`, and neither starves another connection nor wedges
/// shutdown.
#[test]
fn client_that_stops_reading_stalls_only_itself_and_is_closed() {
    let server = DistanceServer::start(
        Arc::new(line_index(3)),
        "127.0.0.1:0",
        NetConfig {
            write_timeout: Some(Duration::from_millis(200)),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut good = DistanceClient::connect(server.local_addr()).unwrap();
    good.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut stalled = raw_connection(server.local_addr());
    stalled
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    wait_for_active(&server, 2);

    // Pipeline without ever reading, until our own write refuses more:
    // the socket buffers are full both ways, or the server has already
    // given up on us.
    const CHUNK_FRAMES: u64 = 4096;
    const MAX_FRAMES: u64 = 2_000_000;
    let mut chunk = Vec::new();
    for i in 0..CHUNK_FRAMES {
        push_request(&mut chunk, i + 1, &Request::Query { s: 0, t: 2 });
    }
    let mut sent = 0;
    while stalled.write_all(&chunk).is_ok() {
        sent += CHUNK_FRAMES;
        assert!(
            sent < MAX_FRAMES,
            "the server buffered {sent} unread replies"
        );
        // The other connection is served the whole time.
        assert_eq!(good.distance(0, 2).unwrap(), Some(6));
    }

    wait_for_active(&server, 1);
    assert_eq!(good.distance(0, 2).unwrap(), Some(6));
    let closing = Instant::now();
    server.shutdown();
    assert!(closing.elapsed() < Duration::from_secs(5));
}
