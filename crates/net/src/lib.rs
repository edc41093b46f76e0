#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-net
//!
//! IS-LABEL on the wire: a dependency-light networking layer over
//! `std::net` that puts the workspace's serving stack behind a TCP
//! endpoint. The paper's pitch is a small k-level label index answering
//! point-to-point distance queries in microseconds — exactly the kind of
//! index that belongs behind a network service; this crate supplies the
//! process boundary the in-process
//! [`QueryService`](islabel_serve::QueryService) stack stops at.
//!
//! Three pieces:
//!
//! * [`protocol`] — a versioned, length-prefixed binary protocol
//!   (magic/version handshake; `Ping`/`Query`/`Batch`/`Stats` plus admin
//!   `Reload`/`Shutdown` opcodes; stable error codes that round-trip
//!   [`QueryError`](islabel_core::QueryError)). Pure functions over byte
//!   buffers, panic-free on adversarial input.
//! * [`DistanceServer`] — an acceptor thread plus one thread per
//!   connection, which reads a burst of frames, answers each and writes
//!   the responses back — each tagged with its request id, in request
//!   order — before it waits for more input. Connections are
//!   **pipelined**: one connection keeps a window of requests in flight
//!   and a burst costs one `recv` and one `send`. Queries answer through
//!   a pinned [`Snapshot`](islabel_core::Snapshot) session that refreshes
//!   when a hot swap is observed — a wire-triggered `Reload` behaves
//!   exactly like [`OracleHandle::swap`](islabel_core::OracleHandle::swap):
//!   in-flight frames finish on their pinned generation.
//! * [`DistanceClient`] / [`ClientPool`] — a blocking client with
//!   request-id correlation (sync conveniences plus raw `send`/`recv`
//!   pipelining primitives) and a multi-connection pool for load
//!   generation.
//!
//! # Example
//!
//! ```
//! use islabel_core::{BuildConfig, IsLabelIndex};
//! use islabel_graph::GraphBuilder;
//! use islabel_net::{DistanceClient, DistanceServer, NetConfig};
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new(4);
//! for v in 0..3 {
//!     b.add_edge(v, v + 1, 2);
//! }
//! let index = IsLabelIndex::try_build(&b.build(), BuildConfig::default())?;
//!
//! let server =
//!     DistanceServer::start(Arc::new(index), "127.0.0.1:0", NetConfig::default()).unwrap();
//! let mut client = DistanceClient::connect(server.local_addr()).unwrap();
//! assert_eq!(client.distance(0, 3).unwrap(), Some(6));
//! assert_eq!(
//!     client.distance_batch(&[(0, 1), (1, 1)]).unwrap(),
//!     vec![Some(2), Some(0)]
//! );
//! server.shutdown();
//! # Ok::<(), islabel_core::Error>(())
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientPool, DistanceClient, NetError};
pub use protocol::{Request, Response, WireError, WireStats};
pub use server::{DistanceServer, NetConfig, ServerStats};
