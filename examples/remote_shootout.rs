//! Remote shootout: build an index, serve it over loopback, and query it
//! from a pooled client — the copy-paste starting point for embedding the
//! [`DistanceServer`] in a process of your own.
//!
//! ```text
//! cargo run --release --example remote_shootout
//! ```

use islabel::graph::generators::{erdos_renyi_gnm, WeightModel};
use islabel::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. Build: a synthetic graph and its IS-LABEL index, exactly as for
    //    in-process serving.
    let n = 5_000u32;
    let g = erdos_renyi_gnm(n as usize, 15_000, WeightModel::UniformRange(1, 10), 42);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    let t0 = Instant::now();
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).expect("a valid config");
    println!("index built in {:.2?}", t0.elapsed());

    // 2. Serve: bind a loopback port (0 = OS-assigned) and expose the
    //    index over the wire protocol. `NetConfig` carries the limits
    //    (frame cap, batch cap, connection cap).
    let server = DistanceServer::start(Arc::new(index), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // 3. Query: a pool of 4 connections. Singles round-robin; batches fan
    //    out across the pool and come back in input order.
    let pool = ClientPool::connect(addr, 4).expect("connect pool");
    let d = pool.distance(0, n - 1).expect("remote query");
    println!("dist(0, {}) = {d:?}", n - 1);

    let pairs: Vec<(VertexId, VertexId)> = (0..2_000u32)
        .map(|i| ((i * 13) % n, (i * 37 + 5) % n))
        .collect();
    let t0 = Instant::now();
    let answers = pool.distance_batch(&pairs).expect("remote batch");
    let took = t0.elapsed();
    let reachable = answers.iter().flatten().count();
    println!(
        "{} remote queries in {:.2?} ({:.0} queries/sec), {} reachable",
        pairs.len(),
        took,
        pairs.len() as f64 / took.as_secs_f64(),
        reachable
    );

    // 4. Typed errors round-trip the wire: an out-of-range vertex comes
    //    back as the same QueryError the library raises in-process.
    let err = pool.distance(0, n + 7).expect_err("out of range");
    println!(
        "remote error round-trip: {:?}",
        err.as_query_error().expect("maps to a QueryError")
    );

    // 5. Observe: server-side counters and real latency percentiles, both
    //    from the wire Stats opcode and from the shutdown stats.
    let stats = pool.stats().expect("stats");
    println!(
        "server stats: engine={} gen={} queries={} p50={}µs p99={}µs",
        stats.engine, stats.snapshot_version, stats.queries, stats.p50_us, stats.p99_us
    );

    let final_stats = server.shutdown();
    println!(
        "shutdown: {} queries over {} connections, {} errors",
        final_stats.queries, final_stats.connections_total, final_stats.errors
    );
}
