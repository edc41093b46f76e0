//! The dynamic-update benchmark behind `BENCH_PR6.json`: durable ingest
//! throughput through the write-ahead log, and query latency of a
//! non-pristine index (pending updates) against the pristine baseline —
//! the PR-6 claim that an updated index keeps serving on the dense kernel
//! instead of falling off a latency cliff.
//!
//! ```text
//! update_throughput [--smoke] [--out PATH]
//! ```
//!
//! Two query paths are timed over the same workload:
//!
//! * `pristine_dense` — session on the freshly built index (the PR-4 hot
//!   path, the baseline);
//! * `overlay_dense` — session on the same index after ingesting updates:
//!   the same kernel over the `PatchedDense` view of the `DensePatch`
//!   the overlay maintains (inserted tail, tombstones, extra adjacency),
//!   which the session borrows.
//!
//! `--smoke` shrinks the graph and holds every overlay answer to the
//! lazy-update contract (`core::updates`) against reference Dijkstra over
//! the materialized current graph: never below the reference, never a
//! distance for an unreachable pair. (Equality is not the contract after
//! insertions; and a *stale* index promises nothing, which is why the
//! ingest here deletes only vertices whose deletion stays exact.) Env
//! knobs: `ISLABEL_UPDATE_N` (default 20 000 vertices),
//! `ISLABEL_UPDATE_OPS` (default 500 pending updates — within the ≤1k band
//! the acceptance ratio is specified for), and `ISLABEL_UPDATE_QUERIES`
//! (default 4 000).
//!
//! Schema (`islabel-bench-pr6/v1`): `ingest` carries durable ops/sec and
//! WAL bytes; `query.{pristine_dense,overlay_dense}` carry
//! `p50_us`/`p99_us`/`qps` (`BENCH_PR6.json` also has an `overlay_hashmap`
//! lane, from when one-shots ran a second kernel);
//! `overlay_vs_pristine_p50_ratio` is the acceptance number (must stay
//! within 1.5x).

use islabel_bench::timing::percentile_us;
use islabel_core::persist::try_save_index_to_path;
use islabel_core::reference::dijkstra_p2p;
use islabel_core::{BuildConfig, IsLabelIndex};
use islabel_graph::generators::{barabasi_albert, WeightModel};
use islabel_graph::{Dist, VertexId, Weight};
use std::path::PathBuf;
use std::time::Instant;

struct PathStats {
    p50_us: f64,
    p99_us: f64,
    qps: f64,
    queries: usize,
}

/// Times one query closure over all pairs; per-query latencies feed the
/// percentiles, the whole-loop wall clock feeds qps.
fn time_path(
    pairs: &[(VertexId, VertexId)],
    mut answer: impl FnMut(VertexId, VertexId) -> Option<Dist>,
) -> (PathStats, Vec<Option<Dist>>) {
    let mut latencies = Vec::with_capacity(pairs.len());
    let mut answers = Vec::with_capacity(pairs.len());
    let t0 = Instant::now();
    for &(s, t) in pairs {
        let q0 = Instant::now();
        let d = answer(s, t);
        latencies.push(q0.elapsed().as_nanos() as u64);
        answers.push(d);
    }
    let total = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (
        PathStats {
            p50_us: percentile_us(&latencies, 0.50),
            p99_us: percentile_us(&latencies, 0.99),
            qps: if total == 0.0 {
                0.0
            } else {
                pairs.len() as f64 / total
            },
            queries: pairs.len(),
        },
        answers,
    )
}

fn query_pairs(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let s = (next() % n as u64) as VertexId;
            let mut t = (next() % n as u64) as VertexId;
            if t == s {
                t = (t + 1) % n as VertexId;
            }
            (s, t)
        })
        .collect()
}

/// Streams `ops` valid updates (70% edge inserts, 20% vertex inserts, 10%
/// deletions, live endpoints only) through the WAL-attached index; every
/// op is durable before it is applied. Deletions name only `G_k` members
/// and inserted vertices, whose removal stays exact (a peeled one would
/// mark the index stale). Returns (elapsed_secs, applied).
fn ingest(index: &mut IsLabelIndex, ops: usize, seed: u64) -> (f64, usize) {
    let base_n = index.num_vertices();
    let mut alive = vec![true; base_n];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut pick_live = |alive: &Vec<bool>| -> Option<VertexId> {
        (0..64)
            .map(|_| (next() % alive.len() as u64) as usize)
            .find(|&v| alive[v])
            .map(|v| v as VertexId)
    };
    let mut applied = 0usize;
    let t0 = Instant::now();
    for i in 0..ops {
        let roll = (i * 2654435761) % 100;
        if roll < 70 {
            let (Some(a), Some(b)) = (pick_live(&alive), pick_live(&alive)) else {
                continue;
            };
            if a == b {
                continue;
            }
            index.insert_edge(a, b, (i % 10 + 1) as Weight);
        } else if roll < 90 {
            let Some(a) = pick_live(&alive) else { continue };
            let w = (i % 10 + 1) as Weight;
            index.insert_vertex(&[(a, w)]);
            alive.push(true);
        } else {
            let deletable = |v: &VertexId| index.is_in_gk(*v);
            let Some(v) = (0..64).find_map(|_| pick_live(&alive).filter(deletable)) else {
                continue;
            };
            index.delete_vertex(v);
            alive[v as usize] = false;
        }
        applied += 1;
    }
    (t0.elapsed().as_secs_f64(), applied)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR6.json".to_string());

    let env_or = |key: &str, default: usize| -> usize {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let n = if smoke {
        400
    } else {
        env_or("ISLABEL_UPDATE_N", 20_000)
    };
    let ops = if smoke {
        60
    } else {
        env_or("ISLABEL_UPDATE_OPS", 500)
    };
    let queries = if smoke {
        200
    } else {
        env_or("ISLABEL_UPDATE_QUERIES", 4_000)
    };

    let g = barabasi_albert(n, 3, WeightModel::UniformRange(1, 10), 0x6EED);
    let pairs = query_pairs(n, queries, 0xBEEF ^ n as u64);
    eprintln!(
        "[update_throughput] building index (n = {n}, m = {}) ...",
        g.num_edges()
    );
    let t0 = Instant::now();
    let mut index = IsLabelIndex::build(&g, BuildConfig::default());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Pristine baseline: the PR-4 dense session hot path.
    eprintln!("[update_throughput] pristine_dense ...");
    let mut session = index.session();
    let (pristine, _) = time_path(&pairs, |s, t| session.distance(s, t).expect("in range"));
    drop(session);

    // Durable ingest: artifact saved, WAL attached, every op logged and
    // fsync-batched before application — the crash-consistency deal.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("islabel-update-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench tempdir");
    let index_path = dir.join("bench.islx");
    let wal_path = dir.join("bench.wal");
    try_save_index_to_path(&index, &index_path).expect("save pristine artifact");
    index.attach_wal(&wal_path).expect("attach WAL");
    eprintln!("[update_throughput] ingesting {ops} ops through the WAL ...");
    let (ingest_secs, applied) = ingest(&mut index, ops, 0xACE);
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let pending = index.pending_ops();
    let stale = index.is_stale();

    // Non-pristine serving: the session's patched view.
    eprintln!("[update_throughput] overlay_dense ({pending} pending ops) ...");
    let mut session = index.session();
    let (overlay_dense, answers) =
        time_path(&pairs, |s, t| session.distance(s, t).expect("in range"));
    drop(session);

    if smoke {
        eprintln!("[update_throughput] smoke cross-check vs reference Dijkstra ...");
        assert!(!stale, "ingest deletes only vertices that stay exact");
        let current = index.current_graph();
        for (&(s, t), &got) in pairs.iter().zip(&answers) {
            match (got, dijkstra_p2p(&current, s, t)) {
                (Some(d), Some(tr)) => assert!(d >= tr, "below the reference ({s}, {t})"),
                (Some(_), None) => panic!("distance for unreachable pair ({s}, {t})"),
                (None, _) => {}
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let ratio = overlay_dense.p50_us / pristine.p50_us;
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>11}",
        "path", "queries", "p50_us", "p99_us", "qps"
    );
    for (name, s) in [
        ("pristine_dense", &pristine),
        ("overlay_dense", &overlay_dense),
    ] {
        println!(
            "{:<16} {:>8} {:>9.2} {:>9.2} {:>11.0}",
            name, s.queries, s.p50_us, s.p99_us, s.qps
        );
    }
    println!(
        "ingest: {applied} durable ops in {:.2}s ({:.0} ops/s, {wal_bytes} WAL bytes, stale = {stale})",
        ingest_secs,
        applied as f64 / ingest_secs.max(1e-9)
    );
    println!("overlay_dense / pristine_dense p50 ratio: {ratio:.3}");

    let fmt_path = |name: &str, s: &PathStats| {
        format!(
            "    \"{name}\": {{\"queries\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"qps\": {:.1}}}",
            s.queries, s.p50_us, s.p99_us, s.qps
        )
    };
    let json = format!(
        "{{\n  \"schema\": \"islabel-bench-pr6/v1\",\n  \"mode\": \"{}\",\n  \
         \"graph\": {{\"name\": \"ba\", \"n\": {}, \"m\": {}}},\n  \"build_ms\": {:.2},\n  \
         \"ingest\": {{\"ops\": {}, \"elapsed_s\": {:.4}, \"ops_per_sec\": {:.1}, \
         \"wal_bytes\": {}, \"pending_ops\": {}, \"stale\": {}}},\n  \"query\": {{\n{},\n{}\n  }},\n  \
         \"overlay_vs_pristine_p50_ratio\": {:.4}\n}}\n",
        if smoke { "smoke" } else { "full" },
        n,
        g.num_edges(),
        build_ms,
        applied,
        ingest_secs,
        applied as f64 / ingest_secs.max(1e-9),
        wal_bytes,
        pending,
        stale,
        fmt_path("pristine_dense", &pristine),
        fmt_path("overlay_dense", &overlay_dense),
        ratio
    );
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("wrote {out_path}");
}
