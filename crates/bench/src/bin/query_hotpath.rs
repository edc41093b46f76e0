//! The query hot-path benchmark behind `BENCH_PR10.json`: per-engine build
//! time, p50/p99 query latency, throughput and settled counts on ER / BA /
//! grid graphs, plus two before/after comparisons: interleaved vs split
//! `DenseCsr` adjacency layout, and parallel vs single-thread
//! `LabelSet::build` (PR 4). `BENCH_PR4/9/10.json` also carry a
//! `kernel_comparison` block, from when there was a second search kernel
//! to compare against. PR 10 adds the `obs_overhead` section: the
//! documented overhead budget for query-phase tracing plus registry
//! re-emission (metrics-on, the serving default) vs a trace-disabled
//! session (metrics-off).
//!
//! ```text
//! query_hotpath [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks every graph to a few hundred vertices and
//! cross-checks **every** answer of **every** engine against reference
//! Dijkstra (the CI gate); the same JSON schema is emitted either way.
//! Env knobs: `ISLABEL_HOTPATH_N` (default 50 000 vertices per graph),
//! `ISLABEL_HOTPATH_QUERIES` (default 10 000 for the label engines; search
//! baselines run a capped slice), and `ISLABEL_HOTPATH_PLL_MAX_N` (default
//! 20 000): PLL's 2-hop construction is superlinear on weighted ER/grid
//! topologies (≈ 90 s and 200 MB of labels already at n = 20 000), so
//! graphs above the cap report the other four engines and skip PLL.
//!
//! Schema (`islabel-bench-pr10/v1`) — see README § Performance:
//! `graphs[].engines[]` carries `build_ms`, `queries`, `p50_us`, `p99_us`,
//! `qps`, `settled_total` (null for engines without a settle counter).
//! `layout` carries the interleaved-vs-split adjacency claim;
//! `label_build` the PR-4 claim; `obs_overhead` the PR-10 claim
//! (metrics-on p50 within a few percent of metrics-off).
//! Every comparison interleaves its contestants over three rounds and
//! keeps each one's best run.

use islabel_baselines::{BiDijkstra, PllIndex, VcConfig, VcIndex};
use islabel_core::dense::{dense_bi_dijkstra, DenseGk, DenseScratch, DenseView};
use islabel_core::kernel;
use islabel_core::label::LabelSet;
use islabel_core::oracle::DistanceOracle;
use islabel_core::reference::dijkstra_p2p;
use islabel_core::{BuildConfig, DiIsLabelIndex, IsLabelIndex};
use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
use islabel_graph::{CsrGraph, DigraphBuilder, Dist, VertexId, Weight, INF};
use std::time::Instant;

/// Per-query latencies in nanoseconds, plus whatever the engine settled.
struct RunStats {
    latencies_ns: Vec<u64>,
    total_ns: u64,
    settled: Option<u64>,
}

struct EngineReport {
    engine: &'static str,
    build_ms: f64,
    queries: usize,
    p50_us: f64,
    p99_us: f64,
    qps: f64,
    settled: Option<u64>,
}

struct GraphReport {
    name: &'static str,
    n: usize,
    m: usize,
    engines: Vec<EngineReport>,
}

use islabel_bench::timing::percentile_us;

fn finish(engine: &'static str, build_ms: f64, mut stats: RunStats) -> EngineReport {
    let queries = stats.latencies_ns.len();
    stats.latencies_ns.sort_unstable();
    EngineReport {
        engine,
        build_ms,
        queries,
        p50_us: percentile_us(&stats.latencies_ns, 0.50),
        p99_us: percentile_us(&stats.latencies_ns, 0.99),
        qps: if stats.total_ns == 0 {
            0.0
        } else {
            queries as f64 / (stats.total_ns as f64 / 1e9)
        },
        settled: stats.settled,
    }
}

/// Times `answer` over `pairs`, cross-checking against `truth` when given.
fn run_workload(
    pairs: &[(VertexId, VertexId)],
    truth: Option<&[Option<Dist>]>,
    engine: &str,
    mut answer: impl FnMut(VertexId, VertexId) -> (Option<Dist>, Option<u64>),
) -> RunStats {
    let mut latencies = Vec::with_capacity(pairs.len());
    let mut settled_total: Option<u64> = None;
    let mut total_ns = 0u64;
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let t0 = Instant::now();
        let (d, settled) = answer(s, t);
        let ns = t0.elapsed().as_nanos() as u64;
        latencies.push(ns);
        total_ns += ns;
        if let Some(settle) = settled {
            *settled_total.get_or_insert(0) += settle;
        }
        if let Some(expect) = truth {
            assert_eq!(
                d, expect[i],
                "{engine}: answer mismatch on query {i} ({s}, {t})"
            );
        }
    }
    RunStats {
        latencies_ns: latencies,
        total_ns,
        settled: settled_total,
    }
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

fn bench_graph(
    name: &'static str,
    g: &CsrGraph,
    label_queries: usize,
    search_queries: usize,
    smoke: bool,
) -> GraphReport {
    let n = g.num_vertices();
    let pairs = query_pairs(n, label_queries, 0xB0A7 + n as u64);
    let search_pairs = &pairs[..search_queries.min(pairs.len())];
    let truth_buf: Option<Vec<Option<Dist>>> =
        smoke.then(|| pairs.iter().map(|&(s, t)| dijkstra_p2p(g, s, t)).collect());
    let truth = truth_buf.as_deref();
    let truth_search = truth.map(|t| &t[..search_pairs.len()]);
    let mut engines = Vec::new();

    // islabel — dense-kernel session, with settled counts.
    eprintln!("[query_hotpath]   islabel ...");
    let t0 = Instant::now();
    let index = IsLabelIndex::build(g, BuildConfig::default());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut session = index.session();
    let stats = run_workload(&pairs, truth, "islabel", |s, t| {
        let out = session.search_outcome(s, t).expect("in range");
        (
            (out.dist < INF).then_some(out.dist),
            Some(out.settled as u64),
        )
    });
    drop(session);
    engines.push(finish("islabel", build_ms, stats));

    // di-islabel over the symmetrized digraph.
    eprintln!("[query_hotpath]   di-islabel ...");
    let t0 = Instant::now();
    let mut b = DigraphBuilder::new(n);
    for (u, v, w) in g.edge_list() {
        b.add_arc(u, v, w);
        b.add_arc(v, u, w);
    }
    let di = DiIsLabelIndex::build(&b.build(), BuildConfig::default());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut di_session = di.session();
    let stats = run_workload(&pairs, truth, "di-islabel", |s, t| {
        (di_session.distance(s, t).expect("in range"), None)
    });
    drop(di_session);
    engines.push(finish("di-islabel", build_ms, stats));

    // pll — 2-hop comparator, label-only queries. Skipped above the size
    // cap (see module docs): its construction is superlinear on these
    // topologies and would dwarf every other engine's build.
    let pll_max_n: usize = std::env::var("ISLABEL_HOTPATH_PLL_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    if n <= pll_max_n {
        eprintln!("[query_hotpath]   pll ...");
        let t0 = Instant::now();
        let pll = PllIndex::build(g);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut pll_session = DistanceOracle::session(&pll);
        let stats = run_workload(&pairs, truth, "pll", |s, t| {
            (pll_session.distance(s, t).expect("in range"), None)
        });
        drop(pll_session);
        engines.push(finish("pll", build_ms, stats));
    } else {
        eprintln!("[query_hotpath]   pll skipped on {name}: n = {n} > ISLABEL_HOTPATH_PLL_MAX_N = {pll_max_n}");
    }

    // vc — search engine; capped workload, settled counts.
    eprintln!("[query_hotpath]   vc ...");
    let t0 = Instant::now();
    let vc = VcIndex::build(g, VcConfig::default());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut vc_session = vc.session();
    let stats = run_workload(search_pairs, truth_search, "vc", |s, t| {
        let (d, cost) = vc_session.distance_with_cost(s, t).expect("in range");
        (d, Some(cost.settled as u64))
    });
    drop(vc_session);
    engines.push(finish("vc", build_ms, stats));

    // bidij — no index to build; capped workload, settled counts.
    eprintln!("[query_hotpath]   bidij ...");
    let mut searcher = BiDijkstra::new(n);
    let stats = run_workload(search_pairs, truth_search, "bidij", |s, t| {
        let (d, settled) = searcher.distance_with_cost(g, s, t);
        (d, Some(settled as u64))
    });
    engines.push(finish("bidij", 0.0, stats));

    GraphReport {
        name,
        n,
        m: g.num_edges(),
        engines,
    }
}

struct LayoutComparison {
    graph: &'static str,
    n: usize,
    m: usize,
    queries: usize,
    split_qps: f64,
    interleaved_qps: f64,
}

/// The split CSR layout `DenseCsr` used before this pass: one `u32`
/// stream of targets, a parallel one of weights. Kept here as the
/// measured-against baseline for [`layout_comparison`]; prefetch hints
/// mirror the interleaved layout's so the rows differ only in layout.
struct SplitCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<Weight>,
}

impl DenseView for SplitCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    fn edges_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let lo = self.offsets[d as usize] as usize;
        let hi = self.offsets[d as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&t, &w)| (t, w))
    }

    #[inline]
    fn prefetch_row(&self, d: u32) {
        if let Some(&lo) = self.offsets.get(d as usize) {
            kernel::prefetch_index(&self.targets, lo as usize);
            kernel::prefetch_index(&self.weights, lo as usize);
        }
    }
}

/// Interleaved vs split adjacency on point-to-point dense searches over
/// the whole grid graph as `G_k` — the measurement that keeps the
/// interleaved `DenseCsr` honest: single-seed searches walk long
/// adjacency runs, the workload where layout matters most.
fn layout_comparison(name: &'static str, g: &CsrGraph, queries: usize) -> LayoutComparison {
    let n = g.num_vertices();
    let members: Vec<VertexId> = (0..n as VertexId).collect();
    let dg = DenseGk::undirected(n, &members, g);
    let interleaved = dg.fwd();
    let mut split = SplitCsr {
        offsets: vec![0],
        targets: Vec::with_capacity(interleaved.num_entries()),
        weights: Vec::with_capacity(interleaved.num_entries()),
    };
    for d in 0..n as u32 {
        for (t, w) in interleaved.edges_of(d) {
            split.targets.push(t);
            split.weights.push(w);
        }
        split.offsets.push(split.targets.len() as u32);
    }

    let pairs = query_pairs(n, queries, 0x1A70);
    let mut scratch = DenseScratch::new(n);
    let to_dense = |v: VertexId| dg.ids().dense(v).expect("full membership");
    let mut pass =
        |view: &dyn Fn(&mut DenseScratch, u32, u32) -> Dist| -> (std::time::Duration, u64) {
            let mut sum = 0u64;
            let t0 = Instant::now();
            for &(s, t) in &pairs {
                sum = sum.wrapping_add(view(&mut scratch, to_dense(s), to_dense(t)));
            }
            (t0.elapsed(), sum)
        };

    let run_interleaved = |scratch: &mut DenseScratch, s: u32, t: u32| -> Dist {
        dense_bi_dijkstra(
            interleaved,
            interleaved,
            &[(s, 0)],
            &[(t, 0)],
            INF,
            None,
            scratch,
        )
        .dist
    };
    let split_ref = &split;
    let run_split = |scratch: &mut DenseScratch, s: u32, t: u32| -> Dist {
        dense_bi_dijkstra(
            split_ref,
            split_ref,
            &[(s, 0)],
            &[(t, 0)],
            INF,
            None,
            scratch,
        )
        .dist
    };

    let mut best_inter = std::time::Duration::MAX;
    let mut best_split = std::time::Duration::MAX;
    let (mut sum_inter, mut sum_split) = (0u64, 0u64);
    for _ in 0..3 {
        let (dt, sum) = pass(&run_interleaved);
        best_inter = best_inter.min(dt);
        sum_inter = sum;
        let (dt, sum) = pass(&run_split);
        best_split = best_split.min(dt);
        sum_split = sum;
    }
    assert_eq!(sum_inter, sum_split, "layouts disagree on {name}");

    LayoutComparison {
        graph: name,
        n,
        m: g.num_edges(),
        queries: pairs.len(),
        split_qps: pairs.len() as f64 / best_split.as_secs_f64(),
        interleaved_qps: pairs.len() as f64 / best_inter.as_secs_f64(),
    }
}

struct LabelBuild {
    graph: &'static str,
    k: u32,
    entries: usize,
    threads: usize,
    single_ms: f64,
    parallel_ms: f64,
}

/// Parallel vs single-thread `LabelSet::build` over a **deep** hierarchy
/// (fixed k): the σ rule stops ER-like graphs at k = 2, where labeling is
/// a few milliseconds and scheduler noise drowns any comparison; forcing
/// more levels puts construction in the labeling-bound regime the parallel
/// path exists for. Each variant is timed twice and the best run kept.
fn label_build_comparison(name: &'static str, g: &CsrGraph, k: u32) -> LabelBuild {
    let h = islabel_core::hierarchy::VertexHierarchy::build(g, &BuildConfig::fixed_k(k));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Interleave the two variants ([1, N] × rounds) and keep each one's
    // best: on a shared box, machine speed drifts across minutes, and
    // back-to-back blocks would hand whichever variant runs in the faster
    // window an unearned win.
    let run = |threads: usize| -> (LabelSet, f64) {
        let t0 = Instant::now();
        let ls = LabelSet::build_with_threads(&h, true, threads);
        (ls, t0.elapsed().as_secs_f64() * 1e3)
    };
    let mut single: Option<(LabelSet, f64)> = None;
    let mut parallel: Option<(LabelSet, f64)> = None;
    for _ in 0..3 {
        let s = run(1);
        if single.as_ref().is_none_or(|(_, b)| s.1 < *b) {
            single = Some(s);
        }
        let p = run(threads);
        if parallel.as_ref().is_none_or(|(_, b)| p.1 < *b) {
            parallel = Some(p);
        }
    }
    let (single, single_ms) = single.expect("rounds ran");
    let (parallel, parallel_ms) = parallel.expect("rounds ran");
    assert_eq!(single, parallel, "parallel labeling must be deterministic");
    LabelBuild {
        graph: name,
        k: h.k(),
        entries: single.num_entries(),
        threads,
        single_ms,
        parallel_ms,
    }
}

struct ObsOverhead {
    graph: &'static str,
    n: usize,
    queries: usize,
    p50_on_us: f64,
    p50_off_us: f64,
    /// `(p50_on − p50_off) / p50_off`, in percent; negative means the
    /// traced run measured faster (noise floor).
    overhead_pct: f64,
}

/// Metrics-on vs metrics-off p50 on the same session and workload: the
/// overhead budget for the observability pass. Metrics-on is the serving
/// default — phase boundaries timed by the session's [`QueryTrace`] and
/// every sample re-emitted to the process-wide `QueryPhases` counters,
/// exactly what the serve/net layers do per query. Metrics-off flips
/// [`QueryTrace::enabled`], which removes even the boundary `Instant`
/// reads. The two variants are interleaved over three rounds (best p50
/// each) and must agree on a distance checksum.
///
/// [`QueryTrace`]: islabel_core::trace::QueryTrace
/// [`QueryTrace::enabled`]: islabel_core::trace::QueryTrace::enabled
fn obs_overhead_bench(name: &'static str, g: &CsrGraph, queries: usize) -> ObsOverhead {
    use islabel_core::oracle::QuerySession;

    let index = IsLabelIndex::build(g, BuildConfig::default());
    let pairs = query_pairs(g.num_vertices(), queries, 0x0B5E);
    let mut session = index.session();
    let phases = islabel_obs::QueryPhases::global();

    // [metrics-on, metrics-off]
    let mut best_p50 = [f64::INFINITY; 2];
    let mut sums = [0u64; 2];
    let mut latencies = Vec::with_capacity(pairs.len());
    for _ in 0..3 {
        for (slot, on) in [(0usize, true), (1usize, false)] {
            session.trace_mut().expect("islabel sessions trace").enabled = on;
            latencies.clear();
            let mut sum = 0u64;
            for &(s, t) in &pairs {
                let t0 = Instant::now();
                let out = session.search_outcome(s, t).expect("in range");
                if on {
                    let l = session.trace().expect("islabel sessions trace").last;
                    phases.record(
                        l.intersect_ns,
                        l.seed_ns,
                        l.search_ns,
                        l.settled,
                        l.relaxed,
                        l.pushed,
                    );
                }
                latencies.push(t0.elapsed().as_nanos() as u64);
                sum = sum.wrapping_add(out.dist);
            }
            latencies.sort_unstable();
            best_p50[slot] = best_p50[slot].min(percentile_us(&latencies, 0.50));
            sums[slot] = sum;
        }
    }
    assert_eq!(sums[0], sums[1], "tracing changed answers on {name}");

    ObsOverhead {
        graph: name,
        n: g.num_vertices(),
        queries: pairs.len(),
        p50_on_us: best_p50[0],
        p50_off_us: best_p50[1],
        overhead_pct: (best_p50[0] - best_p50[1]) / best_p50[1] * 100.0,
    }
}

fn json_escape_free(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

fn to_json(
    mode: &str,
    graphs: &[GraphReport],
    layout: &LayoutComparison,
    labels: &LabelBuild,
    obs: &ObsOverhead,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"islabel-bench-pr10/v1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!(
        "  \"host_threads\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    out.push_str("  \"graphs\": [\n");
    for (gi, g) in graphs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"m\": {}, \"engines\": [\n",
            g.name, g.n, g.m
        ));
        for (ei, e) in g.engines.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"engine\": \"{}\", \"build_ms\": {:.2}, \"queries\": {}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"qps\": {:.1}, \"settled_total\": {}}}{}\n",
                e.engine,
                e.build_ms,
                e.queries,
                e.p50_us,
                e.p99_us,
                e.qps,
                json_escape_free(e.settled),
                if ei + 1 < g.engines.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if gi + 1 < graphs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"layout\": {{\"graph\": \"{}\", \"n\": {}, \"m\": {}, \"queries\": {}, \
         \"split_qps\": {:.1}, \"interleaved_qps\": {:.1}, \"speedup\": {:.3}}},\n",
        layout.graph,
        layout.n,
        layout.m,
        layout.queries,
        layout.split_qps,
        layout.interleaved_qps,
        layout.interleaved_qps / layout.split_qps
    ));
    out.push_str(&format!(
        "  \"label_build\": {{\"graph\": \"{}\", \"k\": {}, \"entries\": {}, \"threads\": {}, \
         \"single_thread_ms\": {:.1}, \"parallel_ms\": {:.1}, \"speedup\": {:.3}}},\n",
        labels.graph,
        labels.k,
        labels.entries,
        labels.threads,
        labels.single_ms,
        labels.parallel_ms,
        labels.single_ms / labels.parallel_ms
    ));
    out.push_str(&format!(
        "  \"obs_overhead\": {{\"graph\": \"{}\", \"n\": {}, \"queries\": {}, \
         \"p50_on_us\": {:.3}, \"p50_off_us\": {:.3}, \"overhead_pct\": {:.2}}}\n",
        obs.graph, obs.n, obs.queries, obs.p50_on_us, obs.p50_off_us, obs.overhead_pct
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());

    let n: usize = if smoke {
        400
    } else {
        std::env::var("ISLABEL_HOTPATH_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000)
    };
    let label_queries: usize = if smoke {
        200
    } else {
        std::env::var("ISLABEL_HOTPATH_QUERIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000)
    };
    let search_queries = if smoke { 200 } else { 1_000 };

    let side = (n as f64).sqrt().round() as usize;
    let graphs: Vec<(&'static str, CsrGraph)> = vec![
        (
            "er",
            erdos_renyi_gnm(n, 3 * n, WeightModel::UniformRange(1, 10), 0x5EED),
        ),
        (
            "ba",
            barabasi_albert(n, 3, WeightModel::UniformRange(1, 10), 0x5EED),
        ),
        (
            "grid",
            grid2d(side, side, WeightModel::UniformRange(1, 10), 0x5EED),
        ),
    ];

    let mut reports = Vec::new();
    for (name, g) in &graphs {
        eprintln!(
            "[query_hotpath] {} (n = {}, m = {}) ...",
            name,
            g.num_vertices(),
            g.num_edges()
        );
        reports.push(bench_graph(name, g, label_queries, search_queries, smoke));
    }

    eprintln!("[query_hotpath] adjacency layout (interleaved vs split) ...");
    let layout = layout_comparison("grid", &graphs[2].1, if smoke { 50 } else { 300 });
    eprintln!("[query_hotpath] label construction (parallel vs single) ...");
    let labels = label_build_comparison("er", &graphs[0].1, 10);
    eprintln!("[query_hotpath] observability overhead (metrics on vs off) ...");
    let obs = obs_overhead_bench("er", &graphs[0].1, label_queries);

    // Human-readable summary.
    println!(
        "{:<6} {:<15} {:>11} {:>8} {:>9} {:>9} {:>11} {:>12}",
        "graph", "engine", "build_ms", "queries", "p50_us", "p99_us", "qps", "settled"
    );
    for g in &reports {
        for e in &g.engines {
            println!(
                "{:<6} {:<15} {:>11.1} {:>8} {:>9.2} {:>9.2} {:>11.0} {:>12}",
                g.name,
                e.engine,
                e.build_ms,
                e.queries,
                e.p50_us,
                e.p99_us,
                e.qps,
                e.settled.map_or_else(|| "-".into(), |s| s.to_string()),
            );
        }
    }
    println!(
        "layout: interleaved {:.0} qps vs split {:.0} qps ({:.2}x) on {} n={}",
        layout.interleaved_qps,
        layout.split_qps,
        layout.interleaved_qps / layout.split_qps,
        layout.graph,
        layout.n
    );
    println!(
        "labels: parallel {:.0} ms vs single {:.0} ms ({:.2}x, {} threads, k={}, {} entries)",
        labels.parallel_ms,
        labels.single_ms,
        labels.single_ms / labels.parallel_ms,
        labels.threads,
        labels.k,
        labels.entries
    );
    println!(
        "obs: metrics-on p50 {:.2} us vs metrics-off p50 {:.2} us ({:+.2}%) on {} n={}",
        obs.p50_on_us, obs.p50_off_us, obs.overhead_pct, obs.graph, obs.n
    );

    let json = to_json(
        if smoke { "smoke" } else { "full" },
        &reports,
        &layout,
        &labels,
        &obs,
    );
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("wrote {out_path}");
}
