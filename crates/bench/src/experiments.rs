//! One runner per paper table (Section 7) plus ablations of its design
//! choices; README's "Reproducing the paper's tables" lists the datasets.
//! Each takes the dataset [`Scale`] and returns a [`Table`] ready to print;
//! the `paper` binary runs them.
//!
//! Where the paper's numbers depend on its 7200 RPM disk, we report
//! *modeled* I/O time from counted seeks/bytes (10 ms per seek, 100 MB/s
//! sequential — the same accounting the paper uses when it attributes
//! Time (a) to "10ms per disk I/O") as a mean in ms. CPU time is measured
//! per query and printed as the median with its p25–p75 range in µs; a
//! disk-resident method's query time is the median of per-query modeled
//! I/O plus measured CPU. Build times are in ms.

use crate::table::Table;
use crate::timing::{median_us, ms, per_query, time};
use crate::workload::QueryWorkload;
use islabel_baselines::{build_oracle, BiDijkstraOracle, Engine, PllIndex, VcConfig, VcIndex};
use islabel_core::disklabel::{DiskLabelStore, FetchedLabel};
use islabel_core::{
    BatchOptions, BuildConfig, DistanceOracle, IsLabelIndex, IsStrategy, QueryType,
};
use islabel_extmem::storage::{MemStorage, Storage};
use islabel_extmem::IoCostModel;
use islabel_graph::algo::stats::{human_bytes, human_count};
use islabel_graph::{CsrGraph, Dataset, Dist, Scale, VertexId};
use std::time::Duration;

/// Queries per workload: the paper's "1000 randomly generated queries"
/// (Section 7.2).
const PAPER_QUERIES: usize = 1000;
/// Queries per row of ablations A and B, which rebuild the index per row.
const ABLATION_QUERIES: usize = 200;
/// Queries of ablation D, enough to split across eight threads.
const PARALLEL_QUERIES: usize = 2000;

/// One query against disk-resident labels.
#[derive(Debug)]
struct DiskQuery {
    /// Counted label-fetch seeks (0–2 depending on the query type).
    seeks: u64,
    /// Modeled label-retrieval time (the paper's Time (a)).
    time_a: Duration,
    /// Measured CPU time of Equation 1 + the `G_k` search (Time (b)).
    time_b: Duration,
}

/// Mean label-fetch seeks per query.
fn seeks(qs: &[DiskQuery]) -> String {
    format!(
        "{:.2}",
        qs.iter().map(|q| q.seeks).sum::<u64>() as f64 / qs.len() as f64
    )
}

/// Mean modeled Time (a).
fn time_a(qs: &[DiskQuery]) -> String {
    ms(per_query(qs.iter().map(|q| q.time_a).sum(), qs.len()))
}

/// Median measured Time (b).
fn time_b(qs: &[DiskQuery]) -> String {
    median_us(qs.iter().map(|q| q.time_b))
}

/// Median per-query total, Time (a) + Time (b).
fn total(qs: &[DiskQuery]) -> String {
    median_us(qs.iter().map(|q| q.time_a + q.time_b))
}

/// Runs a workload against disk-resident labels, splitting Time (a)
/// (modeled label fetch I/O) from Time (b) (measured search CPU).
///
/// Endpoints inside `G_k` need no fetch — their label is the self entry —
/// exactly why Table 5's Type 1 rows show Time (a) = 0.
fn run_disk_queries(
    index: &IsLabelIndex,
    store: &DiskLabelStore,
    storage: &dyn Storage,
    cost: &IoCostModel,
    workload: &QueryWorkload,
) -> Vec<DiskQuery> {
    let io = storage.stats();
    let (mut ls, mut lt) = (FetchedLabel::default(), FetchedLabel::default());
    workload
        .pairs
        .iter()
        .map(|&(s, t)| {
            let before = io.snapshot();
            fetch_or_self(index, store, storage, s, &mut ls);
            fetch_or_self(index, store, storage, t, &mut lt);
            let delta = io.snapshot().since(&before);
            let (answer, time_b) = time(|| index.try_distance_from_labels(ls.view(), lt.view()));
            answer.expect("a pristine index answers from its own stored labels");
            DiskQuery {
                seeks: delta.seeks,
                time_a: cost.modeled_time(&delta),
                time_b,
            }
        })
        .collect()
}

/// Puts `label(v)` into `out`, reading the disk only outside the searched
/// `G_k` (a label-only index's core labels are on disk too).
fn fetch_or_self(
    index: &IsLabelIndex,
    store: &DiskLabelStore,
    storage: &dyn Storage,
    v: VertexId,
    out: &mut FetchedLabel,
) {
    if index.is_in_gk(v) {
        // label(v) = {(v, 0)} for residual vertices — no disk access.
        out.ancestors.clear();
        out.ancestors.push(v);
        out.dists.clear();
        out.dists.push(0);
    } else {
        store.fetch(storage, v, out).expect("label fetch");
    }
}

/// Median per-query wall-clock of answering `pairs` sequentially through
/// one session of the shared [`DistanceOracle`] trait — every engine is
/// measured over the identical call path, so rows of a comparison table
/// differ only by engine, and the session is opened outside the clock, so
/// they measure queries and not scratch allocation.
fn oracle_query_time(oracle: &dyn DistanceOracle, pairs: &[(VertexId, VertexId)]) -> String {
    let mut session = oracle.session();
    median_us(pairs.iter().map(|&(s, t)| {
        let (answer, dt) = time(|| session.distance(s, t));
        answer.expect("workload in range");
        dt
    }))
}

/// Builds an index whose configuration is one of this module's constants.
fn build(g: &CsrGraph, config: BuildConfig) -> IsLabelIndex {
    IsLabelIndex::try_build(g, config).expect("the experiments' configs are valid")
}

/// Builds the index plus its disk-label store on counted in-memory storage.
fn build_disk_backed(
    g: &CsrGraph,
    config: BuildConfig,
) -> (IsLabelIndex, MemStorage, DiskLabelStore) {
    let index = build(g, config);
    let storage = MemStorage::new();
    let store = DiskLabelStore::write(&storage, "labels", index.labels()).expect("write labels");
    (index, storage, store)
}

/// All five paper datasets at `scale`, in the paper's table order.
fn datasets(scale: Scale) -> impl Iterator<Item = (Dataset, CsrGraph)> {
    Dataset::ALL
        .into_iter()
        .map(move |ds| (ds, ds.generate(scale)))
}

/// The σ = 0.95 rule's k, then Table 6's sweep around it: one below (at
/// least 2), k itself and one above.
fn k_sweep(g: &CsrGraph) -> (u32, [u32; 3]) {
    let auto = build(g, BuildConfig::default()).stats().k;
    (auto, [auto.saturating_sub(1).max(2), auto, auto + 1])
}

// ---------------------------------------------------------------------------
// Table 2 — datasets
// ---------------------------------------------------------------------------

/// Table 2: dataset statistics (ours, paper targets in parentheses in the
/// dataset doc comments).
pub fn table2(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 2 — real datasets (synthetic stand-ins; see README)",
        &["dataset", "|V|", "|E|", "Avg. Deg", "Max Deg", "CSR size"],
    );
    for (ds, g) in datasets(scale) {
        t.row(vec![
            ds.name().into(),
            human_count(g.num_vertices()),
            human_count(g.num_edges()),
            format!("{:.2}", g.avg_degree()),
            g.max_degree().to_string(),
            human_bytes(g.memory_bytes()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Tables 3 & 7 — index construction at a σ threshold
// ---------------------------------------------------------------------------

/// Table 3 (σ = 0.95) / Table 7 (σ = 0.90): construction results.
fn construction_table(title: &str, scale: Scale, sigma: f64, with_query_time: bool) -> Table {
    let mut headers = vec![
        "dataset",
        "k",
        "|V_Gk|",
        "|E_Gk|",
        "Label size",
        "Indexing time",
    ];
    if with_query_time {
        headers.push("Query time");
    }
    let mut t = Table::new(title, &headers);
    for (ds, g) in datasets(scale) {
        let (index, storage, store) = build_disk_backed(&g, BuildConfig::sigma(sigma));
        let s = index.stats();
        let mut row = vec![
            ds.name().to_string(),
            s.k.to_string(),
            human_count(s.gk_vertices),
            human_count(s.gk_edges),
            human_bytes(s.label_bytes),
            ms(s.build_time),
        ];
        if with_query_time {
            let workload = QueryWorkload::random(g.num_vertices(), PAPER_QUERIES, 0x9A);
            let qs = run_disk_queries(&index, &store, &storage, &IoCostModel::default(), &workload);
            row.push(total(&qs));
        }
        t.row(row);
    }
    t
}

/// Table 3 — σ = 0.95 (the paper's default threshold).
pub fn table3(scale: Scale) -> Table {
    let title = "Table 3 — index construction results with threshold 0.95";
    construction_table(title, scale, 0.95, false)
}

/// Table 7 — σ = 0.90.
pub fn table7(scale: Scale) -> Table {
    let title = "Table 7 — construction, label size, G_k size and query time, threshold 0.9";
    construction_table(title, scale, 0.90, true)
}

// ---------------------------------------------------------------------------
// Table 4 — query time split, σ = 0.95
// ---------------------------------------------------------------------------

/// Table 4: query time with the Time (a) / Time (b) split.
pub fn table4(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 4 — query time with threshold 0.95 (Time (a) modeled at 10 ms/seek)",
        &[
            "dataset",
            "k",
            "Total query time",
            "I/Os",
            "Time (a)",
            "Time (b)",
        ],
    );
    for (ds, g) in datasets(scale) {
        let (index, storage, store) = build_disk_backed(&g, BuildConfig::default());
        let workload = QueryWorkload::random(g.num_vertices(), PAPER_QUERIES, 0x4A);
        let qs = run_disk_queries(&index, &store, &storage, &IoCostModel::default(), &workload);
        t.row(vec![
            ds.name().into(),
            index.stats().k.to_string(),
            total(&qs),
            seeks(&qs),
            time_a(&qs),
            time_b(&qs),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 5 — query time by query type
// ---------------------------------------------------------------------------

/// Table 5: per-type query times on the two datasets the paper shows
/// (BTC-like and Web-like).
pub fn table5(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 5 — query time for 3 query types (1: both in G_k, 2: one, 3: neither)",
        &[
            "dataset", "k", "type", "Total", "I/Os", "Time (a)", "Time (b)",
        ],
    );
    for ds in [Dataset::BtcLike, Dataset::WebLike] {
        let g = ds.generate(scale);
        let (index, storage, store) = build_disk_backed(&g, BuildConfig::default());
        for qtype in [
            QueryType::BothInGk,
            QueryType::OneInGk,
            QueryType::NeitherInGk,
        ] {
            let Some(workload) = QueryWorkload::of_type(&index, qtype, PAPER_QUERIES, 0x55) else {
                t.row(vec![
                    ds.name().into(),
                    index.stats().k.to_string(),
                    qtype.number().to_string(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                ]);
                continue;
            };
            let qs = run_disk_queries(&index, &store, &storage, &IoCostModel::default(), &workload);
            t.row(vec![
                ds.name().into(),
                index.stats().k.to_string(),
                qtype.number().to_string(),
                total(&qs),
                seeks(&qs),
                time_a(&qs),
                time_b(&qs),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Table 6 — sweep over k
// ---------------------------------------------------------------------------

/// Table 6: construction and query time at k − 1, k, k + 1 around the
/// automatically selected k, for BTC-like and Web-like.
pub fn table6(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 6 — index construction time, label size, G_k size and query time vs k",
        &[
            "dataset",
            "k",
            "|V_Gk|",
            "|E_Gk|",
            "Label size",
            "Indexing time",
            "Query time",
        ],
    );
    for ds in [Dataset::BtcLike, Dataset::WebLike] {
        let g = ds.generate(scale);
        let (auto, ks) = k_sweep(&g);
        let mut last_k = 0;
        for k in ks {
            let (index, storage, store) = build_disk_backed(&g, BuildConfig::fixed_k(k));
            let s = index.stats();
            // `fixed_k` clamps at a full hierarchy, so two requests can
            // build the same k: print each built k once.
            if s.k == last_k {
                continue;
            }
            last_k = s.k;
            let workload = QueryWorkload::random(g.num_vertices(), PAPER_QUERIES, 0x66);
            let qs = run_disk_queries(&index, &store, &storage, &IoCostModel::default(), &workload);
            t.row(vec![
                ds.name().into(),
                format!("{}{}", s.k, if s.k == auto { " (auto)" } else { "" }),
                human_count(s.gk_vertices),
                human_count(s.gk_edges),
                human_bytes(s.label_bytes),
                ms(s.build_time),
                total(&qs),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Tables 8 & 9 — comparison with other methods
// ---------------------------------------------------------------------------

/// Table 8: query time of IS-LABEL (disk, modeled I/O), IM-ISL
/// (in-memory IS-LABEL), VC-Index(P2P) (modeled disk-resident search) and
/// IM-DIJ (in-memory bidirectional Dijkstra).
pub fn table8(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 8 — query time of IS-LABEL, IM-ISL, VC-Index(P2P) and IM-DIJ",
        &["dataset", "IS-LABEL", "IM-ISL", "VC-Index(P2P)", "IM-DIJ"],
    );
    let cost = IoCostModel::default();
    for (ds, g) in datasets(scale) {
        let workload = QueryWorkload::random(g.num_vertices(), PAPER_QUERIES, 0x88);

        // IS-LABEL: disk labels, Time (a) modeled + Time (b) measured.
        let (index, storage, store) = build_disk_backed(&g, BuildConfig::default());
        let qs = run_disk_queries(&index, &store, &storage, &cost, &workload);

        // VC-Index(P2P): measured CPU + modeled I/O over touched bytes (the
        // original system scans its disk-resident reduced graphs).
        let vc = VcIndex::build(&g, VcConfig::default());
        let mut vc_session = vc.session();
        let vc_time = median_us(workload.pairs.iter().map(|&(s, t)| {
            // Session form: the timed region measures search work, not the
            // per-call buffer setup of the one-shot convenience.
            let ((_, qcost), dt) = time(|| vc_session.distance_with_cost(s, t).expect("in range"));
            let blocks = cost.scan_blocks(qcost.bytes_touched as u64);
            dt + cost.seek_latency * blocks as u32
                + Duration::from_secs_f64(
                    qcost.bytes_touched as f64 / cost.sequential_bytes_per_sec as f64,
                )
        }));

        // IM-DIJ, state-pooled behind the same trait.
        let bidij = BiDijkstraOracle::new(g.clone());

        // Cross-check the methods on a sample (fail loudly on divergence),
        // uniformly through the trait.
        let engines: [&dyn DistanceOracle; 3] = [&index, &vc, &bidij];
        for &(s, t) in workload.pairs.iter().take(25) {
            let answers: Vec<Option<Dist>> = engines
                .iter()
                .map(|e| e.try_distance(s, t).expect("in range"))
                .collect();
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "method divergence on ({s}, {t}): {answers:?}"
            );
        }

        t.row(vec![
            ds.name().into(),
            total(&qs),
            // IM-ISL: everything in memory, through the shared trait.
            oracle_query_time(&index, &workload.pairs),
            vc_time,
            oracle_query_time(&bidij, &workload.pairs),
        ]);
    }
    t
}

/// Table 9: VC-Index construction time and index size.
pub fn table9(scale: Scale) -> Table {
    let mut t = Table::new(
        "Table 9 — indexing costs for VC-Index",
        &["dataset", "Index construction time", "Index size", "levels"],
    );
    for (ds, g) in datasets(scale) {
        let vc = VcIndex::build(&g, VcConfig::default());
        t.row(vec![
            ds.name().into(),
            ms(vc.build_time()),
            human_bytes(vc.index_bytes()),
            vc.levels().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Engine matrix — every DistanceOracle engine through the registry
// ---------------------------------------------------------------------------

/// All five engines built through [`build_oracle`] on one graph and driven
/// through the identical trait call path: build time, index size,
/// sequential latency and default-parallelism batch throughput. The table
/// the unified API makes possible — one loop, zero per-engine code.
pub fn engine_matrix(scale: Scale) -> Table {
    let mut t = Table::new(
        "Engine matrix — every DistanceOracle on BTC-like via build_oracle",
        &[
            "engine",
            "build time",
            "index bytes",
            "query",
            "batch throughput (q/s)",
        ],
    );
    let g = Dataset::BtcLike.generate(scale);
    let workload = QueryWorkload::random(g.num_vertices(), PAPER_QUERIES, 0xEE);
    let config = BuildConfig::default();
    let mut reference: Option<Vec<Option<Dist>>> = None;
    for engine in Engine::ALL {
        let (oracle, build_dt) = time(|| build_oracle(engine, &g, &config).expect("valid config"));
        let query = oracle_query_time(oracle.as_ref(), &workload.pairs);
        let (answers, batch_dt) = time(|| {
            oracle
                .distance_batch(&workload.pairs, BatchOptions::default())
                .expect("workload in range")
        });
        // Every engine must agree with the first — the registry's whole
        // point is interchangeability.
        match &reference {
            None => reference = Some(answers),
            Some(expect) => assert_eq!(&answers, expect, "{engine} diverges"),
        }
        t.row(vec![
            engine.name().into(),
            ms(build_dt),
            human_bytes(oracle.index_bytes()),
            query,
            format!("{:.0}", PAPER_QUERIES as f64 / batch_dt.as_secs_f64()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Ablation A: independent-set selection strategy (the paper's greedy
/// min-degree choice, quantified).
pub fn ablation_strategy(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation A — independent-set strategy (BTC-like)",
        &[
            "strategy",
            "k",
            "|V_Gk|",
            "Label size",
            "Indexing time",
            "Query time",
        ],
    );
    let g = Dataset::BtcLike.generate(scale);
    let workload = QueryWorkload::random(g.num_vertices(), ABLATION_QUERIES, 0xAB);
    for (name, strategy) in [
        ("min-degree greedy (paper)", IsStrategy::MinDegreeGreedy),
        ("random order", IsStrategy::Random(7)),
        ("max-degree greedy", IsStrategy::MaxDegreeGreedy),
    ] {
        let config = BuildConfig {
            is_strategy: strategy,
            ..BuildConfig::default()
        };
        let index = build(&g, config);
        let s = index.stats();
        t.row(vec![
            name.into(),
            s.k.to_string(),
            human_count(s.gk_vertices),
            human_bytes(s.label_bytes),
            ms(s.build_time),
            oracle_query_time(&index, &workload.pairs),
        ]);
    }
    t
}

/// Ablation B: σ sweep — the index-cost / query-cost trade-off curve
/// (Web-like, the dataset where Table 7 shows the trade-off most clearly).
pub fn ablation_sigma(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation B — σ sweep (Web-like)",
        &[
            "sigma",
            "k",
            "|V_Gk|",
            "|E_Gk|",
            "Label size",
            "Indexing time",
            "Query time",
        ],
    );
    let g = Dataset::WebLike.generate(scale);
    let workload = QueryWorkload::random(g.num_vertices(), ABLATION_QUERIES, 0xB5);
    for sigma in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99] {
        let index = build(&g, BuildConfig::sigma(sigma));
        let s = index.stats();
        t.row(vec![
            format!("{sigma:.2}"),
            s.k.to_string(),
            human_count(s.gk_vertices),
            human_count(s.gk_edges),
            human_bytes(s.label_bytes),
            ms(s.build_time),
            oracle_query_time(&index, &workload.pairs),
        ]);
    }
    t
}

/// Ablation D: query throughput scaling with worker threads (the paper's
/// queries are independent, so a serving deployment parallelizes them
/// trivially; this measures how far that goes on one machine).
pub fn ablation_parallel(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation D — parallel query throughput (BTC-like, in-memory)",
        &["threads", "total time", "throughput (q/s)", "speedup"],
    );
    let g = Dataset::BtcLike.generate(scale);
    let index = build(&g, BuildConfig::default());
    let workload = QueryWorkload::random(g.num_vertices(), PARALLEL_QUERIES, 0xD4);
    let mut base = Duration::ZERO;
    for threads in [1usize, 2, 4, 8] {
        let (answers, dt) =
            time(|| index.distance_batch(&workload.pairs, BatchOptions::with_threads(threads)));
        assert_eq!(answers.map(|a| a.len()), Ok(PARALLEL_QUERIES));
        if threads == 1 {
            base = dt;
        }
        t.row(vec![
            threads.to_string(),
            ms(dt),
            format!("{:.0}", PARALLEL_QUERIES as f64 / dt.as_secs_f64()),
            format!("{:.2}x", base.as_secs_f64() / dt.as_secs_f64()),
        ]);
    }
    t
}

/// Ablation C: 2-hop labeling (PLL) construction cost vs IS-LABEL across
/// growing graphs — the Section 3 scalability argument, measured. The
/// graph sizes are the curve itself, so they do not follow the scale.
pub fn ablation_twohop() -> Table {
    let mut t = Table::new(
        "Ablation C — 2-hop (PLL) vs IS-LABEL construction across graph sizes (BA, m = 5)",
        &[
            "n",
            "PLL build",
            "PLL size",
            "IS-LABEL build",
            "IS-LABEL labels",
        ],
    );
    for n in [2_000usize, 4_000, 8_000, 16_000] {
        let g = islabel_graph::generators::barabasi_albert(
            n,
            5,
            islabel_graph::generators::WeightModel::Unit,
            0xC2,
        );
        let (pll, pll_time) = time(|| PllIndex::build(&g));
        let index = build(&g, BuildConfig::default());
        t.row(vec![
            human_count(n),
            ms(pll_time),
            human_bytes(pll.index_bytes()),
            ms(index.stats().build_time),
            human_bytes(index.stats().label_bytes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_baselines::BiDijkstra;

    // These smoke tests run the full experiment plumbing at the tiny scale:
    // they catch integration breakage without waiting for real runs.

    #[test]
    fn table2_through_table9_render() {
        for t in [
            table2(Scale::Tiny),
            table3(Scale::Tiny),
            table4(Scale::Tiny),
            table5(Scale::Tiny),
            table6(Scale::Tiny),
            table7(Scale::Tiny),
            table8(Scale::Tiny),
            table9(Scale::Tiny),
        ] {
            let s = t.to_string();
            assert!(t.num_rows() > 0, "{s}");
            // A measured per-query time never rounds to zero.
            assert!(!s.contains("| 0.00 µs"), "{s}");
        }
    }

    #[test]
    fn engine_matrix_renders_all_engines() {
        let s = engine_matrix(Scale::Tiny).to_string();
        for engine in Engine::ALL {
            assert!(s.contains(engine.name()), "missing {engine} in:\n{s}");
        }
    }

    /// Table 5 / Section 6.2: a query fetches the label of each endpoint
    /// outside `G_k`, and a fetch is one counted seek — so types 1, 2 and 3
    /// cost 0, 1 and 2 seeks. BTC-like at `tiny` realises all three.
    #[test]
    fn disk_query_stats_split_time_a_by_type() {
        let g = Dataset::BtcLike.generate(Scale::Tiny);
        let (index, storage, store) = build_disk_backed(&g, BuildConfig::default());
        let cost = IoCostModel::default();
        for (qtype, seeks) in [
            (QueryType::BothInGk, 0),
            (QueryType::OneInGk, 1),
            (QueryType::NeitherInGk, 2),
        ] {
            let w = QueryWorkload::of_type(&index, qtype, 50, 1).expect("BTC-like realises it");
            let qs = run_disk_queries(&index, &store, &storage, &cost, &w);
            assert_eq!(qs.len(), 50);
            for q in &qs {
                assert_eq!(q.seeks, seeks, "type {}", qtype.number());
                assert_eq!(q.time_a.is_zero(), seeks == 0);
            }
        }
    }

    /// Table 6: a larger k peels more levels, so `G_k` never grows and the
    /// labels, which gain the ancestors of the extra levels, never shrink.
    #[test]
    fn table6_larger_k_never_grows_gk_nor_shrinks_labels() {
        for ds in Dataset::ALL {
            let g = ds.generate(Scale::Tiny);
            let (_, ks) = k_sweep(&g);
            let stats: Vec<_> = ks
                .iter()
                .map(|&k| build(&g, BuildConfig::fixed_k(k)).stats().clone())
                .collect();
            for w in stats.windows(2) {
                let (lo, hi) = (&w[0], &w[1]);
                let at = format!("{} k {} -> {}", ds.name(), lo.k, hi.k);
                assert!(hi.gk_vertices <= lo.gk_vertices, "{at}");
                assert!(hi.label_entries >= lo.label_entries, "{at}");
            }
        }
    }

    /// Table 8's claim in deterministic units: over Table 8's workload,
    /// IS-LABEL's `G_k` search settles fewer vertices than IM-DIJ's search
    /// of the whole graph, on every stand-in.
    #[test]
    fn table8_islabel_settles_fewer_than_im_dij() {
        for (ds, g) in datasets(Scale::Tiny) {
            let index = build(&g, BuildConfig::default());
            let mut bidij = BiDijkstra::new(g.num_vertices());
            let workload = QueryWorkload::random(g.num_vertices(), PAPER_QUERIES, 0x88);
            let (mut islabel, mut im_dij) = (0, 0);
            for &(s, t) in &workload.pairs {
                islabel += index.query(s, t).expect("in range").settled;
                im_dij += bidij.distance_with_cost(&g, s, t).1;
            }
            assert!(islabel < im_dij, "{}: {islabel} >= {im_dij}", ds.name());
        }
    }

    #[test]
    fn disk_queries_match_in_memory() {
        let g = Dataset::GoogleLike.generate(Scale::Tiny);
        let (index, storage, store) = build_disk_backed(&g, BuildConfig::default());
        let w = QueryWorkload::random(g.num_vertices(), 30, 3);
        let (mut ls, mut lt) = (FetchedLabel::default(), FetchedLabel::default());
        for &(s, t) in &w.pairs {
            fetch_or_self(&index, &store, &storage, s, &mut ls);
            fetch_or_self(&index, &store, &storage, t, &mut lt);
            assert_eq!(
                index.try_distance_from_labels(ls.view(), lt.view()),
                index.try_distance(s, t),
                "({s}, {t})"
            );
        }
    }
}
