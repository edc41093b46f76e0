//! Query-latency microbenchmarks: IS-LABEL (in-memory) vs bidirectional
//! Dijkstra vs VC-Index(P2P) vs PLL, per dataset.
//!
//! Criterion complements the `table*` binaries: tables reproduce the
//! paper's absolute methodology (batches + modeled I/O), these benches give
//! statistically robust per-query CPU latencies.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use islabel_baselines::{BiDijkstra, PllIndex, VcConfig, VcIndex};
use islabel_bench::QueryWorkload;
use islabel_core::{BuildConfig, IsLabelIndex};
use islabel_graph::{Dataset, Scale};

fn query_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    for ds in [Dataset::BtcLike, Dataset::WebLike, Dataset::GoogleLike] {
        let g = ds.generate(Scale::Tiny);
        let n = g.num_vertices();
        let workload = QueryWorkload::random(n, 256, 0xBE);
        let pairs = workload.pairs.clone();

        let index = IsLabelIndex::build(&g, BuildConfig::default());
        let vc = VcIndex::build(&g, VcConfig::default());
        let pll = PllIndex::build(&g);
        let mut bidij = BiDijkstra::new(n);

        let mut i = 0usize;
        let mut session = index.session();
        group.bench_function(BenchmarkId::new("is-label", ds.name()), |b| {
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                black_box(session.distance(s, t))
            })
        });
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("im-dij", ds.name()), |b| {
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                black_box(bidij.distance(&g, s, t))
            })
        });
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("vc-index", ds.name()), |b| {
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                black_box(vc.try_distance(s, t).unwrap())
            })
        });
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("pll", ds.name()), |b| {
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                black_box(pll.try_distance(s, t).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, query_benches);
criterion_main!(benches);
