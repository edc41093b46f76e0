//! Benchmarks of the query pipeline's two stages in isolation: Equation 1
//! alone (full hierarchy) versus label-seeded bidirectional search on `G_k`
//! (k-level hierarchy) — the Table 6 trade-off at microbench resolution.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use islabel_bench::QueryWorkload;
use islabel_core::{BuildConfig, IsLabelIndex};
use islabel_graph::{Dataset, Scale};

fn stage_benches(c: &mut Criterion) {
    let g = Dataset::BtcLike.generate(Scale::Tiny);
    let n = g.num_vertices();
    let workload = QueryWorkload::random(n, 256, 0xD1);
    let pairs = workload.pairs.clone();

    let mut group = c.benchmark_group("stages");
    // Pure Equation 1 (G_k empty).
    let full = IsLabelIndex::build(&g, BuildConfig::full());
    let mut i = 0usize;
    let mut session = full.session();
    group.bench_function(BenchmarkId::new("eq1-only", "full-hierarchy"), |b| {
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            black_box(session.distance(s, t))
        })
    });

    // Label-seeded bi-Dijkstra at several k values: larger k => smaller G_k
    // => more Eq-1 work, less search.
    for k in [2u32, 4, 8] {
        let index = IsLabelIndex::build(&g, BuildConfig::fixed_k(k));
        let mut i = 0usize;
        let mut session = index.session();
        group.bench_function(BenchmarkId::new("seeded-search", format!("k{k}")), |b| {
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                black_box(session.distance(s, t))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, stage_benches);
criterion_main!(benches);
