//! Ablation bench: how the independent-set selection strategy (the paper's
//! greedy min-degree choice, Section 6.1.1) affects build time.
//! Companion to the `ablation_strategy` binary, which reports label-size
//! and query-time effects.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use islabel_core::{BuildConfig, IsLabelIndex, IsStrategy};
use islabel_graph::{Dataset, Scale};

fn strategy_benches(c: &mut Criterion) {
    let g = Dataset::BtcLike.generate(Scale::Tiny);
    let mut group = c.benchmark_group("is_strategy");
    group.sample_size(10);
    for (name, strategy) in [
        ("min-degree", IsStrategy::MinDegreeGreedy),
        ("random", IsStrategy::Random(7)),
        ("max-degree", IsStrategy::MaxDegreeGreedy),
    ] {
        let config = BuildConfig {
            is_strategy: strategy,
            ..BuildConfig::default()
        };
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(IsLabelIndex::build(&g, config)))
        });
    }
    group.finish();
}

criterion_group!(benches, strategy_benches);
criterion_main!(benches);
