//! Microbenchmarks of the dense search-kernel primitives:
//!
//! * `intersect_min` (linear merge) vs `intersect_min_adaptive` (galloping)
//!   at controlled length skews — the Equation 1 cost at the two ends of
//!   the label-size distribution;
//! * the indexed 4-ary heap with decrease-key vs the textbook
//!   lazy-deletion `BinaryHeap` pattern, on an identical Dijkstra-shaped
//!   push/decrease/pop stream.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use islabel_core::dense::IndexedHeap;
use islabel_core::label::LabelView;
use islabel_core::query::{intersect_min, intersect_min_adaptive};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A sorted synthetic label of `len` entries with ancestor stride
/// `stride`; `salt` varies only the distances, so two labels built with
/// strides 2 and 3 share every ancestor divisible by 6 — the intersection
/// exercises both the hit and the miss branch, like real hub labels.
fn make_label(len: usize, stride: u32, salt: u64) -> (Vec<u32>, Vec<u64>) {
    let anc: Vec<u32> = (0..len as u32).map(|i| i * stride).collect();
    let d: Vec<u64> = (0..len as u64).map(|i| (i * 7 + salt) % 100 + 1).collect();
    (anc, d)
}

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_skew");
    // (short, long): balanced pairs stay on the linear merge; skewed pairs
    // cross the galloping threshold. Strides 2 vs 3 overlap on every
    // third short entry.
    for (sa, sb) in [(512usize, 512usize), (16, 512), (16, 4096), (4, 65536)] {
        let (a_anc, a_d) = make_label(sa, 2, 1);
        let (b_anc, b_d) = make_label(sb, 3, 2);
        let a = LabelView {
            ancestors: &a_anc,
            dists: &a_d,
            first_hops: &[],
        };
        let b = LabelView {
            ancestors: &b_anc,
            dists: &b_d,
            first_hops: &[],
        };
        group.throughput(Throughput::Elements((sa + sb) as u64));
        group.bench_function(BenchmarkId::new("linear", format!("{sa}x{sb}")), |bch| {
            bch.iter(|| black_box(intersect_min(a, b)))
        });
        group.bench_function(BenchmarkId::new("adaptive", format!("{sa}x{sb}")), |bch| {
            bch.iter(|| black_box(intersect_min_adaptive(a, b)))
        });
    }
    group.finish();
}

/// A deterministic Dijkstra-shaped operation stream over `n` vertices:
/// `(vertex, key)` pushes with many key improvements, interleaved with
/// pops — the exact access pattern of the search kernel's frontier.
fn op_stream(n: u32, ops: usize) -> Vec<(u32, u64)> {
    let mut state = 0x5EED_CAFE_F00D_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..ops)
        .map(|_| ((next() % n as u64) as u32, next() % 10_000))
        .collect()
}

fn bench_heaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_heap");
    for n in [1024u32, 16_384] {
        let stream = op_stream(n, n as usize * 4);
        group.throughput(Throughput::Elements(stream.len() as u64));

        group.bench_function(BenchmarkId::new("indexed_4ary", n), |bch| {
            let mut heap = IndexedHeap::new(n as usize);
            bch.iter(|| {
                heap.clear();
                for &(v, key) in &stream {
                    heap.push_or_decrease(v, key);
                }
                let mut sum = 0u64;
                while let Some((k, _)) = heap.pop() {
                    sum = sum.wrapping_add(k);
                }
                black_box(sum)
            })
        });

        group.bench_function(BenchmarkId::new("binary_lazy_deletion", n), |bch| {
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut best = vec![u64::MAX; n as usize];
            let mut settled = vec![false; n as usize];
            bch.iter(|| {
                heap.clear();
                best.fill(u64::MAX);
                settled.fill(false);
                for &(v, key) in &stream {
                    // The lazy-deletion relax: push on improvement, leave
                    // stale entries behind.
                    if key < best[v as usize] {
                        best[v as usize] = key;
                        heap.push(Reverse((key, v)));
                    }
                }
                let mut sum = 0u64;
                while let Some(Reverse((k, v))) = heap.pop() {
                    if settled[v as usize] || k > best[v as usize] {
                        continue; // clean_top
                    }
                    settled[v as usize] = true;
                    sum = sum.wrapping_add(k);
                }
                black_box(sum)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_intersect, bench_heaps);
criterion_main!(benches);
