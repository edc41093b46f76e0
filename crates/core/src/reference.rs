//! Slow reference implementations used to validate the fast paths.
//!
//! These functions implement the paper's *definitions* as literally as
//! possible — the Definition 3 marking procedure, the exact `LABEL(·)` of
//! Definition 2, and textbook Dijkstra, undirected and directed — so the
//! optimized hierarchy/label/query code can be checked against them in
//! tests and property tests. They are exported (not `cfg(test)`) because
//! the integration and property suites in `tests/` rely on them; do not
//! use them in production paths, and keep test oracles here rather than
//! beside the code they check.

use crate::hierarchy::VertexHierarchy;
use islabel_graph::{CsrDigraph, CsrGraph, Dist, FxHashMap, FxHashSet, VertexId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The Definition 3 marking procedure, verbatim:
///
/// > For each `v`, first include `(v, 0)` and mark `v`. Take a marked vertex
/// > `u` with the smallest level, unmark it; for each `w ∈ adj_{G_j}(u)`
/// > (`j = ℓ(u)`) with `ℓ(w) > j`, add or min-update
/// > `(w, d(v, u) + ω_{G_j}(u, w))` and mark `w`.
///
/// Returns entries sorted by ancestor id.
pub fn definition3_label(h: &VertexHierarchy, v: VertexId) -> Vec<(VertexId, Dist)> {
    let mut d: FxHashMap<VertexId, Dist> = FxHashMap::default();
    d.insert(v, 0);
    // Marked vertices processed in ascending level order. Vertices at equal
    // level cannot relax one another (relax targets are strictly higher), so
    // tie order is irrelevant; each vertex needs processing exactly once
    // because improvements only ever come from strictly lower levels.
    let mut queue: BinaryHeap<Reverse<(u32, VertexId)>> = BinaryHeap::new();
    queue.push(Reverse((h.level_of(v), v)));
    let mut queued: FxHashSet<VertexId> = FxHashSet::default();
    queued.insert(v);

    while let Some(Reverse((_, u))) = queue.pop() {
        let du = d[&u];
        // adj_{G_{ℓ(u)}}(u) is the archived peel adjacency; G_k vertices
        // have no strictly-higher-level neighbors.
        for e in h.peel_adj(u) {
            let w = e.to;
            debug_assert!(h.level_of(w) > h.level_of(u));
            let cand = du + e.weight as Dist;
            let entry = d.entry(w).or_insert(Dist::MAX);
            if cand < *entry {
                *entry = cand;
            }
            if queued.insert(w) {
                queue.push(Reverse((h.level_of(w), w)));
            }
        }
    }

    let mut out: Vec<(VertexId, Dist)> = d.into_iter().collect();
    out.sort_unstable_by_key(|&(a, _)| a);
    out
}

/// The exact label `LABEL(v)` of Definition 2: every ancestor of `v` paired
/// with its *true* distance `dist_G(v, ·)`. Quadratic-ish; test use only.
pub fn exact_label(g: &CsrGraph, h: &VertexHierarchy, v: VertexId) -> Vec<(VertexId, Dist)> {
    // Ancestor closure over peel adjacency (every peel edge ascends levels).
    let mut ancestors: FxHashSet<VertexId> = FxHashSet::default();
    let mut stack = vec![v];
    ancestors.insert(v);
    while let Some(u) = stack.pop() {
        for e in h.peel_adj(u) {
            if ancestors.insert(e.to) {
                stack.push(e.to);
            }
        }
    }
    let dist = dijkstra_all(g, v);
    let mut out: Vec<(VertexId, Dist)> = ancestors
        .into_iter()
        .map(|a| (a, dist[a as usize]))
        .collect();
    out.sort_unstable_by_key(|&(a, _)| a);
    out
}

/// Textbook single-source Dijkstra over a CSR graph; `INF` marks
/// unreachable vertices. The ground truth for every correctness test.
pub fn dijkstra_all(g: &CsrGraph, source: VertexId) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for (u, w) in g.edges(v) {
            let nd = d + w as Dist;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Point-to-point Dijkstra distance (early exit when `t` settles).
pub fn dijkstra_p2p(g: &CsrGraph, s: VertexId, t: VertexId) -> Option<Dist> {
    p2p(g.num_vertices(), s, t, |v| g.edges(v))
}

/// Directed point-to-point Dijkstra distance along out-arcs (early exit
/// when `t` settles).
pub fn di_dijkstra_p2p(g: &CsrDigraph, s: VertexId, t: VertexId) -> Option<Dist> {
    p2p(g.num_vertices(), s, t, |v| g.out_edges(v))
}

/// Textbook lazy-deletion Dijkstra from `s` to `t` over `n` vertices,
/// `arcs(v)` listing `v`'s out-arcs.
fn p2p<I: Iterator<Item = (VertexId, Weight)>>(
    n: usize,
    s: VertexId,
    t: VertexId,
    arcs: impl Fn(VertexId) -> I,
) -> Option<Dist> {
    if s == t {
        return Some(0);
    }
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if v == t {
            return Some(d);
        }
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in arcs(v) {
            let nd = d + w as Dist;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_graph::GraphBuilder;

    fn line(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..(n - 1) as VertexId {
            b.add_edge(v, v + 1, v + 1);
        }
        b.build()
    }

    #[test]
    fn dijkstra_on_weighted_line() {
        let g = line(5);
        let d = dijkstra_all(&g, 0);
        assert_eq!(d, vec![0, 1, 3, 6, 10]);
        assert_eq!(dijkstra_p2p(&g, 0, 4), Some(10));
        assert_eq!(dijkstra_p2p(&g, 4, 0), Some(10));
        assert_eq!(dijkstra_p2p(&g, 2, 2), Some(0));
    }

    #[test]
    fn dijkstra_reports_unreachable() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(dijkstra_all(&g, 0)[3], INF);
        assert_eq!(dijkstra_p2p(&g, 0, 3), None);
    }

    #[test]
    fn dijkstra_prefers_cheaper_multihop() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 10);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 3);
        let g = b.build();
        assert_eq!(dijkstra_p2p(&g, 0, 2), Some(5));
    }
}
