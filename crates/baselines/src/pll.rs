//! Pruned Landmark Labeling — the canonical practical 2-hop labeling
//! (Akiba, Iwata, Yoshida; SIGMOD 2013), in its weighted "pruned Dijkstra"
//! form.
//!
//! Section 3 of the IS-LABEL paper argues that the 2-hop family (Cohen et
//! al.) cannot be built for large graphs — its optimization problem is
//! NP-hard and heuristic constructions were still too costly in 2012. PLL
//! is the strongest member of that family in practice, so we use it as the
//! concrete 2-hop representative for the construction-cost ablation
//! (ablation C) and as yet another exact-query cross-check.
//!
//! Construction: process vertices in descending-degree order; from each
//! landmark run a Dijkstra that *prunes* any vertex whose distance is
//! already covered by previously assigned labels. Every vertex ends up with
//! a label of `(landmark rank, distance)` pairs; a query is a merge-join of
//! two labels — structurally the same Equation 1 evaluation IS-LABEL uses,
//! with total correctness instead of max-level-vertex correctness.

use islabel_core::oracle::{DistanceOracle, QueryError, QuerySession};
use islabel_graph::{CsrGraph, Dist, VertexId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// A pruned-landmark 2-hop index.
pub struct PllIndex {
    /// Per vertex: `(landmark rank, dist)` ascending by rank.
    labels: Vec<Vec<(u32, Dist)>>,
    build_time: Duration,
}

impl std::fmt::Debug for PllIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PllIndex").finish_non_exhaustive()
    }
}

impl PllIndex {
    /// Builds the index (descending-degree landmark order).
    pub fn build(g: &CsrGraph) -> Self {
        let t0 = Instant::now();
        let n = g.num_vertices();
        // Landmark order: by descending degree, ties by id — the standard
        // effective ordering for scale-free graphs.
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (Reverse(g.degree(v)), v));

        let mut labels: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        let mut dist = vec![INF; n];
        let mut touched: Vec<VertexId> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();

        // Scratch array of the current landmark's label for O(1) lookups
        // during the pruning query.
        let mut lm_dist = vec![INF; n.max(1)];

        for (rank, &landmark) in order.iter().enumerate() {
            let rank = rank as u32;
            // Load landmark's own label into the scratch table.
            for &(r, d) in &labels[landmark as usize] {
                lm_dist[r as usize] = d;
            }

            dist[landmark as usize] = 0;
            touched.push(landmark);
            heap.push(Reverse((0, landmark)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                // Prune: can existing labels already certify dist(landmark,
                // v) <= d? (Merge via the scratch table.)
                let mut covered = false;
                for &(r, dv) in &labels[v as usize] {
                    let dl = lm_dist[r as usize];
                    if dl != INF && dl + dv <= d {
                        covered = true;
                        break;
                    }
                }
                if covered {
                    continue;
                }
                labels[v as usize].push((rank, d));
                for (u, w) in g.edges(v) {
                    let nd = d + w as Dist;
                    if nd < dist[u as usize] {
                        if dist[u as usize] == INF {
                            touched.push(u);
                        }
                        dist[u as usize] = nd;
                        heap.push(Reverse((nd, u)));
                    }
                }
            }

            for &(r, _) in &labels[landmark as usize] {
                lm_dist[r as usize] = INF;
            }
            for &v in &touched {
                dist[v as usize] = INF;
            }
            touched.clear();
            heap.clear();
        }
        // Labels are produced in ascending rank order already (each landmark
        // appends its own rank once); assert in debug builds.
        debug_assert!(labels.iter().all(|l| l.windows(2).all(|w| w[0].0 < w[1].0)));
        Self {
            labels,
            build_time: t0.elapsed(),
        }
    }

    /// Construction wall-clock time.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Total label entries.
    pub fn num_entries(&self) -> usize {
        self.labels.iter().map(|l| l.len()).sum()
    }

    /// Mean entries per vertex.
    pub fn avg_label_len(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.num_entries() as f64 / self.labels.len() as f64
        }
    }

    /// Index size in bytes.
    pub fn index_bytes(&self) -> usize {
        self.num_entries() * 12 + self.labels.len() * std::mem::size_of::<Vec<(u32, Dist)>>()
    }

    /// Exact point-to-point distance by label merge-join; `Ok(None)` means
    /// unreachable.
    pub fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        islabel_core::oracle::check_vertex(s, self.labels.len())?;
        islabel_core::oracle::check_vertex(t, self.labels.len())?;
        if s == t {
            return Ok(Some(0));
        }
        let (a, b) = (&self.labels[s as usize], &self.labels[t as usize]);
        let mut best = INF;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    best = best.min(a[i].1 + b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok((best < INF).then_some(best))
    }
}

impl DistanceOracle for PllIndex {
    fn engine_name(&self) -> &'static str {
        "pll"
    }

    fn num_vertices(&self) -> usize {
        PllIndex::num_vertices(self)
    }

    fn index_bytes(&self) -> usize {
        PllIndex::index_bytes(self)
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        PllIndex::try_distance(self, s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(PllSession { index: self })
    }
}

/// [`QuerySession`] over a [`PllIndex`]. The 2-hop merge-join query reads
/// only the two label slices and needs no per-query scratch, so the
/// session is a plain borrow — it exists to give PLL the same per-thread
/// serving surface as the search-based engines.
pub struct PllSession<'a> {
    index: &'a PllIndex,
}

impl std::fmt::Debug for PllSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PllSession").finish_non_exhaustive()
    }
}

impl QuerySession for PllSession<'_> {
    fn engine_name(&self) -> &'static str {
        "pll"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.index.try_distance(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_core::reference::{dijkstra_all, dijkstra_p2p};
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, WeightModel};

    #[test]
    fn exact_exhaustively_on_small_graphs() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(50, 110, WeightModel::UniformRange(1, 6), seed);
            let pll = PllIndex::build(&g);
            for s in g.vertices() {
                let truth = dijkstra_all(&g, s);
                for t in g.vertices() {
                    let expect = (truth[t as usize] < INF).then_some(truth[t as usize]);
                    assert_eq!(pll.try_distance(s, t), Ok(expect), "seed {seed} ({s}, {t})");
                }
            }
        }
    }

    #[test]
    fn exact_on_heavy_tailed_graph() {
        let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 3), 9);
        let pll = PllIndex::build(&g);
        for i in 0..80u32 {
            let (s, t) = ((i * 7) % 300, (i * 17 + 3) % 300);
            assert_eq!(
                pll.try_distance(s, t),
                Ok(dijkstra_p2p(&g, s, t)),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn pruning_keeps_labels_small_on_hub_graphs() {
        // On scale-free graphs PLL labels should stay tiny relative to n.
        let g = barabasi_albert(1000, 3, WeightModel::Unit, 4);
        let pll = PllIndex::build(&g);
        assert!(pll.avg_label_len() < 64.0, "avg {}", pll.avg_label_len());
        assert!(pll.num_entries() > 1000); // at least one entry per vertex
        assert!(pll.index_bytes() > 0);
    }

    #[test]
    fn disconnected_pairs() {
        let mut b = islabel_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        let pll = PllIndex::build(&b.build());
        assert_eq!(pll.try_distance(0, 1), Ok(Some(3)));
        assert_eq!(pll.try_distance(0, 2), Ok(None));
        assert_eq!(pll.try_distance(2, 3), Ok(None));
        assert_eq!(pll.try_distance(3, 3), Ok(Some(0)));
    }
}
