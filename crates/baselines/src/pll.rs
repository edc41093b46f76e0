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
//! a label of `(landmark, distance)` pairs; a query is a merge-join of
//! two labels — structurally the same Equation 1 evaluation IS-LABEL uses,
//! with total correctness instead of max-level-vertex correctness.
//!
//! The loop is the one a label-only IS-LABEL index runs over its core
//! ([`islabel_core::label::pruned_labels`]), here with the whole graph as
//! the core, and the query is IS-LABEL's Equation 1 kernel.

use islabel_core::kernel::intersect_min_auto;
use islabel_core::label::{pruned_labels, LabelSet};
use islabel_core::oracle::{DistanceOracle, QueryError, QuerySession};
use islabel_graph::{CsrGraph, Dist, VertexId, INF};
use std::time::{Duration, Instant};

/// A pruned-landmark 2-hop index.
pub struct PllIndex {
    /// Per vertex: `(landmark, dist)` ascending by landmark id.
    labels: LabelSet,
    build_time: Duration,
}

impl std::fmt::Debug for PllIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PllIndex").finish_non_exhaustive()
    }
}

impl PllIndex {
    /// Builds the index (descending-degree landmark order, ties by id —
    /// the standard effective ordering for scale-free graphs).
    pub fn build(g: &CsrGraph) -> Self {
        let t0 = Instant::now();
        let all: Vec<VertexId> = g.vertices().collect();
        let labels = pruned_labels(g, &all);
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
        self.labels.num_vertices()
    }

    /// Total label entries.
    pub fn num_entries(&self) -> usize {
        self.labels.num_entries()
    }

    /// Mean entries per vertex.
    pub fn avg_label_len(&self) -> f64 {
        self.labels.avg_label_len()
    }

    /// Index size in bytes.
    pub fn index_bytes(&self) -> usize {
        self.labels.memory_bytes()
    }

    /// Exact point-to-point distance by label merge-join; `Ok(None)` means
    /// unreachable.
    pub fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        islabel_core::oracle::check_vertex(s, self.num_vertices())?;
        islabel_core::oracle::check_vertex(t, self.num_vertices())?;
        if s == t {
            return Ok(Some(0));
        }
        let (best, _) = intersect_min_auto(self.labels.label(s), self.labels.label(t));
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
