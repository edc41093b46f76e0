//! In-memory bidirectional Dijkstra — the paper's **IM-DIJ** baseline.
//!
//! Table 8 compares IS-LABEL against bidirectional Dijkstra run entirely in
//! memory over the original graph. IM-DIJ runs Algorithm 1's kernel
//! ([`dense_bi_dijkstra`]) over the graph itself, with one seed per side
//! and µ0 = ∞: it alternates extractions between the cheaper frontier,
//! stops when `min(FQ) + min(RQ) ≥ µ`, and skips a relaxation whose key
//! plus the opposite queue's minimum already reaches `µ` — the same search
//! IS-LABEL runs over `G_k`, so the comparison stays fair
//! (`docs/adr/0011-one-implementation-per-job.md`).

use islabel_core::dense::{dense_bi_dijkstra, DenseScratch};
use islabel_core::oracle::{check_vertex, DistanceOracle, QueryError, QuerySession};
use islabel_graph::{CsrGraph, Dist, VertexId, INF};
use std::sync::Mutex;

/// Reusable bidirectional Dijkstra.
pub struct BiDijkstra {
    scratch: DenseScratch,
}

impl std::fmt::Debug for BiDijkstra {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BiDijkstra").finish_non_exhaustive()
    }
}

impl BiDijkstra {
    /// Allocates the search workspace for graphs of `n` vertices; it is
    /// fully pre-sized, so later queries never allocate.
    pub fn new(n: usize) -> Self {
        Self {
            scratch: DenseScratch::new(n),
        }
    }

    /// Point-to-point distance, plus the number of settled vertices (the
    /// search-volume diagnostic reported by the benches).
    pub fn distance_with_cost(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
    ) -> (Option<Dist>, usize) {
        if s == t {
            return (Some(0), 0);
        }
        let out = dense_bi_dijkstra(g, g, &[(s, 0)], &[(t, 0)], INF, None, &mut self.scratch);
        ((out.dist < INF).then_some(out.dist), out.settled)
    }

    /// Point-to-point distance.
    pub fn distance(&mut self, g: &CsrGraph, s: VertexId, t: VertexId) -> Option<Dist> {
        self.distance_with_cost(g, s, t).0
    }
}

/// [`BiDijkstra`] behind the shared oracle contract (the paper's IM-DIJ
/// baseline as a drop-in engine).
///
/// The raw searcher needs `&mut` scratch state per query, which does not
/// fit the `&self + Sync` [`DistanceOracle`] contract; this wrapper owns
/// the graph and pools scratch states behind a mutex — each query checks
/// one out (allocating lazily on first use per level of concurrency) and
/// returns it afterwards, so concurrent batch workers never contend on a
/// single searcher.
pub struct BiDijkstraOracle {
    graph: CsrGraph,
    pool: Mutex<Vec<BiDijkstra>>,
}

impl std::fmt::Debug for BiDijkstraOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BiDijkstraOracle").finish_non_exhaustive()
    }
}

impl BiDijkstraOracle {
    /// Wraps a graph; scratch states are created on demand.
    pub fn new(graph: CsrGraph) -> Self {
        Self {
            graph,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The graph queries run over.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Fallible point-to-point distance; `Ok(None)` means unreachable.
    pub fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        check_vertex(s, self.graph.num_vertices())?;
        check_vertex(t, self.graph.num_vertices())?;
        let mut searcher = self.checkout();
        let d = searcher.distance(&self.graph, s, t);
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .push(searcher);
        Ok(d)
    }

    /// Opens a per-thread session that checks a searcher out of the pool
    /// for its whole lifetime (returned on drop), so a serving thread skips
    /// the per-query pool round-trip of
    /// [`try_distance`](BiDijkstraOracle::try_distance) entirely.
    pub fn session(&self) -> BiDijkstraSession<'_> {
        BiDijkstraSession {
            oracle: self,
            searcher: Some(self.checkout()),
        }
    }

    fn checkout(&self) -> BiDijkstra {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| BiDijkstra::new(self.graph.num_vertices()))
    }
}

/// A pool checkout of one [`BiDijkstra`] searcher (see
/// [`QuerySession`]). Obtained from [`BiDijkstraOracle::session`]; the
/// searcher returns to the pool when the session drops.
pub struct BiDijkstraSession<'a> {
    oracle: &'a BiDijkstraOracle,
    searcher: Option<BiDijkstra>,
}

impl std::fmt::Debug for BiDijkstraSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BiDijkstraSession").finish_non_exhaustive()
    }
}

impl BiDijkstraSession<'_> {
    /// Exact distance through this session's dedicated searcher; same
    /// contract as [`BiDijkstraOracle::try_distance`].
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        check_vertex(s, self.oracle.graph.num_vertices())?;
        check_vertex(t, self.oracle.graph.num_vertices())?;
        let searcher = self.searcher.as_mut().expect("searcher held until drop");
        Ok(searcher.distance(&self.oracle.graph, s, t))
    }
}

impl QuerySession for BiDijkstraSession<'_> {
    fn engine_name(&self) -> &'static str {
        "bidij"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        BiDijkstraSession::distance(self, s, t)
    }
}

impl Drop for BiDijkstraSession<'_> {
    fn drop(&mut self) {
        if let Some(searcher) = self.searcher.take() {
            self.oracle
                .pool
                .lock()
                .expect("scratch pool poisoned")
                .push(searcher);
        }
    }
}

impl DistanceOracle for BiDijkstraOracle {
    fn engine_name(&self) -> &'static str {
        "bidij"
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// No auxiliary index: queries read the graph itself.
    fn index_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        BiDijkstraOracle::try_distance(self, s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(BiDijkstraOracle::session(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, WeightModel};
    use islabel_graph::GraphBuilder;

    #[test]
    fn matches_unidirectional_dijkstra() {
        let g = erdos_renyi_gnm(150, 400, WeightModel::UniformRange(1, 9), 7);
        let mut bi = BiDijkstra::new(150);
        for i in 0..60u32 {
            let (s, t) = ((i * 3) % 150, (i * 11 + 1) % 150);
            assert_eq!(
                bi.distance(&g, s, t),
                islabel_core::reference::dijkstra_p2p(&g, s, t),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn disconnected_and_self() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        let g = b.build();
        let mut bi = BiDijkstra::new(4);
        assert_eq!(bi.distance(&g, 0, 3), None);
        assert_eq!(bi.distance(&g, 3, 3), Some(0));
        assert_eq!(bi.distance(&g, 1, 0), Some(2));
    }

    #[test]
    fn settles_fewer_than_full_dijkstra_on_average() {
        // The point of bidirectional search: two small balls instead of one
        // big one. Compare settled counts on a heavy-tailed graph.
        let g = barabasi_albert(2000, 3, WeightModel::Unit, 9);
        let mut bi = BiDijkstra::new(2000);
        let mut total_settled = 0usize;
        for i in 0..20u32 {
            let (s, t) = ((i * 97) % 2000, (i * 131 + 50) % 2000);
            let (_, settled) = bi.distance_with_cost(&g, s, t);
            total_settled += settled;
        }
        // Unidirectional would settle ~n per far query; 20 queries over a
        // 2000-vertex small-world graph should stay well under 20 * 2000.
        assert!(total_settled < 20 * 2000, "settled {total_settled}");
    }

    #[test]
    fn oracle_wrapper_pools_state_and_parallelizes() {
        use islabel_core::oracle::BatchOptions;
        let g = erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 6), 4);
        let oracle = BiDijkstraOracle::new(g.clone());
        assert_eq!(oracle.engine_name(), "bidij");
        assert_eq!(DistanceOracle::num_vertices(&oracle), 120);
        assert!(oracle.index_bytes() > 0);

        let pairs: Vec<(VertexId, VertexId)> =
            (0..80u32).map(|i| (i % 120, (i * 13 + 7) % 120)).collect();
        let expect: Vec<Option<Dist>> = pairs
            .iter()
            .map(|&(s, t)| islabel_core::reference::dijkstra_p2p(&g, s, t))
            .collect();
        // Parallel batch over the pooled scratch states must match.
        let got = oracle
            .distance_batch(&pairs, BatchOptions::with_threads(4))
            .unwrap();
        assert_eq!(got, expect);
        // The pool retains at most one state per concurrent worker.
        assert!(oracle.pool.lock().unwrap().len() <= 4);
        // Out-of-range is typed, not a panic.
        assert!(matches!(
            oracle.try_distance(0, 500),
            Err(QueryError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn reuse_across_queries_is_clean() {
        let g = erdos_renyi_gnm(60, 150, WeightModel::Unit, 2);
        let mut bi = BiDijkstra::new(60);
        let expect: Vec<Option<Dist>> = (0..30u32)
            .map(|i| islabel_core::reference::dijkstra_p2p(&g, i, 59 - i))
            .collect();
        for round in 0..3 {
            for (i, e) in expect.iter().enumerate() {
                let i = i as u32;
                assert_eq!(bi.distance(&g, i, 59 - i), *e, "round {round} query {i}");
            }
        }
    }

    #[test]
    fn relaxation_bound_keeps_answers_and_settle_counts() {
        // Pinned at the commit before the relaxation bound was added: the
        // bound may only skip keys that could never be popped, so neither
        // the answers nor the settle counts move.
        let g = barabasi_albert(2000, 3, WeightModel::UniformRange(1, 9), 9);
        let mut bi = BiDijkstra::new(2000);
        let mut total_settled = 0usize;
        for i in 0..200u32 {
            let (s, t) = ((i * 97) % 2000, (i * 131 + 50) % 2000);
            let (d, settled) = bi.distance_with_cost(&g, s, t);
            assert_eq!(
                d,
                islabel_core::reference::dijkstra_p2p(&g, s, t),
                "({s}, {t})"
            );
            total_settled += settled;
        }
        assert_eq!(total_settled, 13_087);
    }
}
