//! VC-Index converted for point-to-point querying — the paper's main
//! comparator (Tables 8 and 9).
//!
//! Cheng et al. (SIGMOD 2012) index *single-source* distance queries with a
//! hierarchy of vertex covers: each level removes the complement of a
//! vertex cover — which is exactly an independent set — and patches the
//! remaining cover graph with distance-preserving edges. The index stores
//! the reduced graphs, **not labels**; queries are searches over them. The
//! IS-LABEL authors "modified the source code to make it work specifically
//! for point to point distance queries by making the program stop once the
//! distance from s to t is found".
//!
//! This clean-room reimplementation keeps those structural facts:
//!
//! * **Index** = the union of all per-level removed-vertex adjacencies plus
//!   the top core graph (every stored edge is a distance-preserving
//!   shortcut). No labels — which is why Table 9's index sizes are far
//!   smaller than IS-LABEL's label sizes.
//! * **Query** = Dijkstra from `s` over that union structure with early
//!   termination once `t` settles. Distances are exact: the union contains,
//!   for every vertex pair, a path of true shortest length (the V-shaped
//!   up-then-down route through the hierarchy), and every stored edge
//!   weight is the length of some real path.
//! * The query reports its touched data volume so the experiment harness
//!   can model the disk-resident behavior of the original system (the
//!   published VC-Index(P2P) numbers are dominated by scanning reduced
//!   graphs from disk).

use islabel_core::dense::{IndexedHeap, StampedSlab};
use islabel_core::hierarchy::VertexHierarchy;
use islabel_core::oracle::{check_vertex, DistanceOracle, QueryError, QuerySession};
use islabel_core::{BuildConfig, KSelection};
use islabel_graph::{CsrGraph, Dist, GraphBuilder, VertexId};
use std::time::{Duration, Instant};

/// VC-Index construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VcConfig {
    /// Level-termination threshold, analogous to the paper's σ (stop when a
    /// cover reduction shrinks the graph by less than `1 − sigma`).
    pub sigma: f64,
}

impl Default for VcConfig {
    fn default() -> Self {
        Self { sigma: 0.95 }
    }
}

/// Per-query cost counters (drive the modeled-I/O reporting in Table 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct VcQueryCost {
    /// Vertices settled by the search.
    pub settled: usize,
    /// Adjacency entries scanned.
    pub edges_scanned: usize,
    /// Bytes of index data touched (adjacency entries × entry size).
    pub bytes_touched: usize,
}

/// The vertex-cover index, P2P-converted.
pub struct VcIndex {
    /// Union of all reduced-graph adjacencies (see module docs).
    search_graph: CsrGraph,
    levels: u32,
    core_vertices: usize,
    core_edges: usize,
    build_time: Duration,
}

impl std::fmt::Debug for VcIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcIndex").finish_non_exhaustive()
    }
}

impl VcIndex {
    /// Builds the index over `g`.
    pub fn build(g: &CsrGraph, config: VcConfig) -> Self {
        let t0 = Instant::now();
        // The cover hierarchy is the same reduction IS-LABEL uses (removing
        // an independent set == keeping a vertex cover), so we reuse the
        // hierarchy builder and then materialize the union search structure
        // instead of labels.
        let build_cfg = BuildConfig {
            k_selection: KSelection::SigmaThreshold(config.sigma),
            keep_path_info: false,
            ..BuildConfig::default()
        };
        let h = VertexHierarchy::build(g, &build_cfg);

        let mut b = GraphBuilder::new(g.num_vertices());
        for v in g.vertices() {
            for e in h.peel_adj(v) {
                b.add_edge(v, e.to, e.weight);
            }
        }
        for (u, v, w) in h.gk().edge_list() {
            b.add_edge(u, v, w);
        }
        let search_graph = b.build();
        Self {
            search_graph,
            levels: h.k(),
            core_vertices: h.num_gk_vertices(),
            core_edges: h.num_gk_edges(),
            build_time: t0.elapsed(),
        }
    }

    /// Number of reduction levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.search_graph.num_vertices()
    }

    /// Vertices of the top core graph.
    pub fn core_vertices(&self) -> usize {
        self.core_vertices
    }

    /// Edges of the top core graph.
    pub fn core_edges(&self) -> usize {
        self.core_edges
    }

    /// Construction wall-clock time (Table 9).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Index size in bytes (Table 9): the stored reduced-graph adjacencies.
    pub fn index_bytes(&self) -> usize {
        self.search_graph.memory_bytes()
    }

    /// Point-to-point distance with early termination (the P2P
    /// conversion); `Ok(None)` means unreachable.
    pub fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        check_vertex(s, self.num_vertices())?;
        check_vertex(t, self.num_vertices())?;
        Ok(self.distance_with_cost(s, t).0)
    }

    /// Distance plus touched-volume counters.
    ///
    /// One-shot convenience: allocates a fresh [`VcSession`] per call. Any
    /// caller issuing repeated cost queries should hold a session and use
    /// [`VcSession::distance_with_cost`], which reuses the slab and heap.
    pub fn distance_with_cost(&self, s: VertexId, t: VertexId) -> (Option<Dist>, VcQueryCost) {
        let mut cost = VcQueryCost::default();
        let d = self.session().dijkstra(s, t, &mut cost);
        (d, cost)
    }

    /// Opens a per-thread [`VcSession`] whose Dijkstra buffers (stamped
    /// distance slab, indexed heap) persist across queries; the typed twin
    /// of [`DistanceOracle::session`].
    pub fn session(&self) -> VcSession<'_> {
        let n = self.search_graph.num_vertices();
        VcSession {
            index: self,
            dist: StampedSlab::new(n),
            heap: IndexedHeap::new(n),
        }
    }
}

impl DistanceOracle for VcIndex {
    fn engine_name(&self) -> &'static str {
        "vc"
    }

    fn num_vertices(&self) -> usize {
        VcIndex::num_vertices(self)
    }

    fn index_bytes(&self) -> usize {
        VcIndex::index_bytes(self)
    }

    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        VcIndex::try_distance(self, s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(VcIndex::session(self))
    }
}

/// Reusable query state for one [`VcIndex`]: the stamped distance slab and
/// indexed heap of the early-terminating Dijkstra (see
/// [`QuerySession`]). Obtained from [`VcIndex::session`].
pub struct VcSession<'a> {
    index: &'a VcIndex,
    dist: StampedSlab<Dist>,
    heap: IndexedHeap,
}

impl std::fmt::Debug for VcSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcSession").finish_non_exhaustive()
    }
}

impl VcSession<'_> {
    /// Exact distance through the reused search buffers; same contract as
    /// [`VcIndex::try_distance`].
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        Ok(self.distance_with_cost(s, t)?.0)
    }

    /// Distance plus touched-volume counters through the reused buffers —
    /// the session-hot-path twin of [`VcIndex::distance_with_cost`].
    pub fn distance_with_cost(
        &mut self,
        s: VertexId,
        t: VertexId,
    ) -> Result<(Option<Dist>, VcQueryCost), QueryError> {
        let g = &self.index.search_graph;
        check_vertex(s, g.num_vertices())?;
        check_vertex(t, g.num_vertices())?;
        let mut cost = VcQueryCost::default();
        let d = self.dijkstra(s, t, &mut cost);
        Ok((d, cost))
    }

    /// The early-terminating Dijkstra core over the union search structure.
    /// O(1) epoch-bump reset replaces the old touched-list walk; the
    /// indexed heap's decrease-key means every pop is a settle, so the
    /// `settled` counter is exact without a staleness re-check.
    fn dijkstra(&mut self, s: VertexId, t: VertexId, cost: &mut VcQueryCost) -> Option<Dist> {
        let g = &self.index.search_graph;
        if s == t {
            return Some(0);
        }
        self.dist.reset();
        self.heap.clear();
        self.dist.set(s, 0);
        self.heap.push_or_decrease(s, 0);
        let mut answer = None;
        while let Some((d, v)) = self.heap.pop() {
            cost.settled += 1;
            if v == t {
                answer = Some(d);
                break;
            }
            cost.edges_scanned += g.degree(v);
            for (u, w) in g.edges(v) {
                let nd = d + w as Dist;
                if self.dist.get(u).is_none_or(|cur| nd < cur) {
                    self.dist.set(u, nd);
                    self.heap.push_or_decrease(u, nd);
                }
            }
        }
        cost.bytes_touched = cost.edges_scanned * 8;
        answer
    }
}

impl QuerySession for VcSession<'_> {
    fn engine_name(&self) -> &'static str {
        "vc"
    }

    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        VcSession::distance(self, s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_core::reference::dijkstra_p2p;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, WeightModel};

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(100, 250, WeightModel::UniformRange(1, 8), seed);
            let vc = VcIndex::build(&g, VcConfig::default());
            for i in 0..50u32 {
                let (s, t) = ((i * 3) % 100, (i * 7 + 2) % 100);
                assert_eq!(
                    vc.try_distance(s, t),
                    Ok(dijkstra_p2p(&g, s, t)),
                    "seed {seed} ({s}, {t})"
                );
            }
        }
    }

    #[test]
    fn exact_on_heavy_tailed_graph() {
        let g = barabasi_albert(400, 3, WeightModel::UniformRange(1, 4), 3);
        let vc = VcIndex::build(&g, VcConfig::default());
        for i in 0..60u32 {
            let (s, t) = ((i * 13) % 400, (i * 29 + 7) % 400);
            assert_eq!(
                vc.try_distance(s, t),
                Ok(dijkstra_p2p(&g, s, t)),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn index_stores_graphs_not_labels() {
        // VC-Index stores reduced graphs: the search structure must contain
        // at least the information of the input graph (shortcuts included)
        // and must report a meaningful footprint for Table 9.
        let g = barabasi_albert(800, 5, WeightModel::Unit, 5);
        let vc = VcIndex::build(&g, VcConfig::default());
        assert!(vc.index_bytes() > 0);
        assert!(vc.levels() >= 2);
        // The union structure carries the original edges plus shortcuts.
        assert!(vc.search_graph.num_edges() >= g.num_edges());
        // Whole-graph coverage: every vertex keeps some adjacency unless it
        // was isolated in the input.
        for v in g.vertices() {
            if g.degree(v) > 0 {
                assert!(
                    vc.search_graph.degree(v) > 0,
                    "vertex {v} lost its adjacency"
                );
            }
        }
    }

    #[test]
    fn query_cost_counters_populate() {
        let g = erdos_renyi_gnm(200, 600, WeightModel::Unit, 1);
        let vc = VcIndex::build(&g, VcConfig::default());
        let (d, cost) = vc.distance_with_cost(0, 150);
        assert!(d.is_some());
        assert!(cost.settled > 0);
        assert!(cost.edges_scanned > 0);
        assert_eq!(cost.bytes_touched, cost.edges_scanned * 8);
        // Early termination: a self query touches nothing.
        let (_, zero) = vc.distance_with_cost(5, 5);
        assert_eq!(zero.settled, 0);
    }

    #[test]
    fn disconnected_pairs() {
        let mut b = islabel_graph::GraphBuilder::new(5);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let vc = VcIndex::build(&b.build(), VcConfig::default());
        assert_eq!(vc.try_distance(0, 3), Ok(None));
        assert_eq!(vc.try_distance(0, 1), Ok(Some(1)));
        assert_eq!(vc.try_distance(4, 4), Ok(Some(0)));
    }

    #[test]
    fn search_volume_exceeds_islabel_settles() {
        // The Table 8 story: VC-Index(P2P) explores a volume proportional to
        // the distance ball, IS-LABEL settles only inside G_k.
        let g = barabasi_albert(1500, 3, WeightModel::Unit, 8);
        let vc = VcIndex::build(&g, VcConfig::default());
        let is = islabel_core::IsLabelIndex::try_build(&g, islabel_core::BuildConfig::default())
            .unwrap();
        let mut vc_settled = 0usize;
        let mut is_settled = 0usize;
        for i in 0..20u32 {
            let (s, t) = ((i * 97) % 1500, (i * 211 + 13) % 1500);
            vc_settled += vc.distance_with_cost(s, t).1.settled;
            is_settled += is.query(s, t).unwrap().settled;
        }
        assert!(
            vc_settled > is_settled,
            "vc settled {vc_settled} vs islabel {is_settled}"
        );
    }
}
