//! Mutable hash-adjacency graph used during hierarchy construction.
//!
//! Peeling an independent set `L_i` off `G_i` (paper Algorithm 2/3) removes
//! vertices and inserts augmenting edges, a workload CSR cannot serve. This
//! structure trades memory for O(1) expected edge insert/relax/delete.
//!
//! Each edge carries an optional *via* vertex: when the paper creates an
//! augmenting edge `(u, w)` replacing the 2-hop path `⟨u, v, w⟩`, recording
//! `v` is exactly the bookkeeping Section 8.1 prescribes for shortest-*path*
//! (not just distance) queries.

use crate::csr::CsrGraph;
use crate::hash::FxHashMap;
use crate::ids::{VertexId, Weight};

/// Sentinel meaning "original edge, no intermediate vertex".
pub const NO_VIA: VertexId = VertexId::MAX;

/// Payload of one adjacency entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Current (possibly relaxed) weight of the edge.
    pub weight: Weight,
    /// Intermediate vertex if this edge is an augmenting edge, else [`NO_VIA`].
    pub via: VertexId,
}

impl EdgeInfo {
    /// An original (non-augmenting) edge of weight `w`.
    pub fn original(w: Weight) -> Self {
        Self {
            weight: w,
            via: NO_VIA,
        }
    }

    /// The via vertex as an `Option`.
    pub fn via_opt(&self) -> Option<VertexId> {
        (self.via != NO_VIA).then_some(self.via)
    }
}

/// A mutable, weighted, undirected simple graph over a fixed id universe
/// `0..n`, supporting vertex removal and min-relaxing edge insertion.
#[derive(Debug, Clone)]
pub struct AdjacencyGraph {
    adj: Vec<FxHashMap<VertexId, EdgeInfo>>,
    present: Vec<bool>,
    num_edges: usize,
}

impl AdjacencyGraph {
    /// An edgeless graph with all of `0..n` present.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![FxHashMap::default(); n],
            present: vec![true; n],
            num_edges: 0,
        }
    }

    /// Copies a CSR graph; every edge starts as an original edge.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut adj: Vec<FxHashMap<VertexId, EdgeInfo>> = Vec::with_capacity(n);
        for v in g.vertices() {
            let mut m = FxHashMap::default();
            m.reserve(g.degree(v));
            for (u, w) in g.edges(v) {
                m.insert(u, EdgeInfo::original(w));
            }
            adj.push(m);
        }
        Self {
            adj,
            present: vec![true; n],
            num_edges: g.num_edges(),
        }
    }

    /// Size of the id universe (including removed vertices).
    #[inline]
    pub fn universe(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges among present vertices.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether `v` is still in the graph.
    #[inline]
    pub fn is_present(&self, v: VertexId) -> bool {
        self.present[v as usize]
    }

    /// Current degree of `v` (0 after removal).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterates present vertices in ascending id order.
    pub fn present_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.universe() as VertexId).filter(move |&v| self.is_present(v))
    }

    /// Unordered iteration over `v`'s adjacency.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeInfo)> + '_ {
        self.adj[v as usize].iter().map(|(&u, &e)| (u, e))
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge(&self, u: VertexId, v: VertexId) -> Option<EdgeInfo> {
        self.adj[u as usize].get(&v).copied()
    }

    /// Inserts `(u, v)` or relaxes it to the smaller weight, mirroring the
    /// paper's augmenting-edge merge rule
    /// `ω(u,w) = min(ω(u,w), ω(u,v) + ω(v,w))`. Returns `true` if the edge
    /// was inserted or its weight strictly decreased.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an endpoint has been removed or `u == v`.
    pub fn upsert_edge_min(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
        via: VertexId,
    ) -> bool {
        debug_assert!(u != v, "self-loop");
        debug_assert!(self.is_present(u) && self.is_present(v), "endpoint removed");
        let info = EdgeInfo { weight, via };
        let slot = self.adj[u as usize].entry(v);
        let changed = match slot {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if weight < o.get().weight {
                    *o.get_mut() = info;
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(vac) => {
                vac.insert(info);
                self.num_edges += 1;
                true
            }
        };
        if changed {
            self.adj[v as usize].insert(u, info);
        }
        changed
    }

    /// Removes `v` and its incident edges, returning the former adjacency
    /// sorted by neighbor id. This is the `ADJ(L_i)` capture of Algorithm 2:
    /// the peeled vertex's adjacency is archived for augmenting-edge creation
    /// (Algorithm 3), label initialization (Algorithm 4) and path expansion
    /// (Section 8.1).
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<(VertexId, EdgeInfo)> {
        assert!(self.is_present(v), "vertex {v} already removed");
        let map = std::mem::take(&mut self.adj[v as usize]);
        let mut out: Vec<(VertexId, EdgeInfo)> = map.into_iter().collect();
        out.sort_unstable_by_key(|&(u, _)| u);
        for &(u, _) in &out {
            self.adj[u as usize].remove(&v);
        }
        self.num_edges -= out.len();
        self.present[v as usize] = false;
        out
    }

    /// Freezes the current graph into a CSR over the same id universe
    /// (removed vertices become isolated). Augmenting-edge via annotations
    /// are returned separately as a sorted `(u, v) -> via` table (only edges
    /// with a via vertex appear, each once with `u < v`).
    pub fn to_csr_with_vias(&self) -> (CsrGraph, Vec<(VertexId, VertexId, VertexId)>) {
        let mut b = crate::builder::GraphBuilder::new(self.universe());
        b.reserve(self.num_edges);
        let mut vias = Vec::new();
        for v in self.present_vertices() {
            for (u, e) in self.neighbors(v) {
                if v < u {
                    b.add_edge(v, u, e.weight);
                    if let Some(via) = e.via_opt() {
                        vias.push((v, u, via));
                    }
                }
            }
        }
        vias.sort_unstable();
        (b.build(), vias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path4() -> AdjacencyGraph {
        // 0 - 1 - 2 - 3 with weights 1, 2, 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        AdjacencyGraph::from_csr(&b.build())
    }

    #[test]
    fn from_csr_preserves_structure() {
        let g = path4();
        assert_eq!(g.present_vertices().count(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edge(1, 2), Some(EdgeInfo::original(2)));
        assert_eq!(g.edge(0, 2), None);
    }

    #[test]
    fn remove_vertex_returns_sorted_adjacency_and_updates_counts() {
        let mut g = path4();
        let adj = g.remove_vertex(1);
        assert_eq!(
            adj,
            vec![(0, EdgeInfo::original(1)), (2, EdgeInfo::original(2))]
        );
        assert!(!g.is_present(1));
        assert_eq!(g.present_vertices().count(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.edge(0, 1), None);
    }

    #[test]
    fn upsert_relaxes_to_minimum() {
        let mut g = path4();
        // Simulate the augmenting edge for removing vertex 1: (0, 2) w=3.
        assert!(g.upsert_edge_min(0, 2, 3, 1));
        assert_eq!(g.edge(0, 2).unwrap().weight, 3);
        assert_eq!(g.edge(2, 0).unwrap().via, 1);
        // A worse weight does not overwrite.
        assert!(!g.upsert_edge_min(0, 2, 5, NO_VIA));
        assert_eq!(g.edge(0, 2).unwrap().weight, 3);
        // A better one does, and replaces the via annotation.
        assert!(g.upsert_edge_min(2, 0, 2, NO_VIA));
        assert_eq!(
            g.edge(0, 2),
            Some(EdgeInfo {
                weight: 2,
                via: NO_VIA
            })
        );
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn csr_roundtrip_with_vias() {
        let mut g = path4();
        g.remove_vertex(1);
        g.upsert_edge_min(0, 2, 3, 1);
        let (csr, vias) = g.to_csr_with_vias();
        assert_eq!(csr.num_vertices(), 4); // universe retained, 1 isolated
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.edge_weight(0, 2), Some(3));
        assert_eq!(csr.edge_weight(2, 3), Some(3));
        assert_eq!(vias, vec![(0, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut g = path4();
        g.remove_vertex(0);
        g.remove_vertex(0);
    }

    #[test]
    fn present_vertices_ascending() {
        let mut g = path4();
        g.remove_vertex(2);
        let vs: Vec<_> = g.present_vertices().collect();
        assert_eq!(vs, vec![0, 1, 3]);
    }
}
