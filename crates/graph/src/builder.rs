//! Edge-accumulating builders that produce CSR graphs.
//!
//! Builders accept edges in any order, ignore self-loops, and resolve
//! parallel edges by keeping the minimum weight — the same resolution rule
//! the paper applies when an augmenting edge collides with an existing edge
//! (Section 4.1). Construction is sort-based, so building is
//! `O(|E| log |E|)` with no per-edge hashing.

use crate::csr::CsrGraph;
use crate::digraph::CsrDigraph;
use crate::ids::{VertexId, Weight};

/// Builder for undirected [`CsrGraph`]s.
///
/// # Examples
///
/// ```
/// use islabel_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 3);
/// b.add_edge(1, 0, 2); // parallel edge: min weight (2) wins
/// b.add_edge(2, 2, 9); // self-loop: ignored
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.edge_weight(0, 1), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Normalized edges with `u < v`.
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with exactly `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        Self {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder and bulk-loads `edges`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut b = Self::new(n);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b
    }

    /// Pre-allocates space for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// The fixed vertex-universe size this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (not yet deduplicated) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds an undirected edge. Self-loops are silently dropped; weights must
    /// be positive (the paper's `ω : E → N+`).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the weight is zero.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(
            w > 0,
            "edge weights must be positive integers (paper, Section 2)"
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Finalizes into a [`CsrGraph`], deduplicating parallel edges to their
    /// minimum weight.
    pub fn build(mut self) -> CsrGraph {
        // Sort normalized edges, then collapse duplicates keeping min weight.
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 = kept.2.min(next.2);
                true
            } else {
                false
            }
        });

        // Counting pass: each undirected edge contributes to both endpoints.
        let n = self.num_vertices;
        let mut counts = vec![0usize; n + 1];
        for &(u, v, _) in &self.edges {
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();

        // Two fill passes over the sorted edge list keep each adjacency slice
        // sorted without any post-pass: for vertex x, partners smaller than x
        // are written first (pass 1, ascending because the edge list is
        // (u, v)-lexicographic), then partners larger than x (pass 2, also
        // ascending). Since every pass-1 partner < x < every pass-2 partner,
        // the concatenation is sorted.
        let total = self.edges.len() * 2;
        let mut neighbors = vec![0 as VertexId; total];
        let mut weights = vec![0 as Weight; total];
        let mut cursor = counts;
        for &(u, v, w) in &self.edges {
            // Pass 1: record u (the smaller endpoint) in v's slice.
            let cv = &mut cursor[v as usize];
            neighbors[*cv] = u;
            weights[*cv] = w;
            *cv += 1;
        }
        for &(u, v, w) in &self.edges {
            // Pass 2: record v (the larger endpoint) in u's slice.
            let cu = &mut cursor[u as usize];
            neighbors[*cu] = v;
            weights[*cu] = w;
            *cu += 1;
        }
        debug_assert!((0..n).all(|x| neighbors[offsets[x]..offsets[x + 1]].is_sorted()));

        CsrGraph::from_parts(offsets, neighbors, weights)
    }
}

/// Builder for directed [`CsrDigraph`]s; identical policy (no self-loops,
/// parallel arcs keep the minimum weight), but `(u, v)` and `(v, u)` are
/// distinct arcs.
#[derive(Debug, Clone, Default)]
pub struct DigraphBuilder {
    num_vertices: usize,
    arcs: Vec<(VertexId, VertexId, Weight)>,
}

impl DigraphBuilder {
    /// Creates a builder for a digraph with exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        Self {
            num_vertices: n,
            arcs: Vec::new(),
        }
    }

    /// Adds the directed arc `u -> v`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the weight is zero.
    pub fn add_arc(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "arc ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(w > 0, "arc weights must be positive integers");
        if u == v {
            return;
        }
        self.arcs.push((u, v, w));
    }

    /// Finalizes into a [`CsrDigraph`] with both out- and in-adjacency.
    pub fn build(mut self) -> CsrDigraph {
        self.arcs.sort_unstable();
        self.arcs.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 = kept.2.min(next.2);
                true
            } else {
                false
            }
        });
        CsrDigraph::from_arcs_sorted(self.num_vertices, &self.arcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        b.add_edge(1, 0, 4);
        b.add_edge(0, 1, 6);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 5);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
    }

    #[test]
    fn adjacency_is_sorted() {
        // Insert edges in scrambled order and verify sorted slices.
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(3, 1), (5, 3), (3, 0), (2, 3), (3, 4)] {
            b.add_edge(u, v, 1);
        }
        let g = b.build();
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn from_edges_matches_incremental() {
        let edges = [(0, 1, 2), (1, 2, 3), (2, 0, 4)];
        let a = GraphBuilder::from_edges(3, edges).build();
        let mut b = GraphBuilder::new(3);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        assert_eq!(a, b.build());
    }

    #[test]
    fn digraph_directions_are_distinct() {
        let mut b = DigraphBuilder::new(3);
        b.add_arc(0, 1, 5);
        b.add_arc(1, 0, 7);
        let g = b.build();
        assert_eq!(g.arc_weight(0, 1), Some(5));
        assert_eq!(g.arc_weight(1, 0), Some(7));
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn digraph_dedup_keeps_min() {
        let mut b = DigraphBuilder::new(2);
        b.add_arc(0, 1, 5);
        b.add_arc(0, 1, 3);
        let g = b.build();
        assert_eq!(g.arc_weight(0, 1), Some(3));
    }
}
