//! The mutable graph `G_i` of hierarchy construction, as sorted rows.
//!
//! Peeling an independent set `L_i` off `G_i` (paper Algorithms 2/3) removes
//! vertices and inserts augmenting edges, a workload CSR cannot serve. Here
//! every vertex owns one row of `[to, weight, via]` entries sorted by `to`,
//! and Algorithm 3's self-join on a peeled vertex's neighbourhood is a merge
//! of two sorted lists per neighbour — the sequential scan Section 6 runs
//! the same join with (`docs/adr/0019-sorted-row-peel.md`).
//!
//! Each edge carries a *via* vertex: when the paper creates an augmenting
//! edge `(u, w)` replacing the 2-hop path `⟨u, v, w⟩`, recording `v` is
//! exactly the bookkeeping Section 8.1 prescribes for shortest-*path* (not
//! just distance) queries.
//!
//! **Invariant.** Every row is strictly ascending by `to`. An entry whose
//! `to` has been removed is *dead*: removing a vertex leaves its entries in
//! its neighbours' rows, readers skip them, and a row holding more dead
//! entries than live ones is compacted the next time a peel touches it.
//! Every other entry is live, and row `a` and row `b` agree on the weight
//! and via of a live edge `(a, b)`.

use crate::csr::CsrGraph;
use crate::ids::{VertexId, Weight};

/// Sentinel meaning "original edge, no intermediate vertex".
pub const NO_VIA: VertexId = VertexId::MAX;

/// A row longer than this many times the candidate list is galloped
/// through instead of scanned.
const GALLOP_RATIO: usize = 4;

/// A mutable, weighted, undirected simple graph over a fixed id universe
/// `0..n` as sorted rows of `[to, weight, via]`, supporting the one
/// mutation hierarchy construction makes: [`SortedAdjacency::peel_vertex`].
#[derive(Debug, Clone)]
pub struct SortedAdjacency {
    rows: Vec<Vec<[VertexId; 3]>>,
    /// Live entries per row: `v`'s degree in the current graph.
    live: Vec<u32>,
    present: Vec<bool>,
    num_edges: usize,
    /// The row [`SortedAdjacency::peel_vertex`] returns.
    peeled: Vec<[VertexId; 3]>,
    scratch: PeelScratch,
}

/// What [`SortedAdjacency::peel_vertex`] reuses from call to call.
#[derive(Debug, Clone, Default)]
struct PeelScratch {
    /// The entries one repair inserts into one row.
    fresh: Vec<[VertexId; 3]>,
    /// `[a, weight, b]` for every pair `(a, b)`, `a < b`, the peel changed.
    mirror: Vec<[VertexId; 3]>,
}

impl SortedAdjacency {
    /// Copies a CSR graph; every edge starts as an original edge.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let rows: Vec<Vec<[VertexId; 3]>> = g
            .vertices()
            .map(|v| g.edges(v).map(|(u, w)| [u, w, NO_VIA]).collect())
            .collect();
        Self {
            live: rows.iter().map(|r| r.len() as u32).collect(),
            rows,
            present: vec![true; g.num_vertices()],
            num_edges: g.num_edges(),
            peeled: Vec::new(),
            scratch: PeelScratch::default(),
        }
    }

    /// Size of the id universe (including removed vertices).
    #[inline]
    pub fn universe(&self) -> usize {
        self.rows.len()
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
        self.live[v as usize] as usize
    }

    /// Iterates present vertices in ascending id order.
    pub fn present_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.universe() as VertexId).filter(move |&v| self.is_present(v))
    }

    /// `v`'s live `[to, weight, via]` entries, ascending by `to`.
    pub fn row(&self, v: VertexId) -> impl Iterator<Item = [VertexId; 3]> + '_ {
        self.rows[v as usize]
            .iter()
            .copied()
            .filter(move |e| self.present[e[0] as usize])
    }

    /// `v`'s neighbours, ascending.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.row(v).map(|e| e[0])
    }

    /// Removes `v` and repairs its neighbourhood (Algorithm 3): for every
    /// two neighbours `a, b` of `v` the edge `(a, b)` is inserted with
    /// weight `ω(a,v) + ω(v,b)` and via `v`, or, if it exists, takes that
    /// weight and via when the sum is strictly smaller. Returns `v`'s row
    /// in the graph it was removed from — the `ADJ(L_i)` capture of
    /// Algorithm 2 — live entries ascending by neighbour; the slice is valid
    /// until the next call.
    ///
    /// Each pair is decided once, in the row of its smaller end `a`: the
    /// candidates through `v` to every `b > a` in `N(v)` are merged against
    /// row `a`, and the few that change it are replayed into the rows `b`
    /// afterwards. Removing the vertices of one level in ascending order
    /// offers every edge its candidates in ascending `v` order, and a tie
    /// keeps what the edge already holds, so the graph a level leaves is
    /// exactly that of the pairwise min-relaxation the paper states.
    ///
    /// # Panics
    ///
    /// If `v` was already removed, or an augmenting weight overflows
    /// [`Weight`] (shortest-path lengths must fit in `u32` during
    /// construction).
    pub fn peel_vertex(&mut self, v: VertexId) -> &[[VertexId; 3]] {
        assert!(self.is_present(v), "vertex {v} already removed");
        let row = std::mem::take(&mut self.rows[v as usize]);
        let nv = &mut self.peeled;
        nv.clear();
        nv.extend(row.into_iter().filter(|e| self.present[e[0] as usize]));
        self.present[v as usize] = false;
        self.live[v as usize] = 0;
        self.num_edges -= nv.len();
        for e in nv.iter() {
            self.live[e[0] as usize] -= 1;
        }
        let s = &mut self.scratch;
        s.mirror.clear();
        for (x, &[a, wa, _]) in nv.iter().enumerate() {
            self.num_edges += relax_row(
                &mut self.rows[a as usize],
                &mut self.live[a as usize],
                &self.present,
                (&nv[x + 1..], wa, v),
                &mut s.fresh,
                |[b, w, _]| s.mirror.push([a, w, b]),
            );
        }
        // The changes to pairs (a, b), a < b, as `[a, weight, b]`, in the
        // rows of their larger ends: grouped by row, each group ascending
        // by `a`. Row `b` held what row `a` held, so it takes exactly the
        // same changes.
        s.mirror.sort_unstable_by_key(|&[a, _, b]| (b, a));
        for group in s.mirror.chunk_by(|p, q| p[2] == q[2]) {
            let b = group[0][2] as usize;
            let (row, live) = (&mut self.rows[b], &mut self.live[b]);
            relax_row(
                row,
                live,
                &self.present,
                (group, 0, v),
                &mut s.fresh,
                |_| {},
            );
        }
        &self.peeled
    }

    /// Freezes the current graph into a CSR over the same id universe
    /// (removed vertices become isolated). Augmenting-edge via annotations
    /// are returned separately as `[u, v, via]` triples with `u < v`,
    /// strictly ascending by `(u, v)`, one per edge that has a via vertex.
    pub fn to_csr_with_vias(&self) -> (CsrGraph, Vec<[VertexId; 3]>) {
        let mut offsets = Vec::with_capacity(self.universe() + 1);
        let mut neighbors = Vec::with_capacity(2 * self.num_edges);
        let mut weights = Vec::with_capacity(2 * self.num_edges);
        let mut vias = Vec::new();
        offsets.push(0);
        for v in 0..self.universe() as VertexId {
            for [to, w, via] in self.row(v) {
                neighbors.push(to);
                weights.push(w);
                if v < to && via != NO_VIA {
                    vias.push([v, to, via]);
                }
            }
            offsets.push(neighbors.len());
        }
        (CsrGraph::from_parts(offsets, neighbors, weights), vias)
    }
}

/// Merges the candidates `[to, weight + add, via]` for the `[to, weight, _]`
/// entries of `others` (ascending by `to`, every `to` present) into `row`:
/// an existing edge takes a strictly shorter candidate's weight and via in
/// place, a missing one is inserted, and `changed` sees every candidate that
/// did either. The rare insertions are merged in with one rewrite. A row
/// with more dead entries than live ones is compacted first. Returns the
/// number of entries inserted.
///
/// # Panics
///
/// If a candidate's weight overflows [`Weight`].
fn relax_row(
    row: &mut Vec<[VertexId; 3]>,
    live: &mut u32,
    present: &[bool],
    (others, add, via): (&[[VertexId; 3]], Weight, VertexId),
    fresh: &mut Vec<[VertexId; 3]>,
    mut changed: impl FnMut([VertexId; 3]),
) -> usize {
    if row.len() - *live as usize > *live as usize {
        row.retain(|e| present[e[0] as usize]);
    }
    let Some(first) = others.first() else {
        return 0;
    };
    fresh.clear();
    let mut i = row.partition_point(|e| e[0] < first[0]);
    let gallop = row.len() - i > GALLOP_RATIO * others.len();
    for &[to, w, _] in others {
        let w = w.checked_add(add).expect(
            "augmenting edge weight overflows u32: input weights are too large \
             (shortest-path lengths must fit in u32 during construction)",
        );
        i = if gallop {
            gallop_to(row, i, to)
        } else {
            i + row[i..].iter().take_while(|e| e[0] < to).count()
        };
        let c = [to, w, via];
        match row.get_mut(i) {
            Some(e) if e[0] == to => {
                if w < e[1] {
                    *e = c;
                    changed(c);
                }
                i += 1;
            }
            _ => {
                fresh.push(c);
                changed(c);
            }
        }
    }
    if fresh.is_empty() {
        return 0;
    }
    // Both lists are ascending and share no `to`: merge from the back.
    let old = row.len();
    row.resize(old + fresh.len(), [0; 3]);
    let (mut i, mut j) = (old, fresh.len());
    for slot in (0..row.len()).rev() {
        if j == 0 {
            break;
        }
        if i > 0 && row[i - 1][0] > fresh[j - 1][0] {
            i -= 1;
            row[slot] = row[i];
        } else {
            j -= 1;
            row[slot] = fresh[j];
        }
    }
    *live += fresh.len() as u32;
    fresh.len()
}

/// The first index `≥ i` whose entry's `to` is not below `b`: steps of 1,
/// 2, 4, … from `i`, then a binary search inside the last step.
fn gallop_to(row: &[[VertexId; 3]], i: usize, b: VertexId) -> usize {
    if row.get(i).is_none_or(|e| e[0] >= b) {
        return i;
    }
    // `row[lo]` stays below `b`.
    let (mut lo, mut step) = (i, 1);
    while lo + step < row.len() && row[lo + step][0] < b {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(row.len());
    lo + 1 + row[lo + 1..hi].partition_point(|e| e[0] < b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// `(weight, via)` of the live edge `(u, v)`, read from row `u` (a
    /// removed vertex's row is empty).
    fn edge(g: &SortedAdjacency, u: VertexId, v: VertexId) -> Option<(Weight, VertexId)> {
        g.row(u).find(|e| e[0] == v).map(|e| (e[1], e[2]))
    }

    fn path4() -> SortedAdjacency {
        // 0 - 1 - 2 - 3 with weights 1, 2, 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        SortedAdjacency::from_csr(&b.build())
    }

    #[test]
    fn from_csr_preserves_structure() {
        let g = path4();
        assert_eq!(g.present_vertices().count(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(edge(&g, 1, 2), Some((2, NO_VIA)));
        assert_eq!(edge(&g, 0, 2), None);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn peel_returns_sorted_row_and_updates_counts() {
        let mut g = path4();
        assert_eq!(g.peel_vertex(1), &[[0, 1, NO_VIA], [2, 2, NO_VIA]][..]);
        assert!(!g.is_present(1));
        assert_eq!(g.present_vertices().count(), 3);
        // (0, 1) and (1, 2) are gone, the repair (0, 2) of weight 3 is new.
        assert_eq!(g.num_edges(), 2);
        assert_eq!((g.degree(0), g.degree(1), g.degree(2)), (1, 0, 2));
        assert_eq!(edge(&g, 0, 1), None);
        assert_eq!(edge(&g, 0, 2), Some((3, 1)));
        assert_eq!(edge(&g, 2, 0), Some((3, 1)));
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn repair_relaxes_to_the_strict_minimum() {
        // A 4-cycle 0-1-2-3-0 plus the chord (0, 2) of weight 5. Peeling 1
        // offers (0, 2) at 1 + 1 = 2 < 5: it takes weight 2 and via 1.
        // Peeling 3 then offers 2 + 2 = 4 > 2: nothing changes.
        let mut b = GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 0, 2), (0, 2, 5)] {
            b.add_edge(u, v, w);
        }
        let mut g = SortedAdjacency::from_csr(&b.build());
        g.peel_vertex(1);
        assert_eq!(edge(&g, 0, 2), Some((2, 1)));
        assert_eq!(edge(&g, 2, 0), Some((2, 1)));
        g.peel_vertex(3);
        assert_eq!(edge(&g, 0, 2), Some((2, 1)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn an_equal_candidate_keeps_the_earlier_via() {
        // 0 and 2 are joined through 1 and through 3 at weight 2 each:
        // peeling 1 first inserts (0, 2) via 1, and 3's tie keeps it.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v, 1);
        }
        let mut g = SortedAdjacency::from_csr(&b.build());
        g.peel_vertex(1);
        g.peel_vertex(3);
        assert_eq!(edge(&g, 0, 2), Some((2, 1)));
    }

    #[test]
    fn csr_roundtrip_with_vias() {
        let mut g = path4();
        g.peel_vertex(1);
        let (csr, vias) = g.to_csr_with_vias();
        assert_eq!(csr.num_vertices(), 4); // universe retained, 1 isolated
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.edge_weight(0, 2), Some(3));
        assert_eq!(csr.edge_weight(2, 3), Some(3));
        assert_eq!(vias, vec![[0, 2, 1]]);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut g = path4();
        g.peel_vertex(0);
        g.peel_vertex(0);
    }

    #[test]
    fn present_vertices_ascending() {
        let mut g = path4();
        g.peel_vertex(2);
        let vs: Vec<_> = g.present_vertices().collect();
        assert_eq!(vs, vec![0, 1, 3]);
    }

    #[test]
    fn a_long_row_is_galloped_and_compacted_when_dead_entries_outnumber_live_ones() {
        // Hub 0 joined to 1..=40 at weight 10, and a path 1 - 2 - … - 40.
        // Peeling the odd vertices merges two candidates into the hub's
        // row, ≥ 4 × longer (the gallop branch), and peeling 2, 6, …, 38
        // next leaves it more dead entries than live ones.
        let n = 41;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(0, v, 10);
            if v + 1 < n as VertexId {
                b.add_edge(v, v + 1, 1);
            }
        }
        let mut g = SortedAdjacency::from_csr(&b.build());
        let odd = (1..n as VertexId).step_by(2);
        for v in odd.chain((2..n as VertexId).step_by(4)) {
            g.peel_vertex(v);
            let (row, live) = (&g.rows[0], g.degree(0));
            assert!(row.len() - live <= live, "hub row not compacted");
            assert!(row.windows(2).all(|w| w[0][0] < w[1][0]), "row unsorted");
        }
        // The hub keeps 4, 8, …, 40 at weight 10 (every repair through the
        // path was longer); the path survives as 4 - 8 - … - 40 through 6,
        // 10, … at weight 4.
        assert_eq!(g.degree(0), 10);
        assert!(g.rows[0].len() < 20, "hub row never compacted");
        assert_eq!(edge(&g, 0, 4), Some((10, NO_VIA)));
        assert_eq!(edge(&g, 4, 8), Some((4, 6)));
        assert_eq!(edge(&g, 8, 4), Some((4, 6)));
        assert_eq!(g.num_edges(), 10 + 9);
        let (csr, _) = g.to_csr_with_vias();
        assert_eq!(csr.num_edges(), g.num_edges());
        for v in g.present_vertices() {
            assert_eq!(csr.degree(v), g.degree(v));
        }
    }

    #[test]
    fn gallop_finds_the_first_entry_not_below_the_key() {
        let row: Vec<[VertexId; 3]> = (0..50).map(|t| [2 * t, 1, NO_VIA]).collect();
        for i in 0..row.len() {
            for b in 0..110 {
                let want = i + row[i..].iter().take_while(|e| e[0] < b).count();
                assert_eq!(gallop_to(&row, i, b), want, "from {i} to {b}");
            }
        }
        assert_eq!(gallop_to(&row, row.len(), 7), row.len());
    }

    #[test]
    #[should_panic(expected = "augmenting edge weight overflows")]
    fn overflowing_repairs_panic() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, u32::MAX);
        b.add_edge(1, 2, 1);
        SortedAdjacency::from_csr(&b.build()).peel_vertex(1);
    }
}
