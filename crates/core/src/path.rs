//! Shortest-*path* reconstruction (paper Section 8.1).
//!
//! Distance queries only need label values; path queries additionally need
//! to unfold two kinds of compressed steps:
//!
//! * **Augmenting edges**: an edge `(u, w)` created while peeling `v`
//!   abbreviates the 2-hop path `⟨u, v, w⟩`; the builder recorded `v` as the
//!   edge's *via* vertex. Expansion recurses because `(u, v)` and `(v, w)`
//!   may themselves be augmenting edges of lower levels — both are archived
//!   in `v`'s peel adjacency, exactly as the paper prescribes ("(u, v) and
//!   (v, w) are edges in G_{i−1}, which in turn can be augmenting edges").
//! * **Label entries**: the entry `(w, d)` in `label(v)` is reached through
//!   the *first hop* `u` of the optimal level-increasing chain; the
//!   remainder of the chain is read from `label(u)`, recursively ("we
//!   recursively form queries until the intermediate vertex in a label
//!   entry is φ").
//!
//! **Departure from the paper.** Section 8.1 stores that first hop in every
//! label entry. This index does not: a label entry is `(w, d)` only, and
//! `first_hop` derives the hop when a path needs it, as the lexicographic
//! minimum of `(ω(v, u) + d(u, w), u)` over `v`'s peel row. Algorithm 4
//! keeps `d(v, w)` as the minimum of those very sums, and a tie goes to
//! the smaller neighbour, the rule the stored hop was chosen by, so the
//! derived hop is the one that would have been stored and every path is
//! the same vertex sequence. A first hop is a function of the peel row and
//! the labels, so it is derived, never stored: a third of every label byte
//! goes, and distance queries, which never read a hop, pay nothing for
//! paths (`docs/adr/0020-derived-first-hops.md`). One step costs a binary
//! search of `w` in each peel neighbour's label.
//!
//! **A label-only index's core.** There a label entry may name a hub of the
//! core `G_k`, whose vertices have no peel row: the chain climbs to a core
//! vertex `a`, and then runs a shortest `a`–`w` path of `G_k`. `core_hop`
//! takes each of its steps over `a`'s core row, as the lexicographic
//! minimum of `(ω(a, u) + dist(u, w), u)`, with `dist` from Equation 1 over
//! the two pruned labels — a neighbour's label can lack `w` when a higher
//! hub covers the pair (`docs/adr/0021-degree-ranked-core.md`).
//!
//! The reconstructed path is a real path of `G`: every consecutive pair is
//! an original edge, and the weights sum to the reported distance (asserted
//! in debug builds and in the test suite).

use crate::dense::DenseParents;
use crate::hierarchy::{HierarchyView, PeelCsr, PeelEdge};
use crate::kernel::intersect_min_auto;
use crate::label::Labels;
use crate::query::{Meeting, SearchOutcome};
use islabel_graph::adjacency::NO_VIA;
use islabel_graph::{CsrGraph, Dist, VertexId, INF};

/// A reconstructed shortest path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The vertices in order, `s` first and `t` last (a single vertex when
    /// `s == t`).
    pub vertices: Vec<VertexId>,
    /// Total length (equals the corresponding distance query).
    pub length: Dist,
}

impl Path {
    /// Number of edges on the path.
    pub fn num_edges(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// Iterates consecutive vertex pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices.windows(2).map(|w| (w[0], w[1]))
    }

    /// Checks the path against a graph: every step must be an edge and the
    /// weights must sum to `length`. Used pervasively by tests.
    pub fn validate_against(&self, g: &CsrGraph) -> Result<(), String> {
        let mut total: Dist = 0;
        for (u, v) in self.edges() {
            match g.edge_weight(u, v) {
                Some(w) => total += w as Dist,
                None => return Err(format!("({u}, {v}) is not an edge")),
            }
        }
        if total != self.length {
            return Err(format!(
                "edge weights sum to {total}, path claims {}",
                self.length
            ));
        }
        Ok(())
    }
}

/// Reconstructs the path realizing `out.dist` from the meeting of a search
/// that recorded `parents` (both in compact ids, as the kernel left them),
/// over a pristine index's hierarchy and labels.
pub(crate) fn reconstruct(
    h: HierarchyView<'_>,
    labels: Labels<'_>,
    s: VertexId,
    t: VertexId,
    out: &SearchOutcome,
    parents: &DenseParents,
) -> Option<Path> {
    let mut vertices = match out.meeting {
        Meeting::None => return None,
        Meeting::Labels(w) => {
            // Optimal path goes s → w → t entirely through label chains.
            let mut out = label_path(h, labels, s, w)?;
            let back = label_path(h, labels, t, w)?;
            append_reversed(&mut out, back);
            out
        }
        Meeting::Search(m) => {
            // s →(label)→ seed_f →(G_k)→ m →(G_k)→ seed_r →(label)→ t.
            let ids = h.gk.ids();
            let global = |chain: Vec<u32>| -> Vec<VertexId> {
                chain.into_iter().map(|d| ids.global(d)).collect()
            };
            let fchain = global(parents.chain(true, m)?);
            let rchain = global(parents.chain(false, m)?);
            let mut out = label_path(h, labels, s, fchain[0])?;
            for w in fchain.windows(2) {
                expand_gk_edge(h, w[0], w[1], &mut out);
            }
            // rchain runs seed_r .. m; traverse it backwards from m.
            for w in rchain.windows(2).rev() {
                expand_gk_edge(h, w[1], w[0], &mut out);
            }
            let back = label_path(h, labels, t, rchain[0])?;
            append_reversed(&mut out, back);
            out
        }
    };
    // A junction repeats when a seed coincides with the meeting vertex.
    vertices.dedup();
    let path = Path {
        vertices,
        length: out.dist,
    };
    debug_assert_eq!(path.vertices.first(), Some(&s));
    debug_assert_eq!(path.vertices.last(), Some(&t));
    Some(path)
}

/// The first hop of the entry for ancestor `w != v` in `label(v)`: the
/// edge of `v`'s peel row to the neighbour `u` that minimizes
/// `(ω(v, u) + d(u, w), u)` among the neighbours whose label holds `w`.
/// Algorithm 4 keeps `d(v, w)` by exactly that minimum, so this is the
/// hop Section 8.1 would have stored. `None` when no neighbour's label
/// holds `w`, that is when `w` is not an ancestor of `v`.
pub(crate) fn first_hop(
    peel: PeelCsr<&[u64], &[[VertexId; 3]]>,
    labels: Labels<'_>,
    v: VertexId,
    w: VertexId,
) -> Option<PeelEdge> {
    let mut best: Option<(Dist, PeelEdge)> = None;
    for &[to, weight, via] in peel.row(v) {
        let Some(d) = labels.label(to).get(w) else {
            continue;
        };
        let len = Dist::from(weight) + d;
        if best.is_none_or(|(b, e)| (len, to) < (b, e.to)) {
            best = Some((len, PeelEdge { to, weight, via }));
        }
    }
    best.map(|(_, edge)| edge)
}

/// The step from the core vertex `v` toward the core vertex `w != v` on a
/// shortest path of `G_k` (a label-only index): the neighbour `u` of `v`'s
/// core row that minimizes `(ω(v, u) + dist(u, w), u)`, `dist` being
/// Equation 1 over the two pruned labels, which cover every core pair.
/// `None` when no neighbour reaches `w`.
fn core_hop(
    h: HierarchyView<'_>,
    labels: Labels<'_>,
    v: VertexId,
    w: VertexId,
) -> Option<VertexId> {
    let ids = h.gk.ids();
    let (targets, weights) = h.gk.fwd().row(ids.dense(v)?);
    let to_w = labels.label(w);
    let mut best: Option<(Dist, VertexId)> = None;
    for (&du, &weight) in targets.iter().zip(weights) {
        let u = ids.global(du);
        let (d, _) = intersect_min_auto(labels.label(u), to_w);
        if d == INF {
            continue;
        }
        let offer = (Dist::from(weight) + d, u);
        if best.is_none_or(|b| offer < b) {
            best = Some(offer);
        }
    }
    best.map(|(_, u)| u)
}

/// Follows first hops from `v` to its ancestor `w`, expanding every step;
/// returns the full vertex sequence `v .. w`. Past the peeled levels, a
/// label-only index's chain continues inside the core by [`core_hop`].
fn label_path(
    h: HierarchyView<'_>,
    labels: Labels<'_>,
    v: VertexId,
    w: VertexId,
) -> Option<Vec<VertexId>> {
    let mut out = vec![v];
    let mut cur = v;
    // Every peel hop climbs at least one level and every core hop brings
    // `w` strictly closer along a shortest path of `G_k`, so a chain has
    // fewer than `k + |G_k|` steps; the bound keeps a corrupt artifact
    // from looping.
    for _ in 0..h.k as usize + h.num_gk_vertices() {
        if cur == w {
            return Some(out);
        }
        if h.is_in_gk(cur) {
            let next = core_hop(h, labels, cur, w)?;
            expand_gk_edge(h, cur, next, &mut out);
            cur = next;
        } else {
            let edge = first_hop(h.peel, labels, cur, w)?;
            expand_edge(h, cur, edge.to, edge.via, &mut out);
            cur = edge.to;
        }
    }
    None
}

/// Appends the interior and far endpoint of the `G_k` edge `(a, b)` to
/// `out` (which must currently end with `a`).
fn expand_gk_edge(h: HierarchyView<'_>, a: VertexId, b: VertexId, out: &mut Vec<VertexId>) {
    let via = h.gk_via(a, b).unwrap_or(NO_VIA);
    expand_edge(h, a, b, via, out);
}

/// Recursively expands the (possibly augmenting) edge `(a, b)`; `out` ends
/// with `a` on entry and with `b` on exit.
fn expand_edge(
    h: HierarchyView<'_>,
    a: VertexId,
    b: VertexId,
    via: VertexId,
    out: &mut Vec<VertexId>,
) {
    if via == NO_VIA {
        out.push(b);
        return;
    }
    // (a, via) and (via, b) live in via's archived peel adjacency; they may
    // themselves be augmenting edges of strictly lower levels, so the
    // recursion terminates.
    let via_of = |end: VertexId| {
        let edge = h.peel_adj(via).find(|e| e.to == end);
        edge.expect("via vertex must list both endpoints").via
    };
    expand_edge(h, a, via, via_of(a), out);
    expand_edge(h, via, b, via_of(b), out);
}

/// Appends `tail` (a path `x .. w`) to `out` (ending in `w`) in reverse,
/// skipping the shared junction vertex.
fn append_reversed(out: &mut Vec<VertexId>, tail: Vec<VertexId>) {
    debug_assert_eq!(out.last(), tail.last());
    out.extend(tail.into_iter().rev().skip(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::index::IsLabelIndex;
    use crate::reference::dijkstra_p2p;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};

    fn assert_paths_match_dijkstra(
        g: &CsrGraph,
        config: BuildConfig,
        pairs: &[(VertexId, VertexId)],
    ) {
        let index = IsLabelIndex::try_build(g, config).unwrap();
        for &(s, t) in pairs {
            let expect = dijkstra_p2p(g, s, t);
            let path = index.try_shortest_path(s, t).unwrap();
            match (expect, path) {
                (None, None) => {}
                (Some(d), Some(p)) => {
                    assert_eq!(p.length, d, "({s}, {t}) length");
                    assert_eq!(p.vertices.first(), Some(&s));
                    assert_eq!(p.vertices.last(), Some(&t));
                    p.validate_against(g)
                        .unwrap_or_else(|e| panic!("({s}, {t}): {e}"));
                }
                (e, p) => panic!("({s}, {t}): expected {e:?}, got {p:?}"),
            }
        }
    }

    /// The first hop of `label(v)`'s entry for `w`, recomputed literally:
    /// every peel neighbour `u` whose label holds `w` (found by a linear
    /// scan) offers `(ω(v, u) + d(u, w), u)`, and the ordered set's first
    /// element is the lexicographic minimum.
    fn literal_first_hop(
        h: HierarchyView<'_>,
        labels: Labels<'_>,
        v: VertexId,
        w: VertexId,
    ) -> VertexId {
        let mut offers = std::collections::BTreeSet::new();
        for e in h.peel_adj(v) {
            if let Some((_, d)) = labels.label(e.to).iter().find(|&(a, _)| a == w) {
                offers.insert((Dist::from(e.weight) + d, e.to));
            }
        }
        let &(len, hop) = offers.first().expect("an ancestor has a hop");
        assert_eq!(
            len,
            labels.label(v).get(w).unwrap(),
            "d({v}, {w}) is that minimum"
        );
        hop
    }

    #[test]
    fn derived_first_hops_are_the_literal_minimum_over_the_peel_row() {
        // Weights 1..=2 make equal-length chains common, so the tie rule
        // (the smaller neighbour) decides many hops.
        let weights = WeightModel::UniformRange(1, 2);
        let graphs = [
            ("er", erdos_renyi_gnm(300, 700, weights, 21)),
            ("ba", barabasi_albert(300, 3, weights, 22)),
            ("grid", grid2d(16, 16, weights, 23)),
        ];
        for (name, g) in &graphs {
            for config in [
                BuildConfig::default(),
                BuildConfig::full(),
                BuildConfig::fixed_k(2),
            ] {
                let index = IsLabelIndex::try_build(g, config).unwrap();
                let crate::persist::v3::Sections { hierarchy, labels } = index.sections();
                let mut checked = 0usize;
                // A label-only index's core vertices have no peel row:
                // their steps are core hops, which the path tests cover.
                let peeled = (0..g.num_vertices() as VertexId).filter(|&v| !hierarchy.is_in_gk(v));
                for v in peeled {
                    for &w in labels.label(v).ancestors.iter().filter(|&&w| w != v) {
                        let derived = first_hop(hierarchy.peel, labels, v, w).map(|e| e.to);
                        let literal = literal_first_hop(hierarchy, labels, v, w);
                        assert_eq!(derived, Some(literal), "{name} {config}: label({v}) at {w}");
                        checked += 1;
                    }
                }
                assert!(checked > 0, "{name} {config}: no entry past the self entry");
            }
        }
    }

    #[test]
    fn paper_example_paths() {
        let g = crate::hierarchy::tests::paper_graph();
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        // dist(h, e) = 3 along h-g-d-e.
        let p = index.try_shortest_path(7, 4).unwrap().unwrap();
        assert_eq!(p.length, 3);
        p.validate_against(&g).unwrap();
        // dist(a, g) = 3; two optimal routes exist (a-e-d-g and a-b-e-d-g has
        // length 4, so a-e-d-g or a-e-g? (e,g) is not an original edge...).
        let p = index.try_shortest_path(0, 6).unwrap().unwrap();
        assert_eq!(p.length, 3);
        p.validate_against(&g).unwrap();
    }

    #[test]
    fn random_graph_paths_various_configs() {
        let g = erdos_renyi_gnm(80, 200, WeightModel::UniformRange(1, 6), 13);
        let pairs: Vec<(VertexId, VertexId)> =
            (0..40).map(|i| ((i * 3) % 80, (i * 17 + 1) % 80)).collect();
        for config in [
            BuildConfig::default(),
            BuildConfig::full(),
            BuildConfig::fixed_k(3),
        ] {
            assert_paths_match_dijkstra(&g, config, &pairs);
        }
    }

    #[test]
    fn heavy_tailed_graph_paths() {
        let g = barabasi_albert(250, 3, WeightModel::UniformRange(1, 4), 29);
        let pairs: Vec<(VertexId, VertexId)> = (0..50)
            .map(|i| ((i * 7) % 250, (i * 31 + 11) % 250))
            .collect();
        assert_paths_match_dijkstra(&g, BuildConfig::default(), &pairs);
    }

    #[test]
    fn grid_paths() {
        // Grids force long paths with many augmenting-edge expansions.
        let g = grid2d(12, 12, WeightModel::UniformRange(1, 3), 7);
        let pairs = [(0u32, 143u32), (0, 11), (132, 11), (5, 140)];
        assert_paths_match_dijkstra(&g, BuildConfig::default(), &pairs);
    }

    #[test]
    fn disconnected_pairs_have_no_path() {
        let mut b = islabel_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(2, 3, 4);
        let g = b.build();
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(index.try_shortest_path(0, 2), Ok(None));
        assert_eq!(
            index.try_shortest_path(0, 1),
            Ok(Some(Path {
                vertices: vec![0, 1],
                length: 3
            }))
        );
    }

    #[test]
    fn trivial_paths() {
        let g = erdos_renyi_gnm(20, 40, WeightModel::Unit, 3);
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let p = index.try_shortest_path(5, 5).unwrap().unwrap();
        assert_eq!(p.vertices, vec![5]);
        assert_eq!(p.length, 0);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn path_disabled_without_path_info() {
        let g = erdos_renyi_gnm(30, 60, WeightModel::Unit, 4);
        let config = BuildConfig {
            keep_path_info: false,
            ..BuildConfig::default()
        };
        let index = IsLabelIndex::try_build(&g, config).unwrap();
        assert_eq!(
            index.try_shortest_path(0, 1),
            Err(crate::QueryError::NoPathInfo)
        );
        // Distances still work.
        assert_eq!(index.try_distance(0, 1), Ok(dijkstra_p2p(&g, 0, 1)));
    }

    #[test]
    fn path_disabled_after_updates() {
        let g = erdos_renyi_gnm(30, 80, WeightModel::Unit, 5);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert!(index.try_shortest_path(0, 1).unwrap().is_some());
        index.try_insert_vertex(&[(0, 1)]).unwrap();
        assert_eq!(
            index.try_shortest_path(0, 1),
            Err(crate::QueryError::NoPathInfo),
            "paths unsupported after updates"
        );
        index.rebuild();
        assert!(index.try_shortest_path(0, 1).unwrap().is_some());
    }

    #[test]
    fn validate_against_catches_corruption() {
        let mut b = islabel_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 2);
        let g = b.build();
        let good = Path {
            vertices: vec![0, 1, 2],
            length: 4,
        };
        assert!(good.validate_against(&g).is_ok());
        let bad_edge = Path {
            vertices: vec![0, 2],
            length: 4,
        };
        assert!(bad_edge
            .validate_against(&g)
            .unwrap_err()
            .contains("not an edge"));
        let bad_len = Path {
            vertices: vec![0, 1],
            length: 7,
        };
        assert!(bad_len.validate_against(&g).unwrap_err().contains("sum"));
    }
}
