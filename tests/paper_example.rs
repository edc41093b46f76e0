//! End-to-end replay of the paper's worked example (Figures 1–3,
//! Examples 1–6) through the public API.
//!
//! Vertex mapping: a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7, i=8.

use islabel::core::hierarchy::VertexHierarchy;
use islabel::core::label::LabelSet;
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::{CsrGraph, GraphBuilder};

fn paper_graph() -> CsrGraph {
    let mut b = GraphBuilder::new(9);
    for (u, v, w) in [
        (0, 1, 1), // a-b
        (1, 2, 1), // b-c
        (1, 4, 1), // b-e
        (0, 4, 1), // a-e
        (3, 4, 1), // d-e
        (4, 5, 3), // e-f  (the only non-unit weight)
        (4, 8, 1), // e-i
        (5, 7, 1), // f-h
        (6, 7, 1), // g-h
        (3, 6, 1), // d-g
    ] {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// The paper's level assignment (Example 1): L1 = {c, f, i}, L2 = {b, d, h},
/// L3 = {e}, L4 = {a}, L5 = {g}.
const PAPER_LEVELS: [&[u32]; 5] = [&[2, 5, 8], &[1, 3, 7], &[4], &[0], &[6]];

fn paper_hierarchy() -> VertexHierarchy {
    let levels: Vec<Vec<u32>> = PAPER_LEVELS.iter().map(|l| l.to_vec()).collect();
    VertexHierarchy::build_with_forced_levels(&paper_graph(), &levels)
}

#[test]
fn figure1_hierarchy_structure() {
    let h = paper_hierarchy();
    // Example 2's level numbers.
    let expected_levels = [
        (2u32, 1u32),
        (5, 1),
        (8, 1),
        (1, 2),
        (3, 2),
        (7, 2),
        (4, 3),
        (0, 4),
        (6, 5),
    ];
    for (v, l) in expected_levels {
        assert_eq!(h.level_of(v), l, "ℓ(vertex {v})");
    }
    // "G4 consists of a single edge (a, g) of weight 3."
    let a_adj: Vec<_> = h.peel_adj(0).collect();
    assert_eq!(a_adj.len(), 1);
    assert_eq!((a_adj[0].to, a_adj[0].weight), (6, 3));
}

#[test]
fn example2_ancestors_of_f() {
    // "The ancestors of f will be e, h, a, g" (plus f itself).
    let h = paper_hierarchy();
    let ls = LabelSet::build(&h, false);
    let ancestors: Vec<u32> = ls.label(5).ancestors.to_vec();
    assert_eq!(ancestors, vec![0, 4, 5, 6, 7]); // a, e, f, g, h
}

#[test]
fn figure2_labels() {
    let h = paper_hierarchy();
    let ls = LabelSet::build(&h, false);
    let label = |v: u32| -> Vec<(u32, u64)> { ls.label(v).iter().collect() };

    assert_eq!(label(2), vec![(0, 2), (1, 1), (2, 0), (4, 2), (6, 4)]); // c
    assert_eq!(label(8), vec![(0, 2), (4, 1), (6, 3), (8, 0)]); // i
    assert_eq!(label(1), vec![(0, 1), (1, 0), (4, 1), (6, 3)]); // b
    assert_eq!(label(3), vec![(0, 2), (3, 0), (4, 1), (6, 1)]); // d
    assert_eq!(label(7), vec![(0, 5), (4, 4), (6, 1), (7, 0)]); // h
    assert_eq!(label(4), vec![(0, 1), (4, 0), (6, 2)]); // e
    assert_eq!(label(0), vec![(0, 0), (6, 3)]); // a
    assert_eq!(label(6), vec![(6, 0)]); // g

    // label(f): see islabel-core's label tests — the figure's (g, 5) entry
    // is inconsistent with Definition 3 (chain f→h→g has length 2); we
    // assert the Definition 3 value.
    assert_eq!(label(5), vec![(0, 4), (4, 3), (5, 0), (6, 2), (7, 1)]); // f

    // "Note that d(h, e) = 4 in label(h), while dist_G(h, e) = 3."
    assert_eq!(ls.label(7).get(4), Some(4));
}

#[test]
fn example4_queries_through_public_api() {
    let index = IsLabelIndex::try_build(&paper_graph(), BuildConfig::default()).unwrap();
    // dist(h, e) = 3 despite d(h, e) = 4 in the label.
    assert_eq!(index.try_distance(7, 4), Ok(Some(3)));
    // dist(a, g): label(a) ∩ label(g) = {g}; 3 + 0 = 3.
    assert_eq!(index.try_distance(0, 6), Ok(Some(3)));
}

#[test]
fn example5_k2_hierarchy_and_labels() {
    // Figure 3: truncate at k = 2 — only L1 = {c, f, i} is peeled.
    let h = VertexHierarchy::build_with_forced_levels(&paper_graph(), &[vec![2, 5, 8]]);
    assert_eq!(h.k(), 2);
    // All six remaining vertices are in G_2 at level 2.
    for v in [0u32, 1, 3, 4, 6, 7] {
        assert_eq!(h.level_of(v), 2, "ℓ({v})");
        assert!(h.is_in_gk(v));
    }
    let ls = LabelSet::build(&h, false);
    let label = |v: u32| -> Vec<(u32, u64)> { ls.label(v).iter().collect() };
    // The table in Example 5.
    assert_eq!(label(2), vec![(1, 1), (2, 0)]); // c: {(b,1), (c,0)}
    assert_eq!(label(5), vec![(4, 3), (5, 0), (7, 1)]); // f: {(e,3), (f,0), (h,1)}
    assert_eq!(label(8), vec![(4, 1), (8, 0)]); // i: {(e,1), (i,0)}

    // G_2 must contain the augmenting edge (e, h) of weight 4.
    assert_eq!(h.gk().edge_weight(4, 7), Some(4));
    assert_eq!(h.gk_via(4, 7), Some(5)); // via f
}

#[test]
fn example6_bidijkstra_query_on_k2() {
    // dist(c, i) = 3 via the label-seeded bidirectional search on G_2.
    // Through the public API with a fixed k = 2 the greedy IS picks its own
    // L1, but the answer must be identical.
    let index = IsLabelIndex::try_build(&paper_graph(), BuildConfig::fixed_k(2)).unwrap();
    assert_eq!(index.stats().k, 2);
    assert_eq!(index.try_distance(2, 8), Ok(Some(3)));

    // And all pairwise answers at k = 2 equal the full-hierarchy answers.
    let full = IsLabelIndex::try_build(&paper_graph(), BuildConfig::full()).unwrap();
    for s in 0..9u32 {
        for t in 0..9u32 {
            assert_eq!(
                index.try_distance(s, t),
                full.try_distance(s, t),
                "({s}, {t})"
            );
        }
    }
}

#[test]
fn all_pairs_match_dijkstra_on_paper_graph() {
    let g = paper_graph();
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    for s in 0..9u32 {
        let truth = islabel::core::reference::dijkstra_all(&g, s);
        for t in 0..9u32 {
            assert_eq!(
                index.try_distance(s, t),
                Ok(Some(truth[t as usize])),
                "({s}, {t})"
            );
        }
    }
}
