//! Property-based tests (proptest) over the core invariants:
//!
//! * index answers == Dijkstra answers on arbitrary graphs and k policies;
//! * hierarchy invariants (independence, level-ascending peel edges,
//!   partition);
//! * label invariants (self entry, upper bounds, ancestor-set equality with
//!   the Definition 3 reference);
//! * Equation 1 merge-join == naive quadratic intersection;
//! * path validity;
//! * serialization roundtrips.

use islabel::core::hierarchy::check_independence;
use islabel::core::hierarchy::VertexHierarchy;
use islabel::core::label::LabelSet;
use islabel::core::reference;
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::{CsrGraph, GraphBuilder, VertexId, INF};
use proptest::prelude::*;

/// Strategy: an arbitrary simple weighted graph with up to `n_max` vertices
/// and `m_max` candidate edges (self-loops and duplicates collapse in the
/// builder).
fn arb_graph(n_max: usize, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    (2..n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1..20u32), 0..m_max).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    if u != v {
                        b.add_edge(u, v, w);
                    }
                }
                b.build()
            },
        )
    })
}

fn arb_config() -> impl Strategy<Value = BuildConfig> {
    prop_oneof![
        Just(BuildConfig::default()),
        Just(BuildConfig::full()),
        (2u32..6).prop_map(BuildConfig::fixed_k),
        (0.5f64..1.0).prop_map(BuildConfig::sigma),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_dijkstra(g in arb_graph(40, 120), config in arb_config(), qseed in 0u32..1000) {
        let index = IsLabelIndex::try_build(&g, config).unwrap();
        let n = g.num_vertices() as u32;
        for i in 0..12u32 {
            let s = (qseed.wrapping_add(i * 7919)) % n;
            let t = (qseed.wrapping_mul(31).wrapping_add(i * 104729)) % n;
            prop_assert_eq!(index.try_distance(s, t), Ok(reference::dijkstra_p2p(&g, s, t)));
        }
    }

    #[test]
    fn hierarchy_invariants(g in arb_graph(50, 150), config in arb_config()) {
        let h = VertexHierarchy::build(&g, &config);
        // Independence at every level.
        prop_assert!(check_independence(&h).is_ok());
        // Peel edges strictly ascend levels.
        for v in g.vertices() {
            for e in h.peel_adj(v) {
                prop_assert!(h.level_of(e.to) > h.level_of(v));
            }
        }
        // Levels plus G_k partition the vertex set.
        let peeled: usize = h.levels().iter().map(|l| l.len()).sum();
        prop_assert_eq!(peeled + h.num_gk_vertices(), g.num_vertices());
        // Level sets are sorted and disjoint.
        let mut seen = vec![false; g.num_vertices()];
        for l in h.levels() {
            prop_assert!(l.windows(2).all(|w| w[0] < w[1]));
            for &v in l {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn label_invariants(g in arb_graph(35, 90)) {
        let h = VertexHierarchy::build(&g, &BuildConfig::default());
        let ls = LabelSet::build(&h, true);
        for v in g.vertices() {
            let lv = ls.label(v);
            // Self entry with distance 0.
            prop_assert_eq!(lv.get(v), Some(0));
            // Ancestors sorted strictly ascending.
            prop_assert!(lv.ancestors.windows(2).all(|w| w[0] < w[1]));
            // d upper-bounds the true distance.
            let truth = reference::dijkstra_all(&g, v);
            for (anc, d) in lv.iter() {
                prop_assert!(truth[anc as usize] != INF);
                prop_assert!(d >= truth[anc as usize]);
            }
            // Algorithm 4 output equals the Definition 3 procedure.
            let expected = reference::definition3_label(&h, v);
            let got: Vec<(VertexId, u64)> = lv.iter().collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn intersect_equals_naive(
        a in proptest::collection::btree_map(0u32..60, 1u32..50, 0..20),
        b in proptest::collection::btree_map(0u32..60, 1u32..50, 0..20),
    ) {
        let (aa, ad): (Vec<u32>, Vec<u32>) = a.iter().map(|(&k, &v)| (k, v)).unzip();
        let (ba, bd): (Vec<u32>, Vec<u32>) = b.iter().map(|(&k, &v)| (k, v)).unzip();
        let va = islabel::core::label::LabelView { ancestors: &aa, dists: &ad };
        let vb = islabel::core::label::LabelView { ancestors: &ba, dists: &bd };
        let (got, witness) = islabel::core::query::intersect_min(va, vb);

        let mut naive = INF;
        for (k, v) in &a {
            if let Some(w) = b.get(k) {
                naive = naive.min(u64::from(v + w));
            }
        }
        prop_assert_eq!(got, naive);
        if got < INF {
            let w = witness.unwrap();
            prop_assert_eq!(u64::from(a[&w] + b[&w]), got);
        } else {
            prop_assert!(witness.is_none());
        }
    }

    #[test]
    fn paths_are_valid(g in arb_graph(30, 80), qseed in 0u32..500) {
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let n = g.num_vertices() as u32;
        for i in 0..8u32 {
            let s = (qseed + i * 97) % n;
            let t = (qseed * 3 + i * 389) % n;
            match (index.try_shortest_path(s, t).unwrap(), reference::dijkstra_p2p(&g, s, t)) {
                (Some(p), Some(d)) => {
                    prop_assert_eq!(p.length, d);
                    prop_assert!(p.validate_against(&g).is_ok());
                }
                (None, None) => {}
                (p, d) => prop_assert!(false, "path {:?} vs dist {:?}", p, d),
            }
        }
    }

    #[test]
    fn binary_roundtrip(g in arb_graph(40, 120)) {
        let mut buf = Vec::new();
        islabel::graph::io::write_csr_binary(&g, &mut buf).unwrap();
        let g2 = islabel::graph::io::read_csr_binary(&mut &buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_roundtrip(g in arb_graph(30, 80)) {
        let mut text = Vec::new();
        islabel::graph::io::write_edge_list(&g, &mut text).unwrap();
        let g2 = islabel::graph::io::parse_edge_list(std::str::from_utf8(&text).unwrap()).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn directed_index_matches_directed_dijkstra(
        n in 5usize..30,
        arcs in proptest::collection::vec((0u32..30, 0u32..30, 1u32..10), 0..100),
        qseed in 0u32..500,
    ) {
        let mut b = islabel::DigraphBuilder::new(n);
        for (u, v, w) in arcs {
            if (u as usize) < n && (v as usize) < n && u != v {
                b.add_arc(u, v, w);
            }
        }
        let g = b.build();
        let index = islabel::DiIsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        for i in 0..10u32 {
            let s = (qseed + i * 13) % n as u32;
            let t = (qseed * 7 + i * 29) % n as u32;
            prop_assert_eq!(index.try_distance(s, t), Ok(islabel::core::reference::di_dijkstra_p2p(&g, s, t)));
        }
    }

    #[test]
    fn persisted_index_answers_identically(g in arb_graph(30, 80), qseed in 0u32..500) {
        let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let buf = islabel::core::persist::v3::write_index(&index, std::io::Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        let reader = islabel::store::StoreReader::from_bytes(buf).unwrap();
        let loaded = islabel::core::persist::v3::read_index(reader).unwrap();
        let n = g.num_vertices() as u32;
        for i in 0..10u32 {
            let s = (qseed + i * 11) % n;
            let t = (qseed * 3 + i * 41) % n;
            prop_assert_eq!(loaded.try_distance(s, t), index.try_distance(s, t));
            prop_assert_eq!(loaded.try_shortest_path(s, t), index.try_shortest_path(s, t));
        }
    }

    #[test]
    fn updates_preserve_upper_bound_contract(
        g in arb_graph(25, 60),
        ops in proptest::collection::vec((0u32..25, 0u32..25, 1u32..8), 1..10),
        qseed in 0u32..500,
    ) {
        // Apply a random stream of vertex/edge insertions (no deletions of
        // peeled vertices, so staleness never triggers); every reported
        // distance must be >= the true distance on the updated graph, and
        // a rebuild must restore exactness.
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        for (i, &(a, b, w)) in ops.iter().enumerate() {
            let n = index.num_vertices() as u32;
            let (a, b) = (a % n, b % n);
            if i % 2 == 0 {
                index.try_insert_vertex(&[(a, w)]).unwrap();
            } else if a != b {
                index.try_insert_edge(a, b, w).unwrap();
            }
        }
        let current = index.current_graph();
        let n = current.num_vertices() as u32;
        for i in 0..10u32 {
            let s = (qseed + i * 17) % n;
            let t = (qseed * 5 + i * 23) % n;
            let truth = reference::dijkstra_p2p(&current, s, t);
            match (index.try_distance(s, t).unwrap(), truth) {
                (Some(got), Some(want)) => prop_assert!(got >= want, "{got} < {want}"),
                (Some(_), None) => prop_assert!(false, "distance for unreachable pair"),
                _ => {}
            }
        }
        index.rebuild();
        for i in 0..10u32 {
            let s = (qseed + i * 17) % n;
            let t = (qseed * 5 + i * 23) % n;
            prop_assert_eq!(index.try_distance(s, t), Ok(reference::dijkstra_p2p(&current, s, t)));
        }
    }

    #[test]
    fn external_sort_sorts(
        records in proptest::collection::vec((0u32..100, 0u32..100), 0..400),
        budget in 32usize..2048,
    ) {
        use islabel::extmem::Storage as _;
        let storage = islabel::extmem::MemStorage::new();
        let mut expected = records.clone();
        expected.sort();
        islabel::extmem::external_sort(
            &storage,
            records,
            "out",
            islabel::extmem::extsort::SortConfig { memory_budget: budget, fan_in: 2 },
        ).unwrap();
        let mut reader = islabel::extmem::RecordReader::new(storage.open("out").unwrap());
        let got: Vec<(u32, u32)> = reader.collect().unwrap();
        prop_assert_eq!(got, expected);
    }
}
