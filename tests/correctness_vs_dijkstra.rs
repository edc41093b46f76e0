//! Broad randomized correctness: IS-LABEL answers must equal Dijkstra
//! answers on every dataset family, weight model, and k-selection policy
//! (Theorems 2–4).

use islabel::baselines::{BiDijkstra, PllIndex, VcConfig, VcIndex};
use islabel::core::reference::dijkstra_p2p;
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::graph::generators::{
    barabasi_albert, erdos_renyi_gnm, grid2d, rmat, watts_strogatz, RmatParams, WeightModel,
};
use islabel::{CsrGraph, Dataset, Scale, VertexId};

fn check(g: &CsrGraph, config: BuildConfig, queries: usize, tag: &str) {
    let index = IsLabelIndex::try_build(g, config).unwrap();
    let n = g.num_vertices();
    for i in 0..queries {
        let s = ((i * 2654435761) % n) as VertexId;
        let t = ((i * 40503 + n / 3) % n) as VertexId;
        assert_eq!(
            index.try_distance(s, t),
            Ok(dijkstra_p2p(g, s, t)),
            "{tag} ({s}, {t})"
        );
    }
}

#[test]
fn every_generator_family() {
    let cases: Vec<(&str, CsrGraph)> = vec![
        ("er-unit", erdos_renyi_gnm(300, 700, WeightModel::Unit, 1)),
        (
            "er-weighted",
            erdos_renyi_gnm(300, 700, WeightModel::UniformRange(1, 50), 2),
        ),
        (
            "ba",
            barabasi_albert(300, 3, WeightModel::UniformRange(1, 5), 3),
        ),
        (
            "ws",
            watts_strogatz(300, 6, 0.2, WeightModel::UniformRange(1, 9), 4),
        ),
        ("grid", grid2d(17, 18, WeightModel::UniformRange(1, 4), 5)),
        (
            "rmat",
            rmat(8, 5, RmatParams::default(), WeightModel::Unit, 6),
        ),
    ];
    for (tag, g) in &cases {
        check(g, BuildConfig::default(), 80, tag);
    }
}

#[test]
fn every_k_selection_policy() {
    let g = barabasi_albert(400, 3, WeightModel::UniformRange(1, 7), 9);
    for (tag, config) in [
        ("sigma95", BuildConfig::sigma(0.95)),
        ("sigma70", BuildConfig::sigma(0.70)),
        ("k2", BuildConfig::fixed_k(2)),
        ("k5", BuildConfig::fixed_k(5)),
        ("full", BuildConfig::full()),
    ] {
        check(&g, config, 120, tag);
    }
}

#[test]
fn all_paper_datasets_at_tiny_scale() {
    for ds in Dataset::ALL {
        let g = ds.generate(Scale::Tiny);
        check(&g, BuildConfig::default(), 60, ds.name());
    }
}

#[test]
fn disconnected_forests() {
    // A forest of disjoint stars: most pairs are unreachable.
    let mut b = islabel::GraphBuilder::new(120);
    for c in 0..10u32 {
        let center = c * 12;
        for leaf in 1..12u32 {
            b.add_edge(center, center + leaf, leaf);
        }
    }
    let g = b.build();
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    for s in (0..120u32).step_by(7) {
        for t in (0..120u32).step_by(11) {
            assert_eq!(
                index.try_distance(s, t),
                Ok(dijkstra_p2p(&g, s, t)),
                "({s}, {t})"
            );
        }
    }
}

#[test]
fn all_methods_agree_on_shared_workload() {
    // IS-LABEL, VC-Index(P2P), PLL and bidirectional Dijkstra must return
    // identical answers — the cross-validation behind Table 8.
    let g = Dataset::SkitterLike.generate(Scale::Tiny);
    let n = g.num_vertices();
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let vc = VcIndex::build(&g, VcConfig::default());
    let pll = PllIndex::build(&g);
    let mut bidij = BiDijkstra::new(n);
    for i in 0..150usize {
        let s = ((i * 48271) % n) as VertexId;
        let t = ((i * 16807 + 11) % n) as VertexId;
        let a = index.try_distance(s, t).unwrap();
        let b = vc.try_distance(s, t).unwrap();
        let c = pll.try_distance(s, t).unwrap();
        let d = bidij.distance(&g, s, t);
        assert!(
            a == b && b == c && c == d,
            "({s}, {t}): {a:?} {b:?} {c:?} {d:?}"
        );
    }
}

#[test]
fn heavyweight_weights_work_within_contract() {
    // Large weights whose shortest-path sums still fit in u32 (the
    // documented construction contract); query distances accumulate in u64.
    let w = u32::MAX / 64;
    let mut b = islabel::GraphBuilder::new(40);
    for v in 0..39u32 {
        b.add_edge(v, v + 1, w);
    }
    let g = b.build();
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    assert_eq!(index.try_distance(0, 39), Ok(Some(39 * w as u64)));
}

#[test]
#[should_panic(expected = "augmenting edge weight overflows")]
fn overflowing_weights_fail_loudly_not_silently() {
    // Out-of-contract weights (2-hop repairs exceed u32) must panic with a
    // clear message instead of wrapping into wrong distances. A 5-path
    // forces the greedy IS to peel the middle vertex, whose repair edge
    // would weigh 2 · u32::MAX.
    let mut b = islabel::GraphBuilder::new(5);
    for v in 0..4u32 {
        b.add_edge(v, v + 1, u32::MAX);
    }
    let g = b.build();
    let _ = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
}

#[test]
fn label_distance_past_u32_fails_loudly_not_silently() {
    // Labels store u32 distances. Here no augmenting edge ever forms (every
    // peeled vertex has one neighbour left), so only the label check can
    // catch the overflow: peeling 0 and the leaves 3, 4, 5, then 1, gives
    // label(0) the entry (2, 6 000 000 000). Both builders must refuse it
    // with the weight contract's message, under the full hierarchy and the
    // default σ rule.
    let mut b = islabel::GraphBuilder::new(6);
    b.add_edge(0, 1, 3_000_000_000);
    b.add_edge(1, 2, 3_000_000_000);
    for leaf in 3..6 {
        b.add_edge(2, leaf, 1);
    }
    let g = b.build();
    let message = |built: std::thread::Result<()>| {
        let payload = built.expect_err("an out-of-contract label must not build");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    };
    for config in [BuildConfig::full(), BuildConfig::default()] {
        let in_memory = std::panic::catch_unwind(|| {
            let _ = IsLabelIndex::try_build(&g, config);
        });
        let external = std::panic::catch_unwind(|| {
            let storage = islabel::extmem::MemStorage::new();
            let _ = islabel::core::embuild::build_external_from_csr(
                &storage,
                &g,
                config,
                islabel::core::embuild::EmConfig::default(),
            );
        });
        for (builder, built) in [("in-memory", in_memory), ("external", external)] {
            let msg = message(built);
            assert!(
                msg.contains("label distance overflows u32"),
                "{builder} {config:?}: {msg}"
            );
        }
    }
}

#[test]
fn label_distance_of_exactly_u32_max_builds_and_answers() {
    // The shape above with weights that sum to exactly u32::MAX: label(0)
    // gets the entry (2, u32::MAX), the largest distance a label holds. A
    // labeling slot that read u32::MAX as "unset" would drop that entry.
    // Both builders must keep it and answer the distance and the path.
    let w01 = 2_000_000_000u32;
    let mut b = islabel::GraphBuilder::new(6);
    b.add_edge(0, 1, w01);
    b.add_edge(1, 2, u32::MAX - w01);
    for leaf in 3..6 {
        b.add_edge(2, leaf, 1);
    }
    let g = b.build();
    let max = u64::from(u32::MAX);
    for config in [BuildConfig::full(), BuildConfig::default()] {
        let storage = islabel::extmem::MemStorage::new();
        let external = islabel::core::embuild::build_external_from_csr(
            &storage,
            &g,
            config,
            islabel::core::embuild::EmConfig::default(),
        )
        .unwrap();
        let in_memory = IsLabelIndex::try_build(&g, config).unwrap();
        assert_eq!(external.labels(), in_memory.labels(), "{config:?}");
        for (builder, index) in [("in-memory", &in_memory), ("external", &external)] {
            let tag = format!("{builder} {config:?}");
            assert_eq!(index.labels().label(0).get(2), Some(max), "{tag}");
            assert_eq!(index.try_distance(0, 2), Ok(Some(max)), "{tag}");
            assert_eq!(index.try_distance(0, 5), Ok(Some(max + 1)), "{tag}");
            let path = index.try_shortest_path(0, 2).unwrap().expect(&tag);
            assert_eq!(path.vertices, vec![0, 1, 2], "{tag}");
            assert_eq!(path.length, max, "{tag}");
        }
    }
}
