//! The µ-bounded `G_k` search, driven through public parts.
//!
//! The kernel is started from adversarial states — µ0 = ∞, µ0 at, above and
//! below the true distance, duplicate seeds, one vertex seeded on both
//! sides, seeds at or beyond µ0, no seeds at all — over every view the
//! sessions hand it (pristine `DenseCsr`, directed fwd/transposed pair,
//! `PatchedDense`, the split sections of a mapped artifact) and held to
//! three things: the answer is `min(µ0, seeded reference distance)`; the
//! distance query and the path query (the same loop with parent recording
//! compiled in) return the same outcome; and a `Meeting::Search(v)` is
//! justified by the kernel's own parent chains — each step an edge of the
//! view, the two chains summing to exactly that length.
//!
//! The last test pins the exact work counts of fixed query sets, so a kernel
//! edit that stops pruning, or settles in another order, fails as a count,
//! not as a noisy timing.

mod common;

use common::TempDir;
use islabel::core::dense::{
    dense_bi_dijkstra, dense_search, DenseCsr, DenseGk, DenseParents, DensePatch, DenseScratch,
    DenseView, GkIdMap, PatchedDense,
};
use islabel::core::hierarchy::VertexHierarchy;
use islabel::core::persist::try_save_index_to_path;
use islabel::core::query::Meeting;
use islabel::core::reference::{di_dijkstra_p2p, dijkstra_p2p};
use islabel::core::MmapIndex;
use islabel::graph::datasets::{Dataset, Scale};
use islabel::graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
use islabel::graph::GraphBuilder;
use islabel::prelude::*;
use islabel::store::format::{SECTION_GK_OFFSETS, SECTION_GK_TARGETS, SECTION_GK_WEIGHTS};
use islabel::store::StoreReader;

type Seeds = Vec<(u32, Dist)>;

/// `min_{i,j} d_i + dist(v_i, u_j) + e_j` by reference point-to-point
/// searches.
fn seeded_reference(p2p: &dyn Fn(u32, u32) -> Option<Dist>, f: &Seeds, r: &Seeds) -> Dist {
    let mut best = INF;
    for &(v, d) in f {
        for &(u, e) in r {
            if let Some(mid) = p2p(v, u) {
                best = best.min(d + mid + e);
            }
        }
    }
    best
}

/// Length of a parent chain (seed first) over `view`: the seed's
/// (smallest) label distance plus the weight of every step, each of which
/// must be an edge of the view.
fn chain_length<G: DenseView>(view: &G, chain: &[u32], seeds: &Seeds) -> Dist {
    let seed = seeds
        .iter()
        .filter(|&&(v, _)| v == chain[0])
        .map(|&(_, d)| d);
    let mut len = seed.min().expect("chain starts at a seed");
    for step in chain.windows(2) {
        let edge = view.edges_of(step[0]).filter(|&(u, _)| u == step[1]);
        len += edge
            .map(|(_, w)| w)
            .min()
            .expect("parent step is an edge of the view") as Dist;
    }
    len
}

/// One start state: the answer is the seeded reference capped by µ0, with
/// and without parent recording, and the meeting explains it.
#[allow(clippy::too_many_arguments)]
fn check_start<G: DenseView>(
    what: &str,
    fwd: &G,
    rev: &G,
    scratch: &mut DenseScratch,
    tracked: &mut DenseScratch<DenseParents>,
    fseeds: &Seeds,
    rseeds: &Seeds,
    reference: Dist,
    mu0: Dist,
) {
    const WITNESS: VertexId = 4_000_000;
    let witness = (mu0 < INF).then_some(WITNESS);
    let out = dense_bi_dijkstra(fwd, rev, fseeds, rseeds, mu0, witness, scratch);
    let what = format!("{what} f={fseeds:?} r={rseeds:?} mu0={mu0} ref={reference}");
    assert_eq!(out.dist, mu0.min(reference), "{what}");

    let with_parents = dense_search(fwd, rev, fseeds, rseeds, mu0, witness, tracked);
    assert_eq!(out, with_parents, "{what}");
    assert!(out.pushed <= out.relaxed + fseeds.len() + rseeds.len());

    match out.meeting {
        Meeting::None => assert_eq!(out.dist, INF, "{what}"),
        Meeting::Labels(w) => {
            assert_eq!(w, WITNESS, "{what}");
            assert!(mu0 <= reference && out.dist == mu0, "{what}");
        }
        Meeting::Search(m) => {
            assert!(reference < mu0, "{what}");
            let parents = tracked.parents();
            let fchain = parents.chain(true, m).expect("forward side reached m");
            let rchain = parents.chain(false, m).expect("reverse side reached m");
            let path = chain_length(fwd, &fchain, fseeds) + chain_length(rev, &rchain, rseeds);
            assert_eq!(path, out.dist, "{what}: path through {m}");
        }
    }
}

/// Every adversarial start over one view of `m` dense vertices; `p2p` is
/// the reference distance between two dense ids.
fn check_view<G: DenseView>(what: &str, fwd: &G, rev: &G, p2p: &dyn Fn(u32, u32) -> Option<Dist>) {
    let m = fwd.num_vertices() as u32;
    let mut scratch = DenseScratch::new(m as usize);
    let mut tracked = DenseScratch::with_parents(m as usize);
    for i in 0..24u32 {
        let (s, t) = ((i * 37 + 1) % m, (i * 101 + 17) % m);
        let (s2, t2, x) = ((s + 5) % m, (t + 9) % m, (i * 53 + 29) % m);
        let seed_sets: [(Seeds, Seeds); 7] = [
            // Plain point-to-point.
            (vec![(s, 0)], vec![(t, 0)]),
            // Several seeds a side, like a label's G_k entries.
            (vec![(s, 2), (s2, 0)], vec![(t, 1), (t2, 3)]),
            // Duplicates, cheapest neither first nor last.
            (vec![(s, 4), (s, 0), (s, 2)], vec![(t, 1), (t, 1)]),
            // One vertex seeded on both sides.
            (vec![(s, 0), (x, 2)], vec![(x, 3), (t, 0)]),
            // A seed far beyond any µ0 tried below.
            (vec![(s2, 1_000_000), (s, 1)], vec![(t, 0), (t2, 1_000_000)]),
            // No G_k entry in one label, or in either: Equation 1 alone
            // answers (µ0 = ∞ included, which must come back as no path).
            (vec![], vec![(t, 0)]),
            (vec![], vec![]),
        ];
        for (fseeds, rseeds) in &seed_sets {
            let reference = seeded_reference(p2p, fseeds, rseeds);
            let mut starts = vec![INF, 0, 3];
            if reference < INF {
                // Exactly the answer, loosely above it, just below it.
                starts.extend([reference, reference + 5, reference.saturating_sub(1)]);
            }
            for mu0 in starts {
                check_start(
                    what,
                    fwd,
                    rev,
                    &mut scratch,
                    &mut tracked,
                    fseeds,
                    rseeds,
                    reference,
                    mu0,
                );
            }
        }
    }
}

fn undirected_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "er",
            erdos_renyi_gnm(260, 620, WeightModel::UniformRange(1, 9), 5),
        ),
        (
            "ba",
            barabasi_albert(260, 3, WeightModel::UniformRange(1, 5), 8),
        ),
        ("grid", grid2d(16, 16, WeightModel::UniformRange(1, 4), 2)),
    ]
}

/// The whole graph as `G_k`: dense ids are the graph's own.
fn whole_graph(g: &CsrGraph) -> DenseGk {
    let members: Vec<VertexId> = g.vertices().collect();
    DenseGk::undirected(g.num_vertices(), &members, g)
}

#[test]
fn pristine_view_from_adversarial_starts() {
    for (name, g) in undirected_graphs() {
        let dense = whole_graph(&g);
        check_view(name, dense.fwd(), dense.rev(), &|a, b| {
            dijkstra_p2p(&g, a, b)
        });
    }
}

#[test]
fn directed_view_from_adversarial_starts() {
    let n = 240u32;
    let mut b = DigraphBuilder::new(n as usize);
    let mut state = 0xA11CEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..900 {
        let (u, v) = (
            (next() % n as u64) as VertexId,
            (next() % n as u64) as VertexId,
        );
        if u != v {
            b.add_arc(u, v, (next() % 6 + 1) as Weight);
        }
    }
    let g = b.build();
    let members: Vec<VertexId> = g.vertices().collect();
    let dense = DenseGk::directed(
        GkIdMap::build(n as usize, &members),
        DenseCsr::build(n as usize, |d| g.out_edges(d)),
        DenseCsr::build(n as usize, |d| g.in_edges(d)),
    );
    check_view("directed", dense.fwd(), dense.rev(), &|a, b| {
        di_dijkstra_p2p(&g, a, b)
    });
}

#[test]
fn patched_view_from_adversarial_starts() {
    for (name, g) in undirected_graphs() {
        let n = g.num_vertices() as u32;
        let dense = whole_graph(&g);
        // Three inserted vertices on the tail, wired to the base and to
        // each other, some shortcut edges between base vertices, and
        // tombstones on a base vertex and on one of the insertions.
        let extra: [(u32, u32, Weight); 8] = [
            (n, 3, 1),
            (n, n / 2, 1),
            (n + 1, n, 2),
            (n + 1, n - 1, 1),
            (n + 2, 7, 1),
            (n + 2, n / 3, 1),
            (1, n - 2, 1),
            (n / 4, n / 2 + 1, 2),
        ];
        let dead = [11u32, n + 2];
        let mut patch = DensePatch::new(n as usize, 3);
        let mut current = GraphBuilder::new(n as usize + 3);
        for (u, v, w) in g.edge_list() {
            if !dead.contains(&u) && !dead.contains(&v) {
                current.add_edge(u, v, w);
            }
        }
        for &(u, v, w) in &extra {
            patch.push_edge(u, v, w);
            patch.push_edge(v, u, w);
            if !dead.contains(&u) && !dead.contains(&v) {
                current.add_edge(u, v, w);
            }
        }
        for d in dead {
            patch.mark_dead(d);
        }
        let current = current.build();
        let view = PatchedDense {
            base: dense.fwd(),
            patch: &patch,
        };
        check_view(&format!("patched {name}"), &view, &view, &|a, b| {
            dijkstra_p2p(&current, a, b)
        });
    }
}

#[test]
fn patched_tail_is_read_past_the_cut() {
    // Base `G_k`: 0 –50– 1, 0 –60– 3, 1 –1– 2, so vertex 0's row is
    // [(1, 50), (3, 60)]. The inserted edge 0 –1– 2 is lighter than
    // (3, 60), where µ cuts that row, and carries the shortest path
    // 0 → 2 → 1, of length 2. Chained into the cut run instead of read as
    // a tail, it is never relaxed and the search answers 50 (or µ0).
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 50);
    b.add_edge(0, 3, 60);
    b.add_edge(1, 2, 1);
    let base = b.build();
    let dense = whole_graph(&base);
    let mut patch = DensePatch::new(4, 0);
    patch.push_edge(0, 2, 1);
    patch.push_edge(2, 0, 1);
    let mut current = GraphBuilder::new(4);
    for (u, v, w) in base.edge_list() {
        current.add_edge(u, v, w);
    }
    current.add_edge(0, 2, 1);
    let current = current.build();
    let view = PatchedDense {
        base: dense.fwd(),
        patch: &patch,
    };
    let reference = dijkstra_p2p(&current, 0, 1).unwrap();
    assert_eq!(reference, 2);
    let mut scratch = DenseScratch::new(4);
    let mut tracked = DenseScratch::with_parents(4);
    // µ0 = ∞: settling 0 relaxes (1, 50), µ becomes 50, and (3, 60) cuts
    // the run. µ0 = 10: the run is cut at its first entry.
    for mu0 in [INF, 10] {
        check_start(
            "patched tail",
            &view,
            &view,
            &mut scratch,
            &mut tracked,
            &vec![(0, 0)],
            &vec![(1, 0)],
            reference,
            mu0,
        );
    }
    check_view("patched tail", &view, &view, &|a, b| {
        dijkstra_p2p(&current, a, b)
    });
}

/// The split `G_k` sections of a mapped artifact, as the kernel's view.
struct Mapped<'a> {
    offsets: &'a [u32],
    targets: &'a [u32],
    weights: &'a [u32],
}

impl DenseView for Mapped<'_> {
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn edges_of(&self, d: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let (lo, hi) = (
            self.offsets[d as usize] as usize,
            self.offsets[d as usize + 1] as usize,
        );
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }
}

#[test]
fn mapped_view_from_adversarial_starts() {
    let dir = TempDir::new("mu-bounded-mapped");
    for (name, g) in undirected_graphs() {
        // A two-level hierarchy leaves a G_k worth searching.
        let index = IsLabelIndex::try_build(&g, BuildConfig::fixed_k(2)).unwrap();
        let path = dir.join(format!("{name}.islx"));
        try_save_index_to_path(&index, &path).unwrap();
        let mapped = MmapIndex::open(&path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let section = |kind| reader.section_u32s(kind).unwrap().unwrap();
        let view = Mapped {
            offsets: section(SECTION_GK_OFFSETS),
            targets: section(SECTION_GK_TARGETS),
            weights: section(SECTION_GK_WEIGHTS),
        };
        let dense = index.dense_gk();
        let ids = dense.ids();
        assert_eq!(view.num_vertices(), ids.len());
        assert!(ids.len() > 50, "{name}: G_k of {}", ids.len());
        // The builder's full-universe `G_k`, which the index does not keep.
        let hierarchy = VertexHierarchy::build(&g, &BuildConfig::fixed_k(2));
        let gk = hierarchy.gk();
        check_view(&format!("mapped {name}"), &view, &view, &|a, b| {
            dijkstra_p2p(gk, ids.global(a), ids.global(b))
        });
        // And the engine over the same bytes answers like the graph.
        let mut session = mapped.session();
        for i in 0..60u32 {
            let (s, t) = ((i * 7) % 256, (i * 13 + 5) % 256);
            assert_eq!(session.distance(s, t).unwrap(), dijkstra_p2p(&g, s, t));
        }
    }
}

/// Runs `pairs` through `session` and returns its trace's
/// `(settled, relaxed, pushed)` totals.
fn work_totals(mut session: impl QuerySession, n: u32, pairs: u32) -> (u64, u64, u64) {
    for i in 0..pairs {
        let (s, t) = ((i * 97 + 3) % n, (i * 131 + 50) % n);
        session.distance(s, t).unwrap();
    }
    let trace = session.trace().unwrap();
    (trace.settled, trace.relaxed, trace.pushed)
}

#[test]
fn search_work_counts_are_pinned() {
    // Exact (settled, relaxed, pushed) totals of fixed query sets.
    // `settled` is the check that the settle order is the graph's alone:
    // it did not move when rows became weight-ordered and µ began to cut
    // them, while `relaxed` fell from 163 182 to 26 685 on Web-like and
    // from 576 188 to 121 108 on BA, and `pushed` from 27 706 to 25 811 and
    // from 99 306 to 94 949 (the lighter edges of a row now land first and
    // shrink µ sooner). With the relaxation bound taken out of the kernel
    // altogether, `pushed` reads 85 604 on Web-like and 406 893 on BA.
    let web = Dataset::WebLike.generate(Scale::Small);
    let index = IsLabelIndex::try_build(&web, BuildConfig::default()).unwrap();
    assert_eq!(
        work_totals(index.session(), web.num_vertices() as u32, 500),
        WEB_TOTALS
    );

    let ba = barabasi_albert(3_000, 4, WeightModel::UniformRange(1, 5), 17);
    let mut index = IsLabelIndex::try_build(&ba, BuildConfig::default()).unwrap();
    assert_eq!(work_totals(index.session(), 3_000, 500), BA_TOTALS);

    // The same index carrying updates: the patched view. Edges and
    // vertices land on peeled and residual endpoints alike; deletions name
    // `G_k` members only, which keeps the index exact (not stale).
    for i in 0..40u32 {
        let (a, b) = ((i * 37 + 1) % 3_000, (i * 53 + 400) % 3_000);
        index.try_insert_edge(a, b, i % 5 + 1).unwrap();
    }
    for i in 0..10u32 {
        index
            .try_insert_vertex(&[((i * 97 + 3) % 3_000, 2), ((i * 61 + 700) % 3_000, 4)])
            .unwrap();
    }
    for i in 0..8usize {
        let v = index.hierarchy().gk_members()[i * 5 + 2];
        index.try_delete_vertex(v).unwrap();
    }
    assert!(index.has_updates() && !index.is_stale());
    assert_eq!(work_totals(index.session(), 3_010, 500), PATCHED_BA_TOTALS);

    let grid = grid2d(60, 60, WeightModel::UniformRange(1, 10), 7);
    let index = IsLabelIndex::try_build(&grid, BuildConfig::default()).unwrap();
    assert_eq!(work_totals(index.session(), 3_600, 300), GRID_TOTALS);

    let mut arcs = DigraphBuilder::new(3_000);
    for (u, v, w) in ba.edge_list() {
        arcs.add_arc(u, v, w);
        if (u + v) % 3 != 0 {
            arcs.add_arc(v, u, w + 1);
        }
    }
    let index = DiIsLabelIndex::try_build(&arcs.build(), BuildConfig::default()).unwrap();
    assert_eq!(work_totals(index.session(), 3_000, 500), DIRECTED_TOTALS);
}

const WEB_TOTALS: (u64, u64, u64) = (4_732, 26_685, 25_811);
const BA_TOTALS: (u64, u64, u64) = (16_231, 121_108, 94_949);
const PATCHED_BA_TOTALS: (u64, u64, u64) = (18_788, 141_354, 107_453);
const GRID_TOTALS: (u64, u64, u64) = (136_835, 1_670_320, 291_535);
const DIRECTED_TOTALS: (u64, u64, u64) = (18_633, 126_200, 96_490);
