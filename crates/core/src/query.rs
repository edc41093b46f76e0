//! Query processing: Equation 1 label intersection and the label-based
//! bidirectional Dijkstra of Algorithm 1.
//!
//! A query `(s, t)` proceeds in two stages (paper Section 5.2):
//!
//! 1. **Label intersection** (Equation 1): merge-join the two sorted labels
//!    and take `µ = min_{w ∈ X} d(s, w) + d(w, t)`. With a full hierarchy
//!    (`G_k = ∅`) this alone is the exact answer (Theorem 2); with a k-level
//!    hierarchy it is an upper bound that seeds the pruning.
//! 2. **Bidirectional Dijkstra on `G_k`** (Algorithm 1): the forward queue
//!    starts from the `G_k` vertices in `label(s)` at their label distances
//!    (which are exact by the Theorem 3/4 argument), the reverse queue
//!    likewise from `label(t)`; the search stops when
//!    `min(FQ) + min(RQ) ≥ µ`. The same bound prunes the work on the way:
//!    a relaxation whose key plus the opposite queue's minimum is `≥ µ` is
//!    skipped, and one that lands tightens `µ` against the opposite side's
//!    tentative distance (see [`label_bi_dijkstra_directed_in`]).
//!
//! If a query's labels contribute no `G_k` seeds at all, the search loop
//! never runs and the Equation 1 value is returned — exactly the paper's
//! "Type 1" correctness case (Theorem 3).
//!
//! Two kernels implement the search stage:
//!
//! * the **sparse (hashmap) kernel** in this module — global vertex ids,
//!   hash-map state, lazy-deletion binary heaps. It accepts any
//!   [`GkGraph`], which is what the dynamic-update overlay's patched
//!   residual view needs, and doubles as the reference implementation the
//!   conformance suite checks the fast path against;
//! * the **dense kernel** in [`crate::dense`] — compact `0..|G_k|` ids,
//!   generation-stamped flat arrays and an indexed 4-ary heap with
//!   decrease-key. Sessions route distance queries through it; it applies
//!   the same two µ rules at the same two sites and returns bit-identical
//!   `(dist, meeting, settled)` outcomes.
//!
//! The merge-join intersections here are an **alloc-free zone** enforced
//! by `islabel-lint` (see `lint.toml` at the repo root).

use crate::label::LabelView;
use islabel_graph::{CsrGraph, Dist, FxHashMap, VertexId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Experimental query classification of Table 5 (which is keyed by how many
/// endpoints lie in `G_k`, *not* by the correctness cases of Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryType {
    /// Both `s` and `t` are in `G_k`: no label lookup needed at all.
    BothInGk,
    /// Exactly one endpoint is in `G_k`: one label lookup.
    OneInGk,
    /// Neither endpoint is in `G_k`: two label lookups.
    NeitherInGk,
}

impl QueryType {
    /// The paper's 1-based type number in Table 5.
    pub fn number(&self) -> u8 {
        match self {
            QueryType::BothInGk => 1,
            QueryType::OneInGk => 2,
            QueryType::NeitherInGk => 3,
        }
    }

    /// How many label fetches this query type performs.
    pub fn label_fetches(&self) -> u8 {
        match self {
            QueryType::BothInGk => 0,
            QueryType::OneInGk => 1,
            QueryType::NeitherInGk => 2,
        }
    }
}

/// Equation 1: `min_{w ∈ X} d(s, w) + d(w, t)` over the label intersection
/// `X`, as a linear merge-join over the two ancestor-sorted labels. Returns
/// `(INF, None)` when `X = ∅` (the paper's `∞` case).
pub fn intersect_min(a: LabelView<'_>, b: LabelView<'_>) -> (Dist, Option<VertexId>) {
    let mut best = INF;
    let mut witness = None;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.ancestors.len() && j < b.ancestors.len() {
        let (av, bv) = (a.ancestors[i], b.ancestors[j]);
        match av.cmp(&bv) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let sum = a.dists[i].saturating_add(b.dists[j]);
                if sum < best {
                    best = sum;
                    witness = Some(av);
                }
                i += 1;
                j += 1;
            }
        }
    }
    (best, witness)
}

/// Length ratio beyond which [`intersect_min_adaptive`] switches from the
/// linear merge to galloping: with `|long| / |short| ≥ 8`, the
/// `O(|short| · log |long|)` skip-search beats scanning the long label.
pub const GALLOP_CROSSOVER: usize = 8;

/// Equation 1 with an adaptive strategy: the linear merge-join of
/// [`intersect_min`] for similarly sized labels, and a **galloping**
/// intersection when one label is at least [`GALLOP_CROSSOVER`]× longer
/// than the other — each entry of the short label gallops (doubling probe
/// stride, then binary search) forward into the unscanned tail of the long
/// one, so heavily skewed intersections (a leaf label against a hub label)
/// cost `O(|short| · log |long|)` instead of `O(|short| + |long|)`.
///
/// Returns exactly what [`intersect_min`] returns on every input; the
/// query hot paths call this form.
pub fn intersect_min_adaptive(a: LabelView<'_>, b: LabelView<'_>) -> (Dist, Option<VertexId>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(GALLOP_CROSSOVER) > long.len() {
        return intersect_min(a, b);
    }
    let mut best = INF;
    let mut witness = None;
    let mut lo = 0usize;
    for (i, &anc) in short.ancestors.iter().enumerate() {
        let tail = &long.ancestors[lo..];
        if tail.is_empty() {
            break;
        }
        // Gallop: double the probe stride until the bracket contains `anc`,
        // then binary-search the bracket. The cursor only moves forward, so
        // a run of short-label entries mapping into one long-label region
        // stays cheap.
        let mut hi = 1usize;
        while hi < tail.len() && tail[hi] < anc {
            hi *= 2;
        }
        // `tail[hi] >= anc` (or `hi` ran off the end), so the bracket must
        // include index `hi` itself for an exact hit there to be found.
        let window = &tail[..(hi + 1).min(tail.len())];
        match window.binary_search(&anc) {
            Ok(p) => {
                let j = lo + p;
                let sum = short.dists[i].saturating_add(long.dists[j]);
                if sum < best {
                    best = sum;
                    witness = Some(anc);
                }
                lo = j + 1;
            }
            Err(p) => {
                lo += p;
            }
        }
    }
    (best, witness)
}

/// Adjacency provider for the search stage. `CsrGraph` is the normal case;
/// the update overlay provides a patched view after dynamic insertions.
pub trait GkGraph {
    /// Iterates `(neighbor, weight)` of `v` in the residual graph.
    fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_;
}

impl GkGraph for CsrGraph {
    #[inline]
    fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.edges(v)
    }
}

/// How the best distance was discovered — drives path reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meeting {
    /// No path exists.
    None,
    /// Equation 1 won: the optimum goes through common label ancestor `w`
    /// without improving inside `G_k`.
    Labels(VertexId),
    /// The bidirectional search won: the optimum passes through `G_k`
    /// vertex `m`, with `dist = dist_f(m) + dist_r(m)`.
    Search(VertexId),
}

/// Inputs of one bidirectional search.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams<'a> {
    /// Forward seeds: `(v, d(s, v))` for each `G_k` vertex in `label(s)`.
    pub fseeds: &'a [(VertexId, Dist)],
    /// Reverse seeds from `label(t)`.
    pub rseeds: &'a [(VertexId, Dist)],
    /// Initial `µ` from Equation 1 (`INF` if the labels do not intersect).
    pub mu0: Dist,
    /// The ancestor realizing `mu0`.
    pub mu0_witness: Option<VertexId>,
    /// Record parent pointers for path reconstruction.
    pub track_paths: bool,
}

/// Output of one bidirectional search.
#[derive(Debug)]
pub struct SearchResult {
    /// `dist_G(s, t)`, or `INF` if unreachable.
    pub dist: Dist,
    /// Which mechanism found it.
    pub meeting: Meeting,
    /// Vertices settled across both directions (the paper's `S`);
    /// diagnostic for Time (b) analysis.
    pub settled: usize,
    /// Forward parent pointers (`SEED_PARENT` marks a label seed); empty
    /// unless `track_paths`.
    pub parents_f: FxHashMap<VertexId, VertexId>,
    /// Reverse parent pointers; empty unless `track_paths`.
    pub parents_r: FxHashMap<VertexId, VertexId>,
    /// Final forward tentative distances; empty unless `track_paths`.
    pub dist_f: FxHashMap<VertexId, Dist>,
    /// Final reverse tentative distances; empty unless `track_paths`.
    pub dist_r: FxHashMap<VertexId, Dist>,
}

/// Parent marker for vertices seeded directly from a label entry.
pub const SEED_PARENT: VertexId = VertexId::MAX;

/// Reusable workspace of one bidirectional search: heaps, tentative
/// distances and parent pointers.
///
/// Allocating these per query dominated the hot path; a [`SearchScratch`]
/// owned by a long-lived session (see
/// [`QuerySession`](crate::oracle::QuerySession)) amortizes the allocations
/// across queries. Maps and heaps keep their capacity between searches;
/// [`label_bi_dijkstra_directed_in`] resets contents on entry.
#[derive(Debug, Default)]
pub struct SearchScratch {
    dist_f: FxHashMap<VertexId, Dist>,
    dist_r: FxHashMap<VertexId, Dist>,
    parents_f: FxHashMap<VertexId, VertexId>,
    parents_r: FxHashMap<VertexId, VertexId>,
    fq: BinaryHeap<Reverse<(Dist, VertexId)>>,
    rq: BinaryHeap<Reverse<(Dist, VertexId)>>,
}

impl SearchScratch {
    /// An empty workspace; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.dist_f.clear();
        self.dist_r.clear();
        self.parents_f.clear();
        self.parents_r.clear();
        self.fq.clear();
        self.rq.clear();
    }
}

/// Result of a scratch-based search: the answer without the per-search
/// maps, which stay inside the [`SearchScratch`] for reuse.
#[derive(Debug, Clone, Copy)]
pub struct SearchOutcome {
    /// `dist_G(s, t)`, or `INF` if unreachable.
    pub dist: Dist,
    /// Which mechanism found it.
    pub meeting: Meeting,
    /// Vertices settled across both directions.
    pub settled: usize,
    /// Edges scanned by the settles, pruned ones included.
    pub relaxed: usize,
    /// Heap pushes (or decrease-keys), seeds included: the relaxations
    /// that survived the µ bound.
    pub pushed: usize,
}

/// Algorithm 1 over a single (undirected) residual graph.
pub fn label_bi_dijkstra<G: GkGraph>(gk: &G, params: SearchParams<'_>) -> SearchResult {
    label_bi_dijkstra_directed(gk, gk, params)
}

/// Algorithm 1 over a single (undirected) residual graph, reusing a
/// caller-owned [`SearchScratch`] — the allocation-free hot path sessions
/// run on.
pub fn label_bi_dijkstra_in<G: GkGraph>(
    gk: &G,
    params: SearchParams<'_>,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    label_bi_dijkstra_directed_in(gk, gk, params, scratch)
}

/// Algorithm 1 with lazy-deletion binary heaps, generalized to distinct
/// forward/reverse adjacency so the directed index (Section 8.2) can run the
/// reverse search over transposed arcs.
///
/// Allocates a fresh workspace and hands the per-search maps back inside
/// [`SearchResult`]; the repeated-query hot path should prefer
/// [`label_bi_dijkstra_directed_in`] with a reused [`SearchScratch`].
pub fn label_bi_dijkstra_directed<GF: GkGraph, GR: GkGraph>(
    fwd: &GF,
    rev: &GR,
    params: SearchParams<'_>,
) -> SearchResult {
    let mut scratch = SearchScratch::new();
    let outcome = label_bi_dijkstra_directed_in(fwd, rev, params, &mut scratch);
    let (parents_f, parents_r, dist_f, dist_r) = if params.track_paths {
        (
            std::mem::take(&mut scratch.parents_f),
            std::mem::take(&mut scratch.parents_r),
            std::mem::take(&mut scratch.dist_f),
            std::mem::take(&mut scratch.dist_r),
        )
    } else {
        Default::default()
    };
    SearchResult {
        dist: outcome.dist,
        meeting: outcome.meeting,
        settled: outcome.settled,
        parents_f,
        parents_r,
        dist_f,
        dist_r,
    }
}

/// The directed search core, operating entirely inside `scratch`.
///
/// Differences from the paper's pseudocode, all conservative:
/// * vertices enter the queues on demand instead of all starting at `∞`
///   (identical behavior, far cheaper);
/// * `µ` is tightened against the other side's *tentative* distance, both
///   when a vertex settles and when a relaxation lands — every tentative
///   distance is the length of a real path, so `µ` only ever takes real
///   path lengths and the `min(FQ) + min(RQ) ≥ µ` cutoff stays sound;
/// * a relaxation to key `nd` is skipped when
///   `nd + min(opposite queue) ≥ µ`: queue minima only grow and `µ` only
///   shrinks, so the cutoff fires before that key could be popped, and any
///   candidate it could close from the other side is no smaller. The pops
///   that do happen keep their order.
pub fn label_bi_dijkstra_directed_in<GF: GkGraph, GR: GkGraph>(
    fwd: &GF,
    rev: &GR,
    params: SearchParams<'_>,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    scratch.reset();
    let mut out = SearchOutcome {
        dist: params.mu0,
        meeting: match params.mu0_witness {
            Some(w) if params.mu0 < INF => Meeting::Labels(w),
            _ => Meeting::None,
        },
        settled: 0,
        relaxed: 0,
        pushed: 0,
    };

    let SearchScratch {
        dist_f,
        dist_r,
        parents_f,
        parents_r,
        fq,
        rq,
    } = scratch;

    for &(v, d) in params.fseeds {
        let e = dist_f.entry(v).or_insert(INF);
        if d < *e {
            *e = d;
            fq.push(Reverse((d, v)));
            out.pushed += 1;
            if params.track_paths {
                parents_f.insert(v, SEED_PARENT);
            }
        }
    }
    for &(v, d) in params.rseeds {
        let e = dist_r.entry(v).or_insert(INF);
        if d < *e {
            *e = d;
            rq.push(Reverse((d, v)));
            out.pushed += 1;
            if params.track_paths {
                parents_r.insert(v, SEED_PARENT);
            }
        }
    }

    // Drops stale heap entries (a key above the vertex's tentative
    // distance: superseded, or already settled at the smaller one);
    // returns the current true minimum key.
    fn clean_top(
        q: &mut BinaryHeap<Reverse<(Dist, VertexId)>>,
        dist: &FxHashMap<VertexId, Dist>,
    ) -> Dist {
        while let Some(&Reverse((d, v))) = q.peek() {
            if dist.get(&v).is_none_or(|&cur| d > cur) {
                q.pop();
            } else {
                return d;
            }
        }
        INF
    }

    /// Settles the minimum of one side and relaxes its residual edges;
    /// `out.dist` is the running `µ`, `min_y` the opposite queue's minimum.
    #[allow(clippy::too_many_arguments)]
    fn step_side<G: GkGraph>(
        g: &G,
        q: &mut BinaryHeap<Reverse<(Dist, VertexId)>>,
        dist_x: &mut FxHashMap<VertexId, Dist>,
        dist_y: &FxHashMap<VertexId, Dist>,
        parents_x: &mut FxHashMap<VertexId, VertexId>,
        min_y: Dist,
        out: &mut SearchOutcome,
        track_paths: bool,
    ) {
        let Reverse((d, v)) = q.pop().expect("clean_top guaranteed a live entry");
        out.settled += 1;
        // Settle-time meeting check (see function docs).
        if let Some(&dy) = dist_y.get(&v) {
            let cand = d.saturating_add(dy);
            if cand < out.dist {
                out.dist = cand;
                out.meeting = Meeting::Search(v);
            }
        }

        for (u, w) in g.edges_of(v) {
            out.relaxed += 1;
            let nd = d + w as Dist;
            if nd.saturating_add(min_y) >= out.dist {
                continue;
            }
            let cur = dist_x.entry(u).or_insert(INF);
            if nd < *cur {
                *cur = nd;
                q.push(Reverse((nd, u)));
                out.pushed += 1;
                if track_paths {
                    parents_x.insert(u, v);
                }
                // Lines 17–18, on the tentative distance.
                if let Some(&dy) = dist_y.get(&u) {
                    let cand = nd.saturating_add(dy);
                    if cand < out.dist {
                        out.dist = cand;
                        out.meeting = Meeting::Search(u);
                    }
                }
            }
        }
    }

    loop {
        let min_f = clean_top(fq, dist_f);
        let min_r = clean_top(rq, dist_r);
        // Line 8: stop when either frontier is exhausted or no via-G_k path
        // can beat µ.
        if min_f == INF || min_r == INF {
            break;
        }
        if min_f.saturating_add(min_r) >= out.dist {
            break;
        }

        if min_f <= min_r {
            step_side(
                fwd,
                fq,
                dist_f,
                dist_r,
                parents_f,
                min_r,
                &mut out,
                params.track_paths,
            );
        } else {
            step_side(
                rev,
                rq,
                dist_r,
                dist_f,
                parents_r,
                min_f,
                &mut out,
                params.track_paths,
            );
        }
    }

    if out.dist == INF {
        out.meeting = Meeting::None;
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::label::LabelSet;

    fn view<'a>(ancestors: &'a [VertexId], dists: &'a [Dist]) -> LabelView<'a> {
        LabelView {
            ancestors,
            dists,
            first_hops: &[],
        }
    }

    #[test]
    fn intersect_min_merge_join() {
        // label(s): a->1, c->5, e->2; label(t): b->1, c->1, e->9
        let (d, w) = intersect_min(view(&[0, 2, 4], &[1, 5, 2]), view(&[1, 2, 4], &[1, 1, 9]));
        // c: 5+1=6, e: 2+9=11 -> best 6 via c=2.
        assert_eq!(d, 6);
        assert_eq!(w, Some(2));
    }

    #[test]
    fn intersect_min_disjoint_is_inf() {
        let (d, w) = intersect_min(view(&[0, 1], &[1, 1]), view(&[2, 3], &[1, 1]));
        assert_eq!(d, INF);
        assert_eq!(w, None);
    }

    #[test]
    fn intersect_min_handles_inf_entries() {
        // Saturating addition keeps INF absorbing.
        let (d, _) = intersect_min(view(&[5], &[INF]), view(&[5], &[3]));
        assert_eq!(d, INF);
    }

    #[test]
    fn adaptive_intersect_matches_linear_merge() {
        // Deterministic pseudo-random label pairs across the crossover
        // boundary: tiny-vs-huge (gallops), balanced (linear), empty, and
        // exact-boundary shapes must all agree with the reference merge.
        let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut make = |len: usize, stride: u64| -> (Vec<VertexId>, Vec<Dist>) {
            let mut ancs = Vec::with_capacity(len);
            let mut cur = 0u64;
            for _ in 0..len {
                cur += 1 + next() % stride;
                ancs.push(cur as VertexId);
            }
            let dists = ancs.iter().map(|_| next() % 50).collect();
            (ancs, dists)
        };
        for (la, lb) in [(0, 40), (3, 200), (5, 41), (8, 64), (40, 45), (200, 3)] {
            for trial in 0..5 {
                let (aa, ad) = make(la, 3);
                let (ba, bd) = make(lb, 3);
                let a = view(&aa, &ad);
                let b = view(&ba, &bd);
                assert_eq!(
                    intersect_min_adaptive(a, b),
                    intersect_min(a, b),
                    "lens ({la}, {lb}) trial {trial}"
                );
            }
        }
    }

    #[test]
    fn adaptive_intersect_finds_boundary_hits() {
        // Regression shape: the short entry equals exactly the galloped
        // probe position of the long label (tail[hi] == anc).
        let long_anc: Vec<VertexId> = (0..100).map(|i| i * 2).collect();
        let long_d: Vec<Dist> = (0..100).map(|i| i as Dist).collect();
        for probe in [2u32, 4, 8, 16, 32, 64, 128, 198] {
            let short_anc = [probe];
            let short_d = [7u64];
            let a = view(&short_anc, &short_d);
            let b = view(&long_anc, &long_d);
            let got = intersect_min_adaptive(a, b);
            assert_eq!(got, intersect_min(a, b), "probe {probe}");
            assert_eq!(got.1, Some(probe));
        }
    }

    #[test]
    fn query_type_numbers() {
        assert_eq!(QueryType::BothInGk.number(), 1);
        assert_eq!(QueryType::OneInGk.number(), 2);
        assert_eq!(QueryType::NeitherInGk.number(), 3);
        assert_eq!(QueryType::BothInGk.label_fetches(), 0);
        assert_eq!(QueryType::NeitherInGk.label_fetches(), 2);
    }

    #[test]
    fn bi_dijkstra_plain_point_to_point() {
        // Seeding each side with a single vertex at distance 0 reduces
        // Algorithm 1 to ordinary bidirectional Dijkstra.
        let g = islabel_graph::generators::erdos_renyi_gnm(
            60,
            150,
            islabel_graph::generators::WeightModel::UniformRange(1, 5),
            3,
        );
        for (s, t) in [(0u32, 59u32), (5, 40), (13, 13), (2, 30)] {
            let res = label_bi_dijkstra(
                &g,
                SearchParams {
                    fseeds: &[(s, 0)],
                    rseeds: &[(t, 0)],
                    mu0: INF,
                    mu0_witness: None,
                    track_paths: false,
                },
            );
            let expect = crate::reference::dijkstra_p2p(&g, s, t).unwrap_or(INF);
            assert_eq!(res.dist, expect, "({s}, {t})");
        }
    }

    #[test]
    fn bi_dijkstra_respects_mu0_shortcut() {
        // A long chain in G_k, but labels already know a distance-1 shortcut:
        // the search must return the shortcut and prune immediately.
        let mut b = islabel_graph::GraphBuilder::new(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1, 10);
        }
        let g = b.build();
        let res = label_bi_dijkstra(
            &g,
            SearchParams {
                fseeds: &[(0, 0)],
                rseeds: &[(4, 0)],
                mu0: 1,
                mu0_witness: Some(99),
                track_paths: false,
            },
        );
        assert_eq!(res.dist, 1);
        assert_eq!(res.meeting, Meeting::Labels(99));
        // Pruning: 0 or at most a couple of settles before min_f+min_r >= 1.
        assert!(res.settled <= 2, "settled {}", res.settled);
    }

    #[test]
    fn bi_dijkstra_empty_seeds_returns_mu0() {
        let g = CsrGraph::empty(3);
        let res = label_bi_dijkstra(
            &g,
            SearchParams {
                fseeds: &[],
                rseeds: &[(1, 0)],
                mu0: 7,
                mu0_witness: Some(2),
                track_paths: false,
            },
        );
        assert_eq!(res.dist, 7);
        assert_eq!(res.meeting, Meeting::Labels(2));

        let res = label_bi_dijkstra(
            &g,
            SearchParams {
                fseeds: &[],
                rseeds: &[],
                mu0: INF,
                mu0_witness: None,
                track_paths: false,
            },
        );
        assert_eq!(res.dist, INF);
        assert_eq!(res.meeting, Meeting::None);
    }

    #[test]
    fn bi_dijkstra_multi_seed_uses_best_combination() {
        // Path 0-1-2-3-4 (unit weights). Forward seeds {1: 5, 2: 1},
        // reverse seed {4: 0}: best is 2->3->4 = 1+2 = 3.
        let mut b = islabel_graph::GraphBuilder::new(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let res = label_bi_dijkstra(
            &g,
            SearchParams {
                fseeds: &[(1, 5), (2, 1)],
                rseeds: &[(4, 0)],
                mu0: INF,
                mu0_witness: None,
                track_paths: true,
            },
        );
        assert_eq!(res.dist, 3);
        assert!(matches!(res.meeting, Meeting::Search(_)));
        // Parent chain from the meeting vertex walks back to a seed.
        if let Meeting::Search(m) = res.meeting {
            let mut cur = m;
            let mut hops = 0;
            while res.parents_f[&cur] != SEED_PARENT {
                cur = res.parents_f[&cur];
                hops += 1;
                assert!(hops < 10);
            }
            assert_eq!(cur, 2, "forward chain must start at the cheaper seed");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_search() {
        // The same scratch answers a mixed query sequence identically to
        // per-query allocation, including after INF and pruned searches.
        let g = islabel_graph::generators::erdos_renyi_gnm(
            80,
            160,
            islabel_graph::generators::WeightModel::UniformRange(1, 6),
            11,
        );
        let mut scratch = SearchScratch::new();
        for round in 0..3 {
            for (s, t) in [(0u32, 79u32), (5, 40), (13, 13), (2, 30), (70, 3)] {
                let params = SearchParams {
                    fseeds: &[(s, 0)],
                    rseeds: &[(t, 0)],
                    mu0: INF,
                    mu0_witness: None,
                    track_paths: false,
                };
                let fresh = label_bi_dijkstra(&g, params);
                let reused = label_bi_dijkstra_in(&g, params, &mut scratch);
                assert_eq!(reused.dist, fresh.dist, "round {round} ({s}, {t})");
                assert_eq!(reused.meeting, fresh.meeting, "round {round} ({s}, {t})");
                assert_eq!(reused.settled, fresh.settled, "round {round} ({s}, {t})");
            }
        }
    }

    #[test]
    fn bi_dijkstra_finds_meet_in_middle_on_random_graphs() {
        use crate::config::BuildConfig;
        use crate::hierarchy::VertexHierarchy;
        // End-to-end sanity at the query layer: build hierarchy + labels,
        // seed from labels, compare against plain Dijkstra.
        let g = islabel_graph::generators::barabasi_albert(
            150,
            2,
            islabel_graph::generators::WeightModel::UniformRange(1, 3),
            9,
        );
        // fixed k guarantees a non-empty G_k regardless of how fast the
        // sparse BA graph peels.
        let h = VertexHierarchy::build(&g, &BuildConfig::fixed_k(3));
        assert!(h.num_gk_vertices() > 0);
        let ls = LabelSet::build(&h, false);

        let seeds = |v: VertexId| -> Vec<(VertexId, Dist)> {
            ls.label(v).iter().filter(|&(a, _)| h.is_in_gk(a)).collect()
        };
        for (s, t) in [(0u32, 149u32), (3, 77), (10, 11), (140, 141), (60, 61)] {
            let (mu0, w0) = intersect_min(ls.label(s), ls.label(t));
            let res = label_bi_dijkstra(
                h.gk(),
                SearchParams {
                    fseeds: &seeds(s),
                    rseeds: &seeds(t),
                    mu0,
                    mu0_witness: w0,
                    track_paths: false,
                },
            );
            let expect = crate::reference::dijkstra_p2p(&g, s, t).unwrap_or(INF);
            assert_eq!(res.dist, expect, "({s}, {t})");
        }
    }
}
