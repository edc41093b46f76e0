//! Vertex-hierarchy construction (paper Section 4.1, 5.1; Algorithms 2, 3).
//!
//! The hierarchy `(L, G)` peels an independent set `L_i` off each `G_i`
//! (greedy minimum-degree, Algorithm 2) and patches `G_{i+1}` with
//! *augmenting edges* so distances among surviving vertices are preserved
//! (Algorithm 3): for a peeled vertex `v` and any two neighbors `u, w`, the
//! 2-hop path `⟨u, v, w⟩` is replaced by an edge `(u, w)` of weight
//! `ω(u,v) + ω(v,w)` (keeping the minimum if `(u, w)` exists). Independence
//! is what confines the repair to a self-join on each peeled vertex's
//! neighborhood — the property the whole I/O-efficient design leans on.
//!
//! In memory, `G_i` is a [`SortedAdjacency`]: one row per vertex sorted by
//! neighbour, so the repair for a peeled vertex `v` is a merge of `N(v)`
//! against each neighbour's row — sequential reads, not hash probes; almost
//! every candidate only confirms an edge that is already there
//! (`docs/adr/0019-sorted-row-peel.md`).
//!
//! Construction stops at level `k` (Definition 4): with the σ rule, at the
//! first level whose graph shrank by less than `1 − σ`; the residual `G_k`
//! is kept for query-time search, or, in a label-only index
//! ([`KSelection::Full`]), labelled as a whole by a pruned Dijkstra
//! ([`crate::label::pruned_labels`]). `peel_levels` is the one place that
//! decides this, for the undirected, directed (Section 8.2) and external
//! (Section 6) builders alike, each a `LevelPeel` backend.

use crate::config::{BuildConfig, IsStrategy, KSelection, DEFAULT_SIGMA};
use crate::dense::DenseGk;
use islabel_graph::adjacency::SortedAdjacency;
use islabel_graph::{CsrGraph, VertexId, Weight};
use std::convert::Infallible;

/// One archived adjacency entry of a peeled vertex: the edge `(v, to)` as it
/// existed in `G_{ℓ(v)}` at peel time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeelEdge {
    /// The neighbor (always at a strictly higher level than the peeled
    /// vertex, by independence).
    pub to: VertexId,
    /// Edge weight in `G_{ℓ(v)}`.
    pub weight: Weight,
    /// Intermediate vertex if the edge was an augmenting edge
    /// ([`islabel_graph::adjacency::NO_VIA`] otherwise); needed only for
    /// path reconstruction (Section 8.1).
    pub via: VertexId,
}

/// One `G_k` via annotation: `[min, max, via]` for the augmenting edge
/// between `min < max` created by peeling `via`.
pub(crate) type GkVia = [VertexId; 3];

/// Per-vertex lists in one CSR: row `v` is `entries[offsets[v]..offsets[v +
/// 1]]`. It holds the undirected hierarchy's peel adjacency (`[to, weight,
/// via]` triples, the artifact's `PEEL_OFFSETS` / `PEEL_EDGES` sections)
/// and the directed index's out- and in-arc lists. `O` and `E` hold the two
/// arrays: `Vec`s after a build (the default), slices borrowed from an
/// index's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeelCsr<O = Vec<u64>, E = Vec<[VertexId; 3]>> {
    pub(crate) offsets: O,
    pub(crate) entries: E,
}

/// Rows a builder sets in any vertex order (peeling goes level by
/// level): one arena and a span per vertex, laid out in vertex order once,
/// by [`PeelRows::into_csr`].
#[derive(Debug)]
pub(crate) struct PeelRows<T> {
    arena: Vec<T>,
    spans: Vec<(usize, usize)>,
}

impl<T: Copy> PeelRows<T> {
    /// `n` empty rows.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            arena: Vec::new(),
            spans: vec![(0, 0); n],
        }
    }

    /// Sets vertex `v`'s row.
    pub(crate) fn set(&mut self, v: VertexId, row: impl IntoIterator<Item = T>) {
        let start = self.arena.len();
        self.arena.extend(row);
        self.spans[v as usize] = (start, self.arena.len());
    }

    /// The rows as one CSR in vertex order.
    pub(crate) fn into_csr(self) -> PeelCsr<Vec<u64>, Vec<T>> {
        let mut offsets = Vec::with_capacity(self.spans.len() + 1);
        let mut entries = Vec::with_capacity(self.arena.len());
        offsets.push(0);
        for &(lo, hi) in &self.spans {
            entries.extend_from_slice(&self.arena[lo..hi]);
            offsets.push(entries.len() as u64);
        }
        PeelCsr { offsets, entries }
    }
}

impl<T> PeelCsr<Vec<u64>, Vec<T>> {
    /// Both arrays borrowed as plain slices.
    pub(crate) fn view(&self) -> PeelCsr<&[u64], &[T]> {
        PeelCsr {
            offsets: &self.offsets,
            entries: &self.entries,
        }
    }
}

impl<'a, T> PeelCsr<&'a [u64], &'a [T]> {
    /// Row `v`.
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> &'a [T] {
        let lo = self.offsets[v as usize] as usize;
        &self.entries[lo..self.offsets[v as usize + 1] as usize]
    }
}

/// A peel row's triples as [`PeelEdge`]s.
fn peel_edges(row: &[[VertexId; 3]]) -> impl ExactSizeIterator<Item = PeelEdge> + Clone + '_ {
    row.iter()
        .map(|&[to, weight, via]| PeelEdge { to, weight, via })
}

/// The k-level vertex hierarchy `(H_{<k}, G_k)` of Definition 4, as the
/// builder produces it. An index keeps its arrays (see [`HierarchyView`])
/// and `G_k` only in compact form.
#[derive(Debug, Clone)]
pub struct VertexHierarchy {
    /// `ℓ`, `k`, the level sets and `G_k`'s vertices, as the level driver
    /// decided them.
    pub(crate) levels: Levels,
    /// For each peeled vertex, its adjacency in `G_{ℓ(v)}` at peel time
    /// (`ADJ(L_i)` of Algorithm 2), sorted by neighbor id. Empty for `G_k`
    /// vertices.
    pub(crate) peel: PeelCsr,
    /// The residual graph `G_k` over the full id universe (peeled vertices
    /// are isolated in it).
    pub(crate) gk: CsrGraph,
    /// Via vertices of `G_k`'s augmenting edges as `[min, max, via]`
    /// triples, strictly ascending by `(min, max)` — the order of the
    /// artifact's via section, which `Sections::validate` checks on open.
    /// Empty when path info is disabled.
    pub(crate) gk_vias: Vec<GkVia>,
    /// Whether Algorithm 4 starts from `G_k`'s pruned labels rather than
    /// its self entries: a label-only index ([`KSelection::Full`]).
    pub(crate) label_only: bool,
}

impl VertexHierarchy {
    /// Builds the hierarchy for `g` under `config`.
    pub fn build(g: &CsrGraph, config: &BuildConfig) -> Self {
        config.validate();
        let mut excluded_at = vec![0u32; g.num_vertices()];
        Self::peel_undirected(g, config, |work, level| {
            select_independent_set(
                work.present_vertices().collect(),
                |v| work.degree(v),
                |v| work.neighbors(v),
                config.is_strategy,
                level,
                &mut excluded_at,
            )
        })
    }

    /// Builds a hierarchy from caller-supplied level sets (each must be an
    /// independent set of the graph remaining at its level). Vertices not
    /// covered by any level form `G_k`. Used by tests to replay the paper's
    /// worked example, whose level sets differ from what greedy selects.
    /// `forced` holds at least one level, and `k = forced.len() + 1`.
    pub fn build_with_forced_levels(g: &CsrGraph, forced: &[Vec<VertexId>]) -> Self {
        let config = BuildConfig::fixed_k(forced.len() as u32 + 1);
        let h = Self::peel_undirected(g, &config, |work, level| {
            let mut li = forced[level as usize - 1].clone();
            li.sort_unstable();
            for (x, &v) in li.iter().enumerate() {
                assert!(
                    li.get(x + 1) != Some(&v),
                    "duplicate vertex {v} in level {level}"
                );
                assert!(
                    work.is_present(v),
                    "vertex {v} already peeled before level {level}"
                );
                for u in work.neighbors(v) {
                    assert!(
                        li.binary_search(&u).is_err(),
                        "level {level} is not an independent set: edge ({v}, {u})"
                    );
                }
            }
            li
        });
        assert_eq!(
            h.levels.sets.len(),
            forced.len(),
            "the graph is empty before the last forced level"
        );
        h
    }

    /// Runs the level driver over the in-memory undirected backend, `select`
    /// choosing each `L_i` from `G_i`.
    fn peel_undirected(
        g: &CsrGraph,
        config: &BuildConfig,
        select: impl FnMut(&SortedAdjacency, u32) -> Vec<VertexId>,
    ) -> Self {
        let mut backend = Undirected {
            work: SortedAdjacency::from_csr(g),
            peel_adj: PeelRows::new(g.num_vertices()),
            select,
        };
        let Ok(levels) = peel_levels(g.num_vertices(), config, &mut backend);
        let (gk, mut gk_vias) = backend.work.to_csr_with_vias();
        if !config.keep_path_info {
            gk_vias = Vec::new();
        }
        let peel = backend.peel_adj.into_csr();
        Self {
            levels,
            peel,
            gk,
            gk_vias,
            label_only: config.k_selection == KSelection::Full,
        }
    }

    /// Vertex-id universe size.
    pub fn universe(&self) -> usize {
        self.levels.level_of.len()
    }

    /// The number of levels `k`.
    pub fn k(&self) -> u32 {
        self.levels.k
    }

    /// Level `ℓ(v)` (1-based; `k` for `G_k` vertices).
    #[inline]
    pub fn level_of(&self, v: VertexId) -> u32 {
        self.levels.level_of[v as usize]
    }

    /// Whether `v` survived into the residual graph `G_k`.
    #[inline]
    pub fn is_in_gk(&self, v: VertexId) -> bool {
        self.level_of(v) == self.levels.k
    }

    /// The peeled level sets `L_1 .. L_{k−1}` (each ascending).
    pub fn levels(&self) -> &[Vec<VertexId>] {
        &self.levels.sets
    }

    /// `v`'s archived adjacency in `G_{ℓ(v)}` (empty for `G_k` vertices).
    /// Entries are sorted by neighbor id, and every neighbor is at a
    /// strictly higher level — these are exactly the candidate first hops of
    /// `v`'s ancestor chains.
    #[inline]
    pub fn peel_adj(&self, v: VertexId) -> impl ExactSizeIterator<Item = PeelEdge> + Clone + '_ {
        peel_edges(self.peel.view().row(v))
    }

    /// The residual graph `G_k` (over the full universe; peeled vertices are
    /// isolated in it).
    pub fn gk(&self) -> &CsrGraph {
        &self.gk
    }

    /// Vertices of `G_k`, ascending.
    pub fn gk_members(&self) -> &[VertexId] {
        &self.levels.gk_members
    }

    /// Number of vertices in `G_k`.
    pub fn num_gk_vertices(&self) -> usize {
        self.levels.gk_members.len()
    }

    /// Number of edges in `G_k`.
    pub fn num_gk_edges(&self) -> usize {
        self.gk.num_edges()
    }

    /// Via vertex of the `G_k` edge `(u, v)` if it is an augmenting edge.
    pub fn gk_via(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        via_of(&self.gk_vias, u, v)
    }

    /// Whether `G_k` is labelled by a pruned Dijkstra and never searched
    /// (a [`KSelection::Full`] build).
    pub fn is_label_only(&self) -> bool {
        self.label_only
    }
}

/// The via of `(u, v)` in a via table strictly ascending by `(min, max)`.
fn via_of(vias: &[GkVia], u: VertexId, v: VertexId) -> Option<VertexId> {
    let key = if u < v { (u, v) } else { (v, u) };
    let i = vias.binary_search_by_key(&key, |&[a, b, _]| (a, b)).ok()?;
    Some(vias[i][2])
}

/// An index's hierarchy as plain slices over its storage: levels, peel
/// adjacency, `G_k` in compact form and its via table — the artifact's
/// sections, read where they lie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyView<'a> {
    pub(crate) level_of: &'a [u32],
    pub(crate) k: u32,
    pub(crate) peel: PeelCsr<&'a [u64], &'a [[VertexId; 3]]>,
    pub(crate) gk: DenseGk<&'a [u32]>,
    pub(crate) gk_vias: &'a [GkVia],
    /// A label-only index: `G_k`'s labels are a 2-hop cover of it, so no
    /// query searches it ([`HierarchyView::searched`] is empty).
    pub(crate) label_only: bool,
}

impl<'a> HierarchyView<'a> {
    /// Vertex-id universe size.
    pub fn universe(&self) -> usize {
        self.level_of.len()
    }

    /// The number of levels `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Whether `v` survived into the residual graph `G_k`.
    #[inline]
    pub fn is_in_gk(&self, v: VertexId) -> bool {
        self.level_of[v as usize] == self.k
    }

    /// Whether `G_k` is labelled by a pruned Dijkstra and never searched
    /// (a [`KSelection::Full`] index).
    pub fn is_label_only(&self) -> bool {
        self.label_only
    }

    /// What a query searches: `G_k`, or nothing in a label-only index,
    /// whose core rows only path queries read.
    #[inline]
    pub fn searched(&self) -> DenseGk<&'a [u32]> {
        if self.label_only {
            DenseGk::empty()
        } else {
            self.gk
        }
    }

    /// Whether a query searches `v`: a `G_k` vertex of an index that is not
    /// label-only.
    #[inline]
    pub fn is_searched(&self, v: VertexId) -> bool {
        !self.label_only && self.is_in_gk(v)
    }

    /// The peeled level sets `L_1 .. L_{k−1}` (each ascending), gathered
    /// from the level table.
    pub fn levels(&self) -> Vec<Vec<VertexId>> {
        let mut sets = vec![Vec::new(); self.k.saturating_sub(1) as usize];
        for (v, &l) in (0..).zip(self.level_of) {
            if l < self.k {
                sets[l as usize - 1].push(v);
            }
        }
        sets
    }

    /// `v`'s archived adjacency in `G_{ℓ(v)}`; see
    /// [`VertexHierarchy::peel_adj`].
    #[inline]
    pub fn peel_adj(&self, v: VertexId) -> impl ExactSizeIterator<Item = PeelEdge> + Clone + 'a {
        peel_edges(self.peel.row(v))
    }

    /// Vertices of `G_k`, ascending.
    pub fn gk_members(&self) -> &'a [VertexId] {
        self.gk.ids.global_of
    }

    /// Number of vertices in `G_k`.
    pub fn num_gk_vertices(&self) -> usize {
        self.gk.ids().len()
    }

    /// Number of edges in `G_k`.
    pub fn num_gk_edges(&self) -> usize {
        self.gk.fwd().num_entries() / 2
    }

    /// Via vertex of the `G_k` edge `(u, v)` if it is an augmenting edge.
    pub fn gk_via(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        via_of(self.gk_vias, u, v)
    }
}

/// What Definition 4's level loop decides: `ℓ(v)`, `k`, the level sets and
/// the vertices of `G_k`.
#[derive(Debug, Clone)]
pub(crate) struct Levels {
    /// `ℓ(v)` for every vertex (1-based; `k` for `G_k` vertices).
    pub(crate) level_of: Vec<u32>,
    /// Number of levels `k` (so `k − 1` independent sets were peeled).
    pub(crate) k: u32,
    /// `sets[i]` is `L_{i+1}`, ascending by vertex id.
    pub(crate) sets: Vec<Vec<VertexId>>,
    /// Vertices of `G_k`, ascending.
    pub(crate) gk_members: Vec<VertexId>,
}

/// One hierarchy builder as [`peel_levels`] drives it: the current graph
/// `G_i` and the step to `G_{i+1}`.
pub(crate) trait LevelPeel {
    type Error;

    /// Whether a [`KSelection::Full`] peel stops at the default σ rule's
    /// core, which the builder then labels by a pruned Dijkstra; a builder
    /// without that labeling (the directed one) peels until `G_k` is
    /// empty.
    const FULL_PEELS_TO_CORE: bool = true;

    /// `|E(G_i)|`.
    fn num_edges(&self) -> usize;

    /// Selects `L_level` (non-empty) from `G_level`, records `level_of[v] =
    /// level` for each of its vertices (0 marks a vertex still present) and
    /// builds `G_{level+1}`. Returns `L_level` ascending.
    fn peel(&mut self, level: u32, level_of: &mut [u32]) -> Result<Vec<VertexId>, Self::Error>;
}

/// The level loop of Definition 4, for every builder: peels `L_1, L_2, …`
/// off the `n`-vertex graph `G_1` until `G_i` is empty, `i` reaches
/// `FixedK` or `max_levels`, or, under the σ rule, a peel leaves
/// `|G_{i+1}| > σ · |G_i|` (then `k = i + 1`), where `|G| = |V| + |E|`.
/// A [`KSelection::Full`] peel stops by the default σ rule where the
/// backend labels the core ([`LevelPeel::FULL_PEELS_TO_CORE`]): past it
/// the IS order peels a scale-free core a few vertices a level, and the
/// pruned labeling ranks that core better.
pub(crate) fn peel_levels<P: LevelPeel>(
    n: usize,
    config: &BuildConfig,
    backend: &mut P,
) -> Result<Levels, P::Error> {
    let mut level_of = vec![0u32; n];
    let mut sets: Vec<Vec<VertexId>> = Vec::new();
    let mut present = n;
    let mut i: u32 = 1;
    let k = loop {
        if present == 0 {
            break i; // G_i is empty: full hierarchy, k = h + 1.
        }
        match config.k_selection {
            KSelection::FixedK(kf) if i == kf => break i,
            _ if i == config.max_levels => break i,
            _ => {}
        }
        let size_before = present + backend.num_edges();
        let li = backend.peel(i, &mut level_of)?;
        debug_assert!(
            !li.is_empty(),
            "level {i} peeled nothing off a non-empty G_{i}"
        );
        present -= li.len();
        sets.push(li);
        let sigma = match config.k_selection {
            KSelection::SigmaThreshold(sigma) => Some(sigma),
            KSelection::Full if P::FULL_PEELS_TO_CORE => Some(DEFAULT_SIGMA),
            KSelection::Full | KSelection::FixedK(_) => None,
        };
        if let Some(sigma) = sigma {
            if (present + backend.num_edges()) as f64 > sigma * size_before as f64 {
                break i + 1;
            }
        }
        i += 1;
    };
    let gk_members: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| level_of[v as usize] == 0)
        .collect();
    for &v in &gk_members {
        level_of[v as usize] = k;
    }
    Ok(Levels {
        level_of,
        k,
        sets,
        gk_members,
    })
}

/// The in-memory undirected backend: `G_i` as sorted rows, repaired by
/// Algorithm 3; `select` chooses `L_i`.
struct Undirected<S> {
    work: SortedAdjacency,
    peel_adj: PeelRows<[VertexId; 3]>,
    select: S,
}

impl<S: FnMut(&SortedAdjacency, u32) -> Vec<VertexId>> LevelPeel for Undirected<S> {
    type Error = Infallible;

    fn num_edges(&self) -> usize {
        self.work.num_edges()
    }

    fn peel(&mut self, level: u32, level_of: &mut [u32]) -> Result<Vec<VertexId>, Infallible> {
        let li = (self.select)(&self.work, level);
        peel_level(&mut self.work, &li, level, level_of, &mut self.peel_adj);
        Ok(li)
    }
}

/// Selects one level's independent set from `present`, the vertices of
/// `G_level` in ascending id order.
///
/// This is the in-memory counterpart of Algorithm 2: visit vertices in the
/// strategy's order (for the paper's greedy: ascending snapshot degree, ties
/// by id) and take every vertex not yet excluded by a chosen neighbor.
/// `excluded_at[v] == level` marks `v` excluded at this level, so the array
/// is shared by all levels and never reset.
///
/// The one selection of both hierarchies: the undirected one passes its
/// degree and neighbours, the directed one (Section 8.2) the undirected
/// skeleton's, out plus in — "simply ignoring the direction of the edges".
pub(crate) fn select_independent_set<N: IntoIterator<Item = VertexId>>(
    present: Vec<VertexId>,
    degree: impl Fn(VertexId) -> usize,
    neighbors: impl Fn(VertexId) -> N,
    strategy: IsStrategy,
    level: u32,
    excluded_at: &mut [u32],
) -> Vec<VertexId> {
    let mut order = present;
    match strategy {
        IsStrategy::MinDegreeGreedy => order = order_by_degree(&order, degree, false),
        IsStrategy::MaxDegreeGreedy => order = order_by_degree(&order, degree, true),
        IsStrategy::Random(seed) => {
            // Deterministic per (seed, level) Fisher–Yates driven by a
            // splitmix-style generator; rand is not needed for this.
            let mut state = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(level as u64 + 1));
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for j in (1..order.len()).rev() {
                let r = (next() % (j as u64 + 1)) as usize;
                order.swap(j, r);
            }
        }
    }

    let mut li = Vec::new();
    for &u in &order {
        if excluded_at[u as usize] == level {
            continue;
        }
        li.push(u);
        for v in neighbors(u) {
            excluded_at[v as usize] = level;
        }
    }
    li.sort_unstable();
    li
}

/// The greedy visiting order of one level: `present` (id-ascending) by
/// ascending degree, ties by id — by descending degree when `descending`.
/// Exactly the order a comparison sort on the key `(degree(v), v)` resp.
/// `(Reverse(degree(v)), v)` gives, as one stable counting pass that reads
/// each degree once (a sort key would read a hash map's length O(n log n)
/// times).
fn order_by_degree(
    present: &[VertexId],
    degree: impl Fn(VertexId) -> usize,
    descending: bool,
) -> Vec<VertexId> {
    debug_assert!(present.windows(2).all(|w| w[0] < w[1]));
    let degrees: Vec<usize> = present.iter().map(|&v| degree(v)).collect();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let bucket = |d: usize| if descending { max - d } else { d };
    // `next[b]` is where bucket `b`'s next vertex goes.
    let mut next = vec![0usize; max + 2];
    for &d in &degrees {
        next[bucket(d) + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut order = vec![0; present.len()];
    for (&v, &d) in present.iter().zip(&degrees) {
        let at = &mut next[bucket(d)];
        order[*at] = v;
        *at += 1;
    }
    order
}

/// Removes one level and inserts its augmenting edges (Algorithm 3).
///
/// Vertices are processed in ascending id order; on equal augmented weight
/// the earlier edge (or the pre-existing edge) wins, which makes via
/// annotations deterministic and lets the external-memory pipeline
/// reproduce them exactly. Augmenting weights are real path lengths and
/// must stay within the `Weight` type; graphs whose shortest paths exceed
/// `u32::MAX` are out of contract (see the `BuildConfig` docs) and fail
/// loudly in [`SortedAdjacency::peel_vertex`] rather than wrapping.
fn peel_level(
    work: &mut SortedAdjacency,
    li: &[VertexId],
    level: u32,
    level_of: &mut [u32],
    peel_adj: &mut PeelRows<[VertexId; 3]>,
) {
    for &v in li {
        peel_adj.set(v, work.peel_vertex(v).iter().copied());
        level_of[v as usize] = level;
    }
}

/// Test/diagnostic helper: checks the vertex-independence property of
/// Definition 1 directly against the original graph for level 1, and
/// against the archived peel adjacency for all levels (no `L_i` member may
/// list another `L_i` member among its peel-time neighbors).
pub fn check_independence(h: &VertexHierarchy) -> Result<(), String> {
    for (idx, li) in h.levels().iter().enumerate() {
        for &v in li {
            for e in h.peel_adj(v) {
                if h.level_of(e.to) == idx as u32 + 1 {
                    return Err(format!(
                        "independence violated at level {}: edge ({v}, {})",
                        idx + 1,
                        e.to
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use islabel_graph::adjacency::NO_VIA;
    use islabel_graph::generators::{erdos_renyi_gnm, WeightModel};
    use islabel_graph::GraphBuilder;

    /// The 9-vertex graph of the paper's Figure 1 (a=0 .. i=8); every edge
    /// has weight 1 except (e, f) with weight 3.
    pub(crate) fn paper_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(9);
        for (u, v, w) in [
            (0, 1, 1), // a-b
            (1, 2, 1), // b-c
            (1, 4, 1), // b-e
            (0, 4, 1), // a-e
            (3, 4, 1), // d-e
            (4, 5, 3), // e-f
            (4, 8, 1), // e-i
            (5, 7, 1), // f-h
            (6, 7, 1), // g-h
            (3, 6, 1), // d-g
        ] {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// The paper's level assignment: L1={c,f,i}, L2={b,d,h}, L3={e}, L4={a},
    /// L5={g}.
    pub(crate) fn paper_hierarchy() -> VertexHierarchy {
        VertexHierarchy::build_with_forced_levels(
            &paper_graph(),
            &[vec![2, 5, 8], vec![1, 3, 7], vec![4], vec![0], vec![6]],
        )
    }

    #[test]
    fn paper_example_levels_and_augmenting_edges() {
        let h = paper_hierarchy();
        assert_eq!(h.k(), 6);
        // ℓ: c,f,i = 1; b,d,h = 2; e = 3; a = 4; g = 5.
        assert_eq!(h.level_of(2), 1);
        assert_eq!(h.level_of(5), 1);
        assert_eq!(h.level_of(8), 1);
        assert_eq!(h.level_of(1), 2);
        assert_eq!(h.level_of(3), 2);
        assert_eq!(h.level_of(7), 2);
        assert_eq!(h.level_of(4), 3);
        assert_eq!(h.level_of(0), 4);
        assert_eq!(h.level_of(6), 5);
        assert_eq!(h.num_gk_vertices(), 0); // full hierarchy: G_6 is empty

        // ADJ(L1): f's peel adjacency is e (w=3, original) and h (w=1).
        let f: Vec<_> = h.peel_adj(5).collect();
        assert_eq!(f.len(), 2);
        assert_eq!(
            f[0],
            PeelEdge {
                to: 4,
                weight: 3,
                via: NO_VIA
            }
        );
        assert_eq!(
            f[1],
            PeelEdge {
                to: 7,
                weight: 1,
                via: NO_VIA
            }
        );

        // In G2, h's adjacency must contain the augmenting edge (h, e) of
        // weight 4 created by peeling f (paper: "Edge (e, h) is also added").
        let hh: Vec<_> = h.peel_adj(7).collect();
        assert_eq!(hh.len(), 2);
        assert_eq!(
            hh[0],
            PeelEdge {
                to: 4,
                weight: 4,
                via: 5
            }
        ); // e via f
        assert_eq!(
            hh[1],
            PeelEdge {
                to: 6,
                weight: 1,
                via: NO_VIA
            }
        ); // g

        // In G3, e's adjacency is a (w=1, the original edge survives because
        // 1 < the 2-hop repair of weight 2) and g (w=2, augmenting via d).
        let e: Vec<_> = h.peel_adj(4).collect();
        assert_eq!(e.len(), 2);
        assert_eq!(
            e[0],
            PeelEdge {
                to: 0,
                weight: 1,
                via: NO_VIA
            }
        );
        assert_eq!(
            e[1],
            PeelEdge {
                to: 6,
                weight: 2,
                via: 3
            }
        );

        // G4 is the single edge (a, g) of weight 3 via e.
        let a: Vec<_> = h.peel_adj(0).collect();
        assert_eq!(a.len(), 1);
        assert_eq!(
            a[0],
            PeelEdge {
                to: 6,
                weight: 3,
                via: 4
            }
        );

        // G5 = {g} with no edges.
        assert_eq!(h.peel_adj(6).len(), 0);

        check_independence(&h).unwrap();
    }

    #[test]
    fn greedy_build_on_paper_graph() {
        // Greedy picks different level sets than the worked example but must
        // still satisfy every hierarchy invariant.
        let h = VertexHierarchy::build(&paper_graph(), &BuildConfig::full());
        check_independence(&h).unwrap();
        // A label-only build stops where the default σ rule does.
        let sigma = VertexHierarchy::build(&paper_graph(), &BuildConfig::default());
        assert_eq!(h.levels(), sigma.levels());
        assert_eq!(h.gk_members(), sigma.gk_members());
        assert!(h.is_label_only() && !sigma.is_label_only());
        // Level sets and G_k partition the vertices.
        let total: usize = h.levels().iter().map(|l| l.len()).sum();
        assert_eq!(total + h.num_gk_vertices(), 9);
    }

    #[test]
    fn sigma_threshold_keeps_residual_graph() {
        // Peeling a large clique removes one vertex per level while the
        // rest stays complete, so the size ratio (n−1+C(n−1,2))/(n+C(n,2))
        // exceeds 0.95 for n ≥ 41 and σ = 0.95 stops immediately with a
        // non-trivial G_k.
        let n = 50u32;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, 1);
            }
        }
        let g = b.build();
        let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
        assert_eq!(h.k(), 2);
        assert_eq!(h.num_gk_vertices(), n as usize - 1);
        // G_k stays a clique among survivors.
        let m = h.num_gk_vertices();
        assert_eq!(h.num_gk_edges(), m * (m - 1) / 2);
    }

    #[test]
    fn fixed_k_peels_exactly_k_minus_1_levels() {
        let g = erdos_renyi_gnm(200, 400, WeightModel::Unit, 3);
        let h = VertexHierarchy::build(&g, &BuildConfig::fixed_k(4));
        assert_eq!(h.k(), 4);
        assert_eq!(h.levels().len(), 3);
        check_independence(&h).unwrap();
        // Levels + G_k partition the vertex set.
        let peeled: usize = h.levels().iter().map(|l| l.len()).sum();
        assert_eq!(peeled + h.num_gk_vertices(), 200);
    }

    #[test]
    fn fixed_k_clamps_when_graph_empties() {
        // A tiny path graph empties before k = 50.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let h = VertexHierarchy::build(&b.build(), &BuildConfig::fixed_k(50));
        assert!(h.k() < 50);
        assert_eq!(h.num_gk_vertices(), 0);
    }

    #[test]
    fn full_hierarchy_peels_to_the_sigma_core() {
        // The same levels and core as the default σ rule, the same G_k
        // edges and vias; only the labeling differs.
        let g = erdos_renyi_gnm(300, 900, WeightModel::UniformRange(1, 5), 7);
        let h = VertexHierarchy::build(&g, &BuildConfig::full());
        let sigma = VertexHierarchy::build(&g, &BuildConfig::default());
        assert!(h.num_gk_vertices() > 0);
        assert_eq!(h.k(), sigma.k());
        assert_eq!(h.levels.level_of, sigma.levels.level_of);
        assert_eq!((h.gk(), &h.gk_vias), (sigma.gk(), &sigma.gk_vias));
        assert!(h.is_label_only());
        check_independence(&h).unwrap();
    }

    #[test]
    fn peel_adj_neighbors_are_strictly_higher_level() {
        let g = erdos_renyi_gnm(400, 1200, WeightModel::Unit, 11);
        let h = VertexHierarchy::build(&g, &BuildConfig::sigma(0.95));
        for v in g.vertices() {
            for e in h.peel_adj(v) {
                assert!(
                    h.level_of(e.to) > h.level_of(v),
                    "peel edge ({v}, {}) does not ascend levels",
                    e.to
                );
            }
        }
    }

    #[test]
    fn distance_preservation_level_by_level() {
        // Lemma 2: reconstruct each G_i and check sampled pairwise distances
        // against the original graph with plain Dijkstra.
        let g = erdos_renyi_gnm(60, 150, WeightModel::UniformRange(1, 4), 5);
        let h = VertexHierarchy::build(&g, &BuildConfig::full());

        // Rebuild each level graph by replaying the peel.
        let mut work = SortedAdjacency::from_csr(&g);
        let (mut level_of, mut peel_adj) = (vec![0; 60], PeelRows::new(60));
        for (i, li) in (1..).zip(h.levels()) {
            // Check: distances among present vertices equal those in G.
            let snapshot = work.to_csr_with_vias().0;
            let present: Vec<VertexId> = work.present_vertices().collect();
            for (idx, &s) in present.iter().enumerate().step_by(7) {
                let dist_g = crate::reference::dijkstra_all(&g, s);
                let dist_i = crate::reference::dijkstra_all(&snapshot, s);
                for &t in present.iter().skip(idx).step_by(5) {
                    assert_eq!(
                        dist_i[t as usize], dist_g[t as usize],
                        "distance ({s}, {t}) not preserved"
                    );
                }
            }
            peel_level(&mut work, li, i, &mut level_of, &mut peel_adj);
        }
    }

    /// Algorithm 3 as the paper states it, over ordered maps: peeling `v`
    /// visits every pair `a < b` of its neighbours and inserts `(a, b)` at
    /// `ω(a,v) + ω(v,b)` via `v`, or lowers it to that sum when strictly
    /// shorter.
    struct ModelPeel {
        adj: Vec<std::collections::BTreeMap<VertexId, (Weight, VertexId)>>,
    }

    impl ModelPeel {
        fn new(g: &CsrGraph) -> Self {
            let adj = g
                .vertices()
                .map(|v| g.edges(v).map(|(u, w)| (u, (w, NO_VIA))).collect())
                .collect();
            Self { adj }
        }

        fn row(&self, v: VertexId) -> Vec<[VertexId; 3]> {
            let row = self.adj[v as usize].iter();
            row.map(|(&to, &(w, via))| [to, w, via]).collect()
        }

        fn num_edges(&self) -> usize {
            self.adj.iter().map(|m| m.len()).sum::<usize>() / 2
        }

        fn peel(&mut self, v: VertexId) -> Vec<[VertexId; 3]> {
            let row = self.row(v);
            self.adj[v as usize].clear();
            for &[a, ..] in &row {
                self.adj[a as usize].remove(&v);
            }
            for (x, &[a, wa, _]) in row.iter().enumerate() {
                for &[b, wb, _] in &row[x + 1..] {
                    let w = wa + wb;
                    if self.adj[a as usize].get(&b).is_none_or(|&(old, _)| w < old) {
                        self.adj[a as usize].insert(b, (w, v));
                        self.adj[b as usize].insert(a, (w, v));
                    }
                }
            }
            row
        }
    }

    /// Replays `levels` on the sorted rows and on the model, comparing the
    /// returned peel rows vertex by vertex and every row, degree and the
    /// edge count level by level, then `G_k` and its vias. Returns the
    /// model's `G_k` and vias, and how many repairs met a neighbour row more
    /// than four times longer than the peeled vertex's (the rows' gallop
    /// branch).
    fn assert_peel_matches_model(
        g: &CsrGraph,
        levels: &[Vec<VertexId>],
    ) -> (CsrGraph, Vec<GkVia>, usize) {
        let mut work = SortedAdjacency::from_csr(g);
        let mut model = ModelPeel::new(g);
        let mut long_rows = 0;
        for (i, li) in (1..).zip(levels) {
            for &v in li {
                let degree = model.adj[v as usize].len();
                long_rows += model.adj[v as usize]
                    .keys()
                    .filter(|&&a| model.adj[a as usize].len() > 4 * degree)
                    .count();
                assert_eq!(work.peel_vertex(v), model.peel(v), "peel row of {v}");
            }
            assert_eq!(work.num_edges(), model.num_edges(), "|E(G_{})|", i + 1);
            for u in g.vertices() {
                let row: Vec<_> = work.row(u).collect();
                assert_eq!(row, model.row(u), "row {u} of G_{}", i + 1);
                assert_eq!(work.degree(u), row.len(), "degree of {u} in G_{}", i + 1);
            }
        }
        let mut b = GraphBuilder::new(g.num_vertices());
        let mut vias = Vec::new();
        for v in g.vertices() {
            for [to, w, via] in model.row(v) {
                b.add_edge(v, to, w);
                if v < to && via != NO_VIA {
                    vias.push([v, to, via]);
                }
            }
        }
        let gk = b.build();
        assert_eq!(work.to_csr_with_vias(), (gk.clone(), vias.clone()), "G_k");
        (gk, vias, long_rows)
    }

    #[test]
    fn sorted_row_peel_matches_the_pairwise_model_level_by_level() {
        use islabel_graph::generators::{barabasi_albert, grid2d};
        // Weights in 1..=2 make equal candidates common, so the rule that
        // a tie keeps the earlier via decides many edges.
        let ties = WeightModel::UniformRange(1, 2);
        let graphs = [
            (
                "ER",
                erdos_renyi_gnm(300, 1200, WeightModel::UniformRange(1, 9), 21),
            ),
            ("ER ties", erdos_renyi_gnm(250, 900, ties, 22)),
            (
                "BA",
                barabasi_albert(400, 3, WeightModel::UniformRange(1, 5), 23),
            ),
            ("BA ties", barabasi_albert(300, 4, ties, 24)),
            ("grid", grid2d(15, 17, WeightModel::UniformRange(1, 10), 25)),
            ("grid ties", grid2d(12, 12, ties, 26)),
        ];
        let mut long_rows = 0;
        for (name, g) in &graphs {
            for config in [BuildConfig::default(), BuildConfig::full()] {
                let h = VertexHierarchy::build(g, &config);
                let (gk, vias, long) = assert_peel_matches_model(g, h.levels());
                assert_eq!((h.gk(), &h.gk_vias), (&gk, &vias), "{name}");
                long_rows += long;
            }
        }
        assert!(long_rows > 0, "no repair took the gallop branch");
        // Forced levels: the paper's worked example, stopped at k = 4 (G_4
        // is {a, g} and the edge (a, g) via e).
        let forced = [vec![2, 5, 8], vec![1, 3, 7], vec![4]];
        let h = VertexHierarchy::build_with_forced_levels(&paper_graph(), &forced);
        let (gk, vias, _) = assert_peel_matches_model(&paper_graph(), &forced);
        assert_eq!((h.gk(), &h.gk_vias), (&gk, &vias));
        assert_eq!(vias, vec![[0, 6, 4]]);
    }

    #[test]
    fn strategies_produce_valid_hierarchies() {
        let g = erdos_renyi_gnm(150, 400, WeightModel::Unit, 9);
        for strategy in [
            IsStrategy::MinDegreeGreedy,
            IsStrategy::MaxDegreeGreedy,
            IsStrategy::Random(42),
        ] {
            let cfg = BuildConfig {
                is_strategy: strategy,
                ..BuildConfig::full()
            };
            let h = VertexHierarchy::build(&g, &cfg);
            check_independence(&h).unwrap();
            let peeled: usize = h.levels().iter().map(|l| l.len()).sum();
            assert_eq!(peeled + h.num_gk_vertices(), 150, "{strategy:?}");
        }
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let g = erdos_renyi_gnm(100, 250, WeightModel::Unit, 2);
        let cfg = BuildConfig {
            is_strategy: IsStrategy::Random(7),
            ..BuildConfig::full()
        };
        let a = VertexHierarchy::build(&g, &cfg);
        let b = VertexHierarchy::build(&g, &cfg);
        assert_eq!(a.levels(), b.levels());
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let h = VertexHierarchy::build(&CsrGraph::empty(0), &BuildConfig::default());
        assert_eq!(h.universe(), 0);

        let h = VertexHierarchy::build(&CsrGraph::empty(1), &BuildConfig::default());
        assert_eq!(h.level_of(0), 1);
        assert_eq!(h.num_gk_vertices(), 0);
    }

    #[test]
    fn min_degree_greedy_prefers_low_degree() {
        // Star graph: the center has degree n-1; greedy must peel all leaves
        // at level 1 and leave the center.
        let mut b = GraphBuilder::new(6);
        for v in 1..6u32 {
            b.add_edge(0, v, 1);
        }
        let h = VertexHierarchy::build(&b.build(), &BuildConfig::full());
        assert_eq!(h.levels()[0], vec![1, 2, 3, 4, 5]);
        assert_eq!(h.level_of(0), 2);
    }

    #[test]
    fn counting_pass_is_the_comparison_sort_by_degree_then_id() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xDE6);
        let mut cases: Vec<Vec<usize>> = vec![vec![], vec![0], vec![0; 9]];
        // A single hub of degree n − 1 over leaves, with isolated vertices.
        cases.push([vec![0, 1, 0], vec![11], vec![1; 10]].concat());
        for n in [2usize, 17, 300] {
            for max in [1, 4, n - 1] {
                cases.push((0..n).map(|_| rng.gen_range(0..=max)).collect());
            }
        }
        for degrees in cases {
            // Present vertices are id-ascending but not contiguous.
            let present: Vec<VertexId> =
                (0..degrees.len() as VertexId).map(|i| 3 * i + 1).collect();
            let degree = |v: VertexId| degrees[(v / 3) as usize];

            let mut ascending = present.clone();
            ascending.sort_by_key(|&v| (degree(v), v));
            assert_eq!(order_by_degree(&present, degree, false), ascending);

            let mut descending = present.clone();
            descending.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
            assert_eq!(order_by_degree(&present, degree, true), descending);
        }
    }

    /// A scripted backend: `|E(G_i)|`, then the `(L_i, |E(G_{i+1})|)` peels
    /// still to come.
    struct Script<'a>(usize, &'a [(&'a [VertexId], usize)]);

    impl LevelPeel for Script<'_> {
        type Error = Infallible;

        fn num_edges(&self) -> usize {
            self.0
        }

        fn peel(&mut self, level: u32, level_of: &mut [u32]) -> Result<Vec<VertexId>, Infallible> {
            let ((li, edges), rest) = self.1.split_first().expect("peeled past the script");
            li.iter().for_each(|&v| level_of[v as usize] = level);
            *self = Script(*edges, rest);
            Ok(li.to_vec())
        }
    }

    /// Drives `n` vertices and `edges` edges through `steps`, returning `k`,
    /// `ℓ` and the `G_k` members.
    fn drive(
        n: usize,
        edges: usize,
        steps: &[(&[VertexId], usize)],
        config: BuildConfig,
    ) -> Levels {
        let Ok(levels) = peel_levels(n, &config, &mut Script(edges, steps));
        assert_eq!(levels.sets.len() as u32, levels.k - 1);
        levels
    }

    #[test]
    fn sigma_stops_only_when_the_ratio_exceeds_sigma() {
        // |G_1| = 10 + 10. Peeling {0, 1} leaves |G_2| = 8 + 2 = σ · |G_1|
        // exactly, which keeps peeling; peeling {2} leaves |G_3| = 7 > 5,
        // which stops with k = 3.
        let steps: &[(&[VertexId], usize)] = &[(&[0, 1], 2), (&[2], 0), (&[3], 0)];
        let l = drive(10, 10, steps, BuildConfig::sigma(0.5));
        assert_eq!(
            (l.k, &l.level_of[..]),
            (3, &[1, 1, 2, 3, 3, 3, 3, 3, 3, 3][..])
        );
        assert_eq!(l.gk_members, (3..10).collect::<Vec<_>>());
        // One more edge left after the first peel: 11 > 10 stops at k = 2.
        assert_eq!(drive(10, 10, &[(&[0, 1], 3)], BuildConfig::sigma(0.5)).k, 2);
    }

    #[test]
    fn fixed_k_and_max_levels_stop_the_driver() {
        let steps: &[(&[VertexId], usize)] = &[(&[0], 0), (&[1], 0), (&[2], 0), (&[3], 0)];
        let l = drive(6, 0, steps, BuildConfig::fixed_k(3));
        assert_eq!((l.k, &l.gk_members[..]), (3, &[2, 3, 4, 5][..]));
        let capped = BuildConfig {
            max_levels: 4,
            ..BuildConfig::full()
        };
        let l = drive(6, 0, steps, capped);
        assert_eq!((l.k, &l.level_of[..]), (4, &[1, 2, 3, 4, 4, 4][..]));
    }

    #[test]
    fn an_empty_graph_is_k_one_and_a_full_hierarchy_caps_fixed_k() {
        for config in [BuildConfig::default(), BuildConfig::fixed_k(4)] {
            assert_eq!(drive(0, 0, &[], config).k, 1);
        }
        // G_4 is empty after three peels, so k = 4 however large FixedK is.
        let steps: &[(&[VertexId], usize)] = &[(&[0, 2], 1), (&[1], 0), (&[3], 0)];
        let l = drive(4, 3, steps, BuildConfig::fixed_k(10));
        assert_eq!((l.k, &l.level_of[..]), (4, &[1, 2, 1, 3][..]));
        assert!(l.gk_members.is_empty());
    }

    #[test]
    fn replaying_greedy_levels_rebuilds_the_same_hierarchy() {
        let g = erdos_renyi_gnm(300, 800, WeightModel::UniformRange(1, 6), 17);
        let greedy = VertexHierarchy::build(&g, &BuildConfig::default());
        assert!(greedy.num_gk_vertices() > 0);
        let replay = VertexHierarchy::build_with_forced_levels(&g, greedy.levels());
        assert_eq!(replay.k(), greedy.k());
        assert_eq!(replay.levels.level_of, greedy.levels.level_of);
        assert_eq!(replay.peel, greedy.peel);
        assert_eq!(replay.gk(), greedy.gk());
        assert_eq!(replay.gk_vias, greedy.gk_vias);
    }

    #[test]
    #[should_panic(expected = "not an independent set")]
    fn forced_levels_reject_dependent_sets() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        VertexHierarchy::build_with_forced_levels(&b.build(), &[vec![0, 1]]);
    }
}
