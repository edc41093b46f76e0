//! Lazy dynamic updates (paper Section 8.3).
//!
//! The paper's update story is deliberately lazy: inserted vertices join
//! `G_k`, affected *descendant* labels are patched with new upper-bound
//! entries, deletions remove label entries, and "the above lazy update
//! mechanism would have little impact on the query performance for a
//! moderate amount of updates, and we can rebuild the index periodically."
//!
//! We implement that contract with an overlay kept beside the immutable
//! index:
//!
//! * **Guarantee after insertions** (vertices or edges): every reported
//!   distance is the length of a real path in the updated graph, so results
//!   are *upper bounds* of the true distance. They are exact whenever some
//!   true shortest path is covered by a single patch (or by the original
//!   index); only an optimum that routes through interactions *between*
//!   separate updates — which no individual patch sees — can be
//!   overestimated. `rebuild()` restores exactness.
//! * **Guarantee after deletions**: deleting a `G_k` vertex (including any
//!   dynamically inserted vertex) stays *exact* — no label chain or residual
//!   edge routes through other `G_k` vertices. Deleting a *peeled* vertex
//!   marks the index stale ([`Overlay::stale`]): surviving augmenting edges
//!   and label entries may still represent paths through the deleted vertex,
//!   so distances can err in either direction until `rebuild()`.
//! * Queries naming a deleted endpoint return `None`; deleted ancestors are
//!   filtered out of every label at query time.
//!
//! **Kernel routing**: the dense compact-id kernel ([`crate::dense`]) maps
//! the *base* `G_k` vertex set, and a non-pristine index stays on it:
//! sessions build a [`crate::dense::DensePatch`] at creation time —
//! inserted vertices become an order-preserving append-only tail of dense
//! ids, deletions a tombstone bitmap, and inserted residual edges extra
//! adjacency — and run the same zero-alloc search over the patched view
//! (overlay-merged labels are produced into session-owned buffers at seed
//! time). A one-shot query opens such a session for itself, so it pays the
//! snapshot (`Overlay::dense_patch`) per call; `rebuild()` folds the
//! overlay into a fresh base index.
//!
//! **Durability**: every mutation is recorded in an ordered op log
//! ([`UpdateOp`]) inside the overlay. When a write-ahead log is attached
//! ([`IsLabelIndex::attach_wal`](crate::IsLabelIndex::attach_wal)) each op
//! is appended to disk *before* it is applied, and
//! [`crate::persist::load_index_with_wal`] replays the log to reconstruct
//! the exact overlay after a crash; [`crate::persist::try_save_index`]
//! seals the same ops into the artifact, so a non-pristine index persists
//! and reloads losslessly (see [`crate::persist::wal`]).

use crate::dense::{DensePatch, GkIdMap};
use crate::hierarchy::VertexHierarchy;
use crate::index::IsLabelIndex;
use crate::label::{LabelSet, LabelView};
use islabel_graph::{CsrGraph, Dist, FxHashMap, FxHashSet, VertexId, Weight};

/// One dynamic update in application order — the unit of the write-ahead
/// log ([`crate::persist::wal`]) and of the sealed-ops section of a
/// persisted artifact. Replaying a prefix of the recorded ops through the
/// normal mutation path reconstructs the overlay of that moment exactly
/// (the patching algorithms are deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// [`IsLabelIndex::insert_vertex`] with the given adjacency.
    InsertVertex {
        /// `(neighbor, weight)` pairs of the new vertex.
        edges: Vec<(VertexId, Weight)>,
    },
    /// [`IsLabelIndex::insert_edge`].
    InsertEdge {
        /// One endpoint.
        a: VertexId,
        /// The other endpoint.
        b: VertexId,
        /// Positive edge weight.
        w: Weight,
    },
    /// [`IsLabelIndex::delete_vertex`].
    DeleteVertex {
        /// The tombstoned vertex.
        v: VertexId,
    },
}

impl UpdateOp {
    /// Checks this op against the overlay state it would apply to,
    /// mirroring the mutation path's assertions — so WAL replay can reject
    /// a checksum-valid but semantically impossible record cleanly instead
    /// of panicking mid-recovery. (A `DeleteVertex` of an already-deleted
    /// vertex is also rejected: the mutation path never logs the idempotent
    /// no-op, so such a record cannot occur in a consistent log.)
    pub(crate) fn validate(&self, overlay: &Overlay) -> Result<(), String> {
        let universe = overlay.universe();
        let check = |v: VertexId, role: &str| -> Result<(), String> {
            if (v as usize) >= universe {
                return Err(format!("{role} {v} out of range"));
            }
            if overlay.is_deleted(v) {
                return Err(format!("{role} {v} is deleted"));
            }
            Ok(())
        };
        match self {
            UpdateOp::InsertVertex { edges } => {
                for &(v, w) in edges {
                    check(v, "neighbor")?;
                    if w == 0 {
                        return Err("weights must be positive".to_string());
                    }
                }
            }
            UpdateOp::InsertEdge { a, b, w } => {
                check(*a, "vertex")?;
                check(*b, "vertex")?;
                if a == b {
                    return Err("self-loops are not allowed".to_string());
                }
                if *w == 0 {
                    return Err("weights must be positive".to_string());
                }
            }
            UpdateOp::DeleteVertex { v } => {
                if (*v as usize) >= universe {
                    return Err(format!("vertex {v} out of range"));
                }
                if overlay.is_deleted(*v) {
                    return Err(format!("vertex {v} already deleted"));
                }
            }
        }
        Ok(())
    }
}

/// Overlay state accumulated by dynamic updates.
#[derive(Debug, Default)]
pub struct Overlay {
    base_n: usize,
    extra_vertices: usize,
    /// Extra residual-graph adjacency (both directions), covering inserted
    /// vertices and inserted `G_k`-to-`G_k` edges.
    gk_extra: FxHashMap<VertexId, Vec<(VertexId, Weight)>>,
    /// Tombstoned vertices.
    deleted: FxHashSet<VertexId>,
    /// Extra label entries per vertex, ascending by ancestor, min-merged.
    label_patches: FxHashMap<VertexId, Vec<(VertexId, Dist)>>,
    /// Every inserted edge verbatim, for [`Overlay::materialize`].
    inserted_edges: Vec<(VertexId, VertexId, Weight)>,
    /// Reverse first-hop DAG (`children[u]` = vertices whose peel adjacency
    /// lists `u`), built on first use.
    children: Option<Vec<Vec<VertexId>>>,
    stale: bool,
    /// Every applied mutation in order — the source of WAL records and of
    /// the sealed-ops section of a persisted artifact. Idempotent no-ops
    /// (re-deleting a deleted vertex) are not recorded.
    ops: Vec<UpdateOp>,
}

/// A label after overlay application: borrowed when untouched, materialized
/// when patched or filtered.
pub(crate) enum EffLabel<'a> {
    Base(LabelView<'a>),
    Owned {
        ancestors: Vec<VertexId>,
        dists: Vec<Dist>,
    },
}

impl EffLabel<'_> {
    /// Views the entries (owned labels carry no first hops — path
    /// reconstruction is only offered on pristine indexes).
    pub(crate) fn view(&self) -> LabelView<'_> {
        match self {
            EffLabel::Base(v) => *v,
            EffLabel::Owned { ancestors, dists } => LabelView {
                ancestors,
                dists,
                first_hops: &[],
            },
        }
    }
}

impl Overlay {
    /// Fresh overlay over a base universe of `base_n` vertices.
    pub fn new(base_n: usize) -> Self {
        Self {
            base_n,
            ..Default::default()
        }
    }

    /// Current universe (base plus inserted vertices).
    pub fn universe(&self) -> usize {
        self.base_n + self.extra_vertices
    }

    /// Whether no update has been applied.
    pub fn is_pristine(&self) -> bool {
        self.extra_vertices == 0
            && self.deleted.is_empty()
            && self.gk_extra.is_empty()
            && self.label_patches.is_empty()
            && self.inserted_edges.is_empty()
            && self.ops.is_empty()
    }

    /// The ordered mutation log (see [`UpdateOp`]).
    pub(crate) fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Whether deletions of peeled vertices have made distances unreliable.
    pub fn stale(&self) -> bool {
        self.stale
    }

    /// Whether `v` is tombstoned.
    pub fn is_deleted(&self, v: VertexId) -> bool {
        !self.deleted.is_empty() && self.deleted.contains(&v)
    }

    /// Effective `G_k` membership: inserted vertices always live in `G_k`.
    pub fn effective_in_gk(&self, h: &VertexHierarchy, v: VertexId) -> bool {
        if (v as usize) >= self.base_n {
            true
        } else {
            h.is_in_gk(v)
        }
    }

    /// The label of `v` with patches merged and deleted ancestors removed.
    pub(crate) fn effective_label<'a>(&'a self, labels: &'a LabelSet, v: VertexId) -> EffLabel<'a> {
        if (v as usize) < self.base_n
            && !self.label_patches.contains_key(&v)
            && self.deleted.is_empty()
        {
            return EffLabel::Base(labels.label(v));
        }
        let mut ancestors = Vec::new();
        let mut dists = Vec::new();
        self.merge_label_into(labels, v, &mut ancestors, &mut dists);
        EffLabel::Owned { ancestors, dists }
    }

    /// Buffer-reusing form of [`Overlay::effective_label`] for the session
    /// dense path: untouched labels are returned borrowed from the base
    /// set, patched ones are merged into the caller's buffers (pre-size
    /// them to `max_label_len + max_patch_len` for zero steady-state
    /// allocations).
    pub(crate) fn effective_label_into<'a>(
        &self,
        labels: &'a LabelSet,
        v: VertexId,
        ancestors: &'a mut Vec<VertexId>,
        dists: &'a mut Vec<Dist>,
    ) -> LabelView<'a> {
        if (v as usize) < self.base_n
            && !self.label_patches.contains_key(&v)
            && self.deleted.is_empty()
        {
            return labels.label(v);
        }
        self.merge_label_into(labels, v, ancestors, dists);
        LabelView {
            ancestors,
            dists,
            first_hops: &[],
        }
    }

    /// Longest label patch, in entries (pre-sizes session label buffers).
    pub(crate) fn max_patch_len(&self) -> usize {
        self.label_patches.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Merges `v`'s base entries (if any) with its patches, min per
    /// ancestor, dropping deleted ancestors, into `ancestors`/`dists`.
    fn merge_label_into(
        &self,
        labels: &LabelSet,
        v: VertexId,
        ancestors: &mut Vec<VertexId>,
        dists: &mut Vec<Dist>,
    ) {
        ancestors.clear();
        dists.clear();
        let base = ((v as usize) < self.base_n).then(|| labels.label(v));
        let empty: &[(VertexId, Dist)] = &[];
        let patch: &[(VertexId, Dist)] = self.label_patches.get(&v).map_or(empty, |p| p.as_slice());
        let (mut i, mut j) = (0usize, 0usize);
        let (banc, bdist): (&[VertexId], &[Dist]) =
            base.map_or((&[], &[]), |b| (b.ancestors, b.dists));
        while i < banc.len() || j < patch.len() {
            let take_base = match (banc.get(i), patch.get(j)) {
                (Some(&ba), Some(&(pa, _))) => {
                    if ba == pa {
                        // Same ancestor on both sides: keep the minimum.
                        let d = bdist[i].min(patch[j].1);
                        if !self.is_deleted(ba) {
                            ancestors.push(ba);
                            dists.push(d);
                        }
                        i += 1;
                        j += 1;
                        continue;
                    }
                    ba < pa
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_base {
                if !self.is_deleted(banc[i]) {
                    ancestors.push(banc[i]);
                    dists.push(bdist[i]);
                }
                i += 1;
            } else {
                if !self.is_deleted(patch[j].0) {
                    ancestors.push(patch[j].0);
                    dists.push(patch[j].1);
                }
                j += 1;
            }
        }
    }

    /// Remaps the overlay's residual deltas into compact-id space for the
    /// session dense path: inserted vertices become tail ids (global
    /// `base_n + j` → dense `|ids| + j`, preserving id order), deletions
    /// become tombstones, and the extra residual adjacency is translated
    /// list by list in push order.
    pub(crate) fn dense_patch(&self, ids: &GkIdMap) -> DensePatch {
        let m = ids.len();
        let to_dense = |v: VertexId| -> Option<u32> {
            if (v as usize) < self.base_n {
                ids.dense(v)
            } else {
                Some((m + (v as usize - self.base_n)) as u32)
            }
        };
        let mut patch = DensePatch::new(m, self.extra_vertices);
        for &v in &self.deleted {
            if let Some(d) = to_dense(v) {
                patch.mark_dead(d);
            }
        }
        for (&u, list) in &self.gk_extra {
            let du = to_dense(u).expect("gk_extra key is an effective G_k vertex");
            for &(v, w) in list {
                let dv = to_dense(v).expect("gk_extra target is an effective G_k vertex");
                patch.push_edge(du, dv, w);
            }
        }
        patch
    }

    /// Materializes the fully updated graph: base edges minus tombstones,
    /// plus every inserted edge. Deleted vertices become isolated.
    pub fn materialize(&self, base: &CsrGraph) -> CsrGraph {
        let mut b = islabel_graph::GraphBuilder::new(self.universe());
        b.reserve(base.num_edges() + self.inserted_edges.len());
        for (u, v, w) in base.edge_list() {
            if !self.is_deleted(u) && !self.is_deleted(v) {
                b.add_edge(u, v, w);
            }
        }
        for &(u, v, w) in &self.inserted_edges {
            if !self.is_deleted(u) && !self.is_deleted(v) {
                b.add_edge(u, v, w);
            }
        }
        b.build()
    }

    // -----------------------------------------------------------------
    // Mutations, written as associated functions taking the whole index
    // so they can borrow hierarchy/labels immutably beside the overlay.
    // -----------------------------------------------------------------

    /// Implements [`IsLabelIndex::insert_vertex`].
    pub(crate) fn insert_vertex(
        index: &mut IsLabelIndex,
        edges: &[(VertexId, Weight)],
    ) -> VertexId {
        let u = index.overlay.universe() as VertexId;
        for &(v, w) in edges {
            assert!(
                (v as usize) < index.overlay.universe(),
                "neighbor {v} out of range"
            );
            assert!(!index.overlay.is_deleted(v), "neighbor {v} is deleted");
            assert!(w > 0, "weights must be positive");
        }
        index.overlay.ops.push(UpdateOp::InsertVertex {
            edges: edges.to_vec(),
        });
        index.overlay.extra_vertices += 1;
        // The new vertex lives in G_k with a self-only label.
        index.overlay.label_patches.insert(u, vec![(u, 0)]);

        for &(v, w) in edges {
            index.overlay.inserted_edges.push((u, v, w));
            if index.overlay.effective_in_gk(&index.hierarchy, v) {
                // "If v is in G_k, then we simply add the edge (u, v)."
                push_gk_edge(&mut index.overlay.gk_extra, u, v, w);
            } else {
                // "Otherwise ... add (u, ω(u, v)) to label(v)" and patch all
                // descendants of v with the accumulated distance.
                Overlay::patch_with_entries(index, v, &[(u, w as Dist)]);
            }
        }
        u
    }

    /// Implements [`IsLabelIndex::insert_edge`].
    pub(crate) fn insert_edge(index: &mut IsLabelIndex, a: VertexId, b: VertexId, w: Weight) {
        assert!(
            (a as usize) < index.overlay.universe(),
            "vertex {a} out of range"
        );
        assert!(
            (b as usize) < index.overlay.universe(),
            "vertex {b} out of range"
        );
        assert!(a != b, "self-loops are not allowed");
        assert!(
            !index.overlay.is_deleted(a) && !index.overlay.is_deleted(b),
            "endpoint deleted"
        );
        assert!(w > 0, "weights must be positive");
        index.overlay.ops.push(UpdateOp::InsertEdge { a, b, w });
        index.overlay.inserted_edges.push((a, b, w));

        let a_gk = index.overlay.effective_in_gk(&index.hierarchy, a);
        let b_gk = index.overlay.effective_in_gk(&index.hierarchy, b);
        if a_gk && b_gk {
            push_gk_edge(&mut index.overlay.gk_extra, a, b, w);
            return;
        }
        // For each non-G_k endpoint x, teach x (and its descendants) the
        // other endpoint's entire label shifted by w — each patched value is
        // the length of a real path x → other → ancestor.
        for (x, y) in [(a, b), (b, a)] {
            if !index.overlay.effective_in_gk(&index.hierarchy, x) {
                let shifted: Vec<(VertexId, Dist)> = index
                    .overlay
                    .effective_label(&index.labels, y)
                    .view()
                    .iter()
                    .map(|(anc, d)| (anc, d + w as Dist))
                    .collect();
                Overlay::patch_with_entries(index, x, &shifted);
            }
        }
    }

    /// Implements [`IsLabelIndex::delete_vertex`].
    pub(crate) fn delete_vertex(index: &mut IsLabelIndex, v: VertexId) {
        assert!(
            (v as usize) < index.overlay.universe(),
            "vertex {v} out of range"
        );
        if index.overlay.is_deleted(v) {
            return;
        }
        index.overlay.ops.push(UpdateOp::DeleteVertex { v });
        let was_peeled = (v as usize) < index.overlay.base_n && !index.hierarchy.is_in_gk(v);
        index.overlay.deleted.insert(v);
        index.overlay.label_patches.remove(&v);
        if let Some(list) = index.overlay.gk_extra.remove(&v) {
            for (nbr, _) in list {
                if let Some(mirror) = index.overlay.gk_extra.get_mut(&nbr) {
                    mirror.retain(|&(x, _)| x != v);
                }
            }
        }
        if was_peeled {
            // Augmenting edges and label entries may still represent paths
            // through v; only a rebuild can reconcile them (paper: "rebuild
            // the index periodically").
            index.overlay.stale = true;
        }
    }

    /// Patches `target` and all its descendants with `entries` (descendants
    /// get each distance shifted by their label distance to `target`).
    fn patch_with_entries(
        index: &mut IsLabelIndex,
        target: VertexId,
        entries: &[(VertexId, Dist)],
    ) {
        // Collect (vertex, shift) pairs first so all label reads happen
        // before any patch write.
        let mut victims: Vec<(VertexId, Dist)> = vec![(target, 0)];
        Overlay::ensure_children(index);
        let children = index.overlay.children.as_ref().expect("just built");
        let mut visited: FxHashSet<VertexId> = FxHashSet::default();
        visited.insert(target);
        let mut stack = vec![target];
        while let Some(x) = stack.pop() {
            if (x as usize) >= children.len() {
                continue; // inserted vertices have no children
            }
            for &c in &children[x as usize] {
                if visited.insert(c) {
                    stack.push(c);
                }
            }
        }
        for &x in visited.iter() {
            if x == target || index.overlay.is_deleted(x) {
                continue;
            }
            // d(x, target) from x's effective label; target is an ancestor
            // of every descendant by construction of the first-hop DAG.
            if let Some(d) = index
                .overlay
                .effective_label(&index.labels, x)
                .view()
                .get(target)
            {
                victims.push((x, d));
            }
        }

        for (x, shift) in victims {
            let patch = index.overlay.label_patches.entry(x).or_default();
            for &(anc, d) in entries {
                merge_patch(patch, anc, d + shift);
            }
        }
    }

    /// Builds the reverse first-hop DAG once.
    fn ensure_children(index: &mut IsLabelIndex) {
        if index.overlay.children.is_some() {
            return;
        }
        let n = index.overlay.base_n;
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for x in 0..n as VertexId {
            for e in index.hierarchy.peel_adj(x) {
                children[e.to as usize].push(x);
            }
        }
        index.overlay.children = Some(children);
    }
}

/// Inserts a sorted patch entry, keeping the minimum on collision.
fn merge_patch(patch: &mut Vec<(VertexId, Dist)>, anc: VertexId, d: Dist) {
    match patch.binary_search_by_key(&anc, |&(a, _)| a) {
        Ok(i) => patch[i].1 = patch[i].1.min(d),
        Err(i) => patch.insert(i, (anc, d)),
    }
}

fn push_gk_edge(
    gk_extra: &mut FxHashMap<VertexId, Vec<(VertexId, Weight)>>,
    u: VertexId,
    v: VertexId,
    w: Weight,
) {
    gk_extra.entry(u).or_default().push((v, w));
    gk_extra.entry(v).or_default().push((u, w));
}

#[cfg(test)]
mod tests {
    use crate::config::BuildConfig;
    use crate::index::IsLabelIndex;
    use crate::reference::dijkstra_p2p;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, WeightModel};
    use islabel_graph::{GraphBuilder, VertexId};

    fn check_upper_bound_and_rebuild_exact(
        index: &mut IsLabelIndex,
        queries: &[(VertexId, VertexId)],
    ) {
        let current = index.current_graph();
        for &(s, t) in queries {
            let truth = dijkstra_p2p(&current, s, t);
            let got = index.distance(s, t);
            match (got, truth) {
                (Some(g), Some(tr)) => {
                    assert!(g >= tr, "({s}, {t}): reported {g} below true {tr}")
                }
                (None, Some(_)) => {} // may miss a path; upper-bound contract
                (Some(_), None) => panic!("({s}, {t}): reported a distance for unreachable pair"),
                (None, None) => {}
            }
        }
        index.rebuild();
        assert!(!index.has_updates());
        let current = index.current_graph();
        for &(s, t) in queries {
            assert_eq!(
                index.distance(s, t),
                dijkstra_p2p(&current, s, t),
                "post-rebuild ({s}, {t})"
            );
        }
    }

    #[test]
    fn insert_vertex_adjacent_to_gk_is_exact() {
        let g = barabasi_albert(150, 3, WeightModel::Unit, 5);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let gk_a = index.hierarchy().gk_members()[0];
        let gk_b = index.hierarchy().gk_members()[1];
        let u = index.insert_vertex(&[(gk_a, 2), (gk_b, 5)]);
        assert!(index.has_updates());
        assert!(!index.is_stale());
        assert_eq!(index.num_vertices(), 151);

        let current = index.current_graph();
        // Queries to/from the new vertex match ground truth exactly: the new
        // vertex is in G_k and both its edges are searchable.
        for t in [gk_a, gk_b, 0, 17, 42] {
            assert_eq!(
                index.distance(u, t),
                dijkstra_p2p(&current, u, t),
                "u -> {t}"
            );
            assert_eq!(
                index.distance(t, u),
                dijkstra_p2p(&current, t, u),
                "{t} -> u"
            );
        }
    }

    #[test]
    fn insert_vertex_adjacent_to_peeled_is_upper_bound() {
        let g = barabasi_albert(150, 3, WeightModel::UniformRange(1, 3), 6);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let peeled: Vec<VertexId> = g
            .vertices()
            .filter(|&v| !index.is_in_gk(v))
            .take(2)
            .collect();
        assert_eq!(peeled.len(), 2, "test needs peeled vertices");
        let u = index.insert_vertex(&[(peeled[0], 1), (peeled[1], 4)]);

        let queries: Vec<(VertexId, VertexId)> = (0..30)
            .map(|i| (u, (i * 5) % 150))
            .chain([(peeled[0], u), (u, u)])
            .collect();
        check_upper_bound_and_rebuild_exact(&mut index, &queries);
    }

    #[test]
    fn insert_edge_between_gk_vertices_is_exact() {
        let g = erdos_renyi_gnm(120, 360, WeightModel::UniformRange(2, 9), 7);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let members = index.hierarchy().gk_members().to_vec();
        assert!(members.len() >= 2);
        let (a, b) = (members[0], *members.last().unwrap());
        index.insert_edge(a, b, 1);
        let current = index.current_graph();
        for (s, t) in [(a, b), (0, 119), (a, 60), (5, b)] {
            assert_eq!(
                index.distance(s, t),
                dijkstra_p2p(&current, s, t),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn insert_edge_touching_peeled_vertex_is_upper_bound() {
        let g = barabasi_albert(100, 2, WeightModel::UniformRange(1, 5), 8);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let peeled = g.vertices().find(|&v| !index.is_in_gk(v)).unwrap();
        let far = g.vertices().rev().find(|&v| v != peeled).unwrap();
        index.insert_edge(peeled, far, 1);
        let queries: Vec<(VertexId, VertexId)> = (0..25)
            .map(|i| ((i * 3) % 100, (i * 11 + 7) % 100))
            .collect();
        check_upper_bound_and_rebuild_exact(&mut index, &queries);
    }

    #[test]
    fn delete_gk_vertex_stays_exact() {
        let g = erdos_renyi_gnm(120, 300, WeightModel::Unit, 9);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let victim = index.hierarchy().gk_members()[0];
        index.delete_vertex(victim);
        assert!(
            !index.is_stale(),
            "deleting a G_k vertex must not mark stale"
        );
        assert_eq!(index.distance(victim, 0), None);
        assert_eq!(index.distance(0, victim), None);

        let current = index.current_graph();
        for (s, t) in [(0u32, 119u32), (3, 40), (10, 90), (55, 56)] {
            assert_eq!(
                index.distance(s, t),
                dijkstra_p2p(&current, s, t),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn delete_peeled_vertex_marks_stale_and_rebuild_recovers() {
        let g = barabasi_albert(100, 2, WeightModel::Unit, 10);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let victim = g.vertices().find(|&v| !index.is_in_gk(v)).unwrap();
        index.delete_vertex(victim);
        assert!(index.is_stale());
        assert_eq!(index.distance(victim, 1), None);

        index.rebuild();
        assert!(!index.is_stale());
        let current = index.current_graph();
        for (s, t) in [(0u32, 99u32), (2, 50), (victim, 3)] {
            assert_eq!(
                index.distance(s, t),
                dijkstra_p2p(&current, s, t),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn delete_is_idempotent_and_double_insert_works() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let mut index = IsLabelIndex::build(&b.build(), BuildConfig::default());
        index.delete_vertex(1);
        index.delete_vertex(1);
        // Vertex 1 was peeled: the index is stale (label entries may still
        // reflect paths through it — the documented lazy semantics), but
        // queries naming the deleted endpoint must answer None.
        assert!(index.is_stale());
        assert_eq!(index.distance(1, 2), None);
        assert_eq!(index.distance(0, 1), None);

        let u = index.insert_vertex(&[(0, 1), (2, 1)]);
        let v = index.insert_vertex(&[(u, 1)]);
        assert_eq!(index.distance(0, 2), Some(2)); // 0-u-2 bypasses deleted 1
        assert_eq!(index.distance(v, 2), Some(2));

        // Rebuild reconciles everything exactly.
        index.rebuild();
        let g = index.current_graph();
        assert_eq!(index.distance(0, 2), dijkstra_p2p(&g, 0, 2));
        assert_eq!(index.distance(0, 2), Some(2));
        assert_eq!(index.distance(0, 1), None);
    }

    #[test]
    fn chained_inserts_compose() {
        // Build a chain of inserted vertices hanging off the graph and check
        // distances along it (pure G_k reasoning, hence exact).
        let g = erdos_renyi_gnm(60, 150, WeightModel::Unit, 11);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        let anchor = index.hierarchy().gk_members()[0];
        let mut prev = anchor;
        let mut ids = Vec::new();
        for _ in 0..5 {
            let u = index.insert_vertex(&[(prev, 2)]);
            ids.push(u);
            prev = u;
        }
        assert_eq!(index.distance(anchor, *ids.last().unwrap()), Some(10));
        assert_eq!(index.distance(ids[0], ids[4]), Some(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_edge_to_unknown_vertex_panics() {
        let g = erdos_renyi_gnm(10, 20, WeightModel::Unit, 1);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        index.insert_edge(0, 99, 1);
    }

    #[test]
    fn materialize_reflects_all_updates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 5);
        let mut index = IsLabelIndex::build(&b.build(), BuildConfig::default());
        let u = index.insert_vertex(&[(0, 1)]);
        index.insert_edge(u, 2, 1);
        index.delete_vertex(1);
        let g = index.current_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.degree(1), 0); // deleted => isolated
        assert_eq!(g.edge_weight(0, u), Some(1));
        assert_eq!(g.edge_weight(u, 2), Some(1));
        assert_eq!(g.num_edges(), 2);
    }
}
