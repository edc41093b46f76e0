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
//! * **A label-only index** ([`crate::KSelection::Full`]) searches none of
//!   its base vertices, so the overlay treats its core `G_k` as peeled: an
//!   update at a core vertex patches labels, and deleting one marks the
//!   index stale, since a core label's hub entries may route through it
//!   (`docs/adr/0021-degree-ranked-core.md`). Its searched view is the
//!   inserted tail alone.
//! * Queries naming a deleted endpoint return `None`; deleted ancestors are
//!   filtered out of every label at query time.
//!
//! **Kernel routing**: the dense compact-id kernel ([`crate::dense`]) maps
//! the *base* `G_k` vertex set, and a non-pristine index stays on it. The
//! overlay owns a [`DensePatch`] — inserted vertices as an
//! order-preserving append-only tail of dense ids, deletions as a
//! tombstone bitmap, inserted residual edges as extra adjacency — created
//! by its first mutation and maintained by each one, so it *is* the
//! residual delta at all times. A session borrows it and runs the same
//! zero-alloc search over the patched view (overlay-merged labels are
//! produced into session-owned buffers at seed time); opening one costs
//! what it costs on a pristine index plus four label buffers, whatever
//! the number of pending ops. `rebuild()` folds the overlay into a fresh
//! base index.
//!
//! **State, and how it is kept** (`docs/adr/0006-flat-overlay.md`): a
//! label patch is strictly ancestor-ascending and only ever min-merged;
//! the descendants of a patched vertex are walked over the reverse peel
//! DAG, held as one CSR with a stamped visited array from the first
//! peeled-endpoint update on; all label reads of one patch application
//! precede its first write; nothing is ever removed from the
//! [`DensePatch`] — the view filters tombstoned endpoints.
//!
//! **Width**: a patch stores [`LabelDist`]s, as the base labels do. An
//! insertion is checked before it is logged: when twice the largest label
//! distance plus twice its weight fits, no patched value can overflow (see
//! `Overlay::check_fits`); otherwise the op is applied to a copy of the
//! overlay first, and refused as
//! [`Error::InvalidUpdate`](crate::Error::InvalidUpdate) if a patched
//! value would pass `u32::MAX`.
//!
//! **Durability**: every mutation is recorded in an ordered op log
//! ([`UpdateOp`]) inside the overlay. When a write-ahead log is attached
//! ([`IsLabelIndex::attach_wal`](crate::IsLabelIndex::attach_wal)) each op
//! is appended to disk *before* it is applied, and
//! [`crate::persist::load_index_with_wal`] replays the log to reconstruct
//! the exact overlay after a crash; [`crate::persist::try_save_index_to_path`]
//! seals the same ops into the artifact, so a non-pristine index persists
//! and reloads losslessly (see [`crate::persist::wal`]).

use crate::dense::{DensePatch, GkIdMap, StampedSlab};
use crate::hierarchy::HierarchyView;
use crate::label::{LabelDist, LabelView, Labels};
use crate::persist::v3::Sections;
use islabel_graph::{CsrGraph, Dist, FxHashMap, VertexId, Weight};

/// One dynamic update in application order — the unit of the write-ahead
/// log ([`crate::persist::wal`]) and of the sealed-ops section of a
/// persisted artifact. Replaying a prefix of the recorded ops through the
/// normal mutation path reconstructs the overlay of that moment exactly
/// (the patching algorithms are deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// [`IsLabelIndex::try_insert_vertex`](crate::IsLabelIndex::try_insert_vertex) with the given adjacency.
    InsertVertex {
        /// `(neighbor, weight)` pairs of the new vertex.
        edges: Vec<(VertexId, Weight)>,
    },
    /// [`IsLabelIndex::try_insert_edge`](crate::IsLabelIndex::try_insert_edge).
    InsertEdge {
        /// One endpoint.
        a: VertexId,
        /// The other endpoint.
        b: VertexId,
        /// Positive edge weight.
        w: Weight,
    },
    /// [`IsLabelIndex::try_delete_vertex`](crate::IsLabelIndex::try_delete_vertex).
    DeleteVertex {
        /// The tombstoned vertex.
        v: VertexId,
    },
}

impl UpdateOp {
    /// Checks this op against the overlay state it would apply to: the
    /// public update methods refuse what fails it with
    /// [`Error::InvalidUpdate`](crate::Error::InvalidUpdate), and WAL
    /// replay rejects a checksum-valid but semantically impossible record
    /// cleanly instead of panicking mid-recovery. (A `DeleteVertex` of an
    /// already-deleted vertex is rejected too, so such a record cannot
    /// occur in a consistent log.)
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
///
/// `==` compares the *state* — patches, tombstones, the residual delta,
/// the op log and the counters derived from them — and not the write
/// path's working memory, so a replayed overlay equals the live one it
/// reconstructs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overlay {
    base_n: usize,
    extra_vertices: usize,
    /// Tombstone bitmap over global ids, grown on demand: a vertex beyond
    /// its end is alive.
    dead: Vec<u64>,
    /// Tombstoned vertices in deletion order.
    deleted: Vec<VertexId>,
    /// Extra label entries per vertex, ascending by ancestor, min-merged.
    label_patches: FxHashMap<VertexId, Vec<(VertexId, LabelDist)>>,
    /// Upper bound on every label distance, base and patch: raised as
    /// patches are written, never lowered (it only gates
    /// [`Overlay::check_fits`]'s fast path).
    max_dist: LabelDist,
    /// Entries over all of `label_patches`.
    patch_entries: usize,
    /// Upper bound on the longest patch: raised as patches grow, never
    /// lowered when a deletion drops one (it only pre-sizes buffers).
    max_patch_len: usize,
    /// Every inserted edge verbatim, for [`Overlay::materialize`].
    inserted_edges: Vec<(VertexId, VertexId, Weight)>,
    /// The residual-graph delta in compact-id space (see the module docs):
    /// `None` exactly while the overlay is pristine.
    residual: Option<DensePatch>,
    /// Inserted `G_k`-to-`G_k` edges, those at since-deleted vertices
    /// included (each is two entries of `residual`).
    residual_edges: usize,
    stale: bool,
    /// Every applied mutation in order — the source of WAL records and of
    /// the sealed-ops section of a persisted artifact. Idempotent no-ops
    /// (re-deleting a deleted vertex) are not recorded.
    ops: Vec<UpdateOp>,
    /// Working memory of the write path; not state.
    scratch: PatchScratch,
}

/// What [`Overlay::patch_with_entries`] reuses from call to call.
#[derive(Debug, Default)]
struct PatchScratch {
    /// Built by the first update that patches a peeled vertex.
    walk: Option<DescendantWalk>,
    /// The label one `insert_edge` endpoint teaches the other, shifted.
    shifted: Vec<(VertexId, Dist)>,
    /// `(vertex, d(vertex, target))` of the walk in progress.
    victims: Vec<(VertexId, LabelDist)>,
    merged: Vec<(VertexId, LabelDist)>,
    /// Set when a patched value did not fit in [`LabelDist`] (and was
    /// stored saturated): only ever on the copy
    /// [`Overlay::check_fits`] tries an op on.
    overflowed: bool,
    /// Ops [`Overlay::check_fits`] had to try on a copy: a count of work
    /// done, not state, so it never tells two overlays apart either.
    slow_fit_checks: usize,
}

/// Working memory never tells two overlays apart.
impl PartialEq for PatchScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A copy starts with empty working memory.
impl Clone for PatchScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// One reverse adjacency in CSR form: `row(u)` lists, ascending, the
/// vertices that name `u` as a parent.
#[derive(Debug)]
struct Children {
    offsets: Vec<u32>,
    list: Vec<VertexId>,
}

impl Children {
    /// Transposes `parents` over the `n` base vertices in two counting
    /// passes.
    fn transpose<I: Iterator<Item = VertexId>>(n: usize, parents: impl Fn(VertexId) -> I) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for x in 0..n as VertexId {
            for u in parents(x) {
                offsets[u as usize + 1] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut next = offsets[..n].to_vec();
        let mut list = vec![0; offsets[n] as usize];
        for x in 0..n as VertexId {
            for u in parents(x) {
                let slot = &mut next[u as usize];
                list[*slot as usize] = x;
                *slot += 1;
            }
        }
        Self { offsets, list }
    }

    #[inline]
    fn row(&self, u: VertexId) -> &[VertexId] {
        let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        &self.list[lo as usize..hi as usize]
    }

    fn memory_bytes(&self) -> usize {
        (self.offsets.capacity() + self.list.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Who holds whom in a label, as a walk: the reverse peel DAG (`peel.row(u)`
/// are the vertices whose peel adjacency lists `u`) and, in a label-only
/// index, the core's hubs (`hubs.row(u)` are the `G_k` vertices whose
/// pruned label holds `u`), with the stamped visited array of the walk over
/// them. The vertices whose label contains `u` are exactly those the peel
/// DAG reaches from `u` and from its hub children: Definition 3 read
/// backwards, and Algorithm 4 carrying each core label down whole. A hub
/// child's own hub children need not hold `u` — pruned labels are not
/// transitive — so the walk takes hub edges from the root only.
#[derive(Debug)]
struct DescendantWalk {
    peel: Children,
    hubs: Children,
    seen: StampedSlab<()>,
    stack: Vec<VertexId>,
}

impl DescendantWalk {
    /// Transposes the peel rows and the `G_k` labels of the `n` base
    /// vertices (a self entry names no parent).
    fn build(s: Sections<'_>, n: usize) -> Self {
        let (h, labels) = (s.hierarchy, s.labels);
        let peel = Children::transpose(n, |x| h.peel_adj(x).map(|e| e.to));
        let hubs = Children::transpose(n, |x| {
            let label = if h.is_in_gk(x) {
                labels.label(x).ancestors
            } else {
                &[]
            };
            label.iter().copied().filter(move |&a| a != x)
        });
        Self {
            peel,
            hubs,
            seen: StampedSlab::new(n),
            stack: Vec::new(),
        }
    }

    /// Hands every proper descendant of `root` to `visit`, each once.
    fn for_each_descendant(&mut self, root: VertexId, mut visit: impl FnMut(VertexId)) {
        let Self {
            peel,
            hubs,
            seen,
            stack,
        } = self;
        seen.reset();
        seen.set(root, ());
        stack.push(root);
        for &c in hubs.row(root) {
            seen.set(c, ());
            stack.push(c);
            visit(c);
        }
        while let Some(x) = stack.pop() {
            for &c in peel.row(x) {
                if !seen.contains(c) {
                    seen.set(c, ());
                    stack.push(c);
                    visit(c);
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.peel.memory_bytes()
            + self.hubs.memory_bytes()
            + (self.seen.len() + self.stack.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The overlay's shape ([`IsLabelIndex::overlay_stats`](crate::IsLabelIndex::overlay_stats)): counters the
/// mutation path maintains, so reading them costs nothing, and `bytes`,
/// which is summed over capacities on call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlayStats {
    /// Applied mutations since the last build (the op log length).
    pub pending_ops: usize,
    /// Dynamically inserted vertices, deleted ones included.
    pub inserted_vertices: usize,
    /// Deleted vertices.
    pub tombstones: usize,
    /// Vertices whose label carries a patch.
    pub patched_labels: usize,
    /// Entries over all label patches.
    pub patch_entries: usize,
    /// Upper bound on the longest label patch (a deletion that drops the
    /// longest one does not lower it).
    pub max_patch_len: usize,
    /// Inserted `G_k`-to-`G_k` edges, those at since-deleted vertices
    /// included.
    pub extra_edges: usize,
    /// Insertions whose quick bound check failed, so each was first tried
    /// on a copy of the overlay (refused ones included).
    pub slow_fit_checks: usize,
    /// Heap bytes the overlay holds, working memory included.
    pub bytes: usize,
}

impl Overlay {
    /// Fresh overlay over a base universe of `base_n` vertices whose
    /// labels hold distances up to `max_dist`.
    pub(crate) fn new(base_n: usize, max_dist: LabelDist) -> Self {
        Self {
            base_n,
            max_dist,
            ..Default::default()
        }
    }

    /// Current universe (base plus inserted vertices).
    pub fn universe(&self) -> usize {
        self.base_n + self.extra_vertices
    }

    /// Whether no update has been applied (every mutation logs its op).
    pub fn is_pristine(&self) -> bool {
        self.ops.is_empty()
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
    #[inline]
    pub fn is_deleted(&self, v: VertexId) -> bool {
        self.dead
            .get((v / 64) as usize)
            .is_some_and(|word| (word >> (v % 64)) & 1 == 1)
    }

    /// Effective membership of the searched `G_k`: inserted vertices always
    /// live in it; a label-only index searches no base vertex.
    pub fn effective_in_gk(&self, h: HierarchyView<'_>, v: VertexId) -> bool {
        if (v as usize) >= self.base_n {
            true
        } else {
            h.is_searched(v)
        }
    }

    /// The residual delta sessions search over; `None` while pristine.
    pub(crate) fn residual(&self) -> Option<&DensePatch> {
        self.residual.as_ref()
    }

    /// Compact id of `v` in the patched dense universe: searched base `G_k`
    /// members through `ids` (the searched view's), inserted vertices on
    /// the tail in id order, `None` for any other vertex.
    #[inline]
    pub(crate) fn dense_id(&self, ids: &GkIdMap<&[u32]>, v: VertexId) -> Option<u32> {
        if (v as usize) < self.base_n {
            ids.dense(v)
        } else {
            Some((ids.len() + (v as usize - self.base_n)) as u32)
        }
    }

    /// Longest label patch, as an upper bound (pre-sizes session label
    /// buffers).
    pub(crate) fn max_patch_len(&self) -> usize {
        self.max_patch_len
    }

    /// See [`IsLabelIndex::overlay_stats`](crate::IsLabelIndex::overlay_stats).
    pub(crate) fn stats(&self) -> OverlayStats {
        use std::mem::size_of;
        let patch_bytes = self.label_patches.capacity()
            * size_of::<(VertexId, Vec<(VertexId, LabelDist)>)>()
            + self
                .label_patches
                .values()
                .map(|p| p.capacity() * size_of::<(VertexId, LabelDist)>())
                .sum::<usize>();
        let op_bytes = self.ops.capacity() * size_of::<UpdateOp>()
            + self
                .ops
                .iter()
                .map(|op| match op {
                    UpdateOp::InsertVertex { edges } => {
                        edges.capacity() * size_of::<(VertexId, Weight)>()
                    }
                    _ => 0,
                })
                .sum::<usize>();
        let s = &self.scratch;
        let scratch_bytes = s.walk.as_ref().map_or(0, DescendantWalk::memory_bytes)
            + s.shifted.capacity() * size_of::<(VertexId, Dist)>()
            + (s.victims.capacity() + s.merged.capacity()) * size_of::<(VertexId, LabelDist)>();
        OverlayStats {
            pending_ops: self.ops.len(),
            inserted_vertices: self.extra_vertices,
            tombstones: self.deleted.len(),
            patched_labels: self.label_patches.len(),
            patch_entries: self.patch_entries,
            max_patch_len: self.max_patch_len,
            extra_edges: self.residual_edges,
            slow_fit_checks: s.slow_fit_checks,
            bytes: self.dead.capacity() * size_of::<u64>()
                + self.deleted.capacity() * size_of::<VertexId>()
                + patch_bytes
                + self.inserted_edges.capacity() * size_of::<(VertexId, VertexId, Weight)>()
                + self.residual.as_ref().map_or(0, DensePatch::memory_bytes)
                + op_bytes
                + scratch_bytes,
        }
    }

    /// The label of `v` with patches merged and deleted ancestors removed:
    /// untouched labels are returned borrowed from the base set, patched
    /// ones are merged into the caller's buffers (pre-size them to
    /// `max_label_len + max_patch_len` for zero steady-state allocations).
    pub(crate) fn effective_label_into<'a>(
        &self,
        labels: Labels<'a>,
        v: VertexId,
        ancestors: &'a mut Vec<VertexId>,
        dists: &'a mut Vec<LabelDist>,
    ) -> LabelView<'a> {
        if (v as usize) < self.base_n
            && !self.label_patches.contains_key(&v)
            && self.deleted.is_empty()
        {
            return labels.label(v);
        }
        ancestors.clear();
        dists.clear();
        self.merge_label_into(labels, v, |anc, d| {
            ancestors.push(anc);
            dists.push(d);
        });
        LabelView { ancestors, dists }
    }

    /// Merges `v`'s base entries (if any) with its patches, min per
    /// ancestor, dropping deleted ancestors, and hands each surviving
    /// `(ancestor, dist)` to `emit` in ancestor order.
    #[inline]
    fn merge_label_into(
        &self,
        labels: Labels<'_>,
        v: VertexId,
        mut emit: impl FnMut(VertexId, LabelDist),
    ) {
        let base = ((v as usize) < self.base_n).then(|| labels.label(v));
        let empty: &[(VertexId, LabelDist)] = &[];
        let patch: &[(VertexId, LabelDist)] =
            self.label_patches.get(&v).map_or(empty, |p| p.as_slice());
        let (mut i, mut j) = (0usize, 0usize);
        let (banc, bdist): (&[VertexId], &[LabelDist]) =
            base.map_or((&[], &[]), |b| (b.ancestors, b.dists));
        while i < banc.len() || j < patch.len() {
            let take_base = match (banc.get(i), patch.get(j)) {
                (Some(&ba), Some(&(pa, _))) => {
                    if ba == pa {
                        // Same ancestor on both sides: keep the minimum.
                        let d = bdist[i].min(patch[j].1);
                        if !self.is_deleted(ba) {
                            emit(ba, d);
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
                    emit(banc[i], bdist[i]);
                }
                i += 1;
            } else {
                if !self.is_deleted(patch[j].0) {
                    emit(patch[j].0, patch[j].1);
                }
                j += 1;
            }
        }
    }

    /// Checks that applying `op` writes no label distance past
    /// [`LabelDist`], and leaves the overlay as it was. A patched value is
    /// a shift of at most `max_dist` plus a taught entry of at most
    /// `max_dist` plus twice the op's weight (an `insert_edge` teaches its
    /// second endpoint the first one's label as just patched), so when
    /// that sum fits the check costs nothing. Otherwise `op` runs on a copy
    /// of the overlay, which is then dropped, and the slow path is counted
    /// ([`OverlayStats::slow_fit_checks`]).
    pub(crate) fn check_fits(&mut self, s: Sections<'_>, op: &UpdateOp) -> Result<(), String> {
        let w = match op {
            UpdateOp::InsertVertex { edges } => edges.iter().map(|&(_, w)| w).max().unwrap_or(0),
            UpdateOp::InsertEdge { w, .. } => *w,
            UpdateOp::DeleteVertex { .. } => return Ok(()),
        };
        let bound = 2 * Dist::from(self.max_dist) + 2 * Dist::from(w);
        if bound <= Dist::from(LabelDist::MAX) {
            return Ok(());
        }
        self.scratch.slow_fit_checks += 1;
        let mut trial = self.clone();
        trial.apply(s, op);
        if trial.scratch.overflowed {
            return Err(format!(
                "a patched label distance would exceed u32::MAX (largest label distance {})",
                self.max_dist
            ));
        }
        Ok(())
    }

    /// Applies a checked op; never touches a WAL.
    pub(crate) fn apply(&mut self, s: Sections<'_>, op: &UpdateOp) {
        match op {
            UpdateOp::InsertVertex { edges } => {
                self.insert_vertex(s, edges);
            }
            UpdateOp::InsertEdge { a, b, w } => self.insert_edge(s, *a, *b, *w),
            UpdateOp::DeleteVertex { v } => self.delete_vertex(s, *v),
        }
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
    // Mutations: each reads the index's arrays through `s` and writes
    // only the overlay.
    // -----------------------------------------------------------------

    /// Logs `op` as applied and returns the residual delta for it to
    /// update, creating the delta if this is the first mutation.
    fn begin_op(&mut self, s: Sections<'_>, op: UpdateOp) -> &mut DensePatch {
        self.ops.push(op);
        let base_len = s.hierarchy.searched().ids().len();
        self.residual
            .get_or_insert_with(|| DensePatch::new(base_len, 0))
    }

    /// Implements [`IsLabelIndex::try_insert_vertex`](crate::IsLabelIndex::try_insert_vertex).
    pub(crate) fn insert_vertex(
        &mut self,
        s: Sections<'_>,
        edges: &[(VertexId, Weight)],
    ) -> VertexId {
        let u = self.universe() as VertexId;
        for &(v, w) in edges {
            assert!((v as usize) < self.universe(), "neighbor {v} out of range");
            assert!(!self.is_deleted(v), "neighbor {v} is deleted");
            assert!(w > 0, "weights must be positive");
        }
        self.begin_op(
            s,
            UpdateOp::InsertVertex {
                edges: edges.to_vec(),
            },
        )
        .push_vertex();
        self.extra_vertices += 1;
        // The new vertex lives in G_k with a self-only label.
        self.label_patches.insert(u, vec![(u, 0)]);
        self.patch_entries += 1;
        self.max_patch_len = self.max_patch_len.max(1);

        for &(v, w) in edges {
            self.inserted_edges.push((u, v, w));
            if self.effective_in_gk(s.hierarchy, v) {
                // "If v is in G_k, then we simply add the edge (u, v)."
                self.push_residual_edge(s, u, v, w);
            } else {
                // "Otherwise ... add (u, ω(u, v)) to label(v)" and patch all
                // descendants of v with the accumulated distance.
                self.patch_with_entries(s, v, &[(u, Dist::from(w))]);
            }
        }
        u
    }

    /// Implements [`IsLabelIndex::try_insert_edge`](crate::IsLabelIndex::try_insert_edge).
    pub(crate) fn insert_edge(&mut self, s: Sections<'_>, a: VertexId, b: VertexId, w: Weight) {
        let live = |v: VertexId| (v as usize) < self.universe() && !self.is_deleted(v);
        assert!(live(a) && live(b), "endpoint out of range or deleted");
        assert!(a != b && w > 0, "self-loop or zero weight");
        self.begin_op(s, UpdateOp::InsertEdge { a, b, w });
        self.inserted_edges.push((a, b, w));

        let a_gk = self.effective_in_gk(s.hierarchy, a);
        let b_gk = self.effective_in_gk(s.hierarchy, b);
        if a_gk && b_gk {
            self.push_residual_edge(s, a, b, w);
            return;
        }
        // For each non-G_k endpoint x, teach x (and its descendants) the
        // other endpoint's entire label shifted by w — each patched value is
        // the length of a real path x → other → ancestor. The second
        // endpoint is taught the first one's label as just patched.
        for (x, x_gk, y) in [(a, a_gk, b), (b, b_gk, a)] {
            if !x_gk {
                let mut shifted = std::mem::take(&mut self.scratch.shifted);
                shifted.clear();
                self.merge_label_into(s.labels, y, |anc, d| {
                    shifted.push((anc, Dist::from(d) + Dist::from(w)))
                });
                self.patch_with_entries(s, x, &shifted);
                self.scratch.shifted = shifted;
            }
        }
    }

    /// Implements [`IsLabelIndex::try_delete_vertex`](crate::IsLabelIndex::try_delete_vertex).
    pub(crate) fn delete_vertex(&mut self, s: Sections<'_>, v: VertexId) {
        assert!((v as usize) < self.universe(), "vertex {v} out of range");
        if self.is_deleted(v) {
            return;
        }
        let dense = self.dense_id(s.hierarchy.searched().ids(), v);
        let residual = self.begin_op(s, UpdateOp::DeleteVertex { v });
        if let Some(d) = dense {
            // Its own list and its neighbours' entries for it stay where
            // they are: the patched view skips both.
            residual.mark_dead(d);
        }
        let word = (v / 64) as usize;
        if self.dead.len() <= word {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1u64 << (v % 64);
        self.deleted.push(v);
        if let Some(patch) = self.label_patches.remove(&v) {
            self.patch_entries -= patch.len();
        }
        if dense.is_none() {
            // A peeled vertex, or a label-only index's core vertex:
            // augmenting edges and label entries may still represent paths
            // through v; only a rebuild can reconcile them (paper: "rebuild
            // the index periodically").
            self.stale = true;
        }
    }

    /// Adds the inserted edge `(a, b)` between two effective `G_k`
    /// vertices to the residual delta, both directions.
    fn push_residual_edge(&mut self, s: Sections<'_>, a: VertexId, b: VertexId, w: Weight) {
        let searched = s.hierarchy.searched();
        let ids = searched.ids();
        let da = self
            .dense_id(ids, a)
            .expect("an effective G_k vertex has a dense id");
        let db = self
            .dense_id(ids, b)
            .expect("an effective G_k vertex has a dense id");
        let residual = self
            .residual
            .as_mut()
            .expect("every mutation begins by creating the residual delta");
        residual.push_edge(da, db, w);
        residual.push_edge(db, da, w);
        self.residual_edges += 1;
    }

    /// Patches the vertex `target`, which no query searches, and all its
    /// descendants with
    /// `entries` (strictly ancestor-ascending; descendants get each
    /// distance shifted by their label distance to `target`). A patched
    /// value past [`LabelDist`] is stored saturated and sets the scratch's
    /// `overflowed` flag, which [`Overlay::check_fits`] reads off a copy.
    fn patch_with_entries(
        &mut self,
        s: Sections<'_>,
        target: VertexId,
        entries: &[(VertexId, Dist)],
    ) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut scratch = std::mem::take(&mut self.scratch);
        let PatchScratch {
            walk,
            victims,
            merged,
            overflowed,
            ..
        } = &mut scratch;
        let walk = walk.get_or_insert_with(|| DescendantWalk::build(s, self.base_n));

        // Collect (vertex, shift) pairs first so all label reads happen
        // before any patch write. Deleted vertices are walked through but
        // not patched.
        victims.clear();
        victims.push((target, 0));
        walk.for_each_descendant(target, |c| {
            if self.is_deleted(c) {
                return;
            }
            // d(c, target) as c's effective label has it: target is an
            // ancestor of every descendant by construction of the DAG, and
            // an earlier patch may have brought it closer.
            let label = s.labels.label(c);
            let base = label.ancestors.binary_search(&target).ok();
            let base = base.map(|i| label.dists[i]);
            let patched = self
                .label_patches
                .get(&c)
                .and_then(|p| patch_entry(p, target));
            if let Some(d) = base.into_iter().chain(patched).min() {
                victims.push((c, d));
            }
        });

        for &(x, shift) in victims.iter() {
            let patch = self.label_patches.entry(x).or_default();
            let before = patch.len();
            let max = min_merge_shifted(patch, entries, Dist::from(shift), merged);
            *overflowed |= max > Dist::from(LabelDist::MAX);
            self.max_dist = self.max_dist.max(narrow(max));
            self.patch_entries += patch.len() - before;
            self.max_patch_len = self.max_patch_len.max(patch.len());
        }
        self.scratch = scratch;
    }
}

/// `d` as a stored distance, saturated at [`LabelDist::MAX`].
fn narrow(d: Dist) -> LabelDist {
    LabelDist::try_from(d).unwrap_or(LabelDist::MAX)
}

/// The patch's distance to `ancestor`, if it has one.
fn patch_entry(patch: &[(VertexId, LabelDist)], ancestor: VertexId) -> Option<LabelDist> {
    patch
        .binary_search_by_key(&ancestor, |&(a, _)| a)
        .ok()
        .map(|i| patch[i].1)
}

/// Min-merges `entries`, each distance raised by `shift`, into `patch` in
/// one pass — both are strictly ancestor-ascending, and so is the result.
/// `buf` is the merge's output buffer, reused across calls. Returns the
/// largest value written, before it is narrowed (saturated) to
/// [`LabelDist`].
fn min_merge_shifted(
    patch: &mut Vec<(VertexId, LabelDist)>,
    entries: &[(VertexId, Dist)],
    shift: Dist,
    buf: &mut Vec<(VertexId, LabelDist)>,
) -> Dist {
    let mut max = 0;
    let mut raise = |d: Dist| {
        let d = d + shift;
        max = max.max(d);
        narrow(d)
    };
    if patch.is_empty() {
        patch.extend(entries.iter().map(|&(a, d)| (a, raise(d))));
        return max;
    }
    buf.clear();
    let (mut i, mut j) = (0, 0);
    while i < patch.len() && j < entries.len() {
        let (pa, pd) = patch[i];
        let ea = entries[j].0;
        if pa < ea {
            buf.push((pa, pd));
            i += 1;
        } else if pa == ea {
            let ed = entries[j].1 + shift;
            if ed < Dist::from(pd) {
                buf.push((pa, raise(entries[j].1)));
            } else {
                buf.push((pa, pd));
            }
            i += 1;
            j += 1;
        } else {
            buf.push((ea, raise(entries[j].1)));
            j += 1;
        }
    }
    buf.extend_from_slice(&patch[i..]);
    buf.extend(entries[j..].iter().map(|&(a, d)| (a, raise(d))));
    patch.clear();
    patch.extend_from_slice(buf);
    max
}

#[cfg(test)]
mod tests {
    use super::{DescendantWalk, UpdateOp};
    use crate::config::BuildConfig;
    use crate::index::IsLabelIndex;
    use crate::oracle::Error;
    use crate::reference::dijkstra_p2p;
    use islabel_graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
    use islabel_graph::{CsrGraph, Dist, GraphBuilder, VertexId, Weight};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// Section 8.3's rule by its definition, with none of the overlay's
    /// machinery: the descendants of `target` are the vertices whose *base
    /// label contains it* (found by scanning every label), a descendant's
    /// shift is the smaller of its base and patch entries for `target`,
    /// entries are min-inserted one at a time, and a deletion drops the
    /// vertex's patch and every extra edge at it.
    #[derive(Debug, Default)]
    struct NaiveOverlay {
        patches: BTreeMap<VertexId, BTreeMap<VertexId, Dist>>,
        deleted: BTreeSet<VertexId>,
        /// Inserted `G_k` edges per endpoint, in insertion order.
        extra: BTreeMap<VertexId, Vec<(VertexId, Weight)>>,
        inserted: usize,
    }

    impl NaiveOverlay {
        /// Whether a query searches `v` (a label-only index searches no
        /// base vertex).
        fn in_gk(&self, base: &IsLabelIndex, v: VertexId) -> bool {
            v as usize >= base.base_graph().num_vertices() || base.hierarchy().is_searched(v)
        }

        /// `v`'s label as a query would see it.
        fn effective(&self, base: &IsLabelIndex, v: VertexId) -> BTreeMap<VertexId, Dist> {
            let mut label = self.patches.get(&v).cloned().unwrap_or_default();
            if (v as usize) < base.base_graph().num_vertices() {
                for (anc, d) in base.labels().label(v).iter() {
                    let e = label.entry(anc).or_insert(d);
                    *e = (*e).min(d);
                }
            }
            label.retain(|anc, _| !self.deleted.contains(anc));
            label
        }

        fn patch(&mut self, base: &IsLabelIndex, target: VertexId, entries: &[(VertexId, Dist)]) {
            let victims: Vec<(VertexId, Dist)> = base
                .base_graph()
                .vertices()
                .filter(|x| !self.deleted.contains(x))
                .filter_map(|x| {
                    let shift = base.labels().label(x).get(target)?;
                    let patched = self.patches.get(&x).and_then(|p| p.get(&target));
                    Some((x, patched.map_or(shift, |&p| p.min(shift))))
                })
                .collect();
            for (x, shift) in victims {
                let patch = self.patches.entry(x).or_default();
                for &(anc, d) in entries {
                    let e = patch.entry(anc).or_insert(d + shift);
                    *e = (*e).min(d + shift);
                }
            }
        }

        fn gk_edge(&mut self, a: VertexId, b: VertexId, w: Weight) {
            self.extra.entry(a).or_default().push((b, w));
            self.extra.entry(b).or_default().push((a, w));
        }

        fn apply(&mut self, base: &IsLabelIndex, op: &UpdateOp) {
            match op {
                UpdateOp::InsertVertex { edges } => {
                    let u = (base.base_graph().num_vertices() + self.inserted) as VertexId;
                    self.inserted += 1;
                    self.patches.insert(u, BTreeMap::from([(u, 0)]));
                    for &(v, w) in edges {
                        if self.in_gk(base, v) {
                            self.gk_edge(u, v, w);
                        } else {
                            self.patch(base, v, &[(u, w as Dist)]);
                        }
                    }
                }
                &UpdateOp::InsertEdge { a, b, w } => {
                    if self.in_gk(base, a) && self.in_gk(base, b) {
                        return self.gk_edge(a, b, w);
                    }
                    for (x, y) in [(a, b), (b, a)] {
                        if !self.in_gk(base, x) {
                            let shifted: Vec<(VertexId, Dist)> = self
                                .effective(base, y)
                                .into_iter()
                                .map(|(anc, d)| (anc, d + w as Dist))
                                .collect();
                            self.patch(base, x, &shifted);
                        }
                    }
                }
                &UpdateOp::DeleteVertex { v } => {
                    self.deleted.insert(v);
                    self.patches.remove(&v);
                    self.extra.remove(&v);
                    for list in self.extra.values_mut() {
                        list.retain(|&(x, _)| x != v);
                    }
                    self.extra.retain(|_, list| !list.is_empty());
                }
            }
        }

        /// Holds a live index's overlay to this model: every patch entry
        /// for entry, the tombstones, the extra adjacency the patched view
        /// serves (tombstoned endpoints filtered, dense ids mapped back),
        /// and the maintained counters.
        fn assert_matches(&self, index: &IsLabelIndex, context: &str) {
            let overlay = &index.overlay;
            assert_eq!(overlay.extra_vertices, self.inserted, "{context}");
            assert_eq!(
                overlay.label_patches.len(),
                self.patches.len(),
                "{context}: patched labels"
            );
            for (v, want) in &self.patches {
                let got = overlay.label_patches.get(v).map_or(&[][..], Vec::as_slice);
                assert!(
                    got.iter()
                        .map(|&(a, d)| (a, Dist::from(d)))
                        .eq(want.iter().map(|(&a, &d)| (a, d))),
                    "{context}: patch of {v} is {got:?}, want {want:?}"
                );
            }
            let stats = overlay.stats();
            assert_eq!(
                stats.patch_entries,
                self.patches.values().map(BTreeMap::len).sum::<usize>(),
                "{context}"
            );
            let longest = self.patches.values().map(BTreeMap::len).max().unwrap_or(0);
            assert!(stats.max_patch_len >= longest, "{context}");

            let mut dead = overlay.deleted.clone();
            dead.sort_unstable();
            assert!(dead.iter().eq(&self.deleted), "{context}: tombstones");
            for v in 0..overlay.universe() as VertexId {
                assert_eq!(
                    overlay.is_deleted(v),
                    self.deleted.contains(&v),
                    "{context}"
                );
            }

            let gk = index.dense_gk();
            let ids = gk.ids();
            let global = |d: u32| match (d as usize).checked_sub(ids.len()) {
                Some(j) => (overlay.base_n + j) as VertexId,
                None => ids.global(d),
            };
            let mut extra = BTreeMap::new();
            let patch = overlay.residual().expect("a mutated overlay has its delta");
            assert_eq!(patch.tail() as usize, self.inserted, "{context}");
            for d in (0..patch.num_vertices() as u32).filter(|&d| !patch.is_dead(d)) {
                let list: Vec<(VertexId, Weight)> = patch
                    .extra_of(d)
                    .iter()
                    .filter(|&&(to, _)| !patch.is_dead(to))
                    .map(|&(to, w)| (global(to), w))
                    .collect();
                if !list.is_empty() {
                    extra.insert(global(d), list);
                }
            }
            assert_eq!(extra, self.extra, "{context}: extra adjacency");
        }
    }

    /// 300 ops in the benchmark's 70 / 20 / 10 mix over live endpoints —
    /// any live vertex may be deleted, from the first op on, and inserted
    /// vertices serve as later endpoints — plus, from op 40 on, the shapes
    /// a random draw rarely produces: a vertex inserted with the same
    /// neighbour twice, an edge from a peeled vertex to one of its own
    /// descendants, and that same edge again.
    fn seeded_ops(index: &IsLabelIndex, seed: u64) -> Vec<UpdateOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alive = vec![true; index.num_vertices()];
        let peeled: Vec<VertexId> = index
            .base_graph()
            .vertices()
            .filter(|&v| !index.is_in_gk(v))
            .collect();
        let mut ops = Vec::new();
        while ops.len() < 300 {
            let live = |rng: &mut StdRng, alive: &[bool]| loop {
                let v = rng.gen_range(0..alive.len());
                if alive[v] {
                    return v as VertexId;
                }
            };
            let w: Weight = rng.gen_range(1..=9);
            if ops.len() == 40 {
                let a = live(&mut rng, &alive);
                let b = live(&mut rng, &alive);
                alive.push(true);
                ops.push(UpdateOp::InsertVertex {
                    edges: vec![(a, w), (b, 2), (a, 1)],
                });
                // A live peeled vertex and a live proper descendant of it.
                let pair = peeled.iter().find_map(|&a| {
                    let b = index.base_graph().vertices().find(|&b| {
                        b != a && alive[b as usize] && index.labels().label(b).get(a).is_some()
                    })?;
                    alive[a as usize].then_some((a, b))
                });
                if let Some((a, b)) = pair {
                    ops.push(UpdateOp::InsertEdge { a, b, w });
                    ops.push(UpdateOp::InsertEdge { a, b, w });
                }
                continue;
            }
            let roll = if ops.is_empty() {
                95
            } else {
                rng.gen_range(0..100u32)
            };
            ops.push(if roll < 70 {
                let a = live(&mut rng, &alive);
                let b = live(&mut rng, &alive);
                if a == b {
                    continue;
                }
                UpdateOp::InsertEdge { a, b, w }
            } else if roll < 90 {
                let a = live(&mut rng, &alive);
                alive.push(true);
                UpdateOp::InsertVertex {
                    edges: vec![(a, w)],
                }
            } else {
                let v = live(&mut rng, &alive);
                alive[v as usize] = false;
                UpdateOp::DeleteVertex { v }
            });
        }
        ops
    }

    fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
        let mut graphs = Vec::new();
        for (tag, weights) in [
            ("unit", WeightModel::Unit),
            ("1..9", WeightModel::UniformRange(1, 9)),
        ] {
            graphs.push((tag, erdos_renyi_gnm(160, 400, weights, 3)));
            graphs.push((tag, barabasi_albert(160, 3, weights, 4)));
            graphs.push((tag, grid2d(12, 12, weights, 5)));
        }
        graphs
    }

    fn check_against_the_rule_by_definition(config: BuildConfig) {
        for (g, (tag, graph)) in test_graphs().into_iter().enumerate() {
            let base = IsLabelIndex::try_build(&graph, config).unwrap();
            let mut index = IsLabelIndex::try_build(&graph, config).unwrap();
            assert!(index.overlay.residual().is_none());
            assert!(index.overlay.scratch.walk.is_none());
            let mut naive = NaiveOverlay::default();
            for (i, op) in seeded_ops(&base, 100 + g as u64).iter().enumerate() {
                index.replay_op(op).unwrap();
                naive.apply(&base, op);
                naive.assert_matches(&index, &format!("graph {g} ({tag}), op {i}: {op:?}"));
            }
            assert_eq!(index.pending_ops(), 300);
            assert_eq!(index.overlay_stats().tombstones, naive.deleted.len());
        }
    }

    #[test]
    fn overlay_state_is_the_rule_by_definition_after_every_op_with_a_gk() {
        check_against_the_rule_by_definition(BuildConfig::sigma(0.95));
    }

    #[test]
    fn overlay_state_is_the_rule_by_definition_after_every_op_on_a_full_hierarchy() {
        check_against_the_rule_by_definition(BuildConfig::full());
    }

    #[test]
    fn children_csr_is_the_transposed_peel_adjacency() {
        // And the hub CSR the transposed core labels: empty in an index
        // with a search, whose `G_k` labels are self entries.
        for (_, graph) in test_graphs() {
            for config in [BuildConfig::sigma(0.95), BuildConfig::full()] {
                let index = IsLabelIndex::try_build(&graph, config).unwrap();
                let n = graph.num_vertices();
                let mut naive = vec![Vec::new(); n];
                let mut naive_hubs = vec![Vec::new(); n];
                for x in graph.vertices() {
                    for e in index.hierarchy().peel_adj(x) {
                        naive[e.to as usize].push(x);
                    }
                    if index.hierarchy().is_in_gk(x) {
                        for &hub in index.labels().label(x).ancestors {
                            if hub != x {
                                naive_hubs[hub as usize].push(x);
                            }
                        }
                    }
                }
                let with_hubs = naive_hubs.iter().any(|c| !c.is_empty());
                assert_eq!(
                    with_hubs,
                    config == BuildConfig::full() && index.stats().gk_edges > 0,
                    "{config}"
                );
                let walk = DescendantWalk::build(index.sections(), n);
                assert_eq!(walk.peel.offsets.len(), n + 1);
                for (u, (children, hubs)) in naive.iter().zip(&naive_hubs).enumerate() {
                    let u = u as VertexId;
                    assert_eq!(walk.peel.row(u), children, "children of {u}");
                    assert_eq!(walk.hubs.row(u), hubs, "hub children of {u}");
                }
            }
        }
    }

    #[test]
    fn descendant_walk_is_the_same_across_the_epoch_wrap() {
        let graph = barabasi_albert(160, 3, WeightModel::Unit, 4);
        let index = IsLabelIndex::try_build(&graph, BuildConfig::full()).unwrap();
        let mut walk = DescendantWalk::build(index.sections(), 160);
        let descendants = |walk: &mut DescendantWalk, root: VertexId| {
            let mut seen = Vec::new();
            walk.for_each_descendant(root, |c| seen.push(c));
            seen.sort_unstable();
            seen
        };
        // By definition: every other vertex whose label contains the root.
        let roots: Vec<VertexId> = (0..160).step_by(7).collect();
        let expect: Vec<Vec<VertexId>> = roots
            .iter()
            .map(|&r| {
                let has = |x: &VertexId| *x != r && index.labels().label(*x).get(r).is_some();
                graph.vertices().filter(has).collect()
            })
            .collect();
        assert!(expect.iter().any(|d| d.len() > 1), "need a real walk");
        // The second walk runs on the last epoch, the third wraps.
        walk.seen.force_epoch(u32::MAX - 2);
        for (&r, want) in roots.iter().zip(&expect) {
            assert_eq!(&descendants(&mut walk, r), want, "descendants of {r}");
        }
    }

    #[test]
    fn a_deleted_gk_vertex_stays_filtered_when_its_neighbours_get_new_edges() {
        let g = erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 6), 9);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let members = index.hierarchy().gk_members().to_vec();
        assert!(members.len() >= 4);
        let (hub, a, b, c) = (members[0], members[1], members[2], members[3]);
        // Cheap shortcuts through `hub`, then `hub` dies: its entries stay
        // in a's and b's extra lists and only the view hides them.
        index.try_insert_edge(hub, a, 1).unwrap();
        index.try_insert_edge(hub, b, 1).unwrap();
        let u = index.try_insert_vertex(&[(hub, 1), (c, 1)]).unwrap();
        index.try_delete_vertex(hub).unwrap();
        index.try_insert_edge(a, c, 1).unwrap();
        index.try_insert_edge(a, u, 2).unwrap();
        assert!(!index.is_stale());

        let current = index.current_graph();
        assert_eq!(current.degree(hub), 0);
        let mut session = index.session();
        for s in [a, b, c, u, 1, 17, 60].into_iter().filter(|&s| s != hub) {
            for t in g.vertices().chain([u]) {
                assert_eq!(
                    session.distance(s, t).unwrap(),
                    dijkstra_p2p(&current, s, t),
                    "({s}, {t})"
                );
                let out = session.search_outcome(s, t).unwrap();
                assert_ne!(out.meeting, crate::query::Meeting::Search(hub));
            }
        }
    }

    fn check_upper_bound_and_rebuild_exact(
        index: &mut IsLabelIndex,
        queries: &[(VertexId, VertexId)],
    ) {
        let current = index.current_graph();
        for &(s, t) in queries {
            let truth = dijkstra_p2p(&current, s, t);
            let got = index.try_distance(s, t).unwrap();
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
                index.try_distance(s, t),
                Ok(dijkstra_p2p(&current, s, t)),
                "post-rebuild ({s}, {t})"
            );
        }
    }

    #[test]
    fn insert_vertex_adjacent_to_gk_is_exact() {
        let g = barabasi_albert(150, 3, WeightModel::Unit, 5);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let gk_a = index.hierarchy().gk_members()[0];
        let gk_b = index.hierarchy().gk_members()[1];
        let u = index.try_insert_vertex(&[(gk_a, 2), (gk_b, 5)]).unwrap();
        assert!(index.has_updates());
        assert!(!index.is_stale());
        assert_eq!(index.num_vertices(), 151);

        let current = index.current_graph();
        // Queries to/from the new vertex match ground truth exactly: the new
        // vertex is in G_k and both its edges are searchable.
        for t in [gk_a, gk_b, 0, 17, 42] {
            assert_eq!(
                index.try_distance(u, t),
                Ok(dijkstra_p2p(&current, u, t)),
                "u -> {t}"
            );
            assert_eq!(
                index.try_distance(t, u),
                Ok(dijkstra_p2p(&current, t, u)),
                "{t} -> u"
            );
        }
    }

    #[test]
    fn insert_vertex_adjacent_to_peeled_is_upper_bound() {
        let g = barabasi_albert(150, 3, WeightModel::UniformRange(1, 3), 6);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let peeled: Vec<VertexId> = g
            .vertices()
            .filter(|&v| !index.is_in_gk(v))
            .take(2)
            .collect();
        assert_eq!(peeled.len(), 2, "test needs peeled vertices");
        let u = index
            .try_insert_vertex(&[(peeled[0], 1), (peeled[1], 4)])
            .unwrap();

        let queries: Vec<(VertexId, VertexId)> = (0..30)
            .map(|i| (u, (i * 5) % 150))
            .chain([(peeled[0], u), (u, u)])
            .collect();
        check_upper_bound_and_rebuild_exact(&mut index, &queries);
    }

    #[test]
    fn insert_edge_between_gk_vertices_is_exact() {
        let g = erdos_renyi_gnm(120, 360, WeightModel::UniformRange(2, 9), 7);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let members = index.hierarchy().gk_members().to_vec();
        assert!(members.len() >= 2);
        let (a, b) = (members[0], *members.last().unwrap());
        index.try_insert_edge(a, b, 1).unwrap();
        let current = index.current_graph();
        for (s, t) in [(a, b), (0, 119), (a, 60), (5, b)] {
            assert_eq!(
                index.try_distance(s, t),
                Ok(dijkstra_p2p(&current, s, t)),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn insert_edge_touching_peeled_vertex_is_upper_bound() {
        let g = barabasi_albert(100, 2, WeightModel::UniformRange(1, 5), 8);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let peeled = g.vertices().find(|&v| !index.is_in_gk(v)).unwrap();
        let far = g.vertices().rev().find(|&v| v != peeled).unwrap();
        index.try_insert_edge(peeled, far, 1).unwrap();
        let queries: Vec<(VertexId, VertexId)> = (0..25)
            .map(|i| ((i * 3) % 100, (i * 11 + 7) % 100))
            .collect();
        check_upper_bound_and_rebuild_exact(&mut index, &queries);
    }

    #[test]
    fn delete_gk_vertex_stays_exact() {
        let g = erdos_renyi_gnm(120, 300, WeightModel::Unit, 9);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let victim = index.hierarchy().gk_members()[0];
        index.try_delete_vertex(victim).unwrap();
        assert!(
            !index.is_stale(),
            "deleting a G_k vertex must not mark stale"
        );
        assert_eq!(index.try_distance(victim, 0), Ok(None));
        assert_eq!(index.try_distance(0, victim), Ok(None));

        let current = index.current_graph();
        for (s, t) in [(0u32, 119u32), (3, 40), (10, 90), (55, 56)] {
            assert_eq!(
                index.try_distance(s, t),
                Ok(dijkstra_p2p(&current, s, t)),
                "({s}, {t})"
            );
        }
    }

    #[test]
    fn delete_peeled_vertex_marks_stale_and_rebuild_recovers() {
        let g = barabasi_albert(100, 2, WeightModel::Unit, 10);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let victim = g.vertices().find(|&v| !index.is_in_gk(v)).unwrap();
        index.try_delete_vertex(victim).unwrap();
        assert!(index.is_stale());
        assert_eq!(index.try_distance(victim, 1), Ok(None));

        index.rebuild();
        assert!(!index.is_stale());
        let current = index.current_graph();
        for (s, t) in [(0u32, 99u32), (2, 50), (victim, 3)] {
            assert_eq!(
                index.try_distance(s, t),
                Ok(dijkstra_p2p(&current, s, t)),
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
        let mut index = IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap();
        index.try_delete_vertex(1).unwrap();
        // A second delete is refused and changes nothing, so deleting is
        // idempotent in its effect.
        assert!(matches!(
            index.try_delete_vertex(1),
            Err(Error::InvalidUpdate(_))
        ));
        assert_eq!(index.pending_ops(), 1);
        // Vertex 1 was peeled: the index is stale (label entries may still
        // reflect paths through it — the documented lazy semantics), but
        // queries naming the deleted endpoint must answer None.
        assert!(index.is_stale());
        assert_eq!(index.try_distance(1, 2), Ok(None));
        assert_eq!(index.try_distance(0, 1), Ok(None));

        let u = index.try_insert_vertex(&[(0, 1), (2, 1)]).unwrap();
        let v = index.try_insert_vertex(&[(u, 1)]).unwrap();
        assert_eq!(index.try_distance(0, 2), Ok(Some(2))); // 0-u-2 bypasses deleted 1
        assert_eq!(index.try_distance(v, 2), Ok(Some(2)));

        // Rebuild reconciles everything exactly.
        index.rebuild();
        let g = index.current_graph();
        assert_eq!(index.try_distance(0, 2), Ok(dijkstra_p2p(&g, 0, 2)));
        assert_eq!(index.try_distance(0, 2), Ok(Some(2)));
        assert_eq!(index.try_distance(0, 1), Ok(None));
    }

    #[test]
    fn chained_inserts_compose() {
        // Build a chain of inserted vertices hanging off the graph and check
        // distances along it (pure G_k reasoning, hence exact).
        let g = erdos_renyi_gnm(60, 150, WeightModel::Unit, 11);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let anchor = index.hierarchy().gk_members()[0];
        let mut prev = anchor;
        let mut ids = Vec::new();
        for _ in 0..5 {
            let u = index.try_insert_vertex(&[(prev, 2)]).unwrap();
            ids.push(u);
            prev = u;
        }
        assert_eq!(
            index.try_distance(anchor, *ids.last().unwrap()).unwrap(),
            Some(10)
        );
        assert_eq!(index.try_distance(ids[0], ids[4]), Ok(Some(8)));
    }

    #[test]
    fn invalid_updates_are_typed_errors_that_change_nothing() {
        let g = erdos_renyi_gnm(10, 20, WeightModel::Unit, 1);
        let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        // The same valid history without a log: the state `index` must
        // still be in after every refused call.
        let mut twin = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let dir = crate::testdir::TestDir::new("invalid-updates");
        let wal = dir.join("index.wal");
        index.attach_wal(&wal).unwrap();
        let wal_len = || std::fs::metadata(&wal).unwrap().len();
        for ix in [&mut index, &mut twin] {
            ix.try_delete_vertex(5).unwrap();
            ix.try_insert_vertex(&[(0, 1)]).unwrap();
        }
        let logged = wal_len();

        use UpdateOp::{DeleteVertex, InsertEdge, InsertVertex};
        let vertex = |edges: &[(VertexId, Weight)]| InsertVertex {
            edges: edges.to_vec(),
        };
        let invalid = [
            ("edge out of range", InsertEdge { a: 0, b: 99, w: 1 }),
            ("neighbour out of range", vertex(&[(1, 1), (99, 1)])),
            ("delete out of range", DeleteVertex { v: 99 }),
            ("edge to a deleted vertex", InsertEdge { a: 0, b: 5, w: 1 }),
            ("deleted neighbour", vertex(&[(5, 1)])),
            ("zero-weight edge", InsertEdge { a: 0, b: 2, w: 0 }),
            ("zero-weight neighbour", vertex(&[(0, 0)])),
            ("self-loop", InsertEdge { a: 3, b: 3, w: 1 }),
            ("double delete", DeleteVertex { v: 5 }),
        ];
        for (what, op) in invalid {
            let got = match op {
                InsertVertex { edges } => index.try_insert_vertex(&edges).map(drop),
                InsertEdge { a, b, w } => index.try_insert_edge(a, b, w),
                DeleteVertex { v } => index.try_delete_vertex(v),
            };
            assert!(
                matches!(got, Err(Error::InvalidUpdate(_))),
                "{what}: {got:?}"
            );
            assert!(index.overlay() == twin.overlay(), "{what}: overlay changed");
            assert_eq!(wal_len(), logged, "{what}: the log grew");
        }

        // The log is live: the next valid op is appended as usual.
        index.try_insert_edge(0, 2, 1).unwrap();
        assert!(wal_len() > logged);
    }

    #[test]
    fn materialize_reflects_all_updates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 5);
        let mut index = IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap();
        let u = index.try_insert_vertex(&[(0, 1)]).unwrap();
        index.try_insert_edge(u, 2, 1).unwrap();
        index.try_delete_vertex(1).unwrap();
        let g = index.current_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.degree(1), 0); // deleted => isolated
        assert_eq!(g.edge_weight(0, u), Some(1));
        assert_eq!(g.edge_weight(u, 2), Some(1));
        assert_eq!(g.num_edges(), 2);
    }
}
