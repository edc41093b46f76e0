//! The one seeded generator of update operations.
//!
//! Ops are drawn 70 % `InsertEdge`, 20 % `InsertVertex`, 10 %
//! `DeleteVertex` and only ever name **live** endpoints (the generator
//! tracks insertions and deletions itself), so no operation of a
//! generated list can fail validation: the benchmark's `failed` count
//! stays a statement about the system, not about its inputs.
//!
//! Deletions are drawn from the vertices whose removal keeps the index's
//! lazy-update contract (reported distances are real paths) — `G_k`
//! members and dynamically inserted vertices. Deleting a *peeled* vertex
//! marks the index stale, after which answers may err in either direction
//! until a rebuild (labels and augmenting edges may still route through
//! the deleted vertex): a pair the deletion disconnected can still get a
//! distance, so a stale answer cannot be held to reference Dijkstra at
//! all. Staying clear of that keeps the correctness gate meaningful. When
//! nothing deletable is live the roll becomes an edge insertion.

use islabel_core::{Error, IsLabelIndex, UpdateOp};
use islabel_graph::{VertexId, Weight};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seeded update-op stream over a universe that starts at `n` vertices.
#[derive(Debug)]
pub struct UpdateOpGen {
    rng: StdRng,
    alive: Vec<bool>,
    /// Live vertices a deletion may name.
    deletable: Vec<VertexId>,
}

impl UpdateOpGen {
    /// A stream for a pristine `index`.
    pub fn for_index(index: &IsLabelIndex, seed: u64) -> Self {
        Self::new(
            index.num_vertices(),
            index.hierarchy().gk_members().to_vec(),
            seed,
        )
    }

    /// A stream over `n` live vertices of which `deletable` may be deleted.
    pub fn new(n: usize, deletable: Vec<VertexId>, seed: u64) -> Self {
        assert!(n >= 2, "need at least two live vertices");
        Self {
            rng: StdRng::seed_from_u64(seed),
            alive: vec![true; n],
            deletable,
        }
    }

    fn pick_live(&mut self) -> VertexId {
        loop {
            let v = self.rng.gen_range(0..self.alive.len());
            if self.alive[v] {
                return v as VertexId;
            }
        }
    }

    /// The next op; the generator's live set already reflects it.
    pub fn next_op(&mut self) -> UpdateOp {
        let roll = self.rng.gen_range(0..100u32);
        let w: Weight = self.rng.gen_range(1..=10);
        if roll < 70 || (roll >= 90 && self.deletable.is_empty()) {
            let a = self.pick_live();
            let mut b = self.pick_live();
            while b == a {
                b = self.pick_live();
            }
            UpdateOp::InsertEdge { a, b, w }
        } else if roll < 90 {
            let a = self.pick_live();
            self.deletable.push(self.alive.len() as VertexId);
            self.alive.push(true);
            UpdateOp::InsertVertex {
                edges: vec![(a, w)],
            }
        } else {
            let slot = self.rng.gen_range(0..self.deletable.len());
            let v = self.deletable.swap_remove(slot);
            self.alive[v as usize] = false;
            UpdateOp::DeleteVertex { v }
        }
    }

    /// The next `count` ops.
    pub fn take(&mut self, count: usize) -> Vec<UpdateOp> {
        (0..count).map(|_| self.next_op()).collect()
    }
}

/// Applies one op through the index's public, WAL-aware mutation path.
pub fn apply(index: &mut IsLabelIndex, op: &UpdateOp) -> Result<(), Error> {
    match op {
        UpdateOp::InsertEdge { a, b, w } => index.try_insert_edge(*a, *b, *w),
        UpdateOp::InsertVertex { edges } => index.try_insert_vertex(edges).map(|_| ()),
        UpdateOp::DeleteVertex { v } => index.try_delete_vertex(*v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_core::BuildConfig;
    use islabel_graph::generators::{erdos_renyi_gnm, WeightModel};

    #[test]
    fn same_seed_same_ops_and_a_different_seed_differs() {
        let gk: Vec<VertexId> = (0..40).collect();
        let a = UpdateOpGen::new(500, gk.clone(), 9).take(400);
        let b = UpdateOpGen::new(500, gk.clone(), 9).take(400);
        let c = UpdateOpGen::new(500, gk, 10).take(400);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_is_roughly_70_20_10() {
        let ops = UpdateOpGen::new(10_000, (0..2_000).collect(), 3).take(10_000);
        let count = |f: fn(&UpdateOp) -> bool| ops.iter().filter(|o| f(o)).count();
        let edges = count(|o| matches!(o, UpdateOp::InsertEdge { .. }));
        let verts = count(|o| matches!(o, UpdateOp::InsertVertex { .. }));
        let dels = count(|o| matches!(o, UpdateOp::DeleteVertex { .. }));
        assert!((6_700..=7_300).contains(&edges), "{edges}");
        assert!((1_700..=2_300).contains(&verts), "{verts}");
        assert!((700..=1_300).contains(&dels), "{dels}");
    }

    #[test]
    fn every_generated_op_applies_and_the_index_never_goes_stale() {
        // Live-endpoint tracking: the mutation path panics on a deleted or
        // out-of-range endpoint, so surviving a long list proves it.
        let g = erdos_renyi_gnm(60, 150, WeightModel::UniformRange(1, 5), 4);
        let mut index = IsLabelIndex::build(&g, BuildConfig::default());
        assert!(
            index.stats().gk_vertices > 0,
            "need deletable base vertices"
        );
        let mut gen = UpdateOpGen::for_index(&index, 77);
        let ops = gen.take(300);
        assert!(ops
            .iter()
            .any(|o| matches!(o, UpdateOp::DeleteVertex { .. })));
        for op in &ops {
            apply(&mut index, op).unwrap();
        }
        assert_eq!(index.pending_ops(), 300);
        assert_eq!(index.num_vertices(), gen.alive.len());
        assert!(
            !index.is_stale(),
            "only G_k members and inserted vertices are deleted"
        );
    }

    #[test]
    fn nothing_deletable_means_no_deletions_until_a_vertex_is_inserted() {
        let ops = UpdateOpGen::new(50, Vec::new(), 5).take(500);
        let mut inserted = 0usize;
        for op in &ops {
            match op {
                UpdateOp::InsertVertex { .. } => inserted += 1,
                UpdateOp::DeleteVertex { v } => {
                    assert!(*v >= 50, "only inserted vertices are deletable here");
                    assert!(inserted > 0);
                }
                UpdateOp::InsertEdge { .. } => {}
            }
        }
        assert!(ops
            .iter()
            .any(|o| matches!(o, UpdateOp::DeleteVertex { .. })));
    }
}
