//! The session hot path's leaf helpers: Equation 1's one production
//! entry point and the software-prefetch hints.
//!
//! * [`intersect_min_auto`] — the entry point every engine routes
//!   Equation 1 through (`seeded_search` for the IS-LABEL, di-IS-LABEL,
//!   patched-overlay and mmap sessions, and the one-shot query paths). It
//!   is [`crate::query::intersect_min_adaptive`]: a linear merge-join for
//!   similarly sized labels, galloping past a length ratio of
//!   `GALLOP_CROSSOVER` (8). The linear
//!   [`crate::query::intersect_min`] is its oracle — the equivalence suite
//!   (`tests/intersect_equivalence.rs`) holds the two bit-identical, for
//!   distance and witness, on adversarial label shapes. Both rely on
//!   labels being strictly ancestor-ascending, which artifacts are
//!   validated for on open.
//! * [`prefetch_index`] — a safe, bounds-checked wrapper over the
//!   architecture's prefetch hint. [`crate::dense::DenseCsr`]'s
//!   `prefetch_row` calls it, for heap and mapped `G_k` alike, to pull
//!   the next settle's adjacency row toward L1 while the current row is
//!   being relaxed.
//! * [`prefetch_lines`] — one [`prefetch_index`] per cache line of a
//!   slice. [`crate::query::intersect_min_adaptive`] calls it first, on
//!   every array its strategy will scan, so a label fetch's misses
//!   overlap (`docs/adr/0012-label-fetch-burst.md`).
//!
//! Why Equation 1 has exactly one kernel and no dispatch:
//! `docs/adr/0002-one-intersect-kernel.md`. All three functions are part
//! of the steady-state **alloc-free zone** (`lint.toml`,
//! `tests/alloc_free.rs`).

mod prefetch;

pub use prefetch::{prefetch_index, prefetch_lines};

use crate::label::LabelView;
use islabel_graph::{Dist, VertexId};

/// Equation 1 on the session hot path: exactly
/// [`crate::query::intersect_min`]'s `(µ, witness)` on every input.
#[inline]
pub fn intersect_min_auto(a: LabelView<'_>, b: LabelView<'_>) -> (Dist, Option<VertexId>) {
    crate::query::intersect_min_adaptive(a, b)
}

/// Fingerprint stub: `benchmark/` (frozen between re-baselines) records
/// `detected_tier().name()` and `active_tier().name()` in its environment
/// fingerprint. There is one kernel, so both are the constant `scalar`.
/// Drop this type and the two functions at the benchmark's next
/// re-baseline; nothing else may use them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The adaptive merge-join — the only kernel.
    Scalar,
}

impl KernelTier {
    /// `"scalar"`.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// Fingerprint stub, see [`KernelTier`].
pub fn detected_tier() -> KernelTier {
    KernelTier::Scalar
}

/// Fingerprint stub, see [`KernelTier`].
pub fn active_tier() -> KernelTier {
    KernelTier::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_matches_reference_on_smoke_shapes() {
        let a_anc: Vec<u32> = (0..97).map(|i| i * 3).collect();
        let a_dist: Vec<u32> = (0..97).map(|i| (i * 7) % 31).collect();
        let b_anc: Vec<u32> = (0..80).map(|i| i * 4 + 2).collect();
        let b_dist: Vec<u32> = (0..80).map(|i| (i * 5) % 17).collect();
        fn view<'a>(anc: &'a [u32], dist: &'a [u32]) -> LabelView<'a> {
            LabelView {
                ancestors: anc,
                dists: dist,
            }
        }
        let (a, b) = (view(&a_anc, &a_dist), view(&b_anc, &b_dist));
        let reference = crate::query::intersect_min(a, b);
        assert_eq!(intersect_min_auto(a, b), reference);
        assert_eq!(intersect_min_auto(b, a), reference);
    }
}
