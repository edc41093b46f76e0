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
//!    `min(FQ) + min(RQ) ≥ µ`, and the same bound prunes the work on the
//!    way. [`crate::dense::dense_search`] is its one implementation; this
//!    module holds what it returns ([`SearchOutcome`], [`Meeting`]).
//!
//! If a query's labels contribute no `G_k` seeds at all, the search loop
//! never runs and the Equation 1 value is returned — exactly the paper's
//! "Type 1" correctness case (Theorem 3).
//!
//! The merge-join intersections here are an **alloc-free zone** enforced
//! by `islabel-lint` (see `lint.toml` at the repo root).

use crate::kernel::prefetch_lines;
use crate::label::LabelView;
use islabel_graph::{Dist, VertexId, INF};

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
/// `(INF, None)` when `X = ∅` (the paper's `∞` case). Each sum is taken in
/// [`Dist`]: two stored distances never overflow it, and never reach `INF`.
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
                let sum = Dist::from(a.dists[i]) + Dist::from(b.dists[j]);
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
const GALLOP_CROSSOVER: usize = 8;

/// Equation 1 with an adaptive strategy: the linear merge-join of
/// [`intersect_min`] for similarly sized labels, and a **galloping**
/// intersection when one label is at least `GALLOP_CROSSOVER` (8)× longer
/// than the other — each entry of the short label gallops (doubling probe
/// stride, then binary search) forward into the unscanned tail of the long
/// one, so heavily skewed intersections (a leaf label against a hub label)
/// cost `O(|short| · log |long|)` instead of `O(|short| + |long|)`.
///
/// Before either strategy runs, every cache line it will scan is hinted
/// in one burst ([`crate::kernel::prefetch_lines`]): both labels'
/// ancestor and distance runs for the merge, only the short label's for
/// the gallop, whose probes into the long label are too sparse to pay.
///
/// Returns exactly what [`intersect_min`] returns on every input; the
/// query hot paths call this form.
pub fn intersect_min_adaptive(a: LabelView<'_>, b: LabelView<'_>) -> (Dist, Option<VertexId>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len().saturating_mul(GALLOP_CROSSOVER) > long.len() {
        // Ancestors first: the merge compares them on every step and
        // reads a distance only on a match.
        prefetch_lines(a.ancestors);
        prefetch_lines(b.ancestors);
        prefetch_lines(a.dists);
        prefetch_lines(b.dists);
        return intersect_min(a, b);
    }
    prefetch_lines(short.ancestors);
    prefetch_lines(short.dists);
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
                let sum = Dist::from(short.dists[i]) + Dist::from(long.dists[j]);
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

/// What one run of Algorithm 1 returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::label::LabelDist;

    fn view<'a>(ancestors: &'a [VertexId], dists: &'a [LabelDist]) -> LabelView<'a> {
        LabelView { ancestors, dists }
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
        // A stored distance is never INF: the sum of the two widest entries
        // is taken in `Dist`, exact and still below INF.
        let widest = [LabelDist::MAX];
        let (d, w) = intersect_min(view(&[5], &widest), view(&[5], &widest));
        assert_eq!(d, 2 * Dist::from(LabelDist::MAX));
        assert!(d < INF);
        assert_eq!(w, Some(5));
        let (a, b) = (view(&[5], &widest), view(&[5], &widest));
        assert_eq!(intersect_min_adaptive(a, b), (d, Some(5)));
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
        let mut make = |len: usize, stride: u64| -> (Vec<VertexId>, Vec<LabelDist>) {
            let mut ancs = Vec::with_capacity(len);
            let mut cur = 0u64;
            for _ in 0..len {
                cur += 1 + next() % stride;
                ancs.push(cur as VertexId);
            }
            let dists = ancs.iter().map(|_| (next() % 50) as LabelDist).collect();
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
        let long_d: Vec<LabelDist> = (0..100).collect();
        for probe in [2u32, 4, 8, 16, 32, 64, 128, 198] {
            let short_anc = [probe];
            let short_d = [7u32];
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
}
