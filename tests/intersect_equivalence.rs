//! Equivalence suite of the one Equation-1 kernel.
//!
//! The contract under test: `kernel::intersect_min_auto(a, b)` — the
//! adaptive merge-join every query path runs — is **bit-identical** to
//! its oracle, the linear `intersect_min`, in both argument orders: same
//! minimum *and* same witness (first ancestor achieving it, in ascending
//! order). The shapes are adversarial: empty and length-1 labels,
//! all-match and no-match pairs, lengths straddling 4 and 8, skew ratios
//! on both sides of `GALLOP_CROSSOVER`, and stored distances at and near
//! `LabelDist::MAX`, whose sums only fit once widened to `Dist`.

use islabel::core::kernel::intersect_min_auto;
use islabel::core::label::{LabelDist, LabelView};
use islabel::core::query::intersect_min;
use islabel::graph::VertexId;
use proptest::prelude::*;

/// One label pair as owned parallel arrays (ancestors strictly
/// ascending, as the label contract requires).
#[derive(Debug, Clone)]
struct LabelPair {
    aa: Vec<VertexId>,
    ad: Vec<LabelDist>,
    ba: Vec<VertexId>,
    bd: Vec<LabelDist>,
}

impl LabelPair {
    fn views(&self) -> (LabelView<'_>, LabelView<'_>) {
        (
            LabelView {
                ancestors: &self.aa,
                dists: &self.ad,
            },
            LabelView {
                ancestors: &self.ba,
                dists: &self.bd,
            },
        )
    }
}

/// Distances that exercise the widening corners: small values, the
/// widest stored distance itself, and values close enough to it that
/// `d(s)+d(t)` overflows the stored width and only fits in `Dist`.
fn arb_dist() -> impl Strategy<Value = LabelDist> {
    prop_oneof![
        0u32..5_000,
        0u32..5_000,
        0u32..5_000,
        Just(LabelDist::MAX),
        (LabelDist::MAX - 5_000)..LabelDist::MAX,
    ]
}

/// A label pair built from one ascending id stream: each universe slot
/// lands in label A, label B, or both, so overlap density, run lengths,
/// and skew all vary freely while both sides stay strictly ascending.
fn arb_pair(max_universe: usize) -> impl Strategy<Value = LabelPair> {
    proptest::collection::vec((1u32..4, 0u8..4, arb_dist(), arb_dist()), 0..max_universe).prop_map(
        |slots| {
            let mut p = LabelPair {
                aa: Vec::new(),
                ad: Vec::new(),
                ba: Vec::new(),
                bd: Vec::new(),
            };
            let mut id = 0u32;
            for (gap, side, da, db) in slots {
                id += gap;
                // side: 0 = neither, 1 = A only, 2 = B only, 3 = both.
                if side & 1 != 0 {
                    p.aa.push(id);
                    p.ad.push(da);
                }
                if side & 2 != 0 {
                    p.ba.push(id);
                    p.bd.push(db);
                }
            }
            p
        },
    )
}

/// Asserts the production kernel agrees with the linear reference, in
/// both argument orders, for distance and witness.
fn assert_matches_reference(p: &LabelPair) {
    let (a, b) = p.views();
    let want = intersect_min(a, b);
    prop_assert_eq!(intersect_min_auto(a, b), want, "auto a,b");
    prop_assert_eq!(intersect_min_auto(b, a), want, "auto b,a");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Free-form shapes: arbitrary overlap, gaps, and widest-value sums.
    #[test]
    fn kernel_matches_reference_on_arbitrary_pairs(p in arb_pair(72)) {
        assert_matches_reference(&p);
    }

    /// Skewed shapes on both sides of the gallop crossover: a short label
    /// of 0..=9 entries against a long one of up to ~200, so the
    /// `short * GALLOP_CROSSOVER <= long` switch to galloping is crossed
    /// in both directions.
    #[test]
    fn kernel_matches_reference_on_skewed_pairs(
        short_slots in proptest::collection::vec((1u32..6, arb_dist()), 0..10),
        long_slots in proptest::collection::vec((1u32..3, arb_dist()), 0..200),
    ) {
        let mut p = LabelPair { aa: Vec::new(), ad: Vec::new(), ba: Vec::new(), bd: Vec::new() };
        let mut id = 0u32;
        for (gap, d) in short_slots {
            id += gap;
            p.aa.push(id);
            p.ad.push(d);
        }
        let mut id = 0u32;
        for (gap, d) in long_slots {
            id += gap;
            p.ba.push(id);
            p.bd.push(d);
        }
        assert_matches_reference(&p);
    }
}

/// Deterministic boundary shapes: identical ancestor sets (all-match)
/// and disjoint sets (no-match) at every length that straddles 4, 8 and
/// their multiples, under small, widest and one-sided-widest distances.
#[test]
fn chunk_boundary_lengths_all_match_and_no_match() {
    const LENS: [usize; 14] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33];
    // Three dist regimes: small, widest, and mixed (widest on one side).
    for regime in 0..3 {
        for len in LENS {
            let dist = |side: u32, i: usize| -> LabelDist {
                match regime {
                    0 => (i as u32 * 7 + side * 3) % 1_000,
                    1 => LabelDist::MAX - (i as u32 % 3),
                    _ if side == 0 && i.is_multiple_of(2) => LabelDist::MAX,
                    _ => i as u32,
                }
            };
            // All-match: identical ancestor streams.
            let ids: Vec<VertexId> = (0..len as u32).map(|i| i * 2 + 1).collect();
            let p = LabelPair {
                aa: ids.clone(),
                ad: (0..len).map(|i| dist(0, i)).collect(),
                ba: ids.clone(),
                bd: (0..len).map(|i| dist(1, i)).collect(),
            };
            assert_matches_reference(&p);
            // No-match: interleaved odd/even ids, empty intersection.
            let p = LabelPair {
                aa: (0..len as u32).map(|i| i * 2).collect(),
                ad: (0..len).map(|i| dist(0, i)).collect(),
                ba: (0..len as u32).map(|i| i * 2 + 1).collect(),
                bd: (0..len).map(|i| dist(1, i)).collect(),
            };
            assert_matches_reference(&p);
        }
    }
}

/// Ties must resolve to the *first* (lowest-id) ancestor achieving the
/// minimum — the witness drives path reconstruction, so a kernel that
/// picked a later one would corrupt paths even with the distance right.
#[test]
fn tie_break_picks_first_witness() {
    for len in [2usize, 8, 9, 16, 40] {
        let ids: Vec<VertexId> = (0..len as u32).map(|i| i * 3 + 2).collect();
        // Every entry sums to the same total: all-way tie.
        let p = LabelPair {
            aa: ids.clone(),
            ad: (0..len as u32).collect(),
            ba: ids.clone(),
            bd: (0..len as u32).map(|i| 100 - i).collect(),
        };
        let (a, b) = p.views();
        let want = intersect_min(a, b);
        assert_eq!(want, (100, Some(2)), "reference itself must tie-break low");
        assert_matches_reference(&p);
    }
}
