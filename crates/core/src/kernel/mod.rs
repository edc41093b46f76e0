//! Runtime-dispatched query kernels: the SIMD label intersection and the
//! software-prefetch helpers behind the session hot path.
//!
//! The paper's query cost splits into Equation 1 (a merge-join over two
//! ancestor-sorted labels) and Algorithm 1 (the bounded bidirectional
//! Dijkstra over `G_k`). PR 4 made the search stage cache-dense
//! ([`crate::dense`]); this module vectorizes the intersection stage and
//! adds the memory-level parallelism hints the search stage can use:
//!
//! * [`intersect_min_auto`] — the **one** dispatching entry point every
//!   engine's hot path routes through (`seeded_search`, and therefore the
//!   IS-LABEL, di-IS-LABEL, patched-overlay, and mmap sessions). It picks
//!   a [`KernelTier`] once per process and runs the matching kernel.
//! * [`intersect_min_at`] — the same computation pinned to an explicit
//!   tier; the conformance suites and `query_hotpath --intersect` use it
//!   to hold every tier bit-identical to the scalar reference.
//! * [`prefetch_index`] — a safe, bounds-checked wrapper over the
//!   architecture's prefetch hint, used by [`crate::dense`] to pull the
//!   next CSR adjacency row toward L1 while the current row is being
//!   relaxed.
//!
//! ## Dispatch tiers
//!
//! | Tier     | Arch     | Detection                          | Kernel |
//! |----------|----------|------------------------------------|--------|
//! | `avx2`   | x86_64   | `is_x86_feature_detected!("avx2")` | 8-lane compare + movemask, 4×u64 vector min-reduction |
//! | `sse2`   | x86_64   | baseline (always present)          | 4-lane compare + movemask |
//! | `neon`   | aarch64  | baseline (always present)          | 4-lane compare + horizontal reductions |
//! | `scalar` | any      | mandatory fallback                 | [`crate::query::intersect_min_adaptive`] |
//!
//! The tier is resolved once and cached in a process-wide atomic:
//! `ISLABEL_KERNEL_TIER` (`scalar` / `sse2` / `avx2` / `neon` / `auto`)
//! overrides detection — CI runs the whole test suite under
//! `ISLABEL_KERNEL_TIER=scalar` so the fallback cannot rot on
//! SIMD-capable runners — and [`force_tier`] is the programmatic hook the
//! per-tier test and bench loops use. Requesting a tier the running CPU
//! cannot execute falls back to `scalar` (never a `SIGILL`).
//!
//! Every tier returns **bit-identical** `(distance, witness)` results:
//! the SIMD kernels accumulate matches in ascending-ancestor order with
//! the same strict `sum < best` rule as the scalar merge-join, and
//! heavily skewed label pairs (`|long| / |short| ≥`
//! [`GALLOP_CROSSOVER`]) delegate to the
//! scalar galloping path at every tier, where an `O(|short| · log
//! |long|)` skip-search beats any linear scan, vectorized or not.
//!
//! All intrinsics (and the workspace's only new `unsafe`) are confined to
//! the one SAFETY-documented `simd` submodule; this module and the rest
//! of `islabel-core` stay `deny(unsafe_code)`, and `islabel-lint`'s
//! confinement rule pins the boundary. The dispatch and kernel functions
//! are part of the steady-state **alloc-free zone** (`lint.toml`,
//! `tests/alloc_free.rs`): resolving the tier reads the environment and
//! therefore allocates, so sessions resolve it at construction time —
//! see [`active_tier`].

mod simd;

use crate::label::LabelView;
use crate::query::GALLOP_CROSSOVER;
use islabel_graph::{Dist, VertexId};
use std::sync::atomic::{AtomicU8, Ordering};

/// One implementation level of the intersection kernel, from the scalar
/// reference up to the widest vector unit the build can name. See the
/// [module docs](self) for the dispatch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelTier {
    /// The scalar adaptive/galloping merge-join — the mandatory fallback,
    /// available everywhere and the reference all other tiers must match.
    Scalar = 0,
    /// 4-lane SSE2 (x86_64 baseline, so "supported" means "x86_64").
    Sse2 = 1,
    /// 8-lane AVX2 with a 4×u64 vector min-reduction fast path
    /// (x86_64, runtime-detected).
    Avx2 = 2,
    /// 4-lane NEON (aarch64 baseline).
    Neon = 3,
}

impl KernelTier {
    /// Every tier, scalar first — the order per-tier test and bench loops
    /// iterate in.
    pub const ALL: [KernelTier; 4] = [
        KernelTier::Scalar,
        KernelTier::Sse2,
        KernelTier::Avx2,
        KernelTier::Neon,
    ];

    /// The tier's lowercase name, as accepted by `ISLABEL_KERNEL_TIER`
    /// and emitted in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }

    /// Parses a tier name (case-insensitive). `"auto"` is not a tier —
    /// callers map it to [`detected_tier`] themselves.
    pub fn parse(s: &str) -> Option<KernelTier> {
        KernelTier::ALL
            .into_iter()
            .find(|t| s.eq_ignore_ascii_case(t.name()))
    }

    /// Whether the running CPU can execute this tier. Scalar is always
    /// supported; SSE2 and NEON are baseline features of their
    /// architectures; AVX2 is runtime-detected.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => true,
            _ => false,
        }
    }

    fn from_u8(v: u8) -> KernelTier {
        match v {
            1 => KernelTier::Sse2,
            2 => KernelTier::Avx2,
            3 => KernelTier::Neon,
            _ => KernelTier::Scalar,
        }
    }
}

/// The best tier the running CPU supports (the `auto` resolution).
pub fn detected_tier() -> KernelTier {
    if KernelTier::Avx2.is_supported() {
        KernelTier::Avx2
    } else if KernelTier::Neon.is_supported() {
        KernelTier::Neon
    } else if KernelTier::Sse2.is_supported() {
        KernelTier::Sse2
    } else {
        KernelTier::Scalar
    }
}

/// Sentinel for "not resolved yet" in the process-wide tier cache.
const TIER_UNSET: u8 = u8::MAX;

/// Process-wide resolved tier. Written once by [`init_tier`] (or by
/// [`force_tier`]), read on every dispatched intersection.
static ACTIVE_TIER: AtomicU8 = AtomicU8::new(TIER_UNSET);

/// The tier [`intersect_min_auto`] dispatches to, resolving and caching
/// it on first use (environment override, then CPU detection).
///
/// Resolution reads `ISLABEL_KERNEL_TIER` and therefore allocates;
/// every session constructor calls this before its first query so the
/// steady-state path — which the counting-allocator audit arms *after*
/// construction — only ever performs the relaxed atomic load.
#[inline]
pub fn active_tier() -> KernelTier {
    // ordering: Relaxed — the cache is an idempotent latch: every thread
    // that races the first resolution computes the same value, and no
    // other memory depends on observing the store.
    match ACTIVE_TIER.load(Ordering::Relaxed) {
        TIER_UNSET => init_tier(),
        v => KernelTier::from_u8(v),
    }
}

#[cold]
fn init_tier() -> KernelTier {
    let t = resolve_tier();
    // ordering: Relaxed — idempotent latch, see `active_tier`.
    ACTIVE_TIER.store(t as u8, Ordering::Relaxed);
    t
}

/// Resolves the tier from the environment (`ISLABEL_KERNEL_TIER`) or CPU
/// detection. An explicitly named tier the CPU cannot execute clamps to
/// `scalar` — a misconfigured override must degrade, never `SIGILL`.
/// Unknown values (and `auto`) mean "detect".
fn resolve_tier() -> KernelTier {
    match std::env::var("ISLABEL_KERNEL_TIER") {
        Ok(name) => match KernelTier::parse(&name) {
            Some(t) if t.is_supported() => t,
            Some(_) => KernelTier::Scalar,
            None => detected_tier(),
        },
        Err(_) => detected_tier(),
    }
}

/// Installs `tier` as the process-wide dispatch tier (the forced-tier
/// hook the per-tier conformance tests, the allocation audit, and
/// `query_hotpath`'s per-tier loops use); `None` re-resolves from the
/// environment and CPU. Unsupported tiers clamp to scalar. Returns what
/// was installed.
///
/// Process-global: concurrent sessions all see the change. Since every
/// tier is bit-identical this can never change an answer, only a speed.
pub fn force_tier(tier: Option<KernelTier>) -> KernelTier {
    let t = match tier {
        Some(t) if t.is_supported() => t,
        Some(_) => KernelTier::Scalar,
        None => resolve_tier(),
    };
    // ordering: Relaxed — idempotent latch, see `active_tier`.
    ACTIVE_TIER.store(t as u8, Ordering::Relaxed);
    t
}

/// Equation 1 through the dispatched kernel: exactly
/// [`crate::query::intersect_min`]'s `(µ, witness)` on every input, at
/// the speed of the best tier the CPU supports. This is the single entry
/// point every session hot path routes through.
#[inline]
pub fn intersect_min_auto(a: LabelView<'_>, b: LabelView<'_>) -> (Dist, Option<VertexId>) {
    intersect_min_at(active_tier(), a, b)
}

/// [`intersect_min_auto`] pinned to an explicit tier. Unsupported tiers
/// fall back to the scalar reference (never `SIGILL`), which is also
/// what makes the per-tier test loops safe to run everywhere.
#[inline]
pub fn intersect_min_at(
    tier: KernelTier,
    a: LabelView<'_>,
    b: LabelView<'_>,
) -> (Dist, Option<VertexId>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Heavily skewed pairs gallop in scalar at every tier: the
    // O(|short| · log |long|) skip-search beats a linear scan even at 8
    // lanes per compare. Same crossover as the scalar adaptive kernel,
    // so the scalar tier is exactly `intersect_min_adaptive`.
    if short.len().saturating_mul(GALLOP_CROSSOVER) <= long.len() {
        return crate::query::intersect_min_adaptive(a, b);
    }
    match tier {
        KernelTier::Scalar => crate::query::intersect_min(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => simd::intersect_min_sse2(short, long),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => simd::intersect_min_avx2(short, long),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => simd::intersect_min_neon(short, long),
        _ => crate::query::intersect_min(a, b),
    }
}

/// Best-effort prefetch of `slice[i]` into the nearest cache level. Safe
/// and bounds-checked: out-of-range indexes are a no-op, as is the whole
/// call on architectures without a stable prefetch intrinsic. This is a
/// *hint* — it never reads memory, so it cannot fault, alias, or change
/// any result; it only overlaps a future miss with present work.
#[inline(always)]
pub fn prefetch_index<T>(slice: &[T], i: usize) {
    if i < slice.len() {
        simd::prefetch_read(slice.as_ptr().wrapping_add(i));
    }
}

/// The scalar continuation shared by every SIMD kernel: finishes the
/// merge-join from positions `(i, j)` with the same strict `sum < best`
/// accumulation as [`crate::query::intersect_min`], so vector main loop
/// plus this tail is bit-identical to the scalar reference.
///
/// The argument list is two SoA label views plus resume/accumulator
/// state; bundling them into structs would only add packing/unpacking at
/// every SIMD call site of this leaf helper.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn merge_tail(
    sa: &[VertexId],
    sd: &[Dist],
    la: &[VertexId],
    ld: &[Dist],
    mut i: usize,
    mut j: usize,
    best: &mut Dist,
    witness: &mut Option<VertexId>,
) {
    while i < sa.len() && j < la.len() {
        let (av, bv) = (sa[i], la[j]);
        if av < bv {
            i += 1;
        } else if bv < av {
            j += 1;
        } else {
            let sum = sd[i].saturating_add(ld[j]);
            if sum < *best {
                *best = sum;
                *witness = Some(av);
            }
            i += 1;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(anc: &'a [u32], dist: &'a [u64]) -> LabelView<'a> {
        LabelView {
            ancestors: anc,
            dists: dist,
            first_hops: anc,
        }
    }

    #[test]
    fn tier_names_roundtrip() {
        for t in KernelTier::ALL {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
            assert_eq!(KernelTier::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(KernelTier::parse("auto"), None);
        assert_eq!(KernelTier::parse(""), None);
    }

    #[test]
    fn detection_is_sane() {
        // Scalar is unconditionally supported and detection returns a
        // supported tier.
        assert!(KernelTier::Scalar.is_supported());
        assert!(detected_tier().is_supported());
        #[cfg(target_arch = "x86_64")]
        assert!(KernelTier::Sse2.is_supported());
    }

    #[test]
    fn forcing_installs_and_clamps() {
        let installed = force_tier(Some(KernelTier::Scalar));
        assert_eq!(installed, KernelTier::Scalar);
        assert_eq!(active_tier(), KernelTier::Scalar);
        // Unsupported requests clamp to scalar rather than faulting.
        for t in KernelTier::ALL {
            let got = force_tier(Some(t));
            assert!(got == t || got == KernelTier::Scalar);
            assert!(got.is_supported());
        }
        force_tier(None);
        assert!(active_tier().is_supported());
    }

    #[test]
    fn every_tier_matches_reference_on_smoke_shapes() {
        let a_anc: Vec<u32> = (0..97).map(|i| i * 3).collect();
        let a_dist: Vec<u64> = (0..97).map(|i| (i as u64 * 7) % 31).collect();
        let b_anc: Vec<u32> = (0..80).map(|i| i * 4 + 2).collect();
        let b_dist: Vec<u64> = (0..80).map(|i| (i as u64 * 5) % 17).collect();
        let (a, b) = (view(&a_anc, &a_dist), view(&b_anc, &b_dist));
        let reference = crate::query::intersect_min(a, b);
        for t in KernelTier::ALL {
            assert_eq!(intersect_min_at(t, a, b), reference, "tier {}", t.name());
            assert_eq!(intersect_min_at(t, b, a), reference, "tier {}", t.name());
        }
    }

    #[test]
    fn prefetch_is_a_safe_noop_observably() {
        let v: Vec<u64> = (0..100).collect();
        prefetch_index(&v, 0);
        prefetch_index(&v, 99);
        prefetch_index(&v, 100); // out of range: no-op
        prefetch_index::<u64>(&[], 0);
        assert_eq!(v[99], 99);
    }
}
