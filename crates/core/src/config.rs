//! Index construction configuration.

/// How the number of hierarchy levels `k` is chosen (paper Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KSelection {
    /// Stop at the first level where peeling shrinks the graph by less than
    /// `1 − σ`: `k` is the first `i` with `|G_i| / |G_{i−1}| > σ`
    /// (Definition 4 discussion; the paper's default is `σ = 0.95` and
    /// Table 7 uses `0.90`).
    SigmaThreshold(f64),
    /// Build exactly `k` levels (peel `k − 1` independent sets), clamped to
    /// the natural height if the graph empties first. Used by the Table 6
    /// sweep around the automatically selected `k`.
    FixedK(u32),
    /// A label-only index: every query is answered by Equation 1 alone,
    /// with no search (Section 4's Theorem 2). The peel stops where the
    /// default σ rule ([`DEFAULT_SIGMA`]) would, and the residual core
    /// `G_k` is labelled by one pruned Dijkstra in descending (degree, id)
    /// order, a 2-hop cover of it, which Algorithm 4 then carries down the
    /// peeled levels in place of each core vertex's self entry
    /// (`docs/adr/0021-degree-ranked-core.md`). On a graph the σ rule
    /// peels to nothing the core is empty, as in the un-truncated
    /// hierarchy. The directed index, which has no core labeling, peels
    /// until `G_k` is empty.
    Full,
}

/// Strategy for choosing each level's independent set. The paper uses
/// greedy minimum-degree (following Halldórsson–Radhakrishnan, "greed is
/// good"); the alternatives exist for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsStrategy {
    /// Paper's choice: visit vertices in ascending (degree, id) order.
    MinDegreeGreedy,
    /// Ablation: visit vertices in a seeded random order.
    Random(u64),
    /// Ablation: visit vertices in descending (degree, id) order — the
    /// deliberately bad choice that maximizes augmenting-edge blowup.
    MaxDegreeGreedy,
}

/// Configuration for [`crate::IsLabelIndex::try_build`].
///
/// # Weight contract
///
/// Input edge weights are positive `u32`s (the paper's `ω : E → N+`).
/// During construction, augmenting-edge weights and label distances are
/// sums of weights along real paths and are kept in `u32` as well —
/// labels store them at that width in memory, in the artifact and on
/// disk. Graphs whose shortest-path lengths exceed `u32::MAX` therefore
/// fail construction with an explicit panic ("augmenting edge weight
/// overflows u32" or "label distance overflows u32") rather than
/// producing wrong distances, and a dynamic insertion that would patch a
/// label distance past `u32::MAX` is refused as
/// [`Error::InvalidUpdate`](crate::Error::InvalidUpdate). Query-time
/// accumulation always happens in `u64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildConfig {
    /// How `k` is selected. Default: `σ = 0.95` (the paper's default).
    pub k_selection: KSelection,
    /// Independent-set strategy. Default: greedy min-degree.
    pub is_strategy: IsStrategy,
    /// Keep the `G_k` edges' via vertices and answer shortest-*path* (not
    /// just distance) queries (Section 8.1); without it a path query is
    /// [`QueryError::NoPathInfo`](crate::QueryError::NoPathInfo). Costs
    /// one `[u, v, via]` triple per augmenting `G_k` edge and nothing per
    /// label entry: unlike the paper, which stores a first hop in every
    /// entry, a path query derives each hop from the peel row and the
    /// labels (`docs/adr/0020-derived-first-hops.md`), so the labels are
    /// the same bytes either way. Default: `true`.
    pub keep_path_info: bool,
    /// Hard cap on the number of levels, as a safety net against
    /// pathological inputs. Default: 10 000 (never reached in practice —
    /// each level peels at least one vertex).
    pub max_levels: u32,
}

/// The paper's default σ, which also decides where a
/// [`KSelection::Full`] peel stops.
pub const DEFAULT_SIGMA: f64 = 0.95;

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            k_selection: KSelection::SigmaThreshold(DEFAULT_SIGMA),
            is_strategy: IsStrategy::MinDegreeGreedy,
            keep_path_info: true,
            max_levels: 10_000,
        }
    }
}

impl BuildConfig {
    /// Paper default (`σ = 0.95`).
    pub fn sigma(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "σ must be in (0, 1], got {threshold}"
        );
        Self {
            k_selection: KSelection::SigmaThreshold(threshold),
            ..Default::default()
        }
    }

    /// Exactly `k` levels.
    pub fn fixed_k(k: u32) -> Self {
        assert!(k >= 2, "k must be at least 2 (k = 1 would peel nothing)");
        Self {
            k_selection: KSelection::FixedK(k),
            ..Default::default()
        }
    }

    /// A label-only index ([`KSelection::Full`]): the σ core labelled by a
    /// pruned Dijkstra, Equation 1 alone at query time.
    pub fn full() -> Self {
        Self {
            k_selection: KSelection::Full,
            ..Default::default()
        }
    }

    /// Validates the configuration, returning
    /// [`Error::InvalidConfig`](crate::Error::InvalidConfig) on nonsense
    /// values — the fallible form used by
    /// [`IsLabelIndex::try_build`](crate::IsLabelIndex::try_build) and the
    /// CLI so malformed flags produce a clean message instead of a panic.
    pub fn try_validate(&self) -> Result<(), crate::Error> {
        let bad = |msg: String| Err(crate::Error::InvalidConfig(msg));
        match self.k_selection {
            KSelection::SigmaThreshold(s) if !(s > 0.0 && s <= 1.0) => {
                return bad(format!("σ must be in (0, 1], got {s}"));
            }
            KSelection::FixedK(k) if k < 2 => {
                return bad(format!("k must be at least 2, got {k}"));
            }
            _ => {}
        }
        if self.max_levels < 2 {
            return bad(format!(
                "max_levels must allow at least one peel, got {}",
                self.max_levels
            ));
        }
        Ok(())
    }

    /// Validates the configuration, panicking on nonsense values
    /// (convenience over [`BuildConfig::try_validate`]).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// One line naming every field: `k sigma 0.95, IS min-degree greedy, max
/// levels 10000, path info on` (`islabel stats --file` prints what an
/// artifact's header records this way).
impl std::fmt::Display for BuildConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.k_selection {
            KSelection::SigmaThreshold(s) => write!(f, "k sigma {s}")?,
            KSelection::FixedK(k) => write!(f, "k fixed {k}")?,
            KSelection::Full => write!(f, "k full")?,
        }
        match self.is_strategy {
            IsStrategy::MinDegreeGreedy => write!(f, ", IS min-degree greedy")?,
            IsStrategy::Random(seed) => write!(f, ", IS random (seed {seed})")?,
            IsStrategy::MaxDegreeGreedy => write!(f, ", IS max-degree greedy")?,
        }
        let paths = if self.keep_path_info { "on" } else { "off" };
        write!(f, ", max levels {}, path info {paths}", self.max_levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = BuildConfig::default();
        assert_eq!(c.k_selection, KSelection::SigmaThreshold(0.95));
        assert_eq!(c.is_strategy, IsStrategy::MinDegreeGreedy);
        assert!(c.keep_path_info);
        c.validate();
    }

    #[test]
    fn constructors() {
        assert_eq!(
            BuildConfig::sigma(0.9).k_selection,
            KSelection::SigmaThreshold(0.9)
        );
        assert_eq!(BuildConfig::fixed_k(5).k_selection, KSelection::FixedK(5));
        assert_eq!(BuildConfig::full().k_selection, KSelection::Full);
    }

    #[test]
    #[should_panic(expected = "σ must be in (0, 1]")]
    fn sigma_zero_rejected() {
        BuildConfig::sigma(0.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn k_one_rejected() {
        BuildConfig::fixed_k(1);
    }

    #[test]
    fn try_validate_reports_typed_errors() {
        let bad_sigma = BuildConfig {
            k_selection: KSelection::SigmaThreshold(1.5),
            ..BuildConfig::default()
        };
        let err = bad_sigma.try_validate().unwrap_err();
        assert!(matches!(err, crate::Error::InvalidConfig(_)));
        assert!(err.to_string().contains("σ"), "{err}");

        let bad_k = BuildConfig {
            k_selection: KSelection::FixedK(1),
            ..BuildConfig::default()
        };
        assert!(bad_k.try_validate().is_err());

        let bad_levels = BuildConfig {
            max_levels: 1,
            ..BuildConfig::default()
        };
        assert!(bad_levels.try_validate().is_err());

        assert!(BuildConfig::default().try_validate().is_ok());
        assert!(BuildConfig::full().try_validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn validate_panics_via_try_form() {
        BuildConfig {
            k_selection: KSelection::FixedK(0),
            ..BuildConfig::default()
        }
        .validate();
    }
}
