//! The correctness gate: answers against reference Dijkstra, and the
//! answer checksum that must repeat for a repeated seed.

use islabel_core::reference::dijkstra_p2p;
use islabel_graph::{CsrGraph, Dist, VertexId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Pairs checked against the reference per workload.
pub const SAMPLE: usize = 200;

/// Wrapping sum of the distances (`None` counts 0). Identical seeds must
/// give identical checksums.
pub fn checksum(answers: &[Option<Dist>]) -> u64 {
    answers
        .iter()
        .fold(0u64, |acc, d| acc.wrapping_add(d.unwrap_or(0)))
}

/// `count` distinct positions of a `len`-long answer list, seeded.
pub fn sample_positions(len: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = (0..count.min(len)).map(|_| rng.gen_range(0..len)).collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Checks `answers[i]` for each sampled `i` against reference Dijkstra on
/// `graph` and returns how many are wrong.
///
/// `exact` is the contract of a pristine index. An index carrying lazy
/// updates promises less (`core::updates`): every reported distance is
/// the length of a real path in the updated graph — so never below the
/// reference, and never a distance for an unreachable pair — but an
/// optimum that routes through the interaction of separate updates may be
/// over-estimated until a rebuild. (A *stale* index promises nothing; the
/// benchmark's op generator never produces one, see [`crate::opgen`].)
pub fn wrong_answers(
    graph: &CsrGraph,
    pairs: &[(VertexId, VertexId)],
    answers: &[Option<Dist>],
    positions: &[usize],
    exact: bool,
) -> usize {
    positions
        .iter()
        .filter(|&&i| {
            let (s, t) = pairs[i];
            let truth = dijkstra_p2p(graph, s, t);
            let ok = match (answers[i], truth) {
                (got, truth) if exact => got == truth,
                (Some(d), Some(tr)) => d >= tr,
                (Some(_), None) => false,
                (None, _) => true,
            };
            if !ok {
                eprintln!(
                    "[benchmark] WRONG ANSWER for ({s}, {t}): got {:?}, reference {truth:?}",
                    answers[i]
                );
            }
            !ok
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_bench::QueryWorkload;
    use islabel_core::{BuildConfig, IsLabelIndex};
    use islabel_graph::generators::{erdos_renyi_gnm, WeightModel};

    fn answered() -> (CsrGraph, Vec<(VertexId, VertexId)>, Vec<Option<Dist>>) {
        let g = erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 6), 5);
        let index = IsLabelIndex::build(&g, BuildConfig::default());
        let pairs = QueryWorkload::random(120, 400, 11).pairs;
        let mut session = index.session();
        let answers = pairs
            .iter()
            .map(|&(s, t)| session.distance(s, t).unwrap())
            .collect();
        (g, pairs, answers)
    }

    #[test]
    fn correct_answers_pass_and_one_corrupted_answer_is_caught() {
        let (g, pairs, mut answers) = answered();
        let positions = sample_positions(answers.len(), SAMPLE, 1);
        assert!(positions.len() > SAMPLE / 2);
        assert_eq!(wrong_answers(&g, &pairs, &answers, &positions, true), 0);
        let victim = positions[3];
        answers[victim] = Some(answers[victim].unwrap_or(0) + 1);
        assert_eq!(wrong_answers(&g, &pairs, &answers, &positions, true), 1);
        // The lazy-update contract tolerates an over-estimate but not an
        // under-estimate.
        assert_eq!(wrong_answers(&g, &pairs, &answers, &positions, false), 0);
        answers[victim] = Some(0);
        assert_eq!(wrong_answers(&g, &pairs, &answers, &positions, false), 1);
    }

    #[test]
    fn checksum_is_stable_per_seed_and_sensitive_to_answers() {
        let (_, _, a) = answered();
        let (_, _, b) = answered();
        assert_eq!(checksum(&a), checksum(&b));
        let mut c = a.clone();
        c[0] = Some(c[0].unwrap_or(0) + 1);
        assert_ne!(checksum(&a), checksum(&c));
        assert_eq!(checksum(&[None, Some(3), Some(4)]), 7);
        assert_eq!(sample_positions(50, 10, 2), sample_positions(50, 10, 2));
        assert!(sample_positions(0, 10, 2).is_empty());
    }
}
