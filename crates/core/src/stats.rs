//! Index construction statistics — the columns of the paper's Tables 3, 6
//! and 7 (`k`, `|V_{G_k}|`, `|E_{G_k}|`, label size, indexing time).

use std::time::Duration;

/// Statistics captured while building an [`crate::IsLabelIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Vertices of the input graph.
    pub num_vertices: usize,
    /// Edges of the input graph.
    pub num_edges: usize,
    /// Number of hierarchy levels `k`.
    pub k: u32,
    /// `|V_{G_k}|`: vertices surviving in the residual graph.
    pub gk_vertices: usize,
    /// `|E_{G_k}|`: edges of the residual graph.
    pub gk_edges: usize,
    /// Total label entries over all vertices.
    pub label_entries: usize,
    /// Resident bytes of the label arrays (the paper's "label size").
    pub label_bytes: usize,
    /// Mean label entries per vertex.
    pub avg_label_len: f64,
    /// Largest single label.
    pub max_label_len: usize,
    /// Time spent building the vertex hierarchy (Algorithms 2 + 3).
    pub hierarchy_time: Duration,
    /// Time spent in top-down labeling (Algorithm 4).
    pub labeling_time: Duration,
    /// End-to-end build time (the paper's "indexing time"): hierarchy,
    /// labeling and everything a builder does after them.
    pub build_time: Duration,
}

impl IndexStats {
    /// Fraction of vertices that survive into `G_k`.
    pub fn gk_vertex_fraction(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.gk_vertices as f64 / self.num_vertices as f64
        }
    }
}

impl std::fmt::Display for IndexStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use islabel_graph::algo::stats::{human_bytes, human_count};
        write!(
            f,
            "k={} |V_Gk|={} |E_Gk|={} labels={} ({}) avg_label={:.1} build={:.2?} \
             (hierarchy {:.2?}, labels {:.2?})",
            self.k,
            human_count(self.gk_vertices),
            human_count(self.gk_edges),
            human_count(self.label_entries),
            human_bytes(self.label_bytes),
            self.avg_label_len,
            self.build_time,
            self.hierarchy_time,
            self.labeling_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IndexStats {
        IndexStats {
            num_vertices: 100,
            num_edges: 250,
            k: 6,
            gk_vertices: 25,
            gk_edges: 80,
            label_entries: 700,
            label_bytes: 9100,
            avg_label_len: 7.0,
            max_label_len: 31,
            hierarchy_time: Duration::from_millis(5),
            labeling_time: Duration::from_millis(3),
            build_time: Duration::from_millis(9),
        }
    }

    #[test]
    fn fraction_and_display() {
        let s = sample();
        assert!((s.gk_vertex_fraction() - 0.25).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("k=6"), "{text}");
        assert!(text.contains("8.9 KB"), "{text}");
        assert!(
            text.ends_with("build=9.00ms (hierarchy 5.00ms, labels 3.00ms)"),
            "{text}"
        );
    }

    #[test]
    fn empty_graph_fraction_is_zero() {
        let s = IndexStats {
            num_vertices: 0,
            gk_vertices: 0,
            ..sample()
        };
        assert_eq!(s.gk_vertex_fraction(), 0.0);
    }
}
