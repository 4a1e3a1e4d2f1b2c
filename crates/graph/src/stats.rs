//! Degree and label statistics.
//!
//! The synthetic dataset generators and the pattern generator of Section 7
//! need frequency information about the graph: how often each node label,
//! edge label and labeled edge pattern `(L(u), L(e), L(u'))` occurs.  The
//! same statistics drive the "frequent feature" seeds (frequent edges and
//! paths of length up to 3) from which experimental patterns are assembled.

use std::collections::HashMap;

use crate::graph::Graph;
use crate::labels::LabelId;

/// A labeled edge "feature": source node label, edge label, target node
/// label.  This is the unit the pattern generator counts and combines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeFeature {
    /// Label of the source node.
    pub src_label: LabelId,
    /// Label of the edge.
    pub edge_label: LabelId,
    /// Label of the target node.
    pub dst_label: LabelId,
}

/// Aggregated statistics over a graph.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Number of nodes per node label.
    pub node_label_counts: HashMap<LabelId, usize>,
    /// Number of edges per edge label.
    pub edge_label_counts: HashMap<LabelId, usize>,
    /// Number of occurrences of each labeled edge feature.
    pub edge_feature_counts: HashMap<EdgeFeature, usize>,
    /// Total node count.
    pub node_count: usize,
    /// Total edge count.
    pub edge_count: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Average out-degree.
    pub avg_out_degree: f64,
}

impl GraphStats {
    /// Computes statistics for a graph in a single pass over its edges.
    /// Label frequencies are tallied in dense per-label vectors (the label
    /// alphabets are tiny) and only converted to the public hash maps at the
    /// end.
    pub fn compute(graph: &Graph) -> Self {
        let mut stats = GraphStats {
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            ..Default::default()
        };
        let mut node_counts = vec![0usize; graph.labels().node_label_count()];
        let mut edge_counts = vec![0usize; graph.labels().edge_label_count()];
        for v in graph.nodes() {
            node_counts[graph.node_label(v).index()] += 1;
            let deg = graph.out_degree(v);
            stats.max_out_degree = stats.max_out_degree.max(deg);
        }
        for e in graph.edges() {
            edge_counts[e.label.index()] += 1;
            let feature = EdgeFeature {
                src_label: graph.node_label(e.from),
                edge_label: e.label,
                dst_label: graph.node_label(e.to),
            };
            *stats.edge_feature_counts.entry(feature).or_insert(0) += 1;
        }
        stats.node_label_counts = node_counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(l, c)| (LabelId(l as u32), c))
            .collect();
        stats.edge_label_counts = edge_counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(l, c)| (LabelId(l as u32), c))
            .collect();
        stats.avg_out_degree = if stats.node_count == 0 {
            0.0
        } else {
            stats.edge_count as f64 / stats.node_count as f64
        };
        stats
    }

    /// The `k` most frequent labeled edge features, in descending frequency.
    /// Ties are broken deterministically by the feature itself so repeated
    /// runs (and tests) see a stable order.
    pub fn top_edge_features(&self, k: usize) -> Vec<(EdgeFeature, usize)> {
        let mut features: Vec<_> = self
            .edge_feature_counts
            .iter()
            .map(|(f, c)| (*f, *c))
            .collect();
        features.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        features.truncate(k);
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let people = b.add_nodes("person", 3);
        let album = b.add_node("album");
        b.add_edge(people[0], people[1], "follow").unwrap();
        b.add_edge(people[0], people[2], "follow").unwrap();
        b.add_edge(people[1], album, "like").unwrap();
        b.add_edge(people[2], album, "like").unwrap();
        b.build()
    }

    #[test]
    fn counts_match_graph_contents() {
        let g = sample();
        let s = GraphStats::compute(&g);
        assert_eq!(s.node_count, 4);
        assert_eq!(s.edge_count, 4);
        let person = g.labels().node_label("person").unwrap();
        let album = g.labels().node_label("album").unwrap();
        assert_eq!(s.node_label_counts[&person], 3);
        assert_eq!(s.node_label_counts[&album], 1);
        let follow = g.labels().edge_label("follow").unwrap();
        assert_eq!(s.edge_label_counts[&follow], 2);
        assert_eq!(s.max_out_degree, 2);
        assert!((s.avg_out_degree - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_features_are_sorted_by_frequency() {
        let g = sample();
        let s = GraphStats::compute(&g);
        let top = s.top_edge_features(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 2);
        assert_eq!(top[1].1, 2);
        // Requesting fewer features truncates.
        assert_eq!(s.top_edge_features(1).len(), 1);
    }

    #[test]
    fn feature_count_of_missing_feature_is_zero() {
        let g = sample();
        let s = GraphStats::compute(&g);
        let bogus = EdgeFeature {
            src_label: LabelId(99),
            edge_label: LabelId(99),
            dst_label: LabelId(99),
        };
        assert!(!s.edge_feature_counts.contains_key(&bogus));
    }

    #[test]
    fn empty_graph_statistics_are_well_defined() {
        let g = GraphBuilder::new().build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.node_count, 0);
        assert_eq!(s.edge_count, 0);
        assert_eq!(s.avg_out_degree, 0.0);
        assert!(s.top_edge_features(3).is_empty());
    }
}
