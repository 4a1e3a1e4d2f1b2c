//! Standard datasets and pattern workloads of the experiment harness.

use qgp_core::pattern::Pattern;
use qgp_datasets::{
    generate_pattern, pokec_like, small_world, yago_like, KnowledgeConfig, PatternGenConfig,
    PatternSize, SmallWorldConfig, SocialConfig,
};
use qgp_graph::Graph;

/// Which real-life-shaped dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The Pokec-like social graph.
    PokecLike,
    /// The YAGO2-like knowledge graph.
    YagoLike,
}

impl Dataset {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::PokecLike => "pokec-like",
            Dataset::YagoLike => "yago2-like",
        }
    }

    /// The focus label used when generating patterns for this dataset.
    pub fn focus_label(&self) -> &'static str {
        "person"
    }
}

/// Scale knobs for the whole experiment suite.  The defaults are sized so the
/// complete harness finishes in minutes on a laptop-class single core; the
/// paper's original scales (millions of nodes, 20 machines) are reached by
/// raising `--scale` on capable hardware.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Persons in the Pokec-like graph.
    pub pokec_persons: usize,
    /// Persons in the YAGO2-like graph.
    pub yago_persons: usize,
    /// Nodes in the base synthetic small-world graph (edges are 2×).
    pub synthetic_nodes: usize,
    /// Worker counts swept by the parallel experiments (the paper uses
    /// 4–20 machines).
    pub workers: Vec<usize>,
    /// Intra-fragment threads per worker (the paper uses b = 4).
    pub threads_per_worker: usize,
}

impl ExperimentScale {
    /// The default scale multiplied by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let f = factor.max(0.05);
        let base = ExperimentScale::default();
        ExperimentScale {
            pokec_persons: ((base.pokec_persons as f64) * f) as usize,
            yago_persons: ((base.yago_persons as f64) * f) as usize,
            synthetic_nodes: ((base.synthetic_nodes as f64) * f) as usize,
            ..base
        }
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            pokec_persons: 20_000,
            yago_persons: 20_000,
            synthetic_nodes: 60_000,
            workers: vec![1, 2, 4, 6],
            threads_per_worker: 2,
        }
    }
}

/// Builds the Pokec-like graph at the configured scale.
pub fn pokec_graph(scale: &ExperimentScale) -> Graph {
    pokec_like(&SocialConfig::with_persons(scale.pokec_persons))
}

/// Builds the YAGO2-like graph at the configured scale.
pub fn yago_graph(scale: &ExperimentScale) -> Graph {
    yago_like(&KnowledgeConfig::with_persons(scale.yago_persons))
}

/// Builds a dataset by name.
pub fn dataset_graph(dataset: Dataset, scale: &ExperimentScale) -> Graph {
    match dataset {
        Dataset::PokecLike => pokec_graph(scale),
        Dataset::YagoLike => yago_graph(scale),
    }
}

/// Builds a synthetic small-world graph with the given node count (edges are
/// twice the nodes, matching the paper's `(|V|, 2|V|)` sweep).  The label
/// alphabet is reduced relative to the paper's 30 because the harness runs on
/// graphs that are ~1000× smaller: with the full alphabet, individual
/// labeled-edge features would be too rare for any pattern to match.
pub fn synthetic_graph(nodes: usize) -> Graph {
    small_world(&SmallWorldConfig {
        node_label_alphabet: 12,
        edge_label_alphabet: 4,
        ..SmallWorldConfig::with_size(nodes, nodes * 2)
    })
}

/// Generates the experiment pattern `|Q| = (nodes, edges, p_a, |E⁻_Q|)` for a
/// dataset, using the frequent-feature generator of Section 7.
pub fn workload_pattern(
    graph: &Graph,
    dataset: Option<Dataset>,
    size: PatternSize,
    seed: u64,
) -> Option<Pattern> {
    let config = PatternGenConfig {
        focus_label: dataset.map(|d| d.focus_label().to_owned()),
        seed,
        ..PatternGenConfig::with_size(size)
    };
    generate_pattern(graph, &config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_builds_quickly_and_produces_patterns() {
        let scale = ExperimentScale::scaled(0.1);
        let pokec = pokec_graph(&scale);
        let yago = yago_graph(&scale);
        assert!(pokec.node_count() > 100);
        assert!(yago.node_count() > 100);

        let p = workload_pattern(
            &pokec,
            Some(Dataset::PokecLike),
            PatternSize::new(5, 7, 30.0, 1),
            1,
        )
        .expect("pokec pattern");
        assert!(p.validate().is_ok());

        let q = workload_pattern(
            &yago,
            Some(Dataset::YagoLike),
            PatternSize::new(4, 5, 30.0, 1),
            1,
        )
        .expect("yago pattern");
        assert!(q.validate().is_ok());
    }

    #[test]
    fn dataset_names_and_scaling() {
        assert_eq!(Dataset::PokecLike.name(), "pokec-like");
        assert_eq!(Dataset::YagoLike.name(), "yago2-like");
        let s = ExperimentScale::scaled(2.0);
        assert_eq!(
            s.pokec_persons,
            2 * ExperimentScale::default().pokec_persons
        );
        let tiny = ExperimentScale::scaled(0.0);
        assert!(tiny.pokec_persons > 0);
    }

    #[test]
    fn synthetic_graph_has_requested_size() {
        let g = synthetic_graph(1_000);
        assert_eq!(g.node_count(), 1_000);
        assert!(g.edge_count() <= 2_000);
    }
}
