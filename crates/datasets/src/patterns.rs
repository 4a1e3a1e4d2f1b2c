//! The experimental QGP generator of Section 7.
//!
//! The paper generates patterns for its evaluation by (1) mining frequent
//! features (edges and short paths) from each dataset, (2) combining the top
//! features into a stratified pattern of the requested size `(|V_Q|, |E_Q|)`,
//! (3) attaching ratio aggregates `σ(e) ≥ p%` to frequent edges, and
//! (4) adding `|E⁻_Q|` negated edges.  This module reproduces that procedure
//! on top of [`qgp_graph::GraphStats`].
//!
//! Patterns are grown outward from the focus so every generated pattern is
//! connected, star-like (as 99% of real-world queries are, per the paper) and
//! satisfies the well-formedness restrictions of Section 2.2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder, PatternNodeId};
use qgp_graph::{Graph, GraphStats};

/// The size descriptor `|Q| = (|V_Q|, |E_Q|, p_a, |E⁻_Q|)` used throughout
/// the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternSize {
    /// Number of pattern nodes `|V_Q|`.
    pub nodes: usize,
    /// Number of pattern edges `|E_Q|`.
    pub edges: usize,
    /// The ratio aggregate `p_a` (in percent) attached to quantified edges.
    pub ratio_percent: f64,
    /// Number of negated edges `|E⁻_Q|`.
    pub negated_edges: usize,
}

impl PatternSize {
    /// Convenience constructor mirroring the paper's `(|V_Q|, |E_Q|, p_a,
    /// |E⁻_Q|)` notation.
    pub fn new(nodes: usize, edges: usize, ratio_percent: f64, negated_edges: usize) -> Self {
        PatternSize {
            nodes,
            edges,
            ratio_percent,
            negated_edges,
        }
    }
}

/// Configuration of the pattern generator.
#[derive(Debug, Clone)]
pub struct PatternGenConfig {
    /// Requested pattern size.
    pub size: PatternSize,
    /// How many of the most frequent features are used as seeds (the paper
    /// uses the top 5).
    pub seed_features: usize,
    /// How many edges receive the ratio aggregate (at most 2, so the
    /// per-path restriction of Section 2.2 always holds).
    pub quantified_edges: usize,
    /// Preferred focus node label (e.g. `"person"`); when `None`, the most
    /// frequent source label among the seed features is used.
    pub focus_label: Option<String>,
    /// RNG seed.
    pub seed: u64,
}

impl PatternGenConfig {
    /// A generator for patterns of the given size with default settings.
    pub fn with_size(size: PatternSize) -> Self {
        PatternGenConfig {
            size,
            seed_features: 5,
            quantified_edges: 2,
            focus_label: None,
            seed: 99,
        }
    }
}

/// Generates one QGP of (approximately) the requested size from the frequent
/// features of `graph`.  Returns `None` when the graph has no usable
/// features (e.g. it is empty).
pub fn generate_pattern(graph: &Graph, config: &PatternGenConfig) -> Option<Pattern> {
    let stats = GraphStats::compute(graph);
    let labels = graph.labels();
    let features: Vec<(String, String, String, usize)> = stats
        .top_edge_features(config.seed_features.max(1) * 4)
        .into_iter()
        .filter_map(|(f, count)| {
            Some((
                labels.node_label_name(f.src_label)?.to_owned(),
                labels.edge_label_name(f.edge_label)?.to_owned(),
                labels.node_label_name(f.dst_label)?.to_owned(),
                count,
            ))
        })
        .collect();
    if features.is_empty() {
        return None;
    }

    let mut rng = StdRng::seed_from_u64(config.seed);

    // Focus label: the configured one, or the most frequent source label.
    let focus_label = config
        .focus_label
        .clone()
        .unwrap_or_else(|| features[0].0.clone());

    // How many graph nodes carry each label — a pattern must never require
    // more distinct nodes of a label than the graph holds (matching is
    // injective), which matters for "constant-like" labels such as products.
    let label_supply = |label: &str| -> usize {
        labels
            .node_label(label)
            .map(|id| graph.nodes_with_label(id).len())
            .unwrap_or(0)
    };

    let mut b = PatternBuilder::new();
    let focus = b.node_named(&focus_label, "xo");
    let mut node_labels: Vec<(PatternNodeId, String)> = vec![(focus, focus_label.clone())];
    let mut used_labels: Vec<String> = vec![focus_label.clone()];
    // Edge signatures already present, to avoid duplicate parallel edges.
    let mut edge_sigs: Vec<(PatternNodeId, PatternNodeId, String)> = Vec::new();
    let mut edges_added = 0usize;

    let want_nodes = config.size.nodes.max(2);
    // The negated branches (a negated edge plus one continuation edge each,
    // the shape of Q3) count toward |E_Q|; whatever remains beyond the
    // spanning tree is added as extra (cycle-forming) edges.
    let negated_branch_edges = 2 * config.size.negated_edges;
    let want_edges = config.size.edges.max(want_nodes - 1);
    let want_extra_edges = want_edges.saturating_sub(want_nodes - 1 + negated_branch_edges);

    // Grow a tree outward from the focus using frequent features whose source
    // label matches an existing pattern node.  The first branch prefers a
    // feature that leads back to the focus label (e.g. person → person via
    // `follow`), which yields the Q1/Q3-like shapes the paper's workload is
    // made of and gives ratio aggregates a meaningful fan-out.
    let mut guard = 0;
    while node_labels.len() < want_nodes && guard < 20 * want_nodes {
        guard += 1;
        // The first edge always leaves the focus; afterwards, extension
        // alternates between the focus (additional star branches) and the
        // most recently added branch node (deepening the branch into a
        // 2-hop path, like `xo → follows → z → likes → album` in Q1).  Deep
        // branches under a quantified edge are what make quantifier
        // verification non-trivial.
        // Short-circuiting keeps the RNG stream identical to the previous
        // if/else-if chain: the first edge never draws from the RNG.
        let (from_node, from_label) = if edges_added == 0 || rng.gen_bool(0.45) {
            node_labels[0].clone()
        } else {
            node_labels[node_labels.len() - 1].clone()
        };
        let mut candidates: Vec<_> = features
            .iter()
            .filter(|(src, elabel, dst, _)| {
                *src == from_label
                    // Injectivity head-room: the graph must hold more nodes of
                    // the destination label than the pattern already uses.
                    && label_supply(dst) > used_labels.iter().filter(|l| *l == dst).count()
                    // No duplicate (source node, edge label, target label).
                    && !node_labels.iter().any(|(n, l)| {
                        l == dst && edge_sigs.contains(&(from_node, *n, elabel.clone()))
                    })
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        // The first branch prefers person→person style features.
        if edges_added == 0 {
            if let Some(pos) = candidates
                .iter()
                .position(|(_, _, dst, _)| *dst == from_label)
            {
                let preferred = candidates.remove(pos);
                candidates.insert(0, preferred);
            }
        }
        let pick = if edges_added == 0 {
            candidates[0].clone()
        } else {
            candidates[rng.gen_range(0..candidates.len())].clone()
        };
        let new_node = b.node(&pick.2);
        b.edge(from_node, new_node, &pick.1);
        edge_sigs.push((from_node, new_node, pick.1.clone()));
        node_labels.push((new_node, pick.2.clone()));
        used_labels.push(pick.2.clone());
        edges_added += 1;
    }
    if node_labels.len() < 2 {
        // Could not even grow one edge from the focus: fall back to the most
        // frequent feature as a single-edge pattern.
        let pick = &features[0];
        let focus_is_src = pick.0 == focus_label;
        let other = b.node(if focus_is_src { &pick.2 } else { &pick.0 });
        if focus_is_src {
            b.edge(focus, other, &pick.1);
        } else {
            b.edge(other, focus, &pick.1);
        }
        node_labels.push((other, String::new()));
        edges_added += 1;
    }

    // Add extra (non-tree) edges.  To keep the generated workload satisfiable
    // on graphs that are orders of magnitude smaller than Pokec/YAGO2, extra
    // edges are restricted to the shapes that occur in the paper's example
    // patterns: an edge between two focus-labeled variables (e.g. `follow`
    // between two person nodes) or an edge from the focus to a node whose
    // label is plentiful in the graph.  Improbable constraints — mutual
    // edges between the same pair, or two variables forced to share a
    // near-unique item — are avoided.  If the requested |E_Q| cannot be
    // reached under these restrictions the pattern simply stays a little
    // smaller.
    let mut extra_added = 0usize;
    let mut guard = 0;
    while extra_added < want_extra_edges && guard < 30 * (want_extra_edges + 1) {
        guard += 1;
        let ((a, la), (c, lc)) = if guard % 2 == 1 {
            // Two focus-labeled nodes.
            let same: Vec<_> = node_labels
                .iter()
                .filter(|(_, l)| *l == focus_label)
                .cloned()
                .collect();
            if same.len() < 2 {
                continue;
            }
            let x = same[rng.gen_range(0..same.len())].clone();
            let y = same[rng.gen_range(0..same.len())].clone();
            (x, y)
        } else {
            // Focus as the source, plentiful target label.
            let c = node_labels[rng.gen_range(0..node_labels.len())].clone();
            if c.1 != focus_label && label_supply(&c.1) < 50 {
                continue;
            }
            (node_labels[0].clone(), c)
        };
        if a == c {
            continue;
        }
        // No second edge between the same ordered pair, and no mutual edge.
        let pair_taken = edge_sigs
            .iter()
            .any(|(x, y, _)| (*x == a && *y == c) || (*x == c && *y == a));
        if pair_taken {
            continue;
        }
        if let Some(feat) = features.iter().find(|(src, elabel, dst, _)| {
            *src == la && *dst == lc && !edge_sigs.contains(&(a, c, elabel.clone()))
        }) {
            b.edge(a, c, &feat.1);
            edge_sigs.push((a, c, feat.1.clone()));
            edges_added += 1;
            extra_added += 1;
        }
    }
    let _ = edges_added;

    // Negated branches: each one mirrors the shape of Q3's negated branch —
    // a negated edge from the focus to a fresh node, followed (when a
    // continuation feature exists) by one existential edge, so the negation
    // is selective instead of wiping out every match.
    let focus_features: Vec<_> = features
        .iter()
        .filter(|(src, _, _, _)| *src == focus_label)
        .collect();
    // Prefer branch features whose target label can be continued by another
    // feature: a two-edge negated branch ("follows somebody who …") is
    // selective the way Q3's is, whereas a bare one-edge negation over a
    // ubiquitous relationship would wipe out every match.
    let continuable: Vec<_> = focus_features
        .iter()
        .filter(|f| {
            features
                .iter()
                .any(|(src, _, dst, _)| *src == f.2 && *dst != focus_label && label_supply(dst) > 0)
        })
        .copied()
        .collect();
    for i in 0..config.size.negated_edges {
        let pick = if !continuable.is_empty() {
            continuable[i % continuable.len()]
        } else if let Some(last) = focus_features.last() {
            // Fall back to the rarest focus feature so the negation removes
            // as few matches as possible.
            last
        } else {
            break;
        };
        let leaf = b.node(&pick.2);
        b.negated_edge(focus, leaf, &pick.1);
        // Continue the negated branch with the *least* frequent compatible
        // feature (features are sorted by descending frequency, so take the
        // last): a rare condition such as "… who gave the product a bad
        // rating" removes few matches, exactly like Q3's negated branch.
        if let Some(cont) = features
            .iter()
            .rev()
            .find(|(src, _, dst, _)| *src == pick.2 && *dst != focus_label && label_supply(dst) > 0)
        {
            let tail = b.node(&cont.2);
            b.edge(leaf, tail, &cont.1);
        }
    }

    b.focus(focus);
    let mut pattern = b.build().ok()?;

    // Attach ratio aggregates to up to `quantified_edges` focus out-edges.
    pattern = attach_ratio_quantifiers(
        pattern,
        config.size.ratio_percent,
        config.quantified_edges.min(2),
    );
    pattern.validate().ok()?;
    Some(pattern)
}

/// Returns a copy of `pattern` where up to `how_many` non-negated out-edges
/// of the focus carry `σ(e) ≥ p%`.
fn attach_ratio_quantifiers(pattern: Pattern, percent: f64, how_many: usize) -> Pattern {
    let focus = pattern.focus();
    let mut chosen = 0usize;
    let nodes: Vec<_> = pattern.nodes().map(|(_, n)| n.clone()).collect();
    let edges: Vec<_> = pattern
        .edges()
        .map(|(id, e)| {
            let mut e = e.clone();
            if chosen < how_many
                && e.from == focus
                && !e.quantifier.is_negated()
                && pattern.out_edges_of(focus).contains(&id)
            {
                e.quantifier = CountingQuantifier::at_least_percent(percent.clamp(1.0, 100.0));
                chosen += 1;
            }
            e
        })
        .collect();
    Pattern::from_parts(nodes, edges, focus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::social::{pokec_like, SocialConfig};
    use crate::synthetic::{small_world, SmallWorldConfig};

    #[test]
    fn generated_patterns_have_the_requested_shape() {
        let g = pokec_like(&SocialConfig::with_persons(500));
        let size = PatternSize::new(5, 7, 30.0, 1);
        let config = PatternGenConfig {
            focus_label: Some("person".to_owned()),
            ..PatternGenConfig::with_size(size)
        };
        let p = generate_pattern(&g, &config).expect("pattern generated");
        assert!(p.validate().is_ok());
        assert!(p.node_count() >= 3);
        assert!(p.node_count() <= 7);
        assert_eq!(p.negated_edges().len(), 1);
        assert_eq!(p.node(p.focus()).label, "person");
        // At least one ratio aggregate was attached.
        assert!(p
            .edges()
            .any(|(_, e)| matches!(e.quantifier, CountingQuantifier::Ratio { .. })));
    }

    #[test]
    fn generation_is_deterministic_given_the_seed() {
        let g = pokec_like(&SocialConfig::with_persons(300));
        let config = PatternGenConfig::with_size(PatternSize::new(4, 5, 30.0, 1));
        let a = generate_pattern(&g, &config).unwrap();
        let b = generate_pattern(&g, &config).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn positive_patterns_can_be_requested() {
        let g = small_world(&SmallWorldConfig::with_size(2_000, 6_000));
        let config = PatternGenConfig::with_size(PatternSize::new(4, 4, 50.0, 0));
        let p = generate_pattern(&g, &config).expect("pattern generated");
        assert!(p.is_positive());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn empty_graph_yields_no_pattern() {
        let g = qgp_graph::GraphBuilder::new().build();
        let config = PatternGenConfig::with_size(PatternSize::new(4, 4, 30.0, 0));
        assert!(generate_pattern(&g, &config).is_none());
    }

    #[test]
    fn generated_patterns_usually_have_matches() {
        use qgp_core::engine::{Engine, ExecOptions};
        let g = pokec_like(&SocialConfig::with_persons(500));
        let engine = Engine::new(&g);
        let mut matched = 0;
        // Enough seeds that the assertion reflects the generator's hit rate
        // rather than the luck of individual RNG streams.
        let seeds = 20;
        for seed in 0..seeds {
            let config = PatternGenConfig {
                focus_label: Some("person".to_owned()),
                seed,
                ..PatternGenConfig::with_size(PatternSize::new(4, 5, 30.0, 0))
            };
            if let Some(p) = generate_pattern(&g, &config) {
                let ans = engine
                    .prepare(&p)
                    .unwrap()
                    .run(ExecOptions::sequential())
                    .unwrap();
                if !ans.is_empty() {
                    matched += 1;
                }
            }
        }
        assert!(
            matched >= seeds / 2,
            "only {matched} of {seeds} generated patterns matched"
        );
    }
}
