//! Property-based tests: on randomly generated graphs and patterns, every
//! optimized matcher configuration (QMatch, QMatchn, Enum) must agree with
//! the brute-force reference implementation of the QGP semantics, and several
//! paper-stated invariants must hold (conventional-pattern equivalence,
//! anti-monotonicity of quantifier thresholds, answer containment for
//! positified patterns).

use proptest::prelude::*;

mod common;

use common::{engine_match, run};
use qgp_core::engine::ExecOptions;
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_graph::{Graph, GraphBuilder, NodeId};

const NODE_LABELS: &[&str] = &["A", "B", "C"];
const EDGE_LABELS: &[&str] = &["r", "s"];

/// A compact description of a random graph: node labels + labeled edges.
#[derive(Debug, Clone)]
struct GraphSpec {
    node_labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (3usize..10).prop_flat_map(|n| {
        let nodes = proptest::collection::vec(0u8..NODE_LABELS.len() as u8, n);
        let edges = proptest::collection::vec(
            (0u8..n as u8, 0u8..n as u8, 0u8..EDGE_LABELS.len() as u8),
            0..(3 * n),
        );
        (nodes, edges).prop_map(|(node_labels, edges)| GraphSpec { node_labels, edges })
    })
}

fn build_graph(spec: &GraphSpec) -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = spec
        .node_labels
        .iter()
        .map(|&l| b.add_node(NODE_LABELS[l as usize]))
        .collect();
    for &(from, to, label) in &spec.edges {
        if from == to {
            continue; // patterns never contain self loops
        }
        let _ = b.add_edge_dedup(
            ids[from as usize],
            ids[to as usize],
            EDGE_LABELS[label as usize],
        );
    }
    (b.build(), ids)
}

/// A compact description of a random star/tree pattern rooted at the focus.
#[derive(Debug, Clone)]
struct PatternSpec {
    /// Node labels, index 0 is the focus.
    node_labels: Vec<u8>,
    /// For node i (> 0): (parent index, edge label, outgoing from parent?, quantifier kind)
    edges: Vec<(u8, u8, bool, u8)>,
}

fn pattern_spec() -> impl Strategy<Value = PatternSpec> {
    (2usize..5).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u8..NODE_LABELS.len() as u8, n);
        let edges = proptest::collection::vec(
            (
                0u8..(n as u8 - 1),
                0u8..EDGE_LABELS.len() as u8,
                any::<bool>(),
                0u8..6,
            ),
            n - 1,
        );
        (labels, edges).prop_map(|(node_labels, edges)| PatternSpec { node_labels, edges })
    })
}

fn quantifier_of(kind: u8, source_is_focus: bool) -> CountingQuantifier {
    if !source_is_focus {
        // Keep non-existential quantifiers adjacent to the focus so the
        // generated pattern always satisfies the per-path restrictions of
        // Section 2.2.
        return CountingQuantifier::existential();
    }
    match kind {
        0 => CountingQuantifier::existential(),
        1 => CountingQuantifier::at_least(2),
        2 => CountingQuantifier::at_least_percent(50.0),
        3 => CountingQuantifier::universal(),
        4 => CountingQuantifier::exactly(1),
        _ => CountingQuantifier::negated(),
    }
}

fn build_pattern(spec: &PatternSpec) -> Option<Pattern> {
    let mut b = PatternBuilder::new();
    let nodes: Vec<_> = spec
        .node_labels
        .iter()
        .map(|&l| b.node(NODE_LABELS[l as usize]))
        .collect();
    for (i, &(parent, elabel, outgoing, qkind)) in spec.edges.iter().enumerate() {
        let child = nodes[i + 1];
        // Clamp the parent to an already-created node so the pattern is a tree.
        let parent = nodes[(parent as usize).min(i)];
        let label = EDGE_LABELS[elabel as usize];
        if outgoing {
            let q = quantifier_of(qkind, parent == nodes[0]);
            b.quantified_edge(parent, child, label, q);
        } else {
            // Quantifiers are attached to the source node; an incoming edge
            // from the child carries only the existential quantifier.
            b.edge(child, parent, label);
        }
    }
    b.focus(nodes[0]);
    b.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every matcher configuration computes exactly the reference semantics.
    #[test]
    fn matchers_agree_with_reference(gspec in graph_spec(), pspec in pattern_spec()) {
        let (graph, _) = build_graph(&gspec);
        let Some(pattern) = build_pattern(&pspec) else { return Ok(()); };
        let expected = evaluate_reference(&graph, &pattern);
        for config in [MatchConfig::qmatch(), MatchConfig::qmatch_n(), MatchConfig::enumerate()] {
            let got = engine_match(&graph, &pattern, &config);
            prop_assert_eq!(&got.matches, &expected, "config {:?}\npattern {}", config, pattern);
        }
    }

    /// On conventional patterns quantified matching coincides with plain
    /// subgraph isomorphism (a conventional pattern is a QGP whose every
    /// quantifier is existential — Section 2.2).
    #[test]
    fn conventional_patterns_reduce_to_subgraph_isomorphism(
        gspec in graph_spec(),
        pspec in pattern_spec(),
    ) {
        let (graph, _) = build_graph(&gspec);
        let Some(pattern) = build_pattern(&pspec) else { return Ok(()); };
        let stratified = pattern.stratified();
        let conventional = run(&graph, &stratified.stratified(), ExecOptions::sequential()).unwrap();
        let quantified = engine_match(&graph, &stratified, &MatchConfig::qmatch());
        prop_assert_eq!(conventional.matches, quantified.matches);
    }

    /// Raising a numeric threshold can only shrink the answer (the
    /// anti-monotonicity used by Lemma 10 for QGAR support).
    #[test]
    fn raising_thresholds_shrinks_answers(gspec in graph_spec(), p in 1u32..4) {
        let (graph, _) = build_graph(&gspec);
        let make = |p: u32| {
            let mut b = PatternBuilder::new();
            let xo = b.node("A");
            let z = b.node("B");
            b.quantified_edge(xo, z, "r", CountingQuantifier::at_least(p));
            b.focus(xo);
            b.build().unwrap()
        };
        let small = engine_match(&graph, &make(p), &MatchConfig::qmatch());
        let large = engine_match(&graph, &make(p + 1), &MatchConfig::qmatch());
        for v in &large.matches {
            prop_assert!(small.matches.contains(v));
        }
    }

    /// The answer of a pattern with a negated edge is contained in the answer
    /// of its Π-projection (set-difference semantics).
    #[test]
    fn negation_only_removes_matches(gspec in graph_spec(), pspec in pattern_spec()) {
        let (graph, _) = build_graph(&gspec);
        let Some(pattern) = build_pattern(&pspec) else { return Ok(()); };
        if pattern.is_positive() { return Ok(()); }
        let full = engine_match(&graph, &pattern, &MatchConfig::qmatch());
        let pi = pattern.pi();
        let positive_only = engine_match(&graph, &pi.pattern, &MatchConfig::qmatch());
        for v in &full.matches {
            prop_assert!(positive_only.matches.contains(v));
        }
    }
}
