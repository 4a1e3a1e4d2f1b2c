//! Property-based equivalence of the graph-construction paths.
//!
//! The storage crate reaches a CSR layout either from the batch loader
//! (`GraphBuilder` stages sorted per-source rows and freezes them once at
//! `build()`) or from the builder's nodes plus one-op `Graph::apply_edge_ops`
//! batches (through the delta overlay, compacted past its threshold).  Both must
//! produce identical adjacency — same edge list, same degrees, same
//! per-label neighbor ranges — and, downstream, identical answers — the
//! reference oracle's — for every matcher configuration.  A third freeze,
//! `Graph::induced_subgraph`, must equal the restriction of the edge set to
//! the chosen nodes under the mapping it returns.

use std::collections::BTreeSet;

use proptest::prelude::*;

use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
use qgp_graph::{EdgeOp, Graph, GraphBuilder, NodeId};
use qgp_testkit::{engine_match, graph_spec, GraphSpec, NODE_LABELS};

/// Three edge labels, so label ranges have a middle one.
const RST: &[&str] = &["r", "s", "t"];

/// Builds the spec through the batch loader.
fn build_batch(spec: &GraphSpec) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = spec
        .node_labels
        .iter()
        .map(|&l| b.add_node(NODE_LABELS[l as usize]))
        .collect();
    for &(from, to, label) in &spec.edges {
        let _ = b
            .add_edge_dedup(
                ids[from as usize],
                ids[to as usize],
                spec.edge_labels[label as usize],
            )
            .unwrap();
    }
    b.build()
}

/// Builds the spec's nodes with the builder, then inserts every edge as its
/// own one-op `Graph::apply_edge_ops` batch.
fn build_incremental(spec: &GraphSpec) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = spec
        .node_labels
        .iter()
        .map(|&l| b.add_node(NODE_LABELS[l as usize]))
        .collect();
    let mut g = b.build();
    for &(from, to, label) in &spec.edges {
        let id = g
            .labels_mut()
            .intern_edge_label(spec.edge_labels[label as usize]);
        g.apply_edge_ops(&[EdgeOp::insert(ids[from as usize], ids[to as usize], id)])
            .unwrap();
    }
    g
}

fn assert_same_adjacency(a: &Graph, b: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.node_count(), b.node_count());
    prop_assert_eq!(a.edge_count(), b.edge_count());
    let edge_list = |g: &Graph| {
        g.edges()
            .map(|e| (e.from, e.label, e.to))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(edge_list(a), edge_list(b));
    for v in a.nodes() {
        prop_assert_eq!(a.out_degree(v), b.out_degree(v));
        prop_assert_eq!(a.in_degree(v), b.in_degree(v));
        prop_assert_eq!(a.out_neighbors_slice(v), b.out_neighbors_slice(v));
        prop_assert_eq!(a.in_neighbors_slice(v), b.in_neighbors_slice(v));
        for name in RST {
            let (Some(la), Some(lb)) = (a.labels().edge_label(name), b.labels().edge_label(name))
            else {
                prop_assert_eq!(
                    a.labels().edge_label(name).is_some(),
                    b.labels().edge_label(name).is_some()
                );
                continue;
            };
            prop_assert_eq!(
                a.out_neighbors_with_label_slice(v, la),
                b.out_neighbors_with_label_slice(v, lb),
                "out label range of {:?} via {}",
                v,
                name
            );
            prop_assert_eq!(
                a.in_neighbors_with_label_slice(v, la),
                b.in_neighbors_with_label_slice(v, lb)
            );
            prop_assert_eq!(
                a.out_degree_with_label(v, la),
                b.out_degree_with_label(v, lb)
            );
            prop_assert_eq!(a.in_degree_with_label(v, la), b.in_degree_with_label(v, lb));
        }
    }
    // Label-indexed node lists agree as well.
    for name in NODE_LABELS {
        match (a.labels().node_label(name), b.labels().node_label(name)) {
            (Some(la), Some(lb)) => {
                prop_assert_eq!(a.nodes_with_label(la), b.nodes_with_label(lb))
            }
            (none_a, none_b) => prop_assert_eq!(none_a.is_some(), none_b.is_some()),
        }
    }
    Ok(())
}

/// A small quantified pattern exercising numeric, ratio and universal
/// quantifiers over the random label alphabet.
fn probe_patterns() -> Vec<qgp_core::pattern::Pattern> {
    let mut patterns = Vec::new();
    for q in [
        CountingQuantifier::existential(),
        CountingQuantifier::at_least(2),
        CountingQuantifier::at_least_percent(50.0),
        CountingQuantifier::universal(),
    ] {
        let mut b = PatternBuilder::new();
        let xo = b.node("A");
        let y = b.node("B");
        b.quantified_edge(xo, y, "r", q);
        b.focus(xo);
        patterns.push(b.build().unwrap());

        let mut b = PatternBuilder::new();
        let xo = b.node("A");
        let y = b.node("B");
        let z = b.node("C");
        b.quantified_edge(xo, y, "r", q);
        b.edge(y, z, "s");
        b.focus(xo);
        patterns.push(b.build().unwrap());
    }
    // Negation: xo has an r-child matching B, and no s-child matching C.
    let mut b = PatternBuilder::new();
    let xo = b.node("A");
    let y = b.node("B");
    let z = b.node("C");
    b.edge(xo, y, "r");
    b.negated_edge(xo, z, "s");
    b.focus(xo);
    patterns.push(b.build().unwrap());
    patterns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch and incremental construction freeze identical CSR state.
    #[test]
    fn batch_and_incremental_graphs_are_identical(spec in graph_spec(2..12, RST)) {
        let batch = build_batch(&spec);
        let incremental = build_incremental(&spec);
        assert_same_adjacency(&batch, &incremental)?;
    }

    /// ... and therefore the same quantified matching answers — the
    /// oracle's — for every matcher configuration.
    #[test]
    fn batch_and_incremental_graphs_match_identically(spec in graph_spec(2..12, RST)) {
        let batch = build_batch(&spec);
        let incremental = build_incremental(&spec);
        for pattern in probe_patterns() {
            let oracle = evaluate_reference(&batch, &pattern);
            for config in [
                MatchConfig::qmatch(),
                MatchConfig::qmatch_n(),
                MatchConfig::enumerate(),
            ] {
                for (how, graph) in [("batch", &batch), ("incremental", &incremental)] {
                    prop_assert_eq!(
                        &engine_match(graph, &pattern, &config).matches, &oracle,
                        "{} graph, pattern {} config {:?}", how, pattern, config
                    );
                }
            }
        }
    }

    /// `induced_subgraph` over random (unsorted, repeating) node lists: both
    /// directions of the subgraph are the edge set restricted to the chosen
    /// nodes, read through the returned local → global mapping.
    #[test]
    fn induced_subgraph_is_the_restriction_of_the_edge_set(
        spec in graph_spec(2..12, RST),
        picks in proptest::collection::vec(0usize..64, 0..16),
    ) {
        let g = build_batch(&spec);
        let nodes: Vec<NodeId> = picks.iter().map(|&i| NodeId::new(i % g.node_count())).collect();
        let (sub, global_of_local) = g.induced_subgraph(&nodes);

        let mut first_seen = Vec::new();
        for &v in &nodes {
            if !first_seen.contains(&v) {
                first_seen.push(v);
            }
        }
        prop_assert_eq!(&global_of_local, &first_seen);
        prop_assert_eq!(sub.node_count(), first_seen.len());
        let local = |v: NodeId| global_of_local.iter().position(|&w| w == v).map(NodeId::new);
        let expected: BTreeSet<_> = g
            .edges()
            .filter_map(|e| Some((local(e.from)?, e.label, local(e.to)?)))
            .collect();
        prop_assert_eq!(sub.edge_count(), expected.len());
        let group = |set: &BTreeSet<_>, v: NodeId, l| {
            set.range((v, l, NodeId(0))..=(v, l, NodeId(u32::MAX)))
                .map(|&(_, _, w)| w)
                .collect::<Vec<NodeId>>()
        };
        let reversed: BTreeSet<_> = expected.iter().map(|&(f, l, t)| (t, l, f)).collect();
        for v in sub.nodes() {
            prop_assert_eq!(sub.node_label(v), g.node_label(global_of_local[v.index()]));
            for (l, _) in g.labels().edge_labels() {
                prop_assert_eq!(sub.out_neighbors_with_label_slice(v, l), &group(&expected, v, l)[..]);
                prop_assert_eq!(sub.in_neighbors_with_label_slice(v, l), &group(&reversed, v, l)[..]);
            }
        }
        // The per-label node index is built with the subgraph, not copied.
        for (l, _) in g.labels().node_labels() {
            let with_label: Vec<NodeId> = sub.nodes().filter(|&v| sub.node_label(v) == l).collect();
            prop_assert_eq!(sub.nodes_with_label(l), &with_label[..]);
        }
    }
}
