//! Property-based parity tests for the runtime-scheduled parallel path:
//! on random graphs — including pathologically skewed ones where a single
//! hub owns most edges — the engine's partitioned mode over a `DPar`
//! partition must compute exactly the reference oracle's answer for every
//! partition size, executor thread count, and matcher configuration — as
//! must the sequential mode and the `pqmatch_on` convenience.

use proptest::prelude::*;

#[path = "../../core/tests/common/mod.rs"]
mod common;

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_graph::{Graph, GraphBuilder};
use qgp_parallel::{dpar_with, pqmatch_on, ParallelConfig, PartitionConfig};
use qgp_runtime::Runtime;

const NODE_LABELS: &[&str] = &["A", "B", "C"];
const EDGE_LABELS: &[&str] = &["r", "s"];

/// A compact description of a random graph; `hub` plants a node owning an
/// edge to (and from half of) every other node — the skew case where static
/// chunking used to bind the wall clock to one chunk.
#[derive(Debug, Clone)]
struct GraphSpec {
    node_labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
    hub: bool,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (4usize..12).prop_flat_map(|n| {
        let nodes = proptest::collection::vec(0u8..NODE_LABELS.len() as u8, n);
        let edges = proptest::collection::vec(
            (0u8..n as u8, 0u8..n as u8, 0u8..EDGE_LABELS.len() as u8),
            0..(3 * n),
        );
        (nodes, edges, any::<bool>()).prop_map(|(node_labels, edges, hub)| GraphSpec {
            node_labels,
            edges,
            hub,
        })
    })
}

fn build_graph(spec: &GraphSpec) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = spec
        .node_labels
        .iter()
        .map(|&l| b.add_node(NODE_LABELS[l as usize]))
        .collect();
    for &(from, to, label) in &spec.edges {
        if from == to {
            continue;
        }
        let _ = b.add_edge_dedup(
            ids[from as usize],
            ids[to as usize],
            EDGE_LABELS[label as usize],
        );
    }
    if spec.hub {
        // One hub owning most of the graph's edges.
        let hub = b.add_node("A");
        for (i, &v) in ids.iter().enumerate() {
            let _ = b.add_edge_dedup(hub, v, EDGE_LABELS[i % EDGE_LABELS.len()]);
            if i % 2 == 0 {
                let _ = b.add_edge_dedup(v, hub, "r");
            }
        }
    }
    b.build()
}

/// A small family of radius-≤2 patterns covering every quantifier class the
/// matcher distinguishes (existential, numeric, ratio, universal, exact
/// equality, negation).
fn pattern(kind: u8) -> Pattern {
    let mut b = PatternBuilder::new();
    let xo = b.node("A");
    match kind % 6 {
        0 => {
            let y = b.node("B");
            b.edge(xo, y, "r");
        }
        1 => {
            let y = b.node("B");
            b.quantified_edge(xo, y, "r", CountingQuantifier::at_least(2));
        }
        2 => {
            let y = b.node("B");
            let z = b.node("C");
            b.quantified_edge(xo, y, "r", CountingQuantifier::at_least_percent(50.0));
            b.edge(y, z, "s");
        }
        3 => {
            let y = b.node("B");
            let z = b.node("C");
            b.quantified_edge(xo, y, "r", CountingQuantifier::universal());
            b.edge(y, z, "s");
        }
        4 => {
            let y = b.node("B");
            b.quantified_edge(xo, y, "r", CountingQuantifier::exactly(1));
        }
        _ => {
            let y = b.node("B");
            let z = b.node("C");
            b.quantified_edge(xo, y, "r", CountingQuantifier::at_least(1));
            b.negated_edge(xo, z, "s");
        }
    }
    b.focus(xo);
    b.build().expect("fixed pattern family validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PQMatch-on-runtime ≡ sequential ≡ the oracle for every partition
    /// size, executor thread count and matcher configuration.
    #[test]
    fn pqmatch_equals_sequential_everywhere(
        gspec in graph_spec(),
        kind in 0u8..6,
    ) {
        let graph = build_graph(&gspec);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let oracle = evaluate_reference(&graph, &pattern);
        for match_config in [
            MatchConfig::qmatch(),
            MatchConfig::qmatch_n(),
            MatchConfig::enumerate(),
        ] {
            let sequential = common::engine_match(&graph, &pattern, &match_config);
            prop_assert_eq!(&sequential.matches, &oracle, "sequential {:?}", match_config);
            for n in [1usize, 2, 4] {
                let partition = dpar_with(
                    &graph,
                    &PartitionConfig::new(n, 2),
                    &Runtime::new(2),
                );
                for threads in [1usize, 2, 4] {
                    let runtime = Runtime::new(threads);
                    let parallel = prepared
                        .run(
                            ExecOptions::partitioned_on(
                                partition.fragments(),
                                partition.d(),
                                &runtime,
                            )
                            .with_config(match_config),
                        )
                        .unwrap();
                    prop_assert_eq!(
                        &parallel.matches,
                        &oracle,
                        "n={} threads={} config={:?} hub={} pattern={}",
                        n,
                        threads,
                        match_config,
                        gspec.hub,
                        pattern
                    );
                    let config = ParallelConfig {
                        threads: None,
                        match_config,
                    };
                    let one_call = pqmatch_on(&pattern, &partition, &config, &runtime).unwrap();
                    prop_assert_eq!(&one_call.matches, &oracle);
                }
            }
        }
    }

    /// A guaranteed-skewed instance: the hub graph partitioned across 4
    /// fragments with multi-threaded stealing still matches the oracle.
    #[test]
    fn hub_skew_never_loses_or_duplicates_matches(seed_edges in proptest::collection::vec((0u8..8, 0u8..8, 0u8..2), 0..20)) {
        let spec = GraphSpec {
            node_labels: vec![0, 1, 0, 1, 2, 0, 1, 2],
            edges: seed_edges,
            hub: true,
        };
        let graph = build_graph(&spec);
        for kind in 0u8..6 {
            let pattern = pattern(kind);
            let engine = Engine::new(&graph);
            let prepared = engine.prepare(&pattern).unwrap();
            let oracle = evaluate_reference(&graph, &pattern);
            let partition = dpar_with(&graph, &PartitionConfig::new(4, 2), &Runtime::new(4));
            let runtime = Runtime::new(4);
            let parallel = prepared
                .run(ExecOptions::partitioned_on(
                    partition.fragments(),
                    partition.d(),
                    &runtime,
                ))
                .unwrap();
            prop_assert_eq!(&parallel.matches, &oracle, "kind={}", kind);
        }
    }
}
