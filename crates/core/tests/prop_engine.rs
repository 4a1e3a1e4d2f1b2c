//! Property-based contracts of the prepared-query engine:
//!
//! * engine output ≡ the brute-force reference oracle, for every matcher
//!   configuration × execution mode × executor thread count,
//! * `limit(k)` yields a prefix of the unlimited answer while verifying
//!   strictly fewer candidates (genuine early termination),
//! * cancellation mid-run stops the execution without poisoning the
//!   prepared query, the session cache, or the runtime.

use proptest::prelude::*;

mod common;

use qgp_core::engine::{CancelToken, Engine, ExecOptions};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_graph::{Fragment, FragmentId, Graph, GraphBuilder, NodeId};
use qgp_runtime::Runtime;

const NODE_LABELS: &[&str] = &["A", "B", "C"];
const EDGE_LABELS: &[&str] = &["r", "s"];

#[derive(Debug, Clone)]
struct GraphSpec {
    node_labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (4usize..12).prop_flat_map(|n| {
        let nodes = proptest::collection::vec(0u8..NODE_LABELS.len() as u8, n);
        let edges = proptest::collection::vec(
            (0u8..n as u8, 0u8..n as u8, 0u8..EDGE_LABELS.len() as u8),
            0..(3 * n),
        );
        (nodes, edges).prop_map(|(node_labels, edges)| GraphSpec { node_labels, edges })
    })
}

fn build_graph(spec: &GraphSpec) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = spec
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
    b.build()
}

/// A fixed family of patterns covering every quantifier class.
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

fn all_configs() -> [MatchConfig; 4] {
    [
        MatchConfig::qmatch(),
        MatchConfig::qmatch_n(),
        MatchConfig::qmatch_with_simulation(),
        MatchConfig::enumerate(),
    ]
}

/// One single-fragment partition covering the whole graph — trivially d-hop
/// preserving for any d, so the engine's partitioned mode can be exercised
/// without depending on the partitioning crate.
fn whole_graph_fragment(graph: &Graph) -> Vec<Fragment> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    vec![Fragment::build(
        FragmentId(0),
        graph,
        &nodes,
        nodes.iter().copied(),
    )]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine output ≡ the reference oracle for every matcher
    /// configuration, execution mode, and executor thread count.
    #[test]
    fn engine_equals_reference_across_configs_modes_and_threads(
        gspec in graph_spec(),
        kind in 0u8..6,
    ) {
        let graph = build_graph(&gspec);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let fragments = whole_graph_fragment(&graph);
        let oracle = evaluate_reference(&graph, &pattern);
        for config in all_configs() {
            let one_shot = common::engine_match(&graph, &pattern, &config);
            prop_assert_eq!(&one_shot.matches, &oracle, "one-shot, {:?}", config);
            let seq = prepared
                .run(ExecOptions::sequential().with_config(config))
                .unwrap();
            prop_assert_eq!(&seq.matches, &oracle, "sequential, {:?}", config);
            for threads in [1usize, 2, 4] {
                let par = prepared
                    .run(ExecOptions::parallel_on(&Runtime::new(threads)).with_config(config))
                    .unwrap();
                prop_assert_eq!(
                    &par.matches, &oracle,
                    "parallel({} threads), {:?}", threads, config
                );
                let runtime = Runtime::new(threads);
                let part = prepared
                    .run(
                        ExecOptions::partitioned_on(&fragments, pattern.radius(), &runtime)
                            .with_config(config),
                    )
                    .unwrap();
                prop_assert_eq!(
                    &part.matches, &oracle,
                    "partitioned({} threads), {:?}", threads, config
                );
            }
        }
    }

    /// The streaming iterator yields the same answers as the collected run,
    /// in the same order, and a restriction yields exactly the oracle's
    /// answers inside it.
    #[test]
    fn streaming_and_restriction_match_the_batch_answer(
        gspec in graph_spec(),
        kind in 0u8..6,
        take in 0usize..8,
    ) {
        let graph = build_graph(&gspec);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();
        let streamed: Vec<NodeId> = prepared
            .execute(ExecOptions::sequential())
            .unwrap()
            .collect();
        prop_assert_eq!(&streamed, &full.matches);

        // Restriction: an arbitrary prefix of the node space.
        let restriction: Vec<NodeId> = graph.nodes().take(take).collect();
        let restricted = prepared
            .run(ExecOptions::sequential().restrict_to(&restriction))
            .unwrap();
        let mut oracle = evaluate_reference(&graph, &pattern);
        prop_assert_eq!(&full.matches, &oracle);
        oracle.retain(|v| restriction.contains(v));
        prop_assert_eq!(&restricted.matches, &oracle);
    }

    /// `limit(k)` yields exactly the k smallest members of the full answer
    /// (a prefix), verifying strictly fewer candidates whenever it stops
    /// early; in parallel mode it yields exactly min(k, |answer|) members
    /// of the answer.
    #[test]
    fn limit_yields_prefix_with_strictly_less_work(
        gspec in graph_spec(),
        kind in 0u8..6,
        k in 1usize..6,
    ) {
        let graph = build_graph(&gspec);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();
        let limited = prepared
            .run(ExecOptions::sequential().limit(k))
            .unwrap();
        let expect = &full.matches[..full.matches.len().min(k)];
        prop_assert_eq!(&limited.matches[..], expect);
        if k < full.matches.len() {
            // Stopping at the k-th accepted answer must skip at least the
            // remaining accepted candidates.
            prop_assert!(
                limited.stats.focus_candidates < full.stats.focus_candidates,
                "limit({}) decided {} candidates, unlimited decided {}",
                k,
                limited.stats.focus_candidates,
                full.stats.focus_candidates
            );
        }

        // Parallel limit: exactly min(k, |answer|) members of the answer.
        let par = prepared
            .run(ExecOptions::parallel_on(&Runtime::new(2)).limit(k))
            .unwrap();
        prop_assert_eq!(par.matches.len(), full.matches.len().min(k));
        for v in &par.matches {
            prop_assert!(full.matches.contains(v));
        }
    }

    /// Cancellation stops executions early (partial answers, flagged as
    /// cancelled) and leaves every component reusable: the same prepared
    /// query and the same runtime produce the complete answer afterwards.
    #[test]
    fn cancellation_leaves_no_poisoned_state(gspec in graph_spec(), kind in 0u8..6) {
        let graph = build_graph(&gspec);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();

        // Pre-cancelled token: nothing is decided, in any mode.
        let dead = CancelToken::new();
        dead.cancel();
        let seq = prepared
            .execute(ExecOptions::sequential().cancel_with(dead.clone()))
            .unwrap();
        prop_assert!(seq.cancelled());
        let seq = seq.into_answer();
        prop_assert!(seq.matches.is_empty());
        prop_assert_eq!(seq.stats.focus_candidates, 0);
        let runtime = Runtime::new(2);
        let par = prepared
            .run(
                ExecOptions::parallel_on(&runtime)
                    .cancel_with(dead.clone()),
            )
            .unwrap();
        prop_assert!(par.matches.is_empty());

        // Mid-stream cancellation: take one answer, cancel, and the stream
        // ends without deciding the rest.
        let token = CancelToken::new();
        let mut stream = prepared
            .execute(ExecOptions::sequential().cancel_with(token.clone()))
            .unwrap();
        let first = stream.next();
        token.cancel();
        prop_assert_eq!(stream.next(), None);
        if let Some(v) = first {
            prop_assert_eq!(v, full.matches[0]);
        }
        drop(stream);

        // No poisoned state: the same prepared query (and the same runtime)
        // still produce the complete answer.
        let again = prepared.run(ExecOptions::sequential()).unwrap();
        prop_assert_eq!(&again.matches, &full.matches);
        let again = prepared
            .run(ExecOptions::parallel_on(&runtime))
            .unwrap();
        prop_assert_eq!(&again.matches, &full.matches);
    }
}

#[test]
fn second_execution_reuses_the_cached_session() {
    let mut b = GraphBuilder::new();
    let ann = b.add_node("A");
    let bob = b.add_node("B");
    b.add_edge(ann, bob, "r").unwrap();
    let graph = b.build();
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern(0)).unwrap();
    let first = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(first.stats.sessions_built, 1, "first execution builds");
    let second = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(second.stats.sessions_built, 0, "second execution reuses");
    assert_eq!(first.matches, second.matches);
    // A different config builds its own session, once.
    let third = prepared
        .run(ExecOptions::sequential().with_config(MatchConfig::enumerate()))
        .unwrap();
    assert_eq!(third.stats.sessions_built, 1);
}

#[test]
fn deadline_tokens_cancel_by_themselves() {
    let mut b = GraphBuilder::new();
    let ann = b.add_node("A");
    let bob = b.add_node("B");
    b.add_edge(ann, bob, "r").unwrap();
    let graph = b.build();
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern(0)).unwrap();
    let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
    let m = prepared
        .execute(ExecOptions::sequential().cancel_with(expired))
        .unwrap();
    assert!(m.cancelled());
    assert!(m.into_answer().matches.is_empty());
    // And the prepared query still answers afterwards.
    let full = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(full.matches, vec![ann]);
}

#[test]
fn overlapping_fragment_coverage_does_not_short_the_limit() {
    // Two fragments that both cover the whole graph: every answer exists
    // twice in the task space.  Each candidate must be scheduled once, so
    // limit(k) still returns exactly min(k, |answer|) distinct answers
    // (duplicate accepts used to consume limit slots that dedup then took
    // back).
    let mut b = GraphBuilder::new();
    let people: Vec<NodeId> = (0..6).map(|_| b.add_node("A")).collect();
    let target = b.add_node("B");
    for &p in &people {
        b.add_edge(p, target, "r").unwrap();
    }
    let graph = b.build();
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let fragments = vec![
        Fragment::build(FragmentId(0), &graph, &nodes, nodes.iter().copied()),
        Fragment::build(FragmentId(1), &graph, &nodes, nodes.iter().copied()),
    ];
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern(0)).unwrap();
    let full = prepared
        .run(ExecOptions::partitioned_on(
            &fragments,
            2,
            Runtime::global(),
        ))
        .unwrap();
    assert_eq!(full.matches.len(), people.len());
    for k in [1usize, 3, 5, 6, 9] {
        let limited = prepared
            .run(ExecOptions::partitioned_on(&fragments, 2, Runtime::global()).limit(k))
            .unwrap();
        assert_eq!(
            limited.matches.len(),
            k.min(people.len()),
            "limit({k}) over overlapping coverage"
        );
    }
}

#[test]
fn partitioned_mode_rejects_bad_partitions() {
    let graph = build_graph(&GraphSpec {
        node_labels: vec![0, 1, 2],
        edges: vec![(0, 1, 0), (1, 2, 1)],
    });
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern(2)).unwrap(); // radius 2
    let fragments = whole_graph_fragment(&graph);
    // d smaller than the radius.
    let err = prepared
        .execute(ExecOptions::partitioned_on(
            &fragments,
            1,
            Runtime::global(),
        ))
        .unwrap_err();
    assert!(matches!(
        err,
        qgp_core::MatchError::RadiusExceedsPartition {
            radius: 2,
            partition_d: 1
        }
    ));
    // Empty fragment list.
    let err = prepared
        .execute(ExecOptions::partitioned_on(&[], 2, Runtime::global()))
        .unwrap_err();
    assert!(matches!(err, qgp_core::MatchError::EmptyPartition));
}
