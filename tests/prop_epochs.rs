//! Differential contracts of the epoch-snapshot store:
//!
//! * a reader pinned to epoch `N` gets answers byte-identical to a full
//!   recompute on a graph *rebuilt from scratch* with epoch `N`'s edge set,
//!   no matter how many epochs the writer has published since — for every
//!   matcher configuration,
//! * `MatchView::advance` (repairing around the store's inter-epoch log)
//!   leaves the view equal to a recompute on the latest snapshot, pinning
//!   that very snapshot, with the view's anchor tracking the store head,
//! * `QueryRegistry::serve` on each freshly published epoch answers every
//!   request of a mixed batch (plain, `limit(k)`, `count`, two requests for
//!   one query) like the brute-force oracle on a from-scratch rebuild,
//! * snapshots COW-share the frozen storage of the graph they were
//!   published from — pinning is O(1), not a copy.
//!
//! Streams come from the seeded [`UpdateStreamGen`], and every property
//! draws the overlay compaction threshold from `{1, 3, 8, default}`, so the
//! store's working graph compacts mid-stream.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use qgp_bench::{StreamConfig, UpdateStreamGen};
use quantified_graph_patterns::core::matching::reference::evaluate_reference;
use quantified_graph_patterns::graph::LabelId;
use quantified_graph_patterns::{
    CountMode, CountingQuantifier, EdgeOp, Engine, ExecOptions, Graph, GraphBuilder,
    GraphSnapshot, GraphStore, MatchConfig, NodeId, Pattern, PatternBuilder, QueryRegistry,
    Runtime, ServeRequest,
};

const NODE_LABELS: &[&str] = &["A", "B", "C"];
const EDGE_LABELS: &[&str] = &["r", "s"];

#[derive(Debug, Clone)]
struct GraphSpec {
    node_labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (4usize..10).prop_flat_map(|n| {
        let nodes = proptest::collection::vec(0u8..NODE_LABELS.len() as u8, n);
        let edges = proptest::collection::vec(
            (0u8..n as u8, 0u8..n as u8, 0u8..EDGE_LABELS.len() as u8),
            0..(3 * n),
        );
        (nodes, edges).prop_map(|(node_labels, edges)| GraphSpec { node_labels, edges })
    })
}

/// Overlay compaction thresholds: the tiny ones make every stream below
/// cross the threshold several times; `0` is the default (1024), which
/// these streams never reach.
fn compaction_threshold() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 3, 8, 0][i])
}

fn build_graph(spec: &GraphSpec) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = spec
        .node_labels
        .iter()
        .map(|&l| b.add_node(NODE_LABELS[l as usize]))
        .collect();
    for (i, name) in EDGE_LABELS.iter().enumerate() {
        let from = ids[i % ids.len()];
        let to = ids[(i + 1) % ids.len()];
        let _ = b.add_edge_dedup(from, to, name);
    }
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

/// The same fixed pattern family `prop_incremental` pins, covering every
/// quantifier class including negation.
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

type Edge = (NodeId, NodeId, LabelId);

fn edge_set(graph: &Graph) -> BTreeSet<Edge> {
    graph.edges().map(|e| (e.from, e.to, e.label)).collect()
}

/// From-scratch `GraphBuilder` rebuild of `edges` over `spec`'s nodes — the
/// first-principles reference a pinned snapshot is compared against.  It
/// shares nothing with the store, not even the label table (`template` only
/// names the mirrored edge labels).
fn rebuild(spec: &GraphSpec, template: &Graph, edges: &BTreeSet<Edge>) -> Graph {
    let mut b = GraphBuilder::new();
    for &l in &spec.node_labels {
        b.add_node(NODE_LABELS[l as usize]);
    }
    for &(from, to, label) in edges {
        let name = template
            .labels()
            .edge_label_name(label)
            .expect("mirrored labels come from the template");
        b.add_edge(from, to, name).expect("mirrored edges are distinct");
    }
    b.build()
}

/// Applies `ops` to the mirrored edge set.
fn apply_to_mirror(edges: &mut BTreeSet<Edge>, ops: &[EdgeOp]) {
    for op in ops {
        let key = (op.from(), op.to(), op.label());
        if op.is_insert() {
            edges.insert(key);
        } else {
            edges.remove(&key);
        }
    }
}

fn recompute(graph: &Graph, pattern: &Pattern, config: &MatchConfig) -> Vec<NodeId> {
    Engine::new(graph)
        .prepare(pattern)
        .expect("pattern validates")
        .run(ExecOptions::sequential().with_config(*config))
        .expect("sequential runs succeed")
        .matches
}

fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        seed,
        ..StreamConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pin a snapshot after every published epoch, let the writer race to
    /// the end, then evaluate every pinned epoch: each must agree with a
    /// full recompute on a from-scratch rebuild of that epoch's edge set,
    /// for all four matcher configs.
    #[test]
    fn pinned_epochs_answer_like_their_rebuilt_graphs(
        gspec in graph_spec(),
        kind in 0u8..6,
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
    ) {
        let mut graph = build_graph(&gspec);
        graph.set_compaction_threshold(threshold);
        let pattern = pattern(kind);
        let store = GraphStore::new(graph.clone());
        let mut gen = UpdateStreamGen::new(&graph, stream_config(seed));

        // The writer publishes K epochs; after each publish we pin the
        // snapshot and mirror the edge set it must answer for.
        let mut pinned: Vec<(Arc<GraphSnapshot>, BTreeSet<Edge>)> =
            vec![(store.snapshot(), edge_set(&graph))];
        let mut edges = edge_set(&graph);
        for batch_size in [1usize, 4, 12, 30] {
            let ops = gen.next_batch(batch_size);
            let before = edges.clone();
            apply_to_mirror(&mut edges, &ops);
            let (report, _) = store.apply(&ops).unwrap();
            // Threshold 1 really does compact the writer's overlay under
            // the pinned readers, on every batch with a net change.
            prop_assert!(threshold != 1 || edges == before || report.compacted);
            pinned.push((store.snapshot(), edges.clone()));
        }
        prop_assert_eq!(store.epoch(), 4);

        // Snapshots share the frozen storage lineage: pinning never copied
        // the CSR (the final compaction state may differ per epoch, but
        // each snapshot's graph equals its mirror exactly).
        let prepared = Engine::on(Arc::clone(&pinned[0].0))
            .prepare(&pattern)
            .unwrap();
        for (epoch, (snapshot, mirror)) in pinned.iter().enumerate() {
            prop_assert_eq!(snapshot.epoch(), epoch as u64);
            prop_assert_eq!(edge_set(snapshot.graph()), mirror.clone());
            let rebuilt = rebuild(&gspec, &graph, mirror);
            for config in all_configs() {
                let got = prepared
                    .run_on(snapshot, ExecOptions::sequential().with_config(config))
                    .unwrap()
                    .matches;
                prop_assert_eq!(
                    &got[..],
                    &recompute(&rebuilt, &pattern, &config)[..],
                    "epoch {}, {:?}", epoch, config
                );
            }
        }

        // Evaluation order must not matter: epoch 0 re-answers identically
        // after the head epochs were served from the same prepared query.
        let (zero, mirror) = &pinned[0];
        prop_assert_eq!(
            prepared
                .run_on(zero, ExecOptions::sequential())
                .unwrap()
                .matches,
            recompute(&rebuild(&gspec, &graph, mirror), &pattern, &MatchConfig::qmatch())
        );
    }

    /// `MatchView::advance` replays whatever the writer published since the
    /// view's anchor and lands exactly on a recompute of the head snapshot;
    /// interleaving writer batches between advances keeps the contract.
    #[test]
    fn view_advance_tracks_the_store_head(
        gspec in graph_spec(),
        kind in 0u8..6,
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
    ) {
        let mut graph = build_graph(&gspec);
        graph.set_compaction_threshold(threshold);
        let pattern = pattern(kind);
        let store = GraphStore::new(graph.clone());
        let mut gen = UpdateStreamGen::new(&graph, stream_config(seed));
        let mut view = Engine::from_store(&store)
            .prepare(&pattern)
            .unwrap()
            .view();
        let mut replayed = view.matches().to_vec();

        // Two rounds: multiple batches published per advance, so a single
        // advance replays a multi-epoch suffix of the log.
        for round in 0..2u32 {
            for batch_size in [3usize, 9] {
                let ops = gen.next_batch(batch_size);
                store.apply(&ops).unwrap();
            }
            let delta = view.advance(&store).unwrap();
            delta.apply_to(&mut replayed);
            prop_assert_eq!(view.anchor_epoch(), store.epoch());

            let head = store.snapshot();
            prop_assert!(Arc::ptr_eq(view.snapshot(), &head), "the view pins the head itself");
            prop_assert_eq!(edge_set(view.graph()), edge_set(head.graph()));
            for config in all_configs() {
                prop_assert_eq!(
                    view.matches(),
                    &recompute(head.graph(), &pattern, &config)[..],
                    "round {}, {:?}", round, config
                );
            }
            prop_assert_eq!(&replayed[..], view.matches(), "delta replay diverged");
        }

        // Nothing new published: advance is a no-op.
        let delta = view.advance(&store).unwrap();
        prop_assert!(delta.is_empty());
        prop_assert_eq!(view.anchor_epoch(), store.epoch());
    }

    /// Serving under updates: all six pattern kinds are registered once;
    /// after every published batch a mixed request batch — every query,
    /// rotating through plain / `limit(k)` / `count`, plus a second request
    /// for one of them — is served on the head snapshot, alternately on one
    /// thread and on four.  Every outcome must equal the brute-force oracle
    /// on a from-scratch rebuild of the mirrored edge set: a limited request
    /// the first `k` of the sorted answer, a counting request the same foci.
    #[test]
    fn served_answers_match_the_oracle_under_an_update_stream(
        gspec in graph_spec(),
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
        k in 0usize..4,
    ) {
        let mut graph = build_graph(&gspec);
        graph.set_compaction_threshold(threshold);
        let store = GraphStore::new(graph.clone());
        let engine = Engine::from_store(&store);
        let patterns: Vec<Pattern> = (0..6).map(pattern).collect();
        let mut registry = QueryRegistry::new();
        let ids: Vec<_> = patterns
            .iter()
            .map(|p| registry.register(engine.prepare(p).unwrap()))
            .collect();
        let runtimes = [Runtime::new(1), Runtime::new(4)];
        let mut gen = UpdateStreamGen::new(&graph, stream_config(seed));
        let mut edges = edge_set(&graph);

        for (round, batch_size) in [1usize, 4, 12, 30].into_iter().enumerate() {
            let ops = gen.next_batch(batch_size);
            apply_to_mirror(&mut edges, &ops);
            store.apply(&ops).unwrap();

            // (pattern index, request kind): kind 0 plain, 1 limit(k), 2 count.
            let mut plan: Vec<(usize, usize)> = (0..6).map(|q| (q, (q + round) % 3)).collect();
            plan.push((round % 6, 0));
            let batch: Vec<ServeRequest> = plan
                .iter()
                .map(|&(q, kind)| match kind {
                    0 => ServeRequest::new(ids[q]),
                    1 => ServeRequest::new(ids[q]).limit(k),
                    _ => ServeRequest::new(ids[q]).count(CountMode::ThresholdOnly),
                })
                .collect();
            let outcomes = registry.serve(&store.snapshot(), &batch, &runtimes[round % 2]);
            prop_assert_eq!(outcomes.len(), batch.len());

            let rebuilt = rebuild(&gspec, &graph, &edges);
            let oracles: Vec<Vec<NodeId>> =
                patterns.iter().map(|p| evaluate_reference(&rebuilt, p)).collect();
            for (&(q, kind), outcome) in plan.iter().zip(&outcomes) {
                prop_assert_eq!(outcome.query, ids[q]);
                let answer = outcome.result.as_ref().expect("fault-free serving succeeds");
                let oracle = &oracles[q];
                let expected = if kind == 1 { &oracle[..oracle.len().min(k)] } else { &oracle[..] };
                prop_assert_eq!(
                    &answer.matches[..], expected,
                    "round {}, pattern {}, request kind {}", round, q, kind
                );
            }
        }
    }
}
