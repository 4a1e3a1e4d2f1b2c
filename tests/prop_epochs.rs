//! Differential contracts of the epoch-snapshot store:
//!
//! * a reader pinned to epoch `N` gets, on every row of the surface table,
//!   the brute-force oracle's answer on a graph *rebuilt from scratch* with
//!   epoch `N`'s edge set, no matter how many epochs the writer has
//!   published since,
//! * `MatchView::advance` (repairing around the store's inter-epoch log)
//!   leaves the view equal to the oracle on the latest snapshot, pinning
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

use qgp_testkit::{
    compaction_threshold, edge_set, graph_spec, mirror, pattern, rebuild, surface_table, Edge,
    UpdateStreamGen, PATTERN_KINDS, RS,
};
use quantified_graph_patterns::core::matching::reference::evaluate_reference;
use quantified_graph_patterns::{
    CountMode, Engine, ExecOptions, GraphSnapshot, GraphStore, NodeId, Pattern, QueryRegistry,
    Runtime, ServeRequest,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pin a snapshot after every published epoch, let the writer race to
    /// the end, then evaluate every pinned epoch: each must agree with the
    /// oracle on a from-scratch rebuild of that epoch's edge set, on every
    /// row of the surface table.
    #[test]
    fn pinned_epochs_answer_like_their_rebuilt_graphs(
        gspec in graph_spec(4..10, RS),
        kind in 0u8..PATTERN_KINDS,
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
    ) {
        let mut graph = gspec.build();
        graph.set_compaction_threshold(threshold);
        let pattern = pattern(kind);
        let store = GraphStore::new(graph.clone());
        let mut gen = UpdateStreamGen::new(&graph, seed);

        // The writer publishes K epochs; after each publish we pin the
        // snapshot and mirror the edge set it must answer for.
        let mut pinned: Vec<(Arc<GraphSnapshot>, BTreeSet<Edge>)> =
            vec![(store.snapshot(), edge_set(&graph))];
        let mut edges = edge_set(&graph);
        for batch_size in [1usize, 4, 12, 30] {
            let ops = gen.next_batch(batch_size);
            let before = edges.clone();
            mirror(&mut edges, &ops);
            let (report, _) = store.apply(&ops).unwrap();
            // Threshold 1 really does compact the writer's overlay under
            // the pinned readers, on every batch with a net change.
            prop_assert!(threshold != 1 || edges == before || report.compacted);
            pinned.push((store.snapshot(), edges.clone()));
        }
        prop_assert_eq!(store.epoch(), 4);

        // Snapshots share the frozen storage lineage: pinning never copied
        // the CSR (the final compaction state may differ per epoch, but
        // each snapshot's graph equals its mirror exactly).  Every surface
        // answers each pinned epoch like the oracle on its rebuild.
        let prepared = Engine::on(Arc::clone(&pinned[0].0))
            .prepare(&pattern)
            .unwrap();
        let runtime = Runtime::new(2);
        for (epoch, (snapshot, edges)) in pinned.iter().enumerate() {
            prop_assert_eq!(snapshot.epoch(), epoch as u64);
            prop_assert_eq!(&edge_set(snapshot.graph()), edges);
            let oracle = evaluate_reference(&rebuild(&graph, edges), &pattern);
            for surface in surface_table() {
                let got = (surface.answer)(&prepared, snapshot, &runtime).unwrap();
                prop_assert_eq!(&got, &oracle, "epoch {}, {}", epoch, surface.name);
            }
        }

        // Evaluation order must not matter: epoch 0 re-answers identically
        // after the head epochs were served from the same prepared query.
        let (zero, edges) = &pinned[0];
        prop_assert_eq!(
            prepared
                .run_on(zero, ExecOptions::sequential())
                .unwrap()
                .matches,
            evaluate_reference(&rebuild(&graph, edges), &pattern)
        );
    }

    /// `MatchView::advance` replays whatever the writer published since the
    /// view's anchor and lands exactly on the oracle's answer for the head
    /// snapshot, which every surface gives too; interleaving writer batches
    /// between advances keeps the contract.
    #[test]
    fn view_advance_tracks_the_store_head(
        gspec in graph_spec(4..10, RS),
        kind in 0u8..PATTERN_KINDS,
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
    ) {
        let mut graph = gspec.build();
        graph.set_compaction_threshold(threshold);
        let pattern = pattern(kind);
        let store = GraphStore::new(graph.clone());
        let mut gen = UpdateStreamGen::new(&graph, seed);
        let prepared = Engine::from_store(&store).prepare(&pattern).unwrap();
        let mut view = prepared.view();
        let mut replayed = view.matches().to_vec();
        let runtime = Runtime::new(2);

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
            let oracle = evaluate_reference(head.graph(), &pattern);
            prop_assert_eq!(view.matches(), &oracle[..], "round {}", round);
            for surface in surface_table() {
                let got = (surface.answer)(&prepared, &head, &runtime).unwrap();
                prop_assert_eq!(&got, &oracle, "round {}, {}", round, surface.name);
            }
            prop_assert_eq!(&replayed[..], view.matches(), "delta replay diverged");
        }

        // Nothing new published: advance is a no-op.
        let delta = view.advance(&store).unwrap();
        prop_assert!(delta.is_empty());
        prop_assert_eq!(view.anchor_epoch(), store.epoch());
    }

    /// Serving under updates: every pattern kind is registered once;
    /// after every published batch a mixed request batch — every query,
    /// rotating through plain / `limit(k)` / `count`, plus a second request
    /// for one of them — is served on the head snapshot, alternately on one
    /// thread and on four.  Every outcome must equal the brute-force oracle
    /// on a from-scratch rebuild of the mirrored edge set: a limited request
    /// the first `k` of the sorted answer, a counting request the same foci.
    #[test]
    fn served_answers_match_the_oracle_under_an_update_stream(
        gspec in graph_spec(4..10, RS),
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
        k in 0usize..4,
    ) {
        let mut graph = gspec.build();
        graph.set_compaction_threshold(threshold);
        let store = GraphStore::new(graph.clone());
        let engine = Engine::from_store(&store);
        let patterns: Vec<Pattern> = (0..PATTERN_KINDS).map(pattern).collect();
        let mut registry = QueryRegistry::new();
        let ids: Vec<_> = patterns
            .iter()
            .map(|p| registry.register(engine.prepare(p).unwrap()))
            .collect();
        let runtimes = [Runtime::new(1), Runtime::new(4)];
        let mut gen = UpdateStreamGen::new(&graph, seed);
        let mut edges = edge_set(&graph);

        for (round, batch_size) in [1usize, 4, 12, 30].into_iter().enumerate() {
            let ops = gen.next_batch(batch_size);
            mirror(&mut edges, &ops);
            store.apply(&ops).unwrap();

            // (pattern index, request kind): kind 0 plain, 1 limit(k), 2 count.
            let kinds = patterns.len();
            let mut plan: Vec<(usize, usize)> = (0..kinds).map(|q| (q, (q + round) % 3)).collect();
            plan.push((round % kinds, 0));
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

            let rebuilt = rebuild(&graph, &edges);
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
