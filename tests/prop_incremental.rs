//! Differential contracts of the live match view:
//!
//! * after every update batch, `MatchView::apply` leaves the view equal to
//!   a full `PreparedQuery::execute` on a graph *rebuilt from scratch* with
//!   the post-batch edge set — for every matcher configuration, and for
//!   repairs run at 1 and 4 executor threads,
//! * the accumulated `ViewDelta`s replay the initial match set to the final
//!   one,
//! * metamorphic inverse: streaming a batch sequence and then the exact
//!   inverse (effective ops only, reversed) restores both the original
//!   match set and the original adjacency,
//! * a single-edge update on the pokec-like generator's graph patches two
//!   adjacency rows instead of rebuilding the CSR (counter-pinned),
//! * a small batch on the yago-like generator's graph re-decides under 1 %
//!   of Q4's focus candidates (counter-pinned),
//! * a seeded stream through a `GraphStore` leaves every `UpdateStats`
//!   counter at a pinned value, and a new edge label refreezes exactly once
//!   (counter-pinned).
//!
//! Streams come from the seeded [`UpdateStreamGen`]; the view properties
//! draw the overlay compaction threshold from `{1, 3, 8, default}`, so the
//! view's own overlay compacts mid-stream.

use proptest::prelude::*;

use qgp_testkit::{
    all_configs, compaction_threshold, edge_set, graph_spec, mirror, pattern, rebuild, recompute,
    UpdateStreamGen, PATTERN_KINDS, RS,
};
use quantified_graph_patterns::graph::UpdateStats;
use quantified_graph_patterns::{EdgeOp, Engine, MatchConfig, NodeId, Runtime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential pin: after every batch the view equals a full
    /// recompute on a from-scratch rebuild of the post-batch edge set, for
    /// all four matcher configs; sequential and 4-thread repairs agree; the
    /// accumulated deltas replay to the view's match set.
    #[test]
    fn view_apply_tracks_recompute_on_the_rebuilt_graph(
        gspec in graph_spec(4..10, RS),
        kind in 0u8..PATTERN_KINDS,
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
    ) {
        let mut graph = gspec.build();
        graph.set_compaction_threshold(threshold);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let mut view_seq = prepared.view();
        let mut view_par = prepared.view();
        let rt1 = Runtime::new(1);
        let rt4 = Runtime::new(4);
        let mut gen = UpdateStreamGen::new(&graph, seed);
        let mut edges = edge_set(&graph);
        let mut replayed = view_seq.matches().to_vec();
        prop_assert_eq!(
            &replayed[..],
            &recompute(&graph, &pattern, &MatchConfig::qmatch())[..]
        );

        for batch_size in [1usize, 4, 12, 30] {
            let ops = gen.next_batch(batch_size);
            let before = edges.clone();
            mirror(&mut edges, &ops);
            let d_seq = view_seq.apply_with(&ops, &rt1).unwrap();
            let d_par = view_par.apply_with(&ops, &rt4).unwrap();
            prop_assert_eq!(&d_seq, &d_par, "thread counts disagree");
            // Threshold 1 really does compact the view's own overlay, on
            // every batch with a net change.
            prop_assert!(threshold != 1 || edges == before || d_seq.report.compacted);
            d_seq.apply_to(&mut replayed);

            let rebuilt = rebuild(&graph, &edges);
            prop_assert_eq!(edge_set(&rebuilt), edge_set(view_seq.graph()));
            for config in all_configs() {
                prop_assert_eq!(
                    view_seq.matches(),
                    &recompute(&rebuilt, &pattern, &config)[..],
                    "batch of {}, {:?}", batch_size, config
                );
            }
            prop_assert_eq!(&replayed[..], view_seq.matches(), "delta replay diverged");
        }
    }

    /// Metamorphic inverse: stream a few batches, then apply the exact
    /// inverse (effective ops only, in reverse order) — the original match
    /// set and the original adjacency both come back.
    #[test]
    fn inverse_stream_restores_matches_and_adjacency(
        gspec in graph_spec(4..10, RS),
        kind in 0u8..PATTERN_KINDS,
        seed in 0u64..1_000_000,
        threshold in compaction_threshold(),
    ) {
        let mut graph = gspec.build();
        graph.set_compaction_threshold(threshold);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let mut view = prepared.view();
        let original_matches = view.matches().to_vec();
        let original_edges = edge_set(&graph);

        // Track which ops actually changed the edge set: a counted no-op
        // (duplicate insert, delete-of-absent) has no inverse to apply.
        let mut live = original_edges.clone();
        let mut effective: Vec<EdgeOp> = Vec::new();
        let mut gen = UpdateStreamGen::new(&graph, seed);
        for batch_size in [5usize, 17] {
            let ops = gen.next_batch(batch_size);
            effective.extend(mirror(&mut live, &ops));
            view.apply(&ops).unwrap();
        }
        prop_assert_eq!(edge_set(view.graph()), live.clone());

        let inverse: Vec<EdgeOp> = effective.iter().rev().map(EdgeOp::inverse).collect();
        let delta = view.apply(&inverse).unwrap();
        prop_assert_eq!(delta.report.noop_inserts, 0);
        prop_assert_eq!(delta.report.noop_deletes, 0);
        prop_assert_eq!(view.matches(), &original_matches[..]);
        prop_assert_eq!(edge_set(view.graph()), original_edges);
        prop_assert_eq!(view.graph().edge_count(), graph.edge_count());
    }
}

/// A single-edge update on the pokec-like generator's graph must patch two
/// adjacency rows (the out-row of the source and the in-row of the target)
/// through the delta overlay instead of rebuilding the full CSR — the
/// regression the overlay exists to prevent.  Counter-based on purpose: the
/// counters are scale-invariant, so the graph runs at a debug-test-friendly
/// fraction of the 400k-person benchmark scale without weakening the
/// assertion.
#[test]
fn pokec_like_single_edge_update_patches_rows_without_rebuild() {
    use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};

    let mut graph = pokec_like(&SocialConfig::with_persons(20_000));
    let follow = graph
        .labels()
        .edge_label("follow")
        .expect("pokec-like interns follow");
    let (from, to) = graph
        .nodes()
        .zip(graph.nodes().skip(1))
        .find(|&(f, t)| !graph.has_edge(f, t, follow))
        .expect("some follow edge is absent");

    let before = *graph.update_stats();
    let report = graph
        .apply_edge_ops(&[EdgeOp::insert(from, to, follow)])
        .unwrap();
    let after = *graph.update_stats();

    assert_eq!(report.inserted, 1);
    assert_eq!(report.nodes_patched, 2, "one out-row and one in-row");
    assert!(!report.compacted);
    assert_eq!(
        after.full_rebuilds, before.full_rebuilds,
        "a single-edge update must not rebuild the CSR"
    );
    assert_eq!(after.compactions, before.compactions);
    assert_eq!(after.nodes_patched, before.nodes_patched + 2);
    assert!(graph.has_edge(from, to, follow));
}

/// The store's write path on a seeded stream over a small pokec-like graph:
/// every `UpdateStats` counter is pinned exactly at compaction thresholds 8
/// and the default (only `compactions` differs between them).  Then an op naming a new edge
/// label adds exactly one `full_rebuilds`, and one `compactions` only when
/// updates were pending.  Clock-free: the counters depend only on the seed.
#[test]
fn store_stream_compaction_counters_are_pinned() {
    use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
    use quantified_graph_patterns::GraphStore;

    let base = pokec_like(&SocialConfig::with_persons(300));
    for (threshold, compactions) in [(8, 22), (0, 1)] {
        let mut graph = base.clone();
        graph.set_compaction_threshold(threshold);
        let store = GraphStore::new(graph);
        let mut gen = UpdateStreamGen::new(&base, 7);
        let sizes = [1usize, 4, 9, 30]
            .repeat(10)
            .into_iter()
            .chain([1000, 600, 2]);
        for size in sizes {
            store.apply(&gen.next_batch(size)).unwrap();
        }
        let stats = *store.snapshot().graph().update_stats();
        assert_eq!(
            stats,
            UpdateStats {
                ops_applied: 2042,
                edges_inserted: 1216,
                edges_deleted: 754,
                noop_inserts: 7,
                noop_deletes: 65,
                nodes_patched: 1989,
                compactions,
                full_rebuilds: 0,
            },
            "threshold {threshold}"
        );

        let mut g = store.snapshot().graph().clone();
        for compact_first in [false, true] {
            g.apply_edge_ops(&gen.next_batch(3)).unwrap();
            if compact_first {
                g.compact_updates();
            }
            let pending = g.pending_updates();
            assert_eq!(pending == 0, compact_first, "threshold {threshold}");
            let before = *g.update_stats();
            let label = g
                .labels_mut()
                .intern_edge_label(&format!("fresh{compact_first}"));
            g.apply_edge_ops(&[EdgeOp::insert(NodeId(0), NodeId(1), label)])
                .unwrap();
            let after = *g.update_stats();
            assert_eq!(after.full_rebuilds, before.full_rebuilds + 1);
            assert_eq!(
                after.compactions,
                before.compactions + usize::from(pending > 0)
            );
            assert!(g.has_edge(NodeId(0), NodeId(1), label));
        }
    }
}

/// A batch of 1–10 ops on `in`/`is_a` edges of the yago-like knowledge graph
/// re-decides fewer than 1 % of Q4(2)'s focus candidates, and leaves the view
/// equal to a recompute.  A view's candidates are every `person` (its
/// sessions filter by label only, so they hold for every version).  A
/// repair that re-decided every candidate within `radius(Q)` hops of a
/// changed endpoint would take in every person in the UK (through the `UK`
/// hub) or every professor (through `prof`): 500 of 5,000 for one op, so
/// this fails on a return to d-balls.  Counter-based like the pokec test above:
/// `ViewDelta::rechecked` does not depend on the clock.
#[test]
fn yago_like_batches_redecide_under_one_percent_of_q4_candidates() {
    use quantified_graph_patterns::core::pattern::library;
    use quantified_graph_patterns::datasets::{yago_like, KnowledgeConfig};

    let graph = yago_like(&KnowledgeConfig::with_persons(5_000));
    let pattern = library::q4_uk_professors(2);
    let labels = graph.labels();
    let node = |name: &str| graph.nodes_with_label(labels.node_label(name).unwrap())[0];
    let (uk, prof) = (node("UK"), node("prof"));
    let (is_in, is_a) = (
        labels.edge_label("in").unwrap(),
        labels.edge_label("is_a").unwrap(),
    );
    let persons = graph.nodes_with_label(labels.node_label("person").unwrap());
    let candidates = persons.len();

    let mut view = Engine::new(&graph).prepare(&pattern).unwrap().view();
    let mut edges = edge_set(&graph);
    let mut stride = persons.iter().step_by(37);
    for batch_size in [1usize, 4, 10] {
        // Toggle `person -in-> UK` and `person -is_a-> prof` edges of
        // persons spread across the graph.
        let ops: Vec<EdgeOp> = (0..batch_size)
            .map(|i| {
                let p = *stride.next().expect("enough persons");
                let (to, label) = if i % 2 == 0 {
                    (uk, is_in)
                } else {
                    (prof, is_a)
                };
                if edges.remove(&(p, to, label)) {
                    EdgeOp::delete(p, to, label)
                } else {
                    edges.insert((p, to, label));
                    EdgeOp::insert(p, to, label)
                }
            })
            .collect();
        let delta = view.apply(&ops).unwrap();
        assert!(
            delta.rechecked * 100 < candidates,
            "batch of {batch_size}: re-decided {} of {candidates} focus candidates",
            delta.rechecked
        );
        let rebuilt = rebuild(&graph, &edges);
        assert_eq!(
            view.matches(),
            &recompute(&rebuilt, &pattern, &MatchConfig::qmatch())[..],
            "batch of {batch_size}"
        );
    }
}
