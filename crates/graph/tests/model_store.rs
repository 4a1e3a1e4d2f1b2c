//! Model checks for the [`GraphStore`] epoch publish protocol: the
//! Arc-swap install plus the epoch-counter store must let a reader who
//! observed epoch `n` see everything the writer built for epoch `n`.
//!
//! Run with `cargo test -p qgp-graph --features model --test model_store`.
//! The CI mutation leg additionally sets `RUSTFLAGS="--cfg qgp_mutate"`,
//! which weakens [`publish_ordering`] from `Release` to `Relaxed`; the
//! publication test below then *requires* the checker to report the race —
//! the checker's own liveness check.

#![cfg(feature = "model")]

use qgp_check::sync::AtomicU64;
use qgp_check::{explore, scope, Config, RaceCell};
use qgp_graph::{publish_ordering, EdgeOp, Graph, GraphBuilder, GraphStore, LabelId, NodeId};
use std::sync::atomic::Ordering;

/// Two people, `ann -follow-> bob`, with the overlay compaction threshold
/// `threshold` (`0` for the default).
fn two_people(threshold: usize) -> (Graph, NodeId, NodeId, LabelId) {
    let mut b = GraphBuilder::new();
    let ann = b.add_node("person");
    let bob = b.add_node("person");
    b.add_edge(ann, bob, "follow").unwrap();
    let mut graph = b.build();
    graph.set_compaction_threshold(threshold);
    let follow = graph.labels().edge_label("follow").unwrap();
    (graph, ann, bob, follow)
}

/// The edge set of a graph, sorted.
fn edges(graph: &Graph) -> Vec<(NodeId, NodeId, LabelId)> {
    let mut edges: Vec<_> = graph.edges().map(|e| (e.from, e.to, e.label)).collect();
    edges.sort_unstable();
    edges
}

/// The publish edge itself, isolated to its two memory accesses: the
/// writer fills the snapshot payload *before* storing the epoch counter
/// with [`publish_ordering`]; a reader who Acquire-loads the new epoch
/// must see the payload.  With the real `Release` store this holds on
/// every interleaving; under `--cfg qgp_mutate` (`Relaxed`) the epoch load
/// no longer synchronizes with the payload write and the checker must
/// flag the race.
#[test]
fn epoch_store_publishes_the_snapshot_built_before_it() {
    let report = explore(&Config::exhaustive(), || {
        let payload = RaceCell::named("snapshot-payload", 0u32);
        let epoch = AtomicU64::new(0);
        scope(|s| {
            let writer = s.spawn(|| {
                payload.write(7);
                epoch.store(1, publish_ordering());
            });
            let reader = s.spawn(|| {
                if epoch.load(Ordering::Acquire) == 1 {
                    assert_eq!(payload.read(), 7, "observed epoch implies its snapshot");
                }
            });
            writer.join().expect("writer");
            reader.join().expect("reader");
        });
    });
    #[cfg(not(qgp_mutate))]
    {
        report.expect_ok("epoch_store_publishes_the_snapshot_built_before_it");
        assert!(
            report.complete,
            "two-access protocol must be fully enumerated"
        );
        assert!(
            report.executions > 1,
            "publish racing the load must branch; got {} executions",
            report.executions
        );
    }
    #[cfg(qgp_mutate)]
    report.expect_race("epoch_store_publishes_the_snapshot_built_before_it (mutated)");
}

/// The full store under the model scheduler: a writer publishes one epoch
/// while a reader pins snapshots.  On every interleaving the reader must
/// get a self-consistent snapshot — epoch 0 without the edge or epoch 1
/// with it, never a torn mix — and the store's head must land on epoch 1.
/// (The snapshot handoff rides the head mutex, so this invariant holds
/// even under the mutated epoch ordering; the protocol's Release edge is
/// what the test above pins.)
#[test]
fn readers_pin_consistent_epochs_while_the_writer_publishes() {
    let report = explore(&Config::exhaustive(), || {
        let mut b = GraphBuilder::new();
        let ann = b.add_node("person");
        let bob = b.add_node("person");
        b.add_edge(ann, bob, "follow").unwrap();
        let graph = b.build();
        let follow = graph.labels().edge_label("follow").unwrap();
        let store = GraphStore::new(graph);
        scope(|s| {
            let writer = s.spawn(|| {
                store.apply(&[EdgeOp::delete(ann, bob, follow)]).unwrap();
            });
            let reader = s.spawn(|| {
                let snap = store.snapshot();
                match snap.epoch() {
                    0 => assert!(snap.has_edge(ann, bob, follow), "epoch 0 keeps the edge"),
                    1 => assert!(!snap.has_edge(ann, bob, follow), "epoch 1 saw the delete"),
                    e => panic!("impossible epoch {e}"),
                }
            });
            writer.join().expect("writer");
            reader.join().expect("reader");
        });
        assert_eq!(store.epoch(), 1);
        assert!(!store.snapshot().has_edge(ann, bob, follow));
    });
    report.expect_ok("readers_pin_consistent_epochs_while_the_writer_publishes");
    assert!(report.complete);
    assert!(
        report.executions > 1,
        "apply racing snapshot must branch; got {} executions",
        report.executions
    );
}

/// `replay_from` racing one publish: on every interleaving the ops and the
/// snapshot it returns are an exact pair — the snapshot's epoch counts the
/// replayed batch, and its edge set is epoch 0's with the ops applied.
/// This is the pair `MatchView::advance` repairs between.
#[test]
fn replay_pairs_its_ops_with_the_snapshot_they_reach() {
    let report = explore(&Config::exhaustive(), || {
        let (graph, ann, bob, follow) = two_people(0);
        let store = GraphStore::new(graph);
        let zero = store.snapshot();
        let batch = [
            EdgeOp::delete(ann, bob, follow),
            EdgeOp::insert(bob, ann, follow),
        ];
        scope(|s| {
            let writer = s.spawn(|| {
                store.apply(&batch).unwrap();
            });
            let reader = s.spawn(|| {
                let (ops, head) = store.replay_from(0).expect("the log reaches epoch 0");
                let expected_epoch = if ops.is_empty() { 0 } else { 1 };
                assert_eq!(head.epoch(), expected_epoch, "ops and epoch disagree");
                let mut replayed = zero.graph().clone();
                replayed.apply_edge_ops(&ops).unwrap();
                assert_eq!(
                    edges(head.graph()),
                    edges(&replayed),
                    "ops and edges disagree"
                );
            });
            writer.join().expect("writer");
            reader.join().expect("reader");
        });
    });
    report.expect_ok("replay_pairs_its_ops_with_the_snapshot_they_reach");
    assert!(report.complete);
    assert!(
        report.executions > 1,
        "replay racing apply must branch; got {} executions",
        report.executions
    );
}

/// Compaction under a pinned reader: with a compaction threshold of 1 both
/// publishes below compact the writer's overlay, yet a snapshot pinned
/// before them reads exactly the edges of its own epoch, on every
/// interleaving of the reader with the publishes and after both.
#[test]
fn a_pinned_snapshot_reads_its_own_edges_across_compacting_publishes() {
    let report = explore(&Config::exhaustive(), || {
        let (graph, ann, bob, follow) = two_people(1);
        let store = GraphStore::new(graph);
        let pinned = store.snapshot();
        scope(|s| {
            let writer = s.spawn(|| {
                for op in [
                    EdgeOp::delete(ann, bob, follow),
                    EdgeOp::insert(bob, ann, follow),
                ] {
                    let (report, _) = store.apply(&[op]).unwrap();
                    assert!(report.compacted, "threshold 1 compacts on every change");
                }
            });
            let reader = s.spawn(|| {
                assert_eq!(edges(pinned.graph()), [(ann, bob, follow)]);
            });
            writer.join().expect("writer");
            reader.join().expect("reader");
        });
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(edges(pinned.graph()), [(ann, bob, follow)]);
        assert_eq!(edges(store.snapshot().graph()), [(bob, ann, follow)]);
    });
    report.expect_ok("a_pinned_snapshot_reads_its_own_edges_across_compacting_publishes");
    assert!(report.complete);
    assert!(
        report.executions > 1,
        "publishes racing a reader must branch; got {} executions",
        report.executions
    );
}
