//! Epoch-snapshot serving tests: pinned readers are immune to writer
//! progress, `PreparedQuery` pools the sessions of one snapshot, the
//! `QueryRegistry` counts how often a request found its session pooled,
//! and `MatchView::advance` lands exactly on the store's head snapshot.

use std::sync::Arc;

use qgp_core::engine::{Engine, ExecOptions, QueryRegistry, ServeRequest, ViewError};
use qgp_core::error::MatchError;
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_graph::{EdgeOp, Graph, GraphBuilder, GraphStore, LabelId, NodeId, UpdateReport};
use qgp_runtime::Runtime;

/// The quickstart graph: `ann` and `bob` follow influencers who all
/// recommend the phone, so both match; `cat` follows nobody.
fn social() -> (Graph, Vec<NodeId>, Vec<NodeId>, NodeId) {
    let mut b = GraphBuilder::new();
    let fans = b.add_nodes("person", 3); // ann, bob, cat
    let infl = b.add_nodes("person", 3);
    let phone = b.add_node("Redmi 2A");
    b.add_edge(fans[0], infl[0], "follow").unwrap();
    b.add_edge(fans[0], infl[1], "follow").unwrap();
    b.add_edge(fans[1], infl[2], "follow").unwrap();
    for &v in &infl {
        b.add_edge(v, phone, "recom").unwrap();
    }
    (b.build(), fans, infl, phone)
}

/// `x:person` where *everyone* `x` follows recommends the phone.
fn all_follow_recom() -> Pattern {
    let mut p = PatternBuilder::new();
    let xo = p.node("person");
    let z = p.node("person");
    let y = p.node("Redmi 2A");
    p.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
    p.edge(z, y, "recom");
    p.focus(xo);
    p.build().unwrap()
}

fn follow_label(g: &Graph) -> LabelId {
    g.labels().edge_label("follow").unwrap()
}

fn run_head(store: &GraphStore, pattern: &Pattern) -> Vec<NodeId> {
    let pq = Engine::from_store(store).prepare(pattern).unwrap();
    pq.run(ExecOptions::sequential()).unwrap().matches
}

#[test]
fn pinned_reader_is_stable_while_writer_advances() {
    let (graph, fans, infl, phone) = social();
    let store = GraphStore::new(graph);
    let pinned = store.snapshot();
    let pattern = all_follow_recom();
    let pq = Engine::on(Arc::clone(&pinned)).prepare(&pattern).unwrap();

    let at_zero = pq.run(ExecOptions::sequential()).unwrap().matches;
    assert_eq!(at_zero, vec![fans[0], fans[1]]);

    // The writer races ahead: bob's only influencer retracts the
    // recommendation, which changes the head answer.
    let follow = follow_label(pinned.graph());
    let recom = pinned.graph().labels().edge_label("recom").unwrap();
    store
        .apply(&[EdgeOp::delete(infl[2], phone, recom)])
        .unwrap();
    store
        .apply(&[EdgeOp::insert(fans[2], infl[2], follow)])
        .unwrap();
    assert_eq!(store.epoch(), 2);

    // The pinned reader still sees epoch 0, byte for byte.
    assert_eq!(
        pq.run_on(&pinned, ExecOptions::sequential())
            .unwrap()
            .matches,
        at_zero
    );
    // The head answer moved: bob's only influencer no longer recommends.
    assert_eq!(run_head(&store, &pattern), vec![fans[0]]);
    // And a from-scratch engine pinned to the old snapshot agrees with the
    // cached-session answer exactly.
    let fresh = Engine::on(Arc::clone(&pinned)).prepare(&pattern).unwrap();
    assert_eq!(
        fresh.run(ExecOptions::sequential()).unwrap().matches,
        at_zero
    );
}

#[test]
fn writers_never_block_readers() {
    let (graph, fans, infl, _) = social();
    let store = GraphStore::new(graph);
    let pinned = store.snapshot();
    let follow = follow_label(pinned.graph());
    let pattern = all_follow_recom();
    let expected = vec![fans[0], fans[1]];

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let pq = Engine::on(Arc::clone(&pinned)).prepare(&pattern).unwrap();
            for _ in 0..50 {
                let got = pq.run(ExecOptions::sequential()).unwrap().matches;
                assert_eq!(
                    got, expected,
                    "pinned reader must never see writer progress"
                );
            }
        });
        let writer = s.spawn(|| {
            for _ in 0..25 {
                store
                    .apply(&[EdgeOp::insert(fans[2], infl[0], follow)])
                    .unwrap();
                store
                    .apply(&[EdgeOp::delete(fans[2], infl[0], follow)])
                    .unwrap();
            }
        });
        reader.join().unwrap();
        writer.join().unwrap();
    });
    assert_eq!(store.epoch(), 50);
}

#[test]
fn prepared_query_reuses_sessions_per_snapshot() {
    let (graph, _, _, _) = social();
    let store = GraphStore::new(graph);
    let pattern = all_follow_recom();
    let pq = Engine::from_store(&store).prepare(&pattern).unwrap();

    let first = pq.run(ExecOptions::sequential()).unwrap();
    assert_eq!(first.stats.sessions_built, 1);
    let second = pq.run(ExecOptions::sequential()).unwrap();
    assert_eq!(
        second.stats.sessions_built, 0,
        "same snapshot: cached session"
    );
    assert_eq!(first.matches, second.matches);

    // A new epoch is a new snapshot identity: a fresh session is built,
    // and the old epoch's sessions leave the pool, so going back to the
    // *old* pin builds again — the documented trade for a pool that never
    // holds dead epochs.
    let follow = follow_label(store.snapshot().graph());
    let old = store.snapshot();
    let (_, fans, infl, _) = social();
    store
        .apply(&[EdgeOp::insert(fans[2], infl[0], follow)])
        .unwrap();
    let head = store.snapshot();
    assert_eq!(
        pq.run_on(&head, ExecOptions::sequential())
            .unwrap()
            .stats
            .sessions_built,
        1
    );
    assert_eq!(
        pq.run_on(&head, ExecOptions::sequential())
            .unwrap()
            .stats
            .sessions_built,
        0
    );
    assert_eq!(
        pq.run_on(&old, ExecOptions::sequential())
            .unwrap()
            .stats
            .sessions_built,
        1
    );
}

#[test]
fn registry_counts_session_reuse_per_epoch() {
    let (graph, fans, _, _) = social();
    let store = GraphStore::new(graph);
    let engine = Engine::from_store(&store);
    let pattern = all_follow_recom();

    let mut registry = QueryRegistry::new();
    let a = registry.register(engine.prepare(&pattern).unwrap());
    let b = registry.register(engine.prepare(&pattern).unwrap());
    assert_eq!(registry.len(), 2);

    let snapshot = store.snapshot();
    let batch = [ServeRequest::new(a), ServeRequest::new(b)];
    let outcomes = registry.serve(&snapshot, &batch, Runtime::global());
    for o in &outcomes {
        assert_eq!(o.result.as_ref().unwrap().matches, vec![fans[0], fans[1]]);
    }
    let reuse = |r: &QueryRegistry| (r.cache_stats().misses, r.cache_stats().hits);
    assert_eq!(
        reuse(&registry),
        (2, 0),
        "each query builds its own session"
    );

    // Same snapshot again: both requests find their session pooled.
    registry.serve(&snapshot, &batch, Runtime::global());
    assert_eq!(reuse(&registry), (2, 2));

    // A new epoch: both sessions are built again.
    let follow = follow_label(snapshot.graph());
    let (_, f2, i2, _) = social();
    store
        .apply(&[EdgeOp::insert(f2[2], i2[0], follow)])
        .unwrap();
    let head = store.snapshot();
    registry.serve(&head, &batch, Runtime::global());
    assert_eq!(reuse(&registry), (4, 2));
}

#[test]
fn serve_honors_limits_and_reports_unknown_ids() {
    let (graph, fans, _, _) = social();
    let store = GraphStore::new(graph);
    let engine = Engine::from_store(&store);
    let pattern = all_follow_recom();

    let mut registry = QueryRegistry::new();
    let q = registry.register(engine.prepare(&pattern).unwrap());
    let gone = registry.register(engine.prepare(&pattern).unwrap());
    let removed = registry.unregister(gone).unwrap();
    assert_eq!(removed.pattern().focus(), pattern.focus());
    assert!(!registry.contains(gone));

    let snapshot = store.snapshot();
    let batch = [
        ServeRequest::new(q).limit(1),
        ServeRequest::new(gone),
        ServeRequest::new(q),
    ];
    let outcomes = registry.serve(&snapshot, &batch, Runtime::global());
    assert_eq!(outcomes[0].result.as_ref().unwrap().matches, vec![fans[0]]);
    assert!(matches!(
        outcomes[1].result,
        Err(MatchError::UnknownQuery { id }) if id == gone.raw()
    ));
    assert_eq!(
        outcomes[2].result.as_ref().unwrap().matches,
        vec![fans[0], fans[1]]
    );
}

#[test]
fn view_pins_the_store_head_after_advance() {
    let (graph, fans, infl, _) = social();
    let store = GraphStore::new(graph);
    let pq = Engine::from_store(&store)
        .prepare(&all_follow_recom())
        .unwrap();
    let mut view = pq.view();
    assert!(
        Arc::ptr_eq(view.snapshot(), &store.snapshot()),
        "a view pins the prepared query's snapshot, it copies nothing"
    );
    assert_eq!(view.anchor_epoch(), 0);

    let follow = follow_label(store.snapshot().graph());
    store
        .apply(&[EdgeOp::insert(fans[2], infl[0], follow)])
        .unwrap();
    view.advance(&store).unwrap();
    assert!(
        Arc::ptr_eq(view.snapshot(), &store.snapshot()),
        "after advance the view pins the store's head itself"
    );
    assert_eq!(view.anchor_epoch(), 1);
}

#[test]
fn advance_replays_the_store_log_and_matches_recompute() {
    let (graph, fans, infl, phone) = social();
    let store = GraphStore::new(graph);
    let pattern = all_follow_recom();
    let mut view = Engine::from_store(&store).prepare(&pattern).unwrap().view();
    assert_eq!(view.matches(), &[fans[0], fans[1]]);

    let g = store.snapshot();
    let follow = follow_label(g.graph());
    let recom = g.graph().labels().edge_label("recom").unwrap();
    store
        .apply(&[EdgeOp::delete(infl[2], phone, recom)])
        .unwrap();
    store
        .apply(&[EdgeOp::insert(fans[2], infl[0], follow)])
        .unwrap();

    let delta = view.advance(&store).unwrap();
    assert_eq!(view.anchor_epoch(), store.epoch());
    assert_eq!(delta.added, vec![fans[2]]);
    assert_eq!(delta.removed, vec![fans[1]]);
    assert_eq!(view.matches(), run_head(&store, &pattern).as_slice());

    // No new epochs: advancing again is a no-op.
    let delta = view.advance(&store).unwrap();
    assert!(delta.is_empty());
    assert_eq!(view.anchor_epoch(), store.epoch());
}

#[test]
fn advance_past_a_truncated_log_is_an_error() {
    let (graph, fans, infl, _) = social();
    let store = GraphStore::with_log_retention(graph, 1);
    let pattern = all_follow_recom();
    let mut view = Engine::from_store(&store).prepare(&pattern).unwrap().view();

    let follow = follow_label(store.snapshot().graph());
    store
        .apply(&[EdgeOp::insert(fans[2], infl[0], follow)])
        .unwrap();
    store
        .apply(&[EdgeOp::delete(fans[2], infl[0], follow)])
        .unwrap();
    let err = view.advance(&store).unwrap_err();
    assert!(matches!(err, ViewError::LogTruncated { anchor: 0 }));
    // The view is untouched and still answers for its anchor.
    assert_eq!(view.matches(), &[fans[0], fans[1]]);
    assert_eq!(view.anchor_epoch(), 0);
}

#[test]
fn advance_over_a_net_cancelling_replay_rechecks_nothing() {
    let (graph, fans, infl, _) = social();
    let store = GraphStore::new(graph);
    let pattern = all_follow_recom();
    let mut view = Engine::from_store(&store).prepare(&pattern).unwrap().view();

    // Two published epochs whose ops cancel: the head has epoch 0's edges.
    let follow = follow_label(store.snapshot().graph());
    store
        .apply(&[EdgeOp::insert(fans[2], infl[0], follow)])
        .unwrap();
    store
        .apply(&[EdgeOp::delete(fans[2], infl[0], follow)])
        .unwrap();

    let delta = view.advance(&store).unwrap();
    assert!(delta.is_empty());
    assert_eq!(
        delta.rechecked, 0,
        "no edge differs, so no ball is re-decided"
    );
    assert_eq!(
        delta.report,
        UpdateReport::default(),
        "advance applies nothing"
    );
    assert_eq!(view.anchor_epoch(), 2);
    assert!(Arc::ptr_eq(view.snapshot(), &store.snapshot()));
    assert_eq!(view.matches(), run_head(&store, &pattern).as_slice());
}

#[test]
fn apply_then_advance_lands_on_the_head() {
    let (graph, fans, infl, phone) = social();
    let store = GraphStore::new(graph);
    let pattern = all_follow_recom();
    let pq = Engine::from_store(&store).prepare(&pattern).unwrap();
    let mut view = pq.view();

    // A local batch the store never sees: ann's first influencer stops
    // recommending, so ann drops out of the view only.
    let recom = store.snapshot().labels().edge_label("recom").unwrap();
    let local = view
        .apply(&[EdgeOp::delete(infl[0], phone, recom)])
        .unwrap();
    assert_eq!(local.removed, vec![fans[0]]);
    assert_eq!(view.anchor_epoch(), 0);

    // The store moves on elsewhere: cat starts following a recommender.
    let follow = follow_label(store.snapshot().graph());
    store
        .apply(&[EdgeOp::insert(fans[2], infl[2], follow)])
        .unwrap();

    // Advance supersedes the local batch and lands exactly on the head.
    let delta = view.advance(&store).unwrap();
    let head = store.snapshot();
    assert!(Arc::ptr_eq(view.snapshot(), &head));
    assert_eq!(delta.added, vec![fans[0], fans[2]]);
    assert!(delta.removed.is_empty());
    assert_eq!(
        view.matches(),
        pq.run_on(&head, ExecOptions::sequential())
            .unwrap()
            .matches
            .as_slice()
    );
}
