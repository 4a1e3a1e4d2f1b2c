//! Property-based contracts of the prepared-query engine:
//!
//! * engine output ≡ the brute-force reference oracle, for every matcher
//!   configuration × answering surface × executor thread count,
//! * `limit(k)` yields a prefix of the unlimited answer and does exactly
//!   the work of deciding the candidates up to its k-th answer (genuine
//!   early termination), and `limit(0)` decides nothing in any mode,
//! * a budget that stops an execution mid-run (decision cap or
//!   cancellation through its token) stops it without poisoning the
//!   prepared query, the session cache, or the runtime.

use proptest::prelude::*;

use qgp_core::engine::{BudgetStop, Engine, ExecBudget, ExecOptions};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::{MatchConfig, MatchStats};
use qgp_graph::{Fragment, FragmentId, GraphBuilder, NodeId};
use qgp_runtime::{CancelToken, Runtime};
use qgp_testkit::{
    all_configs, engine_match, graph_spec, limit_row, pattern, surfaces, whole_graph_fragment,
    GraphSpec, PATTERN_KINDS, RS,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine output ≡ the reference oracle for every matcher
    /// configuration, every surface, and executor thread count.
    #[test]
    fn engine_equals_reference_across_configs_modes_and_threads(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let oracle = evaluate_reference(&graph, &pattern);
        for config in all_configs() {
            let one_shot = engine_match(&graph, &pattern, &config);
            prop_assert_eq!(&one_shot.matches, &oracle, "one-shot, {:?}", config);
            for threads in [1usize, 2, 4] {
                let runtime = Runtime::new(threads);
                for surface in surfaces(config) {
                    let got = (surface.answer)(&prepared, prepared.snapshot(), &runtime).unwrap();
                    prop_assert_eq!(&got, &oracle, "{} on {} threads", surface.name, threads);
                }
            }
        }
    }

    /// A sequential run equals the oracle, the counting run accepts the
    /// same foci in the same order, and a restriction — in any order, with
    /// duplicates — yields exactly the oracle's answers inside it.
    #[test]
    fn restriction_and_count_match_the_batch_answer(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        take in 0usize..8,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();
        let mut oracle = evaluate_reference(&graph, &pattern);
        prop_assert_eq!(&full.matches, &oracle);
        let counted = prepared.count(ExecOptions::sequential()).unwrap();
        prop_assert_eq!(counted.matches().collect::<Vec<_>>(), full.matches);

        // Restriction: an arbitrary prefix of the node space, reversed and
        // listed twice.
        let prefix: Vec<NodeId> = graph.nodes().take(take).collect();
        let restriction: Vec<NodeId> = prefix.iter().rev().chain(&prefix).copied().collect();
        let restricted = prepared
            .run(ExecOptions::sequential().restrict_to(&restriction))
            .unwrap();
        oracle.retain(|v| prefix.contains(v));
        prop_assert_eq!(&restricted.matches, &oracle);
    }

    /// `limit(k)` yields exactly the k smallest members of the full answer
    /// (a prefix) and does exactly the work of a run restricted to the
    /// candidates up to its k-th answer: it stops at that answer.  In
    /// parallel mode it yields exactly min(k, |answer|) members of the
    /// answer.  Then the kit's `limit` row: k ∈ {0, 1, n} in every mode
    /// against the reference.
    #[test]
    fn limit_yields_prefix_with_strictly_less_work(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        k in 1usize..6,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();
        let limited = prepared
            .run(ExecOptions::sequential().limit(k))
            .unwrap();
        let expect = &full.matches[..full.matches.len().min(k)];
        prop_assert_eq!(&limited.matches[..], expect);
        // The candidates up to the k-th answer (all of them when there are
        // fewer than k answers), decided on the same warm pool.
        let upto: Vec<NodeId> = match full.matches.get(k - 1) {
            Some(&kth) => graph.nodes().filter(|&v| v <= kth).collect(),
            None => graph.nodes().collect(),
        };
        let restricted = prepared
            .run(ExecOptions::sequential().restrict_to(&upto))
            .unwrap();
        prop_assert_eq!(&restricted.matches[..], expect);
        let work = |s: MatchStats| (s.focus_candidates, s.focus_verified, s.verifications);
        prop_assert_eq!(
            work(limited.stats),
            work(restricted.stats),
            "limit({}) against the candidates up to its last answer",
            k
        );

        // Parallel limit: exactly min(k, |answer|) members of the answer.
        let runtime = Runtime::new(2);
        let par = prepared
            .run(ExecOptions::parallel_on(&runtime).limit(k))
            .unwrap();
        prop_assert_eq!(par.matches.len(), full.matches.len().min(k));
        for v in &par.matches {
            prop_assert!(full.matches.contains(v));
        }

        let oracle = evaluate_reference(&graph, &pattern);
        let row = limit_row(&prepared, prepared.snapshot(), &runtime, &oracle);
        prop_assert!(row.is_ok(), "kind {}: {:?}", kind, row);
    }

    /// Cancellation through the budget's token stops executions early
    /// (partial answers, flagged truncated) in every mode and leaves every
    /// component reusable: the same prepared query and the same runtime
    /// produce the complete answer afterwards.
    #[test]
    fn cancellation_leaves_no_poisoned_state(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();

        // Pre-cancelled token: nothing is decided, in any mode.
        let dead = CancelToken::new();
        dead.cancel();
        let cancelled = || ExecBudget::from(dead.clone());
        let seq = prepared
            .run(ExecOptions::sequential().budget_with(cancelled()))
            .unwrap();
        prop_assert!(seq.truncated);
        prop_assert!(seq.matches.is_empty());
        prop_assert_eq!(seq.stats.focus_candidates, 0);
        let runtime = Runtime::new(2);
        let par = prepared
            .run(ExecOptions::parallel_on(&runtime).budget_with(cancelled()))
            .unwrap();
        prop_assert!(par.matches.is_empty());
        prop_assert!(par.truncated);
        let fragments = whole_graph_fragment(&graph);
        let partitioned = || ExecOptions::partitioned_on(&fragments, prepared.radius(), &runtime);
        let part = prepared
            .run(partitioned().budget_with(cancelled()))
            .unwrap();
        prop_assert!(part.matches.is_empty());
        prop_assert!(part.truncated);
        prop_assert_eq!(cancelled().stop_reason(), Some(BudgetStop::Cancelled));

        // Mid-run stop: a cap funding exactly the decisions `limit(1)`
        // made stops the run right after the first answer, flagged
        // truncated iff candidates were left; spent, the same budget stops
        // the next run before it decides anything, and so does its token.
        if let Some(&first) = full.matches.first() {
            let decisions = |opts: ExecOptions<'_>| {
                let probe = ExecBudget::unlimited();
                prepared.run(opts.budget_with(probe.clone())).unwrap();
                probe.decisions_used()
            };
            let to_first = decisions(ExecOptions::sequential().limit(1));
            let all = decisions(ExecOptions::sequential());
            let cap = ExecBudget::unlimited().max_decisions(to_first);
            let capped = prepared
                .run(ExecOptions::sequential().budget_with(cap.clone()))
                .unwrap();
            prop_assert_eq!(&capped.matches, &vec![first]);
            prop_assert_eq!(capped.truncated, all > to_first);
            let spent = prepared
                .run(ExecOptions::sequential().budget_with(cap.clone()))
                .unwrap();
            prop_assert!(spent.matches.is_empty() && spent.truncated);
            // Its token now stops every run that shares it.
            let shared = ExecBudget::from(cap.token().clone());
            let shared = prepared
                .run(ExecOptions::parallel_on(&runtime).budget_with(shared))
                .unwrap();
            prop_assert!(shared.matches.is_empty() && shared.truncated);
        }

        // No poisoned state: the same prepared query (and the same runtime)
        // still produce the complete answer.
        let again = prepared.run(ExecOptions::sequential()).unwrap();
        prop_assert_eq!(&again.matches, &full.matches);
        let again = prepared
            .run(ExecOptions::parallel_on(&runtime))
            .unwrap();
        prop_assert_eq!(&again.matches, &full.matches);
        let again = prepared.run(partitioned()).unwrap();
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
    let budget = ExecBudget::from(expired);
    let m = prepared
        .run(ExecOptions::sequential().budget_with(budget.clone()))
        .unwrap();
    assert!(m.truncated);
    assert!(m.matches.is_empty());
    assert_eq!(budget.stop_reason(), Some(BudgetStop::DeadlineExpired));
    // The same in parallel and partitioned mode.
    let fragments = whole_graph_fragment(&graph);
    for opts in [
        ExecOptions::parallel_on(Runtime::global()),
        ExecOptions::partitioned_on(&fragments, prepared.radius(), Runtime::global()),
    ] {
        let answer = prepared.run(opts.budget_with(budget.clone())).unwrap();
        assert!(answer.truncated && answer.matches.is_empty());
    }
    // And the prepared query still answers afterwards.
    let full = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(full.matches, vec![ann]);
}

/// `limit(0)` asks for no answer, so no mode decides a focus and a
/// budget is charged nothing — enumerating or counting.
#[test]
fn limit_zero_decides_nothing_in_any_mode() {
    let mut b = GraphBuilder::new();
    let hub = b.add_node("B");
    for _ in 0..100 {
        let x = b.add_node("A");
        b.add_edge(x, hub, "r").unwrap();
    }
    let graph = b.build();
    let prepared = Engine::new(&graph).prepare(&pattern(0)).unwrap();
    assert_eq!(prepared.run(ExecOptions::sequential()).unwrap().len(), 100);
    let runtime = Runtime::new(2);
    let fragments = whole_graph_fragment(&graph);
    for opts in [
        ExecOptions::sequential(),
        ExecOptions::parallel_on(&runtime),
        ExecOptions::partitioned_on(&fragments, prepared.radius(), &runtime),
    ] {
        let mode = opts.mode;
        let budget = ExecBudget::unlimited();
        let opts = opts.limit(0).budget_with(budget.clone());
        let run = prepared.run(opts.clone()).unwrap();
        let count = prepared.count(opts).unwrap();
        for (stats, empty, truncated) in [
            (run.stats, run.matches.is_empty(), run.truncated),
            (count.stats, count.per_focus.is_empty(), count.truncated),
        ] {
            assert!(empty && !truncated, "{mode:?}");
            assert_eq!(stats.focus_verified, 0, "{mode:?}");
            assert_eq!(stats.verifications, 0, "{mode:?}");
        }
        assert_eq!(budget.decisions_used(), 0, "{mode:?}");
    }
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
    let graph = GraphSpec {
        node_labels: vec![0, 1, 2],
        edges: vec![(0, 1, 0), (1, 2, 1)],
        edge_labels: RS,
    }
    .build();
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern(2)).unwrap(); // radius 2
    let fragments = whole_graph_fragment(&graph);
    // d smaller than the radius.
    let err = prepared
        .run(ExecOptions::partitioned_on(
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
        .run(ExecOptions::partitioned_on(&[], 2, Runtime::global()))
        .unwrap_err();
    assert!(matches!(err, qgp_core::MatchError::EmptyPartition));
}
