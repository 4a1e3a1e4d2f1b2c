//! Robustness contracts of the engine under execution budgets and seeded
//! fault injection:
//!
//! * every execution mode returns `Ok` or a typed error under random
//!   injected faults — never an abort — and a fault-free retry on the very
//!   same prepared query and runtime reproduces the fault-free answer
//!   exactly,
//! * an [`ExecBudget`] stops work at per-candidate granularity and yields
//!   a prefix of the full answer flagged [`QueryAnswer::truncated`],
//! * a [`QueryRegistry::serve`] batch under injected faults answers each
//!   request exactly or with a typed error, and loses or corrupts no pooled
//!   session: the next, fault-free batch answers every request exactly,
//! * a [`MatchView`] under mid-apply faults equals its pre-apply state (it
//!   kept its old pin) or its fully-applied state — never anything in
//!   between — and the disarmed retry needs no recovery step.
//!
//! [`ExecBudget`]: qgp_core::engine::ExecBudget
//! [`QueryAnswer::truncated`]: qgp_core::matching::QueryAnswer
//! [`MatchView`]: qgp_core::engine::MatchView
//! [`QueryRegistry::serve`]: qgp_core::engine::QueryRegistry::serve

use std::sync::Arc;

use proptest::prelude::*;

use qgp_core::engine::{
    CountMode, Engine, ExecBudget, ExecOptions, PreparedQuery, QueryRegistry, ServeOutcome,
    ServeRequest, ViewError,
};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{Pattern, PatternBuilder};
use qgp_core::MatchError;
use qgp_graph::{EdgeOp, Graph, GraphBuilder, NodeId};
use qgp_runtime::faults::{self, FaultPlan};
use qgp_runtime::Runtime;
use qgp_testkit::{
    graph_spec, pattern, plan_for_case, recompute, whole_graph_fragment, PATTERN_KINDS, RS,
};

/// Serving shares prepared queries and the registry across worker threads
/// by reference, with no lock around either.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<PreparedQuery>();
    shared_across_threads::<QueryRegistry>();
};

/// A follow-star with enough focus candidates that every parallel map has
/// real tasks to fault.
fn star_graph(spokes: usize) -> (Graph, Pattern) {
    let mut b = GraphBuilder::new();
    let hub = b.add_node("B");
    for _ in 0..spokes {
        let x = b.add_node("A");
        b.add_edge(x, hub, "r").unwrap();
    }
    let mut pb = PatternBuilder::new();
    let xo = pb.node("A");
    let y = pb.node("B");
    pb.edge(xo, y, "r");
    pb.focus(xo);
    (b.build(), pb.build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under random injected faults, sequential and parallel execution
    /// either complete with the exact fault-free answer or fail with the
    /// typed `TaskPanicked` error — and the same prepared query (on the
    /// same runtime) reproduces the fault-free answer once disarmed.
    #[test]
    fn faulty_executions_fail_typed_and_retry_clean(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        seed in 0u64..1_000,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let runtime = Runtime::new(2);
        let baseline = prepared
            .run(ExecOptions::parallel_on(&runtime))
            .unwrap();

        for opts in [ExecOptions::sequential(), ExecOptions::parallel_on(&runtime)] {
            let mode = opts.mode;
            {
                let plan = plan_for_case(seed, FaultPlan::new(seed, 0.2).with_delay_rate(0.1));
                let _armed = faults::install(plan);
                match prepared.run(opts.clone()) {
                    // No fault fired inside this run: the answer is exact.
                    Ok(answer) => {
                        prop_assert_eq!(&answer.matches, &baseline.matches, "{:?}", mode)
                    }
                    Err(MatchError::TaskPanicked(e)) => {
                        prop_assert!(e.payload.contains("injected fault"), "{:?}: {}", mode, e);
                    }
                    Err(other) => prop_assert!(false, "{:?}: unexpected error: {other:?}", mode),
                }
            }

            // Fault-free retry: same prepared query, same runtime, exact
            // answer.
            let again = prepared.run(opts).unwrap();
            prop_assert_eq!(&again.matches, &baseline.matches, "{:?}", mode);
            prop_assert!(!again.truncated);
        }
    }

    /// A `serve` batch naming one query twice (plus a counting request for
    /// another) under injected faults: each request comes back with the
    /// oracle's exact answer or a typed `TaskPanicked`, on one thread and on
    /// four — and the same registry, disarmed, then answers every request
    /// exactly, so no pooled session was lost or corrupted.
    #[test]
    fn serve_under_faults_is_exact_or_typed_and_recovers(
        gspec in graph_spec(4..12, RS),
        kinds in (0u8..PATTERN_KINDS, 0u8..PATTERN_KINDS),
        seed in 0u64..1_000,
    ) {
        let graph = gspec.build();
        let engine = Engine::new(&graph);
        let patterns = [pattern(kinds.0), pattern(kinds.1)];
        let mut registry = QueryRegistry::new();
        let ids = patterns
            .each_ref()
            .map(|p| registry.register(engine.prepare(p).unwrap()));
        let batch = [
            ServeRequest::new(ids[0]),
            ServeRequest::new(ids[0]),
            ServeRequest::new(ids[1]).count(CountMode::ThresholdOnly),
        ];
        let oracle = [0, 0, 1].map(|q| evaluate_reference(&graph, &patterns[q]));
        let exact = |outcome: &ServeOutcome, expected: &Vec<NodeId>| {
            matches!(&outcome.result, Ok(a) if !a.truncated && &a.matches == expected)
        };

        for threads in [1usize, 4] {
            let runtime = Runtime::new(threads);
            let outcomes = {
                let plan = plan_for_case(seed, FaultPlan::new(seed, 0.2).with_delay_rate(0.1));
                let _armed = faults::install(plan);
                registry.serve(engine.snapshot(), &batch, &runtime)
            };
            for (outcome, expected) in outcomes.iter().zip(&oracle) {
                match &outcome.result {
                    Err(MatchError::TaskPanicked(e)) => {
                        prop_assert!(e.payload.contains("injected fault"), "{}", e);
                    }
                    _ => prop_assert!(exact(outcome, expected), "{:?}", outcome),
                }
            }

            let outcomes = registry.serve(engine.snapshot(), &batch, &runtime);
            for (outcome, expected) in outcomes.iter().zip(&oracle) {
                prop_assert!(exact(outcome, expected), "disarmed: {:?}", outcome);
            }
        }
    }

    /// A decision-capped budget yields a prefix of the fault-free
    /// sequential answer, flagged truncated iff it stopped early.
    #[test]
    fn budget_partial_yields_a_flagged_prefix(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        cap in 0u64..16,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let full = prepared.run(ExecOptions::sequential()).unwrap();

        let budget = ExecBudget::unlimited().max_decisions(cap);
        let capped = prepared
            .run(ExecOptions::sequential().budget_with(budget))
            .unwrap();
        prop_assert!(capped.matches.len() <= full.matches.len());
        prop_assert_eq!(
            &capped.matches[..],
            &full.matches[..capped.matches.len()],
            "a budgeted sequential answer is a prefix"
        );
        if !capped.truncated {
            prop_assert_eq!(&capped.matches, &full.matches);
        }

        // Parallel with the same cap: a subset of the answer (order of
        // verification is nondeterministic, membership is not).
        let runtime = Runtime::new(2);
        let budget = ExecBudget::unlimited().max_decisions(cap);
        let capped = prepared
            .run(ExecOptions::parallel_on(&runtime).budget_with(budget))
            .unwrap();
        for v in &capped.matches {
            prop_assert!(full.matches.contains(v));
        }
    }

    /// A view batch under injected faults is atomic: afterwards the view
    /// equals either its pre-apply state or its fully-applied state, both
    /// checked against an independent recompute, and stays usable as is.
    #[test]
    fn view_apply_under_faults_is_atomic(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        raw_ops in proptest::collection::vec((0u8..12, 0u8..12, 0u8..2, any::<bool>()), 1..5),
        seed in 0u64..1_000,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let mut view = Engine::new(&graph).prepare(&pattern).unwrap().view();
        let pre_matches = view.matches().to_vec();
        let pre_pin = Arc::clone(view.snapshot());

        // Decode the raw ops against the real node/label universe.
        let n = graph.node_count();
        let labels: Vec<_> = RS
            .iter()
            .map(|l| graph.labels().edge_label(l).expect("the kit interns every label"))
            .collect();
        let ops: Vec<EdgeOp> = raw_ops
            .iter()
            .filter_map(|&(f, t, l, ins)| {
                let from = NodeId::new(f as usize % n);
                let to = NodeId::new(t as usize % n);
                if from == to {
                    return None;
                }
                let label = labels[l as usize % labels.len()];
                Some(if ins {
                    EdgeOp::insert(from, to, label)
                } else {
                    EdgeOp::delete(from, to, label)
                })
            })
            .collect();
        if ops.is_empty() {
            return Ok(());
        }

        let outcome = {
            let _armed = faults::install(plan_for_case(seed, FaultPlan::new(seed, 0.3)));
            view.apply(&ops)
        };
        let recompute = |g: &Graph| recompute(g, &pattern, &MatchConfig::default());
        match outcome {
            Ok(_) => {
                // Fully applied: matches agree with a recompute over the
                // updated graph.
                prop_assert_eq!(view.matches(), &recompute(view.graph())[..]);
            }
            Err(ViewError::TaskPanicked(e)) => {
                // The view kept its old pin: the graph and matches are the
                // pre-apply state.
                prop_assert!(e.payload.contains("injected fault"), "{}", e);
                prop_assert!(Arc::ptr_eq(view.snapshot(), &pre_pin));
                prop_assert_eq!(view.matches(), &pre_matches[..]);
                prop_assert_eq!(view.matches(), &recompute(view.graph())[..]);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }

        // Fault-free, with no recovery step in between, the same batch
        // applies and matches the recompute, and replaying the delta over
        // the prior match set reproduces the view's answer.
        let before_retry = view.matches().to_vec();
        let delta = view.apply(&ops).unwrap();
        prop_assert_eq!(view.matches(), &recompute(view.graph())[..]);
        let mut replay = before_retry;
        delta.apply_to(&mut replay);
        prop_assert_eq!(&replay[..], view.matches());
    }
}

/// Regression: after an injected panic inside a parallel map, the
/// process-wide global runtime keeps serving queries.
#[test]
fn global_runtime_serves_queries_after_an_injected_panic() {
    let (graph, pattern) = star_graph(64);
    let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
    let full = prepared
        .run(ExecOptions::parallel_on(Runtime::global()))
        .unwrap();
    assert_eq!(full.matches.len(), 64);

    let err = {
        let _armed = faults::install(FaultPlan::new(5, 1.0));
        prepared.run(ExecOptions::parallel_on(Runtime::global()))
    };
    match err {
        Err(MatchError::TaskPanicked(e)) => {
            assert!(e.payload.contains("injected fault"), "{e}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }

    // Same global runtime, same prepared query: the full answer.
    let again = prepared
        .run(ExecOptions::parallel_on(Runtime::global()))
        .unwrap();
    assert_eq!(again.matches, full.matches);
}

/// A sequential execution's tasks pass the executor's fault points on the
/// calling thread: an armed run fails at its first candidate as a typed
/// `TaskPanicked` from worker 0, and the pooled session, never handed to a
/// decision, goes back to the pool — the retry builds nothing.
#[test]
fn a_sequential_fault_is_typed_and_keeps_the_pooled_session() {
    let (graph, pattern) = star_graph(16);
    let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
    let full = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(full.stats.sessions_built, 1);

    let err = {
        let _armed = faults::install(FaultPlan::new(7, 1.0));
        prepared.run(ExecOptions::sequential())
    };
    match err {
        Err(MatchError::TaskPanicked(e)) => {
            assert_eq!((e.worker, e.index), (0, Some(0)), "{e}");
            assert!(e.payload.contains("injected fault"), "{e}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }

    let again = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(again.matches, full.matches);
    assert_eq!(again.stats.sessions_built, 0);
}

/// Two requests for the same query in one batch need no turn-taking: on two
/// workers both come back exact.
#[test]
fn identical_requests_in_one_batch_both_answer_exactly() {
    let (graph, pattern) = star_graph(64);
    let engine = Engine::new(&graph);
    let mut registry = QueryRegistry::new();
    let q = registry.register(engine.prepare(&pattern).unwrap());
    let batch = [ServeRequest::new(q), ServeRequest::new(q)];
    let oracle = evaluate_reference(&graph, &pattern);
    let runtime = Runtime::new(2);
    for _ in 0..8 {
        let outcomes = registry.serve(engine.snapshot(), &batch, &runtime);
        assert_eq!(outcomes.len(), 2);
        for outcome in outcomes {
            let answer = outcome.result.unwrap();
            assert_eq!(answer.matches, oracle);
            assert!(!answer.truncated);
        }
    }
}

/// A zero-duration deadline budget truncates immediately to an empty
/// answer, in sequential, parallel and partitioned mode alike.
#[test]
fn expired_deadline_budget_truncates_in_every_mode() {
    let (graph, pattern) = star_graph(32);
    let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
    let fragments = whole_graph_fragment(&graph);
    for opts in [
        ExecOptions::sequential(),
        ExecOptions::parallel_on(Runtime::global()),
        ExecOptions::partitioned_on(&fragments, prepared.radius(), Runtime::global()),
    ] {
        let mode = opts.mode;
        let expired = ExecBudget::with_timeout(std::time::Duration::ZERO);
        let answer = prepared.run(opts.budget_with(expired)).unwrap();
        assert!(answer.truncated, "{mode:?}");
        assert!(answer.matches.is_empty(), "{mode:?}");
    }

    // The prepared query is unharmed.
    let full = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(full.matches.len(), 32);
    assert!(!full.truncated);
}
