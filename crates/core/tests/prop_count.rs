//! Differential contracts of the counting (aggregate-pushdown) execution:
//!
//! * `CountOnly` ≡ enumerate-then-count: the counting surfaces accept
//!   exactly the oracle's foci, like the enumerating ones, for every matcher
//!   configuration × execution mode × executor thread count, including
//!   negated-edge patterns,
//! * exact witness counts equal a brute-force recount on single-edge
//!   patterns, and threshold-only counts are sound lower bounds,
//! * `restrict_to` and `limit` compose with counting exactly as they do
//!   with enumeration,
//! * a budget truncates a counting run to an exact prefix (sequential) or
//!   subset (parallel modes) of the full per-focus answer — never a wrong
//!   count,
//! * under seeded fault injection a counting run returns the exact answer
//!   or a typed error, and retries clean.

use proptest::prelude::*;

use qgp_core::engine::{Engine, ExecBudget, ExecOptions};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::{FocusCount, MatchError};
use qgp_graph::{Graph, GraphBuilder, NodeId};
use qgp_runtime::faults::{self, FaultPlan};
use qgp_runtime::{CancelToken, Runtime};
use qgp_testkit::{
    all_configs, graph_spec, pattern, plan_for_case, surfaces, whole_graph_fragment, PATTERN_KINDS,
    RS,
};

/// Brute-force witness recount for the single-edge pattern kinds (0, 1, 4):
/// the distinct `B`-labelled `r`-children of `vx`, excluding `vx` itself.
fn single_edge_witnesses(graph: &Graph, vx: NodeId) -> usize {
    let (Some(r), Some(b)) = (
        graph.labels().edge_label("r"),
        graph.labels().node_label("B"),
    ) else {
        return 0;
    };
    let mut children = graph.out_neighbors_with_label_slice(vx, r).to_vec();
    children.dedup();
    children
        .iter()
        .filter(|&&c| c != vx && graph.node_label(c) == b)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every surface, the counting ones included, accepts exactly the
    /// oracle's foci under every matcher configuration and at 1 and 4
    /// threads; a sequential count reports the full total, untruncated.
    #[test]
    fn counting_equals_enumeration_across_configs_modes_and_threads(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let oracle = evaluate_reference(&graph, &pattern);
        for config in all_configs() {
            for opts in [
                ExecOptions::sequential().count_only(),
                ExecOptions::sequential().count_exact(),
            ] {
                let counted = prepared.count(opts.with_config(config)).unwrap();
                prop_assert_eq!(counted.per_focus.len(), oracle.len());
                prop_assert!(!counted.truncated);
            }
            // `run` with the count flag routes decisions through the
            // counting path but must return the identical answer.
            let routed = prepared
                .run(ExecOptions::sequential().with_config(config).count_only())
                .unwrap();
            prop_assert_eq!(&routed.matches, &oracle);
            for threads in [1usize, 4] {
                let runtime = Runtime::new(threads);
                for surface in surfaces(config) {
                    let got = (surface.answer)(&prepared, prepared.snapshot(), &runtime).unwrap();
                    prop_assert_eq!(&got, &oracle, "{} on {} threads", surface.name, threads);
                }
            }
        }
    }

    /// Exact witness counts equal a brute-force recount on the single-edge
    /// pattern kinds; threshold-only counts are sound lower bounds of them;
    /// and every mode agrees on witness values for the same focus.
    #[test]
    fn exact_witnesses_match_brute_force_on_single_edge_patterns(
        gspec in graph_spec(4..12, RS),
        kind_ix in 0usize..3,
    ) {
        let kind = [0u8, 1, 4][kind_ix];
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        for config in all_configs() {
            let exact = prepared
                .count(ExecOptions::sequential().with_config(config).count_exact())
                .unwrap();
            for fc in &exact.per_focus {
                prop_assert_eq!(
                    fc.witnesses,
                    single_edge_witnesses(&graph, fc.focus),
                    "exact witnesses of {:?} under {:?}", fc.focus, config
                );
            }
            let threshold = prepared
                .count(ExecOptions::sequential().with_config(config).count_only())
                .unwrap();
            prop_assert_eq!(threshold.per_focus.len(), exact.per_focus.len());
            for (t, e) in threshold.per_focus.iter().zip(&exact.per_focus) {
                prop_assert_eq!(t.focus, e.focus);
                prop_assert!(t.witnesses >= 1 && t.witnesses <= e.witnesses);
            }
            // Parallel exact counting reports the same witness values.
            let par = prepared
                .count(ExecOptions::parallel_on(&Runtime::new(4)).with_config(config).count_exact())
                .unwrap();
            prop_assert_eq!(&par.per_focus, &exact.per_focus);
        }
    }

    /// `restrict_to` and `limit` compose with counting exactly as with
    /// enumeration: same accepted foci under a restriction, and a limited
    /// sequential count is the k-prefix of the full per-focus answer.
    #[test]
    fn restriction_and_limit_compose_with_counting(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        take in 0usize..8,
        k in 1usize..6,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();

        let restriction: Vec<NodeId> = graph.nodes().take(take).collect();
        let enumerated = prepared
            .run(ExecOptions::sequential().restrict_to(&restriction))
            .unwrap();
        let counted = prepared
            .count(ExecOptions::sequential().restrict_to(&restriction))
            .unwrap();
        prop_assert_eq!(counted.matches().collect::<Vec<_>>(), enumerated.matches);
        let par = prepared
            .count(ExecOptions::parallel_on(&Runtime::new(4)).restrict_to(&restriction))
            .unwrap();
        prop_assert_eq!(&par.per_focus, &counted.per_focus);

        let full = prepared
            .count(ExecOptions::sequential().count_exact())
            .unwrap();
        let limited = prepared
            .count(ExecOptions::sequential().count_exact().limit(k))
            .unwrap();
        let expect = &full.per_focus[..full.per_focus.len().min(k)];
        prop_assert_eq!(&limited.per_focus[..], expect);
        prop_assert!(!limited.truncated, "a reached limit is not truncation");
        // Parallel limit: min(k, total) entries, each present in the full
        // answer with the same witness count.
        let par = prepared
            .count(ExecOptions::parallel_on(&Runtime::new(2)).count_exact().limit(k))
            .unwrap();
        prop_assert_eq!(par.per_focus.len(), full.per_focus.len().min(k));
        for fc in &par.per_focus {
            prop_assert!(full.per_focus.contains(fc));
        }
    }

    /// A decision-capped budget truncates a counting run to an exact prefix
    /// (sequential) or subset (parallel) of the full per-focus answer; a
    /// truncated run never reports a wrong witness count.
    #[test]
    fn budget_partial_counting_is_an_exact_prefix_or_subset(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        cap in 0u64..16,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let full = prepared
            .count(ExecOptions::sequential().count_exact())
            .unwrap();

        let budget = ExecBudget::unlimited().max_decisions(cap);
        let capped = prepared
            .count(ExecOptions::sequential().count_exact().budget_with(budget))
            .unwrap();
        prop_assert!(capped.per_focus.len() <= full.per_focus.len());
        prop_assert_eq!(
            &capped.per_focus[..],
            &full.per_focus[..capped.per_focus.len()],
            "a budgeted sequential count is an exact prefix"
        );
        if !capped.truncated {
            prop_assert_eq!(&capped.per_focus, &full.per_focus);
        }

        let runtime = Runtime::new(2);
        let budget = ExecBudget::unlimited().max_decisions(cap);
        let capped = prepared
            .count(
                ExecOptions::parallel_on(&runtime)
                    .count_exact()
                    .budget_with(budget),
            )
            .unwrap();
        for fc in &capped.per_focus {
            prop_assert!(
                full.per_focus.contains(fc),
                "budgeted parallel count reported {:?} not in the full answer", fc
            );
        }
    }

    /// Under random injected faults a parallel counting run either returns
    /// the exact fault-free answer or the typed `TaskPanicked` error —
    /// never a wrong count — and retries clean on the same runtime.
    #[test]
    fn faulty_counting_fails_typed_and_retries_clean(
        gspec in graph_spec(4..12, RS),
        kind in 0u8..PATTERN_KINDS,
        seed in 0u64..1_000,
    ) {
        let graph = gspec.build();
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let runtime = Runtime::new(2);
        let baseline = prepared
            .count(ExecOptions::parallel_on(&runtime).count_exact())
            .unwrap();

        {
            let plan = plan_for_case(seed, FaultPlan::new(seed, 0.2).with_delay_rate(0.1));
            let _armed = faults::install(plan);
            match prepared.count(ExecOptions::parallel_on(&runtime).count_exact()) {
                Ok(answer) => prop_assert_eq!(&answer.per_focus, &baseline.per_focus),
                Err(MatchError::TaskPanicked(e)) => {
                    prop_assert!(e.payload.contains("injected fault"), "{}", e);
                }
                Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            }
        }

        let again = prepared
            .count(ExecOptions::parallel_on(&runtime).count_exact())
            .unwrap();
        prop_assert_eq!(&again.per_focus, &baseline.per_focus);
        prop_assert!(!again.truncated);
    }
}

/// A budget on a pre-cancelled token yields an empty, truncated count in
/// every mode, and the prepared query stays fully usable afterwards.
#[test]
fn cancelled_counting_is_empty_and_leaves_no_poisoned_state() {
    let mut b = GraphBuilder::new();
    let hub = b.add_node("B");
    let spokes: Vec<NodeId> = (0..8)
        .map(|_| {
            let x = b.add_node("A");
            b.add_edge(x, hub, "r").unwrap();
            x
        })
        .collect();
    let graph = b.build();
    let prepared = Engine::new(&graph).prepare(&pattern(0)).unwrap();

    let dead = CancelToken::new();
    dead.cancel();
    let cancelled = || ExecBudget::from(dead.clone());
    let seq = prepared
        .count(ExecOptions::sequential().budget_with(cancelled()))
        .unwrap();
    assert!(seq.per_focus.is_empty() && seq.truncated);
    let runtime = Runtime::new(2);
    let par = prepared
        .count(ExecOptions::parallel_on(&runtime).budget_with(cancelled()))
        .unwrap();
    assert!(par.per_focus.is_empty());
    assert!(par.truncated);
    let fragments = whole_graph_fragment(&graph);
    let opts = ExecOptions::partitioned_on(&fragments, prepared.radius(), &runtime);
    let part = prepared.count(opts.budget_with(cancelled())).unwrap();
    assert!(part.per_focus.is_empty() && part.truncated);

    let full = prepared.count(ExecOptions::sequential()).unwrap();
    assert_eq!(full.matches().collect::<Vec<_>>(), spokes);
    assert_eq!(full.per_focus.len(), 8);
    assert!(!full.truncated);
}

/// The witness count of an accepted focus with no focus out-edge in `Π(Q)`
/// is 1 (kind 9: a pure two-node negation).
#[test]
fn pure_negation_counts_report_unit_witnesses() {
    let mut b = GraphBuilder::new();
    let clean = b.add_node("A");
    let dirty = b.add_node("A");
    let bad = b.add_node("B");
    b.add_edge(dirty, bad, "s").unwrap();
    let graph = b.build();
    let prepared = Engine::new(&graph).prepare(&pattern(9)).unwrap();
    let counted = prepared
        .count(ExecOptions::sequential().count_exact())
        .unwrap();
    assert_eq!(
        counted.per_focus,
        vec![FocusCount {
            focus: clean,
            witnesses: 1
        }]
    );
    // The negated body is decided by the single-edge ranked intersection
    // of its lazily built sub-session: `dirty`'s one `s` child is counted
    // and membership exits there.  The sub-session is part of the query's
    // one session.
    assert_eq!(counted.stats.children_counted, 1);
    assert_eq!(counted.stats.threshold_exits, 1);
    assert_eq!(counted.stats.sessions_built, 1);
}
