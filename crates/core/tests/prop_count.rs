//! Differential contracts of the counting (aggregate-pushdown) execution:
//!
//! * `CountOnly` ≡ enumerate-then-count: the counting path accepts exactly
//!   the foci the enumerating execution accepts, for every matcher
//!   configuration × execution mode × executor thread count, including
//!   negated-edge patterns,
//! * exact witness counts equal a brute-force recount on single-edge
//!   patterns, and threshold-only counts are sound lower bounds,
//! * `restrict_to` and `limit` compose with counting exactly as they do
//!   with enumeration,
//! * a budget under `BudgetPolicy::Partial` truncates a counting run to an
//!   exact prefix (sequential) or subset (parallel modes) of the full
//!   per-focus answer — never a wrong count,
//! * under seeded fault injection a counting run returns the exact answer
//!   or a typed error, and retries clean.

use proptest::prelude::*;

use qgp_core::engine::{BudgetPolicy, Engine, ExecBudget, ExecOptions};
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_core::{FocusCount, MatchError};
use qgp_graph::{Fragment, FragmentId, Graph, GraphBuilder, NodeId};
use qgp_runtime::faults::{self, FaultPlan};
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

/// A fixed family of patterns covering every quantifier class, including
/// negation (kind 5) and a two-node negation whose positified pattern takes
/// the sessionless trivial-shape shortcut (kind 6).
fn pattern(kind: u8) -> Pattern {
    let mut b = PatternBuilder::new();
    let xo = b.node("A");
    match kind % 7 {
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
        5 => {
            let y = b.node("B");
            let z = b.node("C");
            b.quantified_edge(xo, y, "r", CountingQuantifier::at_least(1));
            b.negated_edge(xo, z, "s");
        }
        _ => {
            let z = b.node("B");
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

fn whole_graph_fragment(graph: &Graph) -> Vec<Fragment> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    vec![Fragment::build(
        FragmentId(0),
        graph,
        &nodes,
        nodes.iter().copied(),
    )]
}

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

/// The armed plan for one proptest case (see `prop_faults.rs`).
fn plan_for_case(case_seed: u64, fallback: FaultPlan) -> FaultPlan {
    match FaultPlan::from_env() {
        Some(env) => {
            FaultPlan::new(env.seed ^ case_seed, env.panic_rate).with_delay_rate(env.delay_rate)
        }
        None => fallback,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The counting path accepts exactly the foci the enumerating execution
    /// accepts, under every matcher configuration, both count modes, and
    /// sequential / parallel / partitioned execution at 1 and 4 threads.
    #[test]
    fn counting_equals_enumeration_across_configs_modes_and_threads(
        gspec in graph_spec(),
        kind in 0u8..7,
    ) {
        let graph = build_graph(&gspec);
        let pattern = pattern(kind);
        let prepared = Engine::new(&graph).prepare(&pattern).unwrap();
        let fragments = whole_graph_fragment(&graph);
        for config in all_configs() {
            let enumerated = prepared
                .run(ExecOptions::sequential().with_config(config))
                .unwrap();
            for opts in [
                ExecOptions::sequential().count_only(),
                ExecOptions::sequential().count_exact(),
            ] {
                let counted = prepared.count(opts.with_config(config)).unwrap();
                prop_assert_eq!(
                    counted.matches().collect::<Vec<_>>(),
                    enumerated.matches.clone(),
                    "sequential count, {:?}", config
                );
                prop_assert_eq!(counted.total, enumerated.matches.len());
                prop_assert!(!counted.truncated);
            }
            // `execute` with the count flag routes decisions through the
            // counting path but must stream the identical answer.
            let routed = prepared
                .run(ExecOptions::sequential().with_config(config).count_only())
                .unwrap();
            prop_assert_eq!(&routed.matches, &enumerated.matches);
            for threads in [1usize, 4] {
                let par = prepared
                    .count(ExecOptions::parallel_on(&Runtime::new(threads)).with_config(config))
                    .unwrap();
                prop_assert_eq!(
                    par.matches().collect::<Vec<_>>(),
                    enumerated.matches.clone(),
                    "parallel({} threads) count, {:?}", threads, config
                );
                let runtime = Runtime::new(threads);
                let part = prepared
                    .count(
                        ExecOptions::partitioned_on(&fragments, pattern.radius(), &runtime)
                            .with_config(config)
                            .count_exact(),
                    )
                    .unwrap();
                prop_assert_eq!(
                    part.matches().collect::<Vec<_>>(),
                    enumerated.matches.clone(),
                    "partitioned({} threads) count, {:?}", threads, config
                );
            }
        }
    }

    /// Exact witness counts equal a brute-force recount on the single-edge
    /// pattern kinds; threshold-only counts are sound lower bounds of them;
    /// and every mode agrees on witness values for the same focus.
    #[test]
    fn exact_witnesses_match_brute_force_on_single_edge_patterns(
        gspec in graph_spec(),
        kind_ix in 0usize..3,
    ) {
        let kind = [0u8, 1, 4][kind_ix];
        let graph = build_graph(&gspec);
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
        gspec in graph_spec(),
        kind in 0u8..7,
        take in 0usize..8,
        k in 1usize..6,
    ) {
        let graph = build_graph(&gspec);
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

    /// A decision-capped budget under `Partial` truncates a counting run to
    /// an exact prefix (sequential) or subset (parallel) of the full
    /// per-focus answer; `Fail` surfaces the typed error; a truncated run
    /// never reports a wrong witness count.
    #[test]
    fn budget_partial_counting_is_an_exact_prefix_or_subset(
        gspec in graph_spec(),
        kind in 0u8..7,
        cap in 0u64..16,
    ) {
        let graph = build_graph(&gspec);
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

        let budget = ExecBudget::unlimited().max_decisions(cap);
        match prepared.count(
            ExecOptions::sequential()
                .count_exact()
                .budget_with(budget)
                .on_budget(BudgetPolicy::Fail),
        ) {
            Ok(answer) => {
                prop_assert!(!answer.truncated);
                prop_assert_eq!(&answer.per_focus, &full.per_focus);
            }
            Err(MatchError::BudgetExceeded) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
    }

    /// Under random injected faults a parallel counting run either returns
    /// the exact fault-free answer or the typed `TaskPanicked` error —
    /// never a wrong count — and retries clean on the same runtime.
    #[test]
    fn faulty_counting_fails_typed_and_retries_clean(
        gspec in graph_spec(),
        kind in 0u8..7,
        seed in 0u64..1_000,
    ) {
        let graph = build_graph(&gspec);
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

/// A pre-cancelled token yields an empty, truncated count in every mode,
/// and the prepared query stays fully usable afterwards.
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

    let dead = qgp_core::engine::CancelToken::new();
    dead.cancel();
    let seq = prepared
        .count(ExecOptions::sequential().cancel_with(dead.clone()))
        .unwrap();
    assert!(seq.per_focus.is_empty() && seq.truncated);
    let par = prepared
        .count(ExecOptions::parallel_on(&Runtime::new(2)).cancel_with(dead))
        .unwrap();
    assert!(par.per_focus.is_empty());

    let full = prepared.count(ExecOptions::sequential()).unwrap();
    assert_eq!(full.matches().collect::<Vec<_>>(), spokes);
    assert_eq!(full.total, 8);
    assert!(!full.truncated);
}

/// The witness count of an accepted focus with no focus out-edge in `Π(Q)`
/// is 1 (kind 6: a pure two-node negation — the trivial-shape shortcut).
#[test]
fn pure_negation_counts_report_unit_witnesses() {
    let mut b = GraphBuilder::new();
    let clean = b.add_node("A");
    let dirty = b.add_node("A");
    let bad = b.add_node("B");
    b.add_edge(dirty, bad, "s").unwrap();
    let graph = b.build();
    let prepared = Engine::new(&graph).prepare(&pattern(6)).unwrap();
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
    // The trivial positified shortcut never built a negation session.
    assert_eq!(counted.stats.sessions_built, 1);
}
