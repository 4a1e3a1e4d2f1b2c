//! Clock-free ceilings on the work an execution does, read off the
//! `MatchStats` it returns on a one-thread runtime (where they are
//! deterministic).
//!
//! Sessions: every mode decides on the snapshot with the query's pooled
//! session, which the coordinator checks out to plan the tasks and returns
//! to the pool, where the first worker checks it out again.  So a run
//! builds one session on a cold prepared query and none on the next,
//! whether it is parallel or partitioned, and however many fragments the
//! partition has.
//!
//! Views: a view re-decides only the foci an update batch can reach, so a
//! seeded update stream costs each batch size a pinned number of
//! re-decisions.
//!
//! The store: a seeded update stream leaves every `UpdateStats` counter at
//! a pinned value.

use qgp_testkit::UpdateStreamGen;
use quantified_graph_patterns::core::pattern::{library, Pattern};
use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
use quantified_graph_patterns::graph::{Fragment, FragmentId, Graph, NodeId, UpdateStats};
use quantified_graph_patterns::parallel::{dpar_with, PartitionConfig};
use quantified_graph_patterns::{Engine, ExecOptions, GraphStore, Runtime};

fn patterns() -> Vec<Pattern> {
    vec![
        library::q1_music_club(),
        library::q2_redmi_universal(),
        library::q3_redmi_negation(1),
        library::q3_redmi_negation(2),
    ]
}

fn graph() -> Graph {
    pokec_like(&SocialConfig::with_persons(300))
}

#[test]
fn a_partitioned_run_builds_the_pooled_session_then_none() {
    let graph = graph();
    let engine = Engine::new(&graph);
    let rt = Runtime::new(1);
    for n in [1, 2, 3] {
        let partition = dpar_with(&graph, &PartitionConfig::new(n, 2), &rt);
        for pattern in patterns() {
            let prepared = engine.prepare(&pattern).unwrap();
            let run = || {
                let opts = ExecOptions::partitioned_on(partition.fragments(), partition.d(), &rt);
                prepared.run(opts).unwrap()
            };
            let first = run();
            assert_eq!(first.stats.sessions_built, 1, "n = {n}, {pattern}");
            let second = run();
            assert_eq!(second.stats.sessions_built, 0, "n = {n}, {pattern}");
            assert_eq!(second.matches, first.matches, "n = {n}, {pattern}");
        }
    }
}

#[test]
fn a_fragment_without_a_node_to_decide_builds_no_session() {
    let graph = graph();
    let engine = Engine::new(&graph);
    let rt = Runtime::new(1);
    let all: Vec<NodeId> = graph.nodes().collect();
    let (low, high) = all.split_at(all.len() / 2);
    // Both fragments hold the whole graph; the first covers the lower half
    // of the ids, the second the upper half, the third nothing.
    let fragments = [
        Fragment::build(FragmentId(0), &graph, &all, low.iter().copied()),
        Fragment::build(FragmentId(1), &graph, &all, high.iter().copied()),
        Fragment::build(FragmentId(2), &graph, &all, []),
    ];
    let mut decided_low = 0;
    for pattern in patterns() {
        let prepared = engine.prepare(&pattern).unwrap();
        let run = |restrict: Option<&[NodeId]>| {
            let mut opts = ExecOptions::partitioned_on(&fragments, 2, &rt);
            if let Some(nodes) = restrict {
                opts = opts.restrict_to(nodes);
            }
            prepared.run(opts).unwrap()
        };
        // No fragment builds a session: the whole run builds the pool's,
        // and the restricted run checks it out again.
        let whole = run(None);
        assert_eq!(whole.stats.sessions_built, 1, "{pattern}");
        let restricted = run(Some(low));
        assert_eq!(restricted.stats.sessions_built, 0, "{pattern}");
        let expected: Vec<NodeId> = whole
            .matches
            .iter()
            .copied()
            .filter(|v| low.contains(v))
            .collect();
        assert_eq!(restricted.matches, expected, "{pattern}");
        decided_low += restricted.stats.focus_candidates;
    }
    assert!(decided_low > 0, "the restricted runs decided nothing");
}

#[test]
fn a_parallel_run_builds_one_session_then_none() {
    let graph = graph();
    let engine = Engine::new(&graph);
    let rt = Runtime::new(1);
    for pattern in patterns() {
        let prepared = engine.prepare(&pattern).unwrap();
        let first = prepared.run(ExecOptions::parallel_on(&rt)).unwrap();
        assert_eq!(first.stats.sessions_built, 1, "{pattern}");
        let second = prepared.run(ExecOptions::parallel_on(&rt)).unwrap();
        assert_eq!(second.stats.sessions_built, 0, "{pattern}");
        assert_eq!(second.matches, first.matches, "{pattern}");
    }
}

/// One view per pattern follows a store fed by a seeded stream, in batches
/// of 1, 10 and 100 ops: Σ `ViewDelta::rechecked` per batch size is pinned
/// exactly, and every view ends equal to a run on the store's head.
/// Clock-free: the repair sets depend only on the seed.
#[test]
fn view_repair_rechecks_are_pinned_per_batch_size() {
    let graph = graph();
    let rt = Runtime::new(1);
    let mut rechecked = Vec::new();
    for size in [1, 10, 100] {
        let store = GraphStore::new(graph.clone());
        let engine = Engine::from_store(&store);
        let prepared: Vec<_> = (patterns().iter())
            .map(|p| engine.prepare(p).unwrap())
            .collect();
        let mut views: Vec<_> = prepared.iter().map(|pq| pq.view()).collect();
        let mut gen = UpdateStreamGen::new(&graph, 11);
        let mut sum = 0;
        for _ in 0..10 {
            store.apply(&gen.next_batch(size)).unwrap();
            for view in &mut views {
                sum += view.advance_with(&store, &rt).unwrap().rechecked;
            }
        }
        rechecked.push(sum);
        for (view, pq) in views.iter().zip(&prepared) {
            let head = pq.run_on(&store.snapshot(), ExecOptions::sequential());
            assert_eq!(view.matches(), head.unwrap().matches, "{}", pq.pattern());
        }
    }
    assert_eq!(rechecked, [20, 192, 1114]);
}

/// The store's write path on a seeded stream over the small pokec-like
/// graph: every `UpdateStats` counter is pinned exactly at compaction
/// thresholds 8 and the default (only `compactions` differs between them).
/// Clock-free: the counters depend only on the seed.
#[test]
fn store_stream_compaction_counters_are_pinned() {
    let base = graph();
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
            },
            "threshold {threshold}"
        );
    }
}
