//! Clock-free ceilings on the work an execution does, read off the
//! `MatchStats` it returns on a one-thread runtime (where they are
//! deterministic).
//!
//! Sessions: a matcher session is built at most once per execution and
//! site.  A partitioned run builds one per fragment that has a covered node
//! to decide (the coordinator's, which the first worker on the fragment
//! takes over) and none for a fragment that covers nothing; a parallel run
//! hands the pooled session it planned with to its worker, so it builds one
//! on its first execution and none on its second.

use quantified_graph_patterns::core::pattern::{library, Pattern};
use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
use quantified_graph_patterns::graph::{Fragment, FragmentId, Graph, NodeId};
use quantified_graph_patterns::parallel::{dpar_with, PartitionConfig};
use quantified_graph_patterns::{Engine, ExecOptions, Runtime};

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
fn a_partitioned_run_builds_one_session_per_fragment_with_a_covered_node() {
    let graph = graph();
    let engine = Engine::new(&graph);
    let rt = Runtime::new(1);
    for n in [1, 2, 3] {
        let partition = dpar_with(&graph, &PartitionConfig::new(n, 2), &rt);
        let covering = partition
            .fragments()
            .iter()
            .filter(|f| f.covered_count() > 0)
            .count();
        assert!(covering > 0);
        for pattern in patterns() {
            let prepared = engine.prepare(&pattern).unwrap();
            let opts = ExecOptions::partitioned_on(partition.fragments(), partition.d(), &rt);
            let answer = prepared.run(opts).unwrap();
            assert_eq!(answer.stats.sessions_built, covering, "n = {n}, {pattern}");
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
        let whole = run(None);
        assert_eq!(whole.stats.sessions_built, 2, "{pattern}");
        let restricted = run(Some(low));
        assert_eq!(restricted.stats.sessions_built, 1, "{pattern}");
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
