//! `PQMatch`: parallel scalable quantified matching (Section 5.2).
//!
//! The coordinator posts the pattern to every worker; each worker decides
//! the focus candidates its fragment *covers* (whose d-hop neighborhoods
//! the fragment holds), and the coordinator unions the partial answers.
//! Because the partition is d-hop preserving and the pattern radius is
//! ≤ d, the union equals the global answer `Q(x_o, G)` (Lemma 9(1)).
//!
//! The implementation lives in the prepared-query engine's partitioned
//! mode ([`qgp_core::engine::ExecMode::Partitioned`]): one task per covered
//! focus candidate on the shared work-stealing [`qgp_runtime::Runtime`].
//! In one process a fragment needs no copy of its subgraph: the kernel
//! visits only `N_r(v)` with `r ≤ d`, so each task is decided on the
//! snapshot itself, with the same verdict and the same work, and the answer
//! is `Q(x_o, snapshot)` on the covered nodes.  The workers share the
//! query's pooled session and build at most one more each.  [`pqmatch_on`]
//! is this crate's one compile-and-run convenience over that mode.

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::{MatchConfig, QueryAnswer};
use qgp_core::pattern::Pattern;
use qgp_core::MatchError;
use qgp_runtime::Runtime;

use crate::partition::DHopPartition;

/// Configuration of a parallel matching run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// The thread count this variant is meant to run with, for a caller
    /// that builds its executor from the config; `None` states no
    /// preference.  [`pqmatch_on`] does not read this field: it runs on the
    /// [`Runtime`] it is handed, whatever that runtime's thread count.
    pub threads: Option<usize>,
    /// The matcher configuration each session runs.
    pub match_config: MatchConfig,
}

impl ParallelConfig {
    /// `PQMatch`: incremental negation handling on `threads` executor
    /// threads (the paper's deployment uses 4 threads per worker).
    pub fn pqmatch(threads: usize) -> Self {
        ParallelConfig {
            threads: Some(threads.max(1)),
            match_config: MatchConfig::qmatch(),
        }
    }

    /// `PQMatchn`: negated edges recomputed from scratch on every worker.
    pub fn pqmatch_n(threads: usize) -> Self {
        ParallelConfig {
            threads: Some(threads.max(1)),
            match_config: MatchConfig::qmatch_n(),
        }
    }

    /// `PEnum`: parallel enumerate-then-verify baseline.
    pub fn penum(threads: usize) -> Self {
        ParallelConfig {
            threads: Some(threads.max(1)),
            match_config: MatchConfig::enumerate(),
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: None,
            match_config: MatchConfig::qmatch(),
        }
    }
}

/// Runs `PQMatch` over an existing d-hop preserving partition on
/// `runtime`: prepares `pattern` and executes it once in
/// [`ExecMode::Partitioned`](qgp_core::engine::ExecMode::Partitioned)
/// on the graph the partition was built from: the matches, sorted, with
/// the work counters summed over every session the run decided on.  Only
/// `config.match_config` is read; the thread count is `runtime`'s.  To run
/// one pattern many times, prepare it once with [`Engine::prepare`]
/// instead.
///
/// Returns the engine's error: [`MatchError::InvalidPattern`] when the
/// pattern is invalid, [`MatchError::RadiusExceedsPartition`] when its
/// radius exceeds the partition's `d` — the covering guarantee would no
/// longer imply that local evaluation is complete —
/// [`MatchError::EmptyPartition`] when the partition has no fragments, and
/// [`MatchError::TaskPanicked`] when a task panicked.
pub fn pqmatch_on(
    pattern: &Pattern,
    partition: &DHopPartition,
    config: &ParallelConfig,
    runtime: &Runtime,
) -> Result<QueryAnswer, MatchError> {
    let prepared = Engine::new(&partition.graph).prepare(pattern)?;
    let opts = ExecOptions::partitioned_on(partition.fragments(), partition.d(), runtime)
        .with_config(config.match_config);
    prepared.run(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{dpar_with, PartitionConfig};
    use crate::test_support::engine_match;
    use qgp_core::matching::reference::evaluate_reference;
    use qgp_core::pattern::{library, CountingQuantifier, PatternBuilder};
    use qgp_graph::{Graph, GraphBuilder};

    /// A small social graph with enough structure for Q2/Q3-style patterns.
    fn social_graph(groups: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let redmi = b.add_node("Redmi 2A");
        for g in 0..groups {
            let buyer = b.add_node("person");
            let friends = b.add_nodes("person", 3 + g % 3);
            for (i, &f) in friends.iter().enumerate() {
                b.add_edge(buyer, f, "follow").unwrap();
                if i % 4 != 3 {
                    b.add_edge(f, redmi, "recom").unwrap();
                } else {
                    b.add_edge(f, redmi, "bad_rating").unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn parallel_answer_equals_sequential_answer() {
        let g = social_graph(12);
        let patterns = vec![
            library::q2_redmi_universal(),
            library::q3_redmi_negation(2),
            library::q3_redmi_negation(3),
        ];
        for pattern in patterns {
            let expected = evaluate_reference(&g, &pattern);
            let sequential = engine_match(&g, &pattern, &MatchConfig::qmatch());
            assert_eq!(sequential.matches, expected, "pattern={pattern}");
            for n in [1, 2, 4] {
                for threads in [1, 2] {
                    let partition = dpar_with(&g, &PartitionConfig::new(n, 2), Runtime::global());
                    let parallel = pqmatch_on(
                        &pattern,
                        &partition,
                        &ParallelConfig::pqmatch(threads),
                        &Runtime::new(threads),
                    )
                    .unwrap();
                    assert_eq!(
                        parallel.matches, expected,
                        "n={n} threads={threads} pattern={pattern}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_parallel_variants_agree() {
        let g = social_graph(8);
        let pattern = library::q3_redmi_negation(2);
        let partition = dpar_with(&g, &PartitionConfig::new(3, 2), Runtime::global());
        let expected = evaluate_reference(&g, &pattern);
        let runtime = Runtime::new(2);
        for config in [
            ParallelConfig::pqmatch(2),
            ParallelConfig::pqmatch(1),
            ParallelConfig::pqmatch_n(2),
            ParallelConfig::penum(2),
            ParallelConfig::default(),
        ] {
            let ans = pqmatch_on(&pattern, &partition, &config, &runtime).unwrap();
            assert_eq!(ans.matches, expected, "{config:?}");
        }
    }

    #[test]
    fn pqmatch_on_runs_on_the_runtime_it_is_handed() {
        // The config asks for 4 threads; the runtime has one, and wins: its
        // one worker takes the pooled session and builds none.
        let g = social_graph(12);
        let pattern = library::q3_redmi_negation(2);
        let partition = dpar_with(&g, &PartitionConfig::new(3, 2), Runtime::global());
        let answer = pqmatch_on(
            &pattern,
            &partition,
            &ParallelConfig::pqmatch(4),
            &Runtime::new(1),
        )
        .unwrap();
        assert_eq!(answer.stats.sessions_built, 1);
        assert_eq!(answer.matches, evaluate_reference(&g, &pattern));
    }

    #[test]
    fn sessions_are_reused_per_worker_not_per_chunk() {
        // With a grain far below the candidate count the executor claims
        // many blocks, but a session is built at most once per executor
        // thread, whatever the fragment count.
        let g = social_graph(40);
        let pattern = library::q3_redmi_negation(2);
        let n = 3;
        let threads = 2;
        let partition = dpar_with(&g, &PartitionConfig::new(n, 2), Runtime::global());
        let runtime = Runtime::new(threads);
        let answer = pqmatch_on(
            &pattern,
            &partition,
            &ParallelConfig::pqmatch(threads),
            &runtime,
        )
        .unwrap();
        assert!(
            answer.stats.sessions_built <= threads,
            "sessions_built = {} > threads = {threads}",
            answer.stats.sessions_built,
        );
        assert!(answer.stats.sessions_built >= 1);
        // Plenty of candidates ran through those few sessions.
        assert!(answer.stats.focus_candidates > answer.stats.sessions_built);
    }

    #[test]
    fn radius_larger_than_d_is_rejected() {
        let g = social_graph(4);
        let partition = dpar_with(&g, &PartitionConfig::new(2, 1), Runtime::global());
        // A radius-2 pattern cannot be answered on a 1-hop partition.
        let pattern = library::q2_redmi_universal();
        assert_eq!(pattern.radius(), 2);
        let err = pqmatch_on(
            &pattern,
            &partition,
            &ParallelConfig::default(),
            &Runtime::new(1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MatchError::RadiusExceedsPartition {
                radius: 2,
                partition_d: 1
            }
        ));
    }

    #[test]
    fn a_panicking_task_comes_back_as_its_task_error() {
        use qgp_runtime::faults::{self, FaultPlan};
        let g = social_graph(6);
        let pattern = library::q3_redmi_negation(2);
        let partition = dpar_with(&g, &PartitionConfig::new(2, 2), Runtime::global());
        let runtime = Runtime::new(1);
        let run = || pqmatch_on(&pattern, &partition, &ParallelConfig::default(), &runtime);
        let err = {
            let _armed = faults::install(FaultPlan::new(3, 1.0));
            run()
        };
        match err {
            Err(MatchError::TaskPanicked(e)) => {
                assert_eq!((e.worker, e.index), (0, Some(0)), "{e}");
                assert!(e.payload.contains("injected fault"), "{e}");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        assert_eq!(run().unwrap().matches, evaluate_reference(&g, &pattern));
    }

    #[test]
    fn invalid_patterns_are_rejected_before_spawning_workers() {
        let g = social_graph(2);
        let partition = dpar_with(&g, &PartitionConfig::new(2, 2), Runtime::global());
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let y = b.node("person");
        b.quantified_edge(xo, y, "follow", CountingQuantifier::at_least_percent(500.0));
        b.focus(xo);
        let p = b.build_unchecked();
        assert!(matches!(
            pqmatch_on(&p, &partition, &ParallelConfig::default(), &Runtime::new(1)),
            Err(MatchError::InvalidPattern(_))
        ));
    }
}
