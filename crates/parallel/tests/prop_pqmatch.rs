//! Property-based parity tests for the runtime-scheduled parallel path:
//! on random graphs — including pathologically skewed ones where a single
//! hub owns most edges — the engine's partitioned mode over a `DPar`
//! partition must compute exactly the reference oracle's answer for every
//! partition size, executor thread count, and matcher configuration — as
//! must the sequential mode and the `pqmatch_on` convenience.

use proptest::prelude::*;

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::reference::evaluate_reference;
use qgp_graph::Graph;
use qgp_parallel::{dpar_with, pqmatch_on, ParallelConfig, PartitionConfig};
use qgp_runtime::Runtime;
use qgp_testkit::{all_configs, engine_match, graph_spec, pattern, GraphSpec, PATTERN_KINDS, RS};

/// The spec's graph, plus, when `hub` is set, a node owning an edge to (and
/// from half of) every other node — the skew case where static chunking
/// used to bind the wall clock to one chunk.
fn with_hub(spec: &GraphSpec, hub: bool) -> Graph {
    let (mut b, ids) = spec.builder();
    if hub {
        let hub = b.add_node("A");
        for (i, &v) in ids.iter().enumerate() {
            let _ = b.add_edge_dedup(hub, v, RS[i % RS.len()]);
            if i % 2 == 0 {
                let _ = b.add_edge_dedup(v, hub, "r");
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PQMatch-on-runtime ≡ sequential ≡ the oracle for every partition
    /// size, executor thread count and matcher configuration.
    #[test]
    fn pqmatch_equals_sequential_everywhere(
        gspec in graph_spec(4..12, RS),
        hub in any::<bool>(),
        kind in 0u8..PATTERN_KINDS,
    ) {
        let graph = with_hub(&gspec, hub);
        let pattern = pattern(kind);
        let engine = Engine::new(&graph);
        let prepared = engine.prepare(&pattern).unwrap();
        let oracle = evaluate_reference(&graph, &pattern);
        for match_config in all_configs() {
            let sequential = engine_match(&graph, &pattern, &match_config);
            prop_assert_eq!(&sequential.matches, &oracle, "sequential {:?}", match_config);
            for n in [1usize, 2, 4] {
                let partition = dpar_with(
                    &graph,
                    &PartitionConfig::new(n, 2),
                    &Runtime::new(2),
                );
                for threads in [1usize, 2, 4] {
                    let runtime = Runtime::new(threads);
                    let parallel = prepared
                        .run(
                            ExecOptions::partitioned_on(
                                partition.fragments(),
                                partition.d(),
                                &runtime,
                            )
                            .with_config(match_config),
                        )
                        .unwrap();
                    prop_assert_eq!(
                        &parallel.matches,
                        &oracle,
                        "n={} threads={} config={:?} hub={} pattern={}",
                        n,
                        threads,
                        match_config,
                        hub,
                        pattern
                    );
                    let config = ParallelConfig {
                        threads: None,
                        match_config,
                    };
                    let one_call = pqmatch_on(&pattern, &partition, &config, &runtime).unwrap();
                    prop_assert_eq!(&one_call.matches, &oracle);
                }
            }
        }
    }

    /// A guaranteed-skewed instance: the hub graph partitioned across 4
    /// fragments with multi-threaded stealing still matches the oracle.
    #[test]
    fn hub_skew_never_loses_or_duplicates_matches(seed_edges in proptest::collection::vec((0u8..8, 0u8..8, 0u8..2), 0..20)) {
        let spec = GraphSpec {
            node_labels: vec![0, 1, 0, 1, 2, 0, 1, 2],
            edges: seed_edges,
            edge_labels: RS,
        };
        let graph = with_hub(&spec, true);
        for kind in 0..PATTERN_KINDS {
            let pattern = pattern(kind);
            let engine = Engine::new(&graph);
            let prepared = engine.prepare(&pattern).unwrap();
            let oracle = evaluate_reference(&graph, &pattern);
            let partition = dpar_with(&graph, &PartitionConfig::new(4, 2), &Runtime::new(4));
            let runtime = Runtime::new(4);
            let parallel = prepared
                .run(ExecOptions::partitioned_on(
                    partition.fragments(),
                    partition.d(),
                    &runtime,
                ))
                .unwrap();
            prop_assert_eq!(&parallel.matches, &oracle, "kind={}", kind);
        }
    }
}
