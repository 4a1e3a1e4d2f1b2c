//! Parallel quantified matching: partition a graph with `DPar` and evaluate a
//! QGP with `PQMatch` over a growing number of workers, verifying that the
//! parallel answer equals the sequential one.
//!
//! ```text
//! cargo run --release --example parallel_matching
//! ```

use std::time::Instant;

use quantified_graph_patterns::core::pattern::library;
use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
use quantified_graph_patterns::parallel::{dpar_with, PartitionConfig};
use quantified_graph_patterns::{Engine, ExecOptions, Runtime};

fn main() {
    let graph = pokec_like(&SocialConfig::with_persons(6_000));
    let engine = Engine::new(&graph);
    let prepared = engine
        .prepare(&library::q3_redmi_negation(2))
        .expect("library patterns validate");
    println!(
        "graph: {} nodes, {} edges; pattern radius {}",
        graph.node_count(),
        graph.edge_count(),
        prepared.radius()
    );

    // Sequential reference answer (the same prepared query runs every mode).
    let start = Instant::now();
    let sequential = prepared.run(ExecOptions::sequential()).unwrap();
    println!(
        "sequential QMatch: {} matches in {:.1} ms",
        sequential.len(),
        start.elapsed().as_secs_f64() * 1e3
    );

    // The partition is built once per d and reused for every pattern of
    // radius ≤ d (Section 5.2 of the paper).  Matching runs on two threads
    // whatever the fragment count.
    let two_threads = Runtime::new(2);
    for n in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let partition = dpar_with(&graph, &PartitionConfig::new(n, 2), Runtime::global());
        let partition_time = start.elapsed();

        let start = Instant::now();
        let answer = prepared
            .run(ExecOptions::partitioned_on(
                partition.fragments(),
                partition.d(),
                &two_threads,
            ))
            .expect("pattern radius fits the partition");
        let match_time = start.elapsed();

        assert_eq!(answer.matches, sequential.matches);
        // The balance is the partition's own, clock-free: nodes per
        // fragment (replicated neighborhoods included), the nodes each one
        // covers (decides) and their skew.  A fragment can hold many nodes
        // and cover none: it only replicates the balls of its neighbours'.
        // Every run decides on the graph itself with the query's pooled
        // session, which the sequential run built, so `sessions built` is
        // at most one per worker besides it — 0 or 1 here, whatever n.
        let balance = partition.stats();
        let covered: Vec<usize> = partition
            .fragments()
            .iter()
            .map(|f| f.covered_count())
            .collect();
        println!(
            "n = {n}: partition {:>7.1} ms (skew {:.2}, nodes per fragment {:?}, covered {:?})   PQMatch {:>7.1} ms   {} matches   {} foci verified   {} sessions built",
            partition_time.as_secs_f64() * 1e3,
            balance.skew,
            balance.fragment_node_counts,
            covered,
            match_time.as_secs_f64() * 1e3,
            answer.matches.len(),
            answer.stats.focus_verified,
            answer.stats.sessions_built
        );
    }

    println!("\nparallel answers equal the sequential answer for every n");
    println!("(run on a multi-core machine to observe the wall-clock speedup shape of Fig. 8(b))");
}
