//! End-to-end parallel quickstart on the social dataset: build a Pokec-like
//! graph, partition it with `DPar`, evaluate a prepared QGP in the engine's
//! partitioned (`PQMatch`) mode, and mine QGARs — every parallel phase
//! scheduled through the shared work-stealing runtime (`qgp-runtime`).
//!
//! ```text
//! cargo run --release --example parallel_quickstart
//! QGP_THREADS=4 cargo run --release --example parallel_quickstart
//! ```

use std::time::Instant;

use quantified_graph_patterns::core::pattern::library;
use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
use quantified_graph_patterns::parallel::{dpar_with, PartitionConfig};
use quantified_graph_patterns::rules::{mine_qgars_with_report, MiningConfig};
use quantified_graph_patterns::{Engine, ExecOptions, Runtime};

fn main() {
    // One executor for every parallel phase below.  `Runtime::global()`
    // would honor QGP_THREADS; an explicit runtime pins the thread count.
    let runtime = Runtime::new(4);
    println!("runtime: {} worker threads\n", runtime.threads());

    // ---- 1. The social graph -------------------------------------------
    let graph = pokec_like(&SocialConfig::with_persons(6_000));
    println!(
        "graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // ---- 2. DPar: d-hop preserving partition ---------------------------
    // Node neighborhood scans run as stealable tasks; the partition is
    // built once and reused for every pattern of radius ≤ d.
    let t = Instant::now();
    let partition = dpar_with(&graph, &PartitionConfig::new(4, 2), &runtime);
    println!(
        "DPar: {} fragments (d = 2, skew {:.2}) in {:.1} ms",
        partition.len(),
        partition.stats().skew,
        t.elapsed().as_secs_f64() * 1e3
    );

    // ---- 3. Partitioned engine execution (PQMatch) ---------------------
    // Prepare the pattern once; the partitioned mode schedules one task per
    // covered focus candidate, idle threads steal candidate ranges, and
    // each thread lazily keeps one matcher session per fragment — all
    // sessions sharing the one compiled pattern.
    let engine = Engine::new(&graph);
    let prepared = engine
        .prepare(&library::q3_redmi_negation(2))
        .expect("library patterns validate");
    let t = Instant::now();
    let answer = prepared
        .run(ExecOptions::partitioned_on(
            partition.fragments(),
            partition.d(),
            &runtime,
        ))
        .expect("pattern radius fits the partition");
    let stats = answer.stats;
    println!(
        "PQMatch Q3(p=2): {} matches in {:.1} ms ({} foci verified, {} verifications, {} sessions built)",
        answer.matches.len(),
        t.elapsed().as_secs_f64() * 1e3,
        stats.focus_verified,
        stats.verifications,
        stats.sessions_built
    );
    // The same prepared query executes sequentially (the engine guarantees
    // one semantics across modes).
    let sequential = prepared.run(ExecOptions::sequential()).unwrap();
    assert_eq!(answer.matches, sequential.matches);
    println!("  ≡ sequential QMatch ({} matches)", sequential.len());

    // Top-10 serving: limit(10) stops verifying once 10 answers are found.
    let t = Instant::now();
    let top10 = prepared.run(ExecOptions::sequential().limit(10)).unwrap();
    println!(
        "  first 10 answers in {:.2} ms ({} candidates verified instead of {})\n",
        t.elapsed().as_secs_f64() * 1e3,
        top10.stats.focus_candidates,
        sequential.stats.focus_candidates,
    );

    // ---- 4. QGAR mining ------------------------------------------------
    // Each (antecedent, consequent) seed pair — including its whole
    // quantifier-strengthening ladder — is one stealable task.
    let config = MiningConfig {
        min_support: 10,
        confidence_threshold: 0.5,
        max_rules: 5,
        ..MiningConfig::default()
    };
    let t = Instant::now();
    let (rules, report) =
        mine_qgars_with_report(&graph, &config, &runtime).expect("mining succeeds");
    println!(
        "mined {} QGARs from {} seed pairs in {:.1} ms ({} engine runs, one per seed feature)",
        rules.len(),
        report.pairs_explored,
        t.elapsed().as_secs_f64() * 1e3,
        report.engine_runs
    );
    for rule in &rules {
        println!(
            "  {}  support {} confidence {:.2}{}",
            rule.rule.name(),
            rule.evaluation.support,
            rule.evaluation.confidence,
            rule.strengthened_to
                .map(|p| format!("  (strengthened to ≥ {p}%)"))
                .unwrap_or_default()
        );
    }
}
