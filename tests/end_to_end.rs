//! Cross-crate integration tests: dataset generators → core matching →
//! parallel matching → association rules, exercised together the way the
//! examples and the experiment harness use them.

use quantified_graph_patterns::core::pattern::{library, CountingQuantifier, PatternBuilder};
use quantified_graph_patterns::datasets::{
    generate_pattern, pokec_like, yago_like, KnowledgeConfig, PatternGenConfig, PatternSize,
    SocialConfig,
};
use quantified_graph_patterns::parallel::{dpar_with, PartitionConfig};
use quantified_graph_patterns::rules::{evaluate_rule, mine_qgars_with_report, MiningConfig, Qgar};
use quantified_graph_patterns::{
    Engine, ExecOptions, Graph, MatchConfig, Pattern, QueryAnswer, Runtime,
};

/// One sequential engine execution with an explicit config.
fn engine_match(graph: &Graph, pattern: &Pattern, config: MatchConfig) -> QueryAnswer {
    Engine::new(graph)
        .prepare(pattern)
        .expect("pattern validates")
        .run(ExecOptions::sequential().with_config(config))
        .expect("sequential runs succeed")
}

#[test]
fn all_sequential_algorithms_agree_on_generated_social_graphs() {
    let graph = pokec_like(&SocialConfig::with_persons(800));
    for pattern in [
        library::q1_music_club(),
        library::q2_redmi_universal(),
        library::q3_redmi_negation(2),
    ] {
        let reference = engine_match(&graph, &pattern, MatchConfig::enumerate()).matches;
        for config in [
            MatchConfig::qmatch(),
            MatchConfig::qmatch_n(),
            MatchConfig::qmatch_with_simulation(),
        ] {
            let got = engine_match(&graph, &pattern, config);
            assert_eq!(got.matches, reference, "{config:?} on {pattern}");
        }
    }
}

#[test]
fn parallel_matching_agrees_with_sequential_on_generated_graphs() {
    let graph = pokec_like(&SocialConfig::with_persons(700));
    let pattern = library::q3_redmi_negation(2);
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern).unwrap();
    let sequential = prepared.run(ExecOptions::sequential()).unwrap();
    let two_threads = Runtime::new(2);
    for n in [2usize, 3, 5] {
        let config = PartitionConfig::new(n, prepared.radius());
        let partition = dpar_with(&graph, &config, Runtime::global());
        let parallel = prepared
            .run(ExecOptions::partitioned_on(
                partition.fragments(),
                partition.d(),
                &two_threads,
            ))
            .unwrap();
        assert_eq!(parallel.matches, sequential.matches, "n = {n}");
    }
}

#[test]
fn knowledge_graph_pipeline_q4() {
    let graph = yago_like(&KnowledgeConfig::with_persons(900));
    let q4 = library::q4_uk_professors(2);
    let sequential = engine_match(&graph, &q4, MatchConfig::qmatch());
    // Raising p shrinks the answer.
    let stricter = engine_match(&graph, &library::q4_uk_professors(3), MatchConfig::qmatch());
    assert!(stricter.len() <= sequential.len());
    for v in &stricter.matches {
        assert!(sequential.contains(*v));
    }
    // Parallel evaluation agrees.
    let config = PartitionConfig::new(3, q4.radius().max(2));
    let partition = dpar_with(&graph, &config, Runtime::global());
    let parallel = Engine::new(&graph)
        .prepare(&q4)
        .unwrap()
        .run(ExecOptions::partitioned_on(
            partition.fragments(),
            partition.d(),
            &Runtime::new(2),
        ))
        .unwrap();
    assert_eq!(parallel.matches, sequential.matches);
}

#[test]
fn generated_workload_patterns_agree_across_algorithms() {
    let graph = pokec_like(&SocialConfig::with_persons(600));
    for seed in 0..4u64 {
        let config = PatternGenConfig {
            focus_label: Some("person".to_owned()),
            seed,
            ..PatternGenConfig::with_size(PatternSize::new(5, 7, 30.0, 1))
        };
        let Some(pattern) = generate_pattern(&graph, &config) else {
            continue;
        };
        let a = engine_match(&graph, &pattern, MatchConfig::qmatch());
        let b = engine_match(&graph, &pattern, MatchConfig::enumerate());
        assert_eq!(a.matches, b.matches, "seed {seed}: {pattern}");
    }
}

#[test]
fn rule_evaluation_and_mining_work_end_to_end() {
    let graph = pokec_like(&SocialConfig::with_persons(800));

    // Hand-written R1-style rule.
    let mut b = PatternBuilder::new();
    let xo = b.node("person");
    let z = b.node("person");
    let y = b.node("album");
    b.quantified_edge(xo, z, "follow", CountingQuantifier::at_least_percent(80.0));
    b.edge(z, y, "like");
    b.focus(xo);
    let antecedent = b.build().unwrap();
    let mut b = PatternBuilder::new();
    let xo = b.node("person");
    let y = b.node("album");
    b.edge(xo, y, "buy");
    b.focus(xo);
    let consequent = b.build().unwrap();
    let rule = Qgar::new("R1", antecedent, consequent).unwrap();

    let eval = evaluate_rule(&graph, &rule, &MatchConfig::qmatch()).unwrap();
    assert!(eval.support <= eval.antecedent_matches.len());
    assert!(eval.confidence >= 0.0 && eval.confidence <= 1.0);

    // Mining finds rules whose reported support/confidence are consistent
    // with re-evaluating the rule from scratch.
    let (mined, _) = mine_qgars_with_report(
        &graph,
        &MiningConfig {
            min_support: 10,
            max_rules: 3,
            ..MiningConfig::default()
        },
        Runtime::global(),
    )
    .unwrap();
    for rule in mined {
        let again = evaluate_rule(&graph, &rule.rule, &MatchConfig::qmatch()).unwrap();
        assert_eq!(again.support, rule.evaluation.support);
        assert!((again.confidence - rule.evaluation.confidence).abs() < 1e-9);
    }
}

#[test]
fn partition_statistics_are_consistent_with_fragments() {
    let graph = pokec_like(&SocialConfig::with_persons(500));
    let partition = dpar_with(&graph, &PartitionConfig::new(4, 2), Runtime::global());
    let stats = partition.stats();
    assert_eq!(stats.fragment_sizes.len(), partition.len());
    assert_eq!(stats.total_nodes, graph.node_count());
    let covered: usize = partition
        .fragments()
        .iter()
        .map(|f| f.covered_count())
        .sum();
    assert_eq!(covered, graph.node_count());
    assert!(stats.skew > 0.0 && stats.skew <= 1.0);
}
