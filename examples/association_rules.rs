//! Quantified graph association rules (QGARs): evaluate a hand-written rule
//! and mine rules automatically from a Pokec-like social graph (the Exp-3
//! study of the paper).
//!
//! ```text
//! cargo run --release --example association_rules
//! ```

use quantified_graph_patterns::core::matching::MatchConfig;
use quantified_graph_patterns::core::pattern::{CountingQuantifier, PatternBuilder};
use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
use quantified_graph_patterns::rules::{
    evaluate_rule, identify_entities, mine_qgars_with_report, MiningConfig, Qgar,
};
use quantified_graph_patterns::Runtime;

fn main() {
    let graph = pokec_like(&SocialConfig::with_persons(4_000));
    println!(
        "graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // ---- A hand-written rule (R1 of the paper) --------------------------
    // "If xo is in a music club and ≥80% of the people xo follows like an
    //  album y, then xo will likely buy y."
    let mut b = PatternBuilder::new();
    let xo = b.node_named("person", "xo");
    let club = b.node("music club");
    let z = b.node_named("person", "z");
    let y = b.node_named("album", "y");
    b.edge(xo, club, "in");
    b.quantified_edge(xo, z, "follow", CountingQuantifier::at_least_percent(80.0));
    b.edge(z, y, "like");
    b.focus(xo);
    let antecedent = b.build().unwrap();

    let mut b = PatternBuilder::new();
    let xo = b.node_named("person", "xo");
    let y = b.node_named("album", "y");
    b.edge(xo, y, "buy");
    b.focus(xo);
    let consequent = b.build().unwrap();

    let r1 = Qgar::new("R1: music-club album buyers", antecedent, consequent).unwrap();
    let eval = evaluate_rule(&graph, &r1, &MatchConfig::qmatch()).unwrap();
    println!(
        "\n{}\n  antecedent matches: {}\n  support: {}\n  confidence (LCWA): {:.2}",
        r1.name(),
        eval.antecedent_matches.len(),
        eval.support,
        eval.confidence
    );

    let customers = identify_entities(&graph, &r1, 0.5, &MatchConfig::qmatch()).unwrap();
    println!(
        "  potential customers identified at η = 0.5: {}",
        customers.len()
    );

    // ---- Automatic QGAR mining (Exp-3) -----------------------------------
    let config = MiningConfig {
        focus_label: "person".to_owned(),
        min_support: 20,
        confidence_threshold: 0.5,
        max_rules: 6,
        ..MiningConfig::default()
    };
    let (mined, _) = mine_qgars_with_report(&graph, &config, Runtime::global()).unwrap();
    println!("\nmined {} QGARs with η = 0.5:", mined.len());
    for rule in &mined {
        println!(
            "  {:60}  support {:5}  confidence {:.2}  quantifier {}",
            rule.rule.name(),
            rule.evaluation.support,
            rule.evaluation.confidence,
            rule.strengthened_to
                .map(|p| format!(">= {p}%"))
                .unwrap_or_else(|| ">= 1".to_owned()),
        );
    }
    assert!(mined.iter().all(|r| r.evaluation.confidence >= 0.5));
    // Each rule's antecedent carries the rung it was strengthened to;
    // evaluated afresh, that rung still meets the support floor.
    for rule in &mined {
        let fresh = evaluate_rule(&graph, &rule.rule, &config.match_config).unwrap();
        let name = rule.rule.name();
        assert!(fresh.support >= config.min_support, "{name}");
        assert_eq!(fresh.support, rule.evaluation.support, "{name}");
    }
}
