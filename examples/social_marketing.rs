//! Social media marketing: run the paper's example patterns Q1–Q3 against a
//! Pokec-like synthetic social network and identify potential customers.
//!
//! ```text
//! cargo run --release --example social_marketing
//! ```

use std::time::Instant;

use quantified_graph_patterns::core::pattern::library;
use quantified_graph_patterns::datasets::{pokec_like, SocialConfig};
use quantified_graph_patterns::{Engine, ExecOptions, MatchConfig};

fn main() {
    // A community-structured social graph in the shape of Pokec (people,
    // follow/like/recom/buy edges, clubs, albums, products).
    let graph = pokec_like(&SocialConfig::with_persons(5_000));
    println!(
        "social graph: {} nodes, {} edges, {} node labels, {} edge labels",
        graph.node_count(),
        graph.edge_count(),
        graph.labels().node_label_count(),
        graph.labels().edge_label_count()
    );

    let patterns = vec![
        (
            "Q1: in a music club, ≥80% of followees like an album",
            library::q1_music_club(),
        ),
        (
            "Q2: all followees recommend Redmi 2A",
            library::q2_redmi_universal(),
        ),
        (
            "Q3: ≥2 followees recommend Redmi 2A, none gave it a bad rating",
            library::q3_redmi_negation(2),
        ),
    ];

    let engine = Engine::new(&graph);
    for (description, pattern) in patterns {
        println!("\n--- {description}");
        // One prepared query per pattern; the three algorithm variants are
        // executions of it with different configs.
        let prepared = engine.prepare(&pattern).expect("library patterns validate");
        for (name, config) in [
            ("QMatch", MatchConfig::qmatch()),
            ("QMatchn", MatchConfig::qmatch_n()),
            ("Enum", MatchConfig::enumerate()),
        ] {
            let start = Instant::now();
            let answer = prepared
                .run(ExecOptions::sequential().with_config(config))
                .unwrap();
            println!(
                "  {name:8} {:5} potential customers   {:>8.1} ms   ({} candidates verified, {} isomorphisms)",
                answer.len(),
                start.elapsed().as_secs_f64() * 1e3,
                answer.stats.focus_verified,
                answer.stats.isomorphisms_found,
            );
        }
    }

    // The three algorithms must agree; QMatch just gets there with less work.
    let q3 = engine.prepare(&library::q3_redmi_negation(2)).unwrap();
    let a = q3
        .run(ExecOptions::sequential().with_config(MatchConfig::qmatch()))
        .unwrap();
    let b = q3
        .run(ExecOptions::sequential().with_config(MatchConfig::enumerate()))
        .unwrap();
    assert_eq!(a.matches, b.matches);
    println!(
        "\nall algorithms agree on the answer set ({} matches for Q3)",
        a.len()
    );
}
