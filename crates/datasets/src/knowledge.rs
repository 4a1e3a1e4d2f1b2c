//! A YAGO2-like synthetic knowledge graph.
//!
//! The paper evaluates on YAGO2 (1.99 M nodes of 13 types, 5.65 M edges of 36
//! types, much sparser than a social network).  This generator produces a
//! seeded academic-flavoured knowledge graph with the same shape: typed
//! entities (people, professors, PhD degrees, universities, countries,
//! cities, prizes, fields, organizations, books) connected by sparse typed
//! relations (`is_a`, `in`, `advisor`, `won`, `graduated_from`, `works_at`,
//! `citizen_of`, `born_in`, `located_in`, `wrote`, ...).
//!
//! Countries are materialized as individually labeled nodes (`"UK"`, `"US"`,
//! ...) so that constant-bearing patterns such as `Q4` ("professors in the
//! UK") can be expressed through node labels exactly as in the paper.
//! `advisor` edges are oriented from the advisor to the student, matching
//! [`qgp_core::pattern::library::q4_uk_professors`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qgp_graph::{Graph, GraphBuilder, NodeId};

/// Configuration of the YAGO2-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnowledgeConfig {
    /// Number of person entities (researchers, students, authors).
    pub persons: usize,
    /// Fraction of persons that are professors.
    pub professor_fraction: f64,
    /// Average number of students a professor advises.
    pub avg_students: usize,
    /// RNG seed.
    pub seed: u64,
}

impl KnowledgeConfig {
    /// A graph with the given number of persons and default shape parameters.
    pub fn with_persons(persons: usize) -> Self {
        KnowledgeConfig {
            persons,
            ..Default::default()
        }
    }
}

impl Default for KnowledgeConfig {
    fn default() -> Self {
        KnowledgeConfig {
            persons: 2_000,
            professor_fraction: 0.3,
            avg_students: 3,
            seed: 7,
        }
    }
}

const COUNTRIES: &[&str] = &[
    "UK", "US", "France", "Germany", "China", "Japan", "Brazil", "India", "Canada", "Italy",
];

/// Generates a YAGO2-like knowledge graph.
pub fn yago_like(config: &KnowledgeConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.persons.max(1);
    // Persons plus roughly 1/8 concept/entity nodes (universities, books, …).
    let mut b = GraphBuilder::with_capacity(n + n / 8);
    let persons: Vec<NodeId> = b.add_nodes("person", n);

    // Concept and entity nodes.
    let prof = b.add_node("prof");
    let phd = b.add_node("PhD");
    let countries: Vec<NodeId> = COUNTRIES.iter().map(|c| b.add_node(c)).collect();
    let universities: Vec<NodeId> = (0..(n / 40).max(2))
        .map(|_| b.add_node("university"))
        .collect();
    let cities: Vec<NodeId> = (0..(n / 60).max(2)).map(|_| b.add_node("city")).collect();
    let prizes: Vec<NodeId> = (0..12).map(|_| b.add_node("prize")).collect();
    let fields: Vec<NodeId> = (0..15).map(|_| b.add_node("field")).collect();
    let orgs: Vec<NodeId> = (0..(n / 100).max(2))
        .map(|_| b.add_node("organization"))
        .collect();
    let books: Vec<NodeId> = (0..(n / 10).max(2)).map(|_| b.add_node("book")).collect();

    // City / university placement.
    for (i, &u) in universities.iter().enumerate() {
        let country = countries[i % countries.len()];
        let _ = b.add_edge_dedup(u, country, "located_in");
        let _ = b.add_edge_dedup(u, cities[i % cities.len()], "in");
    }

    let mut is_prof = vec![false; n];
    for (i, &p) in persons.iter().enumerate() {
        let country = countries[i % countries.len()];
        let university = universities[i % universities.len()];
        let city = cities[rng.gen_range(0..cities.len())];
        let field = fields[rng.gen_range(0..fields.len())];

        let _ = b.add_edge_dedup(p, country, "in");
        if rng.gen_bool(0.7) {
            let _ = b.add_edge_dedup(p, country, "citizen_of");
        }
        let _ = b.add_edge_dedup(p, city, "born_in");
        let _ = b.add_edge_dedup(p, field, "works_on");

        if rng.gen_bool(config.professor_fraction) {
            is_prof[i] = true;
            let _ = b.add_edge_dedup(p, prof, "is_a");
            let _ = b.add_edge_dedup(p, university, "works_at");
            if rng.gen_bool(0.3) {
                let prize = prizes[rng.gen_range(0..prizes.len())];
                let _ = b.add_edge_dedup(p, prize, "won");
            }
            if rng.gen_bool(0.2) {
                let prize = prizes[rng.gen_range(0..prizes.len())];
                let _ = b.add_edge_dedup(p, prize, "won");
            }
        }
        // Most professors also hold a PhD; a minority do not (they make the
        // negated edge of Q4 selective instead of vacuous).
        if (is_prof[i] && rng.gen_bool(0.6)) || (!is_prof[i] && rng.gen_bool(0.4)) {
            let _ = b.add_edge_dedup(p, phd, "is_a");
        }
        let _ = b.add_edge_dedup(p, university, "graduated_from");
        if rng.gen_bool(0.25) {
            let org = orgs[rng.gen_range(0..orgs.len())];
            let _ = b.add_edge_dedup(p, org, "member_of");
        }
        if rng.gen_bool(0.3) {
            let book = books[rng.gen_range(0..books.len())];
            let _ = b.add_edge_dedup(p, book, "wrote");
        }
    }

    // Advisor edges: professors advise students, mostly from their own
    // country, and academic lineages tend to stay in academia (students often
    // become professors themselves).  The edge is oriented advisor → student,
    // matching the Q4 pattern orientation.
    let country_count = countries.len();
    for (i, &p) in persons.iter().enumerate() {
        if !is_prof[i] {
            continue;
        }
        let students = rng.gen_range(0..=config.avg_students.max(1) * 2);
        for _ in 0..students {
            let offset = if rng.gen_bool(0.7) {
                // Same-country student: keep the index congruent mod the
                // number of countries.
                country_count * rng.gen_range(1..=(n / country_count).max(2))
            } else {
                rng.gen_range(1..=(n / 10).max(2))
            };
            let j = (i + offset) % n;
            if j != i {
                let _ = b.add_edge_dedup(p, persons[j], "advisor");
                if rng.gen_bool(0.6) {
                    let _ = b.add_edge_dedup(persons[j], prof, "is_a");
                }
            }
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgp_graph::GraphStats;

    #[test]
    fn generator_is_deterministic_and_sparse() {
        let config = KnowledgeConfig::with_persons(500);
        let a = yago_like(&config);
        let b = yago_like(&config);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        // Knowledge graphs are sparse relative to social graphs.
        let stats = GraphStats::compute(&a);
        assert!(stats.avg_out_degree < 15.0);
    }

    #[test]
    fn label_vocabulary_covers_the_q4_constants() {
        let g = yago_like(&KnowledgeConfig::with_persons(300));
        for label in ["person", "prof", "PhD", "UK", "university", "prize"] {
            assert!(
                g.labels().node_label(label).is_some(),
                "missing node label {label}"
            );
        }
        for label in ["is_a", "in", "advisor", "won", "graduated_from"] {
            assert!(
                g.labels().edge_label(label).is_some(),
                "missing edge label {label}"
            );
        }
    }

    #[test]
    fn q4_has_matches_on_the_knowledge_graph() {
        use qgp_core::engine::{Engine, ExecOptions};
        use qgp_core::pattern::library;
        let g = yago_like(&KnowledgeConfig::with_persons(800));
        let ans = Engine::new(&g)
            .prepare(&library::q4_uk_professors(2))
            .unwrap()
            .run(ExecOptions::sequential())
            .unwrap();
        assert!(
            !ans.is_empty(),
            "UK professors with ≥2 students and no PhD should exist"
        );
    }

    #[test]
    fn professors_advise_students() {
        let g = yago_like(&KnowledgeConfig::with_persons(400));
        let advisor = g.labels().edge_label("advisor").unwrap();
        let total_advised: usize = g.nodes().map(|v| g.out_degree_with_label(v, advisor)).sum();
        assert!(total_advised > 50);
    }
}
