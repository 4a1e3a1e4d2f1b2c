//! # qgp-rules
//!
//! Quantified graph association rules (QGARs), the application layer of
//! *"Adding Counting Quantifiers to Graph Patterns"* (SIGMOD 2016,
//! Section 6): rules `Q1(x_o) ⇒ Q2(x_o)` whose antecedent and consequent are
//! quantified graph patterns, with
//!
//! * topological **support** `|R(x_o, G)|` (anti-monotonic, Lemma 10),
//! * **confidence** under the local closed-world assumption (Appendix C),
//! * **quantified entity identification** (`R(x_o, η, G)`),
//! * sequential (`garMatch`) and parallel (`dgarMatch`) evaluation
//!   (Corollary 11), and
//! * a seed-and-strengthen miner reproducing the Exp-3 procedure: each
//!   seed feature is matched once, as one task on the shared
//!   [`qgp_runtime::Runtime`] work-stealing executor, and every seed pair
//!   and strengthening rung is evaluated from those answers.
//!
//! ```
//! use qgp_core::matching::MatchConfig;
//! use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
//! use qgp_graph::GraphBuilder;
//! use qgp_rules::{evaluate_rule, Qgar};
//!
//! // Tiny graph: ann follows two fans of an album and bought it.
//! let mut g = GraphBuilder::new();
//! let ann = g.add_node("person");
//! let album = g.add_node("album");
//! for _ in 0..2 {
//!     let fan = g.add_node("person");
//!     g.add_edge(ann, fan, "follow").unwrap();
//!     g.add_edge(fan, album, "like").unwrap();
//! }
//! g.add_edge(ann, album, "buy").unwrap();
//! let graph = g.build();
//!
//! // R: "if ≥ 80% of xo's followees like an album, xo buys it".
//! let mut b = PatternBuilder::new();
//! let xo = b.node("person");
//! let z = b.node("person");
//! let y = b.node("album");
//! b.quantified_edge(xo, z, "follow", CountingQuantifier::at_least_percent(80.0));
//! b.edge(z, y, "like");
//! b.focus(xo);
//! let antecedent = b.build().unwrap();
//!
//! let mut b = PatternBuilder::new();
//! let xo = b.node("person");
//! let y = b.node("album");
//! b.edge(xo, y, "buy");
//! b.focus(xo);
//! let consequent = b.build().unwrap();
//!
//! let rule = Qgar::new("R1", antecedent, consequent).unwrap();
//! let eval = evaluate_rule(&graph, &rule, &MatchConfig::qmatch()).unwrap();
//! assert_eq!(eval.support, 1);
//! assert_eq!(eval.rule_matches, vec![ann]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod evaluate;
pub mod mining;
pub mod rule;

pub use error::RuleError;
pub use evaluate::{evaluate_rule, evaluate_rule_parallel, identify_entities, RuleEvaluation};
pub use mining::{mine_qgars_with_report, MinedRule, MiningConfig, MiningReport};
pub use rule::Qgar;
