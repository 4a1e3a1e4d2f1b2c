//! # qgp-core
//!
//! Quantified graph patterns (QGPs) and quantified matching, reproducing the
//! core contribution of *"Adding Counting Quantifiers to Graph Patterns"*
//! (Fan, Wu, Xu — SIGMOD 2016).
//!
//! A QGP extends a conventional graph pattern by annotating each edge with a
//! counting quantifier: a numeric aggregate (`≥ p`, `= p`), a ratio aggregate
//! (`≥ p%`, `= 100%`), or negation (`= 0`).  These uniformly express
//! existential and universal quantification, numeric and ratio aggregates,
//! and negation, while keeping matching complexity low (NP-complete without
//! negation, DP-complete with it).
//!
//! ## Quickstart
//!
//! ```
//! use qgp_core::pattern::{PatternBuilder, CountingQuantifier};
//! use qgp_core::engine::{Engine, ExecOptions};
//! use qgp_graph::GraphBuilder;
//!
//! // A tiny social graph: ann follows bob and cat, both recommend a phone.
//! let mut g = GraphBuilder::new();
//! let ann = g.add_node("person");
//! let bob = g.add_node("person");
//! let cat = g.add_node("person");
//! let phone = g.add_node("Redmi 2A");
//! g.add_edge(ann, bob, "follow").unwrap();
//! g.add_edge(ann, cat, "follow").unwrap();
//! g.add_edge(bob, phone, "recom").unwrap();
//! g.add_edge(cat, phone, "recom").unwrap();
//! let graph = g.build();
//!
//! // "people, all of whose followees recommend Redmi 2A"
//! let mut b = PatternBuilder::new();
//! let xo = b.node("person");
//! let z = b.node("person");
//! let y = b.node("Redmi 2A");
//! b.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
//! b.edge(z, y, "recom");
//! b.focus(xo);
//! let pattern = b.build().unwrap();
//!
//! // Prepare once, execute as often as needed.
//! let engine = Engine::new(&graph);
//! let prepared = engine.prepare(&pattern).unwrap();
//! let answer = prepared.run(ExecOptions::sequential()).unwrap();
//! assert_eq!(answer.matches, vec![ann]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod matching;
pub mod pattern;

// The shared test helper names this crate the way integration tests do.
#[cfg(test)]
extern crate self as qgp_core;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
pub(crate) mod test_support;

pub use engine::{CountAnswer, Engine, ExecMode, ExecOptions, FocusCount, PreparedQuery};
pub use error::{MatchError, PatternError};
pub use matching::{CountMode, MatchConfig, MatchStats, QueryAnswer};
pub use pattern::{CountingQuantifier, Pattern, PatternBuilder, PatternEdgeId, PatternNodeId};
