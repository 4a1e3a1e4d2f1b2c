//! # quantified-graph-patterns
//!
//! Facade crate for the whole QGP stack: graph substrate, quantified
//! pattern language, the prepared-query engine, parallel matching,
//! association rules and dataset generators.  See the individual crates
//! for details.
//!
//! The root re-exports everything the common flow needs — build a graph
//! ([`GraphBuilder`]), express a quantified pattern ([`PatternBuilder`],
//! [`CountingQuantifier`]), and run it through the prepared-query engine
//! ([`Engine`], [`ExecOptions`]) — so the quickstart is a single `use`.
//!
//! ## Quickstart
//!
//! The core flow — the same as `cargo run --example quickstart`, on
//! pattern Q3 of the paper's running example:
//!
//! ```
//! use quantified_graph_patterns::{
//!     CountingQuantifier, Engine, ExecOptions, GraphBuilder, PatternBuilder,
//! };
//!
//! // A small social graph: users, follow edges, and who recommends (or
//! // pans) the "Redmi 2A" phone.
//! let mut g = GraphBuilder::new();
//! let ann = g.add_node("person");
//! let bob = g.add_node("person");
//! let cai = g.add_node("person");
//! let dee = g.add_node("person");
//! let fans = g.add_nodes("person", 4);
//! let phone = g.add_node("Redmi 2A");
//!
//! // ann follows two fans, both recommend the phone.
//! g.add_edge(ann, fans[0], "follow").unwrap();
//! g.add_edge(ann, fans[1], "follow").unwrap();
//! // bob follows three people; only one of them recommends (and none pans).
//! g.add_edge(bob, fans[2], "follow").unwrap();
//! g.add_edge(bob, ann, "follow").unwrap();
//! g.add_edge(bob, cai, "follow").unwrap();
//! // cai follows two fans and one person who gave a bad rating.
//! g.add_edge(cai, fans[2], "follow").unwrap();
//! g.add_edge(cai, fans[3], "follow").unwrap();
//! g.add_edge(cai, dee, "follow").unwrap();
//! for &f in &fans {
//!     g.add_edge(f, phone, "recom").unwrap();
//! }
//! g.add_edge(dee, phone, "bad_rating").unwrap();
//! let graph = g.build();
//!
//! // Q3: "people xo such that at least 2 of the people xo follows recommend
//! // the Redmi 2A, and nobody xo follows gave it a bad rating" — a numeric
//! // aggregate plus negation.
//! let mut b = PatternBuilder::new();
//! let xo = b.node_named("person", "xo");
//! let z1 = b.node_named("person", "z1");
//! let z2 = b.node_named("person", "z2");
//! let redmi = b.node("Redmi 2A");
//! b.quantified_edge(xo, z1, "follow", CountingQuantifier::at_least(2));
//! b.edge(z1, redmi, "recom");
//! b.negated_edge(xo, z2, "follow");
//! b.edge(z2, redmi, "bad_rating");
//! b.focus(xo);
//! let pattern = b.build().expect("pattern is well-formed");
//!
//! // Compile once; execute as often as needed.
//! let engine = Engine::new(&graph);
//! let prepared = engine.prepare(&pattern).expect("pattern validates");
//! let answer = prepared.run(ExecOptions::sequential()).unwrap();
//!
//! // ann qualifies (2 recommenders, no bad rating among her followees);
//! // bob fails the numeric aggregate; cai fails the negation.
//! assert_eq!(answer.matches, vec![ann]);
//!
//! // The prepared query is reusable — e.g. decide foci only until the
//! // first answer.
//! let first = prepared.run(ExecOptions::sequential().limit(1)).unwrap();
//! assert_eq!(first.matches, vec![ann]);
//!
//! // Or keep the answer live under edge updates: materialize a view and
//! // apply update batches to it.
//! use quantified_graph_patterns::EdgeOp;
//! let mut view = prepared.view();
//! assert_eq!(view.matches(), &[ann]);
//! // ann follows dee, who panned the phone — the negation now excludes ann.
//! let follow = graph.labels().edge_label("follow").unwrap();
//! let delta = view.apply(&[EdgeOp::insert(ann, dee, follow)]).unwrap();
//! assert_eq!(delta.removed, vec![ann]);
//! assert!(view.matches().is_empty());
//!
//! // To serve a graph that *keeps changing*, hand it to a `GraphStore`:
//! // the writer applies update batches and publishes immutable epoch
//! // snapshots; readers pin an epoch and are never blocked (or invalidated)
//! // by the writer racing ahead.
//! use quantified_graph_patterns::GraphStore;
//! let store = GraphStore::new(graph);
//! let pinned = store.snapshot();                                   // epoch 0
//! store.apply(&[EdgeOp::insert(ann, dee, follow)]).unwrap();       // epoch 1
//! assert_eq!(prepared.run_on(&pinned, ExecOptions::sequential()).unwrap().matches, vec![ann]);
//! let head = store.snapshot();
//! assert!(prepared.run_on(&head, ExecOptions::sequential()).unwrap().matches.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use qgp_core as core;
pub use qgp_datasets as datasets;
pub use qgp_graph as graph;
pub use qgp_parallel as parallel;
pub use qgp_rules as rules;
pub use qgp_runtime as runtime;

// The one execution surface, flattened to the root so the quickstart needs
// a single `use` line.
pub use qgp_core::engine::{
    BudgetStop, CacheStats, CountAnswer, CountMode, Engine, ExecBudget, ExecMode, ExecOptions,
    FocusCount, MatchView, PreparedQuery, QueryId, QueryRegistry, ServeOutcome, ServeRequest,
    TaskError, ViewDelta, ViewError,
};
pub use qgp_core::matching::{MatchConfig, MatchStats, QueryAnswer};
pub use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
pub use qgp_graph::{
    EdgeOp, Graph, GraphBuilder, GraphError, GraphSnapshot, GraphStore, LabelId, LabelSet, NodeId,
    UpdateReport,
};
pub use qgp_runtime::Runtime;
