//! # qgp-parallel
//!
//! Parallel scalable quantified matching (Section 5 of *"Adding Counting
//! Quantifiers to Graph Patterns"*, SIGMOD 2016):
//!
//! * [`partition::dpar_with`] — `DPar`, the d-hop preserving, balanced graph
//!   partition built once per graph and reused for every pattern of radius
//!   ≤ d,
//! * [`pqmatch::pqmatch_on`] — `PQMatch`, which evaluates a QGP over all
//!   fragments and unions the partial answers (the engine's partitioned
//!   mode, compiled and run in one call),
//! * [`pqmatch::ParallelConfig`] — the `PQMatch` / `PQMatchs` / `PQMatchn` /
//!   `PEnum` variants compared in the paper's evaluation.
//!
//! All parallelism in this crate runs on the [`qgp_runtime::Runtime`]
//! work-stealing executor the caller hands in (see `docs/RUNTIME.md`):
//! `PQMatch` submits one task per covered focus candidate and `DPar` one
//! task per border node, so skewed work (hub candidates, hub
//! neighborhoods) rebalances dynamically instead of serializing the
//! largest static chunk.
//! The paper's cluster of `n` machines is simulated in one process; the
//! parallel-scalability *shape* (more workers → less time) is preserved even
//! though absolute numbers differ.
//!
//! ```
//! use qgp_parallel::{dpar_with, PartitionConfig};
//! use qgp_core::engine::{Engine, ExecOptions};
//! use qgp_core::pattern::library;
//! use qgp_graph::GraphBuilder;
//! use qgp_runtime::Runtime;
//!
//! let mut b = GraphBuilder::new();
//! let ann = b.add_node("person");
//! let bob = b.add_node("person");
//! let phone = b.add_node("Redmi 2A");
//! b.add_edge(ann, bob, "follow").unwrap();
//! b.add_edge(bob, phone, "recom").unwrap();
//! let graph = b.build();
//!
//! // Partition once, then execute a prepared query in partitioned mode,
//! // both on a two-thread executor.
//! let runtime = Runtime::new(2);
//! let partition = dpar_with(&graph, &PartitionConfig::new(2, 2), &runtime);
//! let answer = Engine::new(&graph)
//!     .prepare(&library::q2_redmi_universal())
//!     .unwrap()
//!     .run(ExecOptions::partitioned_on(
//!         partition.fragments(),
//!         partition.d(),
//!         &runtime,
//!     ))
//!     .unwrap();
//! assert_eq!(answer.matches, vec![ann]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod pqmatch;

pub use partition::{dpar_with, DHopPartition, PartitionConfig, PartitionStats};
pub use pqmatch::{pqmatch_on, ParallelConfig};

#[cfg(test)]
#[path = "../../core/tests/common/mod.rs"]
mod test_support;
