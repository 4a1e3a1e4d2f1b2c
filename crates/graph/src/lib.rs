//! # qgp-graph
//!
//! Labeled, directed graph substrate used by the quantified graph pattern
//! (QGP) matching algorithms of *"Adding Counting Quantifiers to Graph
//! Patterns"* (SIGMOD 2016).
//!
//! A data graph `G = (V, E, L)` is a finite set of nodes `V`, a set of
//! directed edges `E ⊆ V × V`, and a labeling `L` that assigns a label to
//! every node and every edge (Section 2.1 of the paper).  This crate provides:
//!
//! * [`Graph`] — a frozen CSR (compressed sparse row) graph: flat neighbor
//!   arrays plus a dense per-`(node, label)` range index, so that `Mₑ(v)`
//!   (the children of `v` reachable via an edge with a given label, Table 1
//!   of the paper) and its size `|Mₑ(v)|` are constant-time slice lookups,
//! * [`LabelSet`] — string interning for node and edge labels,
//! * [`GraphBuilder`] — the batch loader and the only way a [`Graph`] is
//!   made: it interns the labels, stages edges in sorted per-source rows and
//!   freezes the CSR layout once at `build()`, without sorting; the built
//!   graph's node set and label vocabulary are fixed,
//! * [`delta`] — the update path for live graphs, and the only way edges
//!   change after the build: [`EdgeOp`] batches spliced into an overlay of
//!   copy-on-write node rows ([`Graph::apply_edge_ops`]) that is compacted
//!   back into the CSR at a configurable threshold,
//! * [`snapshot`] / [`store`] — the epoch architecture for serving under
//!   updates: a [`GraphStore`] applies `EdgeOp` batches and atomically
//!   publishes immutable, cheaply clonable [`GraphSnapshot`] epochs that
//!   readers pin without ever blocking on (or being blocked by) the writer,
//! * [`neighborhood`] — d-hop neighborhoods `N_d(v)` and BFS utilities used
//!   by the d-hop preserving partition of Section 5,
//! * [`fragment`] — fragments of a partitioned graph: node sets and the
//!   covered nodes each decides, used by the parallel algorithms,
//! * [`stats`] — degree and label statistics used by the synthetic dataset
//!   generators and the pattern generator of Section 7.
//!
//! ## Quickstart
//!
//! ```
//! use qgp_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let alice = b.add_node("person");
//! let phone = b.add_node("Redmi 2A");
//! b.add_edge(alice, phone, "recommends").unwrap();
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.edge_count(), 1);
//! let recommends = g.labels().edge_label("recommends").unwrap();
//! assert_eq!(g.out_neighbors_with_label_slice(alice, recommends).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub(crate) mod csr;
pub mod delta;
pub mod error;
pub mod fragment;
pub mod graph;
pub mod labels;
pub mod neighborhood;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use bitset::DenseBitSet;
pub use builder::GraphBuilder;
pub use delta::{EdgeOp, UpdateReport, UpdateStats};
pub use error::GraphError;
pub use fragment::{Fragment, FragmentId};
pub use graph::{EdgeRef, Graph, NodeId, DEFAULT_COMPACTION_THRESHOLD};
pub use labels::{LabelId, LabelSet};
pub use neighborhood::{d_hop_nodes, BfsScratch};
pub use snapshot::GraphSnapshot;
pub use stats::GraphStats;
pub use store::{publish_ordering, GraphStore, DEFAULT_LOG_RETENTION};
