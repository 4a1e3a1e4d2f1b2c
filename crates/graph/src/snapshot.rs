//! Immutable, epoch-stamped graph versions.
//!
//! A [`GraphSnapshot`] is a [`Graph`] frozen at a point in time, tagged with
//! the epoch number that produced it.  Snapshots are published by a
//! [`crate::GraphStore`] behind `Arc` and pinned by readers: once a reader
//! holds an `Arc<GraphSnapshot>`, no synchronization of any kind is needed
//! to query it, and the writer can race arbitrarily far ahead — copy-on-write
//! sharing inside [`Graph`] keeps each retained epoch a handful of
//! reference-count bumps rather than a full copy.

use std::ops::Deref;

use crate::graph::Graph;

/// An immutable graph version: a sealed [`Graph`] (frozen CSR plus its
/// bounded delta overlay) stamped with the epoch that produced it.
///
/// `GraphSnapshot` dereferences to [`Graph`], so every read accessor
/// (`out_neighbors_with_label_slice`, `has_edge`, …) is available directly.
/// There is deliberately no mutable access: updates go through a
/// [`crate::GraphStore`], which publishes a *new* snapshot per batch.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    graph: Graph,
    epoch: u64,
}

impl GraphSnapshot {
    /// Seals a graph as an epoch-0 snapshot — the entry point for callers
    /// that have a fully built [`Graph`] and no store (e.g. one-shot query
    /// engines over a static graph).
    pub fn new(graph: Graph) -> Self {
        Self::at_epoch(graph, 0)
    }

    /// Seals a graph at a specific epoch (store-internal).
    pub(crate) fn at_epoch(graph: Graph, epoch: u64) -> Self {
        GraphSnapshot { graph, epoch }
    }

    /// The epoch this snapshot was published at.  Epochs count update
    /// batches: a [`crate::GraphStore`] starts at 0 and increments once per
    /// [`crate::GraphStore::apply`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed graph itself (also reachable through `Deref`).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl Deref for GraphSnapshot {
    type Target = Graph;

    #[inline]
    fn deref(&self) -> &Graph {
        &self.graph
    }
}

impl From<Graph> for GraphSnapshot {
    fn from(graph: Graph) -> Self {
        GraphSnapshot::new(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn snapshot_derefs_to_graph_reads() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let c = b.add_node("person");
        b.add_edge(a, c, "follows").unwrap();
        let snap = GraphSnapshot::new(b.build());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.node_count(), 2);
        let follows = snap.labels().edge_label("follows").unwrap();
        assert!(snap.has_edge(a, c, follows));
    }

    #[test]
    fn snapshot_clone_shares_frozen_storage() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let c = b.add_node("person");
        b.add_edge(a, c, "follows").unwrap();
        let snap = GraphSnapshot::new(b.build());
        let clone = snap.clone();
        assert!(snap.graph().shares_frozen_storage(clone.graph()));
    }
}
