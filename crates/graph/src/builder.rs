//! Ergonomic, batch-loading graph construction from string labels.
//!
//! The builder is the one way a [`Graph`] is made: it holds the label
//! vocabulary, the node-label table and the staged edges, and freezes them
//! once into a graph whose node set and vocabulary are fixed from then on
//! (edges change afterwards in [`crate::EdgeOp`] batches, over the labels
//! interned here).  Edges are staged in *per-source* vectors kept sorted by
//! `(label, target)`.  Staging an edge costs a binary search plus a short
//! memmove within one small, cache-resident vector — out-degrees are modest
//! in real graphs even when in-degrees are not — and gives an exact, online
//! duplicate answer without any global hash set.  The freeze at [`GraphBuilder::build`] is sort-free:
//!
//! * the out-CSR is the concatenation of the staged vectors (already in
//!   `(node, label, target)` order),
//! * the in-CSR is its transpose, a stable counting scatter — count per
//!   `(target, label)` bucket, prefix-sum into the dense range index, then
//!   scatter; visiting sources in ascending order makes every bucket arrive
//!   sorted.
//!
//! Total freeze cost is `O(V·L + E)`.  The seed implementation paid an
//! `O(d)` sorted insert into *both* endpoints' adjacency per edge, which on
//! hub-heavy graphs (items with tens of thousands of in-edges) turns
//! quadratic; the staged builder never touches the in-direction until the
//! single scatter pass.

use std::sync::Arc;

use crate::csr::CsrAdjacency;
use crate::error::GraphError;
use crate::graph::{check_node, Graph, NodeId};
use crate::labels::{LabelId, LabelSet};

/// A builder that constructs a [`Graph`] from string node and edge labels,
/// interning the labels on the fly and freezing the CSR storage once.
///
/// ```
/// use qgp_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let xo = b.add_node("person");
/// let club = b.add_node("music club");
/// b.add_edge(xo, club, "in").unwrap();
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    /// The label vocabulary, grown as nodes and edges name new labels.
    labels: LabelSet,
    /// `node_labels[v]` is the label of node `v`.
    node_labels: Vec<LabelId>,
    /// `staged[v]` = out-edges of `v` as `(label, target)`, sorted.
    staged: Vec<Vec<(LabelId, NodeId)>>,
    /// Total staged edges.
    staged_edges: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with node-side storage pre-sized for `nodes`
    /// nodes.  (Edges need no global reservation: they are staged in
    /// per-source vectors and the freeze allocates exact sizes.)
    pub fn with_capacity(nodes: usize) -> Self {
        GraphBuilder {
            node_labels: Vec::with_capacity(nodes),
            staged: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Creates an empty builder that starts from an existing label
    /// vocabulary, so the built graph's label ids are `labels`' ids.  An
    /// edge label that no staged edge carries is how a graph gets a label
    /// for its later [`crate::EdgeOp`]s.
    pub fn with_labels(labels: LabelSet) -> Self {
        GraphBuilder {
            labels,
            ..Self::default()
        }
    }

    /// Adds a node with the given string label.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        let id = self.labels.intern_node_label(label);
        self.node_labels.push(id);
        self.staged.push(Vec::new());
        NodeId::new(self.staged.len() - 1)
    }

    /// Adds `count` nodes that all carry the same label, returning their ids.
    pub fn add_nodes(&mut self, label: &str, count: usize) -> Vec<NodeId> {
        let id = self.labels.intern_node_label(label);
        let first = self.staged.len();
        self.node_labels.resize(first + count, id);
        self.staged.resize_with(first + count, Vec::new);
        (first..first + count).map(NodeId::new).collect()
    }

    /// Adds a directed edge with the given string label.  The edge is staged
    /// until [`GraphBuilder::build`], but duplicates and out-of-bounds
    /// endpoints are reported immediately.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: &str) -> Result<(), GraphError> {
        if self.stage_edge(from, to, label)? {
            Ok(())
        } else {
            Err(GraphError::DuplicateEdge { from, to })
        }
    }

    /// Adds a directed edge, silently ignoring exact duplicates.  Returns
    /// `Ok(true)` when the edge is new.
    pub fn add_edge_dedup(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: &str,
    ) -> Result<bool, GraphError> {
        self.stage_edge(from, to, label)
    }

    fn stage_edge(&mut self, from: NodeId, to: NodeId, label: &str) -> Result<bool, GraphError> {
        check_node(from, self.staged.len())?;
        check_node(to, self.staged.len())?;
        let id = self.labels.intern_edge_label(label);
        let list = &mut self.staged[from.index()];
        match list.binary_search(&(id, to)) {
            Ok(_) => Ok(false),
            Err(pos) => {
                list.insert(pos, (id, to));
                self.staged_edges += 1;
                Ok(true)
            }
        }
    }

    /// Finishes construction: freezes the staged edges into the graph's CSR
    /// storage (sort-free; see the module docs) and returns the graph.
    pub fn build(self) -> Graph {
        // `from_rows` asks for the groups in `(node, label)` order, so each
        // staged vector is consumed front to back, one label group a call.
        let mut rest: &[(LabelId, NodeId)] = &[];
        let out = CsrAdjacency::from_rows(
            self.staged.len(),
            self.labels.edge_label_count(),
            self.staged_edges,
            |v, l, row| {
                if l == 0 {
                    rest = &self.staged[v];
                }
                let group = rest
                    .iter()
                    .take_while(|&&(label, _)| label.index() == l)
                    .count();
                row.extend(rest[..group].iter().map(|&(_, to)| to));
                rest = &rest[group..];
            },
        );
        Graph::from_frozen(Arc::new(self.labels), self.node_labels, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_labels_lazily() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let c = b.add_node("person");
        let x = b.add_node("album");
        b.add_edge(a, c, "follow").unwrap();
        b.add_edge(a, x, "like").unwrap();
        b.add_edge(c, x, "like").unwrap();
        let g = b.build();
        assert_eq!(g.labels().node_label_count(), 2);
        assert_eq!(g.labels().edge_label_count(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn frozen_adjacency_matches_incremental_insertion() {
        // The sort-free freeze must agree with the incremental `Graph` path
        // (one-op `apply_edge_ops` batches over the same nodes) in both
        // directions, including label grouping and in-bucket order.  The
        // edge labels are interned up front, in the order the batch loader
        // meets them.
        let mut b = GraphBuilder::new();
        let nodes_b = b.add_nodes("n", 6);
        let mut labels = LabelSet::new();
        for name in ["s", "r"] {
            labels.intern_edge_label(name);
        }
        let mut nodes_only = GraphBuilder::with_labels(labels);
        let nodes_g = nodes_only.add_nodes("n", 6);
        let mut g = nodes_only.build();
        let edges = [
            (4usize, 0usize, "s"),
            (1, 0, "r"),
            (3, 0, "r"),
            (2, 0, "s"),
            (0, 5, "r"),
            (5, 0, "r"),
            (2, 1, "r"),
        ];
        for &(f, t, l) in &edges {
            b.add_edge(nodes_b[f], nodes_b[t], l).unwrap();
            let id = g.labels().edge_label(l).unwrap();
            let op = crate::EdgeOp::insert(nodes_g[f], nodes_g[t], id);
            assert_eq!(g.apply_edge_ops(&[op]).unwrap().inserted, 1);
        }
        let frozen = b.build();
        for v in frozen.nodes() {
            assert_eq!(frozen.out_neighbors_slice(v), g.out_neighbors_slice(v));
            assert_eq!(frozen.in_neighbors_slice(v), g.in_neighbors_slice(v));
            for e in frozen.out_edges(v) {
                assert!(g.has_edge(e.from, e.to, e.label));
            }
        }
        assert_eq!(frozen.edge_count(), g.edge_count());
    }

    #[test]
    fn add_nodes_creates_a_batch_with_one_label() {
        let mut b = GraphBuilder::with_capacity(5);
        let people = b.add_nodes("person", 5);
        assert_eq!(people.len(), 5);
        let g = b.build();
        let person = g.labels().node_label("person").unwrap();
        assert_eq!(g.nodes_with_label(person).len(), 5);
    }

    #[test]
    fn duplicate_edge_via_builder_is_reported() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let c = b.add_node("person");
        b.add_edge(a, c, "follow").unwrap();
        assert!(b.add_edge(a, c, "follow").is_err());
        assert_eq!(b.add_edge_dedup(a, c, "follow"), Ok(false));
    }

    #[test]
    fn out_of_bounds_edges_are_rejected_at_stage_time() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let bogus = NodeId::new(7);
        assert!(matches!(
            b.add_edge(a, bogus, "follow"),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert_eq!(b.build().edge_count(), 0);
    }
}
