//! Ergonomic, batch-loading graph construction from string labels.
//!
//! The builder is the bulk-load path of the frozen CSR storage.  Nodes are
//! appended eagerly (cheap); edges are staged in *per-source* vectors kept
//! sorted by `(label, target)`.  Staging an edge costs a binary search plus
//! a short memmove within one small, cache-resident vector — out-degrees are
//! modest in real graphs even when in-degrees are not — and gives an exact,
//! online duplicate answer without any global hash set.  The freeze at
//! [`GraphBuilder::build`] is sort-free:
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

use crate::csr::CsrAdjacency;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use crate::labels::LabelId;

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
    /// Holds the label vocabulary and the nodes; its edge storage is only
    /// rebuilt from `staged` when freezing.
    graph: Graph,
    /// `staged[v]` = out-edges of `v` as `(label, target)`, sorted.  This is
    /// the single source of truth for edges until the freeze.
    staged: Vec<Vec<(LabelId, NodeId)>>,
    /// Total staged edges.
    staged_edges: usize,
    /// Do `graph`'s frozen edges lag behind `staged`?
    dirty: bool,
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
        let mut b = Self::new();
        b.staged.reserve(nodes);
        b.graph.reserve_nodes(nodes);
        b
    }

    /// Creates a builder seeded with an existing graph, allowing further
    /// nodes and edges to be appended.
    pub fn from_graph(graph: Graph) -> Self {
        let staged: Vec<Vec<(LabelId, NodeId)>> = graph
            .nodes()
            .map(|v| graph.out_edges(v).map(|e| (e.label, e.to)).collect())
            .collect();
        let staged_edges = graph.edge_count();
        Self {
            graph,
            staged,
            staged_edges,
            dirty: false,
        }
    }

    /// Adds a node with the given string label.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        self.staged.push(Vec::new());
        self.graph.add_node_with_name(label)
    }

    /// Adds `count` nodes that all carry the same label, returning their ids.
    pub fn add_nodes(&mut self, label: &str, count: usize) -> Vec<NodeId> {
        let id = self.graph.labels_mut().intern_node_label(label);
        self.staged
            .extend(std::iter::repeat_with(Vec::new).take(count));
        (0..count).map(|_| self.graph.add_node(id)).collect()
    }

    /// Adds a directed edge with the given string label.  The edge is staged
    /// (not yet visible in the frozen adjacency) but duplicates and
    /// out-of-bounds endpoints are reported immediately.
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
        self.graph.check_node(from)?;
        self.graph.check_node(to)?;
        let id = self.graph.labels_mut().intern_edge_label(label);
        let list = &mut self.staged[from.index()];
        match list.binary_search(&(id, to)) {
            Ok(_) => Ok(false),
            Err(pos) => {
                list.insert(pos, (id, to));
                self.staged_edges += 1;
                self.dirty = true;
                Ok(true)
            }
        }
    }

    /// Freezes the staged edges into the graph's CSR storage (sort-free; see
    /// the module docs).
    fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        let label_count = self.graph.labels().edge_label_count();
        // `from_rows` asks for the groups in `(node, label)` order, so each
        // staged vector is consumed front to back, one label group a call.
        let mut rest: &[(LabelId, NodeId)] = &[];
        let out = CsrAdjacency::from_rows(
            self.staged.len(),
            label_count,
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
        self.graph.set_frozen_edges(out);
        self.dirty = false;
    }

    /// Read access to the graph under construction.  Freezes any staged
    /// edges first (hence `&mut self`); prefer calling it sparingly — every
    /// call after new edges were staged pays an `O(V·L + E)` freeze.
    pub fn graph(&mut self) -> &Graph {
        self.flush();
        &self.graph
    }

    /// Finishes construction, freezing all staged edges, and returns the
    /// graph.
    pub fn build(mut self) -> Graph {
        self.flush();
        self.graph
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
        // in both directions, including label grouping and in-bucket order.
        let mut b = GraphBuilder::new();
        let mut g = Graph::new();
        let nodes_b = b.add_nodes("n", 6);
        let label = g.labels_mut().intern_node_label("n");
        let nodes_g: Vec<_> = (0..6).map(|_| g.add_node(label)).collect();
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
            let id = g.labels_mut().intern_edge_label(l);
            g.add_edge(nodes_g[f], nodes_g[t], id).unwrap();
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

    #[test]
    fn from_graph_appends_to_existing_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let g = b.build();

        let mut b2 = GraphBuilder::from_graph(g);
        let c = b2.add_node("person");
        b2.add_edge(a, c, "follow").unwrap();
        // Duplicates against the pre-existing graph are also detected.
        assert_eq!(b2.add_edge_dedup(a, c, "follow"), Ok(false));
        let g2 = b2.build();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn from_graph_preserves_existing_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let c = b.add_node("person");
        b.add_edge(a, c, "follow").unwrap();
        let g = b.build();

        let mut b2 = GraphBuilder::from_graph(g);
        let d = b2.add_node("person");
        b2.add_edge(c, d, "follow").unwrap();
        let g2 = b2.build();
        assert_eq!(g2.edge_count(), 2);
        assert!(g2.has_any_edge(a, c));
        assert!(g2.has_any_edge(c, d));
    }

    #[test]
    fn graph_accessor_freezes_staged_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("person");
        let c = b.add_node("person");
        b.add_edge(a, c, "follow").unwrap();
        assert_eq!(b.graph().edge_count(), 1);
        assert_eq!(b.graph().out_neighbors(a).collect::<Vec<_>>(), vec![c]);
        b.add_edge(c, a, "follow").unwrap();
        assert_eq!(b.graph().edge_count(), 2);
    }
}
