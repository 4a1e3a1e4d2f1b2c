//! The labeled, directed data graph `G = (V, E, L)`.
//!
//! Storage is a frozen CSR layout per direction (see the `csr` module): flat
//! neighbor arrays plus a dense per-`(node, label)` range index, so the
//! neighborhood sets `Mₑ(v)` of Table 1 and the degrees `|Mₑ(v)|` that seed
//! the `QMatch` upper bounds are constant-time slice lookups.
//!
//! A graph's node set and label vocabulary are fixed when it is made:
//! [`crate::GraphBuilder`] interns the labels, creates the nodes and stages
//! sorted rows, then freezes once, by a sort-free `O(V·L + E)` row
//! concatenation plus transpose.  Only edges change afterwards, in
//! [`EdgeOp`] batches through the delta overlay (see the `delta` module):
//! [`Graph::apply_edge_ops`] splices each batch into the rows of the nodes
//! it touches, installs them as fresh shared rows, and splices them into
//! the frozen arrays, at the build's stride, once the overlay grows past
//! [`Graph::compaction_threshold`].

use std::sync::Arc;

use crate::csr::CsrAdjacency;
use crate::delta::{EdgeOp, GraphDelta, UpdateReport, UpdateStats};
use crate::error::GraphError;
use crate::labels::{LabelId, LabelSet};

/// Number of pending updates — edges whose presence differs from the frozen
/// CSR — at which [`Graph::apply_edge_ops`] folds them back into the CSR.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 1024;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indexes assigned in builder order; `u32` keeps the
/// adjacency arrays compact (graphs of up to ~4 billion nodes are supported,
/// far beyond what fits in memory anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the raw index of this node id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to a directed, labeled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Source node of the edge.
    pub from: NodeId,
    /// Target node of the edge.
    pub to: NodeId,
    /// Edge label.
    pub label: LabelId,
}

/// A labeled, directed graph (Section 2.1 of the paper).
///
/// * every node carries exactly one node label,
/// * every edge carries exactly one edge label,
/// * parallel edges with *different* labels between the same node pair are
///   allowed (as in property graphs), identical `(from, to, label)` triples
///   are not.
///
/// Cloning is cheap: the frozen storage (both CSR directions, the node
/// table, the per-label node index and the label vocabulary) lives behind
/// [`Arc`]s that are never written, so a clone is a handful of
/// reference-count bumps plus one pointer per 1,024 nodes of the delta
/// overlay, whose rows are shared the same way.  Two clones share the
/// frozen arrays until one of them compacts, which installs fresh arrays
/// — this is what makes [`crate::GraphSnapshot`] epochs and live match
/// views memory-cheap.
#[derive(Debug, Clone)]
pub struct Graph {
    labels: Arc<LabelSet>,
    node_labels: Arc<Vec<LabelId>>,
    out: Arc<CsrAdjacency>,
    inn: Arc<CsrAdjacency>,
    /// `nodes_by_label[l]` lists every node whose label is `l`.
    nodes_by_label: Arc<Vec<Vec<NodeId>>>,
    edge_count: usize,
    /// Pending updates not yet folded into the frozen CSR base.  `None`
    /// when the graph is fully compacted (the common read-only state).
    delta: Option<Box<GraphDelta>>,
    /// Configured compaction threshold; `0` means
    /// [`DEFAULT_COMPACTION_THRESHOLD`].
    compaction_threshold: usize,
    /// Lifetime update-path counters.
    update_stats: UpdateStats,
}

impl Graph {
    /// Assembles a compacted graph from its vocabulary, its node-label table
    /// and its frozen out-CSR: indexes the nodes by label and derives the
    /// in-CSR as the transpose.  The one way a `Graph` is made, called by
    /// [`GraphBuilder::build`](crate::GraphBuilder::build) alone; from then
    /// on the node set and the vocabulary are fixed.
    pub(crate) fn from_frozen(
        labels: Arc<LabelSet>,
        node_labels: Vec<LabelId>,
        out: CsrAdjacency,
    ) -> Self {
        let mut nodes_by_label = vec![Vec::new(); labels.node_label_count()];
        for (v, label) in node_labels.iter().enumerate() {
            nodes_by_label[label.index()].push(NodeId::new(v));
        }
        Graph {
            labels,
            node_labels: Arc::new(node_labels),
            inn: Arc::new(out.transpose()),
            edge_count: out.edge_count(),
            out: Arc::new(out),
            nodes_by_label: Arc::new(nodes_by_label),
            delta: None,
            compaction_threshold: 0,
            update_stats: UpdateStats::default(),
        }
    }

    /// Read access to the label vocabulary.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Whether `self` and `other` still share their frozen storage (both
    /// CSR directions) — i.e. neither side has un-shared it by mutating
    /// since they were cloned from one another.  Diagnostic hook for the
    /// copy-on-write contract; used by snapshot/view memory tests.
    pub fn shares_frozen_storage(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.out, &other.out) && Arc::ptr_eq(&self.inn, &other.inn)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total size `|G| = |V| + |E|` as used in the paper's complexity bounds.
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_labels.is_empty()
    }

    /// Applies a batch of edge mutations through the delta overlay — the
    /// only way a graph's edges change.
    ///
    /// Ops apply in order with set semantics: inserting a present edge or
    /// deleting an absent one is a counted no-op (see [`UpdateReport`]), and
    /// a delete-then-reinsert inside one batch cancels out.  If any op
    /// names a node id that does not exist ([`GraphError::NodeOutOfBounds`])
    /// or an edge label the vocabulary never interned
    /// ([`GraphError::UnknownEdgeLabel`]), the whole batch fails and the
    /// graph, its counters included, is left untouched.
    ///
    /// Cost is `O(ops · log ops + Σ degree(touched))`: ops are staged in a
    /// map and only the touched node rows are re-materialized, each by
    /// copying its current row around the staged changes.  Once the pending
    /// count reaches [`Graph::compaction_threshold`] the overlay is folded
    /// back into the frozen CSR (reported via [`UpdateReport::compacted`])
    /// by a splice: one pass over the runs of unpatched nodes plus Σ of the
    /// patched rows, per direction.
    pub fn apply_edge_ops(&mut self, ops: &[EdgeOp]) -> Result<UpdateReport, GraphError> {
        let (node_count, label_count) = (self.node_count(), self.labels.edge_label_count());
        for op in ops {
            check_node(op.from(), node_count)?;
            check_node(op.to(), node_count)?;
            if op.label().index() >= label_count {
                return Err(GraphError::UnknownEdgeLabel {
                    label: op.label(),
                    label_count,
                });
            }
        }
        let mut report = UpdateReport::default();
        if ops.is_empty() {
            return Ok(report);
        }
        let threshold = self.compaction_threshold();
        let n = self.node_count();
        let delta = self
            .delta
            .get_or_insert_with(|| Box::new(GraphDelta::new(n)));
        for op in ops {
            if delta.apply(&self.out, &self.inn, op) {
                if op.is_insert() {
                    self.edge_count += 1;
                    report.inserted += 1;
                } else {
                    self.edge_count -= 1;
                    report.deleted += 1;
                }
            } else if op.is_insert() {
                report.noop_inserts += 1;
            } else {
                report.noop_deletes += 1;
            }
        }
        report.nodes_patched = delta.repatch_all(&self.out, &self.inn);
        let pending = delta.pending();

        self.update_stats.ops_applied += ops.len();
        self.update_stats.edges_inserted += report.inserted;
        self.update_stats.edges_deleted += report.deleted;
        self.update_stats.noop_inserts += report.noop_inserts;
        self.update_stats.noop_deletes += report.noop_deletes;
        self.update_stats.nodes_patched += report.nodes_patched;

        if pending >= threshold {
            self.compact_updates();
            report.compacted = true;
        }
        Ok(report)
    }

    /// Folds any pending overlay updates back into the frozen CSR base,
    /// leaving the graph fully compacted: per direction, one pass over the
    /// runs of unpatched nodes plus Σ of the patched rows, spliced into
    /// fresh arrays.  The replaced arrays are never written, so a published
    /// snapshot that shares them keeps them as they are.  A no-op when
    /// nothing is pending.
    pub fn compact_updates(&mut self) {
        // With nothing pending every patch equals its base row, so dropping
        // the overlay suffices.
        let Some(delta) = self.delta.take().filter(|d| d.pending() > 0) else {
            return;
        };
        let edges = self.edge_count;
        self.out = Arc::new(self.out.splice(edges, delta.out.patches()));
        self.inn = Arc::new(self.inn.splice(edges, delta.inn.patches()));
        self.update_stats.compactions += 1;
    }

    /// The pending count (see [`Graph::pending_updates`]) at which
    /// [`Graph::apply_edge_ops`] compacts.
    pub fn compaction_threshold(&self) -> usize {
        if self.compaction_threshold == 0 {
            DEFAULT_COMPACTION_THRESHOLD
        } else {
            self.compaction_threshold
        }
    }

    /// Overrides the compaction threshold (`0` restores the default).  A
    /// threshold of 1 compacts after every mutating batch — useful in tests.
    pub fn set_compaction_threshold(&mut self, threshold: usize) {
        self.compaction_threshold = threshold;
    }

    /// Number of edges whose presence differs from the frozen CSR (inserted
    /// non-base edges plus deleted base edges), not yet folded into it.
    pub fn pending_updates(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.pending())
    }

    /// Lifetime update-path counters (see [`UpdateStats`]).
    pub fn update_stats(&self) -> &UpdateStats {
        &self.update_stats
    }

    /// `Mₑ(v)` in the out direction through the overlay, raw-index form.
    #[inline]
    fn out_slice(&self, v: usize, l: usize) -> &[NodeId] {
        match &self.delta {
            None => self.out.slice(v, l),
            Some(d) => d.out.slice(&self.out, v, l),
        }
    }

    /// `Mₑ(v)` in the in direction through the overlay, raw-index form.
    #[inline]
    fn in_slice(&self, v: usize, l: usize) -> &[NodeId] {
        match &self.delta {
            None => self.inn.slice(v, l),
            Some(d) => d.inn.slice(&self.inn, v, l),
        }
    }

    #[inline]
    fn out_node_slice(&self, v: usize) -> &[NodeId] {
        match &self.delta {
            None => self.out.node_slice(v),
            Some(d) => d.out.node_slice(&self.out, v),
        }
    }

    #[inline]
    fn in_node_slice(&self, v: usize) -> &[NodeId] {
        match &self.delta {
            None => self.inn.node_slice(v),
            Some(d) => d.inn.node_slice(&self.inn, v),
        }
    }

    /// Node label of `v`.
    #[inline]
    pub fn node_label(&self, v: NodeId) -> LabelId {
        self.node_labels[v.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// All nodes carrying node label `label` (the initial candidate set
    /// `C(u)` of `FilterCandidate` in Fig. 4 of the paper).
    pub fn nodes_with_label(&self, label: LabelId) -> &[NodeId] {
        self.nodes_by_label
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Out-degree of `v` (counting all edge labels).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_node_slice(v.index()).len()
    }

    /// In-degree of `v` (counting all edge labels).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_node_slice(v.index()).len()
    }

    /// All outgoing edges of `v`, grouped by edge label.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.out.label_count()).flat_map(move |l| {
            self.out_slice(v.index(), l).iter().map(move |&to| EdgeRef {
                from: v,
                to,
                label: LabelId(l as u32),
            })
        })
    }

    /// All incoming edges of `v`, grouped by edge label.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.inn.label_count()).flat_map(move |l| {
            self.in_slice(v.index(), l)
                .iter()
                .map(move |&from| EdgeRef {
                    from,
                    to: v,
                    label: LabelId(l as u32),
                })
        })
    }

    /// All out-neighbors of `v` regardless of edge label, as one contiguous
    /// slice (grouped by edge label; a neighbor reachable via several labels
    /// appears once per label).
    #[inline]
    pub fn out_neighbors_slice(&self, v: NodeId) -> &[NodeId] {
        self.out_node_slice(v.index())
    }

    /// All in-neighbors of `v` regardless of edge label, as one slice.
    #[inline]
    pub fn in_neighbors_slice(&self, v: NodeId) -> &[NodeId] {
        self.in_node_slice(v.index())
    }

    /// The children of `v` reachable via an edge labeled `label` as a sorted
    /// slice: `Mₑ(v) = {v' | (v, v') ∈ E, L(v, v') = label}` (Table 1).
    /// Constant-time via the dense per-`(node, label)` range index.
    #[inline]
    pub fn out_neighbors_with_label_slice(&self, v: NodeId, label: LabelId) -> &[NodeId] {
        self.out_slice(v.index(), label.index())
    }

    /// The parents of `v` reachable via an edge labeled `label`, sorted.
    #[inline]
    pub fn in_neighbors_with_label_slice(&self, v: NodeId, label: LabelId) -> &[NodeId] {
        self.in_slice(v.index(), label.index())
    }

    /// `|Mₑ(v)|` — number of children of `v` connected by an edge labeled
    /// `label`.  Used as the denominator of ratio aggregates and as the
    /// initial upper bound `U(v, e)` of the `QMatch` auxiliary structures.
    #[inline]
    pub fn out_degree_with_label(&self, v: NodeId, label: LabelId) -> usize {
        self.out_slice(v.index(), label.index()).len()
    }

    /// Number of parents of `v` connected by an edge labeled `label`.
    #[inline]
    pub fn in_degree_with_label(&self, v: NodeId, label: LabelId) -> usize {
        self.in_slice(v.index(), label.index()).len()
    }

    /// Tests whether the edge `(from, to)` with label `label` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId, label: LabelId) -> bool {
        if from.index() >= self.node_count() {
            return false;
        }
        match &self.delta {
            None => self.out.contains(from.index(), label.index(), to),
            Some(d) => d.out.contains(&self.out, from.index(), label.index(), to),
        }
    }

    /// Iterates over every edge of the graph.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |v| self.out_edges(v))
    }
}

/// `Ok` when `node` is one of a graph's `node_count` nodes.
pub(crate) fn check_node(node: NodeId, node_count: usize) -> Result<(), GraphError> {
    if node.index() < node_count {
        Ok(())
    } else {
        Err(GraphError::NodeOutOfBounds { node, node_count })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::GraphBuilder;

    impl Graph {
        /// The overlay, for tests of what snapshots share.
        pub(crate) fn delta(&self) -> Option<&GraphDelta> {
            self.delta.as_deref()
        }
    }

    /// `n` edgeless `person` nodes from the builder, over a vocabulary that
    /// already holds the edge labels `follows` (returned) and `likes`.
    fn people(n: usize) -> (Graph, Vec<NodeId>, LabelId) {
        let mut labels = LabelSet::new();
        let follows = labels.intern_edge_label("follows");
        labels.intern_edge_label("likes");
        let mut b = GraphBuilder::with_labels(labels);
        let nodes = b.add_nodes("person", n);
        (b.build(), nodes, follows)
    }

    /// A directed 3-cycle whose edges were inserted one op at a time, so
    /// they sit in the overlay.
    fn triangle() -> (Graph, Vec<NodeId>, LabelId) {
        let (mut g, nodes, follows) = people(3);
        for (f, t) in [(0, 1), (1, 2), (2, 0)] {
            g.apply_edge_ops(&[EdgeOp::insert(nodes[f], nodes[t], follows)])
                .unwrap();
        }
        (g, nodes, follows)
    }

    #[test]
    fn counts_are_tracked() {
        let (g, _, _) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 6);
        assert!(!g.is_empty());
    }

    #[test]
    fn adjacency_is_consistent_in_both_directions() {
        let (g, n, follows) = triangle();
        assert_eq!(g.out_neighbors_slice(n[0]), &[n[1]]);
        assert_eq!(g.in_neighbors_slice(n[0]), &[n[2]]);
        assert_eq!(g.out_degree_with_label(n[0], follows), 1);
        assert_eq!(g.in_degree_with_label(n[0], follows), 1);
        assert!(g.has_edge(n[0], n[1], follows));
        assert!(!g.has_edge(n[1], n[0], follows));
        assert!(!g.has_edge(n[0], n[2], follows));
    }

    #[test]
    fn duplicate_edges_are_rejected_or_deduped() {
        let (mut g, n, follows) = triangle();
        let report = g
            .apply_edge_ops(&[EdgeOp::insert(n[0], n[1], follows)])
            .unwrap();
        assert_eq!((report.inserted, report.noop_inserts), (0, 1));
        assert_eq!(g.edge_count(), 3);
        // A parallel edge with a different label is allowed.
        let likes = g.labels().edge_label("likes").unwrap();
        let report = g
            .apply_edge_ops(&[EdgeOp::insert(n[0], n[1], likes)])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn out_of_bounds_nodes_are_rejected() {
        let (mut g, n, follows) = triangle();
        let bogus = NodeId::new(42);
        for op in [
            EdgeOp::insert(n[0], bogus, follows),
            EdgeOp::insert(bogus, n[0], follows),
            EdgeOp::delete(n[0], bogus, follows),
        ] {
            assert_eq!(
                g.apply_edge_ops(&[op]),
                Err(GraphError::NodeOutOfBounds {
                    node: bogus,
                    node_count: 3
                })
            );
        }
        assert!(!g.has_edge(bogus, n[0], follows));
    }

    #[test]
    fn label_filtered_neighborhoods_are_exact() {
        let mut builder = GraphBuilder::new();
        let [a, b, c] = [(); 3].map(|_| builder.add_node("person"));
        let x = builder.add_node("item");
        builder.add_edge(a, b, "follows").unwrap();
        builder.add_edge(a, c, "follows").unwrap();
        builder.add_edge(a, x, "likes").unwrap();
        let g = builder.build();
        let label = |name| g.labels().node_label(name).unwrap();
        let (person, item) = (label("person"), label("item"));
        let follows = g.labels().edge_label("follows").unwrap();
        let likes = g.labels().edge_label("likes").unwrap();

        assert_eq!(g.out_neighbors_with_label_slice(a, follows), &[b, c]);
        assert_eq!(g.out_neighbors_with_label_slice(a, likes), &[x]);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.out_degree_with_label(a, follows), 2);
        assert_eq!(g.nodes_with_label(person), &[a, b, c]);
        assert_eq!(g.nodes_with_label(item), &[x]);
    }

    /// Asserts that `g`'s full adjacency (both directions, every accessor
    /// shape) is exactly the expected edge set, read off a plain sorted set
    /// so the oracle shares no code with any freeze.
    fn assert_adjacency_is(g: &Graph, expected: &[(NodeId, NodeId, LabelId)]) {
        let by_source: BTreeSet<(NodeId, LabelId, NodeId)> =
            expected.iter().map(|&(f, t, l)| (f, l, t)).collect();
        let by_target: BTreeSet<(NodeId, LabelId, NodeId)> =
            expected.iter().map(|&(f, t, l)| (t, l, f)).collect();
        let group = |set: &BTreeSet<(NodeId, LabelId, NodeId)>, v: NodeId, l: LabelId| {
            set.range((v, l, NodeId(0))..=(v, l, NodeId(u32::MAX)))
                .map(|e| e.2)
                .collect::<Vec<_>>()
        };
        assert_eq!(g.edge_count(), by_source.len(), "edge count");
        for v in g.nodes() {
            let (mut out_row, mut in_row) = (Vec::new(), Vec::new());
            for l in 0..g.labels().edge_label_count() {
                let l = LabelId(l as u32);
                let (out, inn) = (group(&by_source, v, l), group(&by_target, v, l));
                assert_eq!(
                    g.out_neighbors_with_label_slice(v, l),
                    &out[..],
                    "out ({v:?}, {l:?})"
                );
                assert_eq!(
                    g.in_neighbors_with_label_slice(v, l),
                    &inn[..],
                    "in ({v:?}, {l:?})"
                );
                assert_eq!(g.out_degree_with_label(v, l), out.len());
                assert_eq!(g.in_degree_with_label(v, l), inn.len());
                out_row.extend(out);
                in_row.extend(inn);
            }
            assert_eq!(
                g.out_neighbors_slice(v),
                &out_row[..],
                "out adjacency of {v:?}"
            );
            assert_eq!(
                g.in_neighbors_slice(v),
                &in_row[..],
                "in adjacency of {v:?}"
            );
            assert_eq!(g.out_degree(v), out_row.len());
            assert_eq!(g.in_degree(v), in_row.len());
        }
        for &(f, t, l) in expected {
            assert!(g.has_edge(f, t, l), "missing edge {f:?}->{t:?}");
        }
    }

    #[test]
    fn delete_of_never_inserted_edge_is_a_counted_noop() {
        let (mut g, n, follows) = triangle();
        let edges = vec![
            (n[0], n[1], follows),
            (n[1], n[2], follows),
            (n[2], n[0], follows),
        ];
        let report = g
            .apply_edge_ops(&[EdgeOp::delete(n[1], n[0], follows)])
            .unwrap();
        assert_eq!(report.deleted, 0);
        assert_eq!(report.noop_deletes, 1);
        assert!(!report.changed());
        assert_eq!(g.update_stats().noop_deletes, 1);
        assert_adjacency_is(&g, &edges);
        let report = g
            .apply_edge_ops(&[EdgeOp::delete(n[0], n[1], follows)])
            .unwrap();
        assert_eq!((report.deleted, report.noop_deletes), (1, 0));
        assert_adjacency_is(&g, &edges[1..]);
    }

    #[test]
    fn duplicate_insert_via_ops_is_a_counted_noop() {
        let (mut g, n, follows) = triangle();
        let edges = vec![
            (n[0], n[1], follows),
            (n[1], n[2], follows),
            (n[2], n[0], follows),
        ];
        let report = g
            .apply_edge_ops(&[
                EdgeOp::insert(n[0], n[1], follows),
                EdgeOp::insert(n[0], n[2], follows),
                EdgeOp::insert(n[0], n[2], follows),
            ])
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.noop_inserts, 2);
        let mut expected = edges;
        expected.push((n[0], n[2], follows));
        assert_adjacency_is(&g, &expected);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_cancels_out() {
        let (mut g, n, follows) = triangle();
        g.compact_updates();
        let edges = vec![
            (n[0], n[1], follows),
            (n[1], n[2], follows),
            (n[2], n[0], follows),
        ];
        let report = g
            .apply_edge_ops(&[
                EdgeOp::delete(n[0], n[1], follows),
                EdgeOp::insert(n[0], n[1], follows),
                EdgeOp::insert(n[1], n[0], follows),
                EdgeOp::delete(n[1], n[0], follows),
            ])
            .unwrap();
        assert_eq!(report.inserted, 2);
        assert_eq!(report.deleted, 2);
        assert_eq!(g.pending_updates(), 0, "all ops cancelled in the overlay");
        assert_adjacency_is(&g, &edges);
    }

    #[test]
    fn out_of_range_ops_fail_the_whole_batch_without_mutation() {
        let (mut g, n, follows) = triangle();
        let edges = vec![
            (n[0], n[1], follows),
            (n[1], n[2], follows),
            (n[2], n[0], follows),
        ];
        let bogus = NodeId::new(42);
        let before = *g.update_stats();
        // The valid leading op must not be applied when a later op is bad.
        let err = g
            .apply_edge_ops(&[
                EdgeOp::insert(n[0], n[2], follows),
                EdgeOp::insert(n[0], bogus, follows),
            ])
            .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
        assert_eq!(*g.update_stats(), before);
        assert_adjacency_is(&g, &edges);
        assert!(g
            .apply_edge_ops(&[EdgeOp::delete(bogus, n[0], follows)])
            .is_err());
        assert_adjacency_is(&g, &edges);
    }

    #[test]
    fn compaction_threshold_crossing_mid_stream_preserves_adjacency() {
        let (mut g, n, follows) = people(10);
        g.set_compaction_threshold(4);
        assert_eq!(g.compaction_threshold(), 4);
        let mut expected: Vec<(NodeId, NodeId, LabelId)> = Vec::new();
        let mut compactions = 0usize;
        for i in 0..10 {
            for j in 0..10 {
                if i == j {
                    continue;
                }
                let report = g
                    .apply_edge_ops(&[EdgeOp::insert(n[i], n[j], follows)])
                    .unwrap();
                expected.push((n[i], n[j], follows));
                if report.compacted {
                    compactions += 1;
                    assert_eq!(g.pending_updates(), 0);
                }
                assert!(g.pending_updates() < 4);
            }
        }
        assert!(compactions > 0, "threshold 4 must trigger compaction");
        assert_eq!(g.update_stats().compactions, compactions);
        assert_adjacency_is(&g, &expected);
        // Deletes cross the threshold too.
        let report = g
            .apply_edge_ops(
                &expected[..5]
                    .iter()
                    .map(|&(f, t, l)| EdgeOp::delete(f, t, l))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(report.deleted, 5);
        assert!(report.compacted);
        assert_adjacency_is(&g, &expected[5..]);
    }

    #[test]
    fn single_edge_update_patches_two_rows_without_rebuild() {
        let (mut g, n, follows) = triangle();
        let before = *g.update_stats();
        g.apply_edge_ops(&[EdgeOp::insert(n[1], n[0], follows)])
            .unwrap();
        let after = *g.update_stats();
        assert_eq!(after.compactions, before.compactions);
        assert_eq!(after.nodes_patched - before.nodes_patched, 2);
    }

    #[test]
    fn edges_iterator_covers_every_edge_once() {
        let (g, _, _) = triangle();
        assert_eq!(g.edges().count(), g.edge_count());
    }

    /// A builder freeze of `g`'s nodes and exactly `edges`.
    fn builder_freeze(g: &Graph, edges: &BTreeSet<(NodeId, LabelId, NodeId)>) -> Graph {
        let labels = g.labels();
        let mut b = GraphBuilder::with_labels(labels.clone());
        for v in g.nodes() {
            b.add_node(labels.node_label_name(g.node_label(v)).unwrap());
        }
        for &(f, l, t) in edges {
            b.add_edge(f, t, labels.edge_label_name(l).unwrap())
                .unwrap();
        }
        b.build()
    }

    /// A builder over a vocabulary whose edge label `knows` (id 2) no build
    /// edge carries, so ops fill a lane that was empty at the freeze.
    fn three_label_builder() -> GraphBuilder {
        let mut labels = LabelSet::new();
        for name in ["follows", "likes", "knows"] {
            labels.intern_edge_label(name);
        }
        GraphBuilder::with_labels(labels)
    }

    /// Compaction is a freeze: after it, both directions' `label_offsets` and
    /// `targets` equal a `GraphBuilder` freeze of the same edge set, at every
    /// threshold, with an edge label that no edge carried at the build.
    #[test]
    fn compaction_is_byte_identical_to_a_builder_freeze() {
        for threshold in [1, 3, 8, 0] {
            let mut b = three_label_builder();
            let n = b.add_nodes("person", 7);
            for i in 0..7 {
                b.add_edge(n[i], n[(i * 3 + 1) % 7], "follows").unwrap();
                b.add_edge(n[(i + 2) % 7], n[i], "likes").unwrap();
            }
            let mut g = b.build();
            g.set_compaction_threshold(threshold);
            let mut edges: BTreeSet<(NodeId, LabelId, NodeId)> =
                g.edges().map(|e| (e.from, e.label, e.to)).collect();
            let mut freezes = 0;
            let mut check = |g: &Graph, edges: &BTreeSet<_>| {
                let reference = builder_freeze(g, edges);
                assert_eq!(*g.out, *reference.out, "out CSR, threshold {threshold}");
                assert_eq!(*g.inn, *reference.inn, "in CSR, threshold {threshold}");
                freezes += 1;
            };
            let mut ops = Vec::new();
            for step in 0..39u32 {
                let labels = g.labels().edge_label_count() as u32;
                let nodes = g.node_count() as u32;
                let (f, t) = (
                    NodeId((step * 5 + 3) % nodes),
                    NodeId((step * 11 + 1) % nodes),
                );
                let l = LabelId((step * 7) % labels);
                ops.push(if step % 4 == 0 {
                    EdgeOp::delete(f, t, l)
                } else {
                    EdgeOp::insert(f, t, l)
                });
                if step % 3 != 2 {
                    continue;
                }
                for op in &ops {
                    let e = (op.from(), op.label(), op.to());
                    if op.is_insert() {
                        edges.insert(e);
                    } else {
                        edges.remove(&e);
                    }
                }
                let report = g.apply_edge_ops(&std::mem::take(&mut ops)).unwrap();
                if report.compacted {
                    assert_eq!(g.pending_updates(), 0);
                    check(&g, &edges);
                }
                let expected: Vec<_> = edges.iter().map(|&(f, l, t)| (f, t, l)).collect();
                assert_adjacency_is(&g, &expected);
            }
            g.compact_updates();
            check(&g, &edges);
            // Below the default threshold the stream compacts mid-way too.
            assert!(
                threshold == 0 || freezes >= 2,
                "threshold {threshold}: {freezes} freezes"
            );
        }
    }

    /// The same at chunk scale: four chunks of rows, ops that touch the
    /// first and last node of a chunk and the graph's last node, runs of
    /// adjacent patched rows, label groups emptied by a delete, a label no
    /// build edge carries, and one chunk (nodes 2048..3072) that no op touches, so its rows are
    /// copied as one run.
    #[test]
    fn compaction_splices_byte_identically_at_chunk_scale() {
        const V: usize = 3500;
        let mut b = three_label_builder();
        let n = b.add_nodes("person", V);
        for v in 0..V {
            b.add_edge(n[v], n[(v * 7 + 3) % V], "follows").unwrap();
            if v % 3 == 0 {
                b.add_edge(n[v], n[(v * 13 + 5) % V], "likes").unwrap();
            }
        }
        let mut g = b.build();
        g.set_compaction_threshold(12);
        let clean = 2048..3072;
        let mut edges: BTreeSet<(NodeId, LabelId, NodeId)> =
            g.edges().map(|e| (e.from, e.label, e.to)).collect();
        let touched: Vec<usize> = [0, 1023, 1024, 2047, V - 1, 500, 1500, 3100]
            .into_iter()
            .chain(100..=110)
            .collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |k: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % k as u64) as usize
        };
        let (follows, likes) = (LabelId(0), LabelId(1));
        // Node 1023's one `follows` edge, and node 0's one `likes` edge,
        // which is also node 5's one incoming `likes` edge.
        let mut ops = vec![
            EdgeOp::delete(n[1023], n[164], follows),
            EdgeOp::delete(n[0], n[5], likes),
        ];
        let mut freezes = 0;
        let labels = g.labels().edge_label_count();
        for batch in 0..60 {
            while ops.len() < 5 {
                let f = n[touched[next(touched.len())]];
                let t = n[touched[next(touched.len())]];
                let out_of_chunk: Vec<_> = edges
                    .range((f, LabelId(0), NodeId(0))..=(f, LabelId(u32::MAX), NodeId(u32::MAX)))
                    .filter(|e| !clean.contains(&e.2.index()))
                    .collect();
                ops.push(if next(3) == 0 && !out_of_chunk.is_empty() {
                    let &&(f, l, t) = &out_of_chunk[next(out_of_chunk.len())];
                    EdgeOp::delete(f, t, l)
                } else {
                    EdgeOp::insert(f, t, LabelId(next(labels) as u32))
                });
            }
            for op in &ops {
                assert!(!clean.contains(&op.from().index()) && !clean.contains(&op.to().index()));
                let e = (op.from(), op.label(), op.to());
                if op.is_insert() {
                    edges.insert(e);
                } else {
                    edges.remove(&e);
                }
            }
            let report = g.apply_edge_ops(&std::mem::take(&mut ops)).unwrap();
            if report.compacted {
                let reference = builder_freeze(&g, &edges);
                assert_eq!(*g.out, *reference.out, "out CSR after batch {batch}");
                assert_eq!(*g.inn, *reference.inn, "in CSR after batch {batch}");
                freezes += 1;
            }
        }
        g.compact_updates();
        let reference = builder_freeze(&g, &edges);
        assert_eq!((&*g.out, &*g.inn), (&*reference.out, &*reference.inn));
        assert!(freezes >= 10, "{freezes} freezes");
    }
}
