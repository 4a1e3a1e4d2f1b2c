//! Fragments of a partitioned graph.
//!
//! The parallel algorithms of Section 5 distribute a graph `G` over `n`
//! workers.  Each worker manages one [`Fragment`]: a set of nodes of `G`
//! plus the subset it *covers* — nodes whose whole d-hop neighborhood lies
//! inside the set, so matches anchored at them can be decided without
//! communication (the "covering" property of a d-hop preserving partition).
//!
//! A fragment is a task plan, not a copy of the graph: it holds node ids of
//! `G` only.  A partitioned execution decides each covered node on the
//! snapshot it runs on, so its answer is `Q(x_o, snapshot)` restricted to
//! the covered nodes whatever graph the fragments were cut from; a
//! partition cut from an older epoch costs locality, never correctness.
//!
//! Both node lists are sorted and probed by binary search, in keeping with
//! the flat-state layout of the storage crate.

use crate::bitset::DenseBitSet;
use crate::graph::{Graph, NodeId};

/// Identifier of a fragment (the index of the worker that owns it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId(pub u32);

impl FragmentId {
    /// Raw index of this fragment.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fragment `F_i` of a partitioned graph: a set of nodes of the graph it
/// was cut from, the covered (anchor) subset, and its size.
#[derive(Debug, Clone)]
pub struct Fragment {
    id: FragmentId,
    /// The fragment's node ids, sorted.
    nodes: Vec<NodeId>,
    /// Covered node ids, sorted.
    covered: Vec<NodeId>,
    /// Nodes plus the edges between them, counted at build.
    size: usize,
}

impl Fragment {
    /// Builds a fragment of `global`.
    ///
    /// * `nodes` — the node ids the fragment holds,
    /// * `covered` — the subset of them this fragment is responsible for
    ///   (i.e. whose matches it must report); a node outside `nodes` is
    ///   dropped.
    pub fn build(
        id: FragmentId,
        global: &Graph,
        nodes: &[NodeId],
        covered: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let members =
            DenseBitSet::from_members(nodes.iter().map(|v| v.index()), global.node_count());
        let nodes: Vec<NodeId> = members.iter().map(NodeId::new).collect();
        let edges: usize = (nodes.iter())
            .map(|&v| {
                let inside = |w: &&NodeId| members.contains(w.index());
                global.out_neighbors_slice(v).iter().filter(inside).count()
            })
            .sum();
        let mut covered: Vec<NodeId> = covered
            .into_iter()
            .filter(|v| v.index() < global.node_count() && members.contains(v.index()))
            .collect();
        covered.sort_unstable();
        covered.dedup();
        Self {
            id,
            size: nodes.len() + edges,
            nodes,
            covered,
        }
    }

    /// The fragment id.
    pub fn id(&self) -> FragmentId {
        self.id
    }

    /// The fragment's node ids, in ascending order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes in this fragment.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fragment size `|F_i|` measured as nodes + the edges between them,
    /// the balance metric of the d-hop preserving partition.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Returns `true` when the given node is in the fragment.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Returns `true` when this fragment covers (is responsible for) the
    /// given node.
    pub fn covers(&self, v: NodeId) -> bool {
        self.covered.binary_search(&v).is_ok()
    }

    /// Iterates over the covered nodes (in ascending id order).
    pub fn covered_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.covered.iter().copied()
    }

    /// Number of covered nodes.
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("person", 6);
        for i in 0..5 {
            b.add_edge(n[i], n[i + 1], "follow").unwrap();
        }
        (b.build(), n)
    }

    #[test]
    fn fragment_holds_its_sorted_node_set_and_induced_edge_count() {
        let (g, n) = sample();
        let frag = Fragment::build(FragmentId(0), &g, &[n[2], n[0], n[1], n[0]], vec![n[1]]);
        assert_eq!(frag.id(), FragmentId(0));
        assert_eq!(frag.nodes(), &n[0..3]);
        assert_eq!(frag.node_count(), 3);
        // n0 → n1 → n2 lie inside; n2 → n3 leaves the fragment.
        assert_eq!(frag.size(), 3 + 2);
        assert!(frag.contains(n[0]));
        assert!(!frag.contains(n[5]));
    }

    #[test]
    fn coverage_is_restricted_to_fragment_members() {
        let (g, n) = sample();
        // n[5] is not part of the fragment, so it cannot be covered by it.
        let frag = Fragment::build(FragmentId(1), &g, &n[0..3], vec![n[0], n[5]]);
        assert!(frag.covers(n[0]));
        assert!(!frag.covers(n[5]));
        assert_eq!(frag.covered_count(), 1);
        assert!(frag.covered_nodes().all(|v| frag.contains(v)));
    }

    #[test]
    fn covered_nodes_iterate_in_ascending_order() {
        let (g, n) = sample();
        let frag = Fragment::build(FragmentId(2), &g, &n[0..4], vec![n[3], n[1], n[1]]);
        let covered: Vec<_> = frag.covered_nodes().collect();
        assert_eq!(covered, vec![n[1], n[3]]);
    }

    #[test]
    fn size_counts_nodes_plus_edges() {
        let (g, n) = sample();
        let frag = Fragment::build(FragmentId(0), &g, &n[0..4], Vec::<NodeId>::new());
        assert_eq!(frag.size(), 4 + 3);
        // The edges with both endpoints among the fragment's nodes.
        let inside = |w: &&NodeId| n[0..4].contains(w);
        let edges: usize = (n[0..4].iter())
            .map(|&v| g.out_neighbors_slice(v).iter().filter(inside).count())
            .sum();
        assert_eq!(frag.size(), 4 + edges);
        assert_eq!(frag.covered_count(), 0);
    }
}
