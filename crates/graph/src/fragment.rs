//! Fragments of a partitioned graph.
//!
//! The parallel algorithms of Section 5 distribute a graph `G` over `n`
//! workers.  Each worker manages one [`Fragment`]: the subgraph of `G`
//! induced by the node set assigned to that worker, plus bookkeeping that
//! records which nodes the fragment *covers* (their whole d-hop neighborhood
//! resides in the fragment, so matches anchored at them can be computed
//! without communication — the "covering" property of a d-hop preserving
//! partition).
//!
//! The global → local translation is a dense array indexed by global node id
//! (one load per lookup, no hashing), and the covered set is a sorted vector
//! probed by binary search — both in keeping with the flat-state layout of
//! the storage crate.

use crate::graph::{Graph, NodeId, ABSENT};

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

/// A fragment `F_i` of a partitioned graph: the subgraph induced by a set of
/// global nodes, with local ↔ global node id mappings and the set of covered
/// (anchor) nodes.
#[derive(Debug, Clone)]
pub struct Fragment {
    id: FragmentId,
    graph: Graph,
    global_of_local: Vec<NodeId>,
    /// Dense map over global node ids; [`ABSENT`] when the node is not in
    /// the fragment.
    local_of_global: Vec<u32>,
    /// Covered global node ids, sorted.
    covered: Vec<NodeId>,
}

impl Fragment {
    /// Builds a fragment from the global graph.
    ///
    /// * `nodes` — the global node ids whose induced subgraph forms the
    ///   fragment,
    /// * `covered` — the subset of global node ids this fragment is
    ///   responsible for (i.e. whose matches it must report); every covered
    ///   node must be in `nodes`.
    pub fn build(
        id: FragmentId,
        global: &Graph,
        nodes: &[NodeId],
        covered: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let (graph, global_of_local, local_of_global) = global.induced(nodes);
        let mut covered: Vec<NodeId> = covered
            .into_iter()
            .filter(|v| local_of_global.get(v.index()).is_some_and(|&l| l != ABSENT))
            .collect();
        covered.sort_unstable();
        covered.dedup();
        Self {
            id,
            graph,
            global_of_local,
            local_of_global,
            covered,
        }
    }

    /// The fragment id.
    pub fn id(&self) -> FragmentId {
        self.id
    }

    /// The local subgraph managed by this fragment.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of global nodes present in this fragment.
    pub fn node_count(&self) -> usize {
        self.global_of_local.len()
    }

    /// Fragment size `|F_i|` measured as nodes + edges, the balance metric of
    /// the d-hop preserving partition.
    pub fn size(&self) -> usize {
        self.graph.size()
    }

    /// Maps a local node id back to its global id.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.global_of_local[local.index()]
    }

    /// Maps a global node id to its local id, if the node is present.
    #[inline]
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        match self.local_of_global.get(global.index()) {
            Some(&local) if local != ABSENT => Some(NodeId(local)),
            _ => None,
        }
    }

    /// Returns `true` when the given global node is present in the fragment.
    #[inline]
    pub fn contains(&self, global: NodeId) -> bool {
        self.to_local(global).is_some()
    }

    /// Returns `true` when this fragment covers (is responsible for) the
    /// given global node.
    pub fn covers(&self, global: NodeId) -> bool {
        self.covered.binary_search(&global).is_ok()
    }

    /// Iterates over the covered global nodes (in ascending id order).
    pub fn covered_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.covered.iter().copied()
    }

    /// Number of covered nodes.
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }

    /// The covered nodes translated to local ids (the focus candidate scope a
    /// worker restricts its matching to).
    pub fn covered_local_nodes(&self) -> Vec<NodeId> {
        self.covered
            .iter()
            .filter_map(|v| self.to_local(*v))
            .collect()
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
    fn fragment_contains_induced_edges_and_mappings() {
        let (g, n) = sample();
        let frag = Fragment::build(FragmentId(0), &g, &n[0..3], vec![n[1]]);
        assert_eq!(frag.node_count(), 3);
        assert_eq!(frag.graph().edge_count(), 2);
        assert_eq!(frag.id(), FragmentId(0));

        let local = frag.to_local(n[2]).unwrap();
        assert_eq!(frag.to_global(local), n[2]);
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
        assert_eq!(frag.covered_local_nodes().len(), 1);
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
        assert_eq!(frag.covered_count(), 0);
    }
}
