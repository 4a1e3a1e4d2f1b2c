//! Frozen compressed-sparse-row (CSR) adjacency storage.
//!
//! One [`CsrAdjacency`] stores one direction (out- or in-edges) of the whole
//! graph in two flat arrays:
//!
//! * `targets` — every neighbor, grouped by source node and, within a node,
//!   by edge label (and sorted by neighbor id inside a label group), and
//! * `label_offsets` — a dense per-`(node, label)` range index with stride
//!   `label_count + 1`: entry `v * stride + l` is the start of the
//!   `(v, l)` range in `targets` and `v * stride + label_count` is the end of
//!   `v`'s whole range.
//!
//! The dense index makes `Mₑ(v)` (the children of `v` via one edge label —
//! Table 1 of the paper) and `|Mₑ(v)|` branch-free slice lookups: two loads
//! and a subtraction, no binary search, no pointer chasing.  That is what
//! turns the `QMatch` upper-bound arithmetic `U(v, e) = |Mₑ(v)|` into the
//! cheap degree check the paper's cost model assumes.
//!
//! The layout is *frozen*: it is (re)built in one `O(E log E)` sort from a
//! triple list ([`CsrAdjacency::rebuild`]) and queried immutably afterwards.
//! Batch construction goes through [`crate::GraphBuilder`], which accumulates
//! triples and finalizes once.  Incremental mutation never touches the
//! frozen arrays — it goes through the delta overlay in the `delta` module,
//! which layers sorted side-tables over this base and folds them back in
//! with one `rebuild` at compaction time.

use crate::graph::NodeId;

/// A `(node, label, neighbor)` triple in raw `u32` form.  The meaning of
/// `node`/`neighbor` depends on the direction: for the out-CSR they are
/// `(from, label, to)`, for the in-CSR `(to, label, from)`.
pub(crate) type Triple = (u32, u32, u32);

/// One direction of the graph's adjacency in frozen CSR form.
#[derive(Debug, Clone, Default)]
pub(crate) struct CsrAdjacency {
    /// Dense range index, stride `label_count + 1` (see module docs).
    label_offsets: Vec<u32>,
    /// Flat neighbor array, grouped by `(node, label)`, sorted by neighbor
    /// within each group.
    targets: Vec<NodeId>,
    /// Number of edge labels the index is sized for.
    label_count: usize,
    /// Number of nodes the index is sized for.
    node_count: usize,
}

impl CsrAdjacency {
    /// An empty adjacency sized for a label vocabulary (no nodes yet).
    pub fn with_label_count(label_count: usize) -> Self {
        CsrAdjacency {
            label_count,
            ..Self::default()
        }
    }

    /// Assembles an adjacency directly from its frozen parts — the
    /// zero-copy path used by [`crate::GraphBuilder`], which produces the
    /// offsets and targets with counting passes instead of a sort.
    ///
    /// `label_offsets` must have stride `label_count + 1` per node and
    /// `targets` must be grouped by `(node, label)` with each group sorted
    /// by neighbor.
    pub fn from_parts(
        node_count: usize,
        label_count: usize,
        label_offsets: Vec<u32>,
        targets: Vec<NodeId>,
    ) -> Self {
        let csr = CsrAdjacency {
            label_offsets,
            targets,
            label_count,
            node_count,
        };
        debug_assert_eq!(csr.label_offsets.len(), node_count * csr.stride());
        debug_assert!((0..node_count)
            .all(|v| (0..label_count).all(|l| csr.slice(v, l).windows(2).all(|w| w[0] < w[1]))));
        csr
    }

    #[inline]
    fn stride(&self) -> usize {
        self.label_count + 1
    }

    /// Number of edge labels the dense index covers.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Reserves index capacity for `additional` more nodes.
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.label_offsets.reserve(additional * self.stride());
    }

    /// Appends a node with no edges.
    pub fn push_node(&mut self) {
        let end = self.targets.len() as u32;
        self.label_offsets
            .extend(std::iter::repeat_n(end, self.stride()));
        self.node_count += 1;
    }

    /// Rebuilds the whole structure from a triple list (sorted in place;
    /// duplicates must already have been removed).  `O(E log E)` for the
    /// sort plus `O(V·L + E)` for the fill.
    pub fn rebuild(&mut self, node_count: usize, label_count: usize, triples: &mut [Triple]) {
        triples.sort_unstable();
        debug_assert!(triples.windows(2).all(|w| w[0] != w[1]), "duplicate triple");
        self.node_count = node_count;
        self.label_count = label_count;
        let stride = self.stride();
        self.label_offsets.clear();
        self.label_offsets.resize(node_count * stride, 0);
        self.targets.clear();
        self.targets.reserve_exact(triples.len());
        let mut i = 0usize;
        for v in 0..node_count {
            let base = v * stride;
            for l in 0..label_count {
                self.label_offsets[base + l] = self.targets.len() as u32;
                while let Some(&(tv, tl, tw)) = triples.get(i) {
                    if tv as usize != v || tl as usize != l {
                        break;
                    }
                    self.targets.push(NodeId(tw));
                    i += 1;
                }
            }
            self.label_offsets[base + label_count] = self.targets.len() as u32;
        }
        debug_assert_eq!(i, triples.len(), "triple out of node/label bounds");
    }

    /// Decomposes the structure back into its (sorted) triple list.
    pub fn to_triples(&self) -> Vec<Triple> {
        let mut triples = Vec::with_capacity(self.targets.len());
        for v in 0..self.node_count {
            for l in 0..self.label_count {
                for &w in self.slice(v, l) {
                    triples.push((v as u32, l as u32, w.0));
                }
            }
        }
        triples
    }

    /// The neighbors of `v` via label `l` as a sorted slice — the `O(1)`
    /// lookup at the heart of the layout.
    #[inline]
    pub fn slice(&self, v: usize, l: usize) -> &[NodeId] {
        if l >= self.label_count {
            return &[];
        }
        let base = v * self.stride() + l;
        let start = self.label_offsets[base] as usize;
        let end = self.label_offsets[base + 1] as usize;
        &self.targets[start..end]
    }

    /// All neighbors of `v` (every label) as one slice, grouped by label.
    #[inline]
    pub fn node_slice(&self, v: usize) -> &[NodeId] {
        let base = v * self.stride();
        let start = self.label_offsets[base] as usize;
        let end = self.label_offsets[base + self.label_count] as usize;
        &self.targets[start..end]
    }

    /// Degree of `v` counting all labels.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.node_slice(v).len()
    }

    /// Is `w` a neighbor of `v` via label `l`?  Binary search within the
    /// label range.
    #[inline]
    pub fn contains(&self, v: usize, l: usize, w: NodeId) -> bool {
        self.slice(v, l).binary_search(&w).is_ok()
    }

    /// Is `w` a neighbor of `v` via *any* label?  Binary-searches each label
    /// range: `O(L · log d)` instead of the linear `O(d)` scan a flat
    /// adjacency list would need.
    pub fn contains_any(&self, v: usize, w: NodeId) -> bool {
        (0..self.label_count).any(|l| self.contains(v, l, w))
    }

    /// Grows the dense index to cover at least `label_count` labels,
    /// rebuilding with the wider stride.
    pub fn ensure_label_capacity(&mut self, label_count: usize) {
        if label_count > self.label_count {
            let mut triples = self.to_triples();
            self.rebuild(self.node_count, label_count, &mut triples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrAdjacency {
        // Node 0: label 0 -> {1, 2}, label 1 -> {1}; node 1: label 1 -> {0};
        // node 2: nothing.
        let mut csr = CsrAdjacency::default();
        let mut triples = vec![(0, 0, 2), (0, 0, 1), (0, 1, 1), (1, 1, 0)];
        csr.rebuild(3, 2, &mut triples);
        csr
    }

    #[test]
    fn rebuild_sorts_into_label_ranges() {
        let csr = sample();
        assert_eq!(csr.slice(0, 0), &[NodeId(1), NodeId(2)]);
        assert_eq!(csr.slice(0, 1), &[NodeId(1)]);
        assert_eq!(csr.slice(1, 0), &[] as &[NodeId]);
        assert_eq!(csr.slice(1, 1), &[NodeId(0)]);
        assert_eq!(csr.node_slice(0), &[NodeId(1), NodeId(2), NodeId(1)]);
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.slice(0, 0).len(), 2);
        assert_eq!(csr.degree(2), 0);
        assert_eq!(csr.to_triples().len(), 4);
    }

    #[test]
    fn membership_checks_use_the_label_ranges() {
        let csr = sample();
        assert!(csr.contains(0, 0, NodeId(2)));
        assert!(!csr.contains(0, 1, NodeId(2)));
        assert!(csr.contains_any(0, NodeId(2)));
        assert!(!csr.contains_any(1, NodeId(2)));
        // Out-of-range labels behave like empty ranges.
        assert!(csr.slice(0, 7).is_empty());
    }

    #[test]
    fn push_node_and_label_growth_preserve_contents() {
        let mut csr = sample();
        csr.push_node();
        assert_eq!(csr.degree(3), 0);
        let before = csr.to_triples();
        csr.ensure_label_capacity(5);
        assert_eq!(csr.to_triples(), before);
        let mut triples = csr.to_triples();
        triples.push((3, 4, 0));
        csr.rebuild(4, 5, &mut triples);
        assert_eq!(csr.slice(3, 4), &[NodeId(0)]);
    }

    #[test]
    fn round_trip_through_triples_is_lossless() {
        let csr = sample();
        let mut triples = csr.to_triples();
        let mut rebuilt = CsrAdjacency::default();
        rebuilt.rebuild(3, 2, &mut triples);
        assert_eq!(rebuilt.to_triples(), csr.to_triples());
    }
}
