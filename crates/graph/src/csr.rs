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
//! The layout is *frozen*: it is built once and queried immutably
//! afterwards.  The builder's freeze goes through two constructors, both
//! `O(V·L + E)` and sort-free: [`CsrAdjacency::from_rows`] concatenates
//! the per-`(node, label)` groups of the builder's staged rows, already
//! sorted, and [`CsrAdjacency::transpose`] derives the opposite direction
//! with one stable counting scatter.  The stride is fixed there too: a
//! graph's edge-label vocabulary never grows after the build.  Incremental
//! mutation never touches the frozen arrays — it goes through the delta
//! overlay in the `delta` module — and compaction is
//! [`CsrAdjacency::splice`], per direction: one pass over the runs of
//! unpatched nodes plus Σ of the patched rows, at the same stride.

use crate::graph::NodeId;

/// One direction of the graph's adjacency in frozen CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Freezes an adjacency row by row: `fill(v, l, targets)` appends the
    /// `(v, l)` group, sorted by neighbor, and is called once per pair in
    /// ascending `(v, l)` order.  `edges` only sizes the target array.
    pub(crate) fn from_rows(
        node_count: usize,
        label_count: usize,
        edges: usize,
        mut fill: impl FnMut(usize, usize, &mut Vec<NodeId>),
    ) -> Self {
        let mut label_offsets = Vec::with_capacity(node_count * (label_count + 1));
        let mut targets = Vec::with_capacity(edges);
        for v in 0..node_count {
            for l in 0..label_count {
                label_offsets.push(targets.len() as u32);
                fill(v, l, &mut targets);
            }
            label_offsets.push(targets.len() as u32);
        }
        Self::from_parts(node_count, label_count, label_offsets, targets)
    }

    /// The opposite direction of `self`, by a stable counting scatter:
    /// count per `(target, label)` bucket, prefix-sum into the dense range
    /// index, then scatter.  Sources are visited in ascending order, so
    /// every bucket arrives sorted.
    pub(crate) fn transpose(&self) -> Self {
        let (n, label_count, stride) = (self.node_count, self.label_count, self.stride());
        let mut label_offsets = vec![0u32; n * stride];
        self.for_each_edge(|_, l, w| label_offsets[w.index() * stride + l] += 1);
        // Counts become range starts; the extra lane per node its end.
        let mut running = 0u32;
        for node in label_offsets.chunks_exact_mut(stride) {
            for slot in &mut node[..label_count] {
                let count = *slot;
                *slot = running;
                running += count;
            }
            node[label_count] = running;
        }
        let mut cursor = label_offsets.clone();
        let mut targets = vec![NodeId(0); self.targets.len()];
        self.for_each_edge(|v, l, w| {
            let slot = &mut cursor[w.index() * stride + l];
            targets[*slot as usize] = NodeId::new(v);
            *slot += 1;
        });
        Self::from_parts(n, label_count, label_offsets, targets)
    }

    /// `self` with the rows in `patches` in place of their base rows.  A
    /// patch is `(node, offsets, targets)`, shaped like one stride of this
    /// index, in ascending node order; `edges` is the spliced edge count.
    /// Each maximal run of unpatched nodes is one `targets` copy plus its
    /// `label_offsets` block shifted by a running delta, so the cost is one
    /// pass over the runs plus the patched rows.
    pub(crate) fn splice<'a>(
        &self,
        edges: usize,
        patches: impl IntoIterator<Item = (usize, &'a [u32], &'a [NodeId])>,
    ) -> Self {
        let (n, stride) = (self.node_count, self.stride());
        let mut label_offsets = Vec::with_capacity(n * stride);
        let mut targets = Vec::with_capacity(edges);
        // Appends whole rows, given as their lanes (per node, the range
        // starts then the end) and their targets: every lane moves by one
        // shift.
        let mut append = |lanes: &[u32], row: &[NodeId]| {
            debug_assert_eq!(lanes.len() % stride, 0, "a patch of another stride");
            let shift = (targets.len() as u32).wrapping_sub(*lanes.first().unwrap_or(&0));
            label_offsets.extend(lanes.iter().map(|o| o.wrapping_add(shift)));
            targets.extend_from_slice(row);
        };
        let mut copied = 0;
        for (v, offsets, row) in patches.into_iter().chain([(n, &[][..], &[][..])]) {
            let lanes = &self.label_offsets[copied * stride..v * stride];
            let run = match (lanes.first(), lanes.last()) {
                (Some(&start), Some(&end)) => &self.targets[start as usize..end as usize],
                _ => &[],
            };
            append(lanes, run);
            append(offsets, row);
            copied = v + 1;
        }
        debug_assert_eq!(targets.len(), edges, "a spliced row lost or gained an edge");
        Self::from_parts(n, self.label_count, label_offsets, targets)
    }

    /// Calls `f(node, label, neighbor)` for every edge, in storage order.
    /// An edge's label is the number of label groups of its row that start
    /// at or before it.  Counting those starts per position keeps the walk
    /// one flat loop per row: a loop per `(node, label)` group pays a
    /// mispredicted exit per group, which made the walk twice as slow on
    /// pokec-like graphs, where most groups are empty or tiny.
    fn for_each_edge(&self, mut f: impl FnMut(usize, usize, NodeId)) {
        if self.label_count == 0 {
            return;
        }
        let mut starts: Vec<u32> = Vec::new();
        for (v, ends) in self.label_offsets.chunks_exact(self.stride()).enumerate() {
            let base = ends[0] as usize;
            let row = &self.targets[base..ends[self.label_count] as usize];
            starts.clear();
            starts.resize(row.len() + 1, 0);
            for &start in &ends[1..self.label_count] {
                starts[start as usize - base] += 1;
            }
            let mut l = 0;
            for (&w, &at) in row.iter().zip(&starts) {
                l += at as usize;
                f(v, l, w);
            }
        }
    }

    /// Assembles an adjacency from its frozen parts: `label_offsets` has
    /// stride `label_count + 1` per node and `targets` is grouped by
    /// `(node, label)` with each group sorted by neighbor.
    fn from_parts(
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

    /// Number of edges stored.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
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

    /// Is `w` a neighbor of `v` via label `l`?  Binary search within the
    /// label range.
    #[inline]
    pub fn contains(&self, v: usize, l: usize, w: NodeId) -> bool {
        self.slice(v, l).binary_search(&w).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Freezes `(node, label, neighbor)` triples given in any order.
    fn freeze(node_count: usize, label_count: usize, triples: &[(u32, u32, u32)]) -> CsrAdjacency {
        CsrAdjacency::from_rows(node_count, label_count, triples.len(), |v, l, row| {
            let start = row.len();
            row.extend(
                triples
                    .iter()
                    .filter(|t| (t.0 as usize, t.1 as usize) == (v, l))
                    .map(|t| NodeId(t.2)),
            );
            row[start..].sort_unstable();
        })
    }

    fn sample() -> CsrAdjacency {
        // Node 0: label 0 -> {1, 2}, label 1 -> {1}; node 1: label 1 -> {0};
        // node 2: nothing.
        freeze(3, 2, &[(0, 0, 2), (0, 0, 1), (0, 1, 1), (1, 1, 0)])
    }

    #[test]
    fn rebuild_sorts_into_label_ranges() {
        let csr = sample();
        assert_eq!(csr.slice(0, 0), &[NodeId(1), NodeId(2)]);
        assert_eq!(csr.slice(0, 1), &[NodeId(1)]);
        assert_eq!(csr.slice(1, 0), &[] as &[NodeId]);
        assert_eq!(csr.slice(1, 1), &[NodeId(0)]);
        assert_eq!(csr.node_slice(0), &[NodeId(1), NodeId(2), NodeId(1)]);
        assert_eq!(csr.node_slice(0).len(), 3);
        assert_eq!(csr.slice(0, 0).len(), 2);
        assert_eq!(csr.node_slice(2).len(), 0);
        assert_eq!(csr.edge_count(), 4);
    }

    #[test]
    fn membership_checks_use_the_label_ranges() {
        let csr = sample();
        assert!(csr.contains(0, 0, NodeId(2)));
        assert!(!csr.contains(0, 1, NodeId(2)));
        // Out-of-range labels behave like empty ranges.
        assert!(csr.slice(0, 7).is_empty());
    }

    #[test]
    fn label_growth_preserves_contents() {
        let csr = sample();
        // Node 2 gains a label-1 neighbor: the patched row replaces its base
        // row and every other row is copied as it was.
        let grown = CsrAdjacency::from_rows(3, 2, 5, |v, l, row| {
            row.extend_from_slice(csr.slice(v, l));
            if (v, l) == (2, 1) {
                row.push(NodeId(0));
            }
        });
        let patch = (2, &[0, 0, 1][..], &[NodeId(0)][..]);
        assert_eq!(csr.splice(5, [patch]), grown);
        assert_eq!(grown.slice(2, 1), &[NodeId(0)]);
        assert_eq!(grown.transpose().slice(0, 1), &[NodeId(1), NodeId(2)]);
        // No patch copies every row.
        assert_eq!(csr.splice(csr.edge_count(), []), csr);
    }

    #[test]
    fn transpose_twice_is_the_identity() {
        let csr = sample();
        let inn = csr.transpose();
        assert_eq!(
            inn,
            freeze(3, 2, &[(2, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1)])
        );
        assert_eq!(inn.transpose(), csr);
    }
}
