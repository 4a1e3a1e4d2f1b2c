//! Delta overlay over the frozen CSR base — the update path for live graphs.
//!
//! The frozen CSR layout (see the `csr` module) buys constant-time `Mₑ(v)`
//! lookups by giving up cheap mutation: splicing one edge into the flat
//! arrays costs `O(V·L + E)`.  This module restores cheap updates without
//! touching the frozen base.  A `GraphDelta` (crate-private, owned by
//! `Graph`) keeps, per direction, the current row of every node an update
//! touched since the last compaction: the merged adjacency in the same
//! offsets-plus-targets shape as one CSR row, behind an `Arc` in chunks of
//! 1,024 nodes.  A batch stages its ops in a small map (so each op sees the
//! ones before it), then splices each touched node's ops into its current
//! row and installs the result as a fresh row.  Rows are never written once
//! installed, so a published snapshot shares every chunk and row its
//! successor's batches do not touch, and a clone copies one pointer per
//! chunk.
//!
//! Reads stay slice-shaped: a node without a patch answers straight from the
//! base; a patched node answers from its patch.  Either way `Mₑ(v)` is still
//! a few loads and a subtraction, so the matcher's hot path is unchanged.
//! Once the number of edges that differ from the base reaches the graph's
//! compaction threshold, each direction's patched rows — already grouped
//! by label and sorted — are spliced into a copy of its base CSR (one pass
//! over the runs of unpatched nodes plus Σ of the patched rows; no sort, no
//! transpose) and the overlay is dropped.
//!
//! Updates arrive as [`EdgeOp`] batches via `Graph::apply_edge_ops`, which
//! reports what actually changed in an [`UpdateReport`] (duplicate inserts
//! and deletes of absent edges are counted no-ops, not errors) and
//! accumulates lifetime [`UpdateStats`] for observability and tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::csr::CsrAdjacency;
use crate::graph::NodeId;
use crate::labels::LabelId;

/// A `(node, label, neighbor)` edge in raw `u32` form: for the out direction
/// `(from, label, to)`, for the in direction `(to, label, from)`.
type Triple = (u32, u32, u32);

/// One edge mutation in a batch handed to `Graph::apply_edge_ops`.
///
/// Semantics are set-like: inserting an edge that is already present and
/// deleting an edge that is absent are counted no-ops (see
/// [`UpdateReport`]), not errors.  Naming a node id that does not exist or
/// an edge label the graph never interned *is* an error and fails the whole
/// batch without applying any of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert the directed edge `from → to` with the given label.
    Insert {
        /// Source node of the edge.
        from: NodeId,
        /// Target node of the edge.
        to: NodeId,
        /// Edge label.
        label: LabelId,
    },
    /// Delete the directed edge `from → to` with the given label.
    Delete {
        /// Source node of the edge.
        from: NodeId,
        /// Target node of the edge.
        to: NodeId,
        /// Edge label.
        label: LabelId,
    },
}

impl EdgeOp {
    /// Shorthand for an insert op.
    pub fn insert(from: NodeId, to: NodeId, label: LabelId) -> Self {
        EdgeOp::Insert { from, to, label }
    }

    /// Shorthand for a delete op.
    pub fn delete(from: NodeId, to: NodeId, label: LabelId) -> Self {
        EdgeOp::Delete { from, to, label }
    }

    /// Source node of the op.
    #[inline]
    pub fn from(&self) -> NodeId {
        match *self {
            EdgeOp::Insert { from, .. } | EdgeOp::Delete { from, .. } => from,
        }
    }

    /// Target node of the op.
    #[inline]
    pub fn to(&self) -> NodeId {
        match *self {
            EdgeOp::Insert { to, .. } | EdgeOp::Delete { to, .. } => to,
        }
    }

    /// Edge label of the op.
    #[inline]
    pub fn label(&self) -> LabelId {
        match *self {
            EdgeOp::Insert { label, .. } | EdgeOp::Delete { label, .. } => label,
        }
    }

    /// Is this an insert?
    #[inline]
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeOp::Insert { .. })
    }

    /// The op that undoes this one.  Only meaningful for ops that actually
    /// changed the graph — the inverse of a counted no-op is *not* a no-op.
    pub fn inverse(&self) -> EdgeOp {
        match *self {
            EdgeOp::Insert { from, to, label } => EdgeOp::Delete { from, to, label },
            EdgeOp::Delete { from, to, label } => EdgeOp::Insert { from, to, label },
        }
    }
}

/// What one `Graph::apply_edge_ops` batch actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Edges that became present (insert of an absent edge).
    pub inserted: usize,
    /// Edges that became absent (delete of a present edge).
    pub deleted: usize,
    /// Inserts of edges that were already present.
    pub noop_inserts: usize,
    /// Deletes of edges that were not present.
    pub noop_deletes: usize,
    /// Per-direction node adjacencies re-materialized for this batch.
    pub nodes_patched: usize,
    /// Whether the batch pushed the overlay past the compaction threshold
    /// and was folded back into the frozen CSR.
    pub compacted: bool,
}

impl UpdateReport {
    /// Did the batch change the edge set at all?
    pub fn changed(&self) -> bool {
        self.inserted > 0 || self.deleted > 0
    }
}

/// Lifetime counters for the update path of one `Graph`.
///
/// These make update-path behavior assertable in tests (e.g. "a single-edge
/// insert patches at most two node rows and never rebuilds the full CSR")
/// without resorting to wall-clock measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Total `EdgeOp`s processed (including no-ops).
    pub ops_applied: usize,
    /// Edges inserted (absent → present transitions).
    pub edges_inserted: usize,
    /// Edges deleted (present → absent transitions).
    pub edges_deleted: usize,
    /// Inserts that found the edge already present.
    pub noop_inserts: usize,
    /// Deletes that found the edge absent.
    pub noop_deletes: usize,
    /// Per-direction node adjacencies re-materialized.
    pub nodes_patched: usize,
    /// Overlay-to-CSR compactions: threshold crossings and calls of
    /// `Graph::compact_updates` with updates pending, each of which splices
    /// both directions' patched rows into copies of their CSRs.
    pub compactions: usize,
}

/// Nodes per chunk of row slots.  A publish clones one pointer per chunk;
/// the first write to a chunk after a publish copies its slots.
pub(crate) const CHUNK: usize = 1024;

/// One chunk of row slots (the last may be shorter); `None` reads the base
/// row.
type Chunk = [Option<Arc<PatchedNode>>];

/// One CSR-shaped row: the merged adjacency of a single patched node.
#[derive(Debug)]
struct PatchedNode {
    /// Per-label range starts plus one trailing end, like one CSR stride.
    offsets: Vec<u32>,
    /// Neighbors grouped by label, sorted within each label group.
    targets: Vec<NodeId>,
}

impl PatchedNode {
    #[inline]
    fn slice(&self, l: usize) -> &[NodeId] {
        if l + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

fn empty_chunk(len: usize) -> Arc<Chunk> {
    (0..len).map(|_| None).collect()
}

/// One direction of the overlay.  For the out direction triples are
/// `(from, label, to)`; for the in direction `(to, label, from)` — the same
/// convention the two CSRs use.
///
/// Rows are immutable once installed and shared by every snapshot cloned
/// after that: a repatch builds a fresh row and installs it through
/// [`Arc::make_mut`] on its chunk, so a clone costs one pointer per chunk
/// and a batch copies only the chunks and rows it touches.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaSide {
    /// The current row of every node, [`CHUNK`] nodes per chunk.
    rows: Vec<Arc<Chunk>>,
    /// Triples whose presence differs from the base: effective inserts of
    /// non-base edges plus effective deletes of base edges.
    pending: usize,
    /// The running batch's effective ops, `triple → present`, until
    /// `repatch_staged` splices them into their nodes' rows.  Empty
    /// between batches.
    staged: BTreeMap<Triple, bool>,
}

impl DeltaSide {
    fn new(node_count: usize) -> Self {
        DeltaSide {
            rows: (0..node_count)
                .step_by(CHUNK)
                .map(|start| empty_chunk((node_count - start).min(CHUNK)))
                .collect(),
            ..Self::default()
        }
    }

    /// Number of triples whose presence differs from the base.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Is `t` present, counting the ops staged so far?
    fn present(&self, base: &CsrAdjacency, t: Triple) -> bool {
        match self.staged.get(&t) {
            Some(&present) => present,
            None => self.contains(base, t.0 as usize, t.1 as usize, NodeId(t.2)),
        }
    }

    /// Stages `t` as `present` (an insert or a delete).  Returns whether
    /// the edge set changed: `false`, staging nothing, when `t` already is.
    fn stage(&mut self, base: &CsrAdjacency, t: Triple, present: bool) -> bool {
        if self.present(base, t) == present {
            return false;
        }
        self.staged.insert(t, present);
        // Back to the base's state cancels a pending entry (a re-inserted
        // base edge, a deleted pending insert); away from it adds one.
        if base.contains(t.0 as usize, t.1 as usize, NodeId(t.2)) == present {
            self.pending -= 1;
        } else {
            self.pending += 1;
        }
        true
    }

    /// Splices the running batch's staged ops into their nodes' rows and
    /// returns the number of rows re-materialized.  The staged map is taken
    /// whole; it is ordered by node first, so each node's ops are one run,
    /// spliced in node order.
    fn repatch_staged(&mut self, base: &CsrAdjacency) -> usize {
        let staged: Vec<(Triple, bool)> = std::mem::take(&mut self.staged).into_iter().collect();
        let mut patched = 0;
        for ops in staged.chunk_by(|(a, _), (b, _)| a.0 == b.0) {
            self.repatch(base, ops);
            patched += 1;
        }
        patched
    }

    /// Splices one node's run of staged ops into its current row (patch or
    /// base) and installs the result as a fresh row, at the base's stride:
    /// the runs between staged neighbors are copied whole,
    /// `O(degree(v) + staged(v) · log degree(v))`.
    fn repatch(&mut self, base: &CsrAdjacency, ops: &[(Triple, bool)]) {
        let (v, label_count) = (ops[0].0 .0, base.label_count());
        let vi = v as usize;
        let mut offsets = Vec::with_capacity(label_count + 1);
        let mut targets = Vec::with_capacity(self.node_slice(base, vi).len() + ops.len());
        let mut next = 0;
        for l in 0..label_count {
            offsets.push(targets.len() as u32);
            let row = self.slice(base, vi, l);
            let mut start = 0;
            let in_label = |&&((_, ol, _), _): &&(Triple, bool)| ol as usize == l;
            while let Some(&((_, _, w), present)) = ops.get(next).filter(in_label) {
                next += 1;
                let at = start + row[start..].partition_point(|x| x.0 < w);
                targets.extend_from_slice(&row[start..at]);
                if present {
                    targets.push(NodeId(w));
                }
                start = at + usize::from(row.get(at) == Some(&NodeId(w)));
            }
            targets.extend_from_slice(&row[start..]);
        }
        offsets.push(targets.len() as u32);
        debug_assert_eq!(next, ops.len(), "a staged label beyond the row's stride");
        debug_assert_eq!(
            targets.len() as isize - self.node_slice(base, vi).len() as isize,
            ops.iter()
                .filter(|&&((_, l, w), present)| {
                    self.contains(base, vi, l as usize, NodeId(w)) != present
                })
                .map(|&(_, present)| if present { 1 } else { -1 })
                .sum::<isize>(),
            "the spliced row of node {v} lost or duplicated a neighbor"
        );
        Arc::make_mut(&mut self.rows[vi / CHUNK])[vi % CHUNK] =
            Some(Arc::new(PatchedNode { offsets, targets }));
    }

    /// Every patched row as `(node, offsets, targets)`, in node order —
    /// what a compaction splices into the base.
    pub(crate) fn patches(&self) -> impl Iterator<Item = (usize, &[u32], &[NodeId])> {
        let rows = self.rows.iter().flat_map(|chunk| chunk.iter()).enumerate();
        rows.filter_map(|(v, row)| row.as_deref().map(|r| (v, &r.offsets[..], &r.targets[..])))
    }

    /// The patch of `v`, `None` when `v` reads the base.
    #[inline]
    fn row(&self, v: usize) -> Option<&PatchedNode> {
        self.rows[v / CHUNK][v % CHUNK].as_deref()
    }

    /// `Mₑ(v)` through the overlay: the patch when `v` was touched, the base
    /// row otherwise.
    #[inline]
    pub(crate) fn slice<'a>(&'a self, base: &'a CsrAdjacency, v: usize, l: usize) -> &'a [NodeId] {
        match self.row(v) {
            None => base.slice(v, l),
            Some(row) => row.slice(l),
        }
    }

    /// All neighbors of `v` (every label) through the overlay.
    #[inline]
    pub(crate) fn node_slice<'a>(&'a self, base: &'a CsrAdjacency, v: usize) -> &'a [NodeId] {
        match self.row(v) {
            None => base.node_slice(v),
            Some(row) => &row.targets,
        }
    }

    /// Membership test through the overlay.
    #[inline]
    pub(crate) fn contains(&self, base: &CsrAdjacency, v: usize, l: usize, w: NodeId) -> bool {
        self.slice(base, v, l).binary_search(&w).is_ok()
    }
}

/// The two-direction overlay a live `Graph` carries between compactions.
/// Cloning it — what every published snapshot does — copies one pointer per
/// [`CHUNK`] nodes and direction.
#[derive(Debug, Clone)]
pub(crate) struct GraphDelta {
    /// Out direction: triples are `(from, label, to)`.
    pub(crate) out: DeltaSide,
    /// In direction: triples are `(to, label, from)`.
    pub(crate) inn: DeltaSide,
}

impl GraphDelta {
    pub(crate) fn new(node_count: usize) -> Self {
        GraphDelta {
            out: DeltaSide::new(node_count),
            inn: DeltaSide::new(node_count),
        }
    }

    /// Stages one op in both directions.  Returns whether the edge set
    /// changed.
    pub(crate) fn apply(
        &mut self,
        out_base: &CsrAdjacency,
        in_base: &CsrAdjacency,
        op: &EdgeOp,
    ) -> bool {
        let (f, l, t) = (op.from().0, op.label().0, op.to().0);
        let changed = self.out.stage(out_base, (f, l, t), op.is_insert());
        if changed {
            let mirrored = self.inn.stage(in_base, (t, l, f), op.is_insert());
            debug_assert!(mirrored, "out/in overlay views disagree");
        }
        changed
    }

    /// Splices the staged ops into their nodes' rows, in both directions,
    /// and returns the number of rows re-materialized.
    pub(crate) fn repatch_all(&mut self, out_base: &CsrAdjacency, in_base: &CsrAdjacency) -> usize {
        self.out.repatch_staged(out_base) + self.inn.repatch_staged(in_base)
    }

    /// Triples whose presence differs from the base (the same count in
    /// both directions).  Read between batches, once every staged op is in
    /// its row.
    pub(crate) fn pending(&self) -> usize {
        debug_assert!(
            self.out.staged.is_empty() && self.inn.staged.is_empty(),
            "a staged op was never spliced into its row"
        );
        debug_assert_eq!(
            self.out.pending(),
            self.inn.pending(),
            "out/in overlay views disagree"
        );
        self.out.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-op entry points the tests below drive, and a probe of what
    /// two clones share.
    impl DeltaSide {
        fn apply_insert(&mut self, base: &CsrAdjacency, t: Triple) -> bool {
            self.stage(base, t, true)
        }

        fn apply_delete(&mut self, base: &CsrAdjacency, t: Triple) -> bool {
            self.stage(base, t, false)
        }

        /// Per chunk, then per node: does `self` share it with `other` —
        /// the same chunk allocation; the same row allocation, or both
        /// reading the base?
        pub(crate) fn sharing(&self, other: &DeltaSide) -> (Vec<bool>, Vec<bool>) {
            let chunks = self.rows.iter().zip(&other.rows);
            let rows = chunks.clone().flat_map(|(a, b)| a.iter().zip(b.iter()));
            let rows = rows.map(|pair| match pair {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            });
            (
                chunks.map(|(a, b)| Arc::ptr_eq(a, b)).collect(),
                rows.collect(),
            )
        }
    }

    fn base_csr() -> CsrAdjacency {
        // Node 0: label 0 -> {1, 2}; node 1: label 1 -> {0}; node 2: none.
        CsrAdjacency::from_rows(3, 2, 3, |v, l, row| match (v, l) {
            (0, 0) => row.extend([NodeId(1), NodeId(2)]),
            (1, 1) => row.push(NodeId(0)),
            _ => {}
        })
    }

    /// Every node's merged row, frozen — what a compaction installs.
    fn freeze_rows(side: &DeltaSide, base: &CsrAdjacency) -> CsrAdjacency {
        CsrAdjacency::from_rows(3, 2, 0, |v, l, row| {
            row.extend_from_slice(side.slice(base, v, l))
        })
    }

    /// The `(node, label, neighbor)` triples of a frozen adjacency.
    fn triples(csr: &CsrAdjacency) -> Vec<Triple> {
        let mut out = Vec::new();
        for v in 0..3u32 {
            for l in 0..2u32 {
                out.extend(
                    csr.slice(v as usize, l as usize)
                        .iter()
                        .map(|w| (v, l, w.0)),
                );
            }
        }
        out
    }

    #[test]
    fn insert_and_delete_change_merged_rows() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(side.apply_insert(&base, (0, 1, 2)));
        assert!(side.apply_delete(&base, (0, 0, 1)));
        side.repatch_staged(&base);
        assert_eq!(side.slice(&base, 0, 0), &[NodeId(2)]);
        assert_eq!(side.slice(&base, 0, 1), &[NodeId(2)]);
        assert_eq!(side.node_slice(&base, 0), &[NodeId(2), NodeId(2)]);
        // Untouched nodes still read the base.
        assert_eq!(side.slice(&base, 1, 1), &[NodeId(0)]);
        assert!(side.contains(&base, 0, 1, NodeId(2)));
        assert!(!side.contains(&base, 0, 0, NodeId(1)));
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(!side.apply_insert(&base, (0, 0, 1)), "already in base");
        assert!(side.apply_insert(&base, (2, 0, 0)));
        assert!(!side.apply_insert(&base, (2, 0, 0)), "already pending");
        assert!(!side.apply_delete(&base, (2, 1, 1)), "never existed");
        assert_eq!(side.pending(), 1);
    }

    #[test]
    fn delete_then_reinsert_cancels_the_tombstone() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(side.apply_delete(&base, (0, 0, 1)));
        assert!(side.apply_insert(&base, (0, 0, 1)), "tombstone removed");
        assert_eq!(side.pending(), 0);
        side.repatch_staged(&base);
        assert_eq!(side.slice(&base, 0, 0), base.slice(0, 0));
    }

    #[test]
    fn insert_then_delete_cancels_the_pending_insert() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(side.apply_insert(&base, (2, 1, 1)));
        assert!(side.apply_delete(&base, (2, 1, 1)));
        assert_eq!(side.pending(), 0);
        side.repatch_staged(&base);
        assert!(side.slice(&base, 2, 1).is_empty());
    }

    /// Insert, delete, insert of one edge in one batch: each op sees the
    /// ones staged before it, on a base edge and on a non-base edge.
    #[test]
    fn insert_delete_insert_in_one_batch_ends_present() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(!side.apply_insert(&base, (0, 0, 1)), "already in base");
        assert!(side.apply_delete(&base, (0, 0, 1)));
        assert!(side.apply_insert(&base, (0, 0, 1)));
        assert_eq!(side.pending(), 0, "back to the base");
        assert!(side.apply_insert(&base, (2, 1, 1)));
        assert!(side.apply_delete(&base, (2, 1, 1)));
        assert!(side.apply_insert(&base, (2, 1, 1)));
        assert_eq!(side.pending(), 1);
        side.repatch_staged(&base);
        assert!(side.staged.is_empty());
        assert_eq!(side.node_slice(&base, 0), &[NodeId(1), NodeId(2)]);
        assert_eq!(side.slice(&base, 2, 0), &[] as &[NodeId]);
        assert_eq!(side.slice(&base, 2, 1), &[NodeId(1)]);
        assert_eq!(side.pending(), 1);
    }

    /// Delete, insert, delete of one edge in one batch, the mirror image.
    #[test]
    fn delete_insert_delete_in_one_batch_ends_absent() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(side.apply_delete(&base, (0, 0, 1)));
        assert!(side.apply_insert(&base, (0, 0, 1)));
        assert!(side.apply_delete(&base, (0, 0, 1)));
        assert_eq!(side.pending(), 1, "one base edge deleted");
        assert!(!side.apply_delete(&base, (2, 1, 1)), "never existed");
        assert!(side.apply_insert(&base, (2, 1, 1)));
        assert!(side.apply_delete(&base, (2, 1, 1)));
        assert_eq!(side.pending(), 1, "the non-base edge cancelled out");
        side.repatch_staged(&base);
        assert!(side.staged.is_empty());
        assert_eq!(side.slice(&base, 0, 0), &[NodeId(2)]);
        assert_eq!(side.node_slice(&base, 0), &[NodeId(2)]);
        assert_eq!(side.node_slice(&base, 2), &[] as &[NodeId]);
        assert_eq!(side.slice(&base, 1, 1), &[NodeId(0)], "untouched");
    }

    #[test]
    fn merged_rows_freeze_to_the_expected_edge_set() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        side.apply_insert(&base, (0, 1, 2));
        side.apply_insert(&base, (2, 0, 1));
        side.apply_delete(&base, (0, 0, 2));
        side.repatch_staged(&base);
        let merged = freeze_rows(&side, &base);
        let mut expect = vec![(0, 0, 1), (0, 1, 2), (1, 1, 0), (2, 0, 1)];
        expect.sort_unstable();
        assert_eq!(triples(&merged), expect);
    }

    #[test]
    fn patched_rows_match_a_batch_rebuild() {
        // Random-ish op soup; the patch of every touched node must equal the
        // row of the expected edge set, kept here as a plain sorted set.
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        let mut expect: std::collections::BTreeSet<Triple> = triples(&base).into_iter().collect();
        let ops: &[(bool, Triple)] = &[
            (true, (0, 1, 0)),
            (false, (0, 0, 1)),
            (true, (2, 0, 2)),
            (true, (1, 0, 2)),
            (false, (1, 1, 0)),
            (true, (0, 0, 1)), // re-insert after delete
        ];
        for &(is_insert, t) in ops {
            if is_insert {
                side.apply_insert(&base, t);
                expect.insert(t);
            } else {
                side.apply_delete(&base, t);
                expect.remove(&t);
            }
        }
        side.repatch_staged(&base);
        for v in 0..3u32 {
            for l in 0..2u32 {
                let row: Vec<NodeId> = expect
                    .range((v, l, 0)..=(v, l, u32::MAX))
                    .map(|t| NodeId(t.2))
                    .collect();
                assert_eq!(
                    side.slice(&base, v as usize, l as usize),
                    &row[..],
                    "row ({v}, {l})"
                );
            }
        }
        let frozen = freeze_rows(&side, &base);
        assert_eq!(triples(&frozen), expect.into_iter().collect::<Vec<_>>());
        for v in 0..3 {
            assert_eq!(side.node_slice(&base, v), frozen.node_slice(v));
        }
    }

    #[test]
    fn edge_op_accessors_and_inverse() {
        let op = EdgeOp::insert(NodeId(1), NodeId(2), LabelId(3));
        assert_eq!(op.from(), NodeId(1));
        assert_eq!(op.to(), NodeId(2));
        assert_eq!(op.label(), LabelId(3));
        assert!(op.is_insert());
        assert_eq!(
            op.inverse(),
            EdgeOp::delete(NodeId(1), NodeId(2), LabelId(3))
        );
        assert_eq!(op.inverse().inverse(), op);
    }
}
