//! Delta overlay over the frozen CSR base — the update path for live graphs.
//!
//! The frozen CSR layout (see the `csr` module) buys constant-time `Mₑ(v)`
//! lookups by giving up cheap mutation: splicing one edge into the flat
//! arrays costs `O(V·L + E)`.  This module restores cheap updates without
//! touching the frozen base.  A `GraphDelta` (crate-private, owned by
//! `Graph`) records, per direction,
//!
//! * sorted side-tables of inserted and deleted `(node, label, neighbor)`
//!   triples — the durable record of everything applied since the last
//!   compaction, and
//! * per-node *patches*: for each node an update touched, a materialized
//!   merged adjacency (base ∪ inserted ∖ deleted) in the same
//!   offsets-plus-targets shape as one CSR row.
//!
//! Reads stay slice-shaped: a node without a patch answers straight from the
//! base; a patched node answers from its patch.  Either way `Mₑ(v)` is still
//! two loads and a subtraction, so the matcher's hot path is unchanged.
//! Once the side-tables grow past the graph's compaction threshold, these
//! merged rows — already grouped by label and sorted — are concatenated
//! into a fresh CSR (`O(V·L + E)`, no sort) and the overlay is dropped.
//!
//! Updates arrive as [`EdgeOp`] batches via `Graph::apply_edge_ops`, which
//! reports what actually changed in an [`UpdateReport`] (duplicate inserts
//! and deletes of absent edges are counted no-ops, not errors) and
//! accumulates lifetime [`UpdateStats`] for observability and tests.

use crate::csr::CsrAdjacency;
use crate::graph::NodeId;
use crate::labels::LabelId;

/// A `(node, label, neighbor)` side-table entry in raw `u32` form: for the
/// out direction `(from, label, to)`, for the in direction
/// `(to, label, from)`.
type Triple = (u32, u32, u32);

/// One edge mutation in a batch handed to `Graph::apply_edge_ops`.
///
/// Semantics are set-like: inserting an edge that is already present and
/// deleting an edge that is absent are counted no-ops (see
/// [`UpdateReport`]), not errors.  Referencing a node id that does not
/// exist *is* an error and fails the whole batch without applying any of it.
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
    /// Overlay-to-CSR compactions (threshold crossings and forced folds,
    /// including the fold a label widening does while updates are pending).
    pub compactions: usize,
    /// Label widenings: ops naming an edge label beyond the frozen index,
    /// each of which refreezes the CSR at the wider stride.
    pub full_rebuilds: usize,
}

/// Marker in `patch_index` for "this node has no patch; read the base".
const CLEAN: u32 = u32::MAX;

/// One CSR-shaped row: the merged adjacency of a single patched node.
#[derive(Debug, Clone, Default)]
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

    #[inline]
    fn node_slice(&self) -> &[NodeId] {
        &self.targets
    }
}

/// One direction of the overlay.  For the out direction triples are
/// `(from, label, to)`; for the in direction `(to, label, from)` — the same
/// convention the two CSRs use.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaSide {
    /// Sorted triples inserted since the last compaction.  Disjoint from the
    /// base and from `deleted`.
    inserted: Vec<Triple>,
    /// Sorted triples deleted since the last compaction.  Always a subset of
    /// the base.
    deleted: Vec<Triple>,
    /// Per-node patch slot, [`CLEAN`] when the node reads from the base.
    patch_index: Vec<u32>,
    /// Materialized merged rows for every touched node.
    patched: Vec<PatchedNode>,
}

/// Returns the index range of `list` whose triples belong to node `v`.
fn node_range(list: &[Triple], v: u32) -> std::ops::Range<usize> {
    let lo = list.partition_point(|t| t.0 < v);
    let hi = lo + list[lo..].partition_point(|t| t.0 == v);
    lo..hi
}

impl DeltaSide {
    fn new(node_count: usize) -> Self {
        DeltaSide {
            patch_index: vec![CLEAN; node_count],
            ..Self::default()
        }
    }

    fn push_node(&mut self) {
        self.patch_index.push(CLEAN);
    }

    /// Number of pending side-table entries (inserts plus deletes).
    pub(crate) fn pending(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Records an insert.  Returns `true` when the edge transitions from
    /// absent to present, `false` for a duplicate.
    fn apply_insert(&mut self, base: &CsrAdjacency, t: Triple) -> bool {
        if let Ok(pos) = self.deleted.binary_search(&t) {
            // Re-insert of a tombstoned base edge: drop the tombstone.
            self.deleted.remove(pos);
            return true;
        }
        if base.contains(t.0 as usize, t.1 as usize, NodeId(t.2)) {
            return false;
        }
        match self.inserted.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.inserted.insert(pos, t);
                true
            }
        }
    }

    /// Records a delete.  Returns `true` when the edge transitions from
    /// present to absent, `false` when it was not present.
    fn apply_delete(&mut self, base: &CsrAdjacency, t: Triple) -> bool {
        if let Ok(pos) = self.inserted.binary_search(&t) {
            // Deleting a pending insert cancels it outright.
            self.inserted.remove(pos);
            return true;
        }
        if !base.contains(t.0 as usize, t.1 as usize, NodeId(t.2)) {
            return false;
        }
        match self.deleted.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.deleted.insert(pos, t);
                true
            }
        }
    }

    /// Re-materializes the merged row of node `v` from the base and the
    /// side-tables.  `O(degree(v) + pending(v))`.
    fn repatch(&mut self, base: &CsrAdjacency, v: u32, label_count: usize) {
        let ins = &self.inserted[node_range(&self.inserted, v)];
        let del = &self.deleted[node_range(&self.deleted, v)];
        let mut offsets = Vec::with_capacity(label_count + 1);
        let mut targets =
            Vec::with_capacity((base.degree(v as usize) + ins.len()).saturating_sub(del.len()));
        let (mut ii, mut di) = (0usize, 0usize);
        for l in 0..label_count as u32 {
            offsets.push(targets.len() as u32);
            let b = base.slice(v as usize, l as usize);
            let ins_end = ii + ins[ii..].partition_point(|t| t.1 == l);
            let del_end = di + del[di..].partition_point(|t| t.1 == l);
            let (mut bi, mut dj) = (0usize, di);
            // Merge the base range with the label's inserts, dropping the
            // label's deletes (which are always base members); the three
            // runs are each sorted by neighbor id.
            while bi < b.len() || ii < ins_end {
                let take_base =
                    ii >= ins_end || (bi < b.len() && b[bi].0 <= ins[ii].2);
                if take_base {
                    let w = b[bi];
                    bi += 1;
                    while dj < del_end && del[dj].2 < w.0 {
                        dj += 1;
                    }
                    if dj < del_end && del[dj].2 == w.0 {
                        dj += 1;
                        continue;
                    }
                    targets.push(w);
                } else {
                    targets.push(NodeId(ins[ii].2));
                    ii += 1;
                }
            }
            di = del_end;
        }
        debug_assert_eq!(
            targets.len() + del.len(),
            base.degree(v as usize) + ins.len(),
            "tombstone not in base"
        );
        offsets.push(targets.len() as u32);
        let row = PatchedNode { offsets, targets };
        match self.patch_index[v as usize] {
            CLEAN => {
                self.patch_index[v as usize] = self.patched.len() as u32;
                self.patched.push(row);
            }
            slot => self.patched[slot as usize] = row,
        }
    }

    /// `Mₑ(v)` through the overlay: the patch when `v` was touched, the base
    /// row otherwise.
    #[inline]
    pub(crate) fn slice<'a>(&'a self, base: &'a CsrAdjacency, v: usize, l: usize) -> &'a [NodeId] {
        match self.patch_index[v] {
            CLEAN => base.slice(v, l),
            slot => self.patched[slot as usize].slice(l),
        }
    }

    /// All neighbors of `v` (every label) through the overlay.
    #[inline]
    pub(crate) fn node_slice<'a>(&'a self, base: &'a CsrAdjacency, v: usize) -> &'a [NodeId] {
        match self.patch_index[v] {
            CLEAN => base.node_slice(v),
            slot => self.patched[slot as usize].node_slice(),
        }
    }

    /// Membership test through the overlay.
    #[inline]
    pub(crate) fn contains(&self, base: &CsrAdjacency, v: usize, l: usize, w: NodeId) -> bool {
        self.slice(base, v, l).binary_search(&w).is_ok()
    }

    /// Any-label membership test through the overlay.
    pub(crate) fn contains_any(&self, base: &CsrAdjacency, v: usize, w: NodeId) -> bool {
        match self.patch_index[v] {
            CLEAN => base.contains_any(v, w),
            slot => {
                let row = &self.patched[slot as usize];
                let labels = row.offsets.len().saturating_sub(1);
                (0..labels).any(|l| row.slice(l).binary_search(&w).is_ok())
            }
        }
    }
}

/// The two-direction overlay a live `Graph` carries between compactions.
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

    pub(crate) fn push_node(&mut self) {
        self.out.push_node();
        self.inn.push_node();
    }

    /// Applies one op to both directions.  Returns whether the edge set
    /// changed.
    pub(crate) fn apply(
        &mut self,
        out_base: &CsrAdjacency,
        in_base: &CsrAdjacency,
        op: &EdgeOp,
    ) -> bool {
        let (f, l, t) = (op.from().0, op.label().0, op.to().0);
        let changed = if op.is_insert() {
            self.out.apply_insert(out_base, (f, l, t))
        } else {
            self.out.apply_delete(out_base, (f, l, t))
        };
        if changed {
            let mirrored = if op.is_insert() {
                self.inn.apply_insert(in_base, (t, l, f))
            } else {
                self.inn.apply_delete(in_base, (t, l, f))
            };
            debug_assert!(mirrored, "out/in overlay views disagree");
        }
        changed
    }

    /// Re-materializes the rows of the touched nodes.  `touched_out` and
    /// `touched_in` must be sorted and deduplicated.
    pub(crate) fn repatch_all(
        &mut self,
        out_base: &CsrAdjacency,
        in_base: &CsrAdjacency,
        label_count: usize,
        touched_out: &[u32],
        touched_in: &[u32],
    ) {
        for &v in touched_out {
            self.out.repatch(out_base, v, label_count);
        }
        for &v in touched_in {
            self.inn.repatch(in_base, v, label_count);
        }
    }

    /// Larger of the two sides' pending side-table sizes (they can differ
    /// only transiently; both directions record the same edge set).
    pub(crate) fn pending(&self) -> usize {
        self.out.pending().max(self.inn.pending())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        side.repatch(&base, 0, 2);
        assert_eq!(side.slice(&base, 0, 0), &[NodeId(2)]);
        assert_eq!(side.slice(&base, 0, 1), &[NodeId(2)]);
        assert_eq!(side.node_slice(&base, 0), &[NodeId(2), NodeId(2)]);
        // Untouched nodes still read the base.
        assert_eq!(side.slice(&base, 1, 1), &[NodeId(0)]);
        assert!(side.contains(&base, 0, 1, NodeId(2)));
        assert!(!side.contains(&base, 0, 0, NodeId(1)));
        assert!(side.contains_any(&base, 0, NodeId(2)));
        assert!(!side.contains_any(&base, 0, NodeId(1)));
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
        side.repatch(&base, 0, 2);
        assert_eq!(side.slice(&base, 0, 0), base.slice(0, 0));
    }

    #[test]
    fn insert_then_delete_cancels_the_pending_insert() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        assert!(side.apply_insert(&base, (2, 1, 1)));
        assert!(side.apply_delete(&base, (2, 1, 1)));
        assert_eq!(side.pending(), 0);
        side.repatch(&base, 2, 2);
        assert!(side.slice(&base, 2, 1).is_empty());
    }

    #[test]
    fn merged_rows_freeze_to_the_expected_edge_set() {
        let base = base_csr();
        let mut side = DeltaSide::new(3);
        side.apply_insert(&base, (0, 1, 2));
        side.apply_insert(&base, (2, 0, 1));
        side.apply_delete(&base, (0, 0, 2));
        for v in [0, 2] {
            side.repatch(&base, v, 2);
        }
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
        for v in 0..3 {
            side.repatch(&base, v, 2);
        }
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
        assert_eq!(op.inverse(), EdgeOp::delete(NodeId(1), NodeId(2), LabelId(3)));
        assert_eq!(op.inverse().inverse(), op);
    }
}
