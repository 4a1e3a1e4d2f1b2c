//! The writer side of the epoch/snapshot architecture.
//!
//! A [`GraphStore`] owns the working graph.  Writers apply
//! [`EdgeOp`] batches through [`GraphStore::apply`]; each batch produces a
//! new immutable [`GraphSnapshot`] published atomically behind an `Arc`
//! swap, and bumps the store's epoch counter.  A publish copies only what
//! its batch touched: the snapshot shares the frozen CSR and every overlay
//! chunk and row with the working copy, which replaces rather than writes
//! them.  Readers pin an epoch with [`GraphStore::snapshot`] — one brief
//! pointer-sized critical section — and from then on query the pinned
//! snapshot with **zero** synchronization, no matter how far the writer
//! races ahead.  Compaction of the delta overlay happens on the working
//! copy only: a published snapshot is never touched again.
//!
//! The store also keeps a bounded per-epoch log of the applied `EdgeOp`
//! batches ([`GraphStore::replay_from`]), which lets incremental consumers —
//! `MatchView::advance` in qgp-core — move from an older epoch to the head
//! by repairing around the missed ops instead of recomputing from scratch.
//!
//! All synchronization goes through the [`qgp_runtime::sync`] facade, so
//! the publish protocol can be model-checked (`tests/model_store.rs`): the
//! epoch counter is stored with [`publish_ordering`] (Release, weakened to
//! Relaxed under `--cfg qgp_mutate` so the checker demonstrably catches the
//! broken protocol).

use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::PoisonError;

use qgp_runtime::sync::{AtomicU64, Mutex, Ordering};

use crate::delta::{EdgeOp, UpdateReport};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::snapshot::GraphSnapshot;

/// Default number of recent epochs whose [`EdgeOp`] batches the store
/// retains for [`GraphStore::replay_from`].
pub const DEFAULT_LOG_RETENTION: usize = 64;

/// Memory ordering used for the epoch-counter publish.
///
/// Release in normal builds: a reader that observes epoch `n` with an
/// Acquire load is guaranteed the snapshot for epoch `n` is fully built and
/// installed.  Under `--cfg qgp_mutate` this weakens to Relaxed, which
/// breaks that guarantee — the model suite asserts qgp-check catches the
/// resulting race (see `tests/model_store.rs`).
#[inline]
pub fn publish_ordering() -> Ordering {
    #[cfg(not(qgp_mutate))]
    {
        Ordering::Release
    }
    #[cfg(qgp_mutate)]
    {
        // relaxed: the deliberate mutation-testing weakening — the model
        // suite must catch the race this introduces (tests/model_store.rs).
        Ordering::Relaxed
    }
}

/// Writer-side state: the working graph plus the bounded replay log.
struct Writer {
    /// The working copy.  Mutated and compacted freely; published epochs
    /// are clones of it that share its frozen CSR and overlay rows, which
    /// the writer replaces rather than writes, so neither a later batch nor
    /// a compaction disturbs them.
    graph: Graph,
    /// `(epoch, ops)` pairs, oldest first: `ops` is the batch that advanced
    /// the store from `epoch - 1` to `epoch`.
    log: VecDeque<(u64, Vec<EdgeOp>)>,
    /// Maximum number of epochs kept in `log`.
    retention: usize,
}

/// A versioned graph: single writer, any number of non-blocking readers.
///
/// ```
/// use qgp_graph::{EdgeOp, GraphBuilder, GraphStore};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node("person");
/// let c = b.add_node("person");
/// b.add_edge(a, c, "follows").unwrap();
/// let store = GraphStore::new(b.build());
/// let follows = store.snapshot().labels().edge_label("follows").unwrap();
///
/// let pinned = store.snapshot();                       // reader pins epoch 0
/// store.apply(&[EdgeOp::delete(a, c, follows)]).unwrap();  // writer races ahead
///
/// assert!(pinned.has_edge(a, c, follows));             // pinned epoch unchanged
/// assert!(!store.snapshot().has_edge(a, c, follows));  // head sees the delete
/// assert_eq!(store.epoch(), 1);
/// ```
pub struct GraphStore {
    /// Writer state; held across mutation + snapshot construction, so
    /// concurrent `apply` calls serialize.  Never taken on the read path.
    writer: Mutex<Writer>,
    /// The published head snapshot.  Locked only to swap or clone one
    /// `Arc` pointer — the read path's only (pointer-sized) critical
    /// section; queries themselves run on pinned snapshots lock-free.
    head: Mutex<Arc<GraphSnapshot>>,
    /// Epoch of the latest published snapshot; see [`publish_ordering`].
    epoch: AtomicU64,
}

impl GraphStore {
    /// Takes ownership of a graph and publishes it as epoch 0.
    pub fn new(graph: Graph) -> Self {
        Self::with_log_retention(graph, DEFAULT_LOG_RETENTION)
    }

    /// As [`GraphStore::new`], with a custom [`replay_from`] log retention
    /// (epochs of batches kept; `0` disables replay entirely).
    ///
    /// [`replay_from`]: GraphStore::replay_from
    pub fn with_log_retention(graph: Graph, retention: usize) -> Self {
        let head = Arc::new(GraphSnapshot::at_epoch(graph.clone(), 0));
        GraphStore {
            writer: Mutex::new(Writer {
                graph,
                log: VecDeque::new(),
                retention,
            }),
            head: Mutex::new(head),
            epoch: AtomicU64::new(0),
        }
    }

    /// Applies one batch of edge mutations and publishes the result as a
    /// new epoch, returning the batch's [`UpdateReport`] together with the
    /// epoch just published.
    ///
    /// Batches have the same set semantics and all-or-nothing validation as
    /// [`Graph::apply_edge_ops`]; a failed batch publishes nothing and
    /// leaves the store at its previous epoch.  Every successful batch —
    /// even an all-no-op one — publishes, so the epoch counter equals the
    /// number of successful `apply` calls.  Readers holding earlier
    /// snapshots are unaffected: the new snapshot is a clone of the working
    /// graph that copies one pointer per 1,024 nodes of the overlay, and
    /// later batches and compactions install fresh rows, chunks and CSRs in
    /// the working copy instead of writing the shared ones.
    pub fn apply(&self, ops: &[EdgeOp]) -> Result<(UpdateReport, u64), GraphError> {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let report = w.graph.apply_edge_ops(ops)?;
        // relaxed: epoch writes are serialized by the writer lock held
        // here; this load only reads our own previous store.
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        w.log.push_back((next, ops.to_vec()));
        while w.log.len() > w.retention {
            w.log.pop_front();
        }
        let snapshot = Arc::new(GraphSnapshot::at_epoch(w.graph.clone(), next));
        // Install the head first, then publish the epoch: a reader that
        // observes epoch `next` is guaranteed to find (at least) this
        // snapshot installed.  The writer lock is still held, so publishes
        // cannot interleave.
        *self.head.lock().unwrap_or_else(PoisonError::into_inner) = snapshot;
        self.epoch.store(next, publish_ordering());
        Ok((report, next))
    }

    /// Pins the latest published snapshot.  One brief pointer-clone
    /// critical section; afterwards the returned snapshot is queried with
    /// no synchronization at all, and holding it never blocks the writer.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.head.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The epoch of the latest published snapshot.  Observing epoch `n`
    /// here guarantees a subsequent [`GraphStore::snapshot`] returns a
    /// snapshot of epoch ≥ `n`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The [`EdgeOp`]s that advance epoch `since` to the current head, in
    /// application order, concatenated across the intervening batches,
    /// together with the head snapshot the replay reaches.  Returns `None`
    /// when the bounded log no longer reaches back to `since` (the caller
    /// must rebuild from the head snapshot instead), and no ops when `since`
    /// is already the head epoch.
    ///
    /// The head is pinned under the writer lock, taking the locks in the
    /// order `apply` does (writer, then head).  Publishes happen under that
    /// same writer lock, so the pair is exact: applying the returned ops to
    /// epoch `since` yields precisely the returned snapshot's edge set, with
    /// no window for a concurrent publish in between.  Incremental consumers
    /// (`MatchView::advance`) use the ops only to find what changed, and
    /// then pin the snapshot itself.
    pub fn replay_from(&self, since: u64) -> Option<(Vec<EdgeOp>, Arc<GraphSnapshot>)> {
        let w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let head = self.snapshot();
        if since >= head.epoch() {
            return Some((Vec::new(), head));
        }
        // The log must cover every epoch in (since, head].
        match w.log.front() {
            Some(&(oldest, _)) if oldest <= since + 1 => Some((
                w.log
                    .iter()
                    .filter(|(epoch, _)| *epoch > since)
                    .flat_map(|(_, ops)| ops.iter().copied())
                    .collect(),
                head,
            )),
            _ => None,
        }
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::NodeId;
    use crate::labels::LabelId;

    fn seed() -> (Graph, Vec<NodeId>, LabelId) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..4).map(|_| b.add_node("person")).collect();
        b.add_edge(nodes[0], nodes[1], "follows").unwrap();
        let g = b.build();
        let follows = g.labels().edge_label("follows").unwrap();
        (g, nodes, follows)
    }

    /// `replay_from` with the head snapshot reduced to its epoch.
    fn replay(store: &GraphStore, since: u64) -> Option<(Vec<EdgeOp>, u64)> {
        store
            .replay_from(since)
            .map(|(ops, head)| (ops, head.epoch()))
    }

    #[test]
    fn apply_publishes_monotone_epochs() {
        let (g, n, follows) = seed();
        let store = GraphStore::new(g);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.snapshot().epoch(), 0);
        let (report, epoch) = store.apply(&[EdgeOp::insert(n[1], n[2], follows)]).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(epoch, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.snapshot().epoch(), 1);
        // No-op batches still publish.
        let (report, epoch) = store.apply(&[]).unwrap();
        assert!(!report.changed());
        assert_eq!(epoch, 2);
    }

    #[test]
    fn pinned_snapshots_are_immutable_while_writer_races_ahead() {
        let (g, n, follows) = seed();
        let store = GraphStore::new(g);
        let pinned = store.snapshot();
        for i in 0..8 {
            store
                .apply(&[EdgeOp::insert(n[(i + 1) % 4], n[(i + 2) % 4], follows)])
                .unwrap();
        }
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.edge_count(), 1);
        assert!(store.snapshot().edge_count() > 1);
        // The pinned epoch still shares the frozen CSR with later epochs
        // while the overlay absorbs the updates (COW, below threshold).
        assert!(pinned
            .graph()
            .shares_frozen_storage(store.snapshot().graph()));
    }

    /// A publish copies only what its batch touched: after a one-op batch
    /// on a graph of five chunks with hundreds of pending ops, every chunk
    /// and every row the op did not touch is the previous snapshot's own
    /// allocation, in both directions.  Structural, so clock-free.
    #[test]
    fn a_publish_shares_every_chunk_and_row_its_batch_did_not_touch() {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("person", 5000);
        for i in 0..5000 {
            b.add_edge(n[i], n[(i * 7 + 1) % 5000], "follows").unwrap();
        }
        let store = GraphStore::new(b.build());
        let follows = store.snapshot().labels().edge_label("follows").unwrap();
        let spread: Vec<EdgeOp> = (0..400)
            .map(|i| EdgeOp::insert(n[i * 12], n[(i * 37 + 5) % 5000], follows))
            .collect();
        store.apply(&spread).unwrap();
        let before = store.snapshot();
        let (from, to) = (n[1500], n[4321]);
        store.apply(&[EdgeOp::insert(from, to, follows)]).unwrap();
        let after = store.snapshot();
        assert!(after.pending_updates() > 400);
        assert!(!before.has_edge(from, to, follows));
        assert!(after.has_edge(from, to, follows));
        let (old, new) = (before.delta().unwrap(), after.delta().unwrap());
        for (old, new, touched) in [(&old.out, &new.out, from), (&old.inn, &new.inn, to)] {
            let (chunks, rows) = new.sharing(old);
            assert_eq!((chunks.len(), rows.len()), (5, 5000));
            for (c, &shared) in chunks.iter().enumerate() {
                let touched_chunk = touched.index() / crate::delta::CHUNK;
                assert_eq!(shared, c != touched_chunk, "chunk {c}");
            }
            for (v, &shared) in rows.iter().enumerate() {
                assert_eq!(shared, v != touched.index(), "row {v}");
            }
        }
    }

    #[test]
    fn failed_batches_publish_nothing() {
        let (g, n, follows) = seed();
        let store = GraphStore::new(g);
        let bogus = NodeId::new(99);
        let err = store.apply(&[
            EdgeOp::insert(n[0], n[2], follows),
            EdgeOp::insert(n[0], bogus, follows),
        ]);
        assert!(err.is_err());
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.snapshot().edge_count(), 1);
        assert_eq!(replay(&store, 0), Some((Vec::new(), 0)));
    }

    /// An op naming an edge label the vocabulary never interned fails its
    /// batch before anything moves: no counter, no epoch.
    #[test]
    fn unknown_edge_labels_fail_the_batch_and_publish_nothing() {
        let (g, n, follows) = seed();
        let store = GraphStore::new(g);
        let stats = *store.snapshot().update_stats();
        let unknown = LabelId(10_000);
        let err = store.apply(&[
            EdgeOp::insert(n[0], n[2], follows),
            EdgeOp::insert(n[1], n[2], unknown),
        ]);
        assert_eq!(
            err,
            Err(GraphError::UnknownEdgeLabel {
                label: unknown,
                label_count: 1
            })
        );
        assert_eq!(store.epoch(), 0);
        let head = store.snapshot();
        assert_eq!(*head.update_stats(), stats);
        assert_eq!(head.edge_count(), 1);
        assert!(!head.has_edge(n[0], n[2], follows));
        assert_eq!(replay(&store, 0), Some((Vec::new(), 0)));
        // The next valid batch applies as usual.
        assert_eq!(
            store
                .apply(&[EdgeOp::insert(n[0], n[2], follows)])
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn ops_since_replays_exactly_the_missed_batches() {
        let (g, n, follows) = seed();
        let store = GraphStore::new(g);
        store.apply(&[EdgeOp::insert(n[1], n[2], follows)]).unwrap();
        let mid = store.epoch();
        store
            .apply(&[
                EdgeOp::insert(n[2], n[3], follows),
                EdgeOp::delete(n[0], n[1], follows),
            ])
            .unwrap();
        // The ops come paired with the exact head they reach.
        assert_eq!(
            replay(&store, mid),
            Some((
                vec![
                    EdgeOp::insert(n[2], n[3], follows),
                    EdgeOp::delete(n[0], n[1], follows),
                ],
                store.epoch()
            ))
        );
        let (all, head) = store.replay_from(0).unwrap();
        assert_eq!(all.len(), 3);
        assert!(
            Arc::ptr_eq(&head, &store.snapshot()),
            "the head itself is pinned"
        );
        // Replaying onto a rebuild of epoch 0 reproduces the head.
        let (mut rebuilt, _, _) = seed();
        rebuilt.apply_edge_ops(&all).unwrap();
        assert_eq!(rebuilt.edge_count(), head.edge_count());
        for v in rebuilt.nodes() {
            assert_eq!(rebuilt.out_neighbors_slice(v), head.out_neighbors_slice(v));
        }
    }

    #[test]
    fn truncated_log_reports_none() {
        let (g, n, follows) = seed();
        let store = GraphStore::with_log_retention(g, 2);
        for i in 0..5 {
            store
                .apply(&[EdgeOp::insert(n[i % 4], n[(i + 2) % 4], follows)])
                .unwrap();
        }
        assert_eq!(store.epoch(), 5);
        assert!(replay(&store, 0).is_none(), "epochs 1..=3 were dropped");
        assert!(replay(&store, 2).is_none());
        let (ops, head) = replay(&store, 3).unwrap();
        assert_eq!((ops.len(), head), (2, 5));
        assert_eq!(replay(&store, 5), Some((Vec::new(), 5)));
        // A future epoch (reader from another store) degrades to empty.
        assert_eq!(replay(&store, 9), Some((Vec::new(), 5)));
    }

    #[test]
    fn writer_compaction_never_disturbs_published_epochs() {
        let (mut g, n, follows) = seed();
        g.set_compaction_threshold(2); // compact on nearly every batch
        let store = GraphStore::new(g);
        let pinned = store.snapshot();
        let mut expected = vec![(n[0], n[1], follows)];
        for i in 0..4usize {
            for j in 0..4usize {
                if i == j || (i, j) == (0, 1) {
                    continue;
                }
                store.apply(&[EdgeOp::insert(n[i], n[j], follows)]).unwrap();
                expected.push((n[i], n[j], follows));
            }
        }
        // The pinned epoch still answers exactly as at publish time.
        assert_eq!(pinned.edge_count(), 1);
        assert!(pinned.has_edge(n[0], n[1], follows));
        assert!(!pinned.has_edge(n[1], n[2], follows));
        // And the head has everything.
        let head = store.snapshot();
        for &(f, t, l) in &expected {
            assert!(head.has_edge(f, t, l));
        }
    }

    #[test]
    fn concurrent_readers_pin_while_writer_publishes() {
        use qgp_runtime::sync::scope;
        let (g, n, follows) = seed();
        let store = GraphStore::new(g);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let observed = store.epoch();
                        let snap = store.snapshot();
                        assert!(
                            snap.epoch() >= observed,
                            "snapshot {} older than observed epoch {observed}",
                            snap.epoch()
                        );
                        // A pinned snapshot is internally consistent: the
                        // edge count matches an actual adjacency scan.
                        let scanned: usize = snap.nodes().map(|v| snap.out_degree(v)).sum();
                        assert_eq!(scanned, snap.edge_count());
                    }
                });
            }
            s.spawn(|| {
                for i in 0..50usize {
                    let (f, t) = (n[i % 4], n[(i + 1) % 4]);
                    if i % 2 == 0 {
                        store.apply(&[EdgeOp::insert(f, t, follows)]).unwrap();
                    } else {
                        store.apply(&[EdgeOp::delete(f, t, follows)]).unwrap();
                    }
                }
            });
        });
        assert_eq!(store.epoch(), 50);
    }

    /// Bit of edge `from → to` with label `l` in a three-node, two-label
    /// edge set (no self-loops): 12 bits.
    fn bit(from: u32, l: u32, to: u32) -> u32 {
        (from * 2 + to - u32::from(to > from)) * 2 + l
    }

    fn edge_op(from: u32, l: u32, to: u32, insert: bool) -> EdgeOp {
        let (from, to, label) = (NodeId(from), NodeId(to), LabelId(l));
        if insert {
            EdgeOp::insert(from, to, label)
        } else {
            EdgeOp::delete(from, to, label)
        }
    }

    /// Every accessor of `g` against the edge set `set`, read off the set
    /// by membership tests only.
    fn assert_reads(g: &Graph, set: u32) {
        let has = |f: u32, l: u32, t: u32| f != t && set >> bit(f, l, t) & 1 == 1;
        assert_eq!(g.edge_count(), set.count_ones() as usize, "edge count");
        for v in 0..3u32 {
            let (mut out, mut inn) = ([NodeId(0); 6], [NodeId(0); 6]);
            let (mut out_len, mut in_len) = (0, 0);
            for l in 0..2u32 {
                let (out_start, in_start) = (out_len, in_len);
                for w in 0..3 {
                    if has(v, l, w) {
                        out[out_len] = NodeId(w);
                        out_len += 1;
                    }
                    if has(w, l, v) {
                        inn[in_len] = NodeId(w);
                        in_len += 1;
                    }
                    if w != v {
                        let edge = g.has_edge(NodeId(v), NodeId(w), LabelId(l));
                        assert_eq!(edge, has(v, l, w));
                    }
                }
                let (v, l) = (NodeId(v), LabelId(l));
                assert_eq!(
                    g.out_neighbors_with_label_slice(v, l),
                    &out[out_start..out_len]
                );
                assert_eq!(
                    g.in_neighbors_with_label_slice(v, l),
                    &inn[in_start..in_len]
                );
            }
            assert_eq!(g.out_neighbors_slice(NodeId(v)), &out[..out_len]);
            assert_eq!(g.in_neighbors_slice(NodeId(v)), &inn[..in_len]);
        }
    }

    /// Exhaustive at small scope: on three nodes with edge labels `r` and
    /// `s`, from each of the 4,096 edge sets, every single-op batch (an
    /// insert and a delete of each of the 12 edges) and every same-edge
    /// double toggle (delete-then-insert of a present edge,
    /// insert-then-delete of an absent one), through a store at compaction
    /// threshold `threshold`.  After each batch the new head answers every
    /// accessor as the model edge set (a 12-bit set) says, its
    /// `UpdateReport` and pending count are the model's, and the snapshot
    /// pinned before the batch still reads the old edge set.  A single op
    /// that changed the edge set is undone by one more batch (its report
    /// checked), so every batch starts from its base edge set while the
    /// overlay keeps the rows and cancellations the batches before it left.
    fn every_small_scope_batch_matches_a_set_model(threshold: usize) {
        let edges: Vec<(u32, u32, u32)> = (0..3u32)
            .flat_map(|f| (0..3).filter(move |&t| t != f).map(move |t| (f, t)))
            .flat_map(|(f, t)| (0..2).map(move |l| (f, l, t)))
            .collect();
        assert!(edges
            .iter()
            .enumerate()
            .all(|(i, &(f, l, t))| bit(f, l, t) == i as u32));
        for base in 0u32..1 << edges.len() {
            let mut labels = crate::LabelSet::new();
            labels.intern_edge_label("r");
            labels.intern_edge_label("s");
            let mut b = crate::GraphBuilder::with_labels(labels);
            b.add_nodes("A", 3);
            let mut graph = b.build();
            let inserts: Vec<EdgeOp> = (edges.iter().enumerate())
                .filter(|&(i, _)| base >> i & 1 == 1)
                .map(|(_, &(f, l, t))| edge_op(f, l, t, true))
                .collect();
            graph.apply_edge_ops(&inserts).unwrap();
            graph.compact_updates();
            graph.set_compaction_threshold(threshold);
            let threshold = graph.compaction_threshold();
            let store = GraphStore::new(graph);
            // The edge set of the frozen CSR: an edge is pending while its
            // presence differs from it.
            let mut frozen = base;
            let mut run = |ops: &[EdgeOp], before: u32, check_reads: bool| {
                let pinned = store.snapshot();
                let (mut set, mut expect) = (before, UpdateReport::default());
                let (mut sources, mut targets) = (0u32, 0u32);
                for op in ops {
                    let (f, l, t) = (op.from().0, op.label().0, op.to().0);
                    let present = set >> bit(f, l, t) & 1 == 1;
                    match (op.is_insert(), present) {
                        (true, false) => expect.inserted += 1,
                        (false, true) => expect.deleted += 1,
                        (true, true) => expect.noop_inserts += 1,
                        (false, false) => expect.noop_deletes += 1,
                    }
                    if op.is_insert() != present {
                        set ^= 1 << bit(f, l, t);
                        sources |= 1 << f;
                        targets |= 1 << t;
                    }
                }
                expect.nodes_patched = (sources.count_ones() + targets.count_ones()) as usize;
                let pending = (set ^ frozen).count_ones() as usize;
                expect.compacted = pending >= threshold;
                if expect.compacted {
                    frozen = set;
                }
                let (report, _) = store.apply(ops).unwrap();
                let ctx = || format!("base {base:#05x}, threshold {threshold}, {ops:?}");
                assert_eq!(report, expect, "{}", ctx());
                let head = store.snapshot();
                let left = if expect.compacted { 0 } else { pending };
                assert_eq!(head.pending_updates(), left, "{}", ctx());
                if check_reads {
                    assert_reads(&head, set);
                    assert_eq!(pinned.edge_count(), before.count_ones() as usize);
                    for (i, &(f, l, t)) in edges.iter().enumerate() {
                        let (from, to, label) = (NodeId(f), NodeId(t), LabelId(l));
                        let old = before >> i & 1 == 1;
                        assert_eq!(pinned.has_edge(from, to, label), old, "{}", ctx());
                        let in_row = pinned.in_neighbors_with_label_slice(to, label);
                        assert_eq!(in_row.contains(&from), old, "{}", ctx());
                    }
                }
                set
            };
            for &(f, l, t) in &edges {
                let present = base >> bit(f, l, t) & 1 == 1;
                for insert in [true, false] {
                    let after = run(&[edge_op(f, l, t, insert)], base, true);
                    if after != base {
                        assert_eq!(run(&[edge_op(f, l, t, !insert)], after, false), base);
                    }
                }
                let toggle = [edge_op(f, l, t, !present), edge_op(f, l, t, present)];
                assert_eq!(run(&toggle, base, true), base);
            }
        }
    }

    #[test]
    fn every_small_scope_batch_matches_a_set_model_at_threshold_1() {
        every_small_scope_batch_matches_a_set_model(1);
    }

    #[test]
    fn every_small_scope_batch_matches_a_set_model_at_the_default_threshold() {
        every_small_scope_batch_matches_a_set_model(0);
    }
}
