//! The writer side of the epoch/snapshot architecture.
//!
//! A [`GraphStore`] owns the working graph.  Writers apply
//! [`EdgeOp`] batches through [`GraphStore::apply`]; each batch produces a
//! new immutable [`GraphSnapshot`] published atomically behind an `Arc`
//! swap, and bumps the store's epoch counter.  Readers pin an epoch with
//! [`GraphStore::snapshot`] — one brief pointer-sized critical section —
//! and from then on query the pinned snapshot with **zero** synchronization,
//! no matter how far the writer races ahead.  Compaction of the delta
//! overlay happens on the working copy only: a published snapshot is never
//! touched again.
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
use std::sync::PoisonError;
use std::sync::Arc;

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
    /// are copy-on-write clones of it, so compaction never disturbs them.
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
    /// snapshots are unaffected: the new snapshot is a copy-on-write clone
    /// of the working graph, and compaction only ever touches the working
    /// copy.
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

    /// Number of epochs of replay log retained (see
    /// [`GraphStore::with_log_retention`]).
    pub fn log_retention(&self) -> usize {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retention
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
            assert_eq!(
                rebuilt.out_neighbors_slice(v),
                head.out_neighbors_slice(v)
            );
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
        assert_eq!(store.log_retention(), 2);
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
                store
                    .apply(&[EdgeOp::insert(n[i], n[j], follows)])
                    .unwrap();
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
                        let scanned: usize =
                            snap.nodes().map(|v| snap.out_degree(v)).sum();
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
}
