//! Live match views: materialized answers maintained under edge streams.
//!
//! A [`MatchView`] is the incremental counterpart of
//! [`PreparedQuery::execute`](super::PreparedQuery::execute): it materializes
//! `Q(x_o, G)` once, then [`MatchView::apply`] folds a batch of [`EdgeOp`]s
//! into its owned copy of the graph and repairs the answer *locally* instead
//! of recomputing it.
//!
//! The locality argument is the same one that makes the d-hop preserving
//! partition of Section 5 exact: a match of focus candidate `v` only ever
//! touches nodes within `radius(Q)` undirected hops of `v`, so an edge
//! update can change `v`'s membership only if one of the edge's endpoints
//! lies inside `v`'s ball — equivalently, only if `v` lies inside the
//! radius-ball around the batch's endpoints.  `apply` computes that ball in
//! the pre-update *and* post-update graph (an inserted edge can pull new
//! nodes into reach; a deleted one was only in reach before), re-decides
//! the focus candidates in the union with the ordinary `QMatch` session
//! machinery, and reports the membership changes as a [`ViewDelta`].
//!
//! Re-decisions ride the candidate sets built at view construction, which
//! use [`CandidateFilter::LabelUniverse`] — every node carrying the pattern
//! node's label, with no degree-based pruning — precisely so they stay
//! valid while edges churn (node labels are immutable; node count is fixed
//! because [`EdgeOp`] cannot add nodes).  Large repair sets fan out on the
//! work-stealing runtime with one persistent session per worker.
//!
//! ## Failure atomicity
//!
//! `apply` is **transactional**: the graph delta and the repaired match set
//! commit together or not at all.  The batch's effective inverse is staged
//! before any mutation; if the repair phase fails — budget exhausted, or a
//! panic in a re-decision — the graph delta is rolled back and the view
//! still equals its pre-apply state.  A panic inside the view's own
//! maintenance session leaves that session's scratch suspect, so the view
//! is additionally marked [poisoned](MatchView::poisoned): further `apply`
//! calls are refused until [`MatchView::rebuild`] reconstructs the session
//! and recomputes the match set from the (rolled-back) graph.  A panic in a
//! pooled *worker* session only discards that pool — the view's own state
//! was never touched, so it is not poisoned.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use qgp_graph::{
    bfs_within_multi_with, BfsScratch, EdgeOp, Graph, GraphError, GraphSnapshot, GraphStore,
    LabelId, NodeId, UpdateReport,
};
use qgp_runtime::{faults, CancelToken, ExecBudget, Runtime, TaskError};

use crate::matching::compiled::CompiledPattern;
use crate::matching::{CandidateFilter, MatchConfig, SessionCore};
use crate::pattern::Pattern;

/// Errors raised by [`MatchView::apply`] and its variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    /// The batch was rejected by the graph layer (e.g. an out-of-range
    /// node id); nothing was mutated.
    Graph(GraphError),
    /// The repair's [`ExecBudget`] ran out; the batch was rolled back and
    /// the view still equals its pre-apply state.
    BudgetExceeded,
    /// A re-decision panicked; the batch was rolled back.  When the panic
    /// hit the view's own maintenance session the view is also
    /// [poisoned](MatchView::poisoned).
    TaskPanicked(TaskError),
    /// The view is poisoned by an earlier failure; call
    /// [`MatchView::rebuild`] before applying further batches.
    Poisoned,
    /// [`MatchView::advance`] found the store's bounded replay log no
    /// longer reaches back to the view's anchor epoch.  Nothing was
    /// mutated; re-materialize the view from a fresh snapshot (or raise
    /// [`qgp_graph::GraphStore::with_log_retention`]).
    LogTruncated {
        /// The epoch the view was anchored at when replay failed.
        anchor: u64,
    },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Graph(e) => write!(f, "update batch rejected: {e}"),
            ViewError::BudgetExceeded => {
                write!(f, "repair budget exceeded; batch rolled back")
            }
            ViewError::TaskPanicked(e) => write!(f, "repair aborted: {e}"),
            ViewError::Poisoned => write!(
                f,
                "view is poisoned by an earlier failure; call rebuild() first"
            ),
            ViewError::LogTruncated { anchor } => write!(
                f,
                "store replay log no longer reaches epoch {anchor}; re-materialize the view"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

impl From<GraphError> for ViewError {
    fn from(e: GraphError) -> Self {
        ViewError::Graph(e)
    }
}

/// Why a repair phase aborted (internal; mapped to [`ViewError`] after the
/// graph delta is rolled back).
enum RepairAbort {
    Budget,
    /// Panic in a pooled worker session: the pool is discarded, the view's
    /// own session is clean.
    WorkerPanic(TaskError),
    /// Panic in the view's own maintenance session: poisons the view.
    CorePanic(TaskError),
}

/// The *effective inverse* of an update batch against `graph`: inverse ops
/// for exactly the ops that will change the graph, in reverse order.
/// Applying it after the batch restores the original edge set (ops are
/// set-like, so no-ops need no undo).
fn effective_inverse(graph: &Graph, ops: &[EdgeOp]) -> Vec<EdgeOp> {
    let mut present: HashMap<(NodeId, NodeId, LabelId), bool> = HashMap::new();
    let mut undo: Vec<EdgeOp> = Vec::new();
    for op in ops {
        let key = (op.from(), op.to(), op.label());
        let was = *present
            .entry(key)
            .or_insert_with(|| graph.has_edge(op.from(), op.to(), op.label()));
        if op.is_insert() != was {
            undo.push(op.inverse());
            present.insert(key, op.is_insert());
        }
    }
    undo.reverse();
    undo
}

/// Repair sets at least this large are re-decided on the work-stealing
/// runtime; smaller ones run inline (a handful of decisions is cheaper than
/// waking the workers).
const PARALLEL_REDECIDE_THRESHOLD: usize = 128;

/// The membership changes produced by one [`MatchView::apply`] batch.
///
/// `added` and `removed` are disjoint, sorted ascending, and describe the
/// transition from the match set before the batch to the one after it;
/// [`ViewDelta::apply_to`] replays the transition onto any sorted copy of
/// the former.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewDelta {
    /// Focus nodes that newly entered `Q(x_o, G)`, sorted ascending.
    pub added: Vec<NodeId>,
    /// Focus nodes that left `Q(x_o, G)`, sorted ascending.
    pub removed: Vec<NodeId>,
    /// Focus candidates re-decided for this batch — the size of the
    /// affected ball after candidate filtering, and the unit of incremental
    /// work (compare against the full candidate count of a recompute).
    pub rechecked: usize,
    /// What the batch did to the underlying graph.
    pub report: UpdateReport,
}

impl ViewDelta {
    /// Did the batch change the match set?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Replays this delta onto a sorted match set: removes `removed`,
    /// merges in `added`, keeps the set sorted.  Replaying every delta of a
    /// stream (in order) onto the initial match set reproduces the view's
    /// final one.
    pub fn apply_to(&self, set: &mut Vec<NodeId>) {
        if !self.removed.is_empty() {
            set.retain(|v| self.removed.binary_search(v).is_err());
        }
        if !self.added.is_empty() {
            set.extend(self.added.iter().copied());
            set.sort_unstable();
            set.dedup();
        }
    }
}

/// A materialized match set kept consistent with a stream of edge updates.
///
/// Built by [`PreparedQuery::view`](super::PreparedQuery::view); works on a
/// copy-on-write clone of the base snapshot's graph — the frozen CSR
/// storage is shared, only the view's delta overlay is private — so the
/// engine's snapshot and other views are unaffected by the updates applied
/// here, at a per-view memory cost proportional to the *overlay*, not the
/// graph.  A view anchored on a [`GraphStore`] epoch can follow the store's
/// published batches with [`MatchView::advance`].
///
/// ```
/// use qgp_core::engine::Engine;
/// use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
/// use qgp_graph::{EdgeOp, GraphBuilder};
///
/// let mut b = GraphBuilder::new();
/// let ann = b.add_node("person");
/// let bob = b.add_node("person");
/// let phone = b.add_node("Redmi 2A");
/// b.add_edge(ann, bob, "follow").unwrap();
/// b.add_edge(bob, phone, "recom").unwrap();
/// let graph = b.build();
///
/// // "people, all of whose followees recommend the phone"
/// let mut p = PatternBuilder::new();
/// let xo = p.node("person");
/// let z = p.node("person");
/// let y = p.node("Redmi 2A");
/// p.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
/// p.edge(z, y, "recom");
/// p.focus(xo);
/// let pattern = p.build().unwrap();
///
/// let engine = Engine::new(&graph);
/// let mut view = engine.prepare(&pattern).unwrap().view();
/// assert_eq!(view.matches(), &[ann]);
///
/// // Bob stops recommending: Ann's universal quantifier now fails.
/// let recom = graph.labels().edge_label("recom").unwrap();
/// let delta = view.apply(&[EdgeOp::delete(bob, phone, recom)]).unwrap();
/// assert_eq!(delta.removed, vec![ann]);
/// assert!(view.matches().is_empty());
/// ```
pub struct MatchView {
    /// The view's working graph: a copy-on-write clone of the base
    /// snapshot's graph, so the frozen CSR storage is *shared* with the
    /// snapshot (and every other view over it) and only this view's delta
    /// overlay is private.
    graph: Graph,
    /// The snapshot the view was materialized from, pinned so the shared
    /// frozen storage stays alive and the anchor epoch stays meaningful.
    base: Arc<GraphSnapshot>,
    /// The last [`GraphStore`] epoch this view has incorporated; advanced
    /// by [`MatchView::advance`].
    anchor: u64,
    compiled: Arc<CompiledPattern>,
    /// The maintenance session: update-stable candidate sets, reused
    /// across every batch.
    core: SessionCore,
    /// The materialized answer, sorted ascending.
    matches: Vec<NodeId>,
    scratch: BfsScratch,
    /// Reusable buffer for the affected-ball BFS.
    ball: Vec<(NodeId, usize)>,
    /// Per-worker sessions for parallel re-decisions, kept across batches
    /// so candidate analysis is paid once per worker, not once per batch.
    pool: Mutex<Vec<SessionCore>>,
    /// Set when a failure left the maintenance session's scratch suspect;
    /// cleared by [`MatchView::rebuild`].
    poisoned: bool,
}

impl MatchView {
    /// The maintenance config: plain `QMatch`.  The simulation pre-filter
    /// must stay off — it would prune candidate sets against the
    /// construction-time graph, which updates would then invalidate.
    fn config() -> MatchConfig {
        MatchConfig::qmatch()
    }

    pub(crate) fn materialize(snapshot: Arc<GraphSnapshot>, compiled: Arc<CompiledPattern>) -> Self {
        // COW clone: shares the snapshot's frozen CSR arrays; only the
        // delta overlay (bounded by the compaction threshold) is private.
        let graph = snapshot.graph().clone();
        let anchor = snapshot.epoch();
        let mut core = SessionCore::with_filter(
            &graph,
            Arc::clone(&compiled),
            &Self::config(),
            CandidateFilter::LabelUniverse,
        );
        let candidates = core.focus_candidates().to_vec();
        let matches = candidates
            .into_iter()
            .filter(|&v| core.accepts(&graph, v))
            .collect();
        MatchView {
            scratch: BfsScratch::for_graph(&graph),
            graph,
            base: snapshot,
            anchor,
            compiled,
            core,
            matches,
            ball: Vec::new(),
            pool: Mutex::new(Vec::new()),
            poisoned: false,
        }
    }

    /// The current match set `Q(x_o, G)`, sorted ascending.
    pub fn matches(&self) -> &[NodeId] {
        &self.matches
    }

    /// Number of current matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Is the current match set empty?
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Is `v` currently a match?
    pub fn contains(&self, v: NodeId) -> bool {
        self.matches.binary_search(&v).is_ok()
    }

    /// The view's working graph, including every applied batch.  Its
    /// frozen storage is shared copy-on-write with the base snapshot; only
    /// the delta overlay is private to the view.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The snapshot this view was materialized from.
    pub fn base_snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.base
    }

    /// The last [`GraphStore`] epoch this view has incorporated: the base
    /// snapshot's epoch at materialization, advanced by each successful
    /// [`MatchView::advance`].
    pub fn anchor_epoch(&self) -> u64 {
        self.anchor
    }

    /// The pattern the view maintains.
    pub fn pattern(&self) -> &Pattern {
        &self.compiled.pattern
    }

    /// Has a failure left the view's maintenance session suspect?  A
    /// poisoned view still reports its (consistent, pre-failure) match set
    /// and graph, but refuses further [`MatchView::apply`] calls until
    /// [`MatchView::rebuild`] runs.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Recovery path: reconstructs the maintenance session, recomputes the
    /// match set from scratch against the view's current graph, discards
    /// the worker-session pool, and clears the poisoned flag.  Equivalent
    /// to materializing a fresh view over [`MatchView::graph`].
    pub fn rebuild(&mut self) {
        let mut core = SessionCore::with_filter(
            &self.graph,
            Arc::clone(&self.compiled),
            &Self::config(),
            CandidateFilter::LabelUniverse,
        );
        let graph = &self.graph;
        let matches = core
            .focus_candidates()
            .to_vec()
            .into_iter()
            .filter(|&v| core.accepts(graph, v))
            .collect();
        self.core = core;
        self.matches = matches;
        self.pool = Mutex::new(Vec::new());
        self.poisoned = false;
    }

    /// Applies a batch of edge updates and repairs the match set, returning
    /// the membership changes.  Runs on the global [`Runtime`] with no
    /// budget; see [`MatchView::apply_with`] and
    /// [`MatchView::apply_budgeted`].
    pub fn apply(&mut self, ops: &[EdgeOp]) -> Result<ViewDelta, ViewError> {
        self.apply_inner(ops, None, Runtime::global())
    }

    /// [`MatchView::apply`] on an explicit runtime.
    pub fn apply_with(&mut self, ops: &[EdgeOp], runtime: &Runtime) -> Result<ViewDelta, ViewError> {
        self.apply_inner(ops, None, runtime)
    }

    /// [`MatchView::apply`] under an [`ExecBudget`], charged one decision
    /// per re-decided candidate and polled at per-candidate granularity.
    ///
    /// There is no partial-repair mode: a view must stay consistent, so an
    /// exhausted budget rolls the whole batch back
    /// ([`ViewError::BudgetExceeded`]) and the view still equals its
    /// pre-apply state.
    pub fn apply_budgeted(
        &mut self,
        ops: &[EdgeOp],
        budget: &ExecBudget,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        self.apply_inner(ops, Some(budget), runtime)
    }

    /// Catches the view up to the store's current head: replays every
    /// [`EdgeOp`] batch published since the view's anchor epoch through the
    /// ordinary incremental repair path, as **one** transactional batch,
    /// and re-anchors at the head epoch reached.
    ///
    /// The ops-and-epoch pair is captured atomically
    /// ([`GraphStore::replay_from`]), so a writer racing ahead mid-call
    /// cannot make the view skip or double-apply a batch — the missed
    /// batches are simply picked up by the next `advance`.  Errors leave
    /// the view (and its anchor) exactly as before: a repair failure rolls
    /// the whole replay back, and [`ViewError::LogTruncated`] means the
    /// store's bounded log was outrun — re-materialize from a fresh
    /// snapshot instead.
    ///
    /// Local [`MatchView::apply`] batches compose with `advance`: they
    /// mutate the view's working graph without moving the anchor, so a
    /// later `advance` still replays exactly the store batches the view has
    /// not seen.
    pub fn advance(&mut self, store: &GraphStore) -> Result<ViewDelta, ViewError> {
        self.advance_with(store, Runtime::global())
    }

    /// [`MatchView::advance`] on an explicit runtime.
    pub fn advance_with(
        &mut self,
        store: &GraphStore,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        let Some((ops, head)) = store.replay_from(self.anchor) else {
            return Err(ViewError::LogTruncated {
                anchor: self.anchor,
            });
        };
        let delta = self.apply_inner(&ops, None, runtime)?;
        self.anchor = head;
        Ok(delta)
    }

    /// The shared transactional apply: stage, repair, commit-or-roll-back.
    ///
    /// The batch is transactional: on any error — an out-of-range node id
    /// anywhere in the batch, an exhausted budget, or a panic mid-repair —
    /// neither the graph nor the match set changes.  Ops take effect in
    /// order within the batch, so an insert/delete pair of the same edge
    /// cancels out before the repair runs.
    fn apply_inner(
        &mut self,
        ops: &[EdgeOp],
        budget: Option<&ExecBudget>,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        if self.poisoned {
            return Err(ViewError::Poisoned);
        }
        // Validate up front: the ball walk below indexes per-node scratch
        // arrays, so it must never see an out-of-range endpoint.
        let node_count = self.graph.node_count();
        for op in ops {
            for node in [op.from(), op.to()] {
                if node.index() >= node_count {
                    return Err(ViewError::Graph(GraphError::NodeOutOfBounds {
                        node,
                        node_count,
                    }));
                }
            }
        }
        let starts: Vec<NodeId> = ops.iter().flat_map(|op| [op.from(), op.to()]).collect();
        let radius = self.compiled.radius;

        // Ball around the endpoints in the pre-update graph: candidates
        // that could reach a deleted edge.
        self.ball.clear();
        bfs_within_multi_with(&self.graph, &starts, radius, &mut self.scratch, &mut self.ball);
        let mut affected: Vec<NodeId> = self.ball.iter().map(|&(v, _)| v).collect();

        // Stage the rollback before mutating anything: the effective
        // inverse restores the exact pre-batch edge set if the repair
        // phase fails.
        let undo = effective_inverse(&self.graph, ops);
        let report = self.graph.apply_edge_ops(ops).map_err(ViewError::Graph)?;
        if !report.changed() {
            // Every op was a no-op: the graph is unchanged, so no decision
            // can have changed either.
            return Ok(ViewDelta {
                report,
                ..ViewDelta::default()
            });
        }

        // Ball in the post-update graph: candidates that an inserted edge
        // newly connects.
        self.ball.clear();
        bfs_within_multi_with(&self.graph, &starts, radius, &mut self.scratch, &mut self.ball);
        affected.extend(self.ball.iter().map(|&(v, _)| v));
        affected.sort_unstable();
        affected.dedup();
        affected.retain(|&v| self.core.is_focus_candidate(v));

        // Repair: compute every decision before touching the match set, so
        // the commit below cannot fail halfway.
        let decisions: Result<Vec<bool>, RepairAbort> =
            if affected.len() < PARALLEL_REDECIDE_THRESHOLD || runtime.threads() <= 1 {
                let graph = &self.graph;
                let core = &mut self.core;
                let mut decisions = Vec::with_capacity(affected.len());
                let mut abort = None;
                for (idx, &v) in affected.iter().enumerate() {
                    // Per-candidate budget polling (deadline and cap).
                    if budget.is_some_and(|b| !b.charge(1)) {
                        abort = Some(RepairAbort::Budget);
                        break;
                    }
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        faults::fault_point("view-redecide", idx);
                        core.accepts(graph, v)
                    }));
                    match run {
                        Ok(d) => decisions.push(d),
                        Err(p) => {
                            // The maintenance session's scratch is suspect.
                            abort =
                                Some(RepairAbort::CorePanic(TaskError::from_panic(0, Some(idx), p)));
                            break;
                        }
                    }
                }
                match abort {
                    Some(a) => Err(a),
                    None => Ok(decisions),
                }
            } else {
                let graph = &self.graph;
                let compiled = &self.compiled;
                let pool = &self.pool;
                let affected = &affected;
                // The runtime polls the budget's token (so a deadline stops
                // workers between tasks); without a budget, a token that
                // never fires.
                let token = budget.map_or_else(CancelToken::new, |b| b.token().clone());
                let result = runtime.try_map_with_cancel(
                    affected.len(),
                    &token,
                    || {
                        pool.lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop()
                            .unwrap_or_else(|| {
                                SessionCore::with_filter(
                                    graph,
                                    Arc::clone(compiled),
                                    &Self::config(),
                                    CandidateFilter::LabelUniverse,
                                )
                            })
                    },
                    |core, i| {
                        if budget.is_some_and(|b| !b.charge(1)) {
                            return None;
                        }
                        Some(core.accepts(graph, affected[i]))
                    },
                );
                match result {
                    Ok(outcome) => {
                        // Return the worker sessions to the pool for the
                        // next batch.
                        self.pool
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .extend(outcome.states);
                        // Any skipped or refused slot means the budget ran
                        // out mid-repair.
                        let mut decisions = Vec::with_capacity(affected.len());
                        let mut complete = true;
                        for slot in outcome.outputs {
                            match slot {
                                Some(Some(d)) => decisions.push(d),
                                _ => {
                                    complete = false;
                                    break;
                                }
                            }
                        }
                        if complete {
                            Ok(decisions)
                        } else {
                            Err(RepairAbort::Budget)
                        }
                    }
                    // The panicking worker's session died with the failed
                    // map; the view's own session was never involved.
                    Err(e) => Err(RepairAbort::WorkerPanic(e)),
                }
            };

        let decisions = match decisions {
            Ok(decisions) => decisions,
            Err(abort) => {
                // Roll the graph delta back; the match set was never
                // touched.  A rollback failure (impossible for in-bounds
                // inverse ops, but never silent) also poisons the view.
                if self.graph.apply_edge_ops(&undo).is_err() {
                    self.poisoned = true;
                }
                return Err(match abort {
                    RepairAbort::Budget => ViewError::BudgetExceeded,
                    RepairAbort::WorkerPanic(e) => ViewError::TaskPanicked(e),
                    RepairAbort::CorePanic(e) => {
                        self.poisoned = true;
                        ViewError::TaskPanicked(e)
                    }
                });
            }
        };

        // Commit: pure bookkeeping from here on, no fallible step.
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (&v, &now) in affected.iter().zip(&decisions) {
            let was = self.matches.binary_search(&v).is_ok();
            if now && !was {
                added.push(v);
            } else if was && !now {
                removed.push(v);
            }
        }
        let delta = ViewDelta {
            added,
            removed,
            rechecked: affected.len(),
            report,
        };
        delta.apply_to(&mut self.matches);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ExecOptions};
    use crate::pattern::library;
    use qgp_graph::GraphBuilder;

    /// Graph G1 of Fig. 2 plus the label handles the tests mutate with.
    fn g1() -> (Graph, Vec<NodeId>, Vec<NodeId>, NodeId) {
        let mut b = GraphBuilder::new();
        let xs = b.add_nodes("person", 3);
        let vs = b.add_nodes("person", 5);
        let redmi = b.add_node("Redmi 2A");
        b.add_edge(xs[0], vs[0], "follow").unwrap();
        b.add_edge(xs[1], vs[1], "follow").unwrap();
        b.add_edge(xs[1], vs[2], "follow").unwrap();
        b.add_edge(xs[2], vs[2], "follow").unwrap();
        b.add_edge(xs[2], vs[3], "follow").unwrap();
        b.add_edge(xs[2], vs[4], "follow").unwrap();
        for &v in &vs[..4] {
            b.add_edge(v, redmi, "recom").unwrap();
        }
        b.add_edge(vs[4], redmi, "bad_rating").unwrap();
        (b.build(), xs, vs, redmi)
    }

    fn full_recompute(graph: &Graph, pattern: &Pattern) -> Vec<NodeId> {
        Engine::new(graph)
            .prepare(pattern)
            .unwrap()
            .execute(ExecOptions::sequential())
            .unwrap()
            .collect()
    }

    #[test]
    fn view_starts_at_the_batch_answer() {
        let (g, _, _, _) = g1();
        for pattern in [
            library::q2_redmi_universal(),
            library::q3_redmi_negation(2),
        ] {
            let view = Engine::new(&g).prepare(&pattern).unwrap().view();
            assert_eq!(view.matches(), full_recompute(&g, &pattern), "{pattern}");
        }
    }

    #[test]
    fn insert_and_delete_repair_the_match_set() {
        let (g, xs, vs, redmi) = g1();
        let pattern = library::q3_redmi_negation(2);
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        assert_eq!(view.matches(), &[xs[1]]);

        // v4 stops bad-rating and recommends instead: x2 regains ≥2
        // recommending followees with no bad-rater.
        let recom = g.labels().edge_label("recom").unwrap();
        let bad = g.labels().edge_label("bad_rating").unwrap();
        let delta = view
            .apply(&[
                EdgeOp::delete(vs[4], redmi, bad),
                EdgeOp::insert(vs[4], redmi, recom),
            ])
            .unwrap();
        assert_eq!(delta.added, vec![xs[2]]);
        assert!(delta.removed.is_empty());
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
        assert!(view.contains(xs[2]));

        // Undo restores the original answer.
        let undo = view
            .apply(&[
                EdgeOp::delete(vs[4], redmi, recom),
                EdgeOp::insert(vs[4], redmi, bad),
            ])
            .unwrap();
        assert_eq!(undo.removed, vec![xs[2]]);
        assert_eq!(view.matches(), &[xs[1]]);
    }

    #[test]
    fn deltas_replay_to_the_final_match_set() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q2_redmi_universal();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let mut replayed = view.matches().to_vec();
        let recom = g.labels().edge_label("recom").unwrap();
        let follow = g.labels().edge_label("follow").unwrap();
        let batches = [
            vec![EdgeOp::delete(vs[0], redmi, recom)],
            vec![EdgeOp::insert(vs[0], redmi, recom), EdgeOp::insert(vs[0], vs[1], follow)],
            vec![EdgeOp::delete(vs[0], vs[1], follow)],
        ];
        for ops in &batches {
            let delta = view.apply(ops).unwrap();
            delta.apply_to(&mut replayed);
            assert_eq!(replayed, view.matches());
            assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
        }
    }

    #[test]
    fn noop_batches_change_nothing_and_say_so() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q2_redmi_universal();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let recom = g.labels().edge_label("recom").unwrap();
        // Duplicate insert + delete of an absent edge: both no-ops.
        let delta = view
            .apply(&[
                EdgeOp::insert(vs[0], redmi, recom),
                EdgeOp::delete(vs[1], vs[2], recom),
            ])
            .unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.rechecked, 0);
        assert_eq!(delta.report.noop_inserts, 1);
        assert_eq!(delta.report.noop_deletes, 1);
        assert_eq!(view.matches(), before);
    }

    #[test]
    fn out_of_range_ops_fail_without_mutating_the_view() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q2_redmi_universal();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let recom = g.labels().edge_label("recom").unwrap();
        let bogus = NodeId::new(10_000);
        let err = view
            .apply(&[
                EdgeOp::delete(vs[0], redmi, recom),
                EdgeOp::insert(bogus, redmi, recom),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            ViewError::Graph(GraphError::NodeOutOfBounds { .. })
        ));
        assert_eq!(view.matches(), before);
        assert_eq!(view.graph().edge_count(), g.edge_count());
    }

    #[test]
    fn the_engine_graph_is_isolated_from_the_view() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q2_redmi_universal();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let recom = g.labels().edge_label("recom").unwrap();
        view.apply(&[EdgeOp::delete(vs[0], redmi, recom)]).unwrap();
        assert_eq!(view.graph().edge_count(), g.edge_count() - 1);
        assert_eq!(g.edge_count(), 11);
        assert!(g.has_edge(vs[0], redmi, recom));
    }

    /// A follow-star: 200 spokes all following one hub, so one edge op
    /// near the hub puts every spoke in the repair ball — enough affected
    /// candidates to cross `PARALLEL_REDECIDE_THRESHOLD`.
    fn star_follow_graph() -> (Graph, Vec<NodeId>, NodeId, Pattern) {
        use crate::pattern::PatternBuilder;
        let mut b = GraphBuilder::new();
        let hub = b.add_node("person");
        let xs = b.add_nodes("person", 200);
        for &x in &xs {
            b.add_edge(x, hub, "follow").unwrap();
        }
        let mut pb = PatternBuilder::new();
        let xo = pb.node("person");
        let z = pb.node("person");
        pb.edge(xo, z, "follow");
        pb.focus(xo);
        (b.build(), xs, hub, pb.build().unwrap())
    }

    #[test]
    fn exhausted_budget_rolls_the_batch_back() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q3_redmi_negation(2);
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let recom = g.labels().edge_label("recom").unwrap();
        let bad = g.labels().edge_label("bad_rating").unwrap();
        let ops = [
            EdgeOp::delete(vs[4], redmi, bad),
            EdgeOp::insert(vs[4], redmi, recom),
        ];
        let starved = ExecBudget::unlimited().max_decisions(0);
        let err = view
            .apply_budgeted(&ops, &starved, Runtime::global())
            .unwrap_err();
        assert_eq!(err, ViewError::BudgetExceeded);
        // Transactional: the graph delta rolled back, the match set was
        // never touched, and the view is still serviceable.
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(vs[4], redmi, bad));
        assert!(!view.graph().has_edge(vs[4], redmi, recom));
        assert!(!view.poisoned());
        // An adequate budget then applies the same batch exactly.
        let ample = ExecBudget::unlimited().max_decisions(100_000);
        let delta = view
            .apply_budgeted(&ops, &ample, Runtime::global())
            .unwrap();
        assert!(!delta.added.is_empty());
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    #[test]
    fn parallel_repair_honors_the_budget() {
        let (g, xs, hub, pattern) = star_follow_graph();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let follow = g.labels().edge_label("follow").unwrap();
        let ops = [EdgeOp::delete(xs[0], hub, follow)];
        let rt = Runtime::new(4);
        let starved = ExecBudget::unlimited().max_decisions(10);
        let err = view.apply_budgeted(&ops, &starved, &rt).unwrap_err();
        assert_eq!(err, ViewError::BudgetExceeded);
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(xs[0], hub, follow));
        assert!(!view.poisoned());
    }

    #[test]
    fn injected_fault_mid_repair_rolls_back_and_poisons() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q3_redmi_negation(2);
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let recom = g.labels().edge_label("recom").unwrap();
        let bad = g.labels().edge_label("bad_rating").unwrap();
        let ops = [
            EdgeOp::delete(vs[4], redmi, bad),
            EdgeOp::insert(vs[4], redmi, recom),
        ];
        {
            let _faults = faults::install(faults::FaultPlan::new(7, 1.0));
            let err = view.apply(&ops).unwrap_err();
            assert!(matches!(err, ViewError::TaskPanicked(_)), "{err:?}");
        }
        // The failed batch rolled back: the view still answers from its
        // pre-apply state...
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(vs[4], redmi, bad));
        // ...but the maintenance session panicked mid-decision, so the
        // view is poisoned and refuses further updates.
        assert!(view.poisoned());
        assert_eq!(view.apply(&ops).unwrap_err(), ViewError::Poisoned);
        // Rebuild recovers: same answer as a fresh materialization, and
        // the deferred batch now applies cleanly.
        view.rebuild();
        assert!(!view.poisoned());
        assert_eq!(view.matches(), before);
        let delta = view.apply(&ops).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    #[test]
    fn worker_panic_in_parallel_repair_fails_cleanly_without_poisoning() {
        let (g, xs, hub, pattern) = star_follow_graph();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let follow = g.labels().edge_label("follow").unwrap();
        let ops = [EdgeOp::delete(xs[0], hub, follow)];
        let rt = Runtime::new(4);
        {
            let _faults = faults::install(faults::FaultPlan::new(11, 1.0));
            let err = view.apply_with(&ops, &rt).unwrap_err();
            assert!(matches!(err, ViewError::TaskPanicked(_)), "{err:?}");
        }
        // Worker sessions are disposable — the view's own maintenance
        // session was never involved, so no poisoning.
        assert!(!view.poisoned());
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(xs[0], hub, follow));
        // The disarmed retry applies cleanly and agrees with a recompute.
        let delta = view.apply_with(&ops, &rt).unwrap();
        assert_eq!(delta.removed, vec![xs[0]]);
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    #[test]
    fn parallel_and_sequential_repairs_agree() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q3_redmi_negation(2);
        let recom = g.labels().edge_label("recom").unwrap();
        let bad = g.labels().edge_label("bad_rating").unwrap();
        let ops = [
            EdgeOp::delete(vs[4], redmi, bad),
            EdgeOp::insert(vs[4], redmi, recom),
        ];
        let mut seq = Engine::new(&g).prepare(&pattern).unwrap().view();
        let mut par = Engine::new(&g).prepare(&pattern).unwrap().view();
        let rt = Runtime::new(4);
        let d_seq = seq.apply_with(&ops, &Runtime::new(1)).unwrap();
        let d_par = par.apply_with(&ops, &rt).unwrap();
        assert_eq!(d_seq.added, d_par.added);
        assert_eq!(d_seq.removed, d_par.removed);
        assert_eq!(seq.matches(), par.matches());
    }
}
