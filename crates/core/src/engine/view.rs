//! Live match views: materialized answers maintained under edge streams.
//!
//! A [`MatchView`] is the incremental counterpart of
//! [`PreparedQuery::run`](super::PreparedQuery::run): it materializes
//! `Q(x_o, G)` once and then keeps it exact while the graph moves on.  The
//! view owns no graph.  It *pins* one [`GraphSnapshot`], the version its
//! answer is exact for, and moves that pin in one of two ways:
//!
//! * [`MatchView::advance`] swaps the pin to a [`GraphStore`]'s head; the
//!   store's replay log only says which edges to look at;
//! * [`MatchView::apply`] seals a copy-on-write clone of the pin with a batch
//!   of [`EdgeOp`]s applied, and pins that.
//!
//! Both share one repair between the old pin and the new one, a *typed
//! walk* over the pattern's own edges.  Whether `v ∈ Q(x_o, G)` depends only
//! on the isomorphisms of `Π(Q)` and of each `Π(Q^{+e})` that map the focus
//! to `v`, and on the ratio denominators `|Mₑ(a)|` of the nodes they map.  So
//! an edge `a -l-> b` whose presence differs between the two versions (the
//! exact symmetric difference: an edge inserted and deleted again costs
//! nothing) can move `v` only if such an isomorphism uses it, or maps a ratio
//! edge's source to `a`.  For each sub-pattern edge the change fits by labels,
//! the repair seeds one (pattern node, graph node) pair: the endpoint nearer
//! the sub-pattern's focus, the graph node of lower degree on a tie (any
//! endpoint is sound, since an isomorphism maps both).  A ratio edge also
//! seeds its source whenever `a`'s label fits, whatever `b`'s is, because
//! `|Mₑ(a)|` counts every child and `a` may be mapped by an isomorphism that
//! does not use the changed edge.  From the seeds the walk follows sub-pattern edges that
//! lower the distance to the focus, matching each edge's label and direction
//! and the neighbour's node label — once in the old version (the
//! isomorphisms a deleted edge ends) and once in the new one (those an
//! inserted edge starts).  The focus candidates it reaches are re-decided,
//! and the membership changes are reported as a [`ViewDelta`].  The
//! distances are `CompiledPattern`'s per-sub-pattern tables, never `Q`'s: a
//! negated edge can be a shortcut the sub-pattern does not have.
//!
//! A view is a [`PreparedQuery`] whose snapshot is the pin.  Materializing
//! is a sequential execution of it, and a repair is an execution on the
//! next version restricted to the foci the walk reached, sequential below
//! `PARALLEL_REDECIDE_THRESHOLD` foci and parallel on the caller's
//! [`Runtime`] above.  The query's session pool is update-stable: its
//! sessions are built with every node carrying the pattern node's label as a
//! candidate, with no degree-based pruning, so one session is valid for
//! every version (a [`Graph`]'s node set and node labels are fixed when it
//! is built; versions differ in edges only) and serves every repair.
//!
//! ## Failure keeps the old pin
//!
//! Every decision is computed before the view changes, so a repair that
//! fails — budget exhausted, or a panic in a re-decision — leaves the pin and
//! the match set untouched, and the view is reusable as it is.  A session
//! whose decision panicked never returns to the pool (the engine's lease
//! rule), so no suspect scratch outlives the failure.

use std::cmp::Ordering;
use std::sync::Arc;

use qgp_graph::{EdgeOp, Graph, GraphError, GraphSnapshot, GraphStore, NodeId, UpdateReport};
use qgp_runtime::{ExecBudget, Runtime, TaskError};

use super::{exec, ExecOptions, PreparedQuery};
use crate::error::MatchError;
use crate::matching::compiled::CompiledPattern;
use crate::matching::resolved::ResolvedPattern;
use crate::pattern::{CountingQuantifier, Pattern};

/// Errors raised by [`MatchView::apply`], [`MatchView::advance`] and their
/// variants.  After any of them the view still answers for its old pin and
/// takes the next batch as usual.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    /// The batch was rejected by the graph layer (e.g. an out-of-range
    /// node id).
    Graph(GraphError),
    /// The repair's [`ExecBudget`] ran out before every affected focus was
    /// re-decided.
    BudgetExceeded,
    /// A re-decision panicked.
    TaskPanicked(TaskError),
    /// [`MatchView::advance`] found the store's bounded replay log no
    /// longer reaches back to the view's anchor epoch.  Re-materialize the
    /// view with [`PreparedQuery::view`](super::PreparedQuery::view) on a
    /// fresh snapshot (or raise
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
            ViewError::BudgetExceeded => write!(f, "repair budget exceeded; view unchanged"),
            ViewError::TaskPanicked(e) => write!(f, "repair aborted: {e}"),
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

/// Repair sets at least this large are re-decided on the work-stealing
/// runtime; smaller ones run inline (a handful of decisions is cheaper than
/// waking the workers).
const PARALLEL_REDECIDE_THRESHOLD: usize = 128;

/// The membership changes produced by one [`MatchView::apply`] or
/// [`MatchView::advance`].
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
    /// Focus candidates re-decided for this batch — the foci the typed walk
    /// reached from the changed edges, after candidate filtering, and the
    /// unit of incremental work (compare against the full candidate count
    /// of a recompute).
    pub rechecked: usize,
    /// What [`MatchView::apply`]'s batch did to the view's private copy of
    /// the graph.  `UpdateReport::default()` after [`MatchView::advance`],
    /// which applies nothing: the store already did.
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

/// A materialized match set kept exact for a moving graph version.
///
/// Built by [`PreparedQuery::view`](super::PreparedQuery::view), which pins
/// the prepared query's snapshot.  A view on a [`GraphStore`] follows the
/// store's published batches with [`MatchView::advance`] and then pins the
/// head itself; [`MatchView::apply`] moves the pin to a private
/// copy-on-write clone instead, so the engine's snapshot and other views
/// never see those updates.
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
    /// The view's query; its snapshot is the pin the answer is exact for
    /// (the materialized snapshot, a store head after [`MatchView::advance`],
    /// or the view's own sealed clone after [`MatchView::apply`]).
    query: PreparedQuery,
    /// The last [`GraphStore`] epoch this view has incorporated; advanced
    /// by [`MatchView::advance`].
    anchor: u64,
    /// Ops applied locally since the last advance.  The next advance lands
    /// exactly on the store head, superseding them, so their edges join its
    /// repair starts.
    local: Vec<EdgeOp>,
    /// The materialized answer, sorted ascending.
    matches: Vec<NodeId>,
}

impl MatchView {
    /// Materializes `query`'s answer on its snapshot.  A decision that
    /// panics re-raises: there is no error to return.
    pub(crate) fn materialize(query: PreparedQuery) -> Self {
        let run = exec::execute(&query, query.snapshot(), &ExecOptions::sequential());
        let answer = run.unwrap_or_else(|e| panic!("{e}")).answer;
        MatchView {
            anchor: query.snapshot().epoch(),
            query,
            local: Vec::new(),
            matches: answer.matches().collect(),
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

    /// The graph the answer is exact for: the pinned snapshot's graph.
    pub fn graph(&self) -> &Graph {
        self.query.snapshot.graph()
    }

    /// The pinned snapshot the answer is exact for.  After a successful
    /// [`MatchView::advance`] this is the store's head snapshot itself; after
    /// a local [`MatchView::apply`] it is the view's own snapshot, which no
    /// store published.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.query.snapshot
    }

    /// The last [`GraphStore`] epoch this view has incorporated: the
    /// materialized snapshot's epoch, advanced by each successful
    /// [`MatchView::advance`].
    pub fn anchor_epoch(&self) -> u64 {
        self.anchor
    }

    /// The pattern the view maintains.
    pub fn pattern(&self) -> &Pattern {
        self.query.pattern()
    }

    /// Applies a batch of edge updates and repairs the match set, returning
    /// the membership changes.  Runs on the global [`Runtime`] with no
    /// budget; see [`MatchView::apply_with`] and
    /// [`MatchView::apply_budgeted`].
    pub fn apply(&mut self, ops: &[EdgeOp]) -> Result<ViewDelta, ViewError> {
        self.apply_inner(ops, None, Runtime::global())
    }

    /// [`MatchView::apply`] on an explicit runtime.
    pub fn apply_with(
        &mut self,
        ops: &[EdgeOp],
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        self.apply_inner(ops, None, runtime)
    }

    /// [`MatchView::apply`] under an [`ExecBudget`], charged one decision
    /// per re-decided candidate and polled at per-candidate granularity.
    ///
    /// There is no partial-repair mode: a view must stay exact, so an
    /// exhausted budget fails the whole batch
    /// ([`ViewError::BudgetExceeded`]) and the view keeps its old pin.
    pub fn apply_budgeted(
        &mut self,
        ops: &[EdgeOp],
        budget: &ExecBudget,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        self.apply_inner(ops, Some(budget), runtime)
    }

    /// Catches the view up to the store's current head: repairs the answer
    /// from the pin to the head snapshot, as **one** batch, then pins the
    /// head and re-anchors at its epoch.
    ///
    /// The ops-and-snapshot pair is captured atomically
    /// ([`GraphStore::replay_from`]), so a writer racing ahead mid-call
    /// cannot make the view skip or double-count a batch — the missed
    /// batches are simply picked up by the next `advance`.  Errors leave the
    /// view (and its anchor) exactly as before; [`ViewError::LogTruncated`]
    /// means the store's bounded log was outrun, so re-materialize the view
    /// instead.
    ///
    /// Batches applied locally with [`MatchView::apply`] since the last
    /// advance are superseded: the view lands exactly on the store head.
    pub fn advance(&mut self, store: &GraphStore) -> Result<ViewDelta, ViewError> {
        self.advance_with(store, Runtime::global())
    }

    /// [`MatchView::advance`] on an explicit runtime.
    pub fn advance_with(
        &mut self,
        store: &GraphStore,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        let Some((mut ops, head)) = store.replay_from(self.anchor) else {
            return Err(ViewError::LogTruncated {
                anchor: self.anchor,
            });
        };
        ops.extend_from_slice(&self.local);
        let anchor = head.epoch();
        let delta = self.repair(head, &ops, None, runtime)?;
        self.local.clear();
        self.anchor = anchor;
        Ok(delta)
    }

    /// Applies `ops` to a clone of the pinned graph — ops take effect in
    /// order, with the all-or-nothing validation of
    /// [`Graph::apply_edge_ops`] — and repairs onto the sealed clone.
    fn apply_inner(
        &mut self,
        ops: &[EdgeOp],
        budget: Option<&ExecBudget>,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        let mut graph = self.graph().clone();
        let report = graph.apply_edge_ops(ops)?;
        let delta = self.repair(Arc::new(GraphSnapshot::from(graph)), ops, budget, runtime)?;
        self.local.extend_from_slice(ops);
        Ok(ViewDelta { report, ..delta })
    }

    /// The one repair: re-decides every focus candidate the typed walk
    /// reaches from an edge that differs between the pin and `next`, then
    /// pins `next`.  `ops` must name every such edge (extra or repeated ones
    /// cost only a lookup).  Nothing in `self` changes unless every decision
    /// succeeds.
    fn repair(
        &mut self,
        next: Arc<GraphSnapshot>,
        ops: &[EdgeOp],
        budget: Option<&ExecBudget>,
        runtime: &Runtime,
    ) -> Result<ViewDelta, ViewError> {
        let (old, new) = (self.graph(), next.graph());
        let changed: Vec<EdgeOp> = ops
            .iter()
            .filter(|op| {
                old.has_edge(op.from(), op.to(), op.label())
                    != new.has_edge(op.from(), op.to(), op.label())
            })
            .copied()
            .collect();
        if changed.is_empty() {
            // Equal edge sets: no decision can differ.
            self.query.snapshot = next;
            return Ok(ViewDelta::default());
        }

        let affected = typed_foci(&self.query.compiled, old, new, &changed);
        let mode = if affected.len() < PARALLEL_REDECIDE_THRESHOLD {
            ExecOptions::sequential()
        } else {
            ExecOptions::parallel_on(runtime)
        };
        let opts = ExecOptions {
            restrict: Some(&affected),
            budget: budget.cloned(),
            ..mode
        };
        // A whole-graph execution has no partition to misconfigure: a
        // panicking task is its one way to fail.
        let run = match exec::execute(&self.query, &next, &opts) {
            Ok(run) => run,
            Err(MatchError::TaskPanicked(e)) => return Err(ViewError::TaskPanicked(e)),
            Err(other) => unreachable!("a whole-graph execution failed: {other}"),
        };
        // Any undecided focus means the budget ran out mid-repair.
        if run.decided < run.planned {
            return Err(ViewError::BudgetExceeded);
        }

        // A focus the walk reached that is no candidate is neither accepted
        // nor a match, so walking all of them reads the same changes.
        let accepted = &run.answer.per_focus;
        let mut delta = ViewDelta {
            rechecked: run.planned,
            ..ViewDelta::default()
        };
        for v in affected {
            let now = accepted.binary_search_by_key(&v, |f| f.focus).is_ok();
            match (now, self.contains(v)) {
                (true, false) => delta.added.push(v),
                (false, true) => delta.removed.push(v),
                _ => {}
            }
        }
        delta.apply_to(&mut self.matches);
        self.query.snapshot = next;
        Ok(delta)
    }
}

/// Does the typed walk seed the sources of ratio edges whose denominator a
/// change moves?  Always, except under `--cfg qgp_mutate`: the mutation
/// self-test drops these seeds and asserts that
/// `tests::a_ratio_denominator_alone_moves_the_answer` sees the view diverge
/// from a recompute, so that test demonstrably guards them.
#[cfg(not(qgp_mutate))]
const RATIO_SEEDS: bool = true;
/// Mutated: ratio seeds dropped (see above).
#[cfg(qgp_mutate)]
const RATIO_SEEDS: bool = false;

/// The repair set of one batch before candidate filtering: every focus a
/// typed walk reaches from `changed` (the edges whose presence differs
/// between `old` and `new`) in `Π(Q)` or any `Π(Q^{+e})`, sorted and
/// deduplicated.  The module docs argue why no other focus can change.
fn typed_foci(
    compiled: &CompiledPattern,
    old: &Graph,
    new: &Graph,
    changed: &[EdgeOp],
) -> Vec<NodeId> {
    let mut foci = Vec::new();
    for (pattern, dist) in compiled.sub_patterns() {
        // A label neither version interned matches no graph element, so the
        // sub-pattern has no isomorphism before or after the batch.
        let Some(rp) = ResolvedPattern::resolve(pattern, new) else {
            continue;
        };
        let seeds = seeds(&rp, dist, new, changed);
        for graph in [old, new] {
            walk(&rp, dist, graph, &seeds, &mut foci);
        }
    }
    foci.sort_unstable();
    foci.dedup();
    foci
}

/// The (pattern node, graph node) pairs a walk starts from: for each changed
/// edge `a -l-> b` and each sub-pattern edge `u -l-> u'` it fits by labels,
/// the endpoint nearer the focus (on a tie, the graph node of lower degree,
/// which keeps walks off hubs); and `(u, a)` for a ratio edge whenever `a`
/// fits `u`, because `|Mₑ(a)|` moves whatever `b`'s label is.
fn seeds(
    rp: &ResolvedPattern,
    dist: &[usize],
    graph: &Graph,
    changed: &[EdgeOp],
) -> Vec<(usize, NodeId)> {
    let degree = |v: NodeId| graph.out_degree(v) + graph.in_degree(v);
    let mut seeds = Vec::new();
    for op in changed {
        let (a, b) = (op.from(), op.to());
        for e in rp.edges.iter().filter(|e| e.label == op.label()) {
            let a_fits = graph.node_label(a) == rp.node_labels[e.from];
            if a_fits && graph.node_label(b) == rp.node_labels[e.to] {
                let from_a = match dist[e.from].cmp(&dist[e.to]) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => degree(a) <= degree(b),
                };
                seeds.push(if from_a { (e.from, a) } else { (e.to, b) });
            }
            let ratio = matches!(e.quantifier, CountingQuantifier::Ratio { .. });
            if a_fits && ratio && RATIO_SEEDS {
                seeds.push((e.from, a));
            }
        }
    }
    seeds
}

/// Walks from `seeds` toward the focus on `graph`, one distance layer at a
/// time: a pair `(u, v)` at distance `d` steps along every sub-pattern edge
/// to a node `u'` at distance `d - 1`, to each graph neighbour of `v` over
/// an edge of that label and direction that carries `u'`'s node label.
/// Appends the graph nodes paired with the focus to `foci`.
fn walk(
    rp: &ResolvedPattern,
    dist: &[usize],
    graph: &Graph,
    seeds: &[(usize, NodeId)],
    foci: &mut Vec<NodeId>,
) {
    let depth = dist.iter().copied().max().unwrap_or(0);
    let mut layers: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); depth + 1];
    for &(u, v) in seeds {
        layers[dist[u]].push((u, v));
    }
    for d in (1..=depth).rev() {
        let mut layer = std::mem::take(&mut layers[d]);
        layer.sort_unstable();
        layer.dedup();
        for (u, v) in layer {
            let out = rp.out_edges[u].iter().map(|&i| (&rp.edges[i], true));
            let inc = rp.in_edges[u].iter().map(|&i| (&rp.edges[i], false));
            for (e, forward) in out.chain(inc) {
                let (other, neighbours) = if forward {
                    (e.to, graph.out_neighbors_with_label_slice(v, e.label))
                } else {
                    (e.from, graph.in_neighbors_with_label_slice(v, e.label))
                };
                if dist[other] < d {
                    layers[d - 1].extend(
                        neighbours
                            .iter()
                            .filter(|&&w| graph.node_label(w) == rp.node_labels[other])
                            .map(|&w| (other, w)),
                    );
                }
            }
        }
    }
    foci.extend(layers[0].iter().map(|&(_, v)| v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ExecOptions};
    use crate::pattern::library;
    use qgp_graph::{GraphBuilder, LabelId};
    use qgp_runtime::faults;

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
            .run(ExecOptions::sequential())
            .unwrap()
            .matches
    }

    #[test]
    fn view_starts_at_the_batch_answer() {
        let (g, _, _, _) = g1();
        for pattern in [library::q2_redmi_universal(), library::q3_redmi_negation(2)] {
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
            vec![
                EdgeOp::insert(vs[0], redmi, recom),
                EdgeOp::insert(vs[0], vs[1], follow),
            ],
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
    fn unknown_edge_labels_fail_without_mutating_the_view() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q2_redmi_universal();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let (before, pin) = (view.matches().to_vec(), Arc::clone(view.snapshot()));
        let recom = g.labels().edge_label("recom").unwrap();
        let unknown = LabelId(10_000);
        let err = view
            .apply(&[
                EdgeOp::delete(vs[0], redmi, recom),
                EdgeOp::insert(vs[0], redmi, unknown),
            ])
            .unwrap_err();
        let label_count = g.labels().edge_label_count();
        let expected = GraphError::UnknownEdgeLabel {
            label: unknown,
            label_count,
        };
        assert_eq!(err, ViewError::Graph(expected));
        assert_eq!(view.matches(), before);
        assert!(Arc::ptr_eq(view.snapshot(), &pin));
        assert!(view.graph().has_edge(vs[0], redmi, recom));
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

    /// A follow-star: 200 spokes all following one hub that recommends a
    /// phone, under "people who follow someone recommending the phone".  The
    /// hub's `recom` edge is the image of `z -recom-> phone` in every
    /// spoke's isomorphism, so one op on it puts all 200 spokes in the typed
    /// repair set — enough to cross `PARALLEL_REDECIDE_THRESHOLD`.
    fn star_follow_graph() -> (Graph, Vec<NodeId>, NodeId, NodeId, Pattern) {
        use crate::pattern::PatternBuilder;
        let mut b = GraphBuilder::new();
        let hub = b.add_node("person");
        let xs = b.add_nodes("person", 200);
        let phone = b.add_node("phone");
        for &x in &xs {
            b.add_edge(x, hub, "follow").unwrap();
        }
        b.add_edge(hub, phone, "recom").unwrap();
        let mut pb = PatternBuilder::new();
        let xo = pb.node("person");
        let z = pb.node("person");
        let y = pb.node("phone");
        pb.edge(xo, z, "follow");
        pb.edge(z, y, "recom");
        pb.focus(xo);
        (b.build(), xs, hub, phone, pb.build().unwrap())
    }

    #[test]
    fn exhausted_budget_rolls_the_batch_back() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q3_redmi_negation(2);
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let pin = Arc::clone(view.snapshot());
        let recom = g.labels().edge_label("recom").unwrap();
        let bad = g.labels().edge_label("bad_rating").unwrap();
        let ops = [
            EdgeOp::delete(vs[4], redmi, bad),
            EdgeOp::insert(vs[4], redmi, recom),
        ];
        // The batch's repair set, read off a twin view that applies it.
        let twin = Engine::new(&g)
            .prepare(&pattern)
            .unwrap()
            .view()
            .apply(&ops);
        let rechecked = twin.unwrap().rechecked as u64;
        assert!(rechecked > 0);
        // No budget, and one decision short of the repair set.
        for cap in [0, rechecked - 1] {
            let starved = ExecBudget::unlimited().max_decisions(cap);
            let err = view
                .apply_budgeted(&ops, &starved, Runtime::global())
                .unwrap_err();
            assert_eq!(err, ViewError::BudgetExceeded, "cap {cap}");
            // The view kept its old pin and match set.
            assert!(Arc::ptr_eq(view.snapshot(), &pin));
            assert_eq!(view.matches(), before);
            assert!(view.graph().has_edge(vs[4], redmi, bad));
            assert!(!view.graph().has_edge(vs[4], redmi, recom));
        }
        // An adequate budget — exactly one decision per focus of the repair
        // set — then applies the same batch exactly.
        let ample = ExecBudget::unlimited().max_decisions(rechecked);
        let delta = view
            .apply_budgeted(&ops, &ample, Runtime::global())
            .unwrap();
        assert!(!delta.added.is_empty());
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    #[test]
    fn parallel_repair_honors_the_budget() {
        let (g, xs, hub, phone, pattern) = star_follow_graph();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        assert_eq!(before, xs);
        let recom = g.labels().edge_label("recom").unwrap();
        let ops = [EdgeOp::delete(hub, phone, recom)];
        let rt = Runtime::new(4);
        let starved = ExecBudget::unlimited().max_decisions(10);
        let err = view.apply_budgeted(&ops, &starved, &rt).unwrap_err();
        assert_eq!(err, ViewError::BudgetExceeded);
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(hub, phone, recom));
        // The starved map was a parallel one: the batch's typed set crosses
        // the threshold.
        let delta = view.apply_with(&ops, &rt).unwrap();
        assert!(
            delta.rechecked >= PARALLEL_REDECIDE_THRESHOLD,
            "{}",
            delta.rechecked
        );
    }

    #[test]
    fn injected_fault_mid_repair_keeps_the_old_pin() {
        let (g, _, vs, redmi) = g1();
        let pattern = library::q3_redmi_negation(2);
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let pin = Arc::clone(view.snapshot());
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
        // The failed batch left the view on its old pin and answer.
        assert!(Arc::ptr_eq(view.snapshot(), &pin));
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(vs[4], redmi, bad));
        // The panicked session was dropped, so the disarmed retry runs on a
        // fresh one and applies cleanly, with no recovery step in between.
        let delta = view.apply(&ops).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    #[test]
    fn worker_panic_in_parallel_repair_fails_cleanly_without_poisoning() {
        let (g, xs, hub, phone, pattern) = star_follow_graph();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        let before = view.matches().to_vec();
        let recom = g.labels().edge_label("recom").unwrap();
        let ops = [EdgeOp::delete(hub, phone, recom)];
        let rt = Runtime::new(4);
        {
            let _faults = faults::install(faults::FaultPlan::new(11, 1.0));
            let err = view.apply_with(&ops, &rt).unwrap_err();
            assert!(matches!(err, ViewError::TaskPanicked(_)), "{err:?}");
        }
        assert_eq!(view.matches(), before);
        assert!(view.graph().has_edge(hub, phone, recom));
        // The disarmed retry applies cleanly and agrees with a recompute.
        let delta = view.apply_with(&ops, &rt).unwrap();
        assert_eq!(delta.removed, xs);
        assert!(
            delta.rechecked >= PARALLEL_REDECIDE_THRESHOLD,
            "{}",
            delta.rechecked
        );
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    /// Inserting `x1 -follow-> Redmi` moves only x1's denominator
    /// `|Mₑ(x1)|` for Q2's universal `follow` edge (1 → 2 children), since
    /// the Redmi node cannot match `z`.  Only the ratio seed reaches x1, so
    /// under `--cfg qgp_mutate`, which drops it, the view must diverge.
    #[test]
    fn a_ratio_denominator_alone_moves_the_answer() {
        let (g, xs, _, redmi) = g1();
        let pattern = library::q2_redmi_universal();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        assert!(view.contains(xs[0]));
        let follow = g.labels().edge_label("follow").unwrap();
        let delta = view.apply(&[EdgeOp::insert(xs[0], redmi, follow)]).unwrap();
        let recomputed = full_recompute(view.graph(), &pattern);
        #[cfg(not(qgp_mutate))]
        {
            assert_eq!(delta.removed, vec![xs[0]]);
            assert_eq!(delta.rechecked, 1, "only x1's denominator moved");
            assert_eq!(view.matches(), recomputed);
        }
        #[cfg(qgp_mutate)]
        {
            assert_eq!(delta.rechecked, 0, "ratio seeds are dropped");
            assert_ne!(view.matches(), recomputed, "the mutation must be caught");
        }
    }

    /// A ratio edge into the focus, `z -r(≥50%)-> xo`: both endpoints of
    /// the inserted `a -r-> v3` fit, and the nearer one is v3.  But the
    /// insert also moves `|Mₑ(a)|` (2 → 3) for v1 and v2, whose isomorphisms
    /// do not use the edge, so the source seed is needed here too.
    #[test]
    fn a_ratio_edge_into_the_focus_seeds_its_source_when_both_ends_fit() {
        use crate::pattern::PatternBuilder;
        let mut b = GraphBuilder::new();
        let a = b.add_node("B");
        let vs = b.add_nodes("A", 3);
        b.add_edge(a, vs[0], "r").unwrap();
        b.add_edge(a, vs[1], "r").unwrap();
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let xo = pb.node("A");
        let z = pb.node("B");
        pb.quantified_edge(z, xo, "r", CountingQuantifier::at_least_percent(50.0));
        pb.focus(xo);
        let pattern = pb.build().unwrap();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        assert_eq!(view.matches(), &vs[..2]);
        let r = g.labels().edge_label("r").unwrap();
        let delta = view.apply(&[EdgeOp::insert(a, vs[2], r)]).unwrap();
        assert_eq!(delta.removed, &vs[..2]);
        assert_eq!(view.matches(), full_recompute(view.graph(), &pattern));
    }

    /// `xo -s(=0)-> w` beside `xo -r-> y -s-> w`: Q puts `w` one hop from
    /// the focus, `Π(Q)` two.  Inserting `y1 -s-> w1` (w1 the lower-degree
    /// endpoint) makes x enter.  With Q's distances the edge's endpoints tie,
    /// the walk starts at w1 and finds no `Π(Q)` edge that leads nearer the
    /// focus, so x would never be re-decided.
    #[test]
    fn a_negated_shortcut_does_not_shorten_the_positive_walk() {
        use crate::pattern::PatternBuilder;
        let mut b = GraphBuilder::new();
        let x = b.add_node("A");
        let y1 = b.add_node("B");
        let w1 = b.add_node("C");
        b.add_edge(x, y1, "r").unwrap();
        // Interns `s` away from the nodes under test.
        let d = b.add_nodes("D", 2);
        b.add_edge(d[0], d[1], "s").unwrap();
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let xo = pb.node("A");
        let y = pb.node("B");
        let w = pb.node("C");
        pb.edge(xo, y, "r");
        pb.edge(y, w, "s");
        pb.negated_edge(xo, w, "s");
        pb.focus(xo);
        let pattern = pb.build().unwrap();
        let mut view = Engine::new(&g).prepare(&pattern).unwrap().view();
        assert!(view.is_empty());
        let s = g.labels().edge_label("s").unwrap();
        let delta = view.apply(&[EdgeOp::insert(y1, w1, s)]).unwrap();
        assert_eq!(delta.added, vec![x]);
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
