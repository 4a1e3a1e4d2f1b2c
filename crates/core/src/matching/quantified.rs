//! The quantified matcher for positive patterns (`DMatch`, Section 4.1).
//!
//! Given a positive QGP `Π(Q)` and a graph, this module decides, for each
//! candidate of the query focus, whether it belongs to `Π(Q)(x_o, G)`.
//! Semantics recap (Section 2.2): a focus candidate `v_x` is an answer iff
//! there exists an isomorphism `h₀` of the stratified pattern with
//! `h₀(x_o) = v_x` such that for **every** pattern edge `e = (u, u')`, the
//! number of *distinct* children of `h₀(u)` that match `u'` in *some*
//! isomorphism (with the same focus) satisfies the counting quantifier
//! `f(e)`; ratio aggregates are measured against `|Mₑ(h₀(u))|`, the total
//! number of children of `h₀(u)` via `e`'s edge label.
//!
//! The matcher follows the structure of `DMatch`:
//!
//! 1. candidate initialization with quantifier-aware upper-bound pruning
//!    (`U(v, e) = |Mₑ(v)|`),
//! 2. an optional graph-simulation pre-filter (Appendix B),
//! 3. per-focus verification that enumerates isomorphisms with the focus
//!    pinned, accumulating the distinct-children counters `c(v, e)`, with
//!    *dynamic early acceptance* as soon as an isomorphism whose nodes all
//!    satisfy their (monotone) quantifiers is witnessed,
//! 4. when early acceptance is not possible (non-monotone quantifiers such
//!    as `= 100%` or `= p`, or the enumeration simply finished), an exact
//!    decision from the accumulated counters followed by a constrained
//!    existence check restricted to "good" candidates.
//!
//! The auxiliary state is flat: the counters `c(v, e)` live in per-edge
//! vectors indexed by the *rank* of `v` in the sorted candidate set `C(u)`,
//! and the participant sets are rank-space bitmaps.  One
//! [`CounterAccumulator`] is allocated per matching run and recycled across
//! focus candidates with an `O(touched)` reset, so the per-focus cost tracks
//! the number of isomorphisms found, not the candidate population.

use std::ops::ControlFlow;

use qgp_graph::{DenseBitSet, Graph, NodeId};

use super::candidates::{build_candidates, CandidateFilter, CandidateSets};
use super::config::MatchConfig;
use super::generic::{IsomorphismEngine, SearchOrder};
use super::resolved::ResolvedPattern;
use super::session::CountMode;
use super::simulation::refine_by_simulation;
use super::stats::MatchStats;
use crate::pattern::{CmpOp, CountingQuantifier, Pattern};

/// A reusable matching session for one *positive* pattern on one graph: the
/// resolved pattern, candidate sets, search order and counter scratch are
/// built once and reused to verify any number of focus candidates, one at a
/// time.
///
/// This is the per-worker unit of state behind the `qgp-runtime` executor:
/// a steal victim's remaining focus candidates are plain indices, so a thief
/// resumes matching by calling [`PositiveSession::decide`] on its own
/// session — nothing per-chunk is ever rebuilt.
pub(crate) struct PositiveSession {
    config: MatchConfig,
    /// `None` when the pattern cannot match at all (unresolvable labels or
    /// an empty candidate set).
    inner: Option<SessionInner>,
}

struct SessionInner {
    rp: ResolvedPattern,
    order: SearchOrder,
    candidates: CandidateSets,
    acc: CounterAccumulator,
    /// Node-id universe of the graph the session was built for, guarding the
    /// candidate bitmap probes against out-of-range ids.
    universe: usize,
    /// Is the pattern a single quantified edge out of the focus (two nodes,
    /// one edge)?  Then a counting decision reduces to one ranked
    /// intersection of the focus's CSR child slice with `C(e.to)` — no
    /// enumeration, no accumulator, no good sets.  This shape covers every
    /// antecedent and consequent the QGAR miner evaluates.
    single_focus_edge: bool,
}

impl PositiveSession {
    /// Builds the session: label resolution, candidate initialization
    /// under `filter` (quantifier-aware degree pruning, label-only, or the
    /// update-stable [`CandidateFilter::LabelUniverse`] incremental match
    /// views pass), optional simulation refinement, search order, and the
    /// counter accumulator.
    pub fn with_filter(
        graph: &Graph,
        pattern: &Pattern,
        config: &MatchConfig,
        filter: CandidateFilter,
        stats: &mut MatchStats,
    ) -> Self {
        debug_assert!(pattern.is_positive(), "PositiveSession requires Π(Q)");
        let inner = (|| {
            let rp = ResolvedPattern::resolve(pattern, graph)?;
            let mut candidates = build_candidates(graph, &rp, filter, stats);
            if config.use_simulation_filter && !candidates.any_empty() {
                refine_by_simulation(graph, &rp, &mut candidates, stats);
            }
            if candidates.any_empty() {
                return None;
            }
            let order = SearchOrder::new(&rp);
            let acc = CounterAccumulator::new(&rp, &candidates);
            let single_focus_edge = rp.node_count() == 2
                && rp.edges.len() == 1
                && rp.edges[0].from == rp.focus
                && rp.edges[0].to != rp.focus;
            Some(SessionInner {
                rp,
                order,
                candidates,
                acc,
                universe: graph.node_count(),
                single_focus_edge,
            })
        })();
        PositiveSession {
            config: *config,
            inner,
        }
    }

    /// The focus candidate set `C(x_o)`, sorted ascending (empty when the
    /// pattern cannot match).
    pub fn focus_candidates(&self) -> &[NodeId] {
        self.inner
            .as_ref()
            .map(|i| i.candidates.set(i.rp.focus))
            .unwrap_or(&[])
    }

    /// Is `v` a focus candidate of this session?
    pub fn is_focus_candidate(&self, v: NodeId) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| v.index() < i.universe && i.candidates.contains(i.rp.focus, v))
    }

    /// Decides `vx ∈ Π(Q)(x_o, G)`, reusing the session's scratch, and
    /// reports the witness count of the focus's first out-edge (`1`/`0`
    /// when the focus has none).
    ///
    /// `counting = None` enumerates: isomorphisms are accumulated into the
    /// counters with dynamic early acceptance, and only the boolean of the
    /// pair is meaningful.  `counting = Some(mode)` is the aggregate
    /// pushdown: single-quantified-edge patterns are decided by a ranked
    /// intersection over the focus's CSR child slice — no isomorphism
    /// enumeration, no counter accumulation, no good-set construction —
    /// and other shapes run the enumerating verifier with
    /// counting-specific early exits.  Under [`CountMode::ThresholdOnly`]
    /// the count stops at the verdict and is a sufficient lower bound;
    /// under [`CountMode::Exact`] it is the exact cardinality.
    pub fn decide(
        &mut self,
        graph: &Graph,
        vx: NodeId,
        counting: Option<CountMode>,
        stats: &mut MatchStats,
    ) -> (bool, usize) {
        let Some(inner) = &mut self.inner else {
            return (false, 0);
        };
        if let (Some(mode), true) = (counting, inner.single_focus_edge) {
            return count_single_edge(graph, inner, vx, mode, stats);
        }
        let verifier = CandidateVerifier {
            graph,
            rp: &inner.rp,
            order: &inner.order,
            candidates: &inner.candidates,
            config: &self.config,
        };
        verifier.decide(vx, &mut inner.acc, stats, counting)
    }
}

/// The aggregate-pushdown fast path: decides a two-node, one-edge pattern
/// `x_o -e-> y` for focus candidate `vx` by counting
/// `|out(vx, label(e)) ∩ C(y) \ {vx}|` against `f(e)` with the denominator
/// `|Mₑ(vx)|`, instead of enumerating isomorphisms.  Exactness: for this
/// shape an isomorphism pinning the focus to `vx` exists per candidate child
/// independently (injectivity only excludes `vx` itself), so the distinct
/// intersection size *is* the counter `c(vx, e)` the enumerating verifier
/// would accumulate, and the decision is `f(e)`'s check plus the existence
/// requirement of at least one witness.
///
/// Under [`CountMode::ThresholdOnly`] the scan stops the moment the verdict
/// is decided: a monotone threshold reached, too few children remaining to
/// reach it, or an equality ceiling overshot (each counted in
/// [`MatchStats::threshold_exits`]).
fn count_single_edge(
    graph: &Graph,
    inner: &SessionInner,
    vx: NodeId,
    mode: CountMode,
    stats: &mut MatchStats,
) -> (bool, usize) {
    stats.focus_verified += 1;
    let e = &inner.rp.edges[0];
    let q = e.quantifier;
    let children = graph.out_neighbors_with_label_slice(vx, e.label);
    let total = children.len();
    let target = q.min_required(total);
    let monotone = q.is_monotone();
    if !monotone && !q.check(target, total) {
        // Equality target unattainable for this denominator (e.g. `= 50%`
        // of 5 children): no count can satisfy the quantifier.
        stats.threshold_exits += 1;
        return (false, 0);
    }
    // An isomorphism must exist even when the numeric threshold is vacuous.
    let need = target.max(1);
    let threshold = mode == CountMode::ThresholdOnly;
    if threshold && need > total {
        stats.threshold_exits += 1;
        return (false, 0);
    }

    let cand = inner.candidates.set(e.to);
    let mut count = 0usize;
    // Probe the smaller side: galloping binary searches of each candidate
    // into the sorted CSR slice when `C(e.to)` is much smaller than the
    // child list, branchless bitmap probes of each child otherwise.
    if cand.len() * 8 < total {
        for (i, &c) in cand.iter().enumerate() {
            if c == vx {
                continue;
            }
            stats.children_counted += 1;
            if children.binary_search(&c).is_ok() {
                count += 1;
                if threshold {
                    if monotone && count >= need {
                        stats.threshold_exits += 1;
                        return (true, count);
                    }
                    if !monotone && count > target {
                        stats.threshold_exits += 1;
                        return (false, count);
                    }
                }
            }
            if threshold && count + (cand.len() - i - 1) < need {
                stats.threshold_exits += 1;
                return (false, count);
            }
        }
    } else {
        let mut prev: Option<NodeId> = None;
        for (i, &c) in children.iter().enumerate() {
            // Parallel edges repeat a child in the slice; count distinct.
            if prev == Some(c) {
                continue;
            }
            prev = Some(c);
            if c != vx {
                stats.children_counted += 1;
                if inner.candidates.contains(e.to, c) {
                    count += 1;
                    if threshold {
                        if monotone && count >= need {
                            stats.threshold_exits += 1;
                            return (true, count);
                        }
                        if !monotone && count > target {
                            stats.threshold_exits += 1;
                            return (false, count);
                        }
                    }
                }
            }
            if threshold && count + (total - i - 1) < need {
                stats.threshold_exits += 1;
                return (false, count);
            }
        }
    }
    (count >= 1 && q.check(count, total), count)
}

/// Per-focus verification machinery.
struct CandidateVerifier<'a> {
    graph: &'a Graph,
    rp: &'a ResolvedPattern,
    order: &'a SearchOrder,
    candidates: &'a CandidateSets,
    config: &'a MatchConfig,
}

impl<'a> CandidateVerifier<'a> {
    /// Decides whether `vx ∈ Π(Q)(x_o, G)`, optionally in counting mode.
    ///
    /// With `counting = None` only the boolean of the returned pair is
    /// meaningful.  With
    /// `counting = Some(mode)` the second component is the witness count of
    /// the focus's first out-edge (see [`PositiveSession::decide`]), early
    /// acceptance is disabled under [`CountMode::Exact`] so the counters are
    /// complete, and `Count`-equality quantifiers on focus out-edges reject
    /// as soon as their counter overshoots the target (sound: distinct
    /// counters only grow).
    fn decide(
        &self,
        vx: NodeId,
        acc: &mut CounterAccumulator,
        stats: &mut MatchStats,
        counting: Option<CountMode>,
    ) -> (bool, usize) {
        // Focus-level upper-bound pruning: for every out-edge of the focus,
        // the number of candidate children reachable from `vx` bounds the
        // counter from above; if that bound already fails the quantifier, the
        // candidate is discarded without search (Example 5 of the paper).
        if self.config.use_upper_bound_pruning && !self.focus_upper_bounds_feasible(vx) {
            stats.pruned_by_upper_bound += 1;
            return (false, 0);
        }
        stats.focus_verified += 1;

        let all_monotone = self
            .rp
            .edges
            .iter()
            .all(|e| e.quantifier.is_monotone() || e.quantifier.is_existential());
        let early_accept =
            self.config.early_accept && all_monotone && counting != Some(CountMode::Exact);

        // Equality ceilings for the counting overshoot exit.
        let overshoot_edges: Vec<(usize, usize)> = if counting == Some(CountMode::ThresholdOnly) {
            self.rp.out_edges[self.rp.focus]
                .iter()
                .filter_map(|&eidx| match self.rp.edges[eidx].quantifier {
                    CountingQuantifier::Count {
                        op: CmpOp::Eq,
                        value,
                    } => Some((eidx, value as usize)),
                    _ => None,
                })
                .collect()
        } else {
            Vec::new()
        };

        acc.reset();
        let engine = IsomorphismEngine::new(self.graph, self.rp, self.order, self.candidates);
        let mut overshot = false;
        let accepted_early = engine.enumerate_with_focus(vx, stats, |assignment| {
            acc.record(self.rp, self.candidates, assignment);
            if !overshoot_edges.is_empty() {
                let rank = acc.assigned_rank(self.rp.focus);
                if overshoot_edges
                    .iter()
                    .any(|&(eidx, cap)| acc.count(eidx, rank) > cap)
                {
                    overshot = true;
                    return ControlFlow::Break(());
                }
            }
            if early_accept && self.assignment_is_good(acc, assignment) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if overshot {
            stats.threshold_exits += 1;
            return (false, self.focus_witnesses(acc, vx, false));
        }
        if accepted_early {
            if counting.is_some() {
                stats.threshold_exits += 1;
            }
            return (true, self.focus_witnesses(acc, vx, true));
        }
        if acc.no_participants(self.rp.focus) {
            // No isomorphism maps the focus to vx at all.
            return (false, 0);
        }

        // Decide the focus itself before building any good set: a focus
        // whose own counters fail (the common rejection) costs two rank
        // lookups and no allocation.
        let Some(focus_rank) = self.candidates.rank(self.rp.focus, vx) else {
            return (false, 0);
        };
        if !acc.is_participant(self.rp.focus, focus_rank)
            || !self.node_is_good(acc, self.rp.focus, focus_rank, vx)
        {
            return (false, self.focus_witnesses(acc, vx, false));
        }

        // Exact decision from the accumulated counters: restrict every
        // pattern node to its "good" candidates (those whose counters satisfy
        // every out-edge quantifier) and ask whether an isomorphism survives.
        // The per-node vectors come from (and return to) the accumulator's
        // scratch, so this allocates nothing once the scratch is warm.
        let mut good = acc.take_good_scratch();
        self.fill_good_sets(acc, &mut good);
        let found = if good.iter().any(Vec::is_empty) {
            false
        } else {
            // Sparse sets: the restricted existence check touches a handful
            // of nodes, so universe-sized bitmaps would cost O(V) per focus.
            let restricted = CandidateSets::from_sorted_sets_sparse(good);
            let engine = IsomorphismEngine::new(self.graph, self.rp, self.order, &restricted);
            let found = engine.enumerate_with_focus(vx, stats, |_| ControlFlow::Break(()));
            good = restricted.into_sets();
            found
        };
        acc.restore_good_scratch(good);
        (found, self.focus_witnesses(acc, vx, found))
    }

    /// The witness count reported by counting decisions: the distinct
    /// children accumulated for the focus's first out-edge, or the decision
    /// itself (`1`/`0`) when the focus has no out-edge to count along.
    fn focus_witnesses(&self, acc: &CounterAccumulator, vx: NodeId, matched: bool) -> usize {
        match self.rp.out_edges[self.rp.focus].first() {
            Some(&eidx) => self
                .candidates
                .rank(self.rp.focus, vx)
                .map(|rank| acc.count(eidx, rank))
                .unwrap_or(0),
            None => usize::from(matched),
        }
    }

    /// Checks that each out-edge of the focus can still reach its threshold
    /// given the candidate children actually present around `vx`.
    fn focus_upper_bounds_feasible(&self, vx: NodeId) -> bool {
        for &eidx in &self.rp.out_edges[self.rp.focus] {
            let e = &self.rp.edges[eidx];
            let children = self.graph.out_neighbors_with_label_slice(vx, e.label);
            let total = children.len();
            let upper = children
                .iter()
                .filter(|&&child| self.candidates.contains(e.to, child))
                .count();
            if !e.quantifier.feasible_with_upper_bound(upper, total) {
                return false;
            }
        }
        true
    }

    /// Does the given isomorphism only use nodes whose *current* counters
    /// already satisfy every out-edge quantifier?  (Sound for monotone
    /// quantifiers: counters only grow as more isomorphisms are found.)
    /// Must be called right after [`CounterAccumulator::record`] for the same
    /// assignment, so the cached ranks are current.
    fn assignment_is_good(&self, acc: &CounterAccumulator, assignment: &[NodeId]) -> bool {
        for (u, &v) in assignment.iter().enumerate() {
            if !self.node_is_good(acc, u, acc.assigned_rank(u), v) {
                return false;
            }
        }
        true
    }

    /// Do the counters of candidate `v` (at `rank` within `C(u)`) satisfy
    /// every out-edge quantifier of pattern node `u`?
    fn node_is_good(&self, acc: &CounterAccumulator, u: usize, rank: usize, v: NodeId) -> bool {
        for &eidx in &self.rp.out_edges[u] {
            let e = &self.rp.edges[eidx];
            let count = acc.count(eidx, rank);
            let total = self.graph.out_degree_with_label(v, e.label);
            if !e.quantifier.check(count, total) {
                return false;
            }
        }
        true
    }

    /// Fills `good` with the good candidate set per pattern node, computed
    /// from the final counters.  Participants are visited in rank order, so
    /// each vector comes out sorted by node id — ready for
    /// [`CandidateSets::from_sorted_sets_sparse`] with no hashing or
    /// re-sort.  `good` is the accumulator's reusable scratch: the vectors
    /// are cleared, not reallocated, per focus candidate.
    fn fill_good_sets(&self, acc: &CounterAccumulator, good: &mut [Vec<NodeId>]) {
        for (u, set) in good.iter_mut().enumerate() {
            set.clear();
            acc.for_each_participant(u, |rank| {
                let v = self.candidates.set(u)[rank];
                if self.node_is_good(acc, u, rank, v) {
                    set.push(v);
                }
            });
        }
    }
}

/// Accumulates, across the isomorphisms seen so far for one focus candidate,
/// the auxiliary structures of `QMatch`:
///
/// * `participants[u]` — which candidates of pattern node `u` appeared in an
///   isomorphism (the cached match sets reused by `IncQMatch`), as a bitmap
///   over candidate ranks,
/// * `children[e][rank(v)]` — the distinct children of `v` matched to the
///   target of pattern edge `e`, i.e. `Mₑ(v_x, v, Q)`, as a small sorted
///   vector; its length is the counter `c(v, e)`.
///
/// The structure is allocated once per matching run and reset per focus in
/// time proportional to what the previous focus actually touched.
struct CounterAccumulator {
    /// Rank-space participant sets, one per pattern node.
    participants: Vec<DenseBitSet>,
    /// `(u, rank)` pairs inserted into `participants` since the last reset.
    participant_touched: Vec<(u32, u32)>,
    /// `children[eidx][rank of v in C(from)]` = sorted distinct children.
    children: Vec<Vec<Vec<NodeId>>>,
    /// Slots of `children` that are non-empty, for the cheap reset.
    children_touched: Vec<(u32, u32)>,
    /// Rank of the most recently recorded assignment, per pattern node.
    assigned_ranks: Vec<u32>,
    /// Reusable per-node vectors for the exact-decision good sets; taken
    /// with [`CounterAccumulator::take_good_scratch`] and put back after the
    /// restricted existence check, so the per-focus `Vec<Vec<NodeId>>`
    /// allocation is paid once per session instead of once per focus.
    good_scratch: Vec<Vec<NodeId>>,
}

impl CounterAccumulator {
    fn new(rp: &ResolvedPattern, candidates: &CandidateSets) -> Self {
        CounterAccumulator {
            participants: (0..rp.node_count())
                .map(|u| DenseBitSet::new(candidates.set(u).len()))
                .collect(),
            participant_touched: Vec::new(),
            children: rp
                .edges
                .iter()
                .map(|e| vec![Vec::new(); candidates.set(e.from).len()])
                .collect(),
            children_touched: Vec::new(),
            assigned_ranks: vec![0; rp.node_count()],
            good_scratch: vec![Vec::new(); rp.node_count()],
        }
    }

    /// Clears all per-focus state in time proportional to what was touched
    /// (participants are removed bit by bit, not by zeroing whole bitmaps —
    /// the candidate population can dwarf the isomorphism count).
    fn reset(&mut self) {
        for &(u, rank) in &self.participant_touched {
            self.participants[u as usize].remove(rank as usize);
        }
        self.participant_touched.clear();
        for &(eidx, rank) in &self.children_touched {
            self.children[eidx as usize][rank as usize].clear();
        }
        self.children_touched.clear();
    }

    /// Folds one complete isomorphism into the counters.
    fn record(&mut self, rp: &ResolvedPattern, candidates: &CandidateSets, assignment: &[NodeId]) {
        for (u, &v) in assignment.iter().enumerate() {
            let rank = candidates
                .rank(u, v)
                .expect("the engine only assigns candidates");
            self.assigned_ranks[u] = rank as u32;
            if self.participants[u].insert(rank) {
                self.participant_touched.push((u as u32, rank as u32));
            }
        }
        for (eidx, e) in rp.edges.iter().enumerate() {
            let rank = self.assigned_ranks[e.from] as usize;
            let child = assignment[e.to];
            let slot = &mut self.children[eidx][rank];
            if slot.is_empty() {
                self.children_touched.push((eidx as u32, rank as u32));
            }
            if let Err(pos) = slot.binary_search(&child) {
                slot.insert(pos, child);
            }
        }
    }

    /// The counter `c(v, e)` for the candidate at `rank` within `C(from(e))`.
    #[inline]
    fn count(&self, edge: usize, rank: usize) -> usize {
        self.children[edge][rank].len()
    }

    /// Rank (within its candidate set) of the node most recently recorded for
    /// pattern node `u`.
    #[inline]
    fn assigned_rank(&self, u: usize) -> usize {
        self.assigned_ranks[u] as usize
    }

    /// Did no isomorphism at all bind pattern node `u`?
    #[inline]
    fn no_participants(&self, u: usize) -> bool {
        self.participants[u].is_empty()
    }

    /// Did some isomorphism bind pattern node `u` to the candidate at
    /// `rank`?
    #[inline]
    fn is_participant(&self, u: usize, rank: usize) -> bool {
        self.participants[u].contains(rank)
    }

    /// Takes the good-set scratch (one vector per pattern node; contents
    /// stale — [`CandidateVerifier::fill_good_sets`] clears each).
    fn take_good_scratch(&mut self) -> Vec<Vec<NodeId>> {
        std::mem::take(&mut self.good_scratch)
    }

    /// Returns the good-set vectors (and their capacity) to the scratch.
    fn restore_good_scratch(&mut self, scratch: Vec<Vec<NodeId>>) {
        self.good_scratch = scratch;
    }

    /// Visits every participant rank of pattern node `u` in ascending order.
    fn for_each_participant(&self, u: usize, mut f: impl FnMut(usize)) {
        for rank in self.participants[u].iter() {
            f(rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{library, CountingQuantifier, PatternBuilder};
    use qgp_graph::GraphBuilder;

    /// Graph G1 of Fig. 2: the running example of the paper.
    ///
    /// * x1 follows v0; x2 follows v1, v2; x3 follows v2, v3, v4,
    /// * v0..v3 recommend Redmi 2A, v4 gave it a bad rating.
    fn g1() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
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
        (b.build(), xs, vs)
    }

    /// `Π(Q)(x_o, G)` decided one focus candidate at a time on a single
    /// session — every candidate, or only those of `restriction`.
    fn positive_matches(
        graph: &Graph,
        pattern: &Pattern,
        config: &MatchConfig,
        restriction: Option<&[NodeId]>,
    ) -> (Vec<NodeId>, MatchStats) {
        let filter = CandidateFilter::implied_by(config);
        let mut stats = MatchStats::default();
        let mut session = PositiveSession::with_filter(graph, pattern, config, filter, &mut stats);
        let foci: Vec<NodeId> = match restriction {
            Some(r) => r.to_vec(),
            None => session.focus_candidates().to_vec(),
        };
        let matches = foci
            .into_iter()
            .filter(|&v| {
                session.is_focus_candidate(v) && session.decide(graph, v, None, &mut stats).0
            })
            .collect();
        (matches, stats)
    }

    #[test]
    fn universal_quantifier_matches_example_3() {
        // Q2(xo, G1) = {x1, x2}: all people x1/x2 follow recommend Redmi 2A,
        // while x3 follows v4 who does not (Example 3 of the paper).
        let (g, xs, _) = g1();
        let pi = library::q2_redmi_universal().pi();
        for config in [MatchConfig::qmatch(), MatchConfig::enumerate()] {
            let (out, _) = positive_matches(&g, &pi.pattern, &config, None);
            assert_eq!(out, vec![xs[0], xs[1]], "{config:?}");
        }
    }

    #[test]
    fn numeric_aggregate_matches_example_4() {
        // Π(Q3) with p = 2: {x2, x3} (x1 follows only one recommender).
        let (g, xs, _) = g1();
        let pi = library::q3_redmi_negation(2).pi();
        for config in [MatchConfig::qmatch(), MatchConfig::enumerate()] {
            let (out, _) = positive_matches(&g, &pi.pattern, &config, None);
            assert_eq!(out, vec![xs[1], xs[2]], "{config:?}");
        }
    }

    #[test]
    fn ratio_aggregate_counts_against_all_children() {
        // "at least 60% of the people xo follows recommend Redmi 2A":
        // x1: 1/1, x2: 2/2, x3: 2/3 (0.666) — all pass at 60%,
        // at 80% x3 fails.
        let (g, xs, _) = g1();
        let make = |pct: f64| {
            let mut b = PatternBuilder::new();
            let xo = b.node("person");
            let z = b.node("person");
            let redmi = b.node("Redmi 2A");
            b.quantified_edge(xo, z, "follow", CountingQuantifier::at_least_percent(pct));
            b.edge(z, redmi, "recom");
            b.focus(xo);
            b.build().unwrap()
        };
        let (out60, _) = positive_matches(&g, &make(60.0), &MatchConfig::qmatch(), None);
        assert_eq!(out60, vec![xs[0], xs[1], xs[2]]);
        let (out80, _) = positive_matches(&g, &make(80.0), &MatchConfig::qmatch(), None);
        assert_eq!(out80, vec![xs[0], xs[1]]);
    }

    #[test]
    fn focus_restriction_limits_the_answer() {
        let (g, xs, _) = g1();
        let pi = library::q3_redmi_negation(2).pi();
        let (out, _) = positive_matches(&g, &pi.pattern, &MatchConfig::qmatch(), Some(&[xs[2]]));
        assert_eq!(out, vec![xs[2]]);
        let (out, _) = positive_matches(&g, &pi.pattern, &MatchConfig::qmatch(), Some(&[xs[0]]));
        assert!(out.is_empty());
    }

    #[test]
    fn upper_bound_pruning_avoids_search_for_hopeless_candidates() {
        let (g, _, _) = g1();
        let pi = library::q3_redmi_negation(2).pi();
        let (_, stats) = positive_matches(&g, &pi.pattern, &MatchConfig::qmatch(), None);
        // x1 must have been pruned by the upper-bound rule (U = 1 < 2) —
        // either at candidate initialization or at focus verification.
        assert!(stats.pruned_by_upper_bound >= 1 || stats.initial_candidates < 9);
    }

    #[test]
    fn unresolvable_labels_mean_empty_answer() {
        let (g, _, _) = g1();
        let mut b = PatternBuilder::new();
        let xo = b.node("alien");
        let z = b.node("person");
        b.edge(xo, z, "follow");
        b.focus(xo);
        let p = b.build().unwrap();
        let (out, _) = positive_matches(&g, &p, &MatchConfig::qmatch(), None);
        assert!(out.is_empty());
    }

    #[test]
    fn exact_equality_quantifier_requires_exact_count() {
        // "xo follows exactly 2 people who recommend Redmi 2A".
        let (g, xs, _) = g1();
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let z = b.node("person");
        let redmi = b.node("Redmi 2A");
        b.quantified_edge(xo, z, "follow", CountingQuantifier::exactly(2));
        b.edge(z, redmi, "recom");
        b.focus(xo);
        let p = b.build().unwrap();
        for config in [MatchConfig::qmatch(), MatchConfig::enumerate()] {
            let (out, _) = positive_matches(&g, &p, &config, None);
            // x2 follows exactly v1, v2 (both recommend): count 2. x3 follows
            // v2, v3 (recommend) and v4 (not): count 2 as well. x1: count 1.
            assert_eq!(out, vec![xs[1], xs[2]], "{config:?}");
        }
    }

    #[test]
    fn accumulator_reset_recycles_state_across_foci() {
        // Verifying several foci back to back with one accumulator must give
        // the same answers as fresh runs (the reset is O(touched), not a
        // reallocation).
        let (g, xs, _) = g1();
        let pi = library::q3_redmi_negation(2).pi();
        let (out, _) = positive_matches(&g, &pi.pattern, &MatchConfig::qmatch(), None);
        for &x in &xs[1..] {
            let (solo, _) = positive_matches(&g, &pi.pattern, &MatchConfig::qmatch(), Some(&[x]));
            assert_eq!(solo.contains(&x), out.contains(&x));
        }
    }
}
