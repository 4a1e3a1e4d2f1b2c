//! Resumable per-candidate matching sessions.
//!
//! [`MatchSession`] packages the whole `QMatch` pipeline — `Π(Q)` candidate
//! initialization, per-focus verification, and the set-difference handling
//! of negated edges — behind a *per-candidate* API: build the session once,
//! then call [`MatchSession::decide`] for each focus candidate of interest,
//! in any order, from any schedule.
//!
//! This is the task API the `qgp-runtime` work-stealing executor runs on.
//! Because a "task" is just a focus candidate index, a steal victim splits
//! its remaining candidates for free, and each worker thread decides every
//! task it executes on the one session it leased from the prepared query's
//! pool — candidate sets, search order and counter scratch are reused
//! instead of being rebuilt per chunk (tracked by
//! [`MatchStats::sessions_built`]).
//!
//! Internally the session state is split from the graph borrow:
//! [`SessionCore`] holds everything graph-*independent* (candidate sets,
//! search order, counter scratch, negation sessions) and takes the graph as
//! an argument per decision.  [`MatchSession`] pairs a core with a borrowed
//! graph — the ergonomic form for one-shot execution — while the engine
//! pools cores and hands each decision the snapshot its execution runs on.
//!
//! Every execution surface of [`crate::engine`] — sequential,
//! parallel, partitioned, counting, view repair, registry serving — reaches
//! the one deciding body, `SessionCore::decide`, so the paths cannot drift
//! apart semantically.

use std::sync::Arc;

use qgp_graph::{Graph, NodeId};
use qgp_runtime::CancelToken;

use super::candidates::CandidateFilter;
use super::compiled::CompiledPattern;
use super::config::MatchConfig;
use super::quantified::PositiveSession;
use super::stats::MatchStats;
use crate::pattern::Pattern;

/// How a counting decision treats witness counts — the aggregate-pushdown
/// knob behind [`ExecOptions::count_only`](crate::engine::ExecOptions::count_only).
///
/// Either mode returns the exact *decision* (the same boolean
/// [`MatchSession::decide`] computes); they differ only in how far the
/// per-focus witness count is carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CountMode {
    /// Stop counting each quantifier the moment its verdict is decided:
    /// `≥ p` proven, the threshold unreachable from the children remaining,
    /// or an equality ceiling overshot.  Witness counts are sufficient lower
    /// bounds — the cheapest way to answer "does focus `v` clear its
    /// quantifier" (the default).
    #[default]
    ThresholdOnly,
    /// Count every witness: per-focus counts are exact cardinalities
    /// (`|Mₑ(v_x, v, Q)|` of the focus's first out-edge), at the cost of
    /// scanning each child list to the end.
    Exact,
}

/// One per-focus decision of the kernel: whether `vx ∈ Q(x_o, G)`, and the
/// witness count of the focus's first out-edge (`1`/`0` when the focus has
/// none; meaningful for counting decisions only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Verdict {
    pub matched: bool,
    pub witnesses: usize,
}

/// The graph-independent state of one matching session: candidate sets,
/// search order, counter scratch and lazily-built negation sessions.  Every
/// decision takes the graph as an argument, so one core can serve every
/// version of a graph (a `MatchView`'s repairs decide on successive
/// snapshots) as long as its candidate sets remain valid — guaranteed by
/// construction with [`CandidateFilter::LabelUniverse`], whose sets depend
/// only on node labels.
pub(crate) struct SessionCore {
    config: MatchConfig,
    /// Candidate filter used for the positive session and every
    /// lazily-built negation session.
    filter: CandidateFilter,
    /// The graph-independent compilation (projection, positified patterns,
    /// radius), shared across every session of one prepared query.
    compiled: Arc<CompiledPattern>,
    positive: PositiveSession,
    /// Sessions for the positified patterns, built lazily on the first
    /// candidate whose negation phase actually runs.  Under `IncQMatch`
    /// that is the first candidate surviving the positive phase, so a run
    /// with an empty positive answer never pays for them; the from-scratch
    /// `QMatchn` strategy builds them on the first decided candidate, since
    /// recomputing regardless of the positive outcome is its defining cost.
    negated: Vec<Option<PositiveSession>>,
    stats: MatchStats,
}

impl SessionCore {
    /// Builds a core with the candidate filter the config implies
    /// (quantifier-aware degree pruning when upper bounds are on).
    pub fn new(graph: &Graph, compiled: Arc<CompiledPattern>, config: &MatchConfig) -> Self {
        Self::with_filter(graph, compiled, config, CandidateFilter::implied_by(config))
    }

    /// Builds a core with an explicit candidate filter.  An update-stable
    /// session pool (a `MatchView`'s) passes
    /// [`CandidateFilter::LabelUniverse`] so the sets hold for every
    /// snapshot the view's pin moves through.
    pub fn with_filter(
        graph: &Graph,
        compiled: Arc<CompiledPattern>,
        config: &MatchConfig,
        filter: CandidateFilter,
    ) -> Self {
        let mut stats = MatchStats {
            sessions_built: 1,
            ..MatchStats::default()
        };
        let positive =
            PositiveSession::with_filter(graph, &compiled.pi, config, filter, &mut stats);
        let negated = (0..compiled.positified.len()).map(|_| None).collect();
        SessionCore {
            config: *config,
            filter,
            compiled,
            positive,
            negated,
            stats,
        }
    }

    /// The focus candidates of `Π(Q)`, sorted ascending.
    pub fn focus_candidates(&self) -> &[NodeId] {
        self.positive.focus_candidates()
    }

    /// Is `v` a focus candidate (cheap bitmap probe)?
    pub fn is_focus_candidate(&self, v: NodeId) -> bool {
        self.positive.is_focus_candidate(v)
    }

    /// The decision kernel — the one body every execution surface reaches:
    /// decides `vx ∈ Q(x_o, G)` against `graph` as positive verification of
    /// `Π(Q)` minus exclusion by each positified pattern `Π(Q^{+e})` (the
    /// set-difference semantics of negation).  `None` means the
    /// cancellation token fired first; it is polled on entry and once per
    /// positified pattern.
    ///
    /// `counting` selects the work profile, never the decision.  `None`
    /// enumerates child matches.  `Some(mode)` is the aggregate pushdown:
    /// the positive phase counts instead of enumerating (see
    /// [`PositiveSession::decide`]), negated edges are decided as set
    /// membership in `Π(Q^{+e})` — existence short-circuits at the first
    /// witness, and a two-node positified pattern is one ranked
    /// intersection (see [`PositiveSession::decide`]).
    ///
    /// The two negation strategies of the paper keep their distinct costs:
    ///
    /// * `IncQMatch` (`incremental_negation = true`) verifies the positified
    ///   patterns only for candidates that already passed the positive
    ///   phase — `Π(Q^{+e})(x_o, G) ⊆ Π(Q)(x_o, G)`, so nothing else can be
    ///   excluded and the work is skipped (counted in `reused_from_cache`),
    ///   and it stops at the first excluding pattern.
    /// * `QMatchn` (`incremental_negation = false`) recomputes each
    ///   positified pattern from scratch: every focus candidate pays every
    ///   negation verification whether or not the positive phase accepted
    ///   it — the extra work Exp-1 measures.
    pub fn decide(
        &mut self,
        graph: &Graph,
        vx: NodeId,
        counting: Option<CountMode>,
        cancel: Option<&CancelToken>,
    ) -> Option<Verdict> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        if !self.positive.is_focus_candidate(vx) {
            return Some(Verdict::default());
        }
        self.stats.focus_candidates += 1;
        let (positive, witnesses) = self.positive.decide(graph, vx, counting, &mut self.stats);
        let incremental = self.config.incremental_negation;
        if positive && incremental {
            self.stats.reused_from_cache += self.compiled.positified.len();
        }
        if !positive && incremental {
            return Some(Verdict {
                matched: false,
                witnesses,
            });
        }
        let mut excluded = false;
        for k in 0..self.compiled.positified.len() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return None;
            }
            let stats = &mut self.stats;
            let neg = self.negated[k].get_or_insert_with(|| {
                PositiveSession::with_filter(
                    graph,
                    &self.compiled.positified[k],
                    &self.config,
                    self.filter,
                    stats,
                )
            });
            let hit = neg.is_focus_candidate(vx) && {
                stats.focus_candidates += 1;
                // Membership is all the set difference needs, so a
                // counting decision stops at the first witness.
                let membership = counting.map(|_| CountMode::ThresholdOnly);
                neg.decide(graph, vx, membership, stats).0
            };
            if hit {
                excluded = true;
                if incremental {
                    break;
                }
            }
        }
        Some(Verdict {
            matched: positive && !excluded,
            witnesses,
        })
    }

    /// Work counters accumulated so far (including session construction).
    pub fn stats(&self) -> MatchStats {
        self.stats
    }
}

/// A reusable matching session for one (pattern, graph) pair, deciding
/// membership in `Q(x_o, G)` one focus candidate at a time — the kernel
/// behind [`crate::engine`], paired with a borrowed graph.
///
/// The pattern is assumed validated (see [`crate::pattern::Pattern::validate`]);
/// [`crate::engine::Engine::prepare`] validates before constructing
/// sessions, and shares one compilation across every session it builds.
pub struct MatchSession<'g> {
    graph: &'g Graph,
    core: SessionCore,
}

impl<'g> MatchSession<'g> {
    /// Builds a session for a validated pattern, compiling it on the spot.
    pub fn new(graph: &'g Graph, pattern: &Pattern, config: &MatchConfig) -> Self {
        let compiled = Arc::new(CompiledPattern::compile(pattern));
        MatchSession {
            graph,
            core: SessionCore::new(graph, compiled, config),
        }
    }

    /// The focus candidates of `Π(Q)`, sorted ascending — the complete set
    /// of nodes for which [`MatchSession::decide`] can possibly return
    /// `true`.
    pub fn focus_candidates(&self) -> &[NodeId] {
        self.core.focus_candidates()
    }

    /// Is `v` a focus candidate (cheap bitmap probe)?
    pub fn is_focus_candidate(&self, v: NodeId) -> bool {
        self.core.is_focus_candidate(v)
    }

    /// Decides whether `vx ∈ Q(x_o, G)` by enumeration: positive
    /// verification via the quantifier-aware matcher, plus exclusion by
    /// each positified pattern `Π(Q^{+e})`, under the negation strategy
    /// (`IncQMatch` / `QMatchn`) the session's [`MatchConfig`] selects.
    pub fn decide(&mut self, vx: NodeId) -> bool {
        let verdict = self.core.decide(self.graph, vx, None, None);
        verdict.is_some_and(|v| v.matched)
    }

    /// Work counters accumulated so far (including session construction).
    pub fn stats(&self) -> MatchStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::reference::evaluate_reference;
    use crate::pattern::library;
    use crate::test_support::engine_match;
    use qgp_graph::GraphBuilder;

    /// Graph G1 of Fig. 2.
    fn g1() -> (Graph, Vec<NodeId>) {
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
        (b.build(), xs)
    }

    #[test]
    fn per_candidate_decisions_agree_with_batch_matching() {
        let (g, _) = g1();
        for pattern in [
            library::q2_redmi_universal(),
            library::q3_redmi_negation(2),
            library::q3_redmi_negation(3),
        ] {
            for config in [
                MatchConfig::qmatch(),
                MatchConfig::qmatch_n(),
                MatchConfig::enumerate(),
            ] {
                let batch = engine_match(&g, &pattern, &config);
                assert_eq!(batch.matches, evaluate_reference(&g, &pattern));
                let mut session = MatchSession::new(&g, &pattern, &config);
                let decided: Vec<NodeId> = g.nodes().filter(|&v| session.decide(v)).collect();
                assert_eq!(decided, batch.matches, "{config:?} {pattern}");
            }
        }
    }

    #[test]
    fn decisions_are_order_independent() {
        let (g, _) = g1();
        let pattern = library::q3_redmi_negation(2);
        let expected = evaluate_reference(&g, &pattern);
        let mut session = MatchSession::new(&g, &pattern, &MatchConfig::qmatch());
        // Reverse order, with repeats interleaved.
        let mut decided: Vec<NodeId> = Vec::new();
        let all: Vec<NodeId> = g.nodes().collect();
        for &v in all.iter().rev() {
            if session.decide(v) {
                decided.push(v);
            }
            // A repeated query must give the same answer.
            assert_eq!(session.decide(v), decided.contains(&v));
        }
        decided.sort_unstable();
        decided.dedup();
        assert_eq!(decided, expected);
    }

    #[test]
    fn session_counts_one_build_and_reports_stats() {
        let (g, _) = g1();
        let pattern = library::q3_redmi_negation(2);
        let mut session = MatchSession::new(&g, &pattern, &MatchConfig::qmatch());
        assert_eq!(session.stats().sessions_built, 1);
        for v in session.focus_candidates().to_vec() {
            session.decide(v);
        }
        let stats = session.stats();
        assert_eq!(stats.sessions_built, 1);
        assert!(stats.focus_candidates > 0);
    }

    #[test]
    fn out_of_range_and_non_candidate_nodes_are_rejected_cheaply() {
        let (g, _) = g1();
        let pattern = library::q2_redmi_universal();
        let mut session = MatchSession::new(&g, &pattern, &MatchConfig::qmatch());
        assert!(!session.decide(NodeId::new(10_000)));
        assert!(!session.is_focus_candidate(NodeId::new(10_000)));
    }

    #[test]
    fn label_universe_core_matches_default_core_decisions() {
        let (g, _) = g1();
        for pattern in [library::q2_redmi_universal(), library::q3_redmi_negation(2)] {
            let compiled = Arc::new(CompiledPattern::compile(&pattern));
            let config = MatchConfig::qmatch();
            let mut default_core = SessionCore::new(&g, Arc::clone(&compiled), &config);
            let mut universe_core = SessionCore::with_filter(
                &g,
                Arc::clone(&compiled),
                &config,
                CandidateFilter::LabelUniverse,
            );
            for v in g.nodes() {
                let accepts =
                    |core: &mut SessionCore| core.decide(&g, v, None, None).map(|d| d.matched);
                assert_eq!(
                    accepts(&mut default_core),
                    accepts(&mut universe_core),
                    "{pattern} at {v:?}"
                );
            }
        }
    }
}
