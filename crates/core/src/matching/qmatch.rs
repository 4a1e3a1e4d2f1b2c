//! Top-level quantified matching (`QMatch`, Fig. 5 of the paper).
//!
//! `QMatch` evaluates a QGP `Q(x_o)` on a graph `G` in three steps:
//!
//! 1. compute `Π(Q)(x_o, G)` with the quantifier-aware matcher
//!    ([`crate::matching::quantified`]),
//! 2. for every negated edge `e ∈ E⁻_Q`, compute `Π(Q^{+e})(x_o, G)` — either
//!    incrementally, reusing the cached matches of step 1 (`IncQMatch`), or
//!    from scratch (`QMatchn`),
//! 3. return `Q(x_o, G) = Π(Q)(x_o, G) \ ⋃_e Π(Q^{+e})(x_o, G)`.
//!
//! The algorithm itself runs in [`crate::engine`] (one decision kernel,
//! `SessionCore::decide`, under one execution driver); this module keeps its
//! answer type.  Conventional matching is the same engine run on the
//! stratified pattern `Q_π`: `Engine::new(g).prepare(&q.stratified())`.

use qgp_graph::NodeId;

use super::stats::MatchStats;

/// The answer of a quantified matching run: the matches of the query focus
/// plus work counters.
#[derive(Debug, Clone, Default)]
pub struct QueryAnswer {
    /// Matches of the query focus `Q(x_o, G)`, sorted by node id.
    pub matches: Vec<NodeId>,
    /// Work counters accumulated over every phase of the evaluation.
    pub stats: MatchStats,
    /// `true` when its [`ExecBudget`](crate::engine::ExecBudget) stopped the
    /// execution early (deadline, decision cap or explicit cancellation), so
    /// `matches` is a *prefix* of the full answer (in
    /// sequential mode; some subset in parallel modes).  An answer reached
    /// via [`ExecOptions::limit`](crate::engine::ExecOptions::limit) is not
    /// truncated: the limit was the request.
    pub truncated: bool,
}

impl QueryAnswer {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Is the answer empty?
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: NodeId) -> bool {
        self.matches.binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecOptions;
    use crate::matching::MatchConfig;
    use crate::pattern::{library, CountingQuantifier, PatternBuilder};
    use crate::test_support::{engine_match, run};
    use qgp_graph::{Graph, GraphBuilder};

    /// Graph G1 of Fig. 2.
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

    /// Graph G2 of Fig. 2: professors, PhD students and countries.
    fn g2() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        // x4, x5, x6 are senior people; v5..v9 are their students.
        let xs = b.add_nodes("person", 3); // x4, x5, x6
        let vs = b.add_nodes("person", 5); // v5..v9
        let prof = b.add_node("prof");
        let phd = b.add_node("PhD");
        let uk = b.add_node("UK");
        for &x in &xs {
            b.add_edge(x, prof, "is_a").unwrap();
            b.add_edge(x, uk, "in").unwrap();
        }
        // x4 also holds a PhD — it will violate the negation of Q4.
        b.add_edge(xs[0], phd, "is_a").unwrap();
        // Students: each vi advised by some xj (the advisor edge points from
        // the advisor to the student, matching library::q4_uk_professors),
        // and all students are UK professors.
        let advisors = [0usize, 0, 1, 1, 2];
        for (i, &a) in advisors.iter().enumerate() {
            b.add_edge(xs[a], vs[i], "advisor").unwrap();
            b.add_edge(vs[i], prof, "is_a").unwrap();
            b.add_edge(vs[i], uk, "in").unwrap();
        }
        // x6 only has one student, so it fails "at least 2 students".
        (b.build(), xs)
    }

    #[test]
    fn q3_with_negation_matches_example_4() {
        // Q3(xo, G1) with p = 2 is {x2}: x3 is excluded because he follows
        // v4 who gave Redmi 2A a bad rating.
        let (g, xs, _) = g1();
        let q3 = library::q3_redmi_negation(2);
        for config in [
            MatchConfig::qmatch(),
            MatchConfig::qmatch_n(),
            MatchConfig::enumerate(),
        ] {
            let ans = engine_match(&g, &q3, &config);
            assert_eq!(ans.matches, vec![xs[1]], "{config:?}");
            assert!(ans.contains(xs[1]));
            assert!(!ans.contains(xs[2]));
            assert_eq!(ans.len(), 1);
        }
    }

    #[test]
    fn incremental_negation_reuses_cached_matches() {
        let (g, _, _) = g1();
        let q3 = library::q3_redmi_negation(2);
        let inc = engine_match(&g, &q3, &MatchConfig::qmatch());
        let scratch = engine_match(&g, &q3, &MatchConfig::qmatch_n());
        assert_eq!(inc.matches, scratch.matches);
        assert!(inc.stats.reused_from_cache > 0);
        assert_eq!(scratch.stats.reused_from_cache, 0);
        // The incremental variant verifies no more focus candidates in the
        // negation phase than the from-scratch variant.
        assert!(inc.stats.focus_candidates <= scratch.stats.focus_candidates);
    }

    #[test]
    fn q4_knowledge_discovery_on_g2() {
        // Q4 with p = 2: UK professors without a PhD who advised ≥ 2 PhD
        // students who are UK professors.  x4 has a PhD (excluded by the
        // negated edge), x6 has only one student: answer = {x5}.
        let (g, xs) = g2();
        let q4 = library::q4_uk_professors(2);
        let ans = engine_match(&g, &q4, &MatchConfig::qmatch());
        assert_eq!(ans.matches, vec![xs[1]]);
    }

    #[test]
    fn stratified_run_ignores_quantifiers() {
        let (g, xs, _) = g1();
        let q3 = library::q3_redmi_negation(2);
        // As a conventional pattern (all edges existential), any xo with a
        // recommending friend *and* a bad-rating friend matches: only x3.
        let ans = run(&g, &q3.stratified(), ExecOptions::sequential()).unwrap();
        assert_eq!(ans.matches, vec![xs[2]]);
    }

    #[test]
    fn conventional_pattern_agrees_between_conventional_and_quantified_runs() {
        let (g, _, _) = g1();
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let z = b.node("person");
        let redmi = b.node("Redmi 2A");
        b.edge(xo, z, "follow");
        b.edge(z, redmi, "recom");
        b.focus(xo);
        let p = b.build().unwrap();
        let a = run(&g, &p.stratified(), ExecOptions::sequential()).unwrap();
        let b_ = engine_match(&g, &p, &MatchConfig::qmatch());
        assert_eq!(a.matches, b_.matches);
    }

    #[test]
    fn invalid_patterns_are_rejected() {
        let (g, _, _) = g1();
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let y = b.node("person");
        b.quantified_edge(xo, y, "follow", CountingQuantifier::at_least_percent(200.0));
        b.focus(xo);
        let p = b.build_unchecked();
        assert!(run(&g, &p, ExecOptions::sequential()).is_err());
    }

    #[test]
    fn query_answer_helpers() {
        let ans = QueryAnswer {
            matches: vec![NodeId::new(1), NodeId::new(5)],
            stats: MatchStats::new(),
            truncated: false,
        };
        assert_eq!(ans.len(), 2);
        assert!(!ans.is_empty());
        assert!(ans.contains(NodeId::new(5)));
        assert!(!ans.contains(NodeId::new(2)));
        assert!(QueryAnswer::default().is_empty());
    }

    #[test]
    fn pattern_with_two_negated_edges_uses_set_difference_per_edge() {
        // Q5: non-UK professors with students who are professors without PhDs.
        let (g, _xs) = g2();
        let q5 = library::q5_non_uk_professors();
        let ans = engine_match(&g, &q5, &MatchConfig::qmatch());
        // Everyone in G2 lives in the UK, so the negated `in UK` edge
        // excludes every candidate: the answer is empty.
        assert!(ans.matches.is_empty());
    }
}
