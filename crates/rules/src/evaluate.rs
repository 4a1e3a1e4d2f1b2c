//! Evaluation of QGARs: support, confidence under the local closed-world
//! assumption, and quantified entity identification (Section 6 and
//! Appendix C of the paper).
//!
//! Both patterns of a rule are evaluated through the prepared-query engine
//! ([`qgp_core::engine::Engine`]); the miner additionally evaluates each
//! consequent once and reuses its answer (and LCWA candidate set) across a
//! whole quantifier-strengthening ladder (the crate-internal
//! `ConsequentEval`).

use std::collections::HashSet;

use qgp_core::engine::{Engine, ExecOptions, Parallelism};
use qgp_core::matching::{MatchConfig, MatchStats, QueryAnswer};
use qgp_core::pattern::Pattern;
use qgp_graph::{Graph, NodeId};
use qgp_parallel::{DHopPartition, ParallelConfig};

use crate::error::RuleError;
use crate::rule::Qgar;

/// The outcome of evaluating one QGAR on one graph.
#[derive(Debug, Clone, Default)]
pub struct RuleEvaluation {
    /// `Q1(x_o, G)` — matches of the antecedent.
    pub antecedent_matches: Vec<NodeId>,
    /// `Q2(x_o, G)` — matches of the consequent.
    pub consequent_matches: Vec<NodeId>,
    /// `R(x_o, G) = Q1(x_o, G) ∩ Q2(x_o, G)`.
    pub rule_matches: Vec<NodeId>,
    /// `supp(R, G) = |R(x_o, G)|` (anti-monotonic in both topology and
    /// quantifier thresholds, Lemma 10).
    pub support: usize,
    /// `conf(R, G) = |R(x_o, G)| / |Q1(x_o, G) ∩ X_o|` under LCWA.
    pub confidence: f64,
    /// `|Q1(x_o, G) ∩ X_o|` — the denominator of the confidence.
    pub lcwa_candidates: usize,
    /// Aggregated matcher statistics.
    pub stats: MatchStats,
}

/// Runs one pattern sequentially through the engine.  Support and
/// confidence are *counting* aggregates, so every focus candidate is
/// decided through the aggregate-pushdown work profile
/// ([`ExecOptions::count_only`]): the matched foci are those of an
/// enumerating run, but no child match is ever materialized — the
/// per-candidate saving Exp-3 support counting lives on.
fn run_sequential(
    graph: &Graph,
    pattern: &Pattern,
    config: &MatchConfig,
) -> Result<QueryAnswer, RuleError> {
    Engine::new(graph)
        .prepare(pattern)
        .and_then(|prepared| {
            prepared.run(ExecOptions::sequential().with_config(*config).count_only())
        })
        .map_err(|e| RuleError::InvalidPattern(e.to_string()))
}

/// Runs one pattern over a d-hop partition through the engine (counting
/// work profile — see [`run_sequential`]).
fn run_partitioned(
    pattern: &Pattern,
    partition: &DHopPartition,
    config: &ParallelConfig,
) -> Result<QueryAnswer, RuleError> {
    let fragments = partition.fragments();
    let engine = Engine::new(
        fragments
            .first()
            .ok_or_else(|| RuleError::Parallel("empty partition".to_owned()))?
            .graph(),
    );
    let opts = ExecOptions::partitioned_with(
        fragments,
        partition.d(),
        Parallelism::threads_or_global(config.threads),
    )
    .with_config(config.match_config)
    .count_only();
    engine
        .prepare(pattern)
        .and_then(|prepared| prepared.run(opts))
        .map_err(|e| RuleError::Parallel(e.to_string()))
}

/// The consequent side of a rule, evaluated once and reusable: its matches
/// and the LCWA candidate set `X_o`.  The miner's strengthening ladder
/// varies only the antecedent quantifier, so one [`ConsequentEval`] serves
/// every rung of a ladder — work the old per-rule evaluation repeated.
#[derive(Debug, Clone)]
pub(crate) struct ConsequentEval {
    pub(crate) answer: QueryAnswer,
    pub(crate) lcwa: HashSet<NodeId>,
}

/// Evaluates a consequent pattern once (engine-backed), capturing
/// everything rule evaluation needs from it.
pub(crate) fn evaluate_consequent(
    graph: &Graph,
    consequent: &Pattern,
    config: &MatchConfig,
) -> Result<ConsequentEval, RuleError> {
    let answer = run_sequential(graph, consequent, config)?;
    Ok(ConsequentEval {
        lcwa: lcwa_candidates(graph, consequent),
        answer,
    })
}

/// Evaluates a rule against an already-evaluated consequent: only the
/// antecedent is matched.
pub(crate) fn evaluate_with_consequent(
    graph: &Graph,
    rule: &Qgar,
    consequent: &ConsequentEval,
    config: &MatchConfig,
) -> Result<RuleEvaluation, RuleError> {
    let q1 = run_sequential(graph, rule.antecedent(), config)?;
    let mut stats = q1.stats;
    stats += consequent.answer.stats;
    Ok(combine(
        q1.matches,
        consequent.answer.matches.clone(),
        &consequent.lcwa,
        stats,
    ))
}

/// `garMatch`: sequential evaluation of a QGAR (Corollary 11(1)).
///
/// Support and confidence are *counting* aggregates, so both patterns are
/// decided through the engine's aggregate-pushdown path: identical matched
/// foci, no child-match materialization (compare
/// [`RuleEvaluation::stats`]'s `threshold_exits` against `verifications`).
pub fn evaluate_rule(
    graph: &Graph,
    rule: &Qgar,
    config: &MatchConfig,
) -> Result<RuleEvaluation, RuleError> {
    let consequent = evaluate_consequent(graph, rule.consequent(), config)?;
    evaluate_with_consequent(graph, rule, &consequent, config)
}

/// `dgarMatch`: parallel evaluation of a QGAR over a d-hop preserving
/// partition (Corollary 11(2)).  The partition's `d` must be at least the
/// rule's radius.  Both patterns run through the counting path, like
/// [`evaluate_rule`].
pub fn evaluate_rule_parallel(
    graph: &Graph,
    rule: &Qgar,
    partition: &DHopPartition,
    config: &ParallelConfig,
) -> Result<RuleEvaluation, RuleError> {
    let q1 = run_partitioned(rule.antecedent(), partition, config)?;
    let q2 = run_partitioned(rule.consequent(), partition, config)?;
    let mut stats = q1.stats;
    stats += q2.stats;
    let lcwa = lcwa_candidates(graph, rule.consequent());
    Ok(combine(q1.matches, q2.matches, &lcwa, stats))
}

/// Quantified entity identification (QEI): the entities identified by `R`
/// with confidence at least `eta`, i.e. `R(x_o, η, G)`.  Returns the empty
/// set when the rule's confidence falls below the threshold.
pub fn identify_entities(
    graph: &Graph,
    rule: &Qgar,
    eta: f64,
    config: &MatchConfig,
) -> Result<Vec<NodeId>, RuleError> {
    if !(eta > 0.0 && eta <= 1.0) {
        return Err(RuleError::InvalidConfidenceThreshold(eta));
    }
    let eval = evaluate_rule(graph, rule, config)?;
    if eval.confidence >= eta {
        Ok(eval.rule_matches)
    } else {
        Ok(Vec::new())
    }
}

/// Computes `R(x_o, G)`, support and LCWA confidence from the two answers
/// and the (precomputed) LCWA candidate set `X_o` of the consequent.
fn combine(
    q1_matches: Vec<NodeId>,
    q2_matches: Vec<NodeId>,
    xo: &HashSet<NodeId>,
    stats: MatchStats,
) -> RuleEvaluation {
    let q2_set: HashSet<NodeId> = q2_matches.iter().copied().collect();
    let rule_matches: Vec<NodeId> = q1_matches
        .iter()
        .copied()
        .filter(|v| q2_set.contains(v))
        .collect();
    let support = rule_matches.len();

    // X_o under LCWA: focus candidates that carry at least one edge of the
    // required type for every focus-incident edge of the consequent, i.e.
    // nodes about which the graph actually records the relationship the rule
    // predicts (Appendix C).
    let lcwa_candidates = q1_matches.iter().filter(|v| xo.contains(v)).count();
    let confidence = if lcwa_candidates == 0 {
        0.0
    } else {
        support as f64 / lcwa_candidates as f64
    };

    RuleEvaluation {
        antecedent_matches: q1_matches,
        consequent_matches: q2_matches,
        rule_matches,
        support,
        confidence,
        lcwa_candidates,
        stats,
    }
}

/// The set `X_o` of Appendix C: graph nodes carrying the consequent's focus
/// label that have, for every focus-incident edge of the consequent, at least
/// one incident graph edge with the same label (regardless of the endpoint).
fn lcwa_candidates(graph: &Graph, consequent: &Pattern) -> HashSet<NodeId> {
    let labels = graph.labels();
    let focus = consequent.focus();
    let Some(focus_label) = labels.node_label(&consequent.node(focus).label) else {
        return HashSet::new();
    };

    // Required edge labels around the focus (out and in separately).
    let mut required_out = Vec::new();
    for &eid in consequent.out_edges_of(focus) {
        match labels.edge_label(&consequent.edge(eid).label) {
            Some(l) => required_out.push(l),
            None => return HashSet::new(),
        }
    }
    let mut required_in = Vec::new();
    for &eid in consequent.in_edges_of(focus) {
        match labels.edge_label(&consequent.edge(eid).label) {
            Some(l) => required_in.push(l),
            None => return HashSet::new(),
        }
    }

    graph
        .nodes_with_label(focus_label)
        .iter()
        .copied()
        .filter(|&v| {
            required_out
                .iter()
                .all(|&l| graph.out_degree_with_label(v, l) > 0)
                && required_in
                    .iter()
                    .all(|&l| graph.in_degree_with_label(v, l) > 0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
    use qgp_graph::GraphBuilder;
    use qgp_parallel::{dpar, PartitionConfig};

    /// A marketing graph where some users both satisfy the antecedent
    /// ("all followees recommend the phone") and bought it, some satisfy the
    /// antecedent but have no purchase data, and some bought without the
    /// antecedent.
    fn marketing_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let phone = b.add_node("Redmi 2A");
        let mut users = Vec::new();
        // 4 users whose followees all recommend; the first two also bought.
        for i in 0..4 {
            let u = b.add_node("person");
            users.push(u);
            let friends = b.add_nodes("person", 2);
            for &f in &friends {
                b.add_edge(u, f, "follow").unwrap();
                b.add_edge(f, phone, "recom").unwrap();
            }
            if i < 2 {
                b.add_edge(u, phone, "buy").unwrap();
            } else if i == 2 {
                // Bought something else: still has `buy` data, so it is a
                // true negative under LCWA.
                let other = b.add_node("album");
                b.add_edge(u, other, "buy").unwrap();
            }
            // i == 3 has no buy edge at all: unknown under LCWA.
        }
        // One user who bought the phone but follows a non-recommender.
        let outsider = b.add_node("person");
        users.push(outsider);
        let f = b.add_node("person");
        b.add_edge(outsider, f, "follow").unwrap();
        b.add_edge(f, phone, "bad_rating").unwrap();
        b.add_edge(outsider, phone, "buy").unwrap();
        (b.build(), users)
    }

    fn phone_rule() -> Qgar {
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let z = b.node("person");
        let phone = b.node("Redmi 2A");
        b.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
        b.edge(z, phone, "recom");
        b.focus(xo);
        let antecedent = b.build().unwrap();

        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let phone = b.node("Redmi 2A");
        b.edge(xo, phone, "buy");
        b.focus(xo);
        let consequent = b.build().unwrap();
        Qgar::new("buy-phone", antecedent, consequent).unwrap()
    }

    #[test]
    fn support_and_confidence_follow_the_lcwa_definition() {
        let (g, users) = marketing_graph();
        let rule = phone_rule();
        let eval = evaluate_rule(&g, &rule, &MatchConfig::qmatch()).unwrap();

        // Antecedent: users 0..4 (all followees recommend); outsider fails.
        assert_eq!(eval.antecedent_matches.len(), 4);
        // Rule matches: users 0 and 1 (antecedent + bought the phone).
        assert_eq!(eval.support, 2);
        assert!(eval.rule_matches.contains(&users[0]));
        assert!(eval.rule_matches.contains(&users[1]));
        // LCWA: user 3 has no `buy` edge at all, so it is excluded from the
        // denominator; users 0, 1, 2 remain.
        assert_eq!(eval.lcwa_candidates, 3);
        assert!((eval.confidence - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn naive_confidence_would_be_lower_than_lcwa_confidence() {
        // The whole point of LCWA (Example 11): nodes with missing data do
        // not count as negatives.
        let (g, _) = marketing_graph();
        let rule = phone_rule();
        let eval = evaluate_rule(&g, &rule, &MatchConfig::qmatch()).unwrap();
        let naive = eval.support as f64 / eval.antecedent_matches.len() as f64;
        assert!(eval.confidence > naive);
    }

    #[test]
    fn entity_identification_respects_the_threshold() {
        let (g, _) = marketing_graph();
        let rule = phone_rule();
        let low = identify_entities(&g, &rule, 0.5, &MatchConfig::qmatch()).unwrap();
        assert_eq!(low.len(), 2);
        let high = identify_entities(&g, &rule, 0.9, &MatchConfig::qmatch()).unwrap();
        assert!(high.is_empty());
        assert!(matches!(
            identify_entities(&g, &rule, 0.0, &MatchConfig::qmatch()),
            Err(RuleError::InvalidConfidenceThreshold(_))
        ));
    }

    #[test]
    fn parallel_evaluation_agrees_with_sequential() {
        let (g, _) = marketing_graph();
        let rule = phone_rule();
        let sequential = evaluate_rule(&g, &rule, &MatchConfig::qmatch()).unwrap();
        let partition = dpar(&g, &PartitionConfig::new(3, rule.radius()));
        let parallel =
            evaluate_rule_parallel(&g, &rule, &partition, &ParallelConfig::pqmatch(2)).unwrap();
        assert_eq!(parallel.rule_matches, sequential.rule_matches);
        assert_eq!(parallel.support, sequential.support);
        assert!((parallel.confidence - sequential.confidence).abs() < 1e-9);
    }

    #[test]
    fn negative_consequent_rules_are_supported() {
        // "users whose followees all recommend the phone do NOT follow the
        // outsider" — contrived, but exercises a negated consequent.
        let (g, _) = marketing_graph();
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let z = b.node("person");
        let phone = b.node("Redmi 2A");
        b.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
        b.edge(z, phone, "recom");
        b.focus(xo);
        let antecedent = b.build().unwrap();

        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let y = b.node("album");
        b.negated_edge(xo, y, "buy");
        b.focus(xo);
        let consequent = b.build().unwrap();
        let rule = Qgar::new("no-album", antecedent, consequent).unwrap();
        let eval = evaluate_rule(&g, &rule, &MatchConfig::qmatch()).unwrap();
        assert!(eval.support <= eval.antecedent_matches.len());
        assert!(rule.is_negative());
    }

    #[test]
    fn parallel_radius_mismatch_surfaces_as_rule_error() {
        let (g, _) = marketing_graph();
        let rule = phone_rule();
        let partition = dpar(&g, &PartitionConfig::new(2, 1));
        assert!(matches!(
            evaluate_rule_parallel(&g, &rule, &partition, &ParallelConfig::pqmatch(1)),
            Err(RuleError::Parallel(_))
        ));
    }
}
