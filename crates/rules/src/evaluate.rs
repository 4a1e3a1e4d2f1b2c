//! Evaluation of QGARs: support, confidence under the local closed-world
//! assumption, and quantified entity identification (Section 6 and
//! Appendix C of the paper).
//!
//! Both patterns of a rule are evaluated through the prepared-query engine
//! ([`qgp_core::engine::Engine`]), and the two sorted answers are combined
//! by a merge.  The miner reaches the same [`RuleEvaluation`] without
//! re-matching: it counts each seed feature once and filters that count
//! for every rung of its strengthening ladder.

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::{MatchConfig, MatchStats};
use qgp_core::pattern::{Pattern, PatternEdgeId};
use qgp_graph::{Graph, LabelId, NodeId};
use qgp_parallel::DHopPartition;
use qgp_runtime::Runtime;

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
    /// Matcher statistics of the engine runs behind the two answers.  For a
    /// mined rule these are the exact counts of its two seed features,
    /// which every rule built on those features shares.
    pub stats: MatchStats,
}

impl RuleEvaluation {
    /// `R(x_o, G)`, support and confidence from the two sorted answers and
    /// `|Q1(x_o, G) ∩ X_o|`.
    pub(crate) fn from_answers(
        antecedent_matches: Vec<NodeId>,
        consequent_matches: Vec<NodeId>,
        lcwa_candidates: usize,
        stats: MatchStats,
    ) -> Self {
        let mut q2 = consequent_matches.iter().peekable();
        let mut rule_matches = antecedent_matches.clone();
        rule_matches.retain(|v| {
            while q2.next_if(|&u| u < v).is_some() {}
            q2.peek() == Some(&v)
        });
        let support = rule_matches.len();
        RuleEvaluation {
            antecedent_matches,
            consequent_matches,
            rule_matches,
            support,
            confidence: Self::confidence(support, lcwa_candidates),
            lcwa_candidates,
            stats,
        }
    }

    /// LCWA confidence: `support / lcwa_candidates`, and `0` when no
    /// antecedent match has data about the consequent.
    pub(crate) fn confidence(support: usize, lcwa_candidates: usize) -> f64 {
        if lcwa_candidates == 0 {
            0.0
        } else {
            support as f64 / lcwa_candidates as f64
        }
    }
}

/// `garMatch`: sequential evaluation of a QGAR (Corollary 11(1)).
///
/// Both patterns are decided through the engine's aggregate-pushdown path:
/// identical matched foci, no child-match materialization (compare
/// [`RuleEvaluation::stats`]'s `threshold_exits` against `verifications`).
pub fn evaluate_rule(
    graph: &Graph,
    rule: &Qgar,
    config: &MatchConfig,
) -> Result<RuleEvaluation, RuleError> {
    let opts = ExecOptions::sequential().with_config(*config);
    evaluate_with(graph, rule, opts)
}

/// `dgarMatch`: parallel evaluation of a QGAR over a d-hop preserving
/// partition (Corollary 11(2)), with the fragment tasks on `runtime`.  The
/// partition's `d` must be at least the rule's radius.  Both patterns run
/// through the counting path, like [`evaluate_rule`].
pub fn evaluate_rule_parallel(
    graph: &Graph,
    rule: &Qgar,
    partition: &DHopPartition,
    config: &MatchConfig,
    runtime: &Runtime,
) -> Result<RuleEvaluation, RuleError> {
    let opts = ExecOptions::partitioned_on(partition.fragments(), partition.d(), runtime)
        .with_config(*config);
    evaluate_with(graph, rule, opts)
}

/// Runs both patterns of `rule` on `graph`.  Support and confidence are
/// *counting* aggregates, so every focus candidate is decided through the
/// aggregate-pushdown work profile ([`ExecOptions::count_only`]): the
/// matched foci are those of an enumerating run, but no child match is ever
/// materialized — the per-candidate saving Exp-3 support counting lives on.
fn evaluate_with(
    graph: &Graph,
    rule: &Qgar,
    opts: ExecOptions,
) -> Result<RuleEvaluation, RuleError> {
    let engine = Engine::new(graph);
    let answer = |p| engine.prepare(p)?.run(opts.clone().count_only());
    let (q1, q2) = (answer(rule.antecedent())?, answer(rule.consequent())?);
    let mut stats = q1.stats;
    stats += q2.stats;
    let lcwa = lcwa_candidates(graph, rule.consequent(), &q1.matches);
    let eval = RuleEvaluation::from_answers(q1.matches, q2.matches, lcwa, stats);
    Ok(eval)
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
    let identified = (eval.confidence >= eta).then_some(eval.rule_matches);
    Ok(identified.unwrap_or_default())
}

/// `|Q1(x_o, G) ∩ X_o|`, where `X_o` (Appendix C) is the graph nodes
/// carrying the consequent's focus label that have, for every
/// focus-incident edge of the consequent, at least one incident graph edge
/// with the same label (regardless of the endpoint): the nodes about which
/// the graph actually records the relationship the rule predicts.
fn lcwa_candidates(graph: &Graph, consequent: &Pattern, q1: &[NodeId]) -> usize {
    let labels = graph.labels();
    let focus = consequent.focus();
    let resolve = |edges: &[PatternEdgeId]| -> Option<Vec<LabelId>> {
        edges
            .iter()
            .map(|&e| labels.edge_label(&consequent.edge(e).label))
            .collect()
    };
    let (Some(focus_label), Some(out), Some(inn)) = (
        labels.node_label(&consequent.node(focus).label),
        resolve(consequent.out_edges_of(focus)),
        resolve(consequent.in_edges_of(focus)),
    ) else {
        return 0;
    };
    q1.iter()
        .filter(|&&v| {
            graph.node_label(v) == focus_label
                && out.iter().all(|&l| graph.out_degree_with_label(v, l) > 0)
                && inn.iter().all(|&l| graph.in_degree_with_label(v, l) > 0)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
    use qgp_core::MatchError;
    use qgp_graph::GraphBuilder;
    use qgp_parallel::{dpar_with, PartitionConfig};

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
        let rt = Runtime::new(2);
        let partition = dpar_with(&g, &PartitionConfig::new(3, rule.radius()), &rt);
        let config = MatchConfig::qmatch();
        let parallel = evaluate_rule_parallel(&g, &rule, &partition, &config, &rt).unwrap();
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
        assert!(!rule.consequent().is_positive());
    }

    #[test]
    fn parallel_radius_mismatch_surfaces_as_rule_error() {
        let (g, _) = marketing_graph();
        let rule = phone_rule();
        let rt = Runtime::new(1);
        let partition = dpar_with(&g, &PartitionConfig::new(2, 1), &rt);
        assert!(matches!(
            evaluate_rule_parallel(&g, &rule, &partition, &MatchConfig::qmatch(), &rt),
            Err(RuleError::Match(MatchError::RadiusExceedsPartition {
                radius: 2,
                partition_d: 1
            }))
        ));
    }

    #[test]
    fn a_panicking_sequential_decision_is_a_match_error() {
        // Sequential decisions are executor tasks too: an injected panic
        // must reach the caller as the task error, not as a bad pattern.
        use qgp_runtime::faults::{self, FaultPlan};
        let (g, _) = marketing_graph();
        let rule = phone_rule();
        let err = {
            let _armed = faults::install(FaultPlan::new(5, 1.0));
            evaluate_rule(&g, &rule, &MatchConfig::qmatch())
        };
        match err {
            Err(RuleError::Match(MatchError::TaskPanicked(e))) => {
                assert!(e.payload.contains("injected fault"), "{e}");
            }
            other => panic!("expected Match(TaskPanicked), got {other:?}"),
        }
        assert_eq!(
            evaluate_rule(&g, &rule, &MatchConfig::qmatch())
                .unwrap()
                .support,
            2
        );
    }
}
