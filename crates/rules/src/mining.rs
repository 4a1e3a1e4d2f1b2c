//! A simple QGAR miner, reproducing the procedure used in Exp-3 of the
//! paper: start from frequent single-edge "GPAR-like" seed rules, then
//! strengthen the antecedent with counting quantifiers as long as the
//! confidence stays above the threshold η.
//!
//! The paper bootstraps its seeds from the GPAR miner of its reference
//! \[16\] (Fan et al., *Association rules with graph patterns*); this module
//! substitutes a frequent-feature seed generator: the most frequent
//! (edge label, target label) pairs out of focus-labelled nodes.

use std::cmp::Reverse;

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::{MatchConfig, MatchStats};
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_core::MatchError;
use qgp_graph::{Graph, LabelId, NodeId};
use qgp_runtime::{CancelToken, Runtime};

use crate::error::RuleError;
use crate::evaluate::RuleEvaluation;
use crate::rule::Qgar;

/// Configuration of the miner.
#[derive(Clone)]
pub struct MiningConfig {
    /// Node label of the query focus (e.g. `"person"` in a social graph).
    pub focus_label: String,
    /// Minimum support `|R(x_o, G)|` a rule must reach to be reported.
    pub min_support: usize,
    /// Confidence threshold η.
    pub confidence_threshold: f64,
    /// Number of most-frequent focus-incident features considered as seeds.
    pub max_seed_features: usize,
    /// Maximum number of rules returned.
    pub max_rules: usize,
    /// Ratio-aggregate step (in percentage points) used when strengthening
    /// antecedent quantifiers; the paper uses 10%.
    pub ratio_step: f64,
    /// Matcher configuration used for rule evaluation.
    pub match_config: MatchConfig,
}

// Hand-written only to keep the rendering byte-identical to the one the
// repository benchmark hashes into its pinned input fingerprint
// (`benchmark/fingerprints.txt`, mine_rules): the last line is what the
// removed always-`true` pushdown switch used to print.  Replace with
// `#[derive(Debug)]` when the benchmark is next re-pinned.
impl std::fmt::Debug for MiningConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningConfig")
            .field("focus_label", &self.focus_label)
            .field("min_support", &self.min_support)
            .field("confidence_threshold", &self.confidence_threshold)
            .field("max_seed_features", &self.max_seed_features)
            .field("max_rules", &self.max_rules)
            .field("ratio_step", &self.ratio_step)
            .field("match_config", &self.match_config)
            .field("count_pushdown", &true)
            .finish()
    }
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            focus_label: "person".to_owned(),
            min_support: 5,
            confidence_threshold: 0.5,
            max_seed_features: 8,
            max_rules: 20,
            ratio_step: 10.0,
            match_config: MatchConfig::qmatch(),
        }
    }
}

/// A mined rule with its evaluation on the graph it was mined from.
#[derive(Debug, Clone)]
pub struct MinedRule {
    /// The rule.
    pub rule: Qgar,
    /// Support, confidence and matches on the mining graph.
    pub evaluation: RuleEvaluation,
    /// The strongest ratio aggregate (in %) the antecedent could be
    /// strengthened to while staying above the confidence threshold; `None`
    /// when the plain existential antecedent was already the best.
    pub strengthened_to: Option<f64>,
}

/// Work counters of one mining run (see [`mine_qgars_with_report`]).
#[derive(Debug, Clone, Default)]
pub struct MiningReport {
    /// Number of (antecedent, consequent) seed pairs explored.
    pub pairs_explored: usize,
    /// Engine executions the run made: one count per seed feature, whatever
    /// the number of pairs and ladder rungs.
    pub engine_runs: usize,
}

/// Mines QGARs from a graph (the Exp-3 procedure) on `runtime`, returning
/// the rules with the run's work counters (what the `mine_rules` benchmark
/// workload records).
///
/// 1. Frequent focus-incident edge features `x_o -e-> y` become candidate
///    antecedent and consequent building blocks (the "GPAR seeds").
/// 2. Every (antecedent feature, consequent feature) pair with sufficient
///    support and confidence forms a seed rule.
/// 3. The antecedent quantifier of each seed is strengthened from `≥ 1` to
///    ratio aggregates in steps of `ratio_step`, keeping the strongest
///    quantifier whose confidence is still ≥ η (support is anti-monotonic,
///    so it can only drop while strengthening — Lemma 10).
///
/// Every pattern involved is a seed feature with some quantifier on its one
/// edge, so each feature is matched once: every accepted focus `v` has a
/// witness count `c` and `|Mₑ(v)|`, and the rung `≥ p%` accepts exactly the
/// foci with `c / |Mₑ(v)| ≥ p%`.  The counts are
/// scheduled as one task per seed feature on the shared work-stealing
/// executor; steps 2 and 3 are then merges and arithmetic over them, with
/// no further matching.  The mined output is deterministic and independent
/// of the thread count.
pub fn mine_qgars_with_report(
    graph: &Graph,
    config: &MiningConfig,
    runtime: &Runtime,
) -> Result<(Vec<MinedRule>, MiningReport), RuleError> {
    let Some(focus_label) = graph.labels().node_label(&config.focus_label) else {
        return Ok((Vec::new(), MiningReport::default()));
    };
    let seeds = seed_features(graph, focus_label, config.max_seed_features);
    let rungs = rungs(config.ratio_step);
    // Fault-isolating map: a panic inside any seed count (including an
    // injected one) surfaces as `RuleError::Match` instead of unwinding
    // through the miner, and the runtime stays reusable.
    let engine = Engine::new(graph);
    let count = |_: &mut (), i| count_seed(&engine, config, &seeds[i], &rungs);
    let outcome = runtime
        .try_map_with_cancel(seeds.len(), &CancelToken::new(), || (), count)
        .map_err(|e| RuleError::Match(MatchError::TaskPanicked(e)))?;
    // The token never fires, so every slot is `Some`.
    let counts: Vec<SeedCount> = outcome.outputs.into_iter().flatten().flatten().collect();
    let mut mined: Vec<MinedRule> = (counts.iter())
        .flat_map(|a| counts.iter().map(move |c| (a, c)))
        .filter(|(a, c)| !std::ptr::eq(*a, *c))
        .filter_map(|(a, c)| mine_pair(graph, config, &rungs, a, c))
        .collect();
    let report = MiningReport {
        pairs_explored: seeds.len() * seeds.len().saturating_sub(1),
        engine_runs: seeds.len(),
    };

    // Highest-confidence rules first, ties broken by support; the sort is
    // stable over the pair order.
    mined.sort_by(|a, b| {
        let (a, b) = (&a.evaluation, &b.evaluation);
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.cmp(&a.support))
    });
    mined.truncate(config.max_rules);
    Ok((mined, report))
}

/// A frequent edge feature incident to the focus label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeedFeature {
    edge_label: String,
    target_label: String,
    frequency: usize,
}

/// Tallies the out-edges of focus-labelled nodes by (edge, target) label
/// in a dense table; the alphabets are tiny.
fn seed_features(graph: &Graph, focus_label: LabelId, max: usize) -> Vec<SeedFeature> {
    let labels = graph.labels();
    let targets = labels.node_label_count();
    let mut tally = vec![0; labels.edge_label_count() * targets];
    for &v in graph.nodes_with_label(focus_label) {
        for e in graph.out_edges(v) {
            tally[e.label.index() * targets + graph.node_label(e.to).index()] += 1;
        }
    }
    let label = |i: usize| LabelId(i as u32);
    let mut features: Vec<SeedFeature> = (tally.into_iter().enumerate())
        .filter(|&(_, count)| count > 0)
        .filter_map(|(i, count)| {
            Some(SeedFeature {
                edge_label: labels.edge_label_name(label(i / targets))?.to_owned(),
                target_label: labels.node_label_name(label(i % targets))?.to_owned(),
                frequency: count,
            })
        })
        .collect();
    features.sort(); // by name, so that the stable sort below breaks ties
    features.sort_by_key(|f| Reverse(f.frequency));
    features.truncate(max);
    features
}

/// The pattern `x_o -e-> y` of a seed feature, with quantifier `q` on `e`.
/// With the existential quantifier it is both a seed rule's antecedent and
/// the consequent of every rule predicting the feature.
fn seed_pattern(focus_label: &str, seed: &SeedFeature, q: CountingQuantifier) -> Option<Pattern> {
    let mut b = PatternBuilder::new();
    let xo = b.node_named(focus_label, "xo");
    let target = b.node(&seed.target_label);
    b.quantified_edge(xo, target, &seed.edge_label, q);
    b.focus(xo);
    b.build().ok()
}

/// The strengthening ladder in percent: rung `k` is `k · ratio_step` (the
/// step at least one point), rounded to a millionth of a point so that a
/// fractional step names `6.6%`, not `6.6000000000000005%`.
fn rungs(ratio_step: f64) -> Vec<f64> {
    let step = ratio_step.max(1.0);
    (1..)
        .map(|k| (k as f64 * step * 1e6).round() / 1e6)
        .take_while(|&pct| pct <= 100.0)
        .collect()
}

/// One seed feature, matched once.
struct SeedCount<'a> {
    seed: &'a SeedFeature,
    /// `Q(x_o, G)` of the existential seed pattern, ascending, each focus
    /// with its level: the number of leading ladder rungs it satisfies.
    /// Rung `k` of the antecedent accepts exactly the foci of level `≥ k`.
    foci: Vec<(NodeId, u8)>,
    /// The feature's edge label: `X_o` of a rule predicting the feature is
    /// the focus-labelled nodes with at least one out-edge carrying it.
    edge: LabelId,
    stats: MatchStats,
}

impl SeedCount<'_> {
    /// The foci of level `≥ k`: rung `k`'s answer (the seed pattern's at 0).
    fn answer(&self, k: usize) -> Vec<NodeId> {
        let graded = self.foci.iter().filter(|f| usize::from(f.1) >= k);
        graded.map(|f| f.0).collect()
    }
}

/// Matches a seed feature once and grades every accepted focus against
/// the ladder.  The engine decides `x_o -e-> y` by the distinct-child count
/// `c = |out(v, e) ∩ C(y) \ {v}|`, where `C(y)` is the `y`-labelled nodes
/// with an `e` in-edge, and accepts `v` iff `c ≥ 1 ∧ f(e)(c, |Mₑ(v)|)`: the
/// existential answer and each focus's `(c, |Mₑ(v)|)`, read off its
/// `e`-children, decide every rung.
fn count_seed<'a>(
    engine: &Engine,
    config: &MiningConfig,
    seed: &'a SeedFeature,
    rungs: &[f64],
) -> Option<SeedCount<'a>> {
    let graph = engine.graph();
    let edge = graph.labels().edge_label(&seed.edge_label)?;
    let target = graph.labels().node_label(&seed.target_label)?;
    let pattern = seed_pattern(&config.focus_label, seed, CountingQuantifier::existential())?;
    let opts = ExecOptions::sequential().with_config(config.match_config);
    let prepared = engine.prepare(&pattern).ok()?;
    let answer = prepared.count(opts.count_only()).ok()?;
    let grade = |v: NodeId| {
        let children = graph.out_neighbors_with_label_slice(v, edge);
        // Distinct: a graph holds no two `(v, u, e)` edges.
        let witness = |&&u: &&NodeId| u != v && graph.node_label(u) == target;
        let c = children.iter().filter(witness).count();
        let holds = |p: &&f64| CountingQuantifier::at_least_percent(**p).check(c, children.len());
        (v, rungs.iter().take_while(holds).count() as u8)
    };
    let foci = answer.matches().map(grade).collect();
    Some(SeedCount {
        seed,
        foci,
        edge,
        stats: answer.stats,
    })
}

/// Evaluates the seed rule `antecedent ⇒ consequent` and its whole
/// strengthening ladder in one merge of the two counts, then walks the
/// rungs in order and stops at the first that fails `min_support` or η.
/// Only the winning rung is built into a [`Qgar`] with its evaluation.
fn mine_pair(
    graph: &Graph,
    config: &MiningConfig,
    rungs: &[f64],
    antecedent: &SeedCount,
    consequent: &SeedCount,
) -> Option<MinedRule> {
    // Per level: antecedent foci in R(x_o, G), and in X_o.
    let (mut support, mut lcwa) = (vec![0; rungs.len() + 1], vec![0; rungs.len() + 1]);
    let mut q2 = consequent.foci.iter().map(|&(v, _)| v).peekable();
    for &(v, level) in &antecedent.foci {
        while q2.next_if(|&u| u < v).is_some() {}
        support[level as usize] += usize::from(q2.peek() == Some(&v));
        lcwa[level as usize] += usize::from(graph.out_degree_with_label(v, consequent.edge) > 0);
    }
    // Rung k keeps the foci of level ≥ k.
    let at = |k: usize| -> (usize, usize) { (support[k..].iter().sum(), lcwa[k..].iter().sum()) };
    let holds = |(s, l)| {
        s >= config.min_support && RuleEvaluation::confidence(s, l) >= config.confidence_threshold
    };
    // The last rung that holds, if the seed rule itself does.
    let passing = (0..=rungs.len()).take_while(|&k| holds(at(k))).count();
    let best = passing.checked_sub(1)?;
    let strengthened_to = best.checked_sub(1).map(|k| rungs[k]);
    let existential = CountingQuantifier::existential();
    let quantifier = strengthened_to.map_or(existential, CountingQuantifier::at_least_percent);
    let prefix = strengthened_to.map_or(String::new(), |pct| format!(">= {pct}%"));
    let (a, c) = (antecedent.seed, consequent.seed);
    let name = format!(
        "{}{prefix}({}) => {}({})",
        a.edge_label, a.target_label, c.edge_label, c.target_label
    );
    let p1 = seed_pattern(&config.focus_label, a, quantifier)?;
    let p2 = seed_pattern(&config.focus_label, c, existential)?;
    let rule = Qgar::new(name, p1, p2).ok()?;
    let mut stats = antecedent.stats;
    stats += consequent.stats;
    let (q1, q2) = (antecedent.answer(best), consequent.answer(0));
    let evaluation = RuleEvaluation::from_answers(q1, q2, at(best).1, stats);
    Some(MinedRule {
        rule,
        evaluation,
        strengthened_to,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_rule;
    use qgp_core::matching::reference::evaluate_reference;
    use qgp_datasets::{pokec_like, SocialConfig};
    use qgp_graph::GraphBuilder;

    /// The mined rules alone.
    fn mine(graph: &Graph, config: &MiningConfig, runtime: &Runtime) -> Vec<MinedRule> {
        mine_qgars_with_report(graph, config, runtime).unwrap().0
    }

    /// A graph with a built-in regularity: users who follow fans of an album
    /// tend to buy that album.
    fn regular_graph(users: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let album = b.add_node("album");
        let club = b.add_node("music club");
        for i in 0..users {
            let u = b.add_node("person");
            b.add_edge(u, club, "in").unwrap();
            let friends = b.add_nodes("person", 3);
            for &f in &friends {
                b.add_edge(u, f, "follow").unwrap();
                b.add_edge(f, album, "like").unwrap();
            }
            // 80% of users buy the album; the rest explicitly buy nothing but
            // still have purchase data via a different item.
            if i % 5 != 0 {
                b.add_edge(u, album, "buy").unwrap();
            } else {
                let other = b.add_node("album");
                b.add_edge(u, other, "buy").unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn miner_finds_the_planted_regularity() {
        let g = regular_graph(20);
        let config = MiningConfig {
            min_support: 3,
            confidence_threshold: 0.5,
            ..MiningConfig::default()
        };
        let (rules, report) = mine_qgars_with_report(&g, &config, Runtime::global()).unwrap();
        assert!(!rules.is_empty(), "the planted rule should be discovered");
        // One engine run per seed feature (in, follow, like, buy).
        assert_eq!((report.engine_runs, report.pairs_explored), (4, 12));
        // The highest-confidence rules involve buying the album.
        let top = &rules[0];
        assert!(top.evaluation.confidence >= 0.5);
        assert!(top.evaluation.support >= 3);
        // Rules are sorted by confidence.
        for w in rules.windows(2) {
            assert!(w[0].evaluation.confidence >= w[1].evaluation.confidence);
        }
        // At least one rule mentions the buy consequent.
        assert!(rules.iter().any(|r| r.rule.name().contains("buy")));
    }

    #[test]
    fn injected_fault_surfaces_as_parallel_error_and_miner_retries_clean() {
        let g = regular_graph(10);
        let config = MiningConfig {
            min_support: 2,
            confidence_threshold: 0.3,
            ..MiningConfig::default()
        };
        let rt = Runtime::new(2);
        let baseline = mine(&g, &config, &rt);
        {
            let _armed = qgp_runtime::faults::install(qgp_runtime::faults::FaultPlan::new(21, 1.0));
            let err = mine_qgars_with_report(&g, &config, &rt).unwrap_err();
            match err {
                RuleError::Match(MatchError::TaskPanicked(e)) => {
                    assert!(
                        e.index.is_some(),
                        "a seed count panicked, not a worker: {e}"
                    );
                    assert!(e.payload.contains("injected fault"), "{e}");
                }
                other => panic!("expected RuleError::Match(TaskPanicked), got {other:?}"),
            }
        }
        // Disarmed, the same runtime mines the same rules.
        let again = mine(&g, &config, &rt);
        assert_eq!(again.len(), baseline.len());
        for (a, b) in again.iter().zip(&baseline) {
            assert_eq!(a.rule.name(), b.rule.name());
            assert_eq!(a.evaluation.support, b.evaluation.support);
        }
    }

    #[test]
    fn unknown_focus_label_yields_no_rules() {
        let g = regular_graph(5);
        let config = MiningConfig {
            focus_label: "robot".to_owned(),
            ..MiningConfig::default()
        };
        assert!(mine(&g, &config, Runtime::global()).is_empty());
    }

    #[test]
    fn high_support_threshold_filters_everything_out() {
        let g = regular_graph(6);
        let config = MiningConfig {
            min_support: 1000,
            ..MiningConfig::default()
        };
        assert!(mine(&g, &config, Runtime::global()).is_empty());
    }

    #[test]
    fn mined_rules_are_identical_for_every_thread_count() {
        let g = regular_graph(15);
        let config = MiningConfig {
            min_support: 2,
            confidence_threshold: 0.3,
            ..MiningConfig::default()
        };
        let reference = mine(&g, &config, &Runtime::new(1));
        assert!(!reference.is_empty());
        for threads in [2, 4] {
            let (rules, report) =
                mine_qgars_with_report(&g, &config, &Runtime::new(threads)).unwrap();
            assert_eq!(rules.len(), reference.len(), "threads = {threads}");
            for (a, b) in rules.iter().zip(&reference) {
                assert_eq!(a.rule.name(), b.rule.name());
                assert_eq!(a.evaluation.support, b.evaluation.support);
                assert_eq!(a.strengthened_to, b.strengthened_to);
            }
            assert!(report.pairs_explored > 0);
        }
    }

    #[test]
    fn mined_support_and_confidence_match_enumerating_runs() {
        // The miner decides every candidate by counting; an enumerating
        // engine run of each rule's two patterns must see the same foci.
        let g = regular_graph(15);
        let config = MiningConfig {
            min_support: 2,
            confidence_threshold: 0.3,
            ..MiningConfig::default()
        };
        let rules = mine(&g, &config, Runtime::global());
        assert!(!rules.is_empty());
        let engine = Engine::new(&g);
        let enumerate = |pattern| {
            let prepared = engine.prepare(pattern).unwrap();
            prepared.run(ExecOptions::sequential()).unwrap().matches
        };
        for mined in &rules {
            let eval = &mined.evaluation;
            let q1 = enumerate(mined.rule.antecedent());
            let q2 = enumerate(mined.rule.consequent());
            assert_eq!(eval.antecedent_matches, q1, "{}", mined.rule.name());
            assert_eq!(eval.consequent_matches, q2, "{}", mined.rule.name());
            let support = q1.iter().filter(|v| q2.contains(v)).count();
            assert_eq!(eval.support, support, "{}", mined.rule.name());
            let confidence = support as f64 / eval.lcwa_candidates as f64;
            assert!((eval.confidence - confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn max_rules_truncates_the_result() {
        let g = regular_graph(20);
        let config = MiningConfig {
            min_support: 1,
            confidence_threshold: 0.1,
            max_rules: 2,
            ..MiningConfig::default()
        };
        let rules = mine(&g, &config, Runtime::global());
        assert!(rules.len() <= 2);
    }

    /// Every rung of every seed feature: the foci the count grades `≥ k`
    /// are exactly a fresh engine run's and the reference's answer to
    /// `x_o -e-> y` under `≥ p%`.  Then every seed pair's mined rule is
    /// what evaluating it afresh gives.
    fn assert_ladder_matches_the_oracles(g: &Graph) -> Vec<MinedRule> {
        let config = MiningConfig {
            min_support: 1,
            confidence_threshold: 0.1,
            max_rules: usize::MAX,
            ..MiningConfig::default()
        };
        let seeds = seed_features(g, g.labels().node_label("person").unwrap(), usize::MAX);
        let (engine, rungs) = (Engine::new(g), rungs(config.ratio_step));
        for seed in &seeds {
            let count = count_seed(&engine, &config, seed, &rungs).unwrap();
            for (k, &pct) in rungs.iter().enumerate() {
                let graded = count.answer(k + 1);
                let q = CountingQuantifier::at_least_percent(pct);
                let pattern = seed_pattern("person", seed, q).unwrap();
                let fresh = engine.prepare(&pattern).unwrap();
                let fresh = fresh.run(ExecOptions::sequential()).unwrap().matches;
                let name = format!("{}>= {pct}%({})", seed.edge_label, seed.target_label);
                assert_eq!(graded, fresh, "{name}");
                assert_eq!(graded, evaluate_reference(g, &pattern), "{name}");
            }
        }
        let rules = mine(g, &config, Runtime::global());
        assert!(!rules.is_empty());
        for mined in &rules {
            let fresh = evaluate_rule(g, &mined.rule, &MatchConfig::qmatch()).unwrap();
            let (a, b, name) = (&mined.evaluation, fresh, mined.rule.name());
            assert_eq!(a.rule_matches, b.rule_matches, "{name}");
            assert_eq!(a.lcwa_candidates, b.lcwa_candidates, "{name}");
            assert_eq!(a.confidence, b.confidence, "{name}");
        }
        rules
    }

    #[test]
    fn graded_seed_counts_answer_every_rung() {
        assert_ladder_matches_the_oracles(&regular_graph(15));
        assert_ladder_matches_the_oracles(&pokec_like(&SocialConfig::with_persons(300)));
        // A witness is a child `≠ v` with `y`'s label; `|Mₑ(v)|` counts every
        // `e`-child.  `follow`s: p0 has a self-loop and 2 witnesses of 4; p1
        // only a self-loop; p2 1 of 3; p3 3 of 4; p4 1 of 1.  Edges with the
        // same label and endpoints are rejected, so parallel edges are `like`s.
        let mut b = GraphBuilder::new();
        let mut v = b.add_nodes("person", 5);
        v.extend(b.add_nodes("page", 2));
        let follows: [&[usize]; 5] = [&[0, 1, 2, 5], &[1], &[0, 5, 6], &[3, 0, 1, 2], &[0]];
        for (from, children) in follows.iter().enumerate() {
            for &to in *children {
                b.add_edge(v[from], v[to], "follow").unwrap();
            }
        }
        b.add_edge(v[0], v[1], "like").unwrap();
        b.add_edge(v[4], v[0], "like").unwrap();
        let rules = assert_ladder_matches_the_oracles(&b.build());
        let strengthened: Vec<_> = rules.iter().filter_map(|r| r.strengthened_to).collect();
        assert!(strengthened.contains(&50.0) && strengthened.contains(&20.0));
    }

    #[test]
    fn rungs_are_multiples_of_the_step_without_drift() {
        // Summing 1.1 seven times gives 7.699999999999999, and 6 × 1.1 is
        // 6.6000000000000005; rung names carry the decimal the step has.
        let r = rungs(1.1);
        assert_eq!((r.len(), r[5], r[6]), (90, 6.6, 7.7));
        assert!(r.iter().all(|p| format!("{p}").len() <= 4));
        assert_eq!(rungs(0.1).len(), 100, "the step is at least one point");
    }
}
