//! `mine_rules` — the paper's Exp-3: QGAR mining over a frozen graph.
//!
//! Chosen because it is the only user of `qgp-rules` and of the
//! `engine::count` pushdown, prepares hundreds of short-lived queries per
//! op (the cold compile path) and hands the executor skewed tasks (rule
//! ladders stop at different rungs).

use qgp_core::matching::reference::evaluate_reference;
use qgp_graph::Graph;
use qgp_rules::{mine_qgars_with_report, MinedRule, MiningConfig};
use qgp_runtime::Runtime;

use crate::harness::{Ctx, Plan, Recorder, Spec, Workload};
use crate::inputs::{fingerprint_graph, Dataset, Family, Fingerprint, Fnv};

/// Min support × confidence threshold of the configs the ops cycle
/// through: 5 / 20 × 0.5 / 0.7, plus the midpoint.  Five, not four: the
/// confidence threshold splits the configs into a cheaper and a dearer
/// pair, and with four equally frequent configs the p50 rank sits exactly
/// on the border between the pairs; with the midpoint config it sits in
/// the middle of that config's own cluster of latencies.
const CONFIGS: [(usize, f64); 5] = [(5, 0.5), (5, 0.7), (10, 0.6), (20, 0.5), (20, 0.7)];

pub struct MineRules {
    graph: Graph,
    configs: Vec<MiningConfig>,
    block_steps: usize,
    /// `(config, rules hash)` of every timed op that returned rules.
    mined: Vec<(usize, u64)>,
}

pub fn configs() -> Vec<MiningConfig> {
    CONFIGS
        .iter()
        .map(|&(min_support, confidence_threshold)| MiningConfig {
            min_support,
            confidence_threshold,
            ..MiningConfig::default()
        })
        .collect()
}

/// Hash of a mined rule list: names, supports, confidences and the
/// strengthened ratios, in order.
fn hash_rules(rules: &[MinedRule]) -> u64 {
    let mut h = Fnv::new();
    h.u64(rules.len() as u64);
    for r in rules {
        h.bytes(r.rule.name().as_bytes());
        h.u64(r.evaluation.support as u64);
        h.u64(r.evaluation.confidence.to_bits());
        h.u64(r.strengthened_to.map_or(u64::MAX, f64::to_bits));
    }
    h.finish()
}

impl Workload for MineRules {
    fn plan(spec: &Spec) -> Plan {
        Plan {
            dataset: Dataset {
                family: Family::Pokec,
                persons: if spec.smoke { 300 } else { 3_000 },
                seed: spec.seed,
            },
            block_steps: spec.block_steps(15, CONFIGS.len(), 1),
            ops_per_step: 1,
        }
    }

    fn setup(ctx: &Ctx, plan: &Plan) -> Self {
        MineRules {
            graph: ctx
                .tracer
                .span("datasets:generate", || plan.dataset.generate()),
            configs: configs(),
            block_steps: plan.block_steps,
            mined: Vec::new(),
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut configs = Fnv::new();
        for c in &self.configs {
            configs.bytes(format!("{c:?}").as_bytes());
        }
        Fingerprint {
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            graph: fingerprint_graph(&self.graph),
            patterns: configs.finish(),
            // The schedule is the fixed cycle over the configs.
            stream: 0,
        }
    }

    fn step(&mut self, ctx: &Ctx, i: usize, rec: &mut Recorder) {
        let which = i % self.configs.len();
        let (result, latency) = ctx.tracer.timed("rules.mining:mine_qgars", || {
            mine_qgars_with_report(&self.graph, &self.configs[which], &ctx.rt)
        });
        rec.op(latency, 1, which as u32);
        match result {
            Ok((rules, report)) => {
                for r in &rules {
                    rec.counts.stats += r.evaluation.stats;
                }
                rec.counts.stat_ops += 1;
                rec.counts.pairs_explored += report.pairs_explored;
                rec.counts.rules_found += rules.len();
                rec.counts.mining_runs += 1;
                if i >= self.block_steps {
                    self.mined.push((which, hash_rules(&rules)));
                }
            }
            Err(_) => rec.fail(1),
        }
    }

    fn check(&mut self, ctx: &Ctx, rec: &mut Recorder) {
        // Mining must return identical rules on one thread and on two.
        let single = Runtime::new(1);
        let expected: Vec<Option<u64>> = self
            .configs
            .iter()
            .map(|c| {
                let (rules, _) = mine_qgars_with_report(&self.graph, c, &single).ok()?;
                let trusted = !ctx.spec.smoke
                    || rules.iter().all(|r| {
                        let e = &r.evaluation;
                        e.antecedent_matches == evaluate_reference(&self.graph, r.rule.antecedent())
                            && e.consequent_matches
                                == evaluate_reference(&self.graph, r.rule.consequent())
                    });
                trusted.then(|| hash_rules(&rules))
            })
            .collect();
        let wrong = self
            .mined
            .iter()
            .filter(|&&(c, hash)| expected[c] != Some(hash))
            .count();
        rec.fail(wrong);
    }

    fn probe_graph(&self) -> Graph {
        self.graph.clone()
    }

    fn class_label(&self, class: u32) -> String {
        let (support, confidence) = CONFIGS[class as usize];
        format!("min support {support}, confidence {confidence}")
    }
}
