//! Pins the Exp-3 miner's output on the repository benchmark's `mine_rules`
//! inputs (a 1 000-person pokec-like graph, the five benchmark configs) and
//! checks Lemma 10 along every mined rule's strengthening ladder.

use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
use qgp_datasets::{pokec_like, SocialConfig};
use qgp_graph::Graph;
use qgp_rules::{evaluate_rule, mine_qgars_with_report, MinedRule, MiningConfig, Qgar};
use qgp_runtime::Runtime;

/// Min support × confidence threshold of the benchmark's `mine_rules` configs.
const CONFIGS: [(usize, f64); 5] = [(5, 0.5), (5, 0.7), (10, 0.6), (20, 0.5), (20, 0.7)];

/// FNV-1a hash of `(name, support, confidence bits, strengthened_to bits)`
/// per config of [`configs`].  The five benchmark configs agree: on this
/// graph their 20 best rules all strengthen to `≥ 100%` with confidence 1.
const PINNED: [u64; 6] = [
    0xe20d_3c17_63dd_84ff,
    0xe20d_3c17_63dd_84ff,
    0xe20d_3c17_63dd_84ff,
    0xe20d_3c17_63dd_84ff,
    0xe20d_3c17_63dd_84ff,
    0x821c_7f18_f0cf_c6f9,
];

/// The benchmark's dataset seed derivation (SplitMix64 step) for run seed 3.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn graph() -> Graph {
    pokec_like(&SocialConfig {
        seed: sub_seed(3, 1),
        ..SocialConfig::with_persons(1_000)
    })
}

/// The five benchmark configs, then every seed pair's rule: `(1, 0.1)`
/// with no `max_rules` cut.
fn configs() -> impl Iterator<Item = MiningConfig> {
    let every_rule = MiningConfig {
        min_support: 1,
        confidence_threshold: 0.1,
        max_rules: usize::MAX,
        ..MiningConfig::default()
    };
    CONFIGS
        .iter()
        .map(|&(min_support, confidence_threshold)| MiningConfig {
            min_support,
            confidence_threshold,
            ..MiningConfig::default()
        })
        .chain([every_rule])
}

fn hash(rules: &[MinedRule]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = |b: &[u8]| {
        for &x in b {
            h = (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    bytes(&(rules.len() as u64).to_le_bytes());
    for r in rules {
        bytes(r.rule.name().as_bytes());
        bytes(&(r.evaluation.support as u64).to_le_bytes());
        bytes(&r.evaluation.confidence.to_bits().to_le_bytes());
        bytes(
            &r.strengthened_to
                .map_or(u64::MAX, f64::to_bits)
                .to_le_bytes(),
        );
    }
    h
}

#[test]
fn exp3_rules_match_the_pinned_hash() {
    let g = graph();
    let rt = Runtime::new(1);
    let hashes: Vec<u64> = configs()
        .map(|c| hash(&mine_qgars_with_report(&g, &c, &rt).unwrap().0))
        .collect();
    assert_eq!(hashes, PINNED);
}

/// The rule `rule` with its antecedent quantifier replaced by `q`.
fn with_quantifier(rule: &Qgar, q: CountingQuantifier) -> Qgar {
    let a = rule.antecedent();
    let (_, e) = a.edges().next().unwrap();
    let mut b = PatternBuilder::new();
    let xo = b.node(&a.node(e.from).label);
    let y = b.node(&a.node(e.to).label);
    b.quantified_edge(xo, y, &e.label, q);
    b.focus(xo);
    let antecedent = b.build().unwrap();
    Qgar::new(rule.name(), antecedent, rule.consequent().clone()).unwrap()
}

#[test]
fn support_never_rises_along_a_strengthening_ladder() {
    let g = graph();
    let config = MiningConfig::default();
    let (rules, _) = mine_qgars_with_report(&g, &config, &Runtime::new(1)).unwrap();
    assert!(rules.iter().any(|r| r.strengthened_to.is_some()));
    let support = |rule: &Qgar, q| {
        let eval = evaluate_rule(&g, &with_quantifier(rule, q), &config.match_config);
        eval.unwrap().support
    };
    for mined in &rules {
        // Every rung up to the winning one, and the first rung past it.
        let mut previous = support(&mined.rule, CountingQuantifier::existential());
        let last = mined.strengthened_to.unwrap_or(0.0) + config.ratio_step;
        let rungs = (1..).map(|k| k as f64 * config.ratio_step);
        for pct in rungs.take_while(|&p| p <= last.min(100.0)) {
            let current = support(&mined.rule, CountingQuantifier::at_least_percent(pct));
            assert!(current <= previous, "{} at {pct}%", mined.rule.name());
            if Some(pct) == mined.strengthened_to {
                assert_eq!(current, mined.evaluation.support, "{}", mined.rule.name());
            }
            previous = current;
        }
    }
}
