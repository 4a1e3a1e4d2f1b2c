//! The experiment suite of Section 7, one function per figure.
//!
//! Every function regenerates the rows/series of one figure of the paper's
//! evaluation and returns them as [`Table`]s.  Absolute times differ from the
//! paper (different hardware, laptop-scale datasets, threads instead of a
//! cluster); EXPERIMENTS.md records the *shape* comparison.

use std::time::Instant;

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::{MatchConfig, QueryAnswer};
use qgp_core::pattern::Pattern;
use qgp_datasets::PatternSize;
use qgp_graph::Graph;
use qgp_parallel::{dpar_with, DHopPartition, ParallelConfig, PartitionConfig};
use qgp_rules::{mine_qgars_with_report, MiningConfig};
use qgp_runtime::Runtime;

use crate::report::{secs, Table};
use crate::workloads::{
    dataset_graph, pokec_graph, synthetic_graph, workload_pattern, yago_graph, Dataset,
    ExperimentScale,
};

/// One sequential engine execution (prepare + run, the unit the sequential
/// experiment tables time).
fn sequential_match(graph: &Graph, pattern: &Pattern, config: &MatchConfig) -> QueryAnswer {
    Engine::new(graph)
        .prepare(pattern)
        .expect("experiment patterns validate")
        .run(ExecOptions::sequential().with_config(*config))
        .expect("sequential runs succeed")
}

/// The executor a `ParallelConfig` variant runs on: a dedicated one with its
/// thread count, or the process-wide [`Runtime::global`] when it names none.
fn runtime_for(config: &ParallelConfig) -> Runtime {
    config
        .threads
        .map_or_else(|| Runtime::global().clone(), Runtime::new)
}

/// One partitioned engine execution under a `ParallelConfig` (the unit the
/// parallel experiment tables time).
fn partitioned_match(
    graph: &Graph,
    pattern: &Pattern,
    partition: &DHopPartition,
    config: &ParallelConfig,
) -> QueryAnswer {
    let runtime = runtime_for(config);
    let opts = ExecOptions::partitioned_on(partition.fragments(), partition.d(), &runtime)
        .with_config(config.match_config);
    Engine::new(graph)
        .prepare(pattern)
        .expect("experiment patterns validate")
        .run(opts)
        .expect("pattern radius fits the partition")
}

/// Default pattern seed so every run of the harness sees the same workload.
const PATTERN_SEED: u64 = 3;

fn time<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn sequential_configs() -> [(&'static str, MatchConfig); 3] {
    [
        ("Enum", MatchConfig::enumerate()),
        ("QMatchn", MatchConfig::qmatch_n()),
        ("QMatch", MatchConfig::qmatch()),
    ]
}

/// The parallel variants at `n` workers with `b` threads per worker.  The
/// paper's deployment maps to executor threads as `n × b` (`PQMatchs` is
/// the b = 1 case), so sweeping `n` really sweeps parallelism.
fn parallel_configs(n: usize, b: usize) -> [(&'static str, ParallelConfig); 4] {
    let total = n.saturating_mul(b).max(1);
    [
        ("PEnum", ParallelConfig::penum(total)),
        ("PQMatchs", ParallelConfig::pqmatch(n.max(1))),
        ("PQMatchn", ParallelConfig::pqmatch_n(total)),
        ("PQMatch", ParallelConfig::pqmatch(total)),
    ]
}

/// Generates the experiment pattern for a dataset, falling back to a smaller
/// shape when the frequent-feature generator cannot reach the requested size.
fn pattern_or_fallback(graph: &Graph, dataset: Option<Dataset>, size: PatternSize) -> Pattern {
    workload_pattern(graph, dataset, size, PATTERN_SEED)
        .or_else(|| {
            workload_pattern(
                graph,
                dataset,
                PatternSize::new(3, 3, size.ratio_percent, 0),
                PATTERN_SEED,
            )
        })
        .expect("experiment graphs always produce at least a small pattern")
}

/// Exp-1 / Fig. 8(a): sequential response time of QMatch vs QMatchn vs Enum
/// on the yago2-like, pokec-like (two pattern sizes) and synthetic graphs.
pub fn exp1_qmatch(scale: &ExperimentScale) -> Table {
    let mut table = Table::new(
        "Fig. 8(a) — sequential quantified matching, |Q|=(5,7,30%,1)",
        &[
            "dataset",
            "Enum (s)",
            "QMatchn (s)",
            "QMatch (s)",
            "matches",
        ],
    );

    let yago = yago_graph(scale);
    let pokec = pokec_graph(scale);
    let synth = synthetic_graph(scale.synthetic_nodes);

    let cases: Vec<(&str, &Graph, Option<Dataset>, PatternSize)> = vec![
        (
            "yago2-like",
            &yago,
            Some(Dataset::YagoLike),
            PatternSize::new(5, 7, 30.0, 1),
        ),
        (
            "pokec-like (5,7)",
            &pokec,
            Some(Dataset::PokecLike),
            PatternSize::new(5, 7, 30.0, 1),
        ),
        (
            "pokec-like (6,8)",
            &pokec,
            Some(Dataset::PokecLike),
            PatternSize::new(6, 8, 30.0, 1),
        ),
        ("synthetic", &synth, None, PatternSize::new(5, 7, 30.0, 1)),
    ];

    for (name, graph, dataset, size) in cases {
        let pattern = pattern_or_fallback(graph, dataset, size);
        let mut row = vec![name.to_string()];
        let mut matches = 0usize;
        for (_, config) in sequential_configs() {
            let (ans, elapsed) = time(|| sequential_match(graph, &pattern, &config));
            matches = ans.len();
            row.push(secs(elapsed));
        }
        row.push(matches.to_string());
        table.push_row(row);
    }
    table
}

/// An empty table for one parallel-matching figure: the figure's own first
/// column followed by the four parallel variants and the match count.
fn parallel_table(title: impl Into<String>, first_column: &str) -> Table {
    Table::new(
        title,
        &[
            first_column,
            "PEnum (s)",
            "PQMatchs (s)",
            "PQMatchn (s)",
            "PQMatch (s)",
            "matches",
        ],
    )
}

/// Appends one row per `(label, pattern)` to a [`parallel_table`]: the time
/// of each parallel variant at `n` workers, then the match count.  As in the
/// paper, the graph is partitioned once and the same partition serves every
/// pattern of the figure, so `d` is the largest pattern radius (at least 2).
fn push_parallel_rows(
    table: &mut Table,
    graph: &Graph,
    n: usize,
    scale: &ExperimentScale,
    patterns: Vec<(String, Pattern)>,
) {
    let d = patterns
        .iter()
        .map(|(_, p)| p.radius())
        .max()
        .unwrap_or(2)
        .max(2);
    let partition = dpar_with(graph, &PartitionConfig::new(n, d), Runtime::global());
    for (label, pattern) in patterns {
        let mut row = vec![label];
        let mut matches = 0usize;
        for (_, config) in parallel_configs(n, scale.threads_per_worker) {
            let (ans, elapsed) = time(|| partitioned_match(graph, &pattern, &partition, &config));
            matches = ans.matches.len();
            row.push(secs(elapsed));
        }
        row.push(matches.to_string());
        table.push_row(row);
    }
}

/// The worker count of the figures that fix `n`: the largest swept, at most 8.
fn fixed_workers(scale: &ExperimentScale) -> usize {
    scale.workers.iter().copied().max().unwrap_or(4).min(8)
}

/// Exp-2 / Fig. 8(b)(c): parallel matching time while varying the number of
/// workers `n` (PEnum vs PQMatchs vs PQMatchn vs PQMatch).
pub fn exp2_vary_n(dataset: Dataset, scale: &ExperimentScale) -> Table {
    let mut table = parallel_table(
        format!(
            "Fig. 8(b)/(c) — varying n on {}, |Q|=(6,8,30%,1), d=2, b={}",
            dataset.name(),
            scale.threads_per_worker
        ),
        "n",
    );
    let graph = dataset_graph(dataset, scale);
    let pattern = pattern_or_fallback(&graph, Some(dataset), PatternSize::new(6, 8, 30.0, 1));
    for &n in &scale.workers {
        let row = vec![(n.to_string(), pattern.clone())];
        push_parallel_rows(&mut table, &graph, n, scale, row);
    }
    table
}

/// Exp-2 / Fig. 8(d)(e): DPar partition time and balance while varying `n`,
/// for d = 2 and d = 3.
pub fn exp2_dpar(dataset: Dataset, scale: &ExperimentScale) -> Table {
    let mut table = Table::new(
        format!("Fig. 8(d)/(e) — DPar on {}", dataset.name()),
        &[
            "n",
            "d",
            "partition (s)",
            "skew",
            "border nodes",
            "covered pre-completion",
            "balls sized",
            "balls weighed",
        ],
    );
    let graph = dataset_graph(dataset, scale);
    for &d in &[2usize, 3] {
        for &n in &scale.workers {
            let (partition, elapsed) =
                time(|| dpar_with(&graph, &PartitionConfig::new(n, d), &Runtime::new(n)));
            let stats = partition.stats();
            table.push_row(vec![
                n.to_string(),
                d.to_string(),
                secs(elapsed),
                format!("{:.2}", stats.skew),
                stats.border_nodes.to_string(),
                stats.covered_before_completion.to_string(),
                stats.balls_sized.to_string(),
                stats.balls_weighed.to_string(),
            ]);
        }
    }
    table
}

/// Exp-2 / Fig. 8(f)(g): parallel matching time while varying the pattern
/// size `(|V_Q|, |E_Q|)`.
pub fn exp2_vary_q(dataset: Dataset, scale: &ExperimentScale) -> Table {
    let sizes: [(usize, usize); 5] = match dataset {
        Dataset::PokecLike => [(4, 6), (5, 7), (6, 8), (7, 9), (8, 10)],
        Dataset::YagoLike => [(3, 5), (4, 6), (5, 7), (6, 8), (7, 9)],
    };
    let n = fixed_workers(scale);
    let mut table = parallel_table(
        format!(
            "Fig. 8(f)/(g) — varying |Q| on {}, n={n}, pa=30%, |E-Q|=1",
            dataset.name()
        ),
        "|Q|",
    );
    let graph = dataset_graph(dataset, scale);
    let patterns = sizes
        .into_iter()
        .map(|(vq, eq)| {
            let p = pattern_or_fallback(&graph, Some(dataset), PatternSize::new(vq, eq, 30.0, 1));
            (format!("({vq},{eq})"), p)
        })
        .collect();
    push_parallel_rows(&mut table, &graph, n, scale, patterns);
    table
}

/// Exp-2 / Fig. 8(h)(i): parallel matching time while varying the number of
/// negated edges `|E⁻_Q|` (the experiment that isolates the benefit of
/// incremental evaluation, IncQMatch).
pub fn exp2_vary_negated(dataset: Dataset, scale: &ExperimentScale) -> Table {
    let n = fixed_workers(scale);
    let mut table = parallel_table(
        format!(
            "Fig. 8(h)/(i) — varying |E-Q| on {}, n={n}, (|V_Q|,|E_Q|)=(6,8), pa=30%",
            dataset.name()
        ),
        "|E-Q|",
    );
    let graph = dataset_graph(dataset, scale);
    let patterns = (0..=4usize)
        .map(|neg| {
            let p = pattern_or_fallback(&graph, Some(dataset), PatternSize::new(6, 8, 30.0, neg));
            (neg.to_string(), p)
        })
        .collect();
    push_parallel_rows(&mut table, &graph, n, scale, patterns);
    table
}

/// Exp-2 / Fig. 8(j)(k): parallel matching time while varying the ratio
/// aggregate `p_a` (larger thresholds prune more candidates).
pub fn exp2_vary_ratio(dataset: Dataset, scale: &ExperimentScale) -> Table {
    let n = fixed_workers(scale);
    let (vq, eq) = match dataset {
        Dataset::PokecLike => (6, 8),
        Dataset::YagoLike => (5, 7),
    };
    let mut table = parallel_table(
        format!(
            "Fig. 8(j)/(k) — varying pa on {}, n={n}, (|V_Q|,|E_Q|)=({vq},{eq}), |E-Q|=1",
            dataset.name()
        ),
        "pa",
    );
    let graph = dataset_graph(dataset, scale);
    let patterns = [10.0, 30.0, 50.0, 70.0, 90.0]
        .into_iter()
        .map(|pa| {
            let p = pattern_or_fallback(&graph, Some(dataset), PatternSize::new(vq, eq, pa, 1));
            (format!("{pa}%"), p)
        })
        .collect();
    push_parallel_rows(&mut table, &graph, n, scale, patterns);
    table
}

/// Exp-2 / Fig. 8(l): parallel matching time on synthetic graphs of growing
/// size `(|V|, |E|)`, n = 4.
pub fn exp2_vary_graph_size(scale: &ExperimentScale) -> Table {
    let mut table = parallel_table(
        "Fig. 8(l) — varying |G| (synthetic), n=4, |Q|=(5,7,30%,1)",
        "|V|,|E|",
    );
    for factor in [1usize, 2, 3, 4, 5] {
        let graph = synthetic_graph(scale.synthetic_nodes * factor / 2);
        let pattern = pattern_or_fallback(&graph, None, PatternSize::new(5, 7, 30.0, 1));
        let row = vec![(
            format!("({}, {})", graph.node_count(), graph.edge_count()),
            pattern,
        )];
        push_parallel_rows(&mut table, &graph, 4, scale, row);
    }
    table
}

/// Exp-3: QGAR mining effectiveness — top rules discovered on the Pokec-like
/// and YAGO2-like graphs with confidence threshold η = 0.5.
pub fn exp3_qgar(scale: &ExperimentScale) -> Vec<Table> {
    let mut tables = Vec::new();
    for dataset in [Dataset::PokecLike, Dataset::YagoLike] {
        let graph = dataset_graph(dataset, scale);
        let config = MiningConfig {
            focus_label: dataset.focus_label().to_owned(),
            min_support: (graph.node_count() / 200).max(5),
            confidence_threshold: 0.5,
            max_rules: 8,
            ..MiningConfig::default()
        };
        let mine = || mine_qgars_with_report(&graph, &config, Runtime::global()).unwrap();
        let ((rules, _), elapsed) = time(mine);
        let mut table = Table::new(
            format!(
                "Exp-3 — QGARs mined from {} (η = 0.5, {} rules, {} s)",
                dataset.name(),
                rules.len(),
                secs(elapsed)
            ),
            &["rule", "quantifier", "support", "confidence"],
        );
        for rule in rules {
            table.push_row(vec![
                rule.rule.name().to_string(),
                rule.strengthened_to
                    .map(|p| format!(">= {p}%"))
                    .unwrap_or_else(|| ">= 1".to_string()),
                rule.evaluation.support.to_string(),
                format!("{:.2}", rule.evaluation.confidence),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Runs the parallel experiment used by integration smoke tests: a single
/// tiny end-to-end pass over partition + matching, returning the partition
/// and match count (so tests can assert consistency cheaply).
pub fn smoke_parallel(scale: &ExperimentScale) -> (DHopPartition, usize) {
    let graph = pokec_graph(scale);
    let pattern = pattern_or_fallback(
        &graph,
        Some(Dataset::PokecLike),
        PatternSize::new(4, 5, 30.0, 1),
    );
    let d = pattern.radius().max(2);
    let partition = dpar_with(&graph, &PartitionConfig::new(2, d), Runtime::global());
    let answer = partitioned_match(&graph, &pattern, &partition, &ParallelConfig::pqmatch(2));
    (partition, answer.matches.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            workers: vec![1, 2],
            threads_per_worker: 1,
            ..ExperimentScale::scaled(0.08)
        }
    }

    #[test]
    fn exp1_produces_a_row_per_dataset() {
        let t = exp1_qmatch(&tiny());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.headers.len(), 5);
    }

    #[test]
    fn exp2_vary_n_produces_a_row_per_worker_count() {
        let t = exp2_vary_n(Dataset::YagoLike, &tiny());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn exp2_dpar_covers_both_d_values() {
        let t = exp2_dpar(Dataset::YagoLike, &tiny());
        assert_eq!(t.rows.len(), 4); // 2 d-values × 2 worker counts
    }

    #[test]
    fn exp2_negated_sweep_is_flat_for_incremental_algorithms() {
        let t = exp2_vary_negated(Dataset::PokecLike, &tiny());
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn exp3_reports_rules_with_confidence_above_threshold() {
        let tables = exp3_qgar(&tiny());
        assert_eq!(tables.len(), 2);
        for table in &tables {
            for row in &table.rows {
                let conf: f64 = row[3].parse().unwrap();
                assert!(conf >= 0.5 - 1e-9);
            }
        }
    }

    #[test]
    fn smoke_parallel_is_consistent() {
        let (partition, _matches) = smoke_parallel(&tiny());
        assert_eq!(partition.len(), 2);
    }
}
