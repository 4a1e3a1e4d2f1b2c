//! The `BENCH_*.json` report format.
//!
//! The perf harness (`experiments bench`) measures wall-clock numbers for
//! graph construction and sequential quantified matching on fixed-seed
//! workloads and emits them as a small, self-describing JSON document, so
//! successive PRs can diff performance ("the `BENCH_*.json` trajectory" of
//! the roadmap).  Serialization is hand-rolled: the build environment has no
//! JSON crate, and the format is flat enough that a writer is ~50 lines.
//!
//! A document holds one or more *runs* (typically `baseline` = the commit
//! before a performance PR, and `current` = the PR itself), each with the
//! same measurement sections, always produced with the same seeds so numbers
//! are comparable.

use std::fmt::Write as _;
use std::time::Duration;

/// Schema identifier stamped into every document.
pub const SCHEMA: &str = "qgp-bench/v1";

/// One timed graph-construction workload.
#[derive(Debug, Clone)]
pub struct ConstructionMeasurement {
    /// Workload name (e.g. `pokec-like/20000`).
    pub workload: String,
    /// Nodes in the constructed graph.
    pub nodes: usize,
    /// Edges in the constructed graph.
    pub edges: usize,
    /// Best-of-N wall-clock construction time.
    pub seconds: f64,
}

/// One timed sequential matching workload.
#[derive(Debug, Clone)]
pub struct QmatchMeasurement {
    /// Workload name (e.g. `pokec-like/Q3(p=2)`).
    pub workload: String,
    /// Matcher configuration (`QMatch`, `QMatchn`, `Enum`).
    pub algorithm: String,
    /// Best-of-N wall-clock matching time.
    pub seconds: f64,
    /// Number of focus matches (a correctness fingerprint: it must not
    /// change between runs).
    pub matches: usize,
}

/// One timed parallel workload (PQMatch or QGAR mining) at a given executor
/// thread count.
///
/// Besides the wall clock, each row records the executor's busy accounting
/// (per-thread **on-CPU time** from the kernel scheduler, so concurrent
/// threads on an oversubscribed host are not double-counted):
/// `busy_seconds` is the total work executed and `critical_path_seconds` the
/// largest per-thread share.  On a multi-core host `wall ≈ critical path`;
/// on a single-core CI container the wall clock cannot drop below
/// `busy_seconds`, and the critical path is what an n-core deployment of the
/// same run would observe — the honest speedup curve either way.
#[derive(Debug, Clone)]
pub struct ParallelMeasurement {
    /// Workload name (e.g. `pokec-like/Q3(p=2)`).
    pub workload: String,
    /// What ran: `QMatch` (sequential baseline), `PQMatch`, `QGAR-mine`.
    pub mode: String,
    /// Executor threads used.
    pub threads: usize,
    /// Best-of-N wall-clock time.
    pub wall_seconds: f64,
    /// Total busy time across executor threads (sequential-equivalent work).
    pub busy_seconds: f64,
    /// Largest per-thread busy time (the parallel critical path).
    pub critical_path_seconds: f64,
    /// Focus matches (PQMatch) or mined rules (QGAR-mine) — the correctness
    /// fingerprint that must be identical across thread counts and against
    /// the sequential baseline.
    pub matches: usize,
}

/// One timed prepared-query-engine workload (`experiments bench --engine`).
///
/// `mode` distinguishes the three paths the engine section compares:
/// `one-shot` (the legacy free-function surface: prepare + execute per
/// call), `prepared` (prepare once, execute per call — the serving
/// pattern), and `limit10` (prepared, stop after the first 10 answers).
#[derive(Debug, Clone)]
pub struct EngineMeasurement {
    /// Workload name (e.g. `pokec-like/Q3(p=2)`).
    pub workload: String,
    /// `one-shot`, `prepared`, or `limit10`.
    pub mode: String,
    /// Best-of-N wall-clock time per execution.
    pub seconds: f64,
    /// Answers returned (10 under `limit10` when the full answer is larger).
    pub matches: usize,
    /// Focus candidates decided during the execution — the work counter
    /// that proves `limit10` genuinely stops early.
    pub candidates_decided: usize,
}

/// One timed incremental-maintenance workload
/// (`experiments bench --incremental`).
///
/// Each row streams `batches` update batches of `batch_size` ops through a
/// `MatchView` and compares the mean per-batch repair latency against a
/// full recompute (prepare + execute) on the final graph.  The harness
/// asserts that the maintained match set equals the recomputed one before
/// recording the row, so `matches` doubles as a correctness fingerprint.
#[derive(Debug, Clone)]
pub struct IncrementalMeasurement {
    /// Workload name (e.g. `pokec-like/Q3(p=2)`).
    pub workload: String,
    /// Ops per applied batch.
    pub batch_size: usize,
    /// Batches applied for this row.
    pub batches: usize,
    /// Mean wall-clock `MatchView::apply` time per batch.
    pub apply_seconds: f64,
    /// Best-of-N wall-clock full recompute on the post-stream graph.
    pub recompute_seconds: f64,
    /// Mean focus candidates re-decided per batch (the incremental work
    /// unit; compare against a recompute deciding every candidate).
    pub rechecked: f64,
    /// Matches after the stream (fingerprint; equals the recompute's).
    pub matches: usize,
}

/// One chaos / fault-isolation workload (`experiments bench --chaos`).
///
/// Each row runs one parallel matching workload twice over: disarmed, to
/// measure the wall-clock cost of the panic-isolation layer
/// (`isolation_seconds` — comparable against the same workload's earlier
/// parallel rows, the overhead must stay within noise), then `trials` times
/// under an armed seeded [`FaultPlan`], counting how many trials completed
/// (exact answer asserted) versus failed with the typed task error.  The
/// harness asserts that every armed trial is one of those two outcomes and
/// that a disarmed retry reproduces the fault-free answer, so a robustness
/// regression can never be committed as a chaos number.
///
/// [`FaultPlan`]: qgp_runtime::faults::FaultPlan
#[derive(Debug, Clone)]
pub struct ChaosMeasurement {
    /// Workload name (e.g. `pokec-like/Q3(p=2)`).
    pub workload: String,
    /// Fault-plan seed the armed trials ran under.
    pub seed: u64,
    /// Per-fault-point panic probability of the armed trials.
    pub panic_rate: f64,
    /// Armed executions attempted.
    pub trials: usize,
    /// Trials that completed with the exact fault-free answer.
    pub completed: usize,
    /// Trials that failed with the typed `TaskPanicked` error.
    pub faulted: usize,
    /// Best-of-N fault-free parallel wall time through the isolation layer.
    pub isolation_seconds: f64,
    /// Fault-free focus matches (fingerprint; the disarmed retry and every
    /// completed trial must equal it).
    pub matches: usize,
}

/// One counting-pushdown workload (`experiments bench --count`).
///
/// Query rows come in before/after pairs on the same workload: `enumerate`
/// vs `count` time one sequential query execution through enumeration and
/// through `PreparedQuery::count` (threshold early-exit).  The harness
/// asserts the counting run's accepted foci equal the enumerating run's
/// before recording a row, so `matches` is the shared correctness
/// fingerprint of each pair.  The single `mine-count` row times the Exp-3
/// QGAR mining workload at 4 threads.
#[derive(Debug, Clone)]
pub struct CountMeasurement {
    /// Workload name (e.g. `pokec-like/Q3(p=2)`).
    pub workload: String,
    /// `enumerate`, `count`, or `mine-count`.
    pub mode: String,
    /// Best-of-N wall-clock time.
    pub seconds: f64,
    /// Focus matches (query rows) or mined rules (mining rows).
    pub matches: usize,
    /// Quantifier verdicts proven before the full child count was known
    /// (zero on enumerating rows).
    pub threshold_exits: usize,
    /// Candidate children probed by counting intersections (zero on
    /// enumerating rows).
    pub children_counted: usize,
}

/// One registered-query serving workload (`experiments bench --serving`).
///
/// Each row drives a [`QueryRegistry`] against a `GraphStore` under a
/// mixed read/update stream: every round the writer applies one seeded
/// update batch (publishing a new epoch), the server pins the new head
/// snapshot and serves one request batch against it.  `qps` is total
/// requests over total serve wall time; `p50_ms`/`p99_ms` are percentiles
/// of the per-round serve latency.  The harness asserts the final round's
/// answers equal a one-shot recompute on the head snapshot for every
/// registered query before recording the row.
///
/// [`QueryRegistry`]: qgp_core::engine::QueryRegistry
#[derive(Debug, Clone)]
pub struct ServingMeasurement {
    /// Workload name (e.g. `pokec-like/registered`).
    pub workload: String,
    /// Registered queries served each round.
    pub queries: usize,
    /// Serve rounds (one writer epoch published before each).
    pub rounds: usize,
    /// Requests served per round.
    pub requests_per_round: usize,
    /// Writer ops applied per published epoch.
    pub update_batch: usize,
    /// Requests per second over the serve phases (updates excluded).
    pub qps: f64,
    /// Median per-round serve latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-round serve latency, milliseconds.
    pub p99_ms: f64,
    /// Candidate-analysis cache hits over the run (equal-projection
    /// queries sharing one analysis per epoch).
    pub cache_hits: u64,
    /// Final-round matches summed over the registered queries
    /// (fingerprint; equals the recompute's).
    pub matches: usize,
}

/// One labeled measurement run (e.g. `baseline` or `current`).
#[derive(Debug, Clone, Default)]
pub struct BenchRun {
    /// Run label.
    pub label: String,
    /// Commit or tree description the run was measured on.
    pub commit: String,
    /// Free-form note about the workload scale.
    pub note: String,
    /// Graph-construction section.
    pub graph_construction: Vec<ConstructionMeasurement>,
    /// Sequential matching section.
    pub qmatch: Vec<QmatchMeasurement>,
    /// Parallel speedup section (empty unless the harness ran with
    /// `--parallel`).
    pub parallel: Vec<ParallelMeasurement>,
    /// Prepared-query engine section (empty unless the harness ran with
    /// `--engine`).
    pub engine: Vec<EngineMeasurement>,
    /// Incremental maintenance section (empty unless the harness ran with
    /// `--incremental`).
    pub incremental: Vec<IncrementalMeasurement>,
    /// Chaos / fault-isolation section (empty unless the harness ran with
    /// `--chaos`).
    pub chaos: Vec<ChaosMeasurement>,
    /// Counting-pushdown section (empty unless the harness ran with
    /// `--count`).
    pub count: Vec<CountMeasurement>,
    /// Registered-query serving section (empty unless the harness ran
    /// with `--serving`).
    pub serving: Vec<ServingMeasurement>,
}

/// A whole `BENCH_*.json` document.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// The measurement runs, oldest first.
    pub runs: Vec<BenchRun>,
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders one run object at the indentation used inside the `runs` array.
fn render_run(out: &mut String, run: &BenchRun, last: bool) {
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"label\": \"{}\",", escape(&run.label));
    let _ = writeln!(out, "      \"commit\": \"{}\",", escape(&run.commit));
    let _ = writeln!(out, "      \"note\": \"{}\",", escape(&run.note));
    out.push_str("      \"graph_construction\": [\n");
    for (i, m) in run.graph_construction.iter().enumerate() {
        let _ = write!(
            out,
            "        {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"seconds\": {:.6}}}",
            escape(&m.workload),
            m.nodes,
            m.edges,
            m.seconds
        );
        out.push_str(if i + 1 < run.graph_construction.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ],\n");
    out.push_str("      \"qmatch\": [\n");
    for (i, m) in run.qmatch.iter().enumerate() {
        let _ = write!(
            out,
            "        {{\"workload\": \"{}\", \"algorithm\": \"{}\", \"seconds\": {:.6}, \"matches\": {}}}",
            escape(&m.workload),
            escape(&m.algorithm),
            m.seconds,
            m.matches
        );
        out.push_str(if i + 1 < run.qmatch.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ],\n");
    out.push_str("      \"parallel\": [\n");
    for (i, m) in run.parallel.iter().enumerate() {
        let _ = write!(
            out,
            "        {{\"workload\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"wall_seconds\": {:.6}, \"busy_seconds\": {:.6}, \
             \"critical_path_seconds\": {:.6}, \"matches\": {}}}",
            escape(&m.workload),
            escape(&m.mode),
            m.threads,
            m.wall_seconds,
            m.busy_seconds,
            m.critical_path_seconds,
            m.matches
        );
        out.push_str(if i + 1 < run.parallel.len() { ",\n" } else { "\n" });
    }
    // The engine, incremental, chaos and count sections are omitted entirely
    // when empty so documents from earlier harness versions render
    // identically.
    let has_engine = !run.engine.is_empty();
    let has_incremental = !run.incremental.is_empty();
    let has_chaos = !run.chaos.is_empty();
    let has_count = !run.count.is_empty();
    let has_serving = !run.serving.is_empty();
    out.push_str(if has_engine || has_incremental || has_chaos || has_count || has_serving {
        "      ],\n"
    } else {
        "      ]\n"
    });
    if has_engine {
        out.push_str("      \"engine\": [\n");
        for (i, m) in run.engine.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"workload\": \"{}\", \"mode\": \"{}\", \"seconds\": {:.6}, \
                 \"matches\": {}, \"candidates_decided\": {}}}",
                escape(&m.workload),
                escape(&m.mode),
                m.seconds,
                m.matches,
                m.candidates_decided
            );
            out.push_str(if i + 1 < run.engine.len() { ",\n" } else { "\n" });
        }
        out.push_str(if has_incremental || has_chaos || has_count || has_serving {
            "      ],\n"
        } else {
            "      ]\n"
        });
    }
    if has_incremental {
        out.push_str("      \"incremental\": [\n");
        for (i, m) in run.incremental.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"workload\": \"{}\", \"batch_size\": {}, \"batches\": {}, \
                 \"apply_seconds\": {:.6}, \"recompute_seconds\": {:.6}, \
                 \"rechecked\": {:.1}, \"matches\": {}}}",
                escape(&m.workload),
                m.batch_size,
                m.batches,
                m.apply_seconds,
                m.recompute_seconds,
                m.rechecked,
                m.matches
            );
            out.push_str(if i + 1 < run.incremental.len() { ",\n" } else { "\n" });
        }
        out.push_str(if has_chaos || has_count || has_serving {
            "      ],\n"
        } else {
            "      ]\n"
        });
    }
    if has_chaos {
        out.push_str("      \"chaos\": [\n");
        for (i, m) in run.chaos.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"workload\": \"{}\", \"seed\": {}, \"panic_rate\": {:.6}, \
                 \"trials\": {}, \"completed\": {}, \"faulted\": {}, \
                 \"isolation_seconds\": {:.6}, \"matches\": {}}}",
                escape(&m.workload),
                m.seed,
                m.panic_rate,
                m.trials,
                m.completed,
                m.faulted,
                m.isolation_seconds,
                m.matches
            );
            out.push_str(if i + 1 < run.chaos.len() { ",\n" } else { "\n" });
        }
        out.push_str(if has_count || has_serving {
            "      ],\n"
        } else {
            "      ]\n"
        });
    }
    if has_count {
        out.push_str("      \"count\": [\n");
        for (i, m) in run.count.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"workload\": \"{}\", \"mode\": \"{}\", \"seconds\": {:.6}, \
                 \"matches\": {}, \"threshold_exits\": {}, \"children_counted\": {}}}",
                escape(&m.workload),
                escape(&m.mode),
                m.seconds,
                m.matches,
                m.threshold_exits,
                m.children_counted
            );
            out.push_str(if i + 1 < run.count.len() { ",\n" } else { "\n" });
        }
        out.push_str(if has_serving { "      ],\n" } else { "      ]\n" });
    }
    if has_serving {
        out.push_str("      \"serving\": [\n");
        for (i, m) in run.serving.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"workload\": \"{}\", \"queries\": {}, \"rounds\": {}, \
                 \"requests_per_round\": {}, \"update_batch\": {}, \"qps\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"cache_hits\": {}, \
                 \"matches\": {}}}",
                escape(&m.workload),
                m.queries,
                m.rounds,
                m.requests_per_round,
                m.update_batch,
                m.qps,
                m.p50_ms,
                m.p99_ms,
                m.cache_hits,
                m.matches
            );
            out.push_str(if i + 1 < run.serving.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
    }
    out.push_str(if last { "    }\n" } else { "    },\n" });
}

impl BenchReport {
    /// Renders the document as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", escape(SCHEMA));
        out.push_str("  \"runs\": [\n");
        for (ri, run) in self.runs.iter().enumerate() {
            render_run(&mut out, run, ri + 1 == self.runs.len());
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Splices one new run into an existing `BENCH_*.json` document (as
    /// rendered by [`BenchReport::to_json`]), preserving the earlier runs
    /// textually.  Returns `None` when the document does not end the way
    /// this writer renders it (reformatted files are rejected rather than
    /// corrupted — regenerate them instead).
    pub fn append_run(existing: &str, run: &BenchRun) -> Option<String> {
        const TAIL: &str = "  ]\n}";
        let body = existing
            .trim_end_matches(['\n', ' '])
            .strip_suffix(TAIL)?;
        let mut out = body.to_string();
        // Turn the previous last run's closing brace into a separator; a
        // document with zero runs ends the body with the array opener and
        // needs none.  Anything else is not our format.
        if let Some(stripped) = out.strip_suffix("    }\n") {
            out = stripped.to_string();
            out.push_str("    },\n");
        } else if !out.ends_with("\"runs\": [\n") {
            return None;
        }
        render_run(&mut out, run, true);
        out.push_str(TAIL);
        out.push('\n');
        Some(out)
    }
}

/// Best-of-`iters` wall-clock timing of `f`, returning the last result and
/// the minimum duration (minimum is the conventional noise-resistant
/// estimator for deterministic workloads).
pub fn time_best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(iters > 0);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        let value = f();
        best = best.min(start.elapsed());
        out = Some(value);
    }
    (out.expect("iters > 0"), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_valid_looking_json() {
        let report = BenchReport {
            runs: vec![BenchRun {
                label: "current".into(),
                commit: "abc123".into(),
                note: "smoke".into(),
                graph_construction: vec![ConstructionMeasurement {
                    workload: "pokec-like/800".into(),
                    nodes: 900,
                    edges: 5000,
                    seconds: 0.012345,
                }],
                qmatch: vec![
                    QmatchMeasurement {
                        workload: "pokec-like/Q3(p=2)".into(),
                        algorithm: "QMatch".into(),
                        seconds: 0.5,
                        matches: 42,
                    },
                    QmatchMeasurement {
                        workload: "pokec-like/Q3(p=2)".into(),
                        algorithm: "Enum".into(),
                        seconds: 1.5,
                        matches: 42,
                    },
                ],
                parallel: vec![ParallelMeasurement {
                    workload: "pokec-like/Q3(p=2)".into(),
                    mode: "PQMatch".into(),
                    threads: 4,
                    wall_seconds: 0.4,
                    busy_seconds: 0.39,
                    critical_path_seconds: 0.11,
                    matches: 42,
                }],
                engine: vec![EngineMeasurement {
                    workload: "pokec-like/Q3(p=2)".into(),
                    mode: "limit10".into(),
                    seconds: 0.001,
                    matches: 10,
                    candidates_decided: 17,
                }],
                incremental: vec![IncrementalMeasurement {
                    workload: "pokec-like/Q3(p=2)".into(),
                    batch_size: 10,
                    batches: 32,
                    apply_seconds: 0.0004,
                    recompute_seconds: 0.0123,
                    rechecked: 3.5,
                    matches: 42,
                }],
                chaos: vec![],
                count: vec![],
                serving: vec![],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"qgp-bench/v1\""));
        assert!(json.contains("\"workload\": \"pokec-like/800\""));
        assert!(json.contains("\"seconds\": 0.012345"));
        // Balanced braces/brackets as a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        // No trailing commas before closing brackets.
        assert!(!json.contains(",\n      ]"));
        assert!(!json.contains(",\n  ]"));
        assert!(json.contains("\"critical_path_seconds\": 0.110000"));
        assert!(json.contains("\"incremental\": [\n"));
        assert!(json.contains("\"batch_size\": 10"));
    }

    #[test]
    fn optional_sections_are_omitted_when_empty_in_every_combination() {
        let base = BenchRun {
            label: "x".into(),
            ..BenchRun::default()
        };
        let engine_row = EngineMeasurement {
            workload: "w".into(),
            mode: "prepared".into(),
            seconds: 0.1,
            matches: 1,
            candidates_decided: 2,
        };
        let inc_row = IncrementalMeasurement {
            workload: "w".into(),
            batch_size: 1,
            batches: 4,
            apply_seconds: 0.001,
            recompute_seconds: 0.1,
            rechecked: 2.0,
            matches: 1,
        };
        let chaos_row = ChaosMeasurement {
            workload: "w".into(),
            seed: 7,
            panic_rate: 0.01,
            trials: 8,
            completed: 5,
            faulted: 3,
            isolation_seconds: 0.01,
            matches: 1,
        };
        let count_row = CountMeasurement {
            workload: "w".into(),
            mode: "count".into(),
            seconds: 0.01,
            matches: 1,
            threshold_exits: 3,
            children_counted: 9,
        };
        let serving_row = ServingMeasurement {
            workload: "w".into(),
            queries: 4,
            rounds: 16,
            requests_per_round: 8,
            update_batch: 10,
            qps: 1234.5,
            p50_ms: 0.8,
            p99_ms: 2.5,
            cache_hits: 12,
            matches: 3,
        };
        for mask in 0u8..32 {
            let engine = if mask & 1 != 0 { vec![engine_row.clone()] } else { vec![] };
            let incremental = if mask & 2 != 0 { vec![inc_row.clone()] } else { vec![] };
            let chaos = if mask & 4 != 0 { vec![chaos_row.clone()] } else { vec![] };
            let count = if mask & 8 != 0 { vec![count_row.clone()] } else { vec![] };
            let serving = if mask & 16 != 0 { vec![serving_row.clone()] } else { vec![] };
            let has_engine = !engine.is_empty();
            let has_incremental = !incremental.is_empty();
            let has_chaos = !chaos.is_empty();
            let has_count = !count.is_empty();
            let has_serving = !serving.is_empty();
            let run = BenchRun {
                engine,
                incremental,
                chaos,
                count,
                serving,
                ..base.clone()
            };
            let json = BenchReport { runs: vec![run.clone()] }.to_json();
            assert_eq!(json.contains("\"engine\""), has_engine);
            assert_eq!(json.contains("\"incremental\""), has_incremental);
            assert_eq!(json.contains("\"chaos\""), has_chaos);
            assert_eq!(json.contains("\"count\""), has_count);
            assert_eq!(json.contains("\"serving\""), has_serving);
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(
                    json.matches(open).count(),
                    json.matches(close).count(),
                    "unbalanced {open}{close} (mask={mask:03b})"
                );
            }
            assert!(!json.contains(",\n      ]"), "trailing comma (mask={mask:03b})");
            // append_run round-trips every combination.
            let appended = BenchReport::append_run(&json, &run).unwrap();
            assert_eq!(appended.matches("\"label\": \"x\"").count(), 2);
        }
    }

    #[test]
    fn append_run_preserves_earlier_runs_and_stays_balanced() {
        let run_a = BenchRun {
            label: "baseline".into(),
            commit: "aaa".into(),
            ..BenchRun::default()
        };
        let doc = BenchReport {
            runs: vec![run_a],
        }
        .to_json();
        let run_b = BenchRun {
            label: "current".into(),
            commit: "bbb".into(),
            parallel: vec![ParallelMeasurement {
                workload: "w".into(),
                mode: "PQMatch".into(),
                threads: 2,
                wall_seconds: 1.0,
                busy_seconds: 1.0,
                critical_path_seconds: 0.5,
                matches: 7,
            }],
            ..BenchRun::default()
        };
        let merged = BenchReport::append_run(&doc, &run_b).unwrap();
        assert!(merged.contains("\"label\": \"baseline\""));
        assert!(merged.contains("\"label\": \"current\""));
        assert!(merged.contains("\"mode\": \"PQMatch\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                merged.matches(open).count(),
                merged.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        // Appending twice keeps working (the previous append's tail is
        // what the splicer expects).
        let again = BenchReport::append_run(&merged, &run_b).unwrap();
        assert_eq!(again.matches("\"label\": \"current\"").count(), 2);
        // Garbage input is rejected.
        assert!(BenchReport::append_run("not json", &run_b).is_none());
        // So is a document with our tail but a reformatted last run —
        // better to refuse than to splice a missing comma.
        let reformatted =
            "{\n  \"schema\": \"qgp-bench/v1\",\n  \"runs\": [\n  {\"label\": \"x\"}\n  ]\n}\n";
        assert!(BenchReport::append_run(reformatted, &run_b).is_none());
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn time_best_of_returns_min() {
        let (v, d) = time_best_of(3, || 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
    }
}
