//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` declares the same lists; a test keeps the two equal.

/// `(name, unit, better)` of the end-to-end metrics, in report order.  The
/// bounds live in `BENCHMARK.json` only.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// How a per-layer metric is obtained, which decides whether two runs of
/// one seed must agree on it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A timing (probe, span self time or latency): varies run to run.
    Timing,
    /// A count that must repeat exactly between runs of one seed.
    ExactCount,
    /// A count or share that depends on how two threads interleave;
    /// reported with its spread, exempt from exactness.
    Scheduling,
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; the code only checks the two agree.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub source: Source,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        source,
    }
}

use Source::{ExactCount as Exact, Scheduling as Sched, Timing};

/// Every per-layer metric of a traced run, in report order.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    m("datasets.generate_s", "s", "lower", Timing),
    m("graph.builder.build_s", "s", "lower", Timing),
    m("graph.builder.edges_per_s", "1/s", "higher", Timing),
    m("graph.csr.scan_ns_per_edge", "ns", "lower", Timing),
    m("graph.csr.scan_ns_per_edge_overlay", "ns", "lower", Timing),
    m("graph.delta.apply_us_per_op.b1", "us", "lower", Timing),
    m("graph.delta.apply_us_per_op.b10", "us", "lower", Timing),
    m("graph.delta.apply_us_per_op.b100", "us", "lower", Timing),
    m("graph.delta.apply_us_per_op.b1000", "us", "lower", Timing),
    m("graph.delta.compact_ms", "ms", "lower", Timing),
    m("graph.delta.compactions", "count", "lower", Exact),
    m("graph.delta.pending_max", "count", "lower", Exact),
    m("graph.store.apply_ms_p50", "ms", "lower", Timing),
    m("graph.store.snapshot_ns", "ns", "lower", Timing),
    m("graph.store.replay_from_us", "us", "lower", Timing),
    m("core.pattern.build_us", "us", "lower", Timing),
    m("core.engine.prepare_us", "us", "lower", Timing),
    m("core.matching.session_build_ms", "ms", "lower", Timing),
    m("core.matching.decide_us_p50", "us", "lower", Timing),
    m("core.matching.decide_us_p90", "us", "lower", Timing),
    m("core.matching.focus_candidates", "count", "lower", Exact),
    m("core.matching.focus_verified", "count", "lower", Exact),
    m("core.matching.verifications", "count", "lower", Exact),
    m("core.matching.isomorphisms_found", "count", "lower", Exact),
    m("core.matching.pruned_by_simulation", "count", "higher", Exact),
    m("core.matching.pruned_by_upper_bound", "count", "higher", Exact),
    m("core.matching.sessions_built", "count", "lower", Sched),
    m("core.matching.matches_per_verified", "ratio", "higher", Exact),
    m("core.engine.exec.sequential_ms", "ms", "lower", Timing),
    m("core.engine.exec.parallel_ms", "ms", "lower", Timing),
    m("core.engine.exec.partitioned_ms", "ms", "lower", Timing),
    m("core.engine.count.count_ms", "ms", "lower", Timing),
    m("core.engine.count.enumerate_ms", "ms", "lower", Timing),
    m("core.engine.count.threshold_exits", "count", "higher", Exact),
    m("core.engine.count.children_counted", "count", "lower", Exact),
    m("core.engine.registry.serve_warm_ms", "ms", "lower", Timing),
    m("core.engine.registry.prime_ms", "ms", "lower", Timing),
    m("core.engine.registry.cache_hits", "count", "higher", Exact),
    m("core.engine.registry.cache_misses", "count", "lower", Exact),
    m("core.engine.registry.fanout_speedup", "ratio", "higher", Timing),
    m("core.engine.registry.same_query_slowdown", "ratio", "lower", Timing),
    m("core.engine.view.materialize_ms", "ms", "lower", Timing),
    m("core.engine.view.repair_ms.b1", "ms", "lower", Timing),
    m("core.engine.view.repair_ms.b10", "ms", "lower", Timing),
    m("core.engine.view.repair_ms.b100", "ms", "lower", Timing),
    m("core.engine.view.repair_ms.b1000", "ms", "lower", Timing),
    m("core.engine.view.rechecked_per_batch", "count", "lower", Exact),
    m("core.engine.view.changed_per_rechecked", "ratio", "higher", Exact),
    m("core.engine.view.recompute_ms", "ms", "lower", Timing),
    m("core.engine.view.repair_ms_hub.b10", "ms", "lower", Timing),
    m("parallel.partition.dpar_s", "s", "lower", Timing),
    m("parallel.partition.replication_factor", "ratio", "lower", Exact),
    m("parallel.partition.fragment_skew", "ratio", "lower", Exact),
    m("parallel.partition.border_nodes", "count", "lower", Exact),
    m("parallel.pqmatch.run_ms", "ms", "lower", Timing),
    m("rules.mining.run_ms", "ms", "lower", Timing),
    m("rules.mining.pairs_explored", "count", "lower", Exact),
    m("rules.mining.rules_found", "count", "higher", Exact),
    m("rules.evaluate.rule_ms", "ms", "lower", Timing),
    m("runtime.executor.map_overhead_us", "us", "lower", Timing),
    m("runtime.executor.busy_ms", "ms", "lower", Sched),
    m("runtime.executor.critical_path_ms", "ms", "lower", Sched),
    m("runtime.executor.idle_share", "ratio", "lower", Sched),
    m("runtime.executor.steals", "count", "lower", Sched),
    m("update_ms_p50", "ms", "lower", Timing),
    m("trace.self_ms_per_op.benchmark", "ms", "lower", Timing),
    m("trace.self_ms_per_op.graph.store", "ms", "lower", Timing),
    m("trace.self_ms_per_op.core.engine", "ms", "lower", Timing),
    m("trace.self_ms_per_op.core.engine.exec", "ms", "lower", Timing),
    m("trace.self_ms_per_op.core.engine.registry", "ms", "lower", Timing),
    m("trace.self_ms_per_op.core.engine.view", "ms", "lower", Timing),
    m("trace.self_ms_per_op.rules.mining", "ms", "lower", Timing),
    m("trace_overhead_frac", "ratio", "lower", Timing),
];

/// Layers whose self time per op a traced run reports (the layers a timed
/// op can call into; set-up-only layers show in the trace file).
pub const TRACED_LAYERS: &[&str] = &[
    "benchmark",
    "graph.store",
    "core.engine",
    "core.engine.exec",
    "core.engine.registry",
    "core.engine.view",
    "rules.mining",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_short_and_traced_layers_are_listed() {
        let mut seen = HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for layer in TRACED_LAYERS {
            let name = format!("trace.self_ms_per_op.{layer}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
