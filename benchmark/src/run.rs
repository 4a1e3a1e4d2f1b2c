//! One run of one workload: the untraced end-to-end run, or the traced run
//! with its layer probes.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::{
    class_summary, end_to_end_metrics, repeated_setup, run_sequence, Ctx, Kind, Measured, Metric,
    Plan, Spec, Workload, BLOCKS, RUNTIME_THREADS,
};
use crate::inputs::Fingerprint;
use crate::json::Json;
use crate::metrics::{PER_LAYER, TRACED_LAYERS};
use crate::probes;
use crate::record;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{MineRules, PqmatchCold, ServeLive, ViewStream};

/// Pinned input fingerprints, one `workload seed size nodes edges graph
/// patterns stream` line each (see `Fingerprint::line`).
const PINNED: &str = include_str!("../fingerprints.txt");

/// What a run hands back to `main`.
pub struct RunOutput {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// The run record: provenance, op and sample counts, fingerprints.
    pub record: Json,
    /// Spans and self times of a traced run.
    pub trace: Option<Json>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .to_line()
    }
}

pub fn run(spec: Spec, trace: bool) -> Result<RunOutput, String> {
    match (spec.kind, trace) {
        (Kind::PqmatchCold, false) => end_to_end::<PqmatchCold>(spec),
        (Kind::ServeLive, false) => end_to_end::<ServeLive>(spec),
        (Kind::ViewStream, false) => end_to_end::<ViewStream>(spec),
        (Kind::MineRules, false) => end_to_end::<MineRules>(spec),
        (Kind::PqmatchCold, true) => traced::<PqmatchCold>(spec),
        (Kind::ServeLive, true) => traced::<ServeLive>(spec),
        (Kind::ViewStream, true) => traced::<ViewStream>(spec),
        (Kind::MineRules, true) => traced::<MineRules>(spec),
    }
}

/// Fails loudly when the generated inputs differ from the pinned ones for
/// this (workload, seed, size); unpinned combinations pass.
fn check_fingerprint(spec: &Spec, got: &Fingerprint) -> Result<(), String> {
    let line = got.line(spec.kind.name(), spec.seed, &spec.size_tag());
    let key: Vec<&str> = line.split(' ').take(3).collect();
    for pinned in PINNED.lines().map(str::trim) {
        if pinned.starts_with('#') || pinned.is_empty() {
            continue;
        }
        if pinned.split(' ').take(3).eq(key.iter().copied()) && pinned != line {
            return Err(format!(
                "input fingerprint mismatch — the generated load changed\n  pinned: {pinned}\n  got:    {line}\n\
                 If the change to the generators is intended, re-pin benchmark/fingerprints.txt \
                 and re-measure the baseline."
            ));
        }
    }
    Ok(())
}

/// The fields every run record starts with: provenance, dataset, input
/// fingerprint and op counts.
fn record_head(
    spec: &Spec,
    plan: &Plan,
    fingerprint: &Fingerprint,
    m: &Measured,
) -> Vec<(String, Json)> {
    let line = fingerprint.line(spec.kind.name(), spec.seed, &spec.size_tag());
    [
        ("provenance", record::provenance(spec, RUNTIME_THREADS)),
        ("dataset", Json::str(plan.dataset.name())),
        ("persons", Json::from(plan.dataset.persons)),
        ("fingerprint", Json::str(line)),
        ("counts", counts_json(plan, m)),
    ]
    .map(|(k, v)| (k.to_owned(), v))
    .into()
}

fn counts_json(plan: &Plan, m: &Measured) -> Json {
    Json::obj([
        ("block_steps", Json::from(plan.block_steps)),
        ("ops_per_step", Json::from(plan.ops_per_step)),
        (
            "warmup_ops",
            Json::from(plan.block_steps * plan.ops_per_step),
        ),
        ("timed_ops", Json::from(m.timed.ops)),
        ("blocks", Json::from(m.blocks.len())),
        ("blocks_skipped", Json::from(m.blocks_skipped)),
        ("update_samples", Json::from(m.timed.update_ms.len())),
        ("timed_wall_s", Json::Num(m.timed_wall.as_secs_f64())),
    ])
}

fn end_to_end<W: Workload>(spec: Spec) -> Result<RunOutput, String> {
    let ctx = Ctx::new(spec, Tracer::disabled());
    let plan = W::plan(&spec);
    let (mut w, setup_times) = repeated_setup::<W>(&ctx, &plan);
    let fingerprint = w.fingerprint();
    check_fingerprint(&spec, &fingerprint)?;

    let mut m = run_sequence(&ctx, &plan, &mut w, BLOCKS);
    w.check(&ctx, &mut m.timed);
    let (metrics, samples) = end_to_end_metrics(&setup_times, &m, spec.smoke)?;

    let mut record = record_head(&spec, &plan, &fingerprint, &m);
    record.extend(
        [
            ("op_classes", class_summary(&m.timed, |c| w.class_label(c))),
            (
                "op_ms_deciles",
                Json::Arr(
                    (1..10)
                        .filter_map(|d| percentile(&m.timed.op_ms, f64::from(d) * 10.0))
                        .map(|p| Json::Num(p.value))
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::obj(samples.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
            (
                "setup_repetitions_s",
                Json::Arr(setup_times.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "update_ms_p50",
                median(&m.timed.update_ms).map_or(Json::Null, Json::Num),
            ),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );
    Ok(RunOutput {
        attempted: m.timed.ops,
        failed: m.timed.failed.min(m.timed.ops),
        metrics,
        record: Json::Obj(record),
        trace: None,
    })
}

/// The traced run: the warm-up and the first block, once untraced (the
/// reference for the tracing overhead) and once with a span around every
/// call into the stack; then the layer probes on the workload's graph.
fn traced<W: Workload>(spec: Spec) -> Result<RunOutput, String> {
    let plan = W::plan(&spec);
    let reference = {
        let ctx = Ctx::new(spec, Tracer::disabled());
        let mut w = W::setup(&ctx, &plan);
        run_sequence(&ctx, &plan, &mut w, 1)
    };

    let ctx = Ctx::new(spec, Tracer::enabled());
    let start = Instant::now();
    let mut w = W::setup(&ctx, &plan);
    let setup_s = start.elapsed().as_secs_f64();
    let fingerprint = w.fingerprint();
    check_fingerprint(&spec, &fingerprint)?;
    let mut m = run_sequence(&ctx, &plan, &mut w, 1);
    w.check(&ctx, &mut m.timed);
    let graph = w.probe_graph();
    drop(w);

    ctx.tracer.set_op(0);
    let mut values: BTreeMap<&'static str, f64> = probes::run(&ctx, &plan.dataset, &graph);

    // Counts made at the span boundaries of the traced block, per op.
    let c = &m.timed.counts;
    let per = |total: usize, n: usize| total as f64 / n.max(1) as f64;
    let s = &c.stats;
    for (name, value) in [
        (
            "core.matching.focus_candidates",
            per(s.focus_candidates, c.stat_ops),
        ),
        (
            "core.matching.focus_verified",
            per(s.focus_verified, c.stat_ops),
        ),
        (
            "core.matching.verifications",
            per(s.verifications, c.stat_ops),
        ),
        (
            "core.matching.isomorphisms_found",
            per(s.isomorphisms_found, c.stat_ops),
        ),
        (
            "core.matching.pruned_by_simulation",
            per(s.pruned_by_simulation, c.stat_ops),
        ),
        (
            "core.matching.pruned_by_upper_bound",
            per(s.pruned_by_upper_bound, c.stat_ops),
        ),
        (
            "core.matching.sessions_built",
            per(s.sessions_built, c.stat_ops),
        ),
        (
            "core.matching.matches_per_verified",
            per(s.isomorphisms_found, s.verifications),
        ),
        (
            "core.engine.count.threshold_exits",
            per(s.threshold_exits, c.stat_ops),
        ),
        (
            "core.engine.count.children_counted",
            per(s.children_counted, c.stat_ops),
        ),
        ("core.engine.registry.cache_hits", c.cache_hits as f64),
        ("core.engine.registry.cache_misses", c.cache_misses as f64),
        (
            "core.engine.view.rechecked_per_batch",
            per(c.rechecked, c.view_repairs),
        ),
        (
            "core.engine.view.changed_per_rechecked",
            per(c.changed, c.rechecked),
        ),
        ("graph.delta.compactions", c.compactions as f64),
        ("graph.delta.pending_max", c.pending_max as f64),
        (
            "rules.mining.pairs_explored",
            per(c.pairs_explored, c.mining_runs),
        ),
        (
            "rules.mining.rules_found",
            per(c.rules_found, c.mining_runs),
        ),
        ("update_ms_p50", median(&m.timed.update_ms).unwrap_or(0.0)),
        (
            "trace_overhead_frac",
            m.timed.busy.as_secs_f64() / reference.timed.busy.as_secs_f64().max(1e-12) - 1.0,
        ),
    ] {
        values.insert(name, value);
    }

    // Self time per layer over the traced block's ops, per op.
    let own = ctx.tracer.self_time_by_layer(|op| op >= 1);
    let self_names: Vec<String> = TRACED_LAYERS
        .iter()
        .map(|l| format!("trace.self_ms_per_op.{l}"))
        .collect();
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for spec_m in PER_LAYER {
        let value = match self_names.iter().position(|n| n == spec_m.name) {
            Some(i) => {
                let total = own.get(TRACED_LAYERS[i]).copied().unwrap_or_default();
                total.as_secs_f64() * 1e3 / m.timed.ops.max(1) as f64
            }
            None => *values
                .get(spec_m.name)
                .ok_or_else(|| format!("no value was measured for {}", spec_m.name))?,
        };
        metrics.push(Metric::new(spec_m.name, value, spec_m.unit));
    }

    let self_ms = Json::obj(
        ctx.tracer
            .self_time_by_layer(|_| true)
            .into_iter()
            .map(|(layer, d)| (layer, Json::Num(d.as_secs_f64() * 1e3))),
    );
    let mut record = record_head(&spec, &plan, &fingerprint, &m);
    record.extend(
        [
            ("traced_setup_s", setup_s),
            ("untraced_block_busy_s", reference.timed.busy.as_secs_f64()),
            ("traced_block_busy_s", m.timed.busy.as_secs_f64()),
        ]
        .map(|(k, v)| (k.to_owned(), Json::Num(v))),
    );
    let trace = Json::obj([
        ("workload", Json::str(spec.kind.name())),
        ("seed", Json::from(spec.seed)),
        (
            "note",
            Json::str(
                "op 0 = set-up, warm-up and layer probes; ops 1.. = steps of the first timed block",
            ),
        ),
        ("self_ms_by_layer", self_ms),
        ("spans", ctx.tracer.to_json()),
    ]);
    Ok(RunOutput {
        attempted: m.timed.ops,
        failed: m.timed.failed.min(m.timed.ops),
        metrics,
        record: Json::Obj(record),
        trace: Some(trace),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_fingerprint_that_differs_fails_and_an_unpinned_one_passes() {
        let spec = Spec {
            kind: Kind::MineRules,
            seed: 1,
            seconds: 20,
            smoke: true,
        };
        let pinned = PINNED
            .lines()
            .find(|l| l.starts_with("mine_rules 1 smoke "))
            .expect("the smoke inputs of seed 1 are pinned");
        let mut fields = pinned.split(' ').skip(3);
        let mut next = |radix| u64::from_str_radix(fields.next().unwrap(), radix).unwrap();
        let good = Fingerprint {
            nodes: next(10) as usize,
            edges: next(10) as usize,
            graph: next(16),
            patterns: next(16),
            stream: next(16),
        };
        assert!(check_fingerprint(&spec, &good).is_ok());
        let bad = Fingerprint {
            edges: good.edges + 1,
            ..good
        };
        let err = check_fingerprint(&spec, &bad).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let unpinned = Spec {
            seed: 987_654,
            ..spec
        };
        assert!(check_fingerprint(&unpinned, &bad).is_ok());
    }
}
