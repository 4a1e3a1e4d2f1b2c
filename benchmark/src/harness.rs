//! The part every workload shares: repeated set-up, an untimed warm-up, a
//! fixed sequence of steps in ten equal-count blocks, checks outside the
//! timed regions, and the metrics computed from what was recorded.
//!
//! A *step* is the workload's unit of sequencing (one query, one serving
//! round, one update batch, one mining run); it performs a constant number
//! of *ops* — the unit latency and throughput are reported in.  The number
//! of steps is a constant of the workload scaled by `--seconds`, never
//! derived from the clock, so every run of one seed times identical ops
//! and a percentile lands on the same kind of op every time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qgp_core::matching::MatchStats;
use qgp_graph::Graph;
use qgp_runtime::Runtime;

use crate::inputs::{Dataset, Fingerprint};
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{self, Block};
use crate::trace::Tracer;

/// Timed blocks per run; the warm-up is one more block that is not timed.
pub const BLOCKS: usize = 10;

/// Worker threads of the runtime every workload hands the engine.  Fixed
/// and explicit: `QGP_THREADS` is never consulted.
///
/// One, not this host's two: the two virtual cores of the sandbox deliver
/// anything between one and two cores' worth of work depending on what the
/// host is doing (the same four-request `serve` batch takes 15 ms or 26 ms
/// on two workers for minutes at a time, and 26 ms ± 5 % on one), so any
/// number that contains a two-thread speed-up cannot repeat between two
/// sets of runs.  What two threads buy is measured by the layer probes of
/// the traced run ([`PROBE_THREADS`]), reported with its spread, unbounded.
pub const RUNTIME_THREADS: usize = 1;

/// Worker threads of the runtime the parallelism probes use.
pub const PROBE_THREADS: usize = 2;

/// `--seconds` the per-workload step counts are calibrated for.
pub const NOMINAL_SECONDS: u64 = 20;

/// The four workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PqmatchCold,
    ServeLive,
    ViewStream,
    MineRules,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PqmatchCold,
        Kind::ServeLive,
        Kind::ViewStream,
        Kind::MineRules,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PqmatchCold => "pqmatch_cold",
            Kind::ServeLive => "serve_live",
            Kind::ViewStream => "view_stream",
            Kind::MineRules => "mine_rules",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One run's arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    /// Tiny inputs, few steps, and every answer also compared with the
    /// brute-force reference — what the package's tests run.
    pub smoke: bool,
}

impl Spec {
    /// Scales a per-block step count calibrated for [`NOMINAL_SECONDS`] to
    /// this run's `--seconds`, keeping it a multiple of `multiple` (the
    /// size of the unit a block must hold whole, e.g. one pass over the
    /// pattern pool) so every block has the same composition, and never
    /// below the [`stats::MIN_BEYOND`] ops per block that p90 needs — a
    /// short `--seconds` shortens a run only down to that floor.
    pub fn block_steps(&self, nominal: usize, multiple: usize, ops_per_step: usize) -> usize {
        if self.smoke {
            return multiple;
        }
        let scaled = (nominal as u64 * self.seconds / NOMINAL_SECONDS) as usize;
        let floor = stats::MIN_BEYOND.div_ceil(ops_per_step);
        (scaled / multiple).max(floor.div_ceil(multiple)).max(1) * multiple
    }

    /// The size tag fingerprints are pinned under.
    pub fn size_tag(&self) -> String {
        if self.smoke {
            "smoke".to_owned()
        } else {
            format!("{}s", self.seconds)
        }
    }
}

/// What a workload runs on and how long its blocks are.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub dataset: Dataset,
    /// Steps per block; the sequence is `(BLOCKS + 1) × block_steps` long.
    pub block_steps: usize,
    /// Ops each step performs.
    pub ops_per_step: usize,
}

impl Plan {
    pub fn total_steps(&self) -> usize {
        (BLOCKS + 1) * self.block_steps
    }
}

/// Shared by every call into a workload.
pub struct Ctx {
    pub spec: Spec,
    pub rt: Runtime,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(spec: Spec, tracer: Tracer) -> Self {
        Ctx {
            spec,
            rt: Runtime::new(RUNTIME_THREADS),
            tracer,
        }
    }
}

/// Counts made at the same boundaries as the spans.  Everything here must
/// repeat exactly between two runs of one seed, except what depends on how
/// two threads interleave (`stats.sessions_built`).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Σ `MatchStats` over the ops that report them.
    pub stats: MatchStats,
    pub stat_ops: usize,
    /// Σ `ViewDelta::rechecked` / membership changes, over view repairs.
    pub rechecked: usize,
    pub changed: usize,
    pub view_repairs: usize,
    pub pairs_explored: usize,
    pub rules_found: usize,
    pub mining_runs: usize,
    /// Overlay compactions of the store's working graph, and the largest
    /// overlay seen, over the recorded steps.
    pub compactions: usize,
    pub pending_max: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counts {
    /// Reads the overlay gauges off a store's head graph: compactions since
    /// the last look (`seen` carries the lifetime count between looks) and
    /// the pending overlay size.
    pub fn observe_overlay(&mut self, head: &Graph, seen: &mut usize) {
        let compactions = head.update_stats().compactions;
        self.compactions += compactions - *seen;
        *seen = compactions;
        self.pending_max = self.pending_max.max(head.pending_updates());
    }
}

/// What the steps of one phase recorded.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// One entry per op (ops that shared a batch share its latency).
    pub op_ms: Vec<f64>,
    /// The kind of op behind each entry of `op_ms`, in the workload's own
    /// numbering (pattern, batch size, config …) — so the record can say
    /// which kind of op each percentile landed on.
    pub op_class: Vec<u32>,
    pub update_ms: Vec<f64>,
    pub ops: usize,
    pub failed: usize,
    /// Σ of every timed region (ops and updates).
    pub busy: Duration,
    pub counts: Counts,
}

impl Recorder {
    /// Records `ops` ops of one class that completed together after
    /// `latency`.
    pub fn op(&mut self, latency: Duration, ops: usize, class: u32) {
        let ms = latency.as_secs_f64() * 1e3;
        self.op_ms.extend(std::iter::repeat_n(ms, ops));
        self.op_class.extend(std::iter::repeat_n(class, ops));
        self.ops += ops;
        self.busy += latency;
    }

    /// Records one update: its own latency sample, and busy time.
    pub fn update(&mut self, latency: Duration) {
        self.update_ms.push(latency.as_secs_f64() * 1e3);
        self.busy += latency;
    }

    pub fn fail(&mut self, ops: usize) {
        self.failed += ops;
    }
}

/// One workload: how to set it up, run step `i`, and check it.
pub trait Workload: Sized {
    fn plan(spec: &Spec) -> Plan;

    /// Everything before the first timed op: generate and build the graph,
    /// wrap it, partition, prepare / register / materialize, generate the
    /// op schedule and the update stream.
    fn setup(ctx: &Ctx, plan: &Plan) -> Self;

    /// Hashes of the generated inputs (computed outside any timed region).
    fn fingerprint(&self) -> Fingerprint;

    /// Runs step `i` of the sequence, recording its timed regions.  Checks
    /// that need the step's own outputs happen here, after the timer stops.
    fn step(&mut self, ctx: &Ctx, i: usize, rec: &mut Recorder);

    /// End-of-run checks; failures are added to `rec`.
    fn check(&mut self, ctx: &Ctx, rec: &mut Recorder);

    /// The graph the layer probes of a traced run should use.
    fn probe_graph(&self) -> Graph;

    /// What the ops of a class (see [`Recorder::op_class`]) are.
    fn class_label(&self, class: u32) -> String;
}

/// Per class of op: how many were timed and their median latency; and the
/// class of the op at the p50 and the p90 rank.
pub fn class_summary(rec: &Recorder, label: impl Fn(u32) -> String) -> Json {
    let mut by_class: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for (&ms, &class) in rec.op_ms.iter().zip(&rec.op_class) {
        by_class.entry(class).or_default().push(ms);
    }
    let mut order: Vec<usize> = (0..rec.op_ms.len()).collect();
    order.sort_by(|&a, &b| rec.op_ms[a].total_cmp(&rec.op_ms[b]));
    let class_at = |p: f64| {
        let rank = ((p / 100.0 * order.len() as f64).ceil() as usize).clamp(1, order.len().max(1));
        order
            .get(rank - 1)
            .map_or(Json::Null, |&i| Json::str(label(rec.op_class[i])))
    };
    Json::obj([
        ("p50_lands_on", class_at(50.0)),
        ("p90_lands_on", class_at(90.0)),
        (
            "classes",
            Json::Arr(
                by_class
                    .iter()
                    .map(|(&class, ms)| {
                        Json::obj([
                            ("class", Json::str(label(class))),
                            ("ops", Json::from(ms.len())),
                            ("p50_ms", stats::median(ms).map_or(Json::Null, Json::Num)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Set-up time as the median of `k` in-process repetitions of the whole
/// set-up, `k = clamp(⌈3 s ÷ first repetition⌉, 3, 15)`; returns the last
/// repetition's workload.  Earlier repetitions are dropped before the next
/// starts, so peak memory is one set-up's.
pub fn repeated_setup<W: Workload>(ctx: &Ctx, plan: &Plan) -> (W, Vec<f64>) {
    // The first ~100 ms of a process's life run two to three times slower
    // on this host (the virtual core ramps up); a set-up that takes 5 ms
    // would spend half of its repetitions inside that ramp.  Busy-wait it
    // out before the first repetition.
    if !ctx.spec.smoke {
        let ramp = Instant::now();
        while ramp.elapsed() < Duration::from_millis(300) {
            std::hint::spin_loop();
        }
    }
    let mut times = Vec::new();
    let mut reps = 3;
    let mut kept = None;
    while times.len() < reps {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(W::setup(ctx, plan));
        times.push(start.elapsed().as_secs_f64());
        if times.len() == 1 && !ctx.spec.smoke {
            reps = ((3.0 / times[0].max(1e-9)).ceil() as usize).clamp(3, 15);
        }
    }
    (kept.expect("at least three repetitions ran"), times)
}

/// The measured part of a run.
pub struct Measured {
    pub timed: Recorder,
    pub blocks: Vec<Block>,
    /// Blocks not run because the timed phase outlasted its safety cap.
    pub blocks_skipped: usize,
    pub timed_wall: Duration,
}

/// Runs the warm-up block untimed, then up to `blocks` timed blocks.  The
/// only clock that can cut the fixed sequence short is the safety cap of
/// three times `--seconds` (at least 45 s, at most 90 s), which keeps a
/// badly regressed build inside the driver's per-run limit; a run that hits
/// it reports fewer blocks.
pub fn run_sequence<W: Workload>(ctx: &Ctx, plan: &Plan, w: &mut W, blocks: usize) -> Measured {
    let mut warmup = Recorder::default();
    for i in 0..plan.block_steps {
        ctx.tracer.set_op(0);
        w.step(ctx, i, &mut warmup);
    }

    let cap = Duration::from_secs((ctx.spec.seconds * 3).clamp(45, 90));
    let mut timed = Recorder::default();
    let mut done = Vec::with_capacity(blocks);
    let start = Instant::now();
    for b in 0..blocks {
        if start.elapsed() > cap {
            break;
        }
        let (ops0, busy0) = (timed.ops, timed.busy);
        for i in (b + 1) * plan.block_steps..(b + 2) * plan.block_steps {
            ctx.tracer.set_op((i - plan.block_steps + 1) as u64);
            w.step(ctx, i, &mut timed);
        }
        done.push(Block {
            ops: timed.ops - ops0,
            busy_secs: (timed.busy - busy0).as_secs_f64(),
        });
    }
    Measured {
        blocks_skipped: blocks - done.len(),
        blocks: done,
        timed,
        timed_wall: start.elapsed(),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric value with its unit, as printed and as written to the
/// result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order,
/// with the sample count behind each.
pub fn end_to_end_metrics(
    setup_times: &[f64],
    m: &Measured,
    smoke: bool,
) -> Result<(Vec<Metric>, BTreeMap<String, usize>), String> {
    let mut samples = BTreeMap::new();
    let mut pct = |name: &str, p: f64| -> Result<f64, String> {
        let got = stats::percentile(&m.timed.op_ms, p).ok_or("no op was timed")?;
        if !smoke && !got.supported() {
            return Err(format!(
                "{name}: only {} samples beyond the percentile of {} (need {})",
                got.beyond,
                m.timed.op_ms.len(),
                stats::MIN_BEYOND
            ));
        }
        samples.insert(name.to_owned(), m.timed.op_ms.len());
        Ok(got.value)
    };
    let p50 = pct("op_ms_p50", 50.0)?;
    let p90 = pct("op_ms_p90", 90.0)?;
    let throughput = stats::block_median_throughput(&m.blocks).ok_or("no block was timed")?;
    let setup = stats::median(setup_times).ok_or("set-up was not timed")?;
    samples.insert("setup_s".to_owned(), setup_times.len());
    samples.insert("ops_per_s".to_owned(), m.blocks.len());
    samples.insert("peak_rss_mb".to_owned(), 1);
    // In the order (and with the names and units) `END_TO_END` declares.
    let values = [setup, p50, p90, throughput, peak_rss_mib()];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric::new(name, value, unit))
        .collect();
    Ok((metrics, samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_scale_with_seconds_in_whole_units() {
        let spec = |seconds, smoke| Spec {
            kind: Kind::PqmatchCold,
            seed: 1,
            seconds,
            smoke,
        };
        assert_eq!(spec(20, false).block_steps(200, 25, 1), 200);
        assert_eq!(spec(10, false).block_steps(200, 25, 1), 100);
        assert_eq!(spec(1, false).block_steps(200, 25, 1), 25);
        assert_eq!(spec(7, false).block_steps(200, 25, 1), 50);
        assert_eq!(spec(20, true).block_steps(200, 25, 1), 25);
        // Never fewer than ten ops a block: p90 needs a hundred timed ops.
        assert_eq!(spec(1, false).block_steps(15, 5, 1), 10);
        assert_eq!(spec(1, false).block_steps(8, 1, 32), 1);
        assert_eq!(spec(60, false).block_steps(15, 5, 1), 45);
        assert_eq!(Kind::parse("view_stream"), Some(Kind::ViewStream));
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn batched_ops_share_a_latency_and_updates_count_as_busy_time() {
        let mut rec = Recorder::default();
        rec.update(Duration::from_millis(2));
        rec.op(Duration::from_millis(8), 4, 7);
        rec.fail(1);
        assert_eq!(rec.op_ms, vec![8.0; 4]);
        assert_eq!(rec.op_class, vec![7; 4]);
        assert_eq!(rec.update_ms, vec![2.0]);
        assert_eq!((rec.ops, rec.failed), (4, 1));
        assert_eq!(rec.busy, Duration::from_millis(10));

        rec.op(Duration::from_millis(1), 5, 3);
        let summary = class_summary(&rec, |c| format!("class {c}"));
        // Nine ops sorted: five at 1 ms, four at 8 ms; p50 is the fifth.
        assert_eq!(summary.get("p50_lands_on"), Some(&Json::str("class 3")));
        assert_eq!(summary.get("p90_lands_on"), Some(&Json::str("class 7")));
        assert_eq!(
            summary
                .get("classes")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
