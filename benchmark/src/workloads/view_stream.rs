//! `view_stream` — a view repair: six materialized answers kept current
//! under a stream of update batches of mixed sizes.
//!
//! Chosen because it is the write-heavy mirror of `serve_live`: overlay
//! apply, compactions (the store's and each view's own), the replay log
//! and ball-local repair do the work, and full matching does almost none.

use std::collections::HashSet;

use qgp_core::engine::{Engine, ExecOptions, MatchView};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::pattern::{library, Pattern};
use qgp_graph::{EdgeOp, Graph, GraphStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{Ctx, Plan, Recorder, Spec, Workload, BLOCKS};
use crate::inputs::{
    fingerprint_graph, fingerprint_patterns, generated_patterns, hash_ops, rebuild_graph, shuffle,
    sub_seed, Dataset, Edge, Family, Fingerprint, Fnv, UpdateStream,
};

/// Batch sizes of one scheduling unit of 20 batches: 8 × 1, 8 × 10,
/// 3 × 100, 1 × 1000 (40 / 40 / 15 / 5 %).  Every block is a whole number
/// of units in seeded order, so each block applies the same number of ops
/// and p50 / p90 fall inside the 10- and 100-op groups, not on the border
/// between two sizes.
const UNIT: [usize; 20] = [
    1, 1, 1, 1, 1, 1, 1, 1, 10, 10, 10, 10, 10, 10, 10, 10, 100, 100, 100, 1000,
];

/// Sizes the two generated views are drawn from.
const SIZES: &[(usize, usize, f64, usize)] = &[(4, 4, 30.0, 0), (4, 5, 30.0, 1), (5, 5, 50.0, 0)];

pub struct ViewStream {
    store: GraphStore,
    base: Graph,
    patterns: Vec<Pattern>,
    views: Vec<MatchView>,
    /// One update batch per step.
    updates: Vec<Vec<EdgeOp>>,
    /// Step after which the mid-run check happens.
    mid_step: usize,
    steps_done: usize,
    /// Timed ops since the last check that passed (they are the ones a
    /// failed check condemns).
    unchecked_ops: usize,
    block_steps: usize,
    compactions_seen: usize,
}

pub fn patterns() -> Vec<Pattern> {
    let mut out = vec![
        library::q4_uk_professors(1),
        library::q4_uk_professors(2),
        library::q4_uk_professors(3),
        library::q5_non_uk_professors(),
    ];
    out.extend(generated_patterns(Family::Yago, SIZES, 2, 2));
    out
}

impl ViewStream {
    /// Compares every view with a query over a graph rebuilt from scratch
    /// with `GraphBuilder` from the mirrored live edge set — the starting
    /// edges with every batch applied so far replayed over them with set
    /// semantics; returns whether all agree.
    fn views_match(&self, smoke: bool) -> bool {
        let mut live: HashSet<Edge> = self.base.edges().map(|e| (e.from, e.to, e.label)).collect();
        for op in self.updates[..self.steps_done].iter().flatten() {
            let edge = (op.from(), op.to(), op.label());
            if op.is_insert() {
                live.insert(edge);
            } else {
                live.remove(&edge);
            }
        }
        let rebuilt = rebuild_graph(&self.base, &live.into_iter().collect::<Vec<_>>());
        let engine = Engine::new(&rebuilt);
        self.views.iter().zip(&self.patterns).all(|(view, p)| {
            let Ok(answer) = engine
                .prepare(p)
                .and_then(|mut q| q.run(ExecOptions::sequential()))
            else {
                return false;
            };
            view.matches() == &answer.matches[..]
                && (!smoke || answer.matches == evaluate_reference(&rebuilt, p))
        })
    }
}

impl Workload for ViewStream {
    fn plan(spec: &Spec) -> Plan {
        Plan {
            dataset: Dataset {
                family: Family::Yago,
                persons: if spec.smoke { 300 } else { 20_000 },
                seed: spec.seed,
            },
            block_steps: spec.block_steps(80, UNIT.len(), 1),
            ops_per_step: 1,
        }
    }

    fn setup(ctx: &Ctx, plan: &Plan) -> Self {
        let t = &ctx.tracer;
        let graph = t.span("datasets:generate", || plan.dataset.generate());
        let steps = plan.total_steps();
        let mid_step = plan.block_steps * (1 + BLOCKS / 2) - 1;

        let updates = t.span("benchmark:schedule", || {
            let mut rng = StdRng::seed_from_u64(sub_seed(ctx.spec.seed, 30));
            let mut stream = UpdateStream::new(&graph, sub_seed(ctx.spec.seed, 31));
            let mut updates = Vec::with_capacity(steps);
            while updates.len() < steps {
                let mut unit = UNIT;
                shuffle(&mut unit, &mut rng);
                updates.extend(unit.map(|size| stream.next_batch(size)));
            }
            updates
        });

        let patterns = t.span("benchmark:pattern_pool", patterns);
        let compactions_seen = graph.update_stats().compactions;
        let base = graph.clone();
        let store = t.span("graph.store:new", || GraphStore::new(graph));
        let engine = Engine::from_store(&store);
        let views = patterns
            .iter()
            .map(|p| {
                let prepared = t
                    .span("core.engine:prepare", || engine.prepare(p))
                    .expect("view patterns validate");
                t.span("core.engine.view:materialize", || prepared.view())
            })
            .collect();

        ViewStream {
            store,
            base,
            patterns,
            views,
            updates,
            mid_step,
            steps_done: 0,
            unchecked_ops: 0,
            block_steps: plan.block_steps,
            compactions_seen,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut stream = Fnv::new();
        for ops in &self.updates {
            hash_ops(&mut stream, ops);
        }
        Fingerprint {
            nodes: self.base.node_count(),
            edges: self.base.edge_count(),
            graph: fingerprint_graph(&self.base),
            patterns: fingerprint_patterns(&self.patterns),
            stream: stream.finish(),
        }
    }

    fn step(&mut self, ctx: &Ctx, i: usize, rec: &mut Recorder) {
        let t = &ctx.tracer;
        let (store, views, ops) = (&self.store, &mut self.views, &self.updates[i]);
        let mut update = None;
        // One op: the batch applied and reflected in all six answers.
        let (repaired, latency) = t.timed("benchmark:op", || {
            let (applied, took) = t.timed("graph.store:apply", || store.apply(ops));
            update = Some(took);
            applied.ok()?;
            let mut deltas = Vec::with_capacity(views.len());
            for view in views.iter_mut() {
                let delta = t.span("core.engine.view:advance", || {
                    view.advance_with(store, &ctx.rt)
                });
                deltas.push(delta.ok()?);
            }
            Some(deltas)
        });
        rec.op(latency, 1, ops.len() as u32);
        // The update is part of the op, so it is a latency sample of its
        // own but not busy time twice.
        if let Some(took) = update {
            rec.update_ms.push(took.as_secs_f64() * 1e3);
        }
        match repaired {
            Some(deltas) => {
                for d in &deltas {
                    rec.counts.rechecked += d.rechecked;
                    rec.counts.changed += d.added.len() + d.removed.len();
                    rec.counts.view_repairs += 1;
                }
            }
            None => rec.fail(1),
        }
        rec.counts
            .observe_overlay(store.snapshot().graph(), &mut self.compactions_seen);

        self.steps_done = i + 1;
        if i >= self.block_steps {
            self.unchecked_ops += 1;
        }
        if i == self.mid_step {
            if !self.views_match(ctx.spec.smoke) {
                rec.fail(self.unchecked_ops);
            }
            self.unchecked_ops = 0;
        }
    }

    fn check(&mut self, ctx: &Ctx, rec: &mut Recorder) {
        if !self.views_match(ctx.spec.smoke) {
            rec.fail(self.unchecked_ops);
        }
        self.unchecked_ops = 0;
    }

    fn probe_graph(&self) -> Graph {
        self.base.clone()
    }

    fn class_label(&self, class: u32) -> String {
        format!("batch of {class}")
    }
}
