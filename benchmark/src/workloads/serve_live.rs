//! `serve_live` — a served request: registered queries answered in small
//! batches against a graph that takes one light update batch per round.
//!
//! Chosen because registry priming per epoch, the Π(Q) cache, session
//! eviction (far more epochs than `MAX_CACHED_SESSIONS` = 8), the
//! per-query mutex on duplicate requests and overlay reads dominate, and
//! the writer is light.  Closed loop, one client: the next batch is sent
//! when the previous one has been answered.

use std::sync::Arc;

use qgp_core::engine::{Engine, ExecOptions, QueryId, QueryRegistry, ServeOutcome, ServeRequest};
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::CountMode;
use qgp_core::pattern::{CountingQuantifier, Pattern};
use qgp_graph::{EdgeOp, Graph, GraphSnapshot, GraphStore, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{Ctx, Plan, Recorder, Spec, Workload, BLOCKS};
use crate::inputs::{
    fingerprint_graph, fingerprint_patterns, followee_query, hash_ops, shuffle, sub_seed,
    zipf_counts, Dataset, Family, Fingerprint, Fnv, UpdateStream,
};

/// Registered queries, in threshold families that share one projection.
pub const QUERIES: usize = 24;
/// Requests served per round (one round = one published epoch).
const REQUESTS_PER_ROUND: usize = 32;
/// Requests per `serve` call.
const BATCH: usize = 4;
/// Edge ops per update batch.
const UPDATE_OPS: usize = 10;
/// Rounds after which outcomes are compared with a one-shot recompute:
/// five spread over the timed phase, plus its last round.
const CHECKPOINTS: usize = 6;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// The full answer (50 % of requests).
    Full,
    /// `limit(10)` (25 %).
    Limit10,
    /// `count(CountMode::ThresholdOnly)` (25 %).
    Count,
}

pub struct ServeLive {
    store: GraphStore,
    registry: QueryRegistry,
    patterns: Vec<Pattern>,
    ids: Vec<QueryId>,
    /// One update batch per round.
    updates: Vec<Vec<EdgeOp>>,
    /// `(query index, ask)` of every request, round-major.
    requests: Vec<(u32, Ask)>,
    block_steps: usize,
    /// Compactions of the store's working graph seen so far.
    compactions_seen: usize,
}

/// Is the `r`-th of `total` timed rounds (1-based) a checkpoint?  The
/// checkpoints are rounds `⌈k · total / CHECKPOINTS⌉`, so the last round
/// always is one.
fn is_checkpoint(r: usize, total: usize) -> bool {
    r >= 1 && (r * CHECKPOINTS) % total < CHECKPOINTS && r * CHECKPOINTS >= total
}

/// The 24 registered queries: six threshold families of four.  A family is
/// one body (`edge`, `target`) at two thresholds, each with two negated
/// branches.  The two members that differ only in the negated branch have
/// the same positive projection Π(Q) — quantifiers included — which is what
/// the registry's per-epoch candidate cache is keyed by, so when all four
/// are asked on an epoch the cache is missed twice and hit twice; the two
/// thresholds of a body are what ROADMAP item 3 wants served from one
/// count.  Families are interleaved so Zipf's popular ranks span all six.
pub fn queries() -> Vec<Pattern> {
    use CountingQuantifier as Q;
    let families: [(&str, &str, [Q; 2], [&str; 2]); 6] = [
        (
            "recom",
            "Redmi 2A",
            [Q::at_least(1), Q::at_least(3)],
            ["Redmi 2A", "Redmi 2"],
        ),
        (
            "like",
            "album",
            [Q::at_least_percent(50.0), Q::at_least_percent(80.0)],
            ["Mac", "PC"],
        ),
        (
            "recom",
            "Mac",
            [Q::at_least(2), Q::at_least_percent(50.0)],
            ["Mac", "camera"],
        ),
        (
            "buy",
            "album",
            [Q::at_least_percent(30.0), Q::at_least_percent(70.0)],
            ["PC", "headphones"],
        ),
        (
            "in",
            "music club",
            [Q::at_least(2), Q::at_least_percent(60.0)],
            ["Redmi 2A", "camera"],
        ),
        (
            "post",
            "PC",
            [Q::at_least(1), Q::at_least(2)],
            ["PC", "Redmi 2"],
        ),
    ];
    let mut out = Vec::with_capacity(QUERIES);
    for member in 0..4 {
        for (edge, target, thresholds, disliked) in &families {
            out.push(followee_query(
                edge,
                target,
                thresholds[member / 2],
                disliked[member % 2],
            ));
        }
    }
    out
}

impl ServeLive {
    fn request(&self, (query, ask): (u32, Ask)) -> ServeRequest {
        let req = ServeRequest::new(self.ids[query as usize]);
        match ask {
            Ask::Full => req,
            Ask::Limit10 => req.limit(10),
            Ask::Count => req.count(CountMode::ThresholdOnly),
        }
    }

    /// Compares a round's outcomes with a one-shot recompute on the pinned
    /// snapshot; returns how many requests were answered wrongly.
    fn verify_round(
        &self,
        snapshot: &Arc<GraphSnapshot>,
        requests: &[(u32, Ask)],
        outcomes: &[ServeOutcome],
        smoke: bool,
    ) -> usize {
        // Per query: not yet recomputed / the recompute itself is not to
        // be trusted (it failed, or disagrees with the reference) / answer.
        let mut recomputed: Vec<Option<Option<Vec<NodeId>>>> = vec![None; self.patterns.len()];
        let mut wrong = 0;
        for (&(query, ask), outcome) in requests.iter().zip(outcomes) {
            let full = recomputed[query as usize].get_or_insert_with(|| {
                let pattern = &self.patterns[query as usize];
                let answer = Engine::on(Arc::clone(snapshot))
                    .prepare(pattern)
                    .and_then(|mut q| q.run(ExecOptions::sequential()))
                    .ok()?;
                let trusted =
                    !smoke || answer.matches == evaluate_reference(snapshot.graph(), pattern);
                trusted.then_some(answer.matches)
            });
            let ok = match (&outcome.result, full, ask) {
                (Ok(a), Some(full), Ask::Full | Ask::Count) => a.matches == *full,
                (Ok(a), Some(full), Ask::Limit10) => {
                    a.matches.len() == full.len().min(10) && full.starts_with(&a.matches)
                }
                _ => false,
            };
            wrong += usize::from(!ok);
        }
        wrong
    }
}

impl Workload for ServeLive {
    fn plan(spec: &Spec) -> Plan {
        Plan {
            dataset: Dataset {
                family: Family::Pokec,
                persons: if spec.smoke { 300 } else { 10_000 },
                seed: spec.seed,
            },
            block_steps: spec.block_steps(8, 1, REQUESTS_PER_ROUND),
            ops_per_step: REQUESTS_PER_ROUND,
        }
    }

    fn setup(ctx: &Ctx, plan: &Plan) -> Self {
        let t = &ctx.tracer;
        let graph = t.span("datasets:generate", || plan.dataset.generate());
        let rounds = plan.total_steps();

        let (updates, requests) = t.span("benchmark:schedule", || {
            let mut stream = UpdateStream::new(&graph, sub_seed(ctx.spec.seed, 20));
            let updates: Vec<_> = (0..rounds).map(|_| stream.next_batch(UPDATE_OPS)).collect();
            // Every block asks for exactly the same requests — Zipf(1) over
            // the queries and 50 / 25 / 25 % over the asks, apportioned, not
            // drawn — in an order the seed shuffles; so every block of every
            // seed does the same amount of serving.
            let mut rng = StdRng::seed_from_u64(sub_seed(ctx.spec.seed, 21));
            let per_block = plan.block_steps * REQUESTS_PER_ROUND;
            let mut block: Vec<(u32, Ask)> = zipf_counts(QUERIES, per_block)
                .into_iter()
                .enumerate()
                .flat_map(|(q, n)| std::iter::repeat_n(q as u32, n))
                .zip(std::iter::repeat([Ask::Full, Ask::Limit10, Ask::Full, Ask::Count]).flatten())
                .collect();
            let mut requests = Vec::with_capacity(rounds * REQUESTS_PER_ROUND);
            while requests.len() < rounds * REQUESTS_PER_ROUND {
                shuffle(&mut block, &mut rng);
                requests.extend_from_slice(&block);
            }
            (updates, requests)
        });

        let compactions_seen = graph.update_stats().compactions;
        let store = t.span("graph.store:new", || GraphStore::new(graph));
        let engine = Engine::from_store(&store);
        let patterns = queries();
        let mut registry = QueryRegistry::new();
        let ids = patterns
            .iter()
            .map(|p| {
                let prepared = t
                    .span("core.engine:prepare", || engine.prepare(p))
                    .expect("family patterns validate");
                t.span("core.engine.registry:register", || {
                    registry.register(prepared)
                })
            })
            .collect();

        ServeLive {
            store,
            registry,
            patterns,
            ids,
            updates,
            requests,
            block_steps: plan.block_steps,
            compactions_seen,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut stream = Fnv::new();
        for ops in &self.updates {
            hash_ops(&mut stream, ops);
        }
        for &(query, ask) in &self.requests {
            stream.u64(u64::from(query));
            stream.u64(ask as u64);
        }
        // Called before the first step, while epoch 0 is still the head.
        let head = self.store.snapshot();
        Fingerprint {
            nodes: head.node_count(),
            edges: head.edge_count(),
            graph: fingerprint_graph(head.graph()),
            patterns: fingerprint_patterns(&self.patterns),
            stream: stream.finish(),
        }
    }

    fn step(&mut self, ctx: &Ctx, i: usize, rec: &mut Recorder) {
        let t = &ctx.tracer;
        let round = &self.requests[i * REQUESTS_PER_ROUND..(i + 1) * REQUESTS_PER_ROUND];
        let cache_before = self.registry.cache_stats();

        // The update: apply one batch, then pin the epoch it published.
        let (snapshot, update) = t.timed("benchmark:update", || {
            t.span("graph.store:apply", || self.store.apply(&self.updates[i]))
                .map(|_| t.span("graph.store:snapshot", || self.store.snapshot()))
        });
        rec.update(update);
        let Ok(snapshot) = snapshot else {
            rec.fail(REQUESTS_PER_ROUND);
            return;
        };
        rec.counts
            .observe_overlay(snapshot.graph(), &mut self.compactions_seen);

        let checkpoint = i >= self.block_steps
            && is_checkpoint(i - self.block_steps + 1, BLOCKS * self.block_steps);
        let mut outcomes = Vec::with_capacity(if checkpoint { REQUESTS_PER_ROUND } else { 0 });
        for (b, batch) in round.chunks(BATCH).enumerate() {
            let requests: Vec<ServeRequest> = batch.iter().map(|&r| self.request(r)).collect();
            let (served, latency) = t.timed("core.engine.registry:serve", || {
                self.registry.serve(&snapshot, &requests, &ctx.rt)
            });
            rec.op(latency, batch.len(), u32::from(b == 0));
            for outcome in &served {
                match &outcome.result {
                    Ok(answer) if !answer.truncated => {
                        rec.counts.stats += answer.stats;
                        rec.counts.stat_ops += 1;
                    }
                    _ if !checkpoint => rec.fail(1),
                    _ => {}
                }
            }
            if checkpoint {
                outcomes.extend(served);
            }
        }
        let cache_after = self.registry.cache_stats();
        rec.counts.cache_hits += cache_after.hits - cache_before.hits;
        rec.counts.cache_misses += cache_after.misses - cache_before.misses;

        if checkpoint {
            rec.fail(self.verify_round(&snapshot, round, &outcomes, ctx.spec.smoke));
        }
    }

    fn check(&mut self, _ctx: &Ctx, _rec: &mut Recorder) {
        // The last timed round is itself a checkpoint; nothing is left to
        // compare once the sequence has ended.
    }

    fn probe_graph(&self) -> Graph {
        self.store.snapshot().graph().clone()
    }

    fn class_label(&self, class: u32) -> String {
        match class {
            1 => "request in the first batch of an epoch".to_owned(),
            _ => "request in a later batch of an epoch".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_checkpoints_spread_over_the_timed_rounds_ending_on_the_last() {
        for total in [10, 80, 81, 135] {
            let at: Vec<usize> = (1..=total).filter(|&r| is_checkpoint(r, total)).collect();
            assert_eq!(at.len(), CHECKPOINTS, "{total}: {at:?}");
            assert_eq!(at.last(), Some(&total));
            assert!(at[0] >= total / CHECKPOINTS, "{total}: {at:?}");
        }
    }

    #[test]
    fn families_share_projections_and_interleave() {
        let qs = queries();
        assert_eq!(qs.len(), QUERIES);
        let pi = |i: usize| qs[i].pi().pattern.to_string();
        // Members of a family sit six apart: 0 and 6 differ in the negated
        // branch only (same Π(Q)), 0 and 12 in the threshold.
        assert_eq!(pi(0), pi(6));
        assert_ne!(qs[0].to_string(), qs[6].to_string());
        assert_ne!(pi(0), pi(12));
        assert_eq!(pi(12), pi(18));
        assert_ne!(pi(0), pi(1));
        assert!(qs.iter().all(|q| q.validate().is_ok() && q.radius() == 2));
    }
}
