//! The query registry: long-lived registered queries served in batches
//! against epoch snapshots.
//!
//! A [`QueryRegistry`] owns a set of [`PreparedQuery`]s — possible at all
//! only because the engine surface is lifetime-free — and answers batches
//! of [`ServeRequest`]s against one pinned [`GraphSnapshot`] per
//! [`QueryRegistry::serve`] call.
//!
//! Serving a batch is one phase: the requests are fanned out on the
//! work-stealing runtime, one task per request, and each task is a plain
//! [`PreparedQuery::run_on`] of its query against the batch's snapshot,
//! honoring its own [`ServeRequest::limit`] and [`ExecBudget`].  Nothing is
//! locked while a request runs: each checks a matcher session out of its
//! query's pool — building it on the first request of an epoch — so two
//! requests naming the *same* query run side by side, each on a session of
//! its own.  [`QueryRegistry::cache_stats`] counts how often a request
//! found its session pooled.
//!
//! The registry never blocks writers: it executes against the snapshot it
//! is handed, and a [`qgp_graph::GraphStore`] writer publishing new epochs
//! concurrently affects only *which* snapshot the caller pins for the next
//! batch.

use std::sync::Arc;

use qgp_graph::GraphSnapshot;
use qgp_runtime::{CancelToken, ExecBudget, Runtime};

use super::options::ExecOptions;
use super::PreparedQuery;
use crate::error::MatchError;
use crate::matching::{CountMode, MatchConfig, QueryAnswer};

/// Opaque handle of a registered query, unique within its registry for the
/// registry's lifetime (ids are never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw numeric id (stable for logging and error correlation).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query #{}", self.0)
    }
}

/// One request of a [`QueryRegistry::serve`] batch: which query to run and
/// the per-request execution knobs.  Requests always execute sequentially
/// *within* their task — the batch's parallelism comes from fanning the
/// requests out, not from splitting one request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    query_id: u64,
    /// Matcher configuration for this request.
    pub config: MatchConfig,
    /// Stop after this many accepted answers.
    pub limit: Option<usize>,
    /// Per-request execution budget (deadline, decision cap and/or a
    /// cancellation token).
    pub budget: Option<ExecBudget>,
    /// When set, decisions run through the aggregate-pushdown counting
    /// path (identical accepted set, cheaper work profile).
    pub count: Option<CountMode>,
}

impl ServeRequest {
    /// A request for `query` with the default config and no limit or
    /// budget.
    pub fn new(query: QueryId) -> Self {
        ServeRequest {
            query_id: query.0,
            config: MatchConfig::default(),
            limit: None,
            budget: None,
            count: None,
        }
    }

    /// The query this request names.
    pub fn query(&self) -> QueryId {
        QueryId(self.query_id)
    }

    /// Sets the matcher configuration.
    pub fn with_config(mut self, config: MatchConfig) -> Self {
        self.config = config;
        self
    }

    /// Stops the request after `k` accepted answers.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Attaches an execution budget.
    pub fn budget_with(mut self, budget: ExecBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Routes decisions through the counting path under `mode`.
    pub fn count(mut self, mode: CountMode) -> Self {
        self.count = Some(mode);
        self
    }
}

/// The result of one [`ServeRequest`] in a batch.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The query the request named.
    pub query: QueryId,
    /// The request's answer, or why it failed.  A stopped budget comes
    /// back as a partial answer with [`QueryAnswer::truncated`] set.
    pub result: Result<QueryAnswer, MatchError>,
}

/// Session-reuse counters of the registry (cumulative over its lifetime),
/// read off the [`MatchStats::sessions_built`](crate::matching::MatchStats::sessions_built)
/// of every successfully served request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served on a session their query had pooled for the epoch.
    pub hits: u64,
    /// Matcher sessions requests had to build.
    pub misses: u64,
}

/// One registered query.
struct Entry {
    id: QueryId,
    query: PreparedQuery,
}

/// A set of registered [`PreparedQuery`]s served in batches against epoch
/// snapshots; see the [module docs](self) for the serving protocol.
///
/// ```
/// use std::sync::Arc;
/// use qgp_core::engine::{Engine, QueryRegistry, ServeRequest};
/// use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
/// use qgp_graph::{EdgeOp, GraphBuilder, GraphStore};
/// use qgp_runtime::Runtime;
///
/// let mut g = GraphBuilder::new();
/// let ann = g.add_node("person");
/// let bob = g.add_node("person");
/// let phone = g.add_node("Redmi 2A");
/// g.add_edge(ann, bob, "follow").unwrap();
/// g.add_edge(bob, phone, "recom").unwrap();
/// let store = GraphStore::new(g.build());
///
/// let mut p = PatternBuilder::new();
/// let xo = p.node("person");
/// let z = p.node("person");
/// let y = p.node("Redmi 2A");
/// p.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
/// p.edge(z, y, "recom");
/// p.focus(xo);
/// let pattern = p.build().unwrap();
///
/// let mut registry = QueryRegistry::new();
/// let engine = Engine::from_store(&store);
/// let q = registry.register(engine.prepare(&pattern).unwrap());
///
/// // Serve against the current epoch while the writer stays free to
/// // publish new ones.
/// let snapshot = store.snapshot();
/// let outcomes = registry.serve(&snapshot, &[ServeRequest::new(q)], Runtime::global());
/// assert_eq!(outcomes[0].result.as_ref().unwrap().matches, vec![ann]);
/// ```
#[derive(Default)]
pub struct QueryRegistry {
    entries: Vec<Entry>,
    next_id: u64,
    sessions: CacheStats,
}

impl QueryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        QueryRegistry::default()
    }

    /// Registers a prepared query and returns its handle.
    pub fn register(&mut self, query: PreparedQuery) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.entries.push(Entry { id, query });
        id
    }

    /// Removes a registered query, returning it (its pooled sessions
    /// intact) — `None` if the id was never registered or already removed.
    pub fn unregister(&mut self, id: QueryId) -> Option<PreparedQuery> {
        let idx = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(idx).query)
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `id` currently registered?
    pub fn contains(&self, id: QueryId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Cumulative session-reuse counters of the served requests.
    pub fn cache_stats(&self) -> CacheStats {
        self.sessions
    }

    /// Serves a batch of requests against one pinned snapshot.  Outcomes
    /// come back in request order; an unknown query id yields
    /// [`MatchError::UnknownQuery`] for that request without affecting the
    /// others.  See the [module docs](self) for the protocol.
    pub fn serve(
        &mut self,
        snapshot: &Arc<GraphSnapshot>,
        requests: &[ServeRequest],
        runtime: &Runtime,
    ) -> Vec<ServeOutcome> {
        let never = CancelToken::new();
        let entries = &self.entries;
        let outcome = runtime.try_map_with_cancel(
            requests.len(),
            &never,
            || (),
            |(), i| {
                let req = &requests[i];
                let entry = entries.iter().find(|e| e.id == req.query()).ok_or(
                    MatchError::UnknownQuery {
                        id: req.query().raw(),
                    },
                )?;
                let mut opts = ExecOptions::sequential().with_config(req.config);
                opts.limit = req.limit;
                opts.budget = req.budget.clone();
                opts.count = req.count;
                entry.query.run_on(snapshot, opts)
            },
        );
        let outcomes: Vec<ServeOutcome> = match outcome {
            Ok(out) => out
                .outputs
                .into_iter()
                .zip(requests)
                .map(|(result, req)| ServeOutcome {
                    query: req.query(),
                    // `None` is unreachable in practice (the map token
                    // never fires), but surface it honestly if it happens.
                    result: result.unwrap_or_else(|| {
                        Err(MatchError::TaskPanicked(qgp_runtime::TaskError {
                            worker: 0,
                            index: None,
                            payload: "request skipped by an aborted serve batch".to_string(),
                        }))
                    }),
                })
                .collect(),
            Err(e) => requests
                .iter()
                .map(|req| ServeOutcome {
                    query: req.query(),
                    result: Err(MatchError::TaskPanicked(e.clone())),
                })
                .collect(),
        };
        for answer in outcomes.iter().filter_map(|o| o.result.as_ref().ok()) {
            let built = answer.stats.sessions_built as u64;
            self.sessions.misses += built;
            self.sessions.hits += u64::from(built == 0);
        }
        outcomes
    }
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRegistry")
            .field("queries", &self.entries.len())
            .field("sessions", &self.sessions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::pattern::PatternBuilder;
    use qgp_graph::{EdgeOp, GraphBuilder, GraphStore};

    #[test]
    fn serving_across_epochs_keeps_at_most_one_idle_session() {
        let mut g = GraphBuilder::new();
        let ann = g.add_node("person");
        let bob = g.add_node("person");
        g.add_edge(ann, bob, "follow").unwrap();
        let graph = g.build();
        let follow = graph.labels().edge_label("follow").unwrap();
        let store = GraphStore::new(graph);

        let mut p = PatternBuilder::new();
        let xo = p.node("person");
        let y = p.node("person");
        p.edge(xo, y, "follow");
        p.focus(xo);
        let prepared = Engine::from_store(&store).prepare(&p.build().unwrap());
        let mut registry = QueryRegistry::new();
        let q = registry.register(prepared.unwrap());

        let runtime = Runtime::new(1);
        for epoch in 0..20 {
            let (op, expected) = match epoch % 2 {
                0 => (EdgeOp::delete(ann, bob, follow), vec![]),
                _ => (EdgeOp::insert(ann, bob, follow), vec![ann]),
            };
            store.apply(&[op]).unwrap();
            let outcomes = registry.serve(&store.snapshot(), &[ServeRequest::new(q)], &runtime);
            assert_eq!(outcomes[0].result.as_ref().unwrap().matches, expected);
        }
        // One session per epoch was built; only the last one is still idle.
        let reuse = registry.cache_stats();
        assert_eq!((reuse.misses, reuse.hits), (20, 0));
        let idle = registry.entries[0].query.pool.idle.lock().unwrap().len();
        assert!(idle <= 1, "{idle} idle sessions after 20 epochs");
    }
}
