//! The query registry: long-lived registered queries served in batches
//! against epoch snapshots.
//!
//! A [`QueryRegistry`] owns a set of [`PreparedQuery`]s — possible at all
//! only because the engine surface is lifetime-free — and answers batches
//! of [`ServeRequest`]s against one pinned [`GraphSnapshot`] per
//! [`QueryRegistry::serve`] call.  Serving a batch has two phases:
//!
//! 1. **Prime** (serial): for every distinct `(query, config)` in the
//!    batch whose matcher session is not yet built for this snapshot, the
//!    candidate analysis of the positive projection `Π(Q)` is computed —
//!    *at most once per distinct projection per epoch*.  Registered
//!    queries with equal projections (a common shape: the QGAR miner
//!    evaluates many rules sharing one antecedent) share the analysis
//!    through an epoch-keyed candidate cache; [`QueryRegistry::cache_stats`]
//!    reports the hits.
//! 2. **Fan-out** (parallel): the requests execute concurrently on the
//!    work-stealing runtime, one task per request, each honoring its own
//!    [`ServeRequest::limit`], [`ExecBudget`] and [`CancelToken`].
//!    Nothing is locked while a request runs: each checks a matcher
//!    session out of its query's pool, so two requests naming the *same*
//!    query run side by side — the first on the primed session, the second
//!    on one of its own, seeded read-only from the batch's Π(Q) cache
//!    entry.
//!
//! The registry never blocks writers: it executes against the snapshot it
//! is handed, and a [`qgp_graph::GraphStore`] writer publishing new epochs
//! concurrently affects only *which* snapshot the caller pins for the next
//! batch.

use std::collections::HashMap;
use std::sync::Arc;

use qgp_graph::GraphSnapshot;
use qgp_runtime::{CancelToken, ExecBudget, Runtime};

use super::options::ExecOptions;
use super::PreparedQuery;
use crate::error::MatchError;
use crate::matching::{CandidateSets, CountMode, MatchConfig, QueryAnswer};

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
    /// Per-request execution budget (deadline and/or decision cap).
    pub budget: Option<ExecBudget>,
    /// Per-request cooperative cancellation.
    pub cancel: Option<CancelToken>,
    /// When set, decisions run through the aggregate-pushdown counting
    /// path (identical accepted set, cheaper work profile).
    pub count: Option<CountMode>,
}

impl ServeRequest {
    /// A request for `query` with the default config and no limit, budget,
    /// or cancellation.
    pub fn new(query: QueryId) -> Self {
        ServeRequest {
            query_id: query.0,
            config: MatchConfig::default(),
            limit: None,
            budget: None,
            cancel: None,
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

    /// Attaches a cancellation token.
    pub fn cancel_with(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
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
    /// The request's answer, or why it failed.  Budget exhaustion comes
    /// back as a partial answer with [`QueryAnswer::truncated`] set.
    pub result: Result<QueryAnswer, MatchError>,
}

/// Hit/miss counters of the registry's epoch-keyed Π(Q) candidate cache
/// (cumulative over the registry's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Session builds that reused a cached candidate analysis.
    pub hits: u64,
    /// Session builds that had to compute the analysis (and seeded the
    /// cache for later queries with the same projection).
    pub misses: u64,
    /// Analyses currently cached for the last-served snapshot.
    pub entries: usize,
}

/// Cache key: the `Display` rendering of the positive projection `Π(Q)`
/// plus the two config bits that shape the analysis (candidate filter
/// choice and simulation refinement).
type CacheKey = (Arc<str>, bool, bool);

/// The per-epoch candidate-analysis cache: valid for exactly one snapshot
/// identity, cleared whenever `serve` is handed a different one.
#[derive(Default)]
struct CandidateCache {
    /// The snapshot the cached analyses were computed on (`ptr_eq`
    /// identity, not epoch number — two stores can both be at epoch 7).
    snapshot: Option<Arc<GraphSnapshot>>,
    entries: HashMap<CacheKey, CandidateSets>,
    hits: u64,
    misses: u64,
}

/// One registered query, plus the projection fingerprint the candidate
/// cache shares analyses by.
struct Entry {
    id: QueryId,
    fingerprint: Arc<str>,
    query: PreparedQuery,
}

impl Entry {
    fn cache_key(&self, config: &MatchConfig) -> CacheKey {
        (
            Arc::clone(&self.fingerprint),
            config.use_upper_bound_pruning,
            config.use_simulation_filter,
        )
    }
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
    cache: CandidateCache,
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
        self.entries.push(Entry {
            id,
            fingerprint: query.compiled().pi.to_string().into(),
            query,
        });
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

    /// Cumulative hit/miss counters of the shared Π(Q) candidate cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.hits,
            misses: self.cache.misses,
            entries: self.cache.entries.len(),
        }
    }

    /// Serves a batch of requests against one pinned snapshot.  Outcomes
    /// come back in request order; an unknown query id yields
    /// [`MatchError::UnknownQuery`] for that request without affecting the
    /// others.  See the [module docs](self) for the two-phase protocol.
    pub fn serve(
        &mut self,
        snapshot: &Arc<GraphSnapshot>,
        requests: &[ServeRequest],
        runtime: &Runtime,
    ) -> Vec<ServeOutcome> {
        // The candidate cache is valid for exactly one snapshot identity.
        let same = matches!(&self.cache.snapshot, Some(s) if Arc::ptr_eq(s, snapshot));
        if !same {
            self.cache.snapshot = Some(Arc::clone(snapshot));
            self.cache.entries.clear();
        }

        // Phase 1 (serial): resolve ids and prime sessions, computing each
        // distinct Π(Q) analysis at most once for this snapshot.
        let resolved: Vec<Option<usize>> = requests
            .iter()
            .map(|req| {
                let idx = self.entries.iter().position(|e| e.id == req.query());
                if let Some(idx) = idx {
                    self.prime(idx, snapshot, &req.config);
                }
                idx
            })
            .collect();

        // Phase 2 (parallel): fan the requests out, one task per request.
        let never = CancelToken::new();
        let entries = &self.entries;
        let cache = &self.cache.entries;
        let outcome = runtime.try_map_with_cancel(
            requests.len(),
            &never,
            || (),
            |(), i| {
                let req = &requests[i];
                let Some(idx) = resolved[i] else {
                    return Err(MatchError::UnknownQuery {
                        id: req.query().raw(),
                    });
                };
                let entry = &entries[idx];
                let mut opts = ExecOptions::sequential().with_config(req.config);
                opts.limit = req.limit;
                opts.budget = req.budget.clone();
                opts.cancel = req.cancel.clone();
                opts.count = req.count;
                // The primed session is checked out unless a request for
                // the same query holds it; the analysis is in the cache
                // either way.
                let seed = cache.get(&entry.cache_key(&req.config));
                entry.query.run_seeded(snapshot, &opts, seed)
            },
        );
        match outcome {
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
        }
    }

    /// Ensures `entries[idx]` has a matcher session for `(snapshot,
    /// config)`, seeding (or populating) the shared candidate cache.
    fn prime(&mut self, idx: usize, snapshot: &Arc<GraphSnapshot>, config: &MatchConfig) {
        let entry = &self.entries[idx];
        if entry.query.has_session(snapshot, config) {
            return;
        }
        let key = entry.cache_key(config);
        let seed = self.cache.entries.get(&key);
        let hit = seed.is_some();
        let mut session = entry.query.checkout(snapshot, config, seed);
        if hit {
            self.cache.hits += 1;
        } else {
            self.cache.misses += 1;
            if let Some(sets) = session.core().candidate_sets() {
                self.cache.entries.insert(key, sets.clone());
            }
        }
    }
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRegistry")
            .field("queries", &self.entries.len())
            .field("cache", &self.cache_stats())
            .finish_non_exhaustive()
    }
}
