//! The prepared-query engine: compile a pattern once, execute it many
//! times.
//!
//! This module is the **one execution surface** of the QGP stack:
//! sequential, parallel, partitioned and counting executions, view repair
//! and registry serving all schedule the same per-focus decision kernel.
//!
//! The flow mirrors a database client:
//!
//! 1. [`Engine::new`] binds a data graph,
//! 2. [`Engine::prepare`] validates and compiles a [`Pattern`] into a
//!    [`PreparedQuery`] — the resolved positive projection, the positified
//!    negation patterns and the pattern radius are derived exactly once,
//!    and per-[`MatchConfig`] matcher sessions (candidate analysis, search
//!    order, counter scratch) are pooled across executions,
//! 3. [`PreparedQuery::run`] (or [`PreparedQuery::count`]) runs it under
//!    [`ExecOptions`]: sequential, whole-graph parallel, or partitioned
//!    (`PQMatch`-style) execution, with an answer limit, a focus-candidate
//!    restriction and an [`ExecBudget`] (deadline, decision cap, explicit
//!    cancellation) all available in every mode.
//!
//! ```
//! use qgp_core::engine::{Engine, ExecOptions};
//! use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
//! use qgp_graph::GraphBuilder;
//!
//! let mut g = GraphBuilder::new();
//! let ann = g.add_node("person");
//! let bob = g.add_node("person");
//! let cat = g.add_node("person");
//! let phone = g.add_node("Redmi 2A");
//! g.add_edge(ann, bob, "follow").unwrap();
//! g.add_edge(ann, cat, "follow").unwrap();
//! g.add_edge(bob, phone, "recom").unwrap();
//! g.add_edge(cat, phone, "recom").unwrap();
//! let graph = g.build();
//!
//! // "people, all of whose followees recommend Redmi 2A"
//! let mut b = PatternBuilder::new();
//! let xo = b.node("person");
//! let z = b.node("person");
//! let y = b.node("Redmi 2A");
//! b.quantified_edge(xo, z, "follow", CountingQuantifier::universal());
//! b.edge(z, y, "recom");
//! b.focus(xo);
//! let pattern = b.build().unwrap();
//!
//! let engine = Engine::new(&graph);
//! let prepared = engine.prepare(&pattern).unwrap();
//! // `prepared` is reusable for the next execution.
//! let answer = prepared.run(ExecOptions::sequential()).unwrap();
//! assert_eq!(answer.matches, vec![ann]);
//! ```

// The engine is serving-path code: `unwrap()` is banned from its library
// code (warn-level here, promoted to deny by CI's `-D warnings`) — recover,
// restructure, or return a typed error instead.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod count;
mod exec;
mod options;
pub mod registry;
mod view;

pub use count::{CountAnswer, FocusCount};
pub use options::{ExecMode, ExecOptions};
pub use qgp_runtime::{BudgetStop, ExecBudget, TaskError};
pub use registry::{CacheStats, QueryId, QueryRegistry, ServeOutcome, ServeRequest};
pub use view::{MatchView, ViewDelta, ViewError};

pub use crate::matching::CountMode;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use qgp_graph::{Graph, GraphSnapshot, GraphStore};

use crate::error::MatchError;
use crate::matching::compiled::CompiledPattern;
use crate::matching::{CandidateFilter, MatchConfig, MatchStats, QueryAnswer, SessionCore};
use crate::pattern::Pattern;

/// Upper bound on the idle matcher sessions a [`PreparedQuery`] pools.  A
/// session's candidate sets hold only on the graph they were built on (an
/// update-stable pool's excepted), and serving moves forward through epochs,
/// so a check-out or check-in for snapshot S first drops the idle sessions
/// of every other snapshot.
const MAX_CACHED_SESSIONS: usize = 8;

/// The entry point of the prepared-query engine: an owned handle on one
/// immutable [`GraphSnapshot`].
///
/// The engine (and everything it prepares) holds the snapshot behind an
/// `Arc` — there is no borrow tying queries to a graph binding, so prepared
/// queries can be stored in registries, moved across threads, and served
/// while a [`GraphStore`] writer publishes new epochs concurrently.
#[derive(Debug, Clone)]
pub struct Engine {
    snapshot: Arc<GraphSnapshot>,
}

impl Engine {
    /// Binds the engine to a graph, sealing it as an epoch-0 snapshot.
    ///
    /// The graph is cloned, but [`Graph`] is copy-on-write: the clone
    /// shares the frozen CSR storage, so this is a handful of
    /// reference-count bumps, not a graph copy.  To serve a graph that
    /// changes over time, use [`Engine::from_store`] and re-execute against
    /// fresh snapshots with [`PreparedQuery::run_on`].
    pub fn new(graph: &Graph) -> Self {
        Engine::on(Arc::new(GraphSnapshot::new(graph.clone())))
    }

    /// Binds the engine to an already-pinned snapshot (e.g. one obtained
    /// from [`GraphStore::snapshot`]).
    pub fn on(snapshot: Arc<GraphSnapshot>) -> Self {
        Engine { snapshot }
    }

    /// Binds the engine to the latest epoch published by `store`.
    pub fn from_store(store: &GraphStore) -> Self {
        Engine::on(store.snapshot())
    }

    /// The snapshot this engine executes against by default.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.snapshot
    }

    /// The graph of [`Engine::snapshot`].
    pub fn graph(&self) -> &Graph {
        self.snapshot.graph()
    }

    /// Validates `pattern` and compiles it into a reusable
    /// [`PreparedQuery`].
    ///
    /// Compilation derives everything graph-independent once — the positive
    /// projection `Π(Q)`, the positified patterns `Π(Q^{+e})` for every
    /// negated edge, each one's distances to its focus (a view's repair
    /// walks them), the radius — and the prepared query lazily pools
    /// matcher sessions, one per [`MatchConfig`] it is executed with on the
    /// snapshot it last ran against, so executing the same prepared query
    /// repeatedly on one epoch re-uses candidate analysis and counter
    /// scratch instead of rebuilding them per call.
    pub fn prepare(&self, pattern: &Pattern) -> Result<PreparedQuery, MatchError> {
        pattern.validate().map_err(MatchError::InvalidPattern)?;
        Ok(PreparedQuery {
            snapshot: Arc::clone(&self.snapshot),
            compiled: Arc::new(CompiledPattern::compile(pattern)),
            pool: Arc::default(),
        })
    }
}

/// One pooled matcher session: the snapshot it was built for (none in an
/// update-stable pool), its config, and the graph-independent session state
/// itself.
struct SessionEntry {
    snapshot: Option<Arc<GraphSnapshot>>,
    config: MatchConfig,
    /// Boxed: check-out and check-in move a pointer, not a session.
    core: Box<SessionCore>,
}

/// The idle matcher sessions of one [`PreparedQuery`].  An execution checks
/// the session for its (snapshot, config) out — building it when none is
/// idle — and checks it back in when done; the lock is held only for those
/// two list operations, never while matching, so any number of executions
/// of one query run side by side, each on its own session.
#[derive(Default)]
struct SessionPool {
    idle: Mutex<Vec<SessionEntry>>,
    /// Fixed at construction, set for a [`MatchView`]'s query: sessions
    /// built over [`CandidateFilter::LabelUniverse`], whose sets depend only
    /// on node labels, hold on every version of the graph, so they are
    /// stored with no snapshot and never retired.
    update_stable: bool,
}

impl SessionPool {
    /// The idle list, rid of every session whose snapshot is not `snapshot`
    /// (`None` in an update-stable pool, which retires none).
    fn lock_for(&self, snapshot: Option<&Arc<GraphSnapshot>>) -> MutexGuard<'_, Vec<SessionEntry>> {
        // Every critical section leaves the list valid at every step.
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        idle.retain(|e| e.snapshot.as_ref().map(Arc::as_ptr) == snapshot.map(Arc::as_ptr));
        idle
    }
}

/// A checked-out matcher session.  Dropping the lease returns the session
/// to its pool — unless the thread is unwinding from a panic, in which case
/// the session's scratch is suspect and dies with the lease.
pub(crate) struct Lease {
    pool: Arc<SessionPool>,
    entry: Option<SessionEntry>,
    /// Session counters at check-out (zero for a session this lease built),
    /// so an execution reports only the work attributable to itself.
    pub(crate) baseline: MatchStats,
}

impl Lease {
    pub(crate) fn core(&mut self) -> &mut SessionCore {
        &mut self.entry.as_mut().expect("held until drop").core
    }

    /// Work done through this lease so far (a build it triggered included).
    pub(crate) fn stats(&self) -> MatchStats {
        self.entry.as_ref().expect("held until drop").core.stats() - self.baseline
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let Some(entry) = self.entry.take() else {
            return;
        };
        if std::thread::panicking() {
            return;
        }
        let mut idle = self.pool.lock_for(entry.snapshot.as_ref());
        if idle.len() < MAX_CACHED_SESSIONS {
            idle.push(entry);
        }
    }
}

/// A compiled pattern pinned to a default [`GraphSnapshot`], reusable
/// across any number of executions — and, because it is fully owned
/// (`'static`) and `Sync`, storable in long-lived registries and executable
/// from several threads at once through `&self`.
///
/// Executions go through [`PreparedQuery::run`] (the [`QueryAnswer`]) or
/// [`PreparedQuery::count`] (the [`CountAnswer`]); the `*_on` variants
/// ([`PreparedQuery::run_on`], [`PreparedQuery::count_on`]) run the same
/// compiled pattern against a *different* snapshot — typically a fresher
/// epoch of the same [`GraphStore`] — without recompiling.  The first
/// execution against a given (snapshot, [`MatchConfig`]) pair builds that
/// pair's matcher session (visible as [`MatchStats::sessions_built`] in
/// that execution's stats); later executions on the same snapshot check it
/// out of the query's pool and back in, which is the engine's compile-once
/// payoff for serving one pattern thousands of times.  An execution that
/// finds the pair's session checked out by a concurrent one builds its own.
/// The pool keeps the sessions of one snapshot only: the first execution on
/// a new epoch drops the old epoch's sessions, so going back to an older
/// pin builds again.
pub struct PreparedQuery {
    snapshot: Arc<GraphSnapshot>,
    compiled: Arc<CompiledPattern>,
    /// Idle matcher sessions of one snapshot, at most
    /// [`MAX_CACHED_SESSIONS`]; shared with the leases of the executions
    /// that hold a checked-out one.
    pool: Arc<SessionPool>,
}

impl PreparedQuery {
    /// The pattern this query was prepared from.
    pub fn pattern(&self) -> &Pattern {
        &self.compiled.pattern
    }

    /// The pattern radius (a partition must preserve at least this many
    /// hops for [`ExecMode::Partitioned`] to be exact).
    pub fn radius(&self) -> usize {
        self.compiled.radius
    }

    /// The snapshot this query executes against by default.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.snapshot
    }

    /// Executes the prepared query against its pinned snapshot: the
    /// [`QueryAnswer`] (matches plus this execution's work counters).  A
    /// run whose [`ExecBudget`] stopped returns the matches found so far
    /// with [`QueryAnswer::truncated`] set.
    ///
    /// Errors are limited to partitioned-mode misconfiguration
    /// ([`MatchError::RadiusExceedsPartition`],
    /// [`MatchError::EmptyPartition`]) and a panicking task
    /// ([`MatchError::TaskPanicked`]).
    pub fn run(&self, opts: ExecOptions<'_>) -> Result<QueryAnswer, MatchError> {
        self.run_on(&self.snapshot, opts)
    }

    /// [`PreparedQuery::run`] against an explicit snapshot — the
    /// serve-under-updates form: prepare once, then run against each fresh
    /// epoch a [`GraphStore`] publishes.
    pub fn run_on(
        &self,
        snapshot: &Arc<GraphSnapshot>,
        opts: ExecOptions<'_>,
    ) -> Result<QueryAnswer, MatchError> {
        let counted = exec::execute(self, snapshot, &opts)?.answer;
        Ok(QueryAnswer {
            matches: counted.matches().collect(),
            stats: counted.stats,
            truncated: counted.truncated,
        })
    }

    /// Executes the prepared query as a *counting* query: which foci match,
    /// each with its witness count, without materializing child matches.
    ///
    /// The accepted focus set equals [`PreparedQuery::run`]'s on the same
    /// options; only the work differs — every quantifier is decided by an
    /// early-exit intersection over ranked adjacency slices, and a negated
    /// edge is decided as membership, stopping at its first witness.  The
    /// [`CountMode`] is taken from [`ExecOptions::count`]
    /// ([`CountMode::ThresholdOnly`] when unset; use
    /// [`ExecOptions::count_exact`] for exact witness cardinalities).
    /// `limit`, `restrict_to` and budgets compose exactly as
    /// they do for [`PreparedQuery::run`], in all three [`ExecMode`]s.
    pub fn count(&self, opts: ExecOptions<'_>) -> Result<CountAnswer, MatchError> {
        self.count_on(&self.snapshot, opts)
    }

    /// [`PreparedQuery::count`] against an explicit snapshot.
    pub fn count_on(
        &self,
        snapshot: &Arc<GraphSnapshot>,
        mut opts: ExecOptions<'_>,
    ) -> Result<CountAnswer, MatchError> {
        opts.count = Some(opts.count.unwrap_or_default());
        Ok(exec::execute(self, snapshot, &opts)?.answer)
    }

    /// Materializes the current answer as a live [`MatchView`] that pins
    /// this query's snapshot.  A view on a [`GraphStore`] epoch follows the
    /// store with [`MatchView::advance`]; [`MatchView::apply`] moves it to a
    /// private copy-on-write clone instead, so updates applied to it never
    /// affect this prepared query, the engine, or other views.  The view
    /// executes a query of its own: this one's compiled pattern, with an
    /// update-stable session pool.
    pub fn view(&self) -> MatchView {
        MatchView::materialize(PreparedQuery {
            snapshot: Arc::clone(&self.snapshot),
            compiled: Arc::clone(&self.compiled),
            pool: Arc::new(SessionPool {
                update_stable: true,
                ..SessionPool::default()
            }),
        })
    }

    /// Checks the session for `(snapshot, config)` out of the pool,
    /// building it if none is idle.
    pub(crate) fn checkout(&self, snapshot: &Arc<GraphSnapshot>, config: &MatchConfig) -> Lease {
        let (pin, filter) = if self.pool.update_stable {
            // The simulation pre-filter would prune against one version.
            debug_assert!(!config.use_simulation_filter, "{config:?}");
            (None, CandidateFilter::LabelUniverse)
        } else {
            (Some(snapshot), CandidateFilter::implied_by(config))
        };
        let mut idle = self.pool.lock_for(pin);
        let pooled = idle.iter().position(|e| e.config == *config);
        let pooled = pooled.map(|idx| idle.swap_remove(idx));
        // A build runs outside the lock: other executions of this query
        // keep checking sessions in and out meanwhile.
        drop(idle);
        let (entry, baseline) = match pooled {
            Some(entry) => {
                let baseline = entry.core.stats();
                (entry, baseline)
            }
            None => {
                let compiled = Arc::clone(&self.compiled);
                let core = SessionCore::with_filter(snapshot.graph(), compiled, config, filter);
                let entry = SessionEntry {
                    snapshot: pin.cloned(),
                    config: *config,
                    core: Box::new(core),
                };
                (entry, MatchStats::default())
            }
        };
        Lease {
            pool: Arc::clone(&self.pool),
            entry: Some(entry),
            baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::library;
    use qgp_graph::GraphBuilder;

    fn prepared() -> PreparedQuery {
        let mut b = GraphBuilder::new();
        let ann = b.add_node("person");
        let bob = b.add_node("person");
        b.add_edge(ann, bob, "follow").unwrap();
        Engine::new(&b.build())
            .prepare(&library::q2_redmi_universal())
            .unwrap()
    }

    /// The idle sessions of `pq`, after checking that all are pinned to
    /// `snapshot`.
    fn idle_on(pq: &PreparedQuery, snapshot: &Arc<GraphSnapshot>) -> usize {
        let idle = pq.pool.idle.lock().unwrap();
        assert!(idle.iter().all(|e| e
            .snapshot
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s, snapshot))));
        idle.len()
    }

    #[test]
    fn a_lease_returns_its_session_unless_its_holder_panicked() {
        let pq = prepared();
        let snapshot = Arc::clone(pq.snapshot());
        let config = MatchConfig::qmatch();

        drop(pq.checkout(&snapshot, &config));
        assert_eq!(idle_on(&pq, &snapshot), 1);
        // Checked out, the session is nobody else's to take.
        let lease = pq.checkout(&snapshot, &config);
        assert_eq!(lease.baseline.sessions_built, 1, "the pooled one");
        assert_eq!(idle_on(&pq, &snapshot), 0);
        drop(lease);

        let unwound = std::thread::scope(|s| {
            s.spawn(|| {
                let _lease = pq.checkout(&snapshot, &config);
                panic!("the task holding the lease dies");
            })
            .join()
        });
        assert!(unwound.is_err());
        // A suspect session is dropped, not pooled.
        assert_eq!(idle_on(&pq, &snapshot), 0);
        let rebuilt = pq.run(ExecOptions::sequential()).unwrap();
        assert_eq!(rebuilt.stats.sessions_built, 1);
    }

    #[test]
    fn the_pool_holds_one_snapshots_sessions_at_most_max_cached_sessions() {
        let pq = prepared();
        let here = Arc::clone(pq.snapshot());
        let elsewhere = Arc::new(GraphSnapshot::new(here.graph().clone()));
        let config = MatchConfig::qmatch();

        // Executions side by side each hold (and return) their own session.
        let held: Vec<Lease> = (0..3).map(|_| pq.checkout(&elsewhere, &config)).collect();
        drop(held);
        assert_eq!(idle_on(&pq, &elsewhere), 3);
        // A check-out for another snapshot drops them before it builds.
        let stale = pq.checkout(&elsewhere, &config);
        drop(pq.checkout(&here, &config));
        assert_eq!(idle_on(&pq, &here), 1);
        // The cap holds however many executions ran side by side.
        let held: Vec<Lease> = (0..MAX_CACHED_SESSIONS + 2)
            .map(|_| pq.checkout(&here, &config))
            .collect();
        drop(held);
        assert_eq!(idle_on(&pq, &here), MAX_CACHED_SESSIONS);
        // A check-in for another snapshot drops them too.
        drop(stale);
        assert_eq!(idle_on(&pq, &elsewhere), 1);
    }
}
