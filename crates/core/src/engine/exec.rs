//! Execution of prepared queries: one driver turns [`ExecOptions`] into a
//! list of `(site, focus)` tasks — the pinned snapshot is one site, each
//! fragment of a partition is one — and folds the verdicts of the one
//! decision kernel, `SessionCore::decide`, into per-focus counts.  The
//! modes differ only in the runtime the tasks run on: a sequential
//! execution runs them on one inline worker, in ascending candidate order,
//! the others on the work-stealing runtime they name.

use qgp_runtime::sync::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use qgp_graph::{DenseBitSet, Fragment, GraphSnapshot, NodeId};
use qgp_runtime::{CancelToken, ExecBudget, Runtime};

use super::count::{CountAnswer, FocusCount};
use super::options::{ExecMode, ExecOptions};
use super::{Lease, PreparedQuery};
use crate::error::MatchError;
use crate::matching::{MatchStats, SessionCore};

/// Shared controls of one execution: the execution budget, the internal
/// stop flag the runtime polls (set when the budget stops — deadline,
/// decision cap or explicit cancellation — *or* when the answer limit is
/// reached), and the accepted-answer counter.
struct ExecControl {
    budget: Option<ExecBudget>,
    stop: CancelToken,
    limit: Option<usize>,
    accepted: AtomicUsize,
}

impl ExecControl {
    fn new(limit: Option<usize>, budget: Option<ExecBudget>) -> Self {
        ExecControl {
            budget,
            stop: CancelToken::new(),
            limit,
            accepted: AtomicUsize::new(0),
        }
    }

    /// The budget's token, polled inside `SessionCore::decide` so a
    /// deadline or a cancellation is observed between verification phases
    /// too.
    fn decide_token(&self) -> Option<&CancelToken> {
        self.budget.as_ref().map(ExecBudget::token)
    }

    /// Charges one decision against the budget.  `false` means the budget
    /// is out: the stop flag is raised and the candidate must not be
    /// verified.
    fn charge(&self) -> bool {
        match &self.budget {
            Some(budget) if !budget.charge(1) => {
                self.stop.cancel();
                false
            }
            _ => true,
        }
    }

    /// Should this execution stop scheduling new candidates?  Propagates a
    /// stopped budget into the runtime stop flag.
    fn should_stop(&self) -> bool {
        if self.budget_exhausted() {
            self.stop.cancel();
            return true;
        }
        self.stop.is_cancelled()
    }

    /// Has the budget stopped the execution (deadline, decision cap or
    /// explicit cancellation)?
    fn budget_exhausted(&self) -> bool {
        self.budget.as_ref().is_some_and(ExecBudget::is_exhausted)
    }

    /// Claims one accepted-answer slot.  With a limit of `k`, exactly the
    /// first `k` claims succeed (the `fetch_add` arbitrates races) and the
    /// `k`-th claim raises the stop flag so no further candidate is
    /// verified.
    fn try_accept(&self) -> bool {
        match self.limit {
            None => true,
            Some(k) => {
                let prev = self.accepted.fetch_add(1, Ordering::AcqRel);
                if prev + 1 >= k {
                    self.stop.cancel();
                }
                prev < k
            }
        }
    }
}

/// Sorted, duplicate-free copy of a focus restriction.
fn normalized(restrict: &[NodeId]) -> Vec<NodeId> {
    let mut v = restrict.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// A matcher session a worker decides on: the one the coordinator checked
/// out of the query's pool or built for a fragment, or one the worker built
/// itself.
enum SiteSession {
    Leased(Lease),
    Built(Box<SessionCore>),
}

impl SiteSession {
    fn core(&mut self) -> &mut SessionCore {
        match self {
            SiteSession::Leased(lease) => lease.core(),
            SiteSession::Built(core) => core,
        }
    }

    /// The work done on this session for this execution.
    fn stats(&self) -> MatchStats {
        match self {
            SiteSession::Leased(lease) => lease.stats(),
            SiteSession::Built(core) => core.stats(),
        }
    }
}

/// Per-executor-thread scratch: one matcher session per site (all sharing
/// the compiled pattern) and the foci this thread accepted.
struct SiteScratch {
    sessions: Vec<Option<SiteSession>>,
    accepted: Vec<FocusCount>,
}

/// The driver: one execution of `pq` against `snapshot` under `opts`.
/// Returns every accepted focus with its witness count, in ascending
/// order, the work of every session the execution decided on, and whether
/// the budget stopped it.
pub(super) fn execute(
    pq: &PreparedQuery,
    snapshot: &Arc<GraphSnapshot>,
    opts: &ExecOptions<'_>,
) -> Result<CountAnswer, MatchError> {
    let ctl = ExecControl::new(opts.limit, opts.budget.clone());
    let config = opts.config;
    let count = opts.count;
    let compiled = pq.compiled();
    // Sequential mode's runtime: one worker, which runs inline on the
    // calling thread and takes the tasks in order.
    let inline = Runtime::new(1);

    // The task list: (site, focus candidate in the site's node ids).  The
    // sites are the fragments of a partition, or — `fragments` empty — the
    // snapshot's whole graph as the one site 0.  `handoff[s]` holds the
    // session the coordinator built or checked out to plan site `s`; the
    // first worker deciding on the site takes it, so it is never built
    // twice.
    let mut tasks: Vec<(u32, NodeId)> = Vec::new();
    let mut handoff: Vec<Option<SiteSession>> = Vec::new();
    let (fragments, runtime): (&[Fragment], _) = match opts.mode {
        // Partitioned execution matches inside the fragments' own graphs;
        // the snapshot only pins the candidate universe via the fragments.
        ExecMode::Partitioned {
            fragments,
            d,
            runtime,
        } => {
            if fragments.is_empty() {
                return Err(MatchError::EmptyPartition);
            }
            let radius = pq.radius();
            if radius > d {
                return Err(MatchError::RadiusExceedsPartition {
                    radius,
                    partition_d: d,
                });
            }
            // A fragment's tasks are its covered nodes, within the
            // restriction, that its session keeps as focus candidates;
            // fragment-major, so a worker's initial contiguous range mostly
            // stays within one fragment.  A node covered by several
            // fragments (legal for hand-built fragments; DPar coverage is
            // disjoint) is scheduled exactly once — otherwise each duplicate
            // accept would consume a `limit` slot that dedup later takes
            // back, shorting the answer below min(k, |answer|).  A limit of
            // 0 plans nothing, and a fragment without a node to decide
            // builds no session.
            let restrict = opts.restrict.map(normalized);
            let universe = fragments
                .iter()
                .flat_map(Fragment::covered_nodes)
                .map(|v| v.index() + 1)
                .max()
                .unwrap_or(0);
            let mut scheduled = DenseBitSet::new(universe);
            for (f, fragment) in fragments.iter().enumerate() {
                let covered: Vec<NodeId> = fragment
                    .covered_nodes()
                    .filter(|v| restrict.as_ref().is_none_or(|r| r.binary_search(v).is_ok()))
                    .collect();
                if covered.is_empty() || opts.limit == Some(0) {
                    handoff.push(None);
                    continue;
                }
                let core = SessionCore::new(fragment.graph(), Arc::clone(compiled), &config);
                for global in covered {
                    if let Some(local) = fragment.to_local(global) {
                        if core.is_focus_candidate(local) && scheduled.insert(global.index()) {
                            tasks.push((f as u32, local));
                        }
                    }
                }
                handoff.push(Some(SiteSession::Built(Box::new(core))));
            }
            (fragments, runtime)
        }
        mode => {
            // The pooled session provides the (deterministic, sorted)
            // candidate list; its build cost — if this execution triggered
            // it — lands in this execution's stats.
            let mut lease = pq.checkout(snapshot, &config);
            let session = lease.core();
            let candidates = match opts.restrict {
                None => session.focus_candidates().to_vec(),
                Some(r) => {
                    let mut v = normalized(r);
                    v.retain(|&vx| session.is_focus_candidate(vx));
                    v
                }
            };
            tasks.extend(candidates.into_iter().map(|v| (0, v)));
            handoff.push(Some(SiteSession::Leased(lease)));
            // The candidates are sorted, so on the one inline worker a
            // sequential execution decides them in ascending order: a
            // limit or a decision cap stops it at a prefix of the answer.
            let runtime = match mode {
                ExecMode::Parallel(runtime) => runtime,
                _ => &inline,
            };
            (&[], runtime)
        }
    };
    // A limit of 0 asks for no answer: decide nothing.  (The limit's stop
    // flag only rises on an accept, after a decision.)
    if opts.limit == Some(0) {
        tasks.clear();
    }
    let site = |s: usize| match fragments.get(s) {
        Some(fragment) => (fragment.graph(), Some(fragment)),
        None => (snapshot.graph(), None),
    };
    let handoff: Vec<Mutex<Option<SiteSession>>> = handoff.into_iter().map(Mutex::new).collect();

    let outcome = runtime
        .try_map_with_cancel(
            tasks.len(),
            &ctl.stop,
            || SiteScratch {
                sessions: handoff.iter().map(|_| None).collect(),
                accepted: Vec::new(),
            },
            |scratch, i| {
                if ctl.should_stop() {
                    return;
                }
                let (s, focus) = tasks[i];
                let s = s as usize;
                let (graph, fragment) = site(s);
                // The session leaves the scratch for the decision, so one
                // that a panicking decision leaves suspect dies in the
                // unwinding (a lease then never returns to its pool).
                let mut session = scratch.sessions[s].take().unwrap_or_else(|| {
                    let handed = handoff[s]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    handed.unwrap_or_else(|| {
                        let core = SessionCore::new(graph, Arc::clone(compiled), &config);
                        SiteSession::Built(Box::new(core))
                    })
                });
                // Every task is a focus candidate, so every one is charged.
                if ctl.charge() {
                    let verdict = session
                        .core()
                        .decide(graph, focus, count, ctl.decide_token());
                    if let Some(v) = verdict.filter(|v| v.matched && ctl.try_accept()) {
                        scratch.accepted.push(FocusCount {
                            focus: fragment.map_or(focus, |f| f.to_global(focus)),
                            witnesses: v.witnesses,
                        });
                    }
                }
                scratch.sessions[s] = Some(session);
            },
        )
        .map_err(MatchError::TaskPanicked)?;

    // Coordinator: union of the partial answers, and the work of every
    // session — taken by a worker or still handed off.
    let mut per_focus = Vec::new();
    let mut stats = MatchStats::default();
    for scratch in outcome.states {
        per_focus.extend(scratch.accepted);
        for session in scratch.sessions.into_iter().flatten() {
            stats += session.stats();
        }
    }
    for slot in handoff {
        if let Some(session) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            stats += session.stats();
        }
    }
    per_focus.sort_unstable_by_key(|f| f.focus);
    per_focus.dedup_by_key(|f| f.focus);
    Ok(CountAnswer {
        total: per_focus.len(),
        per_focus,
        truncated: ctl.budget_exhausted(),
        stats,
    })
}
