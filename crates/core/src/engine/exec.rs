//! Execution of prepared queries: one driver turns [`ExecOptions`] into a
//! list of focus tasks on the snapshot and folds the verdicts of the one
//! decision kernel, `SessionCore::decide`, into per-focus counts.  The
//! modes differ only in which foci they plan and the runtime the tasks run
//! on: a sequential execution runs the focus candidates on one inline
//! worker, in ascending order, a parallel one on the work-stealing runtime
//! it names, and a partitioned one runs the candidates its fragments cover.
//! The session that plans and every worker's session are leased from the
//! query's pool.  A `MatchView`'s materialization and repairs are
//! executions of the view's query like any other.

use qgp_runtime::sync::{AtomicUsize, Ordering};
use std::sync::Arc;

use qgp_graph::{DenseBitSet, Fragment, GraphSnapshot, NodeId};
use qgp_runtime::{CancelToken, ExecBudget, Runtime};

use super::count::{CountAnswer, FocusCount};
use super::options::{ExecMode, ExecOptions};
use super::{Lease, PreparedQuery};
use crate::error::MatchError;

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

/// Per-executor-thread scratch: the thread's leased matcher session, the
/// foci it accepted and the number of tasks it decided.
struct WorkerScratch {
    session: Option<Lease>,
    accepted: Vec<FocusCount>,
    decided: usize,
}

/// One execution: its answer, the focus tasks it planned, and how many of
/// them it decided (fewer when a budget or a limit stopped it).
pub(super) struct Execution {
    pub(super) answer: CountAnswer,
    pub(super) planned: usize,
    pub(super) decided: usize,
}

/// The driver: one execution of `pq` against `snapshot` under `opts`.
/// Returns every accepted focus with its witness count, in ascending
/// order, the work of every session the execution decided on, and whether
/// the budget stopped it.
pub(super) fn execute(
    pq: &PreparedQuery,
    snapshot: &Arc<GraphSnapshot>,
    opts: &ExecOptions<'_>,
) -> Result<Execution, MatchError> {
    let ctl = ExecControl::new(opts.limit, opts.budget.clone());
    let config = opts.config;
    let count = opts.count;
    // Sequential mode's runtime: one worker, which runs inline on the
    // calling thread and takes the tasks in order.
    let inline = Runtime::new(1);
    let runtime = match opts.mode {
        ExecMode::Sequential => &inline,
        ExecMode::Parallel(runtime) => runtime,
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
            runtime
        }
    };

    // A pooled session plans the tasks; its build cost, if this execution
    // triggered it, lands in this execution's stats, and it goes back to
    // the pool for the first worker to check out.
    let mut lease = pq.checkout(snapshot, &config);
    let mut stats = lease.stats();
    let session = lease.core();
    let restrict = opts.restrict.map(normalized);
    let mut tasks: Vec<NodeId> = match (opts.mode, restrict) {
        // A partition only plans: its tasks are the fragments' covered
        // candidates, within the restriction, fragment-major, so a worker's
        // initial contiguous range mostly stays within one fragment.  Each
        // is decided on the snapshot, whose `N_d(v)` the kernel visits
        // exactly as a fragment holding it would.  A node covered by
        // several fragments (legal for hand-built fragments; DPar coverage
        // is disjoint) is scheduled once, so it is accepted once: a second
        // accept would list it twice and take a second `limit` slot.
        (ExecMode::Partitioned { fragments, .. }, restrict) => {
            let mut scheduled = DenseBitSet::new(snapshot.node_count());
            (fragments.iter().flat_map(Fragment::covered_nodes))
                .filter(|v| restrict.as_ref().is_none_or(|r| r.binary_search(v).is_ok()))
                .filter(|&v| session.is_focus_candidate(v) && scheduled.insert(v.index()))
                .collect()
        }
        (_, None) => session.focus_candidates().to_vec(),
        (_, Some(mut r)) => {
            r.retain(|&v| session.is_focus_candidate(v));
            r
        }
    };
    drop(lease);
    // A limit of 0 asks for no answer: decide nothing.  (The limit's stop
    // flag only rises on an accept, after a decision.)
    if opts.limit == Some(0) {
        tasks.clear();
    }
    let graph = snapshot.graph();

    let outcome = runtime
        .try_map_with_cancel(
            tasks.len(),
            &ctl.stop,
            || WorkerScratch {
                session: None,
                accepted: Vec::new(),
                decided: 0,
            },
            |scratch, i| {
                if ctl.should_stop() {
                    return;
                }
                let focus = tasks[i];
                // The lease leaves the scratch for the decision, so one that
                // a panicking decision leaves suspect dies in the unwinding
                // and never returns to its pool.
                let mut lease =
                    (scratch.session.take()).unwrap_or_else(|| pq.checkout(snapshot, &config));
                // Every task is a focus candidate, so every one is charged.
                if ctl.charge() {
                    let verdict = lease.core().decide(graph, focus, count, ctl.decide_token());
                    if let Some(v) = verdict {
                        scratch.decided += 1;
                        if v.matched && ctl.try_accept() {
                            scratch.accepted.push(FocusCount {
                                focus,
                                witnesses: v.witnesses,
                            });
                        }
                    }
                }
                scratch.session = Some(lease);
            },
        )
        .map_err(MatchError::TaskPanicked)?;

    // Coordinator: the work of every worker's session and the union of the
    // partial answers; the leases go back to the pool as the states drop.
    let mut decided = 0;
    let mut per_focus = Vec::new();
    for state in outcome.states {
        stats += state.session.as_ref().map(Lease::stats).unwrap_or_default();
        decided += state.decided;
        per_focus.extend(state.accepted);
    }
    per_focus.sort_unstable_by_key(|f| f.focus);
    Ok(Execution {
        answer: CountAnswer {
            per_focus,
            truncated: ctl.budget_exhausted(),
            stats,
        },
        planned: tasks.len(),
        decided,
    })
}
