//! Execution of prepared queries: one driver turns [`ExecOptions`] into a
//! list of `(site, focus)` tasks — the pinned snapshot is one site, each
//! fragment of a partition is one — and folds the verdicts of the one
//! decision kernel, `SessionCore::decide`, into per-focus counts.  The
//! modes differ only in the schedule: a sequential execution decides its
//! tasks lazily as [`Matches`] is iterated, the others on the
//! work-stealing runtime before `execute` returns.

use qgp_runtime::sync::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qgp_graph::{Fragment, GraphSnapshot, NodeId};
use qgp_runtime::{CancelToken, ExecBudget};

use super::count::{CountAnswer, FocusCount};
use super::options::{BudgetPolicy, ExecMode, ExecOptions};
use super::{Lease, PreparedQuery};
use crate::error::MatchError;
use crate::matching::{CountMode, MatchStats, QueryAnswer, SessionCore};

/// Scheduling telemetry of a parallel or partitioned execution, preserved
/// so `ParallelAnswer`-style reporting keeps working through the engine.
#[derive(Debug, Clone, Default)]
pub struct ParallelTelemetry {
    /// Matching time attributed to each *fragment* (partitioned mode only;
    /// empty for whole-graph parallel runs) — the balance measure of the
    /// paper's Exp-2.
    pub worker_times: Vec<Duration>,
    /// Busy time of each executor thread; the maximum is the critical path.
    pub thread_busy: Vec<Duration>,
    /// Candidate-range steals the executor performed.
    pub steals: usize,
    /// Wall-clock time of the parallel phase.
    pub elapsed: Duration,
}

/// Shared controls of one execution: the user's cancellation token, the
/// execution budget, the internal stop flag the runtime polls (set on user
/// cancellation, budget exhaustion, *or* when the answer limit is
/// reached), and the accepted-answer counter.
struct ExecControl {
    user: Option<CancelToken>,
    budget: Option<ExecBudget>,
    stop: CancelToken,
    limit: Option<usize>,
    accepted: AtomicUsize,
}

impl ExecControl {
    fn new(limit: Option<usize>, user: Option<CancelToken>, budget: Option<ExecBudget>) -> Self {
        ExecControl {
            user,
            budget,
            stop: CancelToken::new(),
            limit,
            accepted: AtomicUsize::new(0),
        }
    }

    /// The token the work-stealing runtime polls between tasks.
    fn runtime_token(&self) -> &CancelToken {
        &self.stop
    }

    /// The token polled inside `SessionCore::decide`: the
    /// user's when present, else the budget's (so a deadline is observed
    /// between verification phases too).
    fn decide_token(&self) -> Option<&CancelToken> {
        self.user
            .as_ref()
            .or_else(|| self.budget.as_ref().map(ExecBudget::token))
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
    /// fired user token or exhausted budget into the runtime stop flag.
    fn should_stop(&self) -> bool {
        if self.user.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.budget.as_ref().is_some_and(ExecBudget::is_exhausted)
        {
            self.stop.cancel();
            return true;
        }
        self.stop.is_cancelled()
    }

    /// Was the execution truncated by budget exhaustion?
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

    /// Tokens are latched, so observing the user token directly is exact.
    fn was_cancelled(&self) -> bool {
        self.user.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// The lazy answer stream of one [`PreparedQuery::execute`] call.
///
/// Under [`ExecMode::Sequential`] each call to [`Iterator::next`] verifies
/// focus candidates until the next accepted one — the first answers arrive
/// before later candidates are even looked at, and dropping the iterator
/// early (or setting [`ExecOptions::limit`]) genuinely skips their
/// verification.  Parallel and partitioned executions run when `execute`
/// is called (their answers come back through a barrier) and iterate a
/// buffered, sorted result.
///
/// A sequential stream owns the matcher session it checked out of its
/// query's pool and returns it when dropped.
///
/// [`Matches::into_answer`] drains whatever is still pending and returns
/// the complete [`QueryAnswer`] of the execution, including the matches
/// already yielded.
pub struct Matches {
    /// The accepted foci so far, each with its witness count.
    accepted: Vec<FocusCount>,
    /// How many of `accepted` the iterator has yielded.
    yielded: usize,
    truncated: bool,
    cancelled: bool,
    fail_on_budget: bool,
    schedule: Schedule,
}

enum Schedule {
    /// Tasks still to decide, lazily, on the checked-out session.
    Streaming {
        /// The pinned snapshot every decision reads.
        snapshot: Arc<GraphSnapshot>,
        lease: Lease,
        candidates: Vec<NodeId>,
        pos: usize,
        ctl: ExecControl,
        /// When set, decisions take the counting work profile (identical
        /// accepted set).
        count: Option<CountMode>,
        done: bool,
    },
    /// Every task was decided before `execute` returned.
    Buffered {
        stats: MatchStats,
        telemetry: ParallelTelemetry,
    },
}

impl std::fmt::Debug for Matches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match &self.schedule {
            Schedule::Streaming { .. } => "streaming",
            Schedule::Buffered { .. } => "buffered",
        };
        f.debug_struct("Matches")
            .field("mode", &mode)
            .field("accepted", &self.accepted.len())
            .field("yielded", &self.yielded)
            .finish_non_exhaustive()
    }
}

impl Iterator for Matches {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.yielded == self.accepted.len() {
            self.advance(true);
        }
        let v = self.accepted.get(self.yielded)?.focus;
        self.yielded += 1;
        Some(v)
    }
}

impl Matches {
    /// Streaming schedule: decides candidates, pushing the accepted ones
    /// onto `accepted`, until the stream ends — or, with `one_answer`, until
    /// the next accepted one.
    fn advance(&mut self, one_answer: bool) {
        let Schedule::Streaming {
            snapshot,
            lease,
            candidates,
            pos,
            ctl,
            count,
            done,
        } = &mut self.schedule
        else {
            return;
        };
        if *done || ctl.limit.is_some_and(|k| self.accepted.len() >= k) {
            return;
        }
        let (session, graph, token) = (lease.core(), snapshot.graph(), ctl.decide_token());
        while *pos < candidates.len() {
            // Per-candidate budget polling: the charge that finds the
            // budget empty (deadline or decision cap) stops the stream
            // before the candidate is verified.
            if !ctl.charge() {
                self.truncated = true;
                break;
            }
            let vx = candidates[*pos];
            *pos += 1;
            match session.decide(graph, vx, *count, token) {
                None => {
                    // Stopped mid-verification: by the user's token when
                    // one is attached, else by the budget's.
                    if ctl.user.is_some() {
                        self.cancelled = true;
                    } else {
                        self.truncated = true;
                    }
                    break;
                }
                Some(verdict) if verdict.matched => {
                    self.accepted.push(FocusCount {
                        focus: vx,
                        witnesses: verdict.witnesses,
                    });
                    if ctl.limit.is_some_and(|k| self.accepted.len() >= k) {
                        break;
                    }
                    if one_answer {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
        *done = true;
    }

    /// Work counters of this execution so far (final once the iterator is
    /// exhausted; parallel and partitioned executions are complete as soon
    /// as `execute` returns).
    pub fn stats(&self) -> MatchStats {
        match &self.schedule {
            Schedule::Streaming { lease, .. } => lease.stats(),
            Schedule::Buffered { stats, .. } => *stats,
        }
    }

    /// Scheduling telemetry (parallel and partitioned executions only).
    pub fn telemetry(&self) -> Option<&ParallelTelemetry> {
        match &self.schedule {
            Schedule::Streaming { .. } => None,
            Schedule::Buffered { telemetry, .. } => Some(telemetry),
        }
    }

    /// Was (or will) the execution be stopped by its cancellation token,
    /// rather than by exhausting the candidates or reaching the limit?  A
    /// cancelled execution's answer is a *partial* answer.
    pub fn cancelled(&self) -> bool {
        // A fired token counts even before iteration observes it — unless
        // the stream already finished on its own.
        self.cancelled
            || matches!(&self.schedule, Schedule::Streaming { ctl, done, .. }
                if !done && ctl.was_cancelled())
    }

    /// Was (or will) the execution be stopped by its [`ExecBudget`] running
    /// out, rather than by exhausting the candidates, the limit, or
    /// explicit cancellation?  A truncated execution's answer is a prefix
    /// (sequential mode) or subset (parallel modes) of the full answer.
    pub fn truncated(&self) -> bool {
        self.truncated
            || matches!(&self.schedule, Schedule::Streaming { ctl, done, .. }
                if !done && ctl.budget_exhausted())
    }

    /// Runs the execution to completion (respecting limit, budget and
    /// cancellation): every accepted focus — those already yielded
    /// included — the execution's counters, and whether it stopped early.
    fn finish(mut self) -> (Vec<FocusCount>, MatchStats, bool) {
        self.advance(false);
        let stopped = self.truncated() || self.cancelled();
        (std::mem::take(&mut self.accepted), self.stats(), stopped)
    }

    /// [`Matches::finish`] under the execution's budget policy.
    fn try_finish(mut self) -> Result<(Vec<FocusCount>, MatchStats, bool), MatchError> {
        self.advance(false);
        if self.fail_on_budget && self.truncated() {
            return Err(MatchError::BudgetExceeded);
        }
        Ok(self.finish())
    }

    /// Runs the execution to completion and returns the full answer —
    /// matches already yielded included.  Budget exhaustion comes back as a
    /// partial answer with [`QueryAnswer::truncated`] set regardless of the
    /// [`BudgetPolicy`](super::BudgetPolicy); use
    /// [`Matches::try_into_answer`] to honor [`BudgetPolicy::Fail`].
    pub fn into_answer(self) -> QueryAnswer {
        project(self.finish())
    }

    /// [`Matches::into_answer`] under the execution's budget policy: with
    /// [`BudgetPolicy::Fail`](super::BudgetPolicy::Fail), a run whose
    /// budget ran out returns [`MatchError::BudgetExceeded`] instead of a
    /// partial answer.  (Buffered executions under `Fail` already failed at
    /// `execute`; this is where the streaming sequential path fails.)
    pub fn try_into_answer(self) -> Result<QueryAnswer, MatchError> {
        self.try_finish().map(project)
    }

    /// [`Matches::try_into_answer`], keeping the witness counts.
    pub(super) fn try_into_count(self) -> Result<CountAnswer, MatchError> {
        let (per_focus, stats, truncated) = self.try_finish()?;
        Ok(CountAnswer {
            total: per_focus.len(),
            per_focus,
            truncated,
            stats,
        })
    }
}

/// Projects finished per-focus counts to the foci.
fn project((accepted, stats, truncated): (Vec<FocusCount>, MatchStats, bool)) -> QueryAnswer {
    QueryAnswer {
        matches: accepted.into_iter().map(|f| f.focus).collect(),
        stats,
        truncated,
    }
}

/// Sorted, duplicate-free copy of a focus restriction.
fn normalized(restrict: &[NodeId]) -> Vec<NodeId> {
    let mut v = restrict.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Per-executor-thread scratch: one matcher session per site (all sharing
/// the compiled pattern), the foci this thread accepted, and per-fragment
/// busy accounting.
struct SiteScratch {
    sessions: Vec<Option<SessionCore>>,
    accepted: Vec<FocusCount>,
    fragment_busy: Vec<Duration>,
}

/// The driver: one execution of `pq` against `snapshot` under `opts`.
pub(super) fn execute(
    pq: &PreparedQuery,
    snapshot: &Arc<GraphSnapshot>,
    opts: &ExecOptions<'_>,
) -> Result<Matches, MatchError> {
    let ctl = ExecControl::new(opts.limit, opts.cancel.clone(), opts.budget.clone());
    let config = opts.config;
    let count = opts.count;
    let mut matches = Matches {
        accepted: Vec::new(),
        yielded: 0,
        truncated: false,
        cancelled: false,
        fail_on_budget: opts.on_budget == BudgetPolicy::Fail,
        schedule: Schedule::Buffered {
            stats: MatchStats::default(),
            telemetry: ParallelTelemetry::default(),
        },
    };

    // The task list: (site, focus in the site's node ids).  The sites are
    // the fragments of a partition, or — `fragments` empty — the snapshot's
    // whole graph as the one site 0.
    let mut planning = MatchStats::default();
    let mut tasks: Vec<(u32, NodeId)> = Vec::new();
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
            // Fragment-major, so a worker's initial contiguous range mostly
            // stays within one fragment (one session) and cross-fragment
            // sessions only appear when work is stolen.  A node covered by
            // several fragments (legal for hand-built fragments; DPar
            // coverage is disjoint) is scheduled exactly once — otherwise
            // each duplicate accept would consume a `limit` slot that dedup
            // later takes back, shorting the answer below min(k, |answer|).
            let restrict = opts.restrict.map(normalized);
            let mut seen = std::collections::HashSet::new();
            for (f, fragment) in fragments.iter().enumerate() {
                for global in fragment.covered_nodes() {
                    if restrict
                        .as_ref()
                        .is_some_and(|r| r.binary_search(&global).is_err())
                    {
                        continue;
                    }
                    if let Some(local) = fragment.to_local(global) {
                        if seen.insert(global) {
                            tasks.push((f as u32, local));
                        }
                    }
                }
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
            let ExecMode::Parallel(runtime) = mode else {
                // Sequential: the same tasks, decided lazily on the pooled
                // session as the stream is iterated.
                matches.schedule = Schedule::Streaming {
                    snapshot: Arc::clone(snapshot),
                    lease,
                    candidates,
                    pos: 0,
                    ctl,
                    count,
                    done: false,
                };
                return Ok(matches);
            };
            planning = lease.stats();
            tasks.extend(candidates.into_iter().map(|v| (0, v)));
            (&[], runtime)
        }
    };
    let site = |s: usize| match fragments.get(s) {
        Some(fragment) => (fragment.graph(), Some(fragment)),
        None => (snapshot.graph(), None),
    };

    let compiled = pq.compiled();
    let start = Instant::now();
    let outcome = runtime
        .try_map_with_cancel(
            tasks.len(),
            ctl.runtime_token(),
            || {
                let mut sessions: Vec<Option<SessionCore>> =
                    (0..fragments.len().max(1)).map(|_| None).collect();
                // Every worker decides on the whole graph; a fragment's
                // session waits for the first task that lands there.
                if fragments.is_empty() {
                    sessions[0] = Some(SessionCore::new(site(0).0, Arc::clone(compiled), &config));
                }
                SiteScratch {
                    sessions,
                    accepted: Vec::new(),
                    fragment_busy: vec![Duration::ZERO; fragments.len()],
                }
            },
            |scratch, i| {
                if ctl.should_stop() {
                    return;
                }
                let (s, focus) = tasks[i];
                let s = s as usize;
                let (graph, fragment) = site(s);
                let SiteScratch {
                    sessions,
                    accepted,
                    fragment_busy,
                } = scratch;
                let session = sessions[s].get_or_insert_with(|| {
                    let t0 = Instant::now();
                    let session = SessionCore::new(graph, Arc::clone(compiled), &config);
                    fragment_busy[s] += t0.elapsed();
                    session
                });
                // Pruned candidates exit through one bitmap probe with no
                // clock reads — per-item timing only wraps real
                // verifications, so the balance accounting does not tax the
                // (common) cheap path.
                if !session.is_focus_candidate(focus) || !ctl.charge() {
                    return;
                }
                let t0 = fragment.map(|_| Instant::now());
                let verdict = session.decide(graph, focus, count, ctl.decide_token());
                if let Some(t0) = t0 {
                    fragment_busy[s] += t0.elapsed();
                }
                if let Some(v) = verdict.filter(|v| v.matched && ctl.try_accept()) {
                    accepted.push(FocusCount {
                        focus: fragment.map_or(focus, |f| f.to_global(focus)),
                        witnesses: v.witnesses,
                    });
                }
            },
        )
        .map_err(MatchError::TaskPanicked)?;

    matches.truncated = ctl.budget_exhausted();
    if matches.truncated && matches.fail_on_budget {
        return Err(MatchError::BudgetExceeded);
    }
    matches.cancelled = ctl.was_cancelled();

    // Coordinator: union of the partial answers.
    let mut stats = planning;
    let mut worker_times = vec![Duration::ZERO; fragments.len()];
    for scratch in outcome.states {
        matches.accepted.extend(scratch.accepted);
        for session in scratch.sessions.into_iter().flatten() {
            stats += session.stats();
        }
        for (f, busy) in scratch.fragment_busy.iter().enumerate() {
            worker_times[f] += *busy;
        }
    }
    matches.accepted.sort_unstable_by_key(|f| f.focus);
    matches.accepted.dedup_by_key(|f| f.focus);
    matches.schedule = Schedule::Buffered {
        stats,
        telemetry: ParallelTelemetry {
            worker_times,
            thread_busy: outcome.worker_busy,
            steals: outcome.steals,
            elapsed: start.elapsed(),
        },
    };
    Ok(matches)
}
