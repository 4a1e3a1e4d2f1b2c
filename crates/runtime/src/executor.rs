//! The work-stealing executor.
//!
//! See the crate-level docs for the scheduling model.  Everything here is
//! safe code: the per-worker deque is one atomic `(lo, hi)` range, outputs
//! are accumulated worker-locally and scattered into index order after the
//! join, and worker threads are scoped so tasks may borrow the caller's
//! data.  This module is the only place in the workspace allowed to spawn
//! threads for data parallelism.
//!
//! ## Panic isolation
//!
//! Task steps run inside `catch_unwind`: a panicking task cancels the rest
//! of the map through an internal abort token, the scope joins cleanly, and
//! the panic surfaces as a structured [`TaskError`] — from
//! [`Runtime::try_map_with_cancel`] as `Err(TaskError)`, from the
//! infallible `map`/`map_with` as a caller-side panic raised *after* the
//! join.  Either way no worker thread unwinds through `join()`, so the
//! `Runtime` (including [`Runtime::global`]) stays reusable after any task
//! panic.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Duration;

use crate::cancel::CancelToken;
use crate::deque::RangeQueue;
use crate::faults;
use crate::sync::{self, AtomicUsize, Ordering};

/// Number of executor threads used when `QGP_THREADS` is not set: the
/// machine's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `QGP_THREADS`-style override; falls back when absent or invalid.
fn parse_threads(var: Option<&str>, fallback: usize) -> usize {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(fallback)
        .max(1)
}

/// A panic captured from one task (or one worker's state initializer),
/// reported with enough structure to log, retry, or surface per-query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Index of the worker the panic occurred on (0 is the caller).
    pub worker: usize,
    /// Index of the task that panicked; `None` when the per-worker state
    /// initializer (not a task) panicked.
    pub index: Option<usize>,
    /// The panic payload rendered as a string (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(
                f,
                "task {i} panicked on worker {}: {}",
                self.worker, self.payload
            ),
            None => write!(
                f,
                "worker {} state initializer panicked: {}",
                self.worker, self.payload
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// Renders a caught panic payload for [`TaskError::payload`].
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What one worker hands back after the join: its `(index, output)` pairs,
/// its scratch state, and its busy time.
type WorkerResult<O, S> = (Vec<(u32, O)>, S, Duration);

/// The result of one parallel map: the per-index outputs (in index order,
/// regardless of which worker produced them), plus the per-worker scratch
/// states and busy times for aggregation.
#[derive(Debug)]
pub struct MapOutcome<O, S> {
    /// `outputs[i]` is the result of the step function on index `i`.
    pub outputs: Vec<O>,
    /// The per-worker scratch states, one per worker that ran (at most
    /// [`Runtime::threads`]).
    pub states: Vec<S>,
    /// Busy time of each worker: the summed wall time of the task blocks
    /// it executed.  On an oversubscribed host this includes time a
    /// preempted worker spent waiting for a core.  The maximum is the
    /// run's *critical path*: the wall clock a deployment with one core
    /// per worker would observe.
    pub worker_busy: Vec<Duration>,
    /// Number of successful steals — >0 means the initial static split was
    /// imbalanced and the executor rebalanced it dynamically.
    pub steals: usize,
}

impl<O, S> MapOutcome<O, S> {
    /// Total busy time across workers (the sequential-equivalent work).
    pub fn total_busy(&self) -> Duration {
        self.worker_busy.iter().sum()
    }

    /// The critical path: the largest per-worker busy time.
    pub fn critical_path(&self) -> Duration {
        self.worker_busy.iter().max().copied().unwrap_or_default()
    }
}

/// A work-stealing executor with a fixed number of worker threads.
///
/// `Runtime` is cheap to construct — threads are scoped to each
/// [`Runtime::map_with`] call (so tasks can borrow caller data without
/// `'static` bounds), while per-worker scratch state persists across all
/// blocks a worker executes within a call.  Use [`Runtime::global`] for the
/// process-wide instance configured by the `QGP_THREADS` environment
/// variable.
#[derive(Debug, Clone)]
pub struct Runtime {
    threads: usize,
}

impl Runtime {
    /// An executor with the given number of worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Runtime {
            threads: threads.max(1),
        }
    }

    /// The process-wide executor: `QGP_THREADS` when set to a positive
    /// integer, otherwise the machine's available parallelism.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let var = std::env::var("QGP_THREADS").ok();
            Runtime::new(parse_threads(var.as_deref(), default_threads()))
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel map without per-worker state.
    pub fn map<O, F>(&self, len: usize, step: F) -> MapOutcome<O, ()>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        self.map_with(len, || (), |(), i| step(i))
    }

    /// Parallel map with per-worker scratch state.
    ///
    /// `init` runs once on each worker thread that participates; `step` runs
    /// once per index with that worker's state.  Outputs come back in index
    /// order, so results are deterministic no matter how work was stolen.
    ///
    /// A panicking task does not unwind through the executor: the map is
    /// aborted, every worker joins cleanly, and the panic is re-raised on
    /// the calling thread with the captured [`TaskError`] as its message —
    /// the `Runtime` remains reusable.  Callers that want the error as a
    /// value, or cooperative cancellation, use
    /// [`Runtime::try_map_with_cancel`].
    pub fn map_with<S, O, I, F>(&self, len: usize, init: I, step: F) -> MapOutcome<O, S>
    where
        S: Send,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> O + Sync,
    {
        let outcome = match self.map_impl(len, None, init, step) {
            Ok(outcome) => outcome,
            // Clean re-raise after the scope joined: no worker thread is
            // left running and no double-panic is possible here.
            Err(e) => panic!("{e}"),
        };
        MapOutcome {
            outputs: outcome
                .outputs
                .into_iter()
                .map(|o| o.expect("uncancelled maps execute every index"))
                .collect(),
            states: outcome.states,
            worker_busy: outcome.worker_busy,
            steals: outcome.steals,
        }
    }

    /// Panic-isolating, cancellation-aware parallel map: the engine-facing
    /// entry point of the fault-tolerance layer.  Workers poll `cancel`
    /// between tasks and stop claiming (and stealing) work once it fires;
    /// skipped indices come back as `None`, executed ones as
    /// `Some(output)`.  Cancellation is cooperative — a task that already
    /// started runs to completion.
    ///
    /// A panic in `init` or in any task aborts the map (remaining indices
    /// are skipped, in-flight tasks finish or panic on their own), every
    /// worker joins cleanly, and the first captured panic comes back as
    /// `Err(TaskError)`.  The `Runtime` — including the global instance —
    /// is reusable immediately afterwards.  Worker states are not returned
    /// on error: a state mutated by a panicking step is suspect and is
    /// dropped with the failed map.
    pub fn try_map_with_cancel<S, O, I, F>(
        &self,
        len: usize,
        cancel: &CancelToken,
        init: I,
        step: F,
    ) -> Result<MapOutcome<Option<O>, S>, TaskError>
    where
        S: Send,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> O + Sync,
    {
        self.map_impl(len, Some(cancel), init, step)
    }

    /// Stealing granularity: small enough to keep skewed items
    /// (hub candidates) stealable without making block claims measurable
    /// overhead.
    fn default_grain(&self, len: usize) -> usize {
        (len / (self.threads * 16)).clamp(1, 256)
    }

    /// Shared implementation: `None` for `cancel` means "never cancelled".
    fn map_impl<S, O, I, F>(
        &self,
        len: usize,
        cancel: Option<&CancelToken>,
        init: I,
        step: F,
    ) -> Result<MapOutcome<Option<O>, S>, TaskError>
    where
        S: Send,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> O + Sync,
    {
        assert!(
            len <= u32::MAX as usize,
            "task list exceeds u32 index space"
        );
        let workers = self.threads.min(len.max(1));
        if workers <= 1 {
            // Inline sequential fast path: no threads, no atomics.  Panic
            // isolation still applies — the engine's QGP_THREADS=1 leg must
            // degrade identically to the parallel one.
            let mut state = match catch_unwind(AssertUnwindSafe(&init)) {
                Ok(s) => s,
                Err(p) => {
                    return Err(TaskError {
                        worker: 0,
                        index: None,
                        payload: payload_to_string(p),
                    })
                }
            };
            let mut outputs: Vec<Option<O>> = Vec::with_capacity(len);
            // The busy time is one wall interval around the task loop.
            let t0 = sync::now();
            for i in 0..len {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    break;
                }
                let run = catch_unwind(AssertUnwindSafe(|| {
                    faults::fault_point("task", i);
                    step(&mut state, i)
                }));
                match run {
                    Ok(o) => outputs.push(Some(o)),
                    Err(p) => {
                        return Err(TaskError {
                            worker: 0,
                            index: Some(i),
                            payload: payload_to_string(p),
                        })
                    }
                }
            }
            let busy = sync::now().saturating_duration_since(t0);
            outputs.resize_with(len, || None);
            return Ok(MapOutcome {
                outputs,
                states: vec![state],
                worker_busy: vec![busy],
                steals: 0,
            });
        }

        // Static contiguous split as the starting point; stealing corrects
        // whatever imbalance the split hides.
        let base = len / workers;
        let rem = len % workers;
        let mut queues = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let take = base + usize::from(w < rem);
            queues.push(RangeQueue::new(next as u32, (next + take) as u32));
            next += take;
        }
        debug_assert_eq!(next, len);
        let steals = AtomicUsize::new(0);
        let grain = self.default_grain(len) as u32;
        // The fail-fast channel: the first panicking worker trips this so
        // its siblings stop claiming and stealing work.
        let abort = CancelToken::new();

        // Fault-injection scope follows the caller's thread: spawned
        // workers inherit whether this map participates in an armed plan.
        let inject = faults::thread_participates();

        let results: Vec<Result<WorkerResult<O, S>, TaskError>> = sync::scope(|scope| {
            let queues = &queues;
            let steals = &steals;
            let abort = &abort;
            let init = &init;
            let step = &step;
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    scope.spawn(move || {
                        faults::set_participating(inject);
                        worker_loop(w, queues, grain, cancel, abort, init, step, steals)
                    })
                })
                .collect();
            // The calling thread is worker 0.
            let mut all = vec![worker_loop(
                0, queues, grain, cancel, abort, init, step, steals,
            )];
            all.extend(handles.into_iter().enumerate().map(|(k, h)| {
                // Worker panics are caught inside `worker_loop`; a join
                // error can only come from a panic that escaped it (e.g. a
                // non-unwinding-safe drop).  Capture the payload instead of
                // re-panicking while other handles are still pending.
                h.join().unwrap_or_else(|p| {
                    Err(TaskError {
                        worker: k + 1,
                        index: None,
                        payload: payload_to_string(p),
                    })
                })
            }));
            all
        });

        // Scatter worker-local outputs back into index order.  Under
        // cancellation some indices were never executed; their slots stay
        // `None`.  The first captured panic wins and discards the map.
        let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(len).collect();
        let mut states = Vec::with_capacity(results.len());
        let mut worker_busy = Vec::with_capacity(results.len());
        let mut first_error: Option<TaskError> = None;
        for result in results {
            let (pairs, state, busy) = match result {
                Ok(r) => r,
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                    continue;
                }
            };
            for (i, o) in pairs {
                debug_assert!(slots[i as usize].is_none(), "index {i} executed twice");
                slots[i as usize] = Some(o);
            }
            states.push(state);
            worker_busy.push(busy);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(MapOutcome {
            outputs: slots,
            states,
            worker_busy,
            // relaxed: read after the scope joined every worker, so all
            // fetch_adds happen-before this load via the joins; the counter
            // is statistics, not synchronization.
            steals: steals.load(Ordering::Relaxed),
        })
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new(default_threads())
    }
}

/// One worker: drain the own queue in grain-sized blocks; when it runs dry,
/// steal the upper half of the richest victim; exit when every queue is
/// empty.  Claimed-but-unfinished blocks are not in any queue, so the
/// residual imbalance at exit is bounded by `grain` items per worker.
/// When a cancel token is present it is polled between tasks; once it (or
/// the internal abort token) fires, the worker abandons its remaining range
/// and exits.  A panicking task is caught here: the worker trips `abort`
/// and reports a [`TaskError`] instead of unwinding through the join.
#[allow(clippy::too_many_arguments)]
fn worker_loop<S, O, I, F>(
    me: usize,
    queues: &[RangeQueue],
    grain: u32,
    cancel: Option<&CancelToken>,
    abort: &CancelToken,
    init: &I,
    step: &F,
    steals: &AtomicUsize,
) -> Result<WorkerResult<O, S>, TaskError>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> O + Sync,
{
    let mut state = match catch_unwind(AssertUnwindSafe(init)) {
        Ok(s) => s,
        Err(p) => {
            abort.cancel();
            return Err(TaskError {
                worker: me,
                index: None,
                payload: payload_to_string(p),
            });
        }
    };
    let stop = || cancel.is_some_and(CancelToken::is_cancelled) || abort.is_cancelled();
    let mut out = Vec::new();
    // The busy time is the summed wall time of the blocks this worker ran.
    let mut busy = Duration::ZERO;
    'work: loop {
        while let Some((a, b)) = queues[me].claim(grain) {
            let t0 = sync::now();
            // Track the in-flight index so a panic anywhere in the block is
            // attributed to the task that raised it.
            let current = Cell::new(a);
            let run = catch_unwind(AssertUnwindSafe(|| {
                for i in a..b {
                    if stop() {
                        return false;
                    }
                    current.set(i);
                    faults::fault_point("task", i as usize);
                    out.push((i, step(&mut state, i as usize)));
                }
                true
            }));
            busy += sync::now().saturating_duration_since(t0);
            match run {
                Ok(true) => {}
                Ok(false) => break 'work,
                Err(p) => {
                    abort.cancel();
                    return Err(TaskError {
                        worker: me,
                        index: Some(current.get() as usize),
                        payload: payload_to_string(p),
                    });
                }
            }
        }
        if stop() {
            break 'work;
        }
        // Own queue dry: look for the richest victim.
        loop {
            let mut best: Option<(usize, u32)> = None;
            for (v, q) in queues.iter().enumerate() {
                if v == me {
                    continue;
                }
                let l = q.len();
                if l >= 1 && best.is_none_or(|(_, bl)| l > bl) {
                    best = Some((v, l));
                }
            }
            match best {
                Some((victim, _)) => {
                    if let Some((lo, hi)) = queues[victim].steal_half() {
                        // relaxed: a monotonic statistics counter — nothing
                        // is published through it; the caller reads it only
                        // after joining this worker.
                        steals.fetch_add(1, Ordering::Relaxed);
                        queues[me].install(lo, hi);
                        continue 'work;
                    }
                    // Lost the race; rescan.
                }
                // Every queue is empty.  Unexecuted work can only live in
                // a queue or in the hands of the thief that just CASed it
                // out (and will execute it itself), so nothing is left for
                // this worker: exit without spinning.
                None => break 'work,
            }
        }
    }
    Ok((out, state, busy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn map_matches_sequential_for_every_thread_count() {
        for threads in [1, 2, 3, 4, 7] {
            let rt = Runtime::new(threads);
            for len in [0usize, 1, 2, 5, 64, 257, 1000] {
                let outcome = rt.map(len, |i| i * 3 + 1);
                let expected: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
                assert_eq!(outcome.outputs, expected, "threads={threads} len={len}");
                assert!(outcome.states.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn per_worker_state_sees_every_index_exactly_once() {
        let rt = Runtime::new(4);
        let len = 10_000;
        let outcome = rt.map_with(len, Vec::new, |seen: &mut Vec<usize>, i| seen.push(i));
        let mut all: Vec<usize> = outcome.states.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..len).collect();
        assert_eq!(all, expected);
        assert_eq!(outcome.outputs.len(), len);
    }

    #[test]
    fn skewed_workload_triggers_stealing() {
        // All the cost sits in the first indices: the static split gives them
        // to worker 0, so the other workers must steal to stay busy.  64
        // tasks on 4 threads get grain 1, so every heavy item is
        // individually stealable.
        let rt = Runtime::new(4);
        let len = 64;
        assert_eq!(rt.default_grain(len), 1);
        let outcome = rt.map_with(
            len,
            || (),
            |(), i| {
                if i < 16 {
                    // A few hundred µs of real work per "hub" item.
                    let mut acc = 0u64;
                    for k in 0..200_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                }
                i
            },
        );
        assert_eq!(outcome.outputs, (0..len).collect::<Vec<_>>());
        // On any scheduler interleaving, at least one idle worker finds the
        // loaded range stealable.
        assert!(outcome.steals > 0, "expected dynamic rebalancing");
        assert!(outcome.critical_path() <= outcome.total_busy());
    }

    #[test]
    fn single_thread_runtime_runs_inline() {
        let rt = Runtime::new(1);
        let on_caller = AtomicBool::new(false);
        let caller = std::thread::current().id();
        let outcome = rt.map(8, |i| {
            if std::thread::current().id() == caller {
                on_caller.store(true, Ordering::Relaxed);
            }
            i
        });
        assert!(on_caller.load(Ordering::Relaxed));
        assert_eq!(outcome.steals, 0);
        assert_eq!(outcome.states.len(), 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Runtime::new(0).threads(), 1);
    }

    #[test]
    fn env_override_parsing() {
        assert_eq!(parse_threads(Some("4"), 2), 4);
        assert_eq!(parse_threads(Some(" 8 "), 2), 8);
        assert_eq!(parse_threads(Some("0"), 2), 2);
        assert_eq!(parse_threads(Some("nope"), 2), 2);
        assert_eq!(parse_threads(None, 3), 3);
        assert_eq!(parse_threads(None, 0), 1);
    }

    #[test]
    fn cancelled_map_skips_remaining_work_and_stays_reusable() {
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            let token = CancelToken::new();
            let executed = AtomicUsize::new(0);
            let outcome = rt
                .try_map_with_cancel(
                    10_000,
                    &token,
                    || (),
                    |(), i| {
                        executed.fetch_add(1, Ordering::Relaxed);
                        if i == 3 {
                            token.cancel();
                        }
                        i
                    },
                )
                .expect("no task panics");
            let done = outcome.outputs.iter().flatten().count();
            assert!(done >= 1, "threads={threads}: some work ran before cancel");
            assert!(
                done < 10_000,
                "threads={threads}: cancellation must skip work"
            );
            assert_eq!(done, executed.load(Ordering::Relaxed));
            // Executed outputs sit at their own index.
            for (i, o) in outcome.outputs.iter().enumerate() {
                if let Some(v) = o {
                    assert_eq!(*v, i);
                }
            }
            // The runtime is not poisoned: a fresh map on the same instance
            // completes fully.
            let again = rt
                .try_map_with_cancel(100, &CancelToken::new(), || (), |(), i| i)
                .expect("no task panics");
            assert_eq!(again.outputs.iter().flatten().count(), 100);
        }
    }

    #[test]
    fn pre_cancelled_map_returns_all_none() {
        let rt = Runtime::new(3);
        let token = CancelToken::new();
        token.cancel();
        let outcome = rt
            .try_map_with_cancel(64, &token, || (), |(), i| i)
            .expect("no task panics");
        assert_eq!(outcome.outputs.len(), 64);
        assert!(outcome.outputs.iter().all(Option::is_none));
        assert!(!outcome.states.is_empty());
    }

    #[test]
    fn states_and_busy_are_reported_per_worker() {
        let rt = Runtime::new(3);
        let outcome = rt.map_with(300, || 1usize, |s, _| *s);
        assert_eq!(outcome.outputs.len(), 300);
        assert!(!outcome.states.is_empty() && outcome.states.len() <= 3);
        assert_eq!(outcome.worker_busy.len(), outcome.states.len());
    }

    /// Busy time is the wall time of a worker's task blocks: a task that
    /// sleeps is busy for its sleep, which on-CPU accounting would read as
    /// about zero.
    #[test]
    fn busy_time_is_the_wall_time_of_the_tasks() {
        const SLEEP: Duration = Duration::from_millis(5);
        for threads in [1, 2] {
            let rt = Runtime::new(threads);
            let t0 = std::time::Instant::now();
            let outcome = rt.map(2, |_| std::thread::sleep(SLEEP));
            let wall = t0.elapsed();
            let critical = outcome.critical_path();
            assert!(
                critical >= SLEEP,
                "threads={threads}: {critical:?} < {SLEEP:?}"
            );
            assert!(
                critical <= wall,
                "threads={threads}: {critical:?} > map's {wall:?}"
            );
            assert!(outcome.total_busy() >= SLEEP * 2, "threads={threads}");
        }
    }

    #[test]
    fn task_panic_surfaces_as_task_error_and_runtime_stays_reusable() {
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            let err = rt
                .try_map_with_cancel(
                    1000,
                    &CancelToken::new(),
                    || (),
                    |(), i| {
                        if i == 137 {
                            panic!("boom at {i}");
                        }
                        i
                    },
                )
                .expect_err("task 137 panics");
            assert_eq!(err.index, Some(137), "threads={threads}");
            assert!(err.worker < threads, "threads={threads}: {err:?}");
            assert!(err.payload.contains("boom at 137"), "{err:?}");
            // The runtime serves the next map on the same instance.
            let again = rt
                .try_map_with_cancel(100, &CancelToken::new(), || (), |(), i| i * 2)
                .expect("fault-free retry succeeds");
            assert_eq!(again.outputs.iter().flatten().count(), 100);
        }
    }

    #[test]
    fn init_panic_surfaces_with_no_index() {
        for threads in [1, 3] {
            let rt = Runtime::new(threads);
            let err = rt
                .try_map_with_cancel(
                    64,
                    &CancelToken::new(),
                    || -> usize { panic!("init failed") },
                    |s, _| *s,
                )
                .expect_err("init panics");
            assert_eq!(err.index, None, "threads={threads}");
            assert!(err.payload.contains("init failed"));
        }
    }

    #[test]
    fn panic_aborts_remaining_work_fail_fast() {
        // The task that panics is the one that starts after `NTH` others,
        // whatever its index and worker, so however the workers were
        // scheduled most of the map is still queued when it dies.  Tasks
        // that start after it sleep, so siblings cannot drain the map while
        // the panic unwinds toward the abort token.  With the token polled,
        // siblings stop within a task or two; without it, all but the
        // panicking worker's claimed block runs.
        const LEN: usize = 10_000;
        const NTH: usize = 100;
        let rt = Runtime::new(4);
        let started = AtomicUsize::new(0);
        let panicked = AtomicUsize::new(usize::MAX);
        let err = rt
            .try_map_with_cancel(
                LEN,
                &CancelToken::new(),
                || (),
                |(), i| {
                    let n = started.fetch_add(1, Ordering::SeqCst);
                    if n == NTH {
                        panicked.store(i, Ordering::SeqCst);
                        panic!("task {NTH} to start dies");
                    }
                    if n > NTH {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    i
                },
            )
            .expect_err("one task panics");
        assert_eq!(err.index, Some(panicked.load(Ordering::SeqCst)));
        let started = started.load(Ordering::SeqCst);
        assert!(
            started < LEN / 2,
            "abort must skip most of the map: {started} of {LEN} ran"
        );
    }

    #[test]
    fn infallible_map_reraises_on_caller_after_clean_join() {
        let rt = Runtime::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.map(64, |i| if i == 7 { panic!("inner") } else { i });
        }))
        .expect_err("panic re-raised on caller");
        let msg = payload_to_string(caught);
        assert!(msg.contains("task 7 panicked"), "{msg}");
        assert!(msg.contains("inner"), "{msg}");
        // Reusable afterwards.
        assert_eq!(rt.map(10, |i| i).outputs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn global_runtime_survives_a_task_panic() {
        let rt = Runtime::global();
        let _ = rt.try_map_with_cancel(
            256,
            &CancelToken::new(),
            || (),
            |(), i| {
                if i % 2 == 0 {
                    panic!("even tasks die");
                }
                i
            },
        );
        let outcome = rt
            .try_map_with_cancel(256, &CancelToken::new(), || (), |(), i| i + 1)
            .expect("global runtime reusable after panic");
        assert_eq!(outcome.outputs.iter().flatten().count(), 256);
    }

    #[test]
    fn injected_faults_surface_as_task_errors() {
        let _guard = faults::install(faults::FaultPlan::new(1234, 0.05));
        let rt = Runtime::new(4);
        let mut saw_error = false;
        for _ in 0..20 {
            match rt.try_map_with_cancel(64, &CancelToken::new(), || (), |(), i| i) {
                Ok(outcome) => assert_eq!(outcome.outputs.len(), 64),
                Err(e) => {
                    assert!(e.payload.contains("injected fault"), "{e:?}");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "5% fault rate over 20×64 tasks must fire");
    }
}
