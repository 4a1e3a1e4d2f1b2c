//! The deterministic scheduler: one baton, every synchronization operation a
//! scheduling point.
//!
//! Model threads are real OS threads, but at most one executes a *visible
//! operation* (atomic access, [`RaceCell`](crate::RaceCell) access, mutex
//! acquire/release, spawn, join, yield, sleep) at a time: each operation
//! waits for the baton, runs under the global state lock, then picks which
//! thread runs the next operation.  The pick sequence *is* the schedule —
//! replaying the same picks replays the same execution, which is what makes
//! seeded exploration reproducible and bounded exhaustive search possible.
//!
//! Code between operations runs unserialized, exactly like loom/shuttle:
//! anything not routed through a model primitive is invisible to (and
//! unordered by) the checker.
//!
//! ## Happens-before
//!
//! Every thread carries a [`VClock`]; every operation ticks it.  Release
//! stores deposit the writer's clock at the location; acquire loads join it;
//! relaxed stores *clear* it (a relaxed store publishes nothing); relaxed
//! read-modify-writes keep the location's clock (they extend the release
//! sequence without contributing their own edge).  Spawn/join and mutex
//! hand-over join clocks directly.  [`RaceCell`] accesses are checked
//! against these clocks and report a data race when unordered.

use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::clock::VClock;

/// Per-event virtual-time advance: one microsecond per scheduled operation,
/// so deadline tests can count operations instead of wall time.
pub(crate) const TIME_PER_OP_NANOS: u64 = 1_000;

/// What a blocked model thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Waiting for the target thread to finish.
    Join(usize),
    /// Waiting for the model mutex with this location id.
    Lock(usize),
}

/// Scheduling status of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// May be picked to run its next operation.
    Runnable,
    /// Not pickable until the awaited event fires.
    Blocked(Wait),
    /// Ran its last operation; its clock is final.
    Finished,
}

#[derive(Debug)]
pub(crate) struct ThreadState {
    pub clock: VClock,
    pub status: Status,
}

/// Happens-before state of one atomic location: the clock an acquire load
/// obtains.  Maintained per the rules in the module docs.
#[derive(Debug, Default)]
pub(crate) struct AtomicLoc {
    pub msg: VClock,
}

/// Race-detection state of one [`RaceCell`](crate::RaceCell).
#[derive(Debug)]
pub(crate) struct CellLoc {
    pub label: &'static str,
    /// Clock of the last writer at the time of its write.
    pub write: VClock,
    /// Model thread that performed the last write (for reporting).
    pub writer: usize,
    /// Read vector: component `t` is thread `t`'s own time at its last read
    /// since the last write.
    pub reads: VClock,
}

/// State of one model mutex: held flag plus the release clock the next
/// acquirer joins.
#[derive(Debug, Default)]
pub(crate) struct MutexLoc {
    pub held: bool,
    pub msg: VClock,
}

/// How the scheduler picks among runnable threads.
#[derive(Debug)]
pub(crate) enum Picker {
    /// splitmix64 stream; same seed → same pick sequence.
    Seeded { rng: u64 },
    /// Forced choices for the first `prefix.len()` branch points, then
    /// always the first runnable thread (exhaustive DFS leg).
    Replay { prefix: Vec<usize> },
}

/// One recorded branch point: which option was taken, out of how many.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Branch {
    pub taken: usize,
    pub options: usize,
}

/// Why a model execution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure, unexpected unwind).
    Property,
    /// Unordered conflicting accesses to a [`RaceCell`](crate::RaceCell).
    DataRace,
    /// Every live thread was blocked.
    Deadlock,
    /// The per-execution step budget ran out (possible livelock).
    StepBudget,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Property => "property violation",
            FailureKind::DataRace => "data race",
            FailureKind::Deadlock => "deadlock",
            FailureKind::StepBudget => "step budget exceeded (possible livelock)",
        };
        f.write_str(s)
    }
}

/// One failing execution, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// Human-readable description (panic payload, racing cell, …).
    pub message: String,
    /// The branch choices of the failing schedule, in order.
    pub schedule: Vec<usize>,
    /// The seed that produced the schedule, for seeded explorations.
    pub seed: Option<u64>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        match self.seed {
            Some(seed) => write!(f, "\n  seed: {seed} (replay with QGP_MODEL_SEED={seed})")?,
            None => write!(f, "\n  schedule (exhaustive leg): {:?}", self.schedule)?,
        }
        Ok(())
    }
}

/// The payload prefix of the internal abort panic: threads torn down after a
/// failure unwind with this so the teardown is distinguishable from a
/// genuine property panic.
pub(crate) const ABORT_PAYLOAD: &str = "qgp-check: execution aborted";

#[derive(Debug, Default)]
pub(crate) struct State {
    /// Is a model execution in progress?
    pub active: bool,
    /// Execution counter; location ids are epoch-tagged so stale ids from a
    /// previous execution re-register instead of aliasing.
    pub epoch: u32,
    pub threads: Vec<ThreadState>,
    /// Baton holder: the thread allowed to run the next operation.
    pub current: usize,
    pub steps: u64,
    pub max_steps: u64,
    /// Set on failure: every operation (and every waiter) panics out.
    pub aborting: bool,
    pub failure: Option<Failure>,
    pub atomics: Vec<AtomicLoc>,
    pub cells: Vec<CellLoc>,
    pub mutexes: Vec<MutexLoc>,
    pub picker: Option<Picker>,
    pub trace: Vec<Branch>,
}

impl State {
    /// Records the first failure and switches the execution to teardown.
    pub(crate) fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                kind,
                message,
                schedule: self.trace.iter().map(|b| b.taken).collect(),
                seed: None,
            });
        }
        self.aborting = true;
    }

    /// Picks the next baton holder among `options` (indices of runnable
    /// threads, ascending).  Branch points with a single option are forced
    /// and not recorded.
    fn pick(&mut self, options: &[usize]) -> usize {
        debug_assert!(!options.is_empty());
        if options.len() == 1 {
            return options[0];
        }
        let n = options.len();
        let taken = match self.picker.as_mut() {
            Some(Picker::Seeded { rng }) => {
                *rng = splitmix64(*rng);
                (*rng % n as u64) as usize
            }
            Some(Picker::Replay { prefix }) => prefix
                .get(self.trace.len())
                .copied()
                .unwrap_or(0)
                .min(n - 1),
            None => 0,
        };
        self.trace.push(Branch { taken, options: n });
        options[taken]
    }

    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Registers (or re-finds) the location behind an epoch-tagged id slot.
    /// `table_len` is the current table size; returns `(index, fresh)`.
    fn loc(&self, idvar: &StdAtomicU64, table_len: usize) -> (usize, bool) {
        let packed = idvar.load(StdOrdering::SeqCst);
        let (ep, id) = ((packed >> 32) as u32, (packed & 0xFFFF_FFFF) as usize);
        if ep == self.epoch && id != 0 {
            (id - 1, false)
        } else {
            let fresh = table_len;
            idvar.store(
                (u64::from(self.epoch) << 32) | (fresh as u64 + 1),
                StdOrdering::SeqCst,
            );
            (fresh, true)
        }
    }

    pub(crate) fn atomic_loc(&mut self, idvar: &StdAtomicU64) -> usize {
        let (i, fresh) = self.loc(idvar, self.atomics.len());
        if fresh {
            self.atomics.push(AtomicLoc::default());
        }
        i
    }

    pub(crate) fn cell_loc(&mut self, idvar: &StdAtomicU64, label: &'static str) -> usize {
        let (i, fresh) = self.loc(idvar, self.cells.len());
        if fresh {
            self.cells.push(CellLoc {
                label,
                write: VClock::new(),
                writer: usize::MAX,
                reads: VClock::new(),
            });
        }
        i
    }

    pub(crate) fn mutex_loc(&mut self, idvar: &StdAtomicU64) -> usize {
        let (i, fresh) = self.loc(idvar, self.mutexes.len());
        if fresh {
            self.mutexes.push(MutexLoc::default());
        }
        i
    }

    /// Applies the happens-before effect of one atomic access.
    pub(crate) fn apply_atomic(&mut self, tid: usize, lid: usize, access: Access) {
        match access {
            Access::Load { acquire } => {
                if acquire {
                    let msg = std::mem::take(&mut self.atomics[lid].msg);
                    self.threads[tid].clock.join(&msg);
                    self.atomics[lid].msg = msg;
                }
            }
            Access::Store { release } => {
                self.atomics[lid].msg = if release {
                    self.threads[tid].clock.clone()
                } else {
                    // A relaxed store publishes nothing: it resets the
                    // location's release clock (it is not part of any
                    // release sequence headed by another thread's store).
                    VClock::new()
                };
            }
            Access::Rmw { acquire, release } => {
                if acquire {
                    let msg = std::mem::take(&mut self.atomics[lid].msg);
                    self.threads[tid].clock.join(&msg);
                    self.atomics[lid].msg = msg;
                }
                if release {
                    let clock = self.threads[tid].clock.clone();
                    self.atomics[lid].msg.join(&clock);
                }
                // A relaxed RMW keeps the location's clock: it extends the
                // release sequence without adding its own edge.
            }
        }
    }

    /// Race check for a `RaceCell` read by `tid`.
    pub(crate) fn cell_read(&mut self, tid: usize, cid: usize) {
        let cell = &self.cells[cid];
        if cell.writer != usize::MAX && !cell.write.leq(&self.threads[tid].clock) {
            let msg = format!(
                "read of RaceCell `{}` on thread {tid} races with the write on thread {}",
                cell.label, cell.writer
            );
            self.fail(FailureKind::DataRace, msg);
            return;
        }
        let own = self.threads[tid].clock.get(tid);
        self.cells[cid].reads.set(tid, own);
    }

    /// Race check for a `RaceCell` write by `tid`.
    pub(crate) fn cell_write(&mut self, tid: usize, cid: usize) {
        let clock = self.threads[tid].clock.clone();
        let cell = &self.cells[cid];
        if cell.writer != usize::MAX && !cell.write.leq(&clock) {
            let msg = format!(
                "write of RaceCell `{}` on thread {tid} races with the write on thread {}",
                cell.label, cell.writer
            );
            self.fail(FailureKind::DataRace, msg);
            return;
        }
        if !cell.reads.leq(&clock) {
            let msg = format!(
                "write of RaceCell `{}` on thread {tid} races with an unordered read",
                cell.label
            );
            self.fail(FailureKind::DataRace, msg);
            return;
        }
        let cell = &mut self.cells[cid];
        cell.write = clock;
        cell.writer = tid;
        cell.reads.clear();
    }

    /// Marks every thread blocked on `wait` runnable again.
    pub(crate) fn wake(&mut self, wait: Wait) {
        for t in &mut self.threads {
            if t.status == Status::Blocked(wait) {
                t.status = Status::Runnable;
            }
        }
    }
}

/// The happens-before shape of an atomic access, derived from its
/// [`Ordering`](std::sync::atomic::Ordering).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Access {
    Load { acquire: bool },
    Store { release: bool },
    Rmw { acquire: bool, release: bool },
}

pub(crate) fn is_acquire(ord: StdOrdering) -> bool {
    matches!(
        ord,
        StdOrdering::Acquire | StdOrdering::AcqRel | StdOrdering::SeqCst
    )
}

pub(crate) fn is_release(ord: StdOrdering) -> bool {
    matches!(
        ord,
        StdOrdering::Release | StdOrdering::AcqRel | StdOrdering::SeqCst
    )
}

/// splitmix64: the pick stream of seeded exploration.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) struct Explorer {
    pub state: Mutex<State>,
    pub cv: Condvar,
}

pub(crate) fn explorer() -> &'static Explorer {
    static EXPLORER: OnceLock<Explorer> = OnceLock::new();
    EXPLORER.get_or_init(|| Explorer {
        state: Mutex::new(State::default()),
        cv: Condvar::new(),
    })
}

pub(crate) fn lock_state() -> MutexGuard<'static, State> {
    explorer()
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The model-thread id of the current OS thread, when it belongs to the
    /// running execution.
    static CURRENT_TID: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

pub(crate) fn set_current_tid(tid: Option<usize>) {
    CURRENT_TID.with(|c| c.set(tid));
}

/// Is the calling thread a live model thread (and safe to schedule)?
/// Threads that are unwinding pass through: a scheduling point inside a
/// `Drop` during teardown must never double-panic.
pub(crate) fn in_model_thread() -> bool {
    !std::thread::panicking() && CURRENT_TID.with(|c| c.get()).is_some()
}

fn abort_panic() -> ! {
    std::panic::panic_any(format!("{ABORT_PAYLOAD} (model failure recorded)"))
}

/// Runs one visible operation: wait for the baton, execute `f` under the
/// state lock, then pick the next baton holder.  Returns `None` when the
/// calling thread is not a model thread (pass-through mode) — the caller
/// then performs the native operation instead.
///
/// `f` may mark the calling thread `Blocked(..)`: the next baton holder is
/// then picked among the *other* runnable threads, and the caller is only
/// re-granted the baton after something woke it.  Callers loop on that.
pub(crate) fn with_op<R>(f: impl FnOnce(&mut State, usize) -> R) -> Option<R> {
    if !in_model_thread() {
        return None;
    }
    let tid = CURRENT_TID.with(|c| c.get())?;
    let ex = explorer();
    let mut st = lock_state();
    if !st.active {
        return None;
    }
    // Wait for the baton.
    while st.current != tid {
        if st.aborting {
            drop(st);
            abort_panic();
        }
        st = ex.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    if st.aborting {
        drop(st);
        abort_panic();
    }
    // Account the step, advance the clocks.
    st.steps += 1;
    if st.steps > st.max_steps {
        let msg = format!("execution exceeded {} scheduled operations", st.max_steps);
        st.fail(FailureKind::StepBudget, msg);
        ex.cv.notify_all();
        drop(st);
        abort_panic();
    }
    st.threads[tid].clock.tick(tid);
    crate::time::advance(TIME_PER_OP_NANOS);

    let result = f(&mut st, tid);
    if st.aborting {
        // `f` recorded a failure (e.g. a data race): tear the execution
        // down.  Waiters wake, observe `aborting`, and panic out too.
        ex.cv.notify_all();
        drop(st);
        abort_panic();
    }

    // Pick the next baton holder.
    let runnable = st.runnable();
    if runnable.is_empty() {
        // `f` blocked the only runnable thread: nobody can make progress.
        st.fail(
            FailureKind::Deadlock,
            format!("all live threads are blocked (thread {tid} blocked last)"),
        );
        ex.cv.notify_all();
        drop(st);
        abort_panic();
    }
    let next = st.pick(&runnable);
    st.current = next;
    if next != tid {
        ex.cv.notify_all();
    }
    Some(result)
}

/// Registers a child model thread spawned by the calling model thread.
/// Returns its id, or `None` in pass-through mode.
pub(crate) fn register_child() -> Option<usize> {
    with_op(|st, parent| {
        let clock = st.threads[parent].clock.clone();
        st.threads.push(ThreadState {
            clock,
            status: Status::Runnable,
        });
        st.threads.len() - 1
    })
}

/// Blocks (in model time) until `target` finishes, joining its final clock.
pub(crate) fn join_model_thread(target: usize) {
    loop {
        let done = with_op(|st, tid| {
            if st.threads[target].status == Status::Finished {
                let final_clock = st.threads[target].clock.clone();
                st.threads[tid].clock.join(&final_clock);
                true
            } else {
                st.threads[tid].status = Status::Blocked(Wait::Join(target));
                false
            }
        });
        match done {
            None | Some(true) => return,
            Some(false) => continue,
        }
    }
}

/// Records a panic that escaped a model thread's closure as a property
/// failure — unless it is the checker's own teardown panic.
pub(crate) fn record_thread_panic(payload: &(dyn std::any::Any + Send)) {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    if message.starts_with(ABORT_PAYLOAD) {
        return;
    }
    let mut st = lock_state();
    if st.active {
        st.fail(FailureKind::Property, message);
        explorer().cv.notify_all();
    }
}

/// A model thread's final bookkeeping: marks it finished, wakes joiners and
/// hands the baton on.  Under teardown this skips scheduling entirely.
pub(crate) fn final_op(tid: usize) {
    let ex = explorer();
    let mut st = lock_state();
    if !st.active {
        return;
    }
    if !st.aborting {
        // Take the baton like a normal operation so the finish event has a
        // deterministic place in the schedule.
        while st.current != tid && !st.aborting {
            st = ex.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
    st.steps += 1;
    st.threads[tid].clock.tick(tid);
    st.threads[tid].status = Status::Finished;
    st.wake(Wait::Join(tid));
    if !st.aborting {
        let runnable = st.runnable();
        if let Some(&first) = runnable.first() {
            let next = if runnable.len() == 1 {
                first
            } else {
                st.pick(&runnable)
            };
            st.current = next;
        } else if st
            .threads
            .iter()
            .any(|t| matches!(t.status, Status::Blocked(_)))
        {
            st.fail(
                FailureKind::Deadlock,
                format!("thread {tid} finished with every other live thread blocked"),
            );
        }
        // No runnable and no blocked: everything finished; nothing to hand
        // the baton to and nobody waiting for it.
    }
    ex.cv.notify_all();
}

/// The body wrapper of a spawned model thread: enters the model, runs `f`,
/// records escaped panics, performs final bookkeeping, and re-raises the
/// panic so `join()` reports it exactly like `std`.
pub(crate) fn run_model_thread<T>(tid: usize, f: impl FnOnce() -> T) -> T {
    set_current_tid(Some(tid));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    if let Err(payload) = &result {
        record_thread_panic(payload.as_ref());
    }
    final_op(tid);
    set_current_tid(None);
    match result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
