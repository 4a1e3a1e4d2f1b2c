//! The exploration harness: run a closure under many schedules.
//!
//! Two complementary strategies, selected by [`Config`]:
//!
//! * **Seeded** — each execution draws its scheduling decisions from a
//!   splitmix64 stream.  Same seed → same schedule, so a failure report's
//!   seed is a complete reproducer (`QGP_MODEL_SEED=<seed>`).
//! * **Bounded exhaustive** — depth-first enumeration of every branch
//!   point.  Each execution replays a forced prefix of choices; afterwards
//!   the last incrementable branch is advanced.  Terminates exactly when
//!   the whole (bounded) schedule tree has been visited, capped by
//!   [`Config::max_executions`] (the [`Report::complete`] flag says which).
//!
//! Environment overrides (read by [`Config::from_env`], used by the model
//! test suites): `QGP_MODEL_SEED` pins a single seed, `QGP_MODEL_SEEDS`
//! sets the seed count, `QGP_MODEL_BASE_SEED` shifts the seed range, and
//! `QGP_MODEL_MAX_EXECUTIONS` bounds the exhaustive leg.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use crate::sched::{self, Branch, Failure, FailureKind, Picker, State, Status, ThreadState};

/// How much schedule space to explore; see the module docs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of seeded executions (0 to skip the seeded leg).
    pub seeds: u64,
    /// First seed; execution `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run the bounded exhaustive DFS leg.
    pub exhaustive: bool,
    /// Per-execution operation budget (livelock bound).
    pub max_steps: u64,
    /// Execution cap for the exhaustive leg.
    pub max_executions: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            seeds: 64,
            base_seed: 0x51D0_2016,
            exhaustive: false,
            max_steps: 200_000,
            max_executions: 2_000,
        }
    }
}

impl Config {
    /// Seeded exploration with `seeds` executions.
    pub fn seeded(seeds: u64) -> Self {
        Self {
            seeds,
            ..Self::default()
        }
    }

    /// Bounded exhaustive exploration (no seeded leg).
    pub fn exhaustive() -> Self {
        Self {
            seeds: 0,
            exhaustive: true,
            max_executions: 20_000,
            ..Self::default()
        }
    }

    /// Applies the `QGP_MODEL_*` environment overrides (see module docs).
    #[must_use]
    pub fn from_env(mut self) -> Self {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        if let Some(seed) = parse("QGP_MODEL_SEED") {
            // A pinned seed replays exactly one schedule.
            self.seeds = 1;
            self.base_seed = seed;
            self.exhaustive = false;
            return self;
        }
        if let Some(n) = parse("QGP_MODEL_SEEDS") {
            self.seeds = n;
        }
        if let Some(base) = parse("QGP_MODEL_BASE_SEED") {
            self.base_seed = base;
        }
        if let Some(n) = parse("QGP_MODEL_MAX_EXECUTIONS") {
            self.max_executions = n;
        }
        self
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Executions actually run.
    pub executions: u64,
    /// True when the exhaustive leg (if any) visited its whole tree within
    /// [`Config::max_executions`].
    pub complete: bool,
    /// Failures found; exploration stops at the first one.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Did every explored schedule pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Was any failure a data race?  (The mutation self-test keys on this.)
    pub fn race_found(&self) -> bool {
        self.failures
            .iter()
            .any(|f| f.kind == FailureKind::DataRace)
    }

    /// Panics with the full failure report unless every schedule passed.
    pub fn expect_ok(&self, name: &str) {
        assert!(
            self.ok(),
            "model check `{name}` failed after {} executions:\n{}",
            self.executions,
            self.failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Panics unless a data race was reported — the mutation self-test's
    /// assertion that the checker still catches weakened orderings.
    pub fn expect_race(&self, name: &str) {
        assert!(
            self.race_found(),
            "model check `{name}` was expected to detect a data race but \
             passed {} executions clean (complete: {}) — the checker may \
             have rotted",
            self.executions,
            self.complete
        );
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} executions, complete: {}, failures: {}",
            self.executions,
            self.complete,
            self.failures.len()
        )
    }
}

/// Serializes explorations process-wide: the scheduler state is a global,
/// so two tests must not explore concurrently.
fn exploration_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

/// Explores `body` under the schedules described by `config` and reports
/// the outcome.  Stops at the first failing schedule.
pub fn explore(config: &Config, body: impl Fn()) -> Report {
    assert!(
        !sched::in_model_thread(),
        "explore() called from inside a model execution"
    );
    let _serial = exploration_lock()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);

    let mut report = Report {
        executions: 0,
        complete: true,
        failures: Vec::new(),
    };

    if config.exhaustive {
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            if report.executions >= config.max_executions {
                report.complete = false;
                break;
            }
            let (failure, trace) = run_once(
                Picker::Replay {
                    prefix: prefix.clone(),
                },
                config.max_steps,
                &body,
            );
            report.executions += 1;
            if let Some(f) = failure {
                report.failures.push(f);
                return report;
            }
            match next_prefix(&trace) {
                Some(next) => prefix = next,
                None => break,
            }
        }
    }

    for i in 0..config.seeds {
        let seed = config.base_seed.wrapping_add(i);
        let (failure, _) = run_once(Picker::Seeded { rng: seed }, config.max_steps, &body);
        report.executions += 1;
        if let Some(mut f) = failure {
            f.seed = Some(seed);
            report.failures.push(f);
            return report;
        }
    }

    report
}

/// Explores `body` under the default seeded config (with environment
/// overrides applied) and panics on any failure.
pub fn check(name: &str, body: impl Fn()) {
    explore(&Config::default().from_env(), body).expect_ok(name);
}

/// Advances a depth-first exhaustive trace: bump the deepest branch that
/// still has untaken options, drop everything after it.  `None` when the
/// tree is exhausted.
fn next_prefix(trace: &[Branch]) -> Option<Vec<usize>> {
    for depth in (0..trace.len()).rev() {
        let b = trace[depth];
        if b.taken + 1 < b.options {
            let mut prefix: Vec<usize> = trace[..depth].iter().map(|b| b.taken).collect();
            prefix.push(b.taken + 1);
            return Some(prefix);
        }
    }
    None
}

/// Runs `body` once under `picker`, returning the recorded failure (if any)
/// and the branch trace for DFS advancement.
fn run_once(picker: Picker, max_steps: u64, body: &impl Fn()) -> (Option<Failure>, Vec<Branch>) {
    {
        let mut st = sched::lock_state();
        assert!(
            !st.active,
            "a model execution is already active (nested explorations are \
             not supported)"
        );
        let epoch = st.epoch.wrapping_add(1).max(1);
        *st = State {
            active: true,
            epoch,
            threads: vec![ThreadState {
                clock: crate::clock::VClock::new(),
                status: Status::Runnable,
            }],
            current: 0,
            steps: 0,
            max_steps,
            aborting: false,
            failure: None,
            atomics: Vec::new(),
            cells: Vec::new(),
            mutexes: Vec::new(),
            picker: Some(picker),
            trace: Vec::new(),
        };
    }
    sched::set_current_tid(Some(0));
    let result = catch_unwind(AssertUnwindSafe(body));
    sched::set_current_tid(None);

    let mut st = sched::lock_state();
    st.active = false;
    st.picker = None;
    let trace = std::mem::take(&mut st.trace);
    let mut failure = st.failure.take();
    drop(st);

    if failure.is_none() {
        if let Err(payload) = result {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            failure = Some(Failure {
                kind: FailureKind::Property,
                message,
                schedule: trace.iter().map(|b| b.taken).collect(),
                seed: None,
            });
        }
    }
    (failure, trace)
}
