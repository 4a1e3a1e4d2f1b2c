//! Seeded fault injection at task boundaries.
//!
//! The harness is *off* unless a test (or the chaos bench) explicitly arms
//! it: the disarmed fast path is a single relaxed atomic load, so shipping
//! the instrumentation costs nothing.  When armed with a [`FaultPlan`],
//! every [`fault_point`] the executor's task loop passes through rolls a
//! deterministic per-event die (splitmix64 over `seed ^ sequence`)
//! and either panics with an `"injected fault …"` payload, sleeps a few
//! hundred microseconds, or does nothing.
//!
//! Determinism contract: for a fixed plan, the decision for the *n*-th
//! fault point reached is a pure function of `(seed, n)`.  Thread
//! interleaving changes which logical task observes a given sequence
//! number, but not the overall fault density — which is what the
//! robustness proptests pin: every entry point returns `Ok` or a typed
//! error, never aborts, and a disarmed retry reproduces the fault-free
//! answer exactly.
//!
//! `QGP_FAULTS=<seed>:<panic_rate>[:<delay_rate>]` supplies a default plan
//! for [`FaultPlan::from_env`]; the variable alone never activates
//! injection — fault-aware tests call [`install_from_env`] so the rest of
//! the suite stays deterministic even when the variable is set globally
//! (as the CI fault-injection job does).
//!
//! Arming is additionally **thread-scoped**: only the thread that called
//! [`install`] (and executor workers spawned on its behalf, which inherit
//! participation via [`thread_participates`]/[`set_participating`])
//! observes faults.  Concurrently running tests in the same process are
//! never perturbed by another test's armed window.

use std::cell::Cell;
use std::sync::{OnceLock, PoisonError};
use std::time::Duration;

use crate::sync::{self, AtomicBool, AtomicU64, Mutex, MutexGuard, Ordering};

/// A deterministic fault-injection schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-event pseudo-random decision stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that a fault point panics.
    pub panic_rate: f64,
    /// Probability in `[0, 1]` that a (non-panicking) fault point sleeps
    /// for a short, seed-derived duration.
    pub delay_rate: f64,
}

impl FaultPlan {
    /// A plan that panics with probability `panic_rate` and never delays.
    pub fn new(seed: u64, panic_rate: f64) -> Self {
        FaultPlan {
            seed,
            panic_rate: panic_rate.clamp(0.0, 1.0),
            delay_rate: 0.0,
        }
    }

    /// Adds a delay probability to the plan.
    pub fn with_delay_rate(mut self, delay_rate: f64) -> Self {
        self.delay_rate = delay_rate.clamp(0.0, 1.0);
        self
    }

    /// Parses `"<seed>:<panic_rate>[:<delay_rate>]"`.
    pub fn parse(s: &str) -> Option<FaultPlan> {
        let mut parts = s.trim().split(':');
        let seed = parts.next()?.trim().parse::<u64>().ok()?;
        let panic_rate = parts.next()?.trim().parse::<f64>().ok()?;
        let delay_rate = match parts.next() {
            Some(p) => p.trim().parse::<f64>().ok()?,
            None => 0.0,
        };
        if parts.next().is_some() || !panic_rate.is_finite() || !delay_rate.is_finite() {
            return None;
        }
        Some(FaultPlan::new(seed, panic_rate).with_delay_rate(delay_rate))
    }

    /// The plan described by the `QGP_FAULTS` environment variable, if set
    /// and well-formed.  Reading the variable does *not* arm injection.
    pub fn from_env() -> Option<FaultPlan> {
        std::env::var("QGP_FAULTS")
            .ok()
            .as_deref()
            .and_then(FaultPlan::parse)
    }
}

/// Armed state: the plan plus the global event sequence counter.
#[derive(Debug)]
struct Active {
    plan: FaultPlan,
    sequence: AtomicU64,
}

/// Disarmed fast-path flag (mirrors whether `active()` holds a plan).
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Does this thread belong to the armed scope?  Set on the arming
    /// thread by [`install`], propagated to executor workers explicitly.
    static PARTICIPATING: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread inside an armed fault scope?  The executor
/// captures this on the thread that calls `map*` and hands it to each
/// spawned worker via [`set_participating`], so injection follows the
/// arming test's task tree and never leaks into concurrently running
/// tests.
pub fn thread_participates() -> bool {
    // relaxed: a monotonic arm/disarm flag guarding a slow path.  The armed
    // plan itself is read under the `active()` mutex (whose hand-over
    // orders it after `install`'s writes); a stale `false` here only means
    // one more fault-free task, which the thread-scoping contract allows.
    // Pinned by tests/model_faults.rs.
    ENABLED.load(Ordering::Relaxed) && PARTICIPATING.with(Cell::get)
}

/// Marks the current thread as (non-)participating in the armed scope.
/// Called by the executor on freshly spawned workers with the value
/// captured from the spawning thread.
pub fn set_participating(on: bool) {
    PARTICIPATING.with(|p| p.set(on));
}

fn active() -> &'static Mutex<Option<Active>> {
    static ACTIVE: OnceLock<Mutex<Option<Active>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

/// Serializes armed scopes: two tests arming concurrently would otherwise
/// perturb each other's deterministic sequence numbers.
fn scope_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Keeps fault injection armed for its lifetime; disarms on drop.
///
/// Holding the guard also holds a process-wide lock, so concurrently
/// running tests that arm injection serialize instead of interleaving
/// their event streams.
#[derive(Debug)]
pub struct FaultGuard {
    _scope: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        set_participating(false);
        *active().lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Arms fault injection with `plan` until the returned guard is dropped.
/// Only the calling thread (and executor workers serving it) observes the
/// faults; drop the guard on the thread that armed it.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let scope = scope_lock().lock().unwrap_or_else(PoisonError::into_inner);
    *active().lock().unwrap_or_else(PoisonError::into_inner) = Some(Active {
        plan,
        sequence: AtomicU64::new(0),
    });
    set_participating(true);
    ENABLED.store(true, Ordering::Release);
    FaultGuard { _scope: scope }
}

/// Arms fault injection from `QGP_FAULTS`, when set and well-formed.
pub fn install_from_env() -> Option<FaultGuard> {
    FaultPlan::from_env().map(install)
}

/// splitmix64: a high-quality 64-bit mixer, enough to decorrelate the
/// per-event decisions of one seed from another.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault point: the executor's task loop passes through here once per
/// task.  Disarmed, this is one relaxed load.  Armed, it may panic (with an `"injected fault …"`
/// string payload, caught by the executor's isolation layer) or sleep.
#[inline]
pub fn fault_point(site: &str, index: usize) {
    // relaxed: disarmed fast path — must stay a single uncontended load.
    // A stale read in either direction is benign: `fault_point_slow`
    // re-reads the plan under the `active()` mutex before acting.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    fault_point_slow(site, index);
}

#[cold]
fn fault_point_slow(site: &str, index: usize) {
    if !PARTICIPATING.with(Cell::get) {
        return;
    }
    let (seed, panic_rate, delay_rate, n) = {
        let guard = active().lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(a) => (
                a.plan.seed,
                a.plan.panic_rate,
                a.plan.delay_rate,
                // relaxed: performed under the `active()` mutex, which
                // already totally orders sequence draws; the counter
                // publishes nothing by itself.
                a.sequence.fetch_add(1, Ordering::Relaxed),
            ),
            None => return,
        }
    };
    let roll = splitmix64(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Map the top 53 bits onto [0, 1).
    let u = (roll >> 11) as f64 / (1u64 << 53) as f64;
    if u < panic_rate {
        std::panic::panic_any(format!(
            "injected fault #{n} at {site}[{index}] (seed {seed})"
        ));
    }
    if u < panic_rate + delay_rate {
        // A short, seed-derived stall: long enough to shuffle thread
        // interleavings, short enough to keep fault-injected suites fast.
        sync::sleep(Duration::from_micros(roll % 200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_and_rates() {
        assert_eq!(FaultPlan::parse("7:0.25"), Some(FaultPlan::new(7, 0.25)));
        assert_eq!(
            FaultPlan::parse(" 9 : 0.5 : 0.125 "),
            Some(FaultPlan::new(9, 0.5).with_delay_rate(0.125))
        );
        assert_eq!(FaultPlan::parse("nope"), None);
        assert_eq!(FaultPlan::parse("1"), None);
        assert_eq!(FaultPlan::parse("1:2:3:4"), None);
        // Rates clamp into [0, 1].
        assert_eq!(FaultPlan::parse("1:7.5").map(|p| p.panic_rate), Some(1.0));
    }

    #[test]
    fn disarmed_fault_points_are_inert() {
        for i in 0..1000 {
            fault_point("test", i);
        }
    }

    #[test]
    fn armed_plan_panics_deterministically() {
        let run = || -> Vec<usize> {
            let _guard = install(FaultPlan::new(42, 0.3));
            let mut panicked = Vec::new();
            for i in 0..64 {
                if std::panic::catch_unwind(|| fault_point("test", i)).is_err() {
                    panicked.push(i);
                }
            }
            panicked
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "rate 0.3 over 64 events must fire");
        assert!(a.len() < 64, "rate 0.3 must not fire every time");
        assert_eq!(a, b, "same seed, same schedule");
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _guard = install(FaultPlan::new(1, 1.0));
            assert!(std::panic::catch_unwind(|| fault_point("test", 0)).is_err());
        }
        fault_point("test", 0); // must not panic
    }

    #[test]
    fn injected_payload_is_a_labelled_string() {
        let _guard = install(FaultPlan::new(3, 1.0));
        let err = std::panic::catch_unwind(|| fault_point("site", 17))
            .expect_err("rate 1.0 always fires");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains("site[17]"), "{msg}");
    }
}
