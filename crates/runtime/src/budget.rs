//! Execution budgets: deadline + decision cap + cancel flag in one handle.
//!
//! [`ExecBudget`] generalizes [`CancelToken`] for per-query resource
//! control.  A budget carries the stack-wide stop signal (so the executor
//! keeps polling a plain token), an optional wall-clock deadline (latched
//! into the token, inherited from [`CancelToken`]), and an optional cap on
//! *decisions* — the number of focus candidates a query execution is
//! allowed to verify.  Every execution path charges the budget once per
//! candidate via [`ExecBudget::charge`]; the first charge past the cap (or
//! past the deadline) trips the shared token, so every execution mode and
//! view repair stop at per-candidate granularity.
//!
//! Clones share one ledger: charging any clone charges them all, which is
//! what lets a parallel fan-out enforce a single global cap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::sync::{self, AtomicU64, Ordering};

/// Why a budget stopped an execution early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStop {
    /// The shared cancel flag was tripped explicitly (or by a sibling
    /// clone exhausting the budget).
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The decision cap was consumed.
    DecisionsExhausted,
}

/// A shareable execution budget: cancel flag + optional deadline +
/// optional decision cap.
///
/// The default budget is unlimited — it only stops when explicitly
/// [cancelled](ExecBudget::cancel).
#[derive(Debug, Clone, Default)]
pub struct ExecBudget {
    token: CancelToken,
    max_decisions: Option<u64>,
    used: Arc<AtomicU64>,
}

impl ExecBudget {
    /// An unlimited budget (explicit cancellation only).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        ExecBudget {
            token: CancelToken::with_deadline(deadline),
            ..Self::default()
        }
    }

    /// A budget that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(sync::now() + timeout)
    }

    /// Caps the number of decisions this budget will fund.
    pub fn max_decisions(mut self, max: u64) -> Self {
        self.max_decisions = Some(max);
        self
    }

    /// Requests cancellation; visible to every clone and to the executor.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Charges `n` decisions.  Returns `true` while the budget still has
    /// headroom; the charge that crosses the cap (or observes an expired
    /// deadline) trips the shared token and returns `false`.  Exhaustion
    /// is sticky: later charges keep returning `false`.
    pub fn charge(&self, n: u64) -> bool {
        if self.token.is_cancelled() {
            return false;
        }
        // relaxed: the ledger is a pure counter — no data is published
        // through `used`.  Cross-thread trip visibility flows through the
        // token instead: this fetch_add happens-before the `cancel()`
        // (Release) below on the tripping thread, so any thread that
        // observes the trip via `is_cancelled()` (Acquire) also observes
        // `used > max`.  Pinned by tests/model_budget.rs.
        let prior = self.used.fetch_add(n, Ordering::Relaxed);
        match self.max_decisions {
            Some(max) if prior.saturating_add(n) > max => {
                self.token.cancel();
                false
            }
            _ => true,
        }
    }

    /// Has the budget stopped (cancelled, deadline passed, or cap hit)?
    pub fn is_exhausted(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Why the budget stopped, when it has.  Decision exhaustion wins over
    /// a raced deadline, deadline over plain cancellation.
    pub fn stop_reason(&self) -> Option<BudgetStop> {
        if !self.token.is_cancelled() {
            return None;
        }
        if self
            .max_decisions
            // relaxed: only reached after `is_cancelled()` returned true —
            // that Acquire load synchronizes with the tripping thread's
            // Release `cancel()`, which its crossing fetch_add precedes, so
            // an exhausted ledger is already visible here (model-pinned).
            .is_some_and(|max| self.used.load(Ordering::Relaxed) > max)
        {
            return Some(BudgetStop::DecisionsExhausted);
        }
        if self
            .token
            .deadline()
            .is_some_and(|deadline| sync::now() >= deadline)
        {
            return Some(BudgetStop::DeadlineExpired);
        }
        Some(BudgetStop::Cancelled)
    }

    /// Decisions charged so far (across all clones).
    pub fn decisions_used(&self) -> u64 {
        // relaxed: a monotonic statistics read; callers wanting an exact
        // figure read it after joining the charging threads, and the value
        // itself publishes nothing.
        self.used.load(Ordering::Relaxed)
    }

    /// The underlying stop token: what the executor and matcher sessions
    /// poll.  Cancelling the token stops the budget and vice versa.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

impl From<CancelToken> for ExecBudget {
    /// Wraps an existing token as an unlimited budget sharing its flag: how
    /// a caller stops an execution explicitly, or by the token's deadline.
    fn from(token: CancelToken) -> Self {
        ExecBudget {
            token,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops_on_its_own() {
        let b = ExecBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge(1));
        }
        assert!(!b.is_exhausted());
        assert_eq!(b.stop_reason(), None);
        b.cancel();
        assert!(!b.charge(1));
        assert_eq!(b.stop_reason(), Some(BudgetStop::Cancelled));
    }

    #[test]
    fn decision_cap_trips_on_the_crossing_charge() {
        let b = ExecBudget::unlimited().max_decisions(3);
        assert!(b.charge(1));
        assert!(b.charge(1));
        assert!(b.charge(1));
        assert!(!b.charge(1), "4th decision exceeds a cap of 3");
        assert!(b.is_exhausted());
        assert_eq!(b.stop_reason(), Some(BudgetStop::DecisionsExhausted));
        assert!(!b.charge(1), "exhaustion is sticky");
        assert!(b.token().is_cancelled(), "cap trips the shared token");
    }

    #[test]
    fn clones_share_the_ledger() {
        let a = ExecBudget::unlimited().max_decisions(10);
        let b = a.clone();
        for _ in 0..5 {
            assert!(a.charge(1));
            assert!(b.charge(1));
        }
        assert!(!a.charge(1));
        assert!(b.is_exhausted());
        assert_eq!(a.decisions_used(), 11);
    }

    #[test]
    fn expired_deadline_stops_charges() {
        let b = ExecBudget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!b.charge(1));
        assert_eq!(b.stop_reason(), Some(BudgetStop::DeadlineExpired));
    }

    #[test]
    fn token_round_trip_shares_the_flag() {
        let token = CancelToken::new();
        let budget = ExecBudget::from(token.clone());
        token.cancel();
        assert!(budget.is_exhausted());

        let budget2 = ExecBudget::unlimited().max_decisions(0);
        assert!(!budget2.charge(1));
        assert!(budget2.token().is_cancelled());
    }
}
