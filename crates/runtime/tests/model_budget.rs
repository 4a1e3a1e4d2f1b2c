//! Model checks pinning `ExecBudget`'s charge→trip visibility semantics —
//! the audit target of the `Ordering::Relaxed` ledger in
//! `crates/runtime/src/budget.rs` (see the `// relaxed:` comments there).
//!
//! The claim: `used` may be Relaxed because exhaustion visibility flows
//! through the token — the crossing `fetch_add` happens-before the
//! `cancel()` (Release) on the tripping thread, so any thread observing
//! `is_exhausted()` (Acquire) also observes the exhausted ledger and
//! anything else the tripping thread wrote before the charge.

#![cfg(feature = "model")]

use std::time::Duration;

use qgp_check::{explore, scope, Config, RaceCell};
use qgp_runtime::{BudgetStop, ExecBudget};

/// Exhaustively: once any observer sees the budget exhausted, the ledger
/// it reads has already crossed the cap — the Release/Acquire edge through
/// the token publishes the Relaxed counter.
#[test]
fn observed_exhaustion_implies_visible_ledger() {
    let report = explore(&Config::exhaustive(), || {
        let budget = ExecBudget::unlimited().max_decisions(1);
        scope(|s| {
            let charger = {
                let budget = budget.clone();
                s.spawn(move || {
                    let _ = budget.charge(1);
                    let _ = budget.charge(1);
                })
            };
            let observer = {
                let budget = budget.clone();
                s.spawn(move || {
                    if budget.is_exhausted() {
                        assert!(
                            budget.decisions_used() > 1,
                            "an observed trip must come with the exhausted \
                             ledger (used = {})",
                            budget.decisions_used()
                        );
                        assert_eq!(budget.stop_reason(), Some(BudgetStop::DecisionsExhausted));
                    }
                })
            };
            charger.join().expect("charger");
            observer.join().expect("observer");
        });
    });
    report.expect_ok("observed_exhaustion_implies_visible_ledger");
    assert!(
        report.complete,
        "two short threads must be fully enumerated"
    );
}

/// The stronger form of the audit claim: data written before the crossing
/// charge is race-free for a reader that observed the trip.  If `charge`'s
/// trip path lost its Release edge (or `is_exhausted` its Acquire), the
/// checker would flag this cell.
#[test]
fn trip_publishes_prior_writes() {
    let report = explore(&Config::exhaustive(), || {
        let budget = ExecBudget::unlimited().max_decisions(0);
        let result = RaceCell::named("pre-trip-result", 0u32);
        scope(|s| {
            let worker = {
                let budget = budget.clone();
                let result = &result;
                s.spawn(move || {
                    result.write(99);
                    // Cap 0: this charge crosses and trips the token.
                    assert!(!budget.charge(1));
                })
            };
            let reader = {
                let budget = budget.clone();
                let result = &result;
                s.spawn(move || {
                    if budget.is_exhausted() {
                        assert_eq!(result.read(), 99);
                    }
                })
            };
            worker.join().expect("worker");
            reader.join().expect("reader");
        });
    });
    report.expect_ok("trip_publishes_prior_writes");
    assert!(report.complete);
}

/// Deadline budgets run on the scheduler's virtual clock (one microsecond
/// per operation): polling is guaranteed to observe expiry after a bounded,
/// deterministic number of operations.
#[test]
fn deadline_expiry_is_deterministic_under_virtual_time() {
    let report = explore(&Config::seeded(8).from_env(), || {
        let budget = ExecBudget::with_timeout(Duration::from_micros(5));
        let mut polls = 0u32;
        while !budget.is_exhausted() {
            polls += 1;
            assert!(
                polls < 64,
                "virtual time advances 1µs per op; a 5µs deadline must trip \
                 within a handful of polls"
            );
        }
        assert_eq!(budget.stop_reason(), Some(BudgetStop::DeadlineExpired));
        assert!(!budget.charge(1), "expired budgets reject charges");
    });
    report.expect_ok("deadline_expiry_is_deterministic_under_virtual_time");
}
