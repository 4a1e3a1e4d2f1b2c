//! Whole-executor model checks: `Runtime::{map_with, try_map_with_cancel}`
//! explored end-to-end under the deterministic scheduler — claim/steal
//! accounting through real worker loops, cancel fail-fast, and panic
//! isolation with clean joins.

#![cfg(feature = "model")]

use qgp_check::{explore, Config};
use qgp_runtime::{CancelToken, Runtime};

/// Every index is executed exactly once and outputs land in index order,
/// across explored interleavings of two real workers (claim, steal,
/// install, abort polling — the full loop).
#[test]
fn map_executes_every_index_exactly_once() {
    let report = explore(&Config::seeded(24).from_env(), || {
        // 4 tasks on 2 threads: grain 1, so every index is stealable.
        let rt = Runtime::new(2);
        let outcome = rt.map_with(4, || 0u32, |count, i| {
            *count += 1;
            i * 10
        });
        assert_eq!(outcome.outputs, vec![0, 10, 20, 30]);
        assert_eq!(
            outcome.states.iter().sum::<u32>(),
            4,
            "each index ran exactly once across workers"
        );
    });
    report.expect_ok("map_executes_every_index_exactly_once");
}

/// Cancellation fired from inside a task: workers stop claiming, the scope
/// joins cleanly, and executed outputs sit at their own index.
#[test]
fn cancel_fail_fast_joins_cleanly() {
    let report = explore(&Config::seeded(16).from_env(), || {
        let rt = Runtime::new(2);
        let token = CancelToken::new();
        let outcome = rt
            .try_map_with_cancel(6, &token, || (), |(), i| {
                if i == 0 {
                    token.cancel();
                }
                i
            })
            .expect("no task panics");
        for (i, slot) in outcome.outputs.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, i, "executed outputs sit at their own index");
            }
        }
        assert!(
            outcome.outputs.iter().flatten().count() >= 1,
            "at least the cancelling task ran"
        );
    });
    report.expect_ok("cancel_fail_fast_joins_cleanly");
}

/// A panicking task under the model: the abort token trips, siblings stop,
/// the scope joins, and the panic surfaces as a structured `TaskError` —
/// no interleaving may deadlock or leak the panic through the join.
#[test]
fn task_panic_isolates_and_joins_cleanly() {
    let report = explore(&Config::seeded(16).from_env(), || {
        let rt = Runtime::new(2);
        let err = rt
            .try_map_with_cancel(4, &CancelToken::new(), || (), |(), i| {
                if i == 2 {
                    panic!("boom at {i}");
                }
                i
            })
            .expect_err("task 2 panics");
        assert_eq!(err.index, Some(2));
        assert!(err.payload.contains("boom at 2"), "{err:?}");
        // The runtime stays reusable in the same schedule.
        let again = rt
            .try_map_with_cancel(3, &CancelToken::new(), || (), |(), i| i)
            .expect("retry succeeds");
        assert_eq!(again.outputs.iter().flatten().count(), 3);
    });
    report.expect_ok("task_panic_isolates_and_joins_cleanly");
}
