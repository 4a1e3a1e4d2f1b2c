//! Self-tests for the model checker: the scheduler must be deterministic,
//! catch the classic publication race, accept correct release/acquire code,
//! and report deadlocks — otherwise the runtime model suites prove nothing.

use std::sync::atomic::Ordering;
use std::sync::Mutex as StdMutex;

use qgp_check::sync::{AtomicBool, AtomicU64, Mutex};
use qgp_check::{explore, scope, Config, FailureKind, RaceCell};

/// Two threads publishing through a Release store / Acquire load pair must
/// pass every interleaving, exhaustively.
#[test]
fn release_acquire_publication_is_clean() {
    let report = explore(&Config::exhaustive(), || {
        let cell = RaceCell::named("payload", 0u32);
        let flag = AtomicBool::new(false);
        scope(|s| {
            let producer = s.spawn(|| {
                cell.write(42);
                flag.store(true, Ordering::Release);
            });
            let consumer = s.spawn(|| {
                if flag.load(Ordering::Acquire) {
                    assert_eq!(cell.read(), 42);
                }
            });
            producer.join().expect("producer");
            consumer.join().expect("consumer");
        });
    });
    report.expect_ok("release_acquire_publication_is_clean");
    assert!(report.complete, "small case should be fully enumerated");
    assert!(
        report.executions > 1,
        "two threads racing on a flag must branch; got {} executions",
        report.executions
    );
}

/// The same protocol with a Relaxed store publishes nothing: the checker
/// must find the schedule where the consumer sees the flag but the payload
/// write is unordered with its read.
#[test]
fn relaxed_publication_races() {
    let report = explore(&Config::exhaustive(), || {
        let cell = RaceCell::named("payload", 0u32);
        let flag = AtomicBool::new(false);
        scope(|s| {
            let producer = s.spawn(|| {
                cell.write(42);
                // Deliberately wrong: no release edge.
                flag.store(true, Ordering::Relaxed);
            });
            let consumer = s.spawn(|| {
                if flag.load(Ordering::Acquire) {
                    let _ = cell.read();
                }
            });
            producer.join().expect("producer");
            consumer.join().expect("consumer");
        });
    });
    report.expect_race("relaxed_publication_races");
}

/// Seeded exploration also finds the publication race, reports the seed,
/// and replaying that exact seed reproduces the identical schedule.
#[test]
fn seeded_race_replays_from_seed() {
    let body = || {
        let cell = RaceCell::named("payload", 0u32);
        let flag = AtomicBool::new(false);
        scope(|s| {
            let producer = s.spawn(|| {
                cell.write(42);
                flag.store(true, Ordering::Relaxed);
            });
            let consumer = s.spawn(|| {
                if flag.load(Ordering::Acquire) {
                    let _ = cell.read();
                }
            });
            producer.join().expect("producer");
            consumer.join().expect("consumer");
        });
    };
    let first = explore(&Config::seeded(64), body);
    first.expect_race("seeded_race_replays_from_seed (initial run)");
    let failure = &first.failures[0];
    let seed = failure.seed.expect("seeded failures carry their seed");

    let replay = explore(
        &Config {
            seeds: 1,
            base_seed: seed,
            ..Config::default()
        },
        body,
    );
    replay.expect_race("seeded_race_replays_from_seed (replay)");
    assert_eq!(
        replay.executions, 1,
        "the pinned seed must fail immediately"
    );
    assert_eq!(
        replay.failures[0].schedule, failure.schedule,
        "same seed must reproduce the same schedule"
    );
}

/// Same seed → same schedule, observed directly: the order in which two
/// threads append to a shared log is identical across runs of one seed.
#[test]
fn same_seed_same_schedule() {
    let run = |seed: u64| {
        let log = StdMutex::new(Vec::new());
        let report = explore(
            &Config {
                seeds: 1,
                base_seed: seed,
                ..Config::default()
            },
            || {
                let counter = AtomicU64::new(0);
                // Model mutex: appends are scheduled operations, so the log
                // order is a pure function of the schedule.
                let order = Mutex::new(());
                scope(|s| {
                    let handles: Vec<_> = (0u64..2)
                        .map(|id| {
                            let counter = &counter;
                            let order = &order;
                            let log = &log;
                            s.spawn(move || {
                                for _ in 0..3 {
                                    let guard = order.lock().expect("order");
                                    let prev = counter.fetch_add(1, Ordering::AcqRel);
                                    log.lock().expect("log").push((id, prev));
                                    drop(guard);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().expect("worker");
                    }
                });
                assert_eq!(counter.load(Ordering::Acquire), 6);
            },
        );
        report.expect_ok("same_seed_same_schedule");
        log.into_inner().expect("log")
    };
    for seed in [1u64, 7, 0xDEAD] {
        assert_eq!(run(seed), run(seed), "seed {seed} must be deterministic");
    }
}

/// ABBA lock ordering must be reported as a deadlock by the exhaustive leg.
#[test]
fn abba_deadlock_is_detected() {
    let report = explore(&Config::exhaustive(), || {
        let a = Mutex::new(());
        let b = Mutex::new(());
        scope(|s| {
            let t1 = s.spawn(|| {
                let _ga = a.lock().expect("a");
                let _gb = b.lock().expect("b");
            });
            let t2 = s.spawn(|| {
                let _gb = b.lock().expect("b");
                let _ga = a.lock().expect("a");
            });
            let _ = t1.join();
            let _ = t2.join();
        });
    });
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::Deadlock),
        "exhaustive search must hit the ABBA interleaving; report: {report}"
    );
}

/// Mutex hand-over carries happens-before: unordered RaceCell accesses
/// under one mutex are race-free.
#[test]
fn mutex_handover_orders_cell_accesses() {
    let report = explore(&Config::exhaustive(), || {
        let cell = RaceCell::named("guarded", 0u32);
        let lock = Mutex::new(());
        scope(|s| {
            let writer = s.spawn(|| {
                let _g = lock.lock().expect("lock");
                cell.write(1);
            });
            let reader = s.spawn(|| {
                let _g = lock.lock().expect("lock");
                let _ = cell.read();
            });
            writer.join().expect("writer");
            reader.join().expect("reader");
        });
    });
    report.expect_ok("mutex_handover_orders_cell_accesses");
    assert!(report.complete);
}

/// A panicking assertion inside a model thread surfaces as a property
/// failure with the panic message.
#[test]
fn property_violations_are_reported() {
    let report = explore(&Config::seeded(8), || {
        let counter = AtomicU64::new(0);
        scope(|s| {
            let t = s.spawn(|| {
                counter.fetch_add(1, Ordering::AcqRel);
                assert_eq!(counter.load(Ordering::Acquire), 2, "deliberate failure");
            });
            let _ = t.join();
        });
    });
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::Property && f.message.contains("deliberate failure")),
        "expected a property failure; report: {report}"
    );
}
