//! Model-aware drop-ins for `std::sync` primitives.
//!
//! These types mirror the `std` API the QGP runtime uses.  On a model
//! thread every access is a scheduled operation: the value itself behaves
//! sequentially consistently (the scheduler serializes operations), while
//! the *declared* [`Ordering`] drives the vector-clock happens-before edges
//! the race detector checks.  That split is what lets the checker catch
//! too-weak orderings: a `Relaxed` store still stores, but publishes no
//! clock, so data it was supposed to release stays unordered.
//!
//! Off a model thread (or while unwinding) every method passes straight
//! through to the underlying `std` primitive with the caller's ordering.

use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use crate::sched::{self, Access};

pub use std::sync::{LockResult, TryLockResult};

macro_rules! model_atomic_int {
    ($name:ident, $std:ty, $int:ty) => {
        /// Model-aware drop-in for the matching `std::sync::atomic` type.
        /// See the module docs.
        #[derive(Debug, Default)]
        pub struct $name {
            v: $std,
            /// Epoch-tagged location id, assigned lazily by the scheduler.
            id: std::sync::atomic::AtomicU64,
        }

        impl $name {
            /// Creates a new atomic (usable in `static` position).
            pub const fn new(value: $int) -> Self {
                Self {
                    v: <$std>::new(value),
                    id: std::sync::atomic::AtomicU64::new(0),
                }
            }

            /// As `std`: loads the value; `order` drives the acquire edge.
            pub fn load(&self, order: Ordering) -> $int {
                sched::with_op(|st, tid| {
                    let lid = st.atomic_loc(&self.id);
                    st.apply_atomic(
                        tid,
                        lid,
                        Access::Load {
                            acquire: sched::is_acquire(order),
                        },
                    );
                    self.v.load(Ordering::SeqCst)
                })
                .unwrap_or_else(|| self.v.load(order))
            }

            /// As `std`: stores the value; `order` drives the release edge.
            pub fn store(&self, value: $int, order: Ordering) {
                let modeled = sched::with_op(|st, tid| {
                    let lid = st.atomic_loc(&self.id);
                    st.apply_atomic(
                        tid,
                        lid,
                        Access::Store {
                            release: sched::is_release(order),
                        },
                    );
                    self.v.store(value, Ordering::SeqCst);
                });
                if modeled.is_none() {
                    self.v.store(value, order);
                }
            }

            /// As `std`: replaces the value, returning the previous one.
            pub fn swap(&self, value: $int, order: Ordering) -> $int {
                self.rmw(order, |_| value)
                    .unwrap_or_else(|| self.v.swap(value, order))
            }

            /// As `std`: adds, returning the previous value.
            pub fn fetch_add(&self, value: $int, order: Ordering) -> $int {
                self.rmw(order, |prev| prev.wrapping_add(value))
                    .unwrap_or_else(|| self.v.fetch_add(value, order))
            }

            /// As `std`: subtracts, returning the previous value.
            pub fn fetch_sub(&self, value: $int, order: Ordering) -> $int {
                self.rmw(order, |prev| prev.wrapping_sub(value))
                    .unwrap_or_else(|| self.v.fetch_sub(value, order))
            }

            /// As `std`: maximum, returning the previous value.
            pub fn fetch_max(&self, value: $int, order: Ordering) -> $int {
                self.rmw(order, |prev| prev.max(value))
                    .unwrap_or_else(|| self.v.fetch_max(value, order))
            }

            /// As `std`: CAS with independent success/failure orderings.
            /// Under the model this never fails spuriously, so it also
            /// backs `compare_exchange_weak`.
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                sched::with_op(|st, tid| {
                    let lid = st.atomic_loc(&self.id);
                    let prev = self.v.load(Ordering::SeqCst);
                    if prev == current {
                        st.apply_atomic(
                            tid,
                            lid,
                            Access::Rmw {
                                acquire: sched::is_acquire(success),
                                release: sched::is_release(success),
                            },
                        );
                        self.v.store(new, Ordering::SeqCst);
                        Ok(prev)
                    } else {
                        st.apply_atomic(
                            tid,
                            lid,
                            Access::Load {
                                acquire: sched::is_acquire(failure),
                            },
                        );
                        Err(prev)
                    }
                })
                .unwrap_or_else(|| self.v.compare_exchange(current, new, success, failure))
            }

            /// As `std::compare_exchange_weak`; deterministic (no spurious
            /// failure) under the model.
            pub fn compare_exchange_weak(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                sched::with_op(|st, tid| {
                    let lid = st.atomic_loc(&self.id);
                    let prev = self.v.load(Ordering::SeqCst);
                    if prev == current {
                        st.apply_atomic(
                            tid,
                            lid,
                            Access::Rmw {
                                acquire: sched::is_acquire(success),
                                release: sched::is_release(success),
                            },
                        );
                        self.v.store(new, Ordering::SeqCst);
                        Ok(prev)
                    } else {
                        st.apply_atomic(
                            tid,
                            lid,
                            Access::Load {
                                acquire: sched::is_acquire(failure),
                            },
                        );
                        Err(prev)
                    }
                })
                .unwrap_or_else(|| self.v.compare_exchange_weak(current, new, success, failure))
            }

            /// Shared model path for unconditional read-modify-writes.
            /// Returns `None` in pass-through mode.
            fn rmw(&self, order: Ordering, f: impl FnOnce($int) -> $int) -> Option<$int> {
                sched::with_op(|st, tid| {
                    let lid = st.atomic_loc(&self.id);
                    st.apply_atomic(
                        tid,
                        lid,
                        Access::Rmw {
                            acquire: sched::is_acquire(order),
                            release: sched::is_release(order),
                        },
                    );
                    let prev = self.v.load(Ordering::SeqCst);
                    self.v.store(f(prev), Ordering::SeqCst);
                    prev
                })
            }
        }
    };
}

model_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
model_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Model-aware drop-in for `std::sync::atomic::AtomicBool`.  See the module
/// docs.
#[derive(Debug, Default)]
pub struct AtomicBool {
    v: std::sync::atomic::AtomicBool,
    /// Epoch-tagged location id, assigned lazily by the scheduler.
    id: std::sync::atomic::AtomicU64,
}

impl AtomicBool {
    /// Creates a new atomic (usable in `static` position).
    pub const fn new(value: bool) -> Self {
        Self {
            v: std::sync::atomic::AtomicBool::new(value),
            id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// As `std`: loads the value; `order` drives the acquire edge.
    pub fn load(&self, order: Ordering) -> bool {
        sched::with_op(|st, tid| {
            let lid = st.atomic_loc(&self.id);
            st.apply_atomic(
                tid,
                lid,
                Access::Load {
                    acquire: sched::is_acquire(order),
                },
            );
            self.v.load(Ordering::SeqCst)
        })
        .unwrap_or_else(|| self.v.load(order))
    }

    /// As `std`: stores the value; `order` drives the release edge.
    pub fn store(&self, value: bool, order: Ordering) {
        let modeled = sched::with_op(|st, tid| {
            let lid = st.atomic_loc(&self.id);
            st.apply_atomic(
                tid,
                lid,
                Access::Store {
                    release: sched::is_release(order),
                },
            );
            self.v.store(value, Ordering::SeqCst);
        });
        if modeled.is_none() {
            self.v.store(value, order);
        }
    }

    /// As `std`: replaces the value, returning the previous one.
    pub fn swap(&self, value: bool, order: Ordering) -> bool {
        sched::with_op(|st, tid| {
            let lid = st.atomic_loc(&self.id);
            st.apply_atomic(
                tid,
                lid,
                Access::Rmw {
                    acquire: sched::is_acquire(order),
                    release: sched::is_release(order),
                },
            );
            let prev = self.v.load(Ordering::SeqCst);
            self.v.store(value, Ordering::SeqCst);
            prev
        })
        .unwrap_or_else(|| self.v.swap(value, order))
    }
}

/// Model-aware drop-in for `std::sync::Mutex`.  Acquire blocks in *model*
/// time (the scheduler parks the thread and explores other interleavings),
/// and lock hand-over contributes a happens-before edge exactly like a
/// release/acquire pair.  Poisoning mirrors `std`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    /// Epoch-tagged location id, assigned lazily by the scheduler.
    id: std::sync::atomic::AtomicU64,
}

impl<T> Mutex<T> {
    /// Creates a new mutex (usable in `static` position).
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
            id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// As `std`: acquires the lock, blocking (in model time, under the
    /// scheduler) until it is available.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let mut modeled = false;
        loop {
            let acquired = sched::with_op(|st, tid| {
                let mid = st.mutex_loc(&self.id);
                if st.mutexes[mid].held {
                    st.threads[tid].status =
                        crate::sched::Status::Blocked(crate::sched::Wait::Lock(mid));
                    false
                } else {
                    st.mutexes[mid].held = true;
                    let msg = std::mem::take(&mut st.mutexes[mid].msg);
                    st.threads[tid].clock.join(&msg);
                    st.mutexes[mid].msg = msg;
                    true
                }
            });
            match acquired {
                None => break,
                Some(true) => {
                    modeled = true;
                    break;
                }
                // Blocked: the next `with_op` waits until an unlock makes
                // this thread runnable and the scheduler picks it again.
                Some(false) => continue,
            }
        }
        // The OS-level lock is uncontended on the model path: the scheduler
        // admits one holder at a time and releases it before handing over.
        match self.inner.lock() {
            Ok(guard) => Ok(MutexGuard {
                inner: guard,
                _release: ReleaseOnDrop {
                    id: &self.id,
                    modeled,
                },
            }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                inner: poisoned.into_inner(),
                _release: ReleaseOnDrop {
                    id: &self.id,
                    modeled,
                },
            })),
        }
    }
}

/// Releases the model lock when the guard drops.  Declared after `inner` in
/// [`MutexGuard`] so the OS-level lock is already free when the scheduler
/// lets the next thread in.
#[derive(Debug)]
struct ReleaseOnDrop<'a> {
    id: &'a std::sync::atomic::AtomicU64,
    modeled: bool,
}

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        if !self.modeled {
            return;
        }
        sched::with_op(|st, tid| {
            let mid = st.mutex_loc(self.id);
            st.mutexes[mid].held = false;
            let clock = st.threads[tid].clock.clone();
            st.mutexes[mid].msg.join(&clock);
            st.wake(crate::sched::Wait::Lock(mid));
        });
    }
}

/// Guard returned by [`Mutex::lock`]; mirrors `std::sync::MutexGuard`.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    /// Runs the model unlock after `inner` has dropped (declaration order).
    _release: ReleaseOnDrop<'a>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomics_pass_through_off_model() {
        let a = AtomicU64::new(7);
        assert_eq!(a.fetch_add(5, Ordering::AcqRel), 7);
        assert_eq!(a.load(Ordering::Acquire), 12);
        assert_eq!(
            a.compare_exchange(12, 1, Ordering::AcqRel, Ordering::Acquire),
            Ok(12)
        );
        assert_eq!(
            a.compare_exchange(12, 9, Ordering::AcqRel, Ordering::Acquire),
            Err(1)
        );
        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::AcqRel));
        assert!(b.load(Ordering::Acquire));
        let u = AtomicUsize::new(3);
        assert_eq!(u.fetch_sub(1, Ordering::AcqRel), 3);
        assert_eq!(u.fetch_max(10, Ordering::AcqRel), 2);
        assert_eq!(u.load(Ordering::Acquire), 10);
    }

    #[test]
    fn mutex_passes_through_off_model() {
        let m = Mutex::new(41);
        {
            let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap_or_else(PoisonError::into_inner), 42);
    }
}
