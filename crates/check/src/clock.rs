//! Vector clocks: the happens-before bookkeeping of the model checker.
//!
//! Each model thread carries a [`VClock`]; every scheduled operation ticks
//! the thread's own component.  Synchronizing operations (release stores
//! read by acquire loads, spawn, join, mutex hand-over) *join* clocks, and
//! the race detector compares clocks with [`VClock::leq`]: access A
//! happens-before access B iff A's clock at the time of the access is ≤ B's
//! thread clock when B executes.

/// A vector clock, indexed by model-thread id.  Missing components are 0,
/// so clocks from executions with different thread counts compare cleanly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock(Vec<u32>);

impl VClock {
    /// The zero clock (happens-before everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// This thread's own component.
    pub fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Sets one component (used for read-vector bookkeeping).
    pub fn set(&mut self, tid: usize, value: u32) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] = value;
    }

    /// Advances this thread's own component by one event.
    pub fn tick(&mut self, tid: usize) {
        let v = self.get(tid);
        self.set(tid, v + 1);
    }

    /// Pointwise maximum: after `a.join(&b)`, everything ordered before `b`
    /// is ordered before `a` too.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Is `self` pointwise ≤ `other` (i.e. does `self` happen-before or
    /// equal `other`)?
    pub fn leq(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }

    /// Resets to the zero clock without releasing the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_join_and_leq() {
        let mut a = VClock::new();
        let mut b = VClock::new();
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        let mut joined = a.clone();
        joined.join(&b);
        assert!(a.leq(&joined));
        assert!(b.leq(&joined));
        assert_eq!(joined.get(0), 2);
        assert_eq!(joined.get(1), 1);
    }

    #[test]
    fn zero_clock_precedes_everything() {
        let z = VClock::new();
        let mut a = VClock::new();
        a.tick(3);
        assert!(z.leq(&a));
        assert!(!a.leq(&z));
    }
}
