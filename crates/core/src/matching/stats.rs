//! Instrumentation counters reported by every matcher.

use std::ops::{AddAssign, Sub};

/// Counters describing how much work a matching run performed.  The paper
/// measures algorithm quality by the number of verifications (candidate
/// extension attempts) and by how much of that work incremental evaluation
/// avoids; these counters expose the same quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Total size of the initial candidate sets `Σ_u |C(u)|`.
    pub initial_candidates: usize,
    /// Number of focus candidates considered.
    pub focus_candidates: usize,
    /// Number of focus candidates fully verified (not pruned up front).
    pub focus_verified: usize,
    /// Number of candidate extension attempts (`IsExtend` calls in Fig. 4).
    pub verifications: usize,
    /// Number of complete isomorphisms of the stratified pattern found.
    pub isomorphisms_found: usize,
    /// Focus candidates discarded by the upper-bound (quantifier) pruning.
    pub pruned_by_upper_bound: usize,
    /// Candidates removed by the graph-simulation pre-filter.
    pub pruned_by_simulation: usize,
    /// Focus candidates whose verification was skipped because incremental
    /// evaluation reused cached matches (the `IncQMatch` saving).
    pub reused_from_cache: usize,
    /// Number of matcher sessions constructed (candidate sets, search order
    /// and counter scratch).  The parallel runtime builds sessions once per
    /// worker thread and reuses them across stolen tasks, so this counter
    /// stays bounded by `threads × fragments` instead of growing with the
    /// number of work chunks.
    pub sessions_built: usize,
    /// Counting-mode decisions concluded by a threshold argument before the
    /// scan or enumeration finished: the quantifier was proven satisfied
    /// (`count ≥ min_required`), proven unreachable (too few children
    /// remain), or overshot an equality ceiling.  Zero outside the counting
    /// decision path.
    pub threshold_exits: usize,
    /// Child probes performed by the counting fast path's ranked-slice
    /// intersections.  Together with [`MatchStats::threshold_exits`] this
    /// shows how much enumeration the aggregate pushdown avoided: compare
    /// against `verifications` on the same workload without counting.
    pub children_counted: usize,
}

impl MatchStats {
    /// A fresh, zeroed statistics record.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AddAssign for MatchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.initial_candidates += rhs.initial_candidates;
        self.focus_candidates += rhs.focus_candidates;
        self.focus_verified += rhs.focus_verified;
        self.verifications += rhs.verifications;
        self.isomorphisms_found += rhs.isomorphisms_found;
        self.pruned_by_upper_bound += rhs.pruned_by_upper_bound;
        self.pruned_by_simulation += rhs.pruned_by_simulation;
        self.reused_from_cache += rhs.reused_from_cache;
        self.sessions_built += rhs.sessions_built;
        self.threshold_exits += rhs.threshold_exits;
        self.children_counted += rhs.children_counted;
    }
}

impl Sub for MatchStats {
    type Output = MatchStats;

    /// Field-wise difference, saturating at zero.  Counters are monotone
    /// within one session, so `later - earlier` is the work performed
    /// between the two snapshots — how the prepared-query engine reports
    /// per-execution statistics from a long-lived session.
    fn sub(self, rhs: Self) -> MatchStats {
        MatchStats {
            initial_candidates: self
                .initial_candidates
                .saturating_sub(rhs.initial_candidates),
            focus_candidates: self.focus_candidates.saturating_sub(rhs.focus_candidates),
            focus_verified: self.focus_verified.saturating_sub(rhs.focus_verified),
            verifications: self.verifications.saturating_sub(rhs.verifications),
            isomorphisms_found: self
                .isomorphisms_found
                .saturating_sub(rhs.isomorphisms_found),
            pruned_by_upper_bound: self
                .pruned_by_upper_bound
                .saturating_sub(rhs.pruned_by_upper_bound),
            pruned_by_simulation: self
                .pruned_by_simulation
                .saturating_sub(rhs.pruned_by_simulation),
            reused_from_cache: self.reused_from_cache.saturating_sub(rhs.reused_from_cache),
            sessions_built: self.sessions_built.saturating_sub(rhs.sessions_built),
            threshold_exits: self.threshold_exits.saturating_sub(rhs.threshold_exits),
            children_counted: self.children_counted.saturating_sub(rhs.children_counted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_is_field_wise_and_saturating() {
        let a = MatchStats {
            initial_candidates: 5,
            focus_candidates: 4,
            ..MatchStats::default()
        };
        let b = MatchStats {
            initial_candidates: 2,
            focus_candidates: 9,
            ..MatchStats::default()
        };
        let d = a - b;
        assert_eq!(d.initial_candidates, 3);
        assert_eq!(d.focus_candidates, 0);
        assert_eq!(a - MatchStats::default(), a);
    }

    #[test]
    fn add_assign_accumulates_every_field() {
        let mut a = MatchStats {
            initial_candidates: 1,
            focus_candidates: 2,
            focus_verified: 3,
            verifications: 4,
            isomorphisms_found: 5,
            pruned_by_upper_bound: 6,
            pruned_by_simulation: 7,
            reused_from_cache: 8,
            sessions_built: 9,
            threshold_exits: 10,
            children_counted: 11,
        };
        a += a;
        assert_eq!(a.initial_candidates, 2);
        assert_eq!(a.focus_candidates, 4);
        assert_eq!(a.focus_verified, 6);
        assert_eq!(a.verifications, 8);
        assert_eq!(a.isomorphisms_found, 10);
        assert_eq!(a.pruned_by_upper_bound, 12);
        assert_eq!(a.pruned_by_simulation, 14);
        assert_eq!(a.reused_from_cache, 16);
        assert_eq!(a.sessions_built, 18);
        assert_eq!(a.threshold_exits, 20);
        assert_eq!(a.children_counted, 22);
        assert_eq!(MatchStats::new(), MatchStats::default());
    }
}
