//! The answer types of counting executions: cardinality and threshold
//! answers without enumerating witnesses.
//!
//! [`PreparedQuery::count`](super::PreparedQuery::count) is the aggregate
//! face of the engine: the same driver as
//! [`PreparedQuery::run`](super::PreparedQuery::run) — same modes,
//! same `limit` / `restrict` / cancellation / budget semantics, the same
//! accepted focus set by construction — with every decision taking the
//! kernel's counting work profile, folded into a [`CountAnswer`]: one
//! [`FocusCount`] per accepted focus.  Per-quantifier work
//! stops at the verdict under [`CountMode::ThresholdOnly`](super::CountMode);
//! [`CountMode::Exact`](super::CountMode) scans each child list to the end
//! so witness counts are exact cardinalities.

use qgp_graph::NodeId;

use crate::matching::MatchStats;

/// Per-focus result of a counting execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FocusCount {
    /// The accepted focus node.
    pub focus: NodeId,
    /// Witness count of the focus's first out-edge (the number of distinct
    /// children matched by it): exact under
    /// [`CountMode::Exact`](super::CountMode), a sufficient lower bound
    /// under [`CountMode::ThresholdOnly`](super::CountMode).  For a
    /// pattern whose focus has no out-edge in `Π(Q)` this is `1`.
    pub witnesses: usize,
}

/// The answer of [`PreparedQuery::count`](super::PreparedQuery::count).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountAnswer {
    /// One entry per accepted focus, in ascending node-id order.
    pub per_focus: Vec<FocusCount>,
    /// Stopped early by budget exhaustion or cancellation: `per_focus` is
    /// an exact prefix (sequential) or subset (parallel modes) of the full
    /// answer.  Reaching an
    /// [`ExecOptions::limit`](super::ExecOptions::limit) is a complete answer to
    /// the limited query and does *not* set this.
    pub truncated: bool,
    /// Work counters of this execution.
    /// [`MatchStats::threshold_exits`] and
    /// [`MatchStats::children_counted`] show how much enumeration the
    /// aggregate pushdown avoided.
    pub stats: MatchStats,
}

impl CountAnswer {
    /// The accepted focus nodes, in ascending order — the same sequence
    /// as the enumerating execution's [`QueryAnswer::matches`](crate::matching::QueryAnswer).
    pub fn matches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_focus.iter().map(|f| f.focus)
    }
}
