//! Execution options: the one description of *how* a prepared query runs.
//!
//! [`ExecOptions`] is the single value handed to
//! [`PreparedQuery::run`](super::PreparedQuery::run) and
//! [`PreparedQuery::count`](super::PreparedQuery::count): the execution
//! [mode](ExecMode), the [`MatchConfig`], an optional answer
//! [limit](ExecOptions::limit), an optional focus-candidate
//! [restriction](ExecOptions::restrict_to), and an optional
//! [budget](ExecOptions::budget_with), the one way to stop it early.

use qgp_graph::{Fragment, NodeId};
use qgp_runtime::{ExecBudget, Runtime};

use crate::matching::{CountMode, MatchConfig};

/// How a prepared query executes.
#[derive(Debug, Clone, Copy, Default)]
pub enum ExecMode<'a> {
    /// One thread: the focus candidates are decided in ascending order on
    /// the calling thread, so a [limit](ExecOptions::limit) or a decision
    /// cap stops the execution at a prefix of the answer.
    #[default]
    Sequential,
    /// Whole-graph data parallelism: one task per focus candidate on a
    /// work-stealing executor, each worker holding one session built from
    /// the shared compiled pattern.
    Parallel(&'a Runtime),
    /// `PQMatch`-style execution over a d-hop preserving partition: one
    /// task per focus candidate a fragment covers, on the work-stealing
    /// executor, with the pooled session like [`ExecMode::Parallel`].
    ///
    /// The fragments only plan the tasks: every task is decided on the
    /// snapshot the query runs on, so the answer is `Q(x_o, snapshot)` on
    /// the covered nodes.  When the fragments cover every node — as a
    /// `DPar` partition does — that is the whole answer, even when the
    /// partition was cut from an older epoch of the graph.
    Partitioned {
        /// The partition's fragments (e.g. `DHopPartition::fragments()`).
        fragments: &'a [Fragment],
        /// The `d` the partition preserves; must be ≥ the pattern radius.
        d: usize,
        /// The executor the fragment tasks run on.
        runtime: &'a Runtime,
    },
}

/// Options for one execution of a [`PreparedQuery`](super::PreparedQuery).
///
/// Constructed with one of the mode shortcuts ([`ExecOptions::sequential`],
/// [`ExecOptions::parallel_on`], [`ExecOptions::partitioned_on`]) and
/// refined with the builder methods.  Parallel work runs on the
/// [`Runtime`] the mode is handed; pass [`Runtime::global`] for the
/// process-wide executor.  The default is a sequential run with
/// [`MatchConfig::qmatch`], no limit, no restriction and no budget.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions<'a> {
    /// Execution mode.
    pub mode: ExecMode<'a>,
    /// Matcher configuration (`QMatch` / `QMatchn` / `Enum` switches).
    pub config: MatchConfig,
    /// Stop after this many accepted answers (genuine early termination:
    /// remaining candidates are never verified).
    pub limit: Option<usize>,
    /// Restrict the focus candidates to this node set.
    pub restrict: Option<&'a [NodeId]>,
    /// Execution budget: charged one decision per focus candidate verified,
    /// in every mode (sequential, parallel, partitioned), and its
    /// token polled between candidates and between verification phases.
    /// When it stops (deadline, decision cap or explicit cancellation) the
    /// execution stops at per-candidate granularity and returns the answer
    /// found so far with `truncated` set.
    pub budget: Option<ExecBudget>,
    /// Aggregate pushdown: when set, per-candidate decisions take the
    /// kernel's counting work profile instead of enumerating child matches
    /// — the accepted set is identical, only the work differs.
    /// [`PreparedQuery::count`](super::PreparedQuery::count) uses this as
    /// its [`CountMode`] (defaulting to [`CountMode::ThresholdOnly`] when
    /// unset).
    pub count: Option<CountMode>,
}

impl<'a> ExecOptions<'a> {
    /// A sequential execution (the default).
    pub fn sequential() -> Self {
        Self::default()
    }

    /// A whole-graph parallel execution on `runtime`.
    pub fn parallel_on(runtime: &'a Runtime) -> Self {
        ExecOptions {
            mode: ExecMode::Parallel(runtime),
            ..Self::default()
        }
    }

    /// A partitioned (`PQMatch`-style) execution on `runtime`.
    pub fn partitioned_on(fragments: &'a [Fragment], d: usize, runtime: &'a Runtime) -> Self {
        ExecOptions {
            mode: ExecMode::Partitioned {
                fragments,
                d,
                runtime,
            },
            ..Self::default()
        }
    }

    /// Sets the matcher configuration.
    pub fn with_config(mut self, config: MatchConfig) -> Self {
        self.config = config;
        self
    }

    /// Stops the execution after `k` accepted answers.  Sequentially the
    /// result is the k smallest members of the full answer; in parallel
    /// modes it is *some* k members (whichever candidates were verified
    /// first), returned in sorted order.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Restricts the focus candidates to `nodes` (need not be sorted;
    /// duplicates are ignored).
    pub fn restrict_to(mut self, nodes: &'a [NodeId]) -> Self {
        self.restrict = Some(nodes);
        self
    }

    /// Attaches an execution budget: a deadline
    /// ([`ExecBudget::with_timeout`]), a decision cap, or a caller's
    /// cancellation token ([`ExecBudget::from`]).  The budget is charged
    /// once per focus candidate verified.
    pub fn budget_with(mut self, budget: ExecBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Routes decisions through the counting path with threshold early-exit
    /// ([`CountMode::ThresholdOnly`]): each quantifier stops the moment its
    /// verdict is proven, and witness counts are sufficient lower bounds.
    /// The cheapest way to answer "which foci match / how many" — the mode
    /// QGAR support counting runs under.
    pub fn count_only(mut self) -> Self {
        self.count = Some(CountMode::ThresholdOnly);
        self
    }

    /// Routes decisions through the counting path with exact per-focus
    /// witness cardinalities ([`CountMode::Exact`]).
    pub fn count_exact(mut self) -> Self {
        self.count = Some(CountMode::Exact);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_the_documented_fields() {
        let o = ExecOptions::sequential().limit(5);
        assert!(matches!(o.mode, ExecMode::Sequential));
        assert_eq!(o.limit, Some(5));
        assert!(o.restrict.is_none() && o.budget.is_none());
        assert_eq!(o.config, MatchConfig::qmatch());

        let rt = Runtime::new(3);
        let o = ExecOptions::parallel_on(&rt).with_config(MatchConfig::enumerate());
        assert!(matches!(o.mode, ExecMode::Parallel(r) if r.threads() == 3));
        assert_eq!(o.config, MatchConfig::enumerate());

        let nodes = [NodeId::new(1)];
        let o = ExecOptions::sequential().restrict_to(&nodes);
        assert_eq!(o.restrict, Some(&nodes[..]));
        assert!(o.budget.is_none());

        let o = ExecOptions::sequential().budget_with(ExecBudget::unlimited().max_decisions(10));
        let budget = o.budget.unwrap();
        assert!((0..10).all(|_| budget.charge(1)) && !budget.charge(1));

        assert_eq!(ExecOptions::sequential().count, None);
        assert_eq!(
            ExecOptions::sequential().count_only().count,
            Some(CountMode::ThresholdOnly)
        );
        assert_eq!(
            ExecOptions::parallel_on(Runtime::global())
                .count_exact()
                .count,
            Some(CountMode::Exact)
        );
    }
}
