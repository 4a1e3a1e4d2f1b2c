//! Matcher configuration.
//!
//! All matchers in this crate share one backtracking kernel (the generic
//! `Match` procedure of Fig. 4); the algorithms of the paper differ in which
//! optimizations they enable.  [`MatchConfig`] captures those switches, and
//! the constructors below reproduce the configurations evaluated in
//! Section 7:
//!
//! | constructor | paper algorithm |
//! |-------------|-----------------|
//! | [`MatchConfig::qmatch`]   | `QMatch` — quantifier-aware pruning, dynamic early acceptance, incremental handling of negated edges (`IncQMatch`) |
//! | [`MatchConfig::qmatch_n`] | `QMatchn` — like `QMatch` but recomputes each positified pattern from scratch instead of using `IncQMatch` |
//! | [`MatchConfig::enumerate`]| `Enum` — enumerate all matches of the stratified pattern first, verify quantifiers afterwards |

/// Tuning switches for the quantified matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Refine candidate sets with the graph-simulation pre-filter
    /// (Appendix B, Lemma 13).
    pub use_simulation_filter: bool,
    /// Prune candidates whose upper bound `U(v, e) = |Mₑ(v)|` cannot satisfy
    /// the quantifier (the `QMatch` initialization and local pruning rule).
    pub use_upper_bound_pruning: bool,
    /// Accept a focus candidate as soon as a found isomorphism satisfies all
    /// (monotone) quantifiers, instead of completing the enumeration
    /// (the dynamic selection strategy of `DMatch`).
    pub early_accept: bool,
    /// Handle negated edges incrementally by reusing the cached matches of
    /// `Π(Q)` (`IncQMatch`, Section 4.2).  When `false`, each positified
    /// pattern `Π(Q^{+e})` is recomputed from scratch (`QMatchn`).
    pub incremental_negation: bool,
}

impl MatchConfig {
    /// The full `QMatch` algorithm of Section 4.
    ///
    /// The graph-simulation pre-filter of Appendix B is *not* enabled by
    /// default: it is a separate optimization whose fixpoint cost only pays
    /// off for patterns with long chains of selective labels; enable it with
    /// [`MatchConfig::qmatch_with_simulation`] when that is the workload.
    pub fn qmatch() -> Self {
        MatchConfig {
            use_simulation_filter: false,
            use_upper_bound_pruning: true,
            early_accept: true,
            incremental_negation: true,
        }
    }

    /// `QMatch` plus the graph-simulation candidate pre-filter (Appendix B,
    /// Lemma 13).
    pub fn qmatch_with_simulation() -> Self {
        MatchConfig {
            use_simulation_filter: true,
            ..Self::qmatch()
        }
    }

    /// `QMatchn`: `QMatch` without incremental evaluation of negated edges.
    pub fn qmatch_n() -> Self {
        MatchConfig {
            incremental_negation: false,
            ..Self::qmatch()
        }
    }

    /// The `Enum` baseline: plain subgraph-isomorphism enumeration of the
    /// stratified pattern followed by quantifier verification.
    pub fn enumerate() -> Self {
        MatchConfig {
            use_simulation_filter: false,
            use_upper_bound_pruning: false,
            early_accept: false,
            incremental_negation: false,
        }
    }
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self::qmatch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_documented_switches() {
        let qm = MatchConfig::qmatch();
        assert!(!qm.use_simulation_filter && qm.use_upper_bound_pruning);
        assert!(qm.early_accept && qm.incremental_negation);
        assert!(MatchConfig::qmatch_with_simulation().use_simulation_filter);

        let qn = MatchConfig::qmatch_n();
        assert!(!qn.incremental_negation);
        assert!(qn.early_accept);

        let en = MatchConfig::enumerate();
        assert!(!en.use_simulation_filter);
        assert!(!en.use_upper_bound_pruning);
        assert!(!en.early_accept);
        assert!(!en.incremental_negation);

        assert_eq!(MatchConfig::default(), MatchConfig::qmatch());
    }
}
