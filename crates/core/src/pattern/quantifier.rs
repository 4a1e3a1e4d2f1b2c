//! Counting quantifiers on pattern edges.
//!
//! A quantified graph pattern annotates every edge `e` with a predicate
//! `f(e)` of one of the forms (Section 2.2 of the paper):
//!
//! * `σ(e) ⊙ p%` — a **ratio aggregate** for a real `p ∈ (0, 100]`,
//! * `σ(e) ⊙ p`  — a **numeric aggregate** for a positive integer `p`,
//! * `σ(e) = 0`  — **negation** (the edge is a *negated edge*),
//!
//! where `⊙` is `=` or `≥` (we additionally support `>` which the paper notes
//! reduces to `≥ p+1`).  Counting quantifiers uniformly express:
//!
//! * **existential quantification**: `σ(e) ≥ 1` (the default on every edge of
//!   a conventional pattern),
//! * **universal quantification**: `σ(e) = 100%`,
//! * **negation**: `σ(e) = 0`.

use std::fmt;

/// Comparison operator `⊙` of a counting quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Exactly equal (`=`).
    Eq,
    /// Greater than or equal (`≥`).
    Ge,
    /// Strictly greater than (`>`); equivalent to `≥ p + 1` for integers.
    Gt,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Eq => write!(f, "="),
            CmpOp::Ge => write!(f, ">="),
            CmpOp::Gt => write!(f, ">"),
        }
    }
}

/// The counting quantifier `f(e)` attached to a pattern edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountingQuantifier {
    /// Numeric aggregate `σ(e) ⊙ p` — "at least/exactly `p` children of the
    /// matched node are matches of the edge's target".
    Count {
        /// The comparison operator.
        op: CmpOp,
        /// The threshold `p ≥ 1`.
        value: u32,
    },
    /// Ratio aggregate `σ(e) ⊙ p%` — the fraction of children (via the edge's
    /// label) that are matches of the edge's target.
    Ratio {
        /// The comparison operator.
        op: CmpOp,
        /// The percentage `p ∈ (0, 100]`.
        percent: f64,
    },
    /// Negation `σ(e) = 0` — no child of the matched node may match the
    /// edge's target.
    Negated,
}

impl CountingQuantifier {
    /// The existential quantifier `σ(e) ≥ 1`, the implicit default of
    /// conventional graph patterns.
    pub const fn existential() -> Self {
        CountingQuantifier::Count {
            op: CmpOp::Ge,
            value: 1,
        }
    }

    /// The universal quantifier `σ(e) = 100%`.
    pub const fn universal() -> Self {
        CountingQuantifier::Ratio {
            op: CmpOp::Eq,
            percent: 100.0,
        }
    }

    /// Numeric aggregate `σ(e) ≥ p`.
    pub const fn at_least(p: u32) -> Self {
        CountingQuantifier::Count {
            op: CmpOp::Ge,
            value: p,
        }
    }

    /// Numeric aggregate `σ(e) = p`.
    pub const fn exactly(p: u32) -> Self {
        CountingQuantifier::Count {
            op: CmpOp::Eq,
            value: p,
        }
    }

    /// Ratio aggregate `σ(e) ≥ p%`.
    pub const fn at_least_percent(p: f64) -> Self {
        CountingQuantifier::Ratio {
            op: CmpOp::Ge,
            percent: p,
        }
    }

    /// Negation `σ(e) = 0`.
    pub const fn negated() -> Self {
        CountingQuantifier::Negated
    }

    /// Is this the existential quantifier `σ(e) ≥ 1`?
    pub fn is_existential(&self) -> bool {
        matches!(
            self,
            CountingQuantifier::Count {
                op: CmpOp::Ge,
                value: 1
            }
        )
    }

    /// Is this a negated edge (`σ(e) = 0`)?
    pub fn is_negated(&self) -> bool {
        matches!(self, CountingQuantifier::Negated)
    }

    /// Is this quantifier *monotone* in the match count?  Monotone
    /// quantifiers (all `≥` / `>` forms) stay satisfied once satisfied, which
    /// allows `DMatch` to accept a focus candidate as soon as every edge
    /// condition holds, without completing the enumeration.
    pub fn is_monotone(&self) -> bool {
        match self {
            CountingQuantifier::Count { op, .. } | CountingQuantifier::Ratio { op, .. } => {
                matches!(op, CmpOp::Ge | CmpOp::Gt)
            }
            CountingQuantifier::Negated => false,
        }
    }

    /// Checks the quantifier against an observed match count.
    ///
    /// * `count` — `|Mₑ(vₓ, v, Q)|`, the number of children of the matched
    ///   node that are matches of the edge's target,
    /// * `total` — `|Mₑ(v)|`, the number of children of the matched node
    ///   connected by an edge with the pattern edge's label (the denominator
    ///   of ratio aggregates).
    pub fn check(&self, count: usize, total: usize) -> bool {
        match *self {
            CountingQuantifier::Count { op, value } => match op {
                CmpOp::Eq => count == value as usize,
                CmpOp::Ge => count >= value as usize,
                CmpOp::Gt => count > value as usize,
            },
            CountingQuantifier::Ratio { op, percent } => {
                if total == 0 {
                    // A matched node always has at least one child via the
                    // edge (its own image under the isomorphism); an empty
                    // denominator therefore only occurs for unmatched nodes
                    // and never satisfies a ratio aggregate.
                    return false;
                }
                let lhs = count as f64 * 100.0;
                let rhs = percent * total as f64;
                match op {
                    CmpOp::Eq => (lhs - rhs).abs() < 1e-9,
                    CmpOp::Ge => lhs + 1e-9 >= rhs,
                    CmpOp::Gt => lhs > rhs + 1e-9,
                }
            }
            CountingQuantifier::Negated => count == 0,
        }
    }

    /// The smallest match count that can possibly satisfy this quantifier
    /// given the denominator `total = |Mₑ(v)|`.  Used to prune candidates
    /// whose upper bound `U(v, e)` cannot reach the threshold (the
    /// initialization step of `QMatch` and the local pruning rule of
    /// Appendix B), and as the per-candidate numeric threshold obtained by
    /// the ratio → numeric transformation of Section 4.1.
    pub fn min_required(&self, total: usize) -> usize {
        match *self {
            CountingQuantifier::Count { op, value } => match op {
                CmpOp::Eq | CmpOp::Ge => value as usize,
                CmpOp::Gt => value as usize + 1,
            },
            CountingQuantifier::Ratio { op, percent } => {
                let exact = percent * total as f64 / 100.0;
                match op {
                    CmpOp::Eq | CmpOp::Ge => (exact - 1e-9).ceil().max(0.0) as usize,
                    CmpOp::Gt => (exact + 1e-9).floor() as usize + 1,
                }
            }
            CountingQuantifier::Negated => 0,
        }
    }

    /// Whether a candidate with at most `upper_bound` potential matching
    /// children (out of `total`) can still satisfy the quantifier.
    pub fn feasible_with_upper_bound(&self, upper_bound: usize, total: usize) -> bool {
        match self {
            CountingQuantifier::Negated => true,
            _ => upper_bound >= self.min_required(total),
        }
    }
}

impl Default for CountingQuantifier {
    fn default() -> Self {
        CountingQuantifier::existential()
    }
}

impl fmt::Display for CountingQuantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountingQuantifier::Count { op, value } => write!(f, "σ {op} {value}"),
            CountingQuantifier::Ratio { op, percent } => write!(f, "σ {op} {percent}%"),
            CountingQuantifier::Negated => write!(f, "σ = 0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn existential_is_the_default_and_recognized() {
        let q = CountingQuantifier::default();
        assert!(q.is_existential());
        assert!(q.check(1, 5));
        assert!(q.check(3, 3));
        assert!(!q.check(0, 5));
    }

    #[test]
    fn universal_requires_every_child() {
        let q = CountingQuantifier::universal();
        assert!(matches!(
            q,
            CountingQuantifier::Ratio { op: CmpOp::Eq, percent } if percent == 100.0
        ));
        assert!(!q.is_monotone());
        assert!(q.check(4, 4));
        assert!(!q.check(3, 4));
        assert!(!q.check(0, 0));
    }

    #[test]
    fn numeric_aggregates() {
        let ge2 = CountingQuantifier::at_least(2);
        assert!(ge2.check(2, 10));
        assert!(ge2.check(5, 10));
        assert!(!ge2.check(1, 10));
        assert!(ge2.is_monotone());

        let eq2 = CountingQuantifier::exactly(2);
        assert!(eq2.check(2, 10));
        assert!(!eq2.check(3, 10));
        assert!(!eq2.is_monotone());

        let gt2 = CountingQuantifier::Count {
            op: CmpOp::Gt,
            value: 2,
        };
        assert!(!gt2.check(2, 10));
        assert!(gt2.check(3, 10));
    }

    #[test]
    fn ratio_aggregates_match_exact_arithmetic() {
        // "at least 80% of the people xo follows like album y" (Q1).
        let q = CountingQuantifier::at_least_percent(80.0);
        assert!(q.check(4, 5)); // exactly 80%
        assert!(q.check(5, 5));
        assert!(!q.check(3, 5));
        // 80% of 3 children requires ceil(2.4) = 3 matches.
        assert!(!q.check(2, 3));
        assert!(q.check(3, 3));
        assert!(q.is_monotone());
    }

    #[test]
    fn ratio_equality_other_than_100() {
        let q = CountingQuantifier::Ratio {
            op: CmpOp::Eq,
            percent: 50.0,
        };
        assert!(q.check(2, 4));
        assert!(!q.check(3, 4));
        assert!(!q.check(2, 5));
    }

    #[test]
    fn negation_requires_zero_matches() {
        let q = CountingQuantifier::negated();
        assert!(q.is_negated());
        assert!(q.check(0, 7));
        assert!(!q.check(1, 7));
    }

    #[test]
    fn min_required_implements_ratio_to_numeric_transformation() {
        let q = CountingQuantifier::at_least_percent(80.0);
        assert_eq!(q.min_required(5), 4);
        assert_eq!(q.min_required(3), 3); // ceil(2.4)
        assert_eq!(q.min_required(10), 8);
        assert_eq!(CountingQuantifier::universal().min_required(7), 7);
        assert_eq!(CountingQuantifier::at_least(3).min_required(100), 3);
        assert_eq!(
            CountingQuantifier::Count {
                op: CmpOp::Gt,
                value: 3
            }
            .min_required(100),
            4
        );
        assert_eq!(CountingQuantifier::negated().min_required(9), 0);
    }

    #[test]
    fn feasibility_under_upper_bound() {
        let q = CountingQuantifier::at_least(3);
        assert!(q.feasible_with_upper_bound(3, 10));
        assert!(!q.feasible_with_upper_bound(2, 10));
        // A negated edge is never infeasible (it constrains downward).
        assert!(CountingQuantifier::negated().feasible_with_upper_bound(0, 10));
    }

    #[test]
    fn min_required_is_consistent_with_check() {
        // For monotone quantifiers: count >= min_required(total) iff check.
        for total in 1usize..20 {
            for q in [
                CountingQuantifier::at_least(2),
                CountingQuantifier::at_least_percent(30.0),
                CountingQuantifier::at_least_percent(80.0),
                CountingQuantifier::at_least_percent(100.0),
            ] {
                let m = q.min_required(total);
                for count in 0..=total {
                    assert_eq!(
                        q.check(count, total),
                        count >= m,
                        "{q} total={total} count={count} min={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(CountingQuantifier::at_least(2).to_string(), "σ >= 2");
        assert_eq!(CountingQuantifier::negated().to_string(), "σ = 0");
        assert_eq!(
            CountingQuantifier::at_least_percent(80.0).to_string(),
            "σ >= 80%"
        );
    }
}
