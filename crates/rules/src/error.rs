//! Errors raised by the QGAR layer.

use std::fmt;

use qgp_core::pattern::PatternEdgeId;
use qgp_core::{MatchError, PatternError};

/// Errors raised while constructing or evaluating quantified graph
/// association rules.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// The antecedent failed QGP validation.
    InvalidAntecedent(PatternError),
    /// The consequent failed QGP validation.
    InvalidConsequent(PatternError),
    /// A rule pattern has no edges (rules must be non-trivial, Section 6).
    EmptyPattern,
    /// Antecedent and consequent designate focuses with different labels.
    FocusLabelMismatch {
        /// Focus label of the antecedent.
        antecedent: String,
        /// Focus label of the consequent.
        consequent: String,
    },
    /// Antecedent and consequent share a focus-incident edge: same
    /// direction, edge label, endpoint label and negation.
    OverlappingEdge {
        /// The shared edge in the antecedent.
        antecedent: PatternEdgeId,
        /// The shared edge in the consequent.
        consequent: PatternEdgeId,
    },
    /// The confidence threshold must lie in (0, 1].
    InvalidConfidenceThreshold(f64),
    /// Matching one of the rule's patterns failed: a partition that does
    /// not fit the rule, or a panicking task.
    Match(MatchError),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::InvalidAntecedent(e) => write!(f, "invalid rule antecedent: {e}"),
            RuleError::InvalidConsequent(e) => write!(f, "invalid rule consequent: {e}"),
            RuleError::EmptyPattern => write!(f, "rule patterns must contain at least one edge"),
            RuleError::FocusLabelMismatch {
                antecedent,
                consequent,
            } => write!(
                f,
                "antecedent focus label `{antecedent}` differs from consequent focus label `{consequent}`"
            ),
            RuleError::OverlappingEdge {
                antecedent,
                consequent,
            } => write!(
                f,
                "antecedent edge {} and consequent edge {} are the same focus-incident edge",
                antecedent.0, consequent.0
            ),
            RuleError::InvalidConfidenceThreshold(eta) => {
                write!(f, "confidence threshold {eta} must lie in (0, 1]")
            }
            RuleError::Match(e) => write!(f, "rule evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RuleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuleError::InvalidAntecedent(e) | RuleError::InvalidConsequent(e) => Some(e),
            RuleError::Match(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatchError> for RuleError {
    fn from(e: MatchError) -> Self {
        RuleError::Match(e)
    }
}

#[cfg(test)]
mod tests {
    use std::error::Error;

    use super::*;

    #[test]
    fn messages_mention_the_relevant_detail() {
        assert!(RuleError::EmptyPattern.to_string().contains("at least one"));
        assert!(RuleError::InvalidConfidenceThreshold(1.5)
            .to_string()
            .contains("1.5"));
        assert!(RuleError::FocusLabelMismatch {
            antecedent: "person".into(),
            consequent: "robot".into()
        }
        .to_string()
        .contains("robot"));
        let overlap = RuleError::OverlappingEdge {
            antecedent: PatternEdgeId(3),
            consequent: PatternEdgeId(1),
        };
        assert!(overlap.to_string().contains("edge 3"));
        assert!(overlap.to_string().contains("edge 1"));
        let partition = RuleError::Match(MatchError::EmptyPartition);
        assert!(partition.to_string().contains("at least one fragment"));
        assert_eq!(
            partition.source().map(ToString::to_string),
            Some(MatchError::EmptyPartition.to_string())
        );
        for (invalid, side) in [
            (
                RuleError::InvalidAntecedent(PatternError::Disconnected),
                "antecedent",
            ),
            (
                RuleError::InvalidConsequent(PatternError::Disconnected),
                "consequent",
            ),
        ] {
            assert!(invalid.to_string().contains("not connected"));
            assert!(invalid.to_string().contains(side));
            assert_eq!(
                invalid.source().map(ToString::to_string),
                Some(PatternError::Disconnected.to_string())
            );
        }
    }
}
