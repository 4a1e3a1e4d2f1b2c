//! Errors raised by the QGAR layer.

use std::fmt;

/// Errors raised while constructing or evaluating quantified graph
/// association rules.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// One of the rule's patterns failed QGP validation.
    InvalidPattern(String),
    /// A rule pattern has no edges (rules must be non-trivial, Section 6).
    EmptyPattern,
    /// Antecedent and consequent designate focuses with different labels.
    FocusLabelMismatch {
        /// Focus label of the antecedent.
        antecedent: String,
        /// Focus label of the consequent.
        consequent: String,
    },
    /// Antecedent and consequent share a focus-incident edge.
    OverlappingEdge(String),
    /// The confidence threshold must lie in (0, 1].
    InvalidConfidenceThreshold(f64),
    /// Error propagated from the parallel matching layer.
    Parallel(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::InvalidPattern(e) => write!(f, "invalid rule pattern: {e}"),
            RuleError::EmptyPattern => write!(f, "rule patterns must contain at least one edge"),
            RuleError::FocusLabelMismatch {
                antecedent,
                consequent,
            } => write!(
                f,
                "antecedent focus label `{antecedent}` differs from consequent focus label `{consequent}`"
            ),
            RuleError::OverlappingEdge(sig) => {
                write!(f, "antecedent and consequent share the edge {sig}")
            }
            RuleError::InvalidConfidenceThreshold(eta) => {
                write!(f, "confidence threshold {eta} must lie in (0, 1]")
            }
            RuleError::Parallel(e) => write!(f, "parallel evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RuleError {}

#[cfg(test)]
mod tests {
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
        assert!(RuleError::OverlappingEdge("x -> y".into())
            .to_string()
            .contains("x -> y"));
        assert!(RuleError::Parallel("boom".into())
            .to_string()
            .contains("boom"));
        assert!(RuleError::InvalidPattern("bad".into())
            .to_string()
            .contains("bad"));
    }
}
