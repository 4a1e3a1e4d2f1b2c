//! Error types for pattern construction and matching.

use std::fmt;

use qgp_runtime::TaskError;

use crate::pattern::{PatternEdgeId, PatternNodeId};

/// Errors raised when a quantified graph pattern is malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternError {
    /// The pattern has no nodes.
    EmptyPattern,
    /// The focus node id does not exist.
    FocusOutOfBounds(PatternNodeId),
    /// An edge references a node id that does not exist.
    EdgeOutOfBounds(PatternEdgeId),
    /// The pattern is not weakly connected.
    Disconnected,
    /// A ratio aggregate lies outside `(0, 100]`.
    InvalidRatio(f64),
    /// A numeric aggregate has threshold 0 (use a negated edge instead).
    ZeroCountThreshold(PatternEdgeId),
    /// More than `limit` non-existential quantifiers appear on a simple path
    /// (the `l`-restriction of Section 2.2).
    TooManyQuantifiersOnPath {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// Two negated edges appear on the same simple path ("double negation").
    DoubleNegationOnPath,
    /// No focus node was designated before building.
    MissingFocus,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::EmptyPattern => write!(f, "pattern has no nodes"),
            PatternError::FocusOutOfBounds(n) => {
                write!(f, "focus node {} does not exist", n.0)
            }
            PatternError::EdgeOutOfBounds(e) => {
                write!(f, "edge {} references a missing node", e.0)
            }
            PatternError::Disconnected => write!(f, "pattern is not connected"),
            PatternError::InvalidRatio(p) => {
                write!(f, "ratio aggregate {p}% is outside (0, 100]")
            }
            PatternError::ZeroCountThreshold(e) => write!(
                f,
                "edge {} has numeric threshold 0; use a negated edge for σ(e) = 0",
                e.0
            ),
            PatternError::TooManyQuantifiersOnPath { limit } => write!(
                f,
                "more than {limit} non-existential quantifiers on a simple path"
            ),
            PatternError::DoubleNegationOnPath => {
                write!(f, "two negated edges on the same simple path")
            }
            PatternError::MissingFocus => write!(f, "no focus node designated"),
        }
    }
}

impl std::error::Error for PatternError {}

/// Errors raised by the matching algorithms and the prepared-query engine.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchError {
    /// The pattern failed validation.
    InvalidPattern(PatternError),
    /// A partitioned execution was requested over a d-hop partition whose
    /// `d` is smaller than the pattern radius, so fragment-local evaluation
    /// could miss matches.
    RadiusExceedsPartition {
        /// The pattern radius.
        radius: usize,
        /// The `d` the partition preserves.
        partition_d: usize,
    },
    /// A partitioned execution was requested over an empty fragment list.
    EmptyPartition,
    /// A worker task panicked; the panic was isolated by the runtime and
    /// the execution was aborted.  The runtime and the prepared query both
    /// remain usable.
    TaskPanicked(TaskError),
    /// A registry serve request named a [`QueryId`] that is not (or no
    /// longer) registered.
    ///
    /// [`QueryId`]: crate::engine::QueryId
    UnknownQuery {
        /// The raw id of the unknown query.
        id: u64,
    },
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::InvalidPattern(e) => write!(f, "invalid pattern: {e}"),
            MatchError::RadiusExceedsPartition {
                radius,
                partition_d,
            } => write!(
                f,
                "pattern radius {radius} exceeds the d-hop partition (d = {partition_d}); \
                 re-partition with a larger d"
            ),
            MatchError::EmptyPartition => {
                write!(f, "partitioned execution requires at least one fragment")
            }
            MatchError::TaskPanicked(e) => write!(f, "execution aborted: {e}"),
            MatchError::UnknownQuery { id } => {
                write!(f, "query #{id} is not registered")
            }
        }
    }
}

impl std::error::Error for MatchError {}

impl From<PatternError> for MatchError {
    fn from(e: PatternError) -> Self {
        MatchError::InvalidPattern(e)
    }
}

impl From<TaskError> for MatchError {
    fn from(e: TaskError) -> Self {
        MatchError::TaskPanicked(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_have_readable_messages() {
        let cases: Vec<(PatternError, &str)> = vec![
            (PatternError::EmptyPattern, "no nodes"),
            (PatternError::Disconnected, "not connected"),
            (PatternError::InvalidRatio(120.0), "120"),
            (PatternError::DoubleNegationOnPath, "negated"),
            (PatternError::MissingFocus, "focus"),
            (
                PatternError::TooManyQuantifiersOnPath { limit: 2 },
                "2 non-existential",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should contain {needle}"
            );
        }
        let m: MatchError = PatternError::EmptyPattern.into();
        assert!(m.to_string().contains("invalid pattern"));
    }
}
