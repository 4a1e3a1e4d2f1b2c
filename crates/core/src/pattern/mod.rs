//! The quantified graph pattern (QGP) language: patterns, counting
//! quantifiers, stratification, projection `Π(Q)` and positification
//! `Q^{+e}` (Section 2 of the paper).

mod builder;
pub mod library;
#[allow(clippy::module_inception)]
mod pattern;
mod quantifier;

pub use builder::PatternBuilder;
pub use pattern::{
    Pattern, PatternEdge, PatternEdgeId, PatternNode, PatternNodeId, ProjectedPattern,
    DEFAULT_QUANTIFIER_PATH_LIMIT,
};
pub use quantifier::{CmpOp, CountingQuantifier};
