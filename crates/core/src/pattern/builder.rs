//! Fluent construction of quantified graph patterns.

use super::pattern::{Pattern, PatternEdge, PatternNode, PatternNodeId};
use super::quantifier::CountingQuantifier;
use crate::error::PatternError;

/// Builder for [`Pattern`]s.
///
/// The QGP `Q1` of Example 1 of the paper ("xo is in a music club and at
/// least 80% of the people xo follows like album y") is built as:
///
/// ```
/// use qgp_core::pattern::{PatternBuilder, CountingQuantifier};
///
/// let mut b = PatternBuilder::new();
/// let xo = b.node_named("person", "xo");
/// let club = b.node("music club");
/// let z = b.node_named("person", "z");
/// let y = b.node_named("album", "y");
/// b.edge(xo, club, "in");
/// b.quantified_edge(xo, z, "follow", CountingQuantifier::at_least_percent(80.0));
/// b.edge(z, y, "like");
/// b.focus(xo);
/// let q1 = b.build().unwrap();
/// assert_eq!(q1.node_count(), 4);
/// assert!(q1.is_positive());
/// ```
#[derive(Debug, Default)]
pub struct PatternBuilder {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
    focus: Option<PatternNodeId>,
}

impl PatternBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern node with the given node label.
    pub fn node(&mut self, label: &str) -> PatternNodeId {
        self.push_node(label, None)
    }

    /// Adds a pattern node with a label and a variable name (for display).
    pub fn node_named(&mut self, label: &str, name: &str) -> PatternNodeId {
        self.push_node(label, Some(name.to_owned()))
    }

    fn push_node(&mut self, label: &str, name: Option<String>) -> PatternNodeId {
        let id = PatternNodeId(self.nodes.len() as u16);
        self.nodes.push(PatternNode {
            label: label.to_owned(),
            name,
        });
        id
    }

    /// Adds an edge with the existential quantifier `σ(e) ≥ 1`.
    pub fn edge(&mut self, from: PatternNodeId, to: PatternNodeId, label: &str) -> &mut Self {
        self.quantified_edge(from, to, label, CountingQuantifier::existential())
    }

    /// Adds an edge with an explicit counting quantifier.
    pub fn quantified_edge(
        &mut self,
        from: PatternNodeId,
        to: PatternNodeId,
        label: &str,
        quantifier: CountingQuantifier,
    ) -> &mut Self {
        self.edges.push(PatternEdge {
            from,
            to,
            label: label.to_owned(),
            quantifier,
        });
        self
    }

    /// Adds a negated edge (`σ(e) = 0`).
    pub fn negated_edge(
        &mut self,
        from: PatternNodeId,
        to: PatternNodeId,
        label: &str,
    ) -> &mut Self {
        self.quantified_edge(from, to, label, CountingQuantifier::negated())
    }

    /// Adds an edge with the universal quantifier (`σ(e) = 100%`).
    pub fn universal_edge(
        &mut self,
        from: PatternNodeId,
        to: PatternNodeId,
        label: &str,
    ) -> &mut Self {
        self.quantified_edge(from, to, label, CountingQuantifier::universal())
    }

    /// Designates the query focus `x_o`.
    pub fn focus(&mut self, node: PatternNodeId) -> &mut Self {
        self.focus = Some(node);
        self
    }

    /// Builds and validates the pattern.
    pub fn build(self) -> Result<Pattern, PatternError> {
        let focus = self.focus.ok_or(PatternError::MissingFocus)?;
        let pattern = Pattern::from_parts(self.nodes, self.edges, focus);
        pattern.validate()?;
        Ok(pattern)
    }

    /// Builds the pattern without validation (useful in tests that exercise
    /// pathological patterns, and when a non-default path limit is wanted).
    pub fn build_unchecked(self) -> Pattern {
        let focus = self.focus.unwrap_or(PatternNodeId(0));
        Pattern::from_parts(self.nodes, self.edges, focus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_focus_is_an_error() {
        let mut b = PatternBuilder::new();
        let a = b.node("a");
        let c = b.node("b");
        b.edge(a, c, "l");
        assert_eq!(b.build(), Err(PatternError::MissingFocus));
    }

    #[test]
    fn builder_produces_validated_patterns() {
        let mut b = PatternBuilder::new();
        let xo = b.node_named("person", "xo");
        let z = b.node("person");
        let phone = b.node("Redmi 2A");
        b.universal_edge(xo, z, "follow");
        b.edge(z, phone, "recom");
        b.focus(xo);
        let q2 = b.build().unwrap();
        assert!(q2.is_positive());
        assert!(!q2.edges().all(|(_, e)| e.quantifier.is_existential()));
        assert_eq!(q2.focus(), xo);
        assert_eq!(q2.node(z).label, "person");
        assert_eq!(
            q2.edge(q2.out_edges_of(xo)[0]).quantifier,
            CountingQuantifier::universal()
        );
    }

    #[test]
    fn named_nodes_keep_their_names() {
        let mut b = PatternBuilder::new();
        let xo = b.node_named("person", "xo");
        let y = b.node("album");
        b.edge(xo, y, "like");
        b.focus(xo);
        let q = b.build().unwrap();
        assert_eq!(q.node(xo).name.as_deref(), Some("xo"));
        assert_eq!(q.node(y).name, None);
    }
}
