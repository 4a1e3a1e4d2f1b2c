//! The compile-once pattern artifact behind prepared queries.
//!
//! Everything about a QGP that does not depend on the data graph is derived
//! here exactly once: the positive projection `Π(Q)`, the positified
//! patterns `Π(Q^{+e})` for every negated edge, each sub-pattern's
//! distances to its focus, and the pattern radius.
//! [`MatchSession`](super::MatchSession)s share one [`CompiledPattern`]
//! through an `Arc`, so the thousands of sessions a parallel or repeated
//! execution builds (one per worker per fragment) stop re-deriving the same
//! projections per session — the "compile once" half of the prepared-query
//! engine ([`crate::engine`]).

use crate::pattern::Pattern;

/// Graph-independent compilation of one QGP: the pattern itself plus every
/// derived pattern the matching pipeline needs.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPattern {
    /// The original pattern, as handed to [`CompiledPattern::compile`].
    pub(crate) pattern: Pattern,
    /// The positive projection `Π(Q)` (negated edges removed).
    pub(crate) pi: Pattern,
    /// `Π(Q^{+e})` for each negated edge `e ∈ E⁻_Q`, in
    /// [`Pattern::negated_edges`] order — the patterns whose matches the
    /// set-difference semantics of negation subtracts.
    pub(crate) positified: Vec<Pattern>,
    /// Undirected hop distance from each node of `Π(Q)` to its focus, along
    /// `Π(Q)`'s own edges.  Not `Q`'s distances: a negated edge can be a
    /// shortcut that `Π(Q)` does not have.
    pub(crate) pi_distances: Vec<usize>,
    /// The same table for each positified pattern (same order as
    /// [`CompiledPattern::positified`]).
    pub(crate) positified_distances: Vec<Vec<usize>>,
    /// The pattern radius (longest shortest path from the focus), the
    /// quantity a d-hop partition must dominate.
    pub(crate) radius: usize,
}

impl CompiledPattern {
    /// Derives every graph-independent artifact of `pattern`.
    ///
    /// The pattern is *not* validated here; entry points that accept
    /// unvalidated patterns decide for themselves whether to call
    /// [`Pattern::validate`] first.
    pub(crate) fn compile(pattern: &Pattern) -> Self {
        let pi = pattern.pi().pattern;
        let positified: Vec<Pattern> = pattern
            .negated_edges()
            .into_iter()
            .map(|e| pattern.pi_positified(e).pattern)
            .collect();
        CompiledPattern {
            pattern: pattern.clone(),
            pi_distances: pi.focus_distances(),
            positified_distances: positified.iter().map(Pattern::focus_distances).collect(),
            pi,
            positified,
            radius: pattern.radius(),
        }
    }

    /// `Π(Q)` and every `Π(Q^{+e})`, each with its focus-distance table:
    /// the positive patterns whose isomorphisms decide `Q(x_o, G)`.
    pub(crate) fn sub_patterns(&self) -> impl Iterator<Item = (&Pattern, &[usize])> {
        std::iter::once((&self.pi, &self.pi_distances[..])).chain(
            self.positified
                .iter()
                .zip(&self.positified_distances)
                .map(|(p, d)| (p, &d[..])),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::library;

    #[test]
    fn compile_derives_projection_positified_and_radius() {
        let q3 = library::q3_redmi_negation(2);
        let c = CompiledPattern::compile(&q3);
        assert!(c.pi.is_positive());
        assert_eq!(c.positified.len(), q3.negated_edges().len());
        assert_eq!(c.radius, q3.radius());
        for p in &c.positified {
            assert!(p.is_positive());
        }
    }

    #[test]
    fn distances_follow_each_sub_patterns_own_edges() {
        use crate::pattern::PatternBuilder;
        // `xo -s(=0)-> w` is a shortcut: Q reaches `w` in one hop, Π(Q) only
        // through `y`, and Π(Q^{+e}) through the positified edge again.
        let mut b = PatternBuilder::new();
        let xo = b.node("A");
        let y = b.node("B");
        let w = b.node("C");
        b.edge(xo, y, "r");
        b.edge(y, w, "s");
        b.negated_edge(xo, w, "s");
        b.focus(xo);
        let c = CompiledPattern::compile(&b.build().unwrap());
        assert_eq!(c.pattern.focus_distances(), vec![0, 1, 1]);
        assert_eq!(c.pi_distances, vec![0, 1, 2]);
        assert_eq!(c.positified_distances, vec![vec![0, 1, 1]]);
        let tables: Vec<&[usize]> = c.sub_patterns().map(|(_, d)| d).collect();
        assert_eq!(tables, [&[0, 1, 2][..], &[0, 1, 1][..]]);
    }

    #[test]
    fn positive_patterns_compile_with_no_positified_set() {
        let q2 = library::q2_redmi_universal();
        let c = CompiledPattern::compile(&q2);
        assert!(c.positified.is_empty());
    }
}
