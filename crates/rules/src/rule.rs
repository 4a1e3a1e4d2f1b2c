//! Quantified graph association rules (QGARs), Section 6 of the paper.
//!
//! A QGAR `R(x_o): Q1(x_o) ⇒ Q2(x_o)` pairs two QGPs over the same query
//! focus: the *antecedent* `Q1` (the precondition observed about `x_o`) and
//! the *consequent* `Q2` (the event predicted for `x_o`).  In a graph `G`,
//! `R(x_o, G) = Q1(x_o, G) ∩ Q2(x_o, G)`.

use std::fmt;

use qgp_core::pattern::{Pattern, PatternEdgeId};

use crate::error::RuleError;

/// A quantified graph association rule `Q1(x_o) ⇒ Q2(x_o)`.
#[derive(Debug, Clone)]
pub struct Qgar {
    name: String,
    antecedent: Pattern,
    consequent: Pattern,
}

impl Qgar {
    /// Creates a rule after checking the practicality conditions of
    /// Section 6: both patterns validate, are non-empty (at least one edge
    /// each), and share the same focus label; and they do not overlap on an
    /// identical focus-incident edge (same direction, edge label and
    /// endpoint label), which is this representation's reading of "Q1 and Q2
    /// do not share a common edge".
    pub fn new(
        name: impl Into<String>,
        antecedent: Pattern,
        consequent: Pattern,
    ) -> Result<Self, RuleError> {
        antecedent
            .validate()
            .map_err(RuleError::InvalidAntecedent)?;
        consequent
            .validate()
            .map_err(RuleError::InvalidConsequent)?;
        if antecedent.edge_count() == 0 || consequent.edge_count() == 0 {
            return Err(RuleError::EmptyPattern);
        }
        let focus_a = &antecedent.node(antecedent.focus()).label;
        let focus_c = &consequent.node(consequent.focus()).label;
        if focus_a != focus_c {
            return Err(RuleError::FocusLabelMismatch {
                antecedent: focus_a.clone(),
                consequent: focus_c.clone(),
            });
        }
        if let Some((antecedent, consequent)) = shared_focus_edge(&antecedent, &consequent) {
            return Err(RuleError::OverlappingEdge {
                antecedent,
                consequent,
            });
        }
        Ok(Qgar {
            name: name.into(),
            antecedent,
            consequent,
        })
    }

    /// Human-readable rule name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The antecedent `Q1(x_o)`.
    pub fn antecedent(&self) -> &Pattern {
        &self.antecedent
    }

    /// The consequent `Q2(x_o)`.
    pub fn consequent(&self) -> &Pattern {
        &self.consequent
    }

    /// The largest radius of the two patterns; a d-hop preserving partition
    /// with `d` at least this value supports parallel evaluation of the rule.
    pub fn radius(&self) -> usize {
        self.antecedent.radius().max(self.consequent.radius())
    }
}

impl fmt::Display for Qgar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QGAR {}:", self.name)?;
        writeln!(f, "antecedent {}", self.antecedent)?;
        write!(f, "=> consequent {}", self.consequent)
    }
}

/// Signature of a focus-incident pattern edge: (outgoing?, edge label, other
/// endpoint's node label, negated?).  The negation flag is part of the
/// signature because an antecedent edge and a *negated* consequent edge over
/// the same relationship express different (complementary) constraints and
/// are not "the same edge" in the sense of Section 6.
type Signature<'p> = (bool, &'p str, &'p str, bool);

/// Every focus-incident edge of `p` with its signature.
fn focus_edge_signatures(p: &Pattern) -> Vec<(PatternEdgeId, Signature<'_>)> {
    let focus = p.focus();
    let outgoing = p.out_edges_of(focus).iter().map(|&e| (e, true));
    let incoming = p.in_edges_of(focus).iter().map(|&e| (e, false));
    (outgoing.chain(incoming))
        .map(|(eid, out)| {
            let e = p.edge(eid);
            let other = if out { e.to } else { e.from };
            let negated = e.quantifier.is_negated();
            (eid, (out, &e.label[..], &p.node(other).label[..], negated))
        })
        .collect()
}

/// The first antecedent edge whose signature a consequent edge repeats,
/// with that consequent edge.
fn shared_focus_edge(a: &Pattern, b: &Pattern) -> Option<(PatternEdgeId, PatternEdgeId)> {
    let sigs_b = focus_edge_signatures(b);
    focus_edge_signatures(a).into_iter().find_map(|(ea, sa)| {
        let shared = sigs_b.iter().find(|(_, sb)| *sb == sa);
        shared.map(|&(eb, _)| (ea, eb))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgp_core::pattern::{CountingQuantifier, PatternBuilder};
    use qgp_core::PatternError;

    fn antecedent_like_r1() -> Pattern {
        // xo in a music club, ≥80% of followees like album y.
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let club = b.node("music club");
        let z = b.node("person");
        let y = b.node("album");
        b.edge(xo, club, "in");
        b.quantified_edge(xo, z, "follow", CountingQuantifier::at_least_percent(80.0));
        b.edge(z, y, "like");
        b.focus(xo);
        b.build().unwrap()
    }

    fn buy_consequent() -> Pattern {
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let y = b.node("album");
        b.edge(xo, y, "buy");
        b.focus(xo);
        b.build().unwrap()
    }

    #[test]
    fn valid_rule_is_accepted() {
        let r = Qgar::new("R1", antecedent_like_r1(), buy_consequent()).unwrap();
        assert_eq!(r.name(), "R1");
        assert_eq!(r.antecedent().edge_count(), 3);
        assert_eq!(r.consequent().edge_count(), 1);
        assert_eq!(r.radius(), 2);
        assert!(r.consequent().is_positive());
        assert!(r.to_string().contains("R1"));
    }

    #[test]
    fn negative_consequent_is_classified() {
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let y = b.node("person");
        b.negated_edge(xo, y, "follow");
        b.focus(xo);
        let consequent = b.build().unwrap();
        let r = Qgar::new("R2", antecedent_like_r1(), consequent).unwrap();
        assert!(!r.consequent().is_positive());
    }

    #[test]
    fn focus_label_mismatch_is_rejected() {
        let mut b = PatternBuilder::new();
        let xo = b.node("robot");
        let y = b.node("album");
        b.edge(xo, y, "buy");
        b.focus(xo);
        let consequent = b.build().unwrap();
        assert!(matches!(
            Qgar::new("bad", antecedent_like_r1(), consequent),
            Err(RuleError::FocusLabelMismatch { .. })
        ));
    }

    #[test]
    fn empty_consequent_is_rejected() {
        // A single-node consequent has no edge.
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        b.focus(xo);
        let consequent = b.build_unchecked();
        assert!(matches!(
            Qgar::new("bad", antecedent_like_r1(), consequent),
            Err(RuleError::InvalidConsequent(_)) | Err(RuleError::EmptyPattern)
        ));
    }

    #[test]
    fn a_validation_error_names_the_side_that_failed() {
        // Two nodes and no edge: not connected.
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        b.node("album");
        b.focus(xo);
        let disconnected = b.build_unchecked();
        assert_eq!(
            Qgar::new("bad", antecedent_like_r1(), disconnected.clone()).unwrap_err(),
            RuleError::InvalidConsequent(PatternError::Disconnected)
        );
        assert_eq!(
            Qgar::new("bad", disconnected, buy_consequent()).unwrap_err(),
            RuleError::InvalidAntecedent(PatternError::Disconnected)
        );
    }

    #[test]
    fn overlapping_focus_edges_are_rejected() {
        // Consequent repeats the antecedent's `in music club` edge.
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let club = b.node("music club");
        b.edge(xo, club, "in");
        b.focus(xo);
        let consequent = b.build().unwrap();
        // The antecedent's edge 0 is `xo -in-> club`; so is the consequent's.
        assert_eq!(
            Qgar::new("bad", antecedent_like_r1(), consequent).unwrap_err(),
            RuleError::OverlappingEdge {
                antecedent: PatternEdgeId(0),
                consequent: PatternEdgeId(0),
            }
        );
    }
}
