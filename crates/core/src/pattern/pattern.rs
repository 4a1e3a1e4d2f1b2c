//! Quantified graph patterns (QGPs).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use super::quantifier::CountingQuantifier;
use crate::error::PatternError;

/// Identifier of a pattern node.  Patterns are small (real-life patterns have
/// fewer than a dozen nodes — Section 7), so a `u16` index is ample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternNodeId(pub u16);

impl PatternNodeId {
    /// Raw index of this pattern node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a pattern edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternEdgeId(pub u16);

impl PatternEdgeId {
    /// Raw index of this pattern edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pattern node: a variable with a node label constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// Node label the matched graph node must carry.
    pub label: String,
    /// Optional human-readable variable name (e.g. `"xo"`, `"z1"`), used only
    /// for display and debugging.
    pub name: Option<String>,
}

/// A pattern edge with its counting quantifier.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEdge {
    /// Source pattern node.
    pub from: PatternNodeId,
    /// Target pattern node.
    pub to: PatternNodeId,
    /// Edge label the matched graph edge must carry.
    pub label: String,
    /// Counting quantifier `f(e)`.
    pub quantifier: CountingQuantifier,
}

/// A quantified graph pattern `Q(x_o) = (V_Q, E_Q, L_Q, f)` (Section 2.2).
///
/// A conventional graph pattern is the special case where every edge carries
/// the existential quantifier `σ(e) ≥ 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
    focus: PatternNodeId,
    out_edges: Vec<Vec<PatternEdgeId>>,
    in_edges: Vec<Vec<PatternEdgeId>>,
}

/// Default bound `l` on the number of non-existential quantifiers along any
/// simple path of a QGP (see the Remark in Section 2.2: empirically `l ≤ 2`,
/// and the restriction keeps evaluation feasible).  [`Pattern::validate`]
/// enforces this bound; [`Pattern::validate_with_limit`] lets callers pick a
/// different one.
pub const DEFAULT_QUANTIFIER_PATH_LIMIT: usize = 2;

impl Pattern {
    /// Creates a pattern from parts.  Prefer [`crate::pattern::PatternBuilder`]
    /// for ergonomic construction; this constructor does not validate.
    pub fn from_parts(
        nodes: Vec<PatternNode>,
        edges: Vec<PatternEdge>,
        focus: PatternNodeId,
    ) -> Self {
        let mut p = Pattern {
            nodes,
            edges,
            focus,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        };
        p.rebuild_adjacency();
        p
    }

    /// Rebuilds the cached adjacency lists from the edge list.
    pub fn rebuild_adjacency(&mut self) {
        self.out_edges = vec![Vec::new(); self.nodes.len()];
        self.in_edges = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            let id = PatternEdgeId(i as u16);
            self.out_edges[e.from.index()].push(id);
            self.in_edges[e.to.index()].push(id);
        }
    }

    /// Number of pattern nodes `|V_Q|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges `|E_Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The query focus `x_o`.
    pub fn focus(&self) -> PatternNodeId {
        self.focus
    }

    /// Access a pattern node.
    pub fn node(&self, id: PatternNodeId) -> &PatternNode {
        &self.nodes[id.index()]
    }

    /// Access a pattern edge.
    pub fn edge(&self, id: PatternEdgeId) -> &PatternEdge {
        &self.edges[id.index()]
    }

    /// Iterates over pattern node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = PatternNodeId> {
        (0..self.nodes.len()).map(|i| PatternNodeId(i as u16))
    }

    /// Iterates over pattern edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = PatternEdgeId> {
        (0..self.edges.len()).map(|i| PatternEdgeId(i as u16))
    }

    /// Iterates over `(id, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (PatternEdgeId, &PatternEdge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (PatternEdgeId(i as u16), e))
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (PatternNodeId, &PatternNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (PatternNodeId(i as u16), n))
    }

    /// Out-edges of a pattern node.
    pub fn out_edges_of(&self, u: PatternNodeId) -> &[PatternEdgeId] {
        &self.out_edges[u.index()]
    }

    /// In-edges of a pattern node.
    pub fn in_edges_of(&self, u: PatternNodeId) -> &[PatternEdgeId] {
        &self.in_edges[u.index()]
    }

    /// The set `E⁻_Q` of negated edges.
    pub fn negated_edges(&self) -> Vec<PatternEdgeId> {
        self.edges()
            .filter(|(_, e)| e.quantifier.is_negated())
            .map(|(id, _)| id)
            .collect()
    }

    /// Is this a *positive* QGP (no negated edges)?
    pub fn is_positive(&self) -> bool {
        self.edges.iter().all(|e| !e.quantifier.is_negated())
    }

    /// Is this a conventional pattern (every quantifier existential)?
    pub fn is_conventional(&self) -> bool {
        self.edges.iter().all(|e| e.quantifier.is_existential())
    }

    /// The stratified pattern `Q_π(x_o)`: the conventional pattern obtained by
    /// stripping all quantifiers off (every edge becomes `σ(e) ≥ 1`).
    pub fn stratified(&self) -> Pattern {
        let edges = self
            .edges
            .iter()
            .map(|e| PatternEdge {
                quantifier: CountingQuantifier::existential(),
                ..e.clone()
            })
            .collect();
        Pattern::from_parts(self.nodes.clone(), edges, self.focus)
    }

    /// `Q^{+e}`: the pattern obtained by *positifying* a negated edge, i.e.
    /// replacing `σ(e) = 0` with `σ(e) ≥ 1`.
    pub fn positify(&self, edge: PatternEdgeId) -> Pattern {
        let mut edges = self.edges.clone();
        edges[edge.index()].quantifier = CountingQuantifier::existential();
        Pattern::from_parts(self.nodes.clone(), edges, self.focus)
    }

    /// `Π(Q)`: the sub-pattern induced by the nodes that remain connected to
    /// the focus through non-negated edges, with every negated edge removed.
    ///
    /// Following the paper (Fig. 3: `Π(Q3)` drops `z2` and its `bad_rating`
    /// edge even though `z2` is undirectedly connected to the Redmi node),
    /// connectivity is taken along *directed* paths "from or to" the focus:
    /// a node is kept iff a directed path of non-negated edges leads from the
    /// focus to it, or from it to the focus.  A positive pattern is returned
    /// unchanged (`Π(Q) = Q` when `E⁻_Q = ∅`).
    ///
    /// Returns the projected pattern together with, for each node of the new
    /// pattern, the id it had in `self` (so cached per-node matches can be
    /// carried between the two).
    pub fn pi(&self) -> ProjectedPattern {
        if self.is_positive() {
            return ProjectedPattern {
                pattern: self.clone(),
                original_node: self.node_ids().collect(),
            };
        }
        // Forward reachability: focus → node via non-negated edges.
        let mut keep = HashSet::new();
        let mut queue = VecDeque::new();
        keep.insert(self.focus);
        queue.push_back(self.focus);
        while let Some(u) = queue.pop_front() {
            for &eid in self.out_edges_of(u) {
                let e = self.edge(eid);
                if e.quantifier.is_negated() {
                    continue;
                }
                if keep.insert(e.to) {
                    queue.push_back(e.to);
                }
            }
        }
        // Backward reachability: node → focus via non-negated edges.
        let mut backward = HashSet::new();
        backward.insert(self.focus);
        queue.push_back(self.focus);
        while let Some(u) = queue.pop_front() {
            for &eid in self.in_edges_of(u) {
                let e = self.edge(eid);
                if e.quantifier.is_negated() {
                    continue;
                }
                if backward.insert(e.from) {
                    queue.push_back(e.from);
                }
            }
        }
        keep.extend(backward);

        let mut kept_nodes: Vec<PatternNodeId> = keep.into_iter().collect();
        kept_nodes.sort();
        let new_id_of_old: HashMap<PatternNodeId, PatternNodeId> = kept_nodes
            .iter()
            .enumerate()
            .map(|(i, &old)| (old, PatternNodeId(i as u16)))
            .collect();

        let nodes = kept_nodes
            .iter()
            .map(|&old| self.nodes[old.index()].clone())
            .collect();
        let edges = self
            .edges
            .iter()
            .filter(|e| {
                !e.quantifier.is_negated()
                    && new_id_of_old.contains_key(&e.from)
                    && new_id_of_old.contains_key(&e.to)
            })
            .map(|e| PatternEdge {
                from: new_id_of_old[&e.from],
                to: new_id_of_old[&e.to],
                label: e.label.clone(),
                quantifier: e.quantifier,
            })
            .collect();

        ProjectedPattern {
            pattern: Pattern::from_parts(nodes, edges, new_id_of_old[&self.focus]),
            original_node: kept_nodes,
        }
    }

    /// `Π(Q^{+e})` for a negated edge `e`: positify `e`, then project.
    pub fn pi_positified(&self, edge: PatternEdgeId) -> ProjectedPattern {
        self.positify(edge).pi()
    }

    /// The radius of the pattern: the longest shortest (undirected) distance
    /// between the focus and any pattern node.  Determines the `d` needed by
    /// the d-hop preserving partition (Section 5).
    pub fn radius(&self) -> usize {
        self.focus_distances()
            .into_iter()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }

    /// The undirected hop distance from each pattern node to the focus,
    /// indexed by node id (`usize::MAX` for a node the focus cannot reach).
    pub(crate) fn focus_distances(&self) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes.len()];
        let mut queue = VecDeque::new();
        dist[self.focus.index()] = 0;
        queue.push_back(self.focus);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &eid in self.out_edges_of(u).iter().chain(self.in_edges_of(u)) {
                let e = self.edge(eid);
                let other = if e.from == u { e.to } else { e.from };
                if dist[other.index()] == usize::MAX {
                    dist[other.index()] = du + 1;
                    queue.push_back(other);
                }
            }
        }
        dist
    }

    /// Is the pattern weakly connected (ignoring edge direction)?
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(PatternNodeId(0));
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &eid in self.out_edges_of(u).iter().chain(self.in_edges_of(u)) {
                let e = self.edge(eid);
                let other = if e.from == u { e.to } else { e.from };
                if !seen[other.index()] {
                    seen[other.index()] = true;
                    count += 1;
                    queue.push_back(other);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Validates the pattern with the default quantifier-per-path limit `l`
    /// ([`DEFAULT_QUANTIFIER_PATH_LIMIT`]).
    pub fn validate(&self) -> Result<(), PatternError> {
        self.validate_with_limit(DEFAULT_QUANTIFIER_PATH_LIMIT)
    }

    /// Validates the pattern (Section 2.2):
    ///
    /// * non-empty and weakly connected, focus in range,
    /// * ratio percentages lie in `(0, 100]`, numeric thresholds are ≥ 1,
    /// * on every simple (undirected) path there are at most `limit`
    ///   non-existential quantifiers,
    /// * on every simple path there is at most one negated edge (no "double
    ///   negation").
    pub fn validate_with_limit(&self, limit: usize) -> Result<(), PatternError> {
        if self.nodes.is_empty() {
            return Err(PatternError::EmptyPattern);
        }
        if self.focus.index() >= self.nodes.len() {
            return Err(PatternError::FocusOutOfBounds(self.focus));
        }
        for (id, e) in self.edges() {
            if e.from.index() >= self.nodes.len() || e.to.index() >= self.nodes.len() {
                return Err(PatternError::EdgeOutOfBounds(id));
            }
            match e.quantifier {
                CountingQuantifier::Ratio { percent, .. } => {
                    if !(percent > 0.0 && percent <= 100.0) {
                        return Err(PatternError::InvalidRatio(percent));
                    }
                }
                CountingQuantifier::Count { value, .. } => {
                    if value == 0 {
                        return Err(PatternError::ZeroCountThreshold(id));
                    }
                }
                CountingQuantifier::Negated => {}
            }
        }
        if !self.is_connected() {
            return Err(PatternError::Disconnected);
        }
        self.check_simple_paths(limit)?;
        Ok(())
    }

    /// Checks the per-simple-path restrictions by DFS over *directed* simple
    /// paths.  Patterns are tiny, so the exponential enumeration is
    /// immaterial.  (The paths are directed: Q5 of the paper carries two
    /// negated edges that never co-occur on a directed path and is explicitly
    /// legal.)
    fn check_simple_paths(&self, limit: usize) -> Result<(), PatternError> {
        for start in self.node_ids() {
            let mut visited = vec![false; self.nodes.len()];
            visited[start.index()] = true;
            self.dfs_paths(start, &mut visited, 0, 0, limit)?;
        }
        Ok(())
    }

    fn dfs_paths(
        &self,
        u: PatternNodeId,
        visited: &mut Vec<bool>,
        quantified: usize,
        negated: usize,
        limit: usize,
    ) -> Result<(), PatternError> {
        for &eid in self.out_edges_of(u) {
            let e = self.edge(eid);
            let other = e.to;
            if visited[other.index()] {
                continue;
            }
            let q = quantified + usize::from(!e.quantifier.is_existential());
            let n = negated + usize::from(e.quantifier.is_negated());
            if q > limit {
                return Err(PatternError::TooManyQuantifiersOnPath { limit });
            }
            if n > 1 {
                return Err(PatternError::DoubleNegationOnPath);
            }
            visited[other.index()] = true;
            self.dfs_paths(other, visited, q, n, limit)?;
            visited[other.index()] = false;
        }
        Ok(())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QGP (focus = node {}):", self.focus.0)?;
        for (id, n) in self.nodes() {
            let name = n.name.as_deref().unwrap_or("_");
            writeln!(f, "  node {} [{}] ({name})", id.0, n.label)?;
        }
        for (_, e) in self.edges() {
            writeln!(
                f,
                "  edge {} -[{}]-> {}   {}",
                e.from.0, e.label, e.to.0, e.quantifier
            )?;
        }
        Ok(())
    }
}

/// The result of projecting a pattern (`Π(Q)` or `Π(Q^{+e})`): the projected
/// pattern and, for each of its nodes, the corresponding node of the original
/// pattern.
#[derive(Debug, Clone)]
pub struct ProjectedPattern {
    /// The projected pattern.
    pub pattern: Pattern,
    /// `original_node[i]` is the id, in the original pattern, of node `i` of
    /// the projected pattern.
    pub original_node: Vec<PatternNodeId>,
}

impl ProjectedPattern {
    /// Maps a node of the projected pattern back to the original pattern.
    pub fn to_original(&self, node: PatternNodeId) -> PatternNodeId {
        self.original_node[node.index()]
    }

    /// Maps an original-pattern node to the projected pattern, if it was kept.
    pub fn from_original(&self, node: PatternNodeId) -> Option<PatternNodeId> {
        self.original_node
            .iter()
            .position(|&o| o == node)
            .map(|i| PatternNodeId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;

    /// Q3 of the paper: xo follows ≥p people who recommend Redmi 2A, and
    /// follows nobody who gave it a bad rating.
    fn q3(p: u32) -> Pattern {
        let mut b = PatternBuilder::new();
        let xo = b.node_named("person", "xo");
        let z1 = b.node_named("person", "z1");
        let z2 = b.node_named("person", "z2");
        let redmi = b.node_named("Redmi 2A", "redmi");
        b.quantified_edge(xo, z1, "follow", CountingQuantifier::at_least(p));
        b.edge(z1, redmi, "recom");
        b.negated_edge(xo, z2, "follow");
        b.edge(z2, redmi, "bad_rating");
        b.focus(xo);
        b.build_unchecked()
    }

    #[test]
    fn accessors_and_classification() {
        let q = q3(2);
        assert_eq!(q.node_count(), 4);
        assert_eq!(q.edge_count(), 4);
        assert!(!q.is_positive());
        assert!(!q.is_conventional());
        assert_eq!(q.negated_edges().len(), 1);
        assert_eq!(q.radius(), 2);
        assert!(q.is_connected());
        q.validate().unwrap();
    }

    #[test]
    fn stratified_pattern_drops_all_quantifiers() {
        let q = q3(2);
        let s = q.stratified();
        assert!(s.is_conventional());
        assert!(s.is_positive());
        assert_eq!(s.node_count(), q.node_count());
        assert_eq!(s.edge_count(), q.edge_count());
    }

    #[test]
    fn pi_removes_nodes_reachable_only_through_negated_edges() {
        let q = q3(2);
        let pi = q.pi();
        // z2 is only connected via the negated follow edge, so it is dropped;
        // Redmi stays because it is connected through z1.
        assert_eq!(pi.pattern.node_count(), 3);
        assert_eq!(pi.pattern.edge_count(), 2);
        assert!(pi.pattern.is_positive());
        // Focus is preserved and maps back to the original focus.
        assert_eq!(pi.to_original(pi.pattern.focus()), q.focus());
        // The dropped node has no image.
        let z2 = PatternNodeId(2);
        assert!(pi.from_original(z2).is_none());
    }

    #[test]
    fn positify_turns_negated_edge_existential() {
        let q = q3(2);
        let neg = q.negated_edges()[0];
        let qp = q.positify(neg);
        assert!(qp.is_positive());
        let pi = qp.pi();
        // After positifying, z2 is connected again, nothing is dropped.
        assert_eq!(pi.pattern.node_count(), 4);
        assert_eq!(pi.pattern.edge_count(), 4);
    }

    #[test]
    fn pi_positified_is_positify_then_project() {
        let q = q3(2);
        let neg = q.negated_edges()[0];
        let a = q.pi_positified(neg);
        let b = q.positify(neg).pi();
        assert_eq!(a.pattern.node_count(), b.pattern.node_count());
        assert_eq!(a.pattern.edge_count(), b.pattern.edge_count());
    }

    #[test]
    fn radius_of_star_is_one() {
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let a = b.node("a");
        let c = b.node("c");
        b.edge(xo, a, "l");
        b.edge(xo, c, "l");
        b.focus(xo);
        let q = b.build().unwrap();
        assert_eq!(q.radius(), 1);
    }

    #[test]
    fn validation_rejects_pathological_patterns() {
        // Empty pattern.
        let empty = Pattern::from_parts(Vec::new(), Vec::new(), PatternNodeId(0));
        assert_eq!(empty.validate(), Err(PatternError::EmptyPattern));

        // Disconnected pattern.
        let mut b = PatternBuilder::new();
        let xo = b.node("a");
        let _lonely = b.node("b");
        b.focus(xo);
        assert_eq!(b.build(), Err(PatternError::Disconnected));

        // Invalid ratio.
        let mut b = PatternBuilder::new();
        let xo = b.node("a");
        let y = b.node("b");
        b.quantified_edge(xo, y, "l", CountingQuantifier::at_least_percent(150.0));
        b.focus(xo);
        assert_eq!(b.build(), Err(PatternError::InvalidRatio(150.0)));

        // Zero numeric threshold.
        let mut b = PatternBuilder::new();
        let xo = b.node("a");
        let y = b.node("b");
        b.quantified_edge(xo, y, "l", CountingQuantifier::at_least(0));
        b.focus(xo);
        assert!(matches!(
            b.build(),
            Err(PatternError::ZeroCountThreshold(_))
        ));
    }

    #[test]
    fn validation_enforces_path_restrictions() {
        // Three non-existential quantifiers along one path exceed l = 2.
        let mut b = PatternBuilder::new();
        let n0 = b.node("a");
        let n1 = b.node("a");
        let n2 = b.node("a");
        let n3 = b.node("a");
        b.quantified_edge(n0, n1, "l", CountingQuantifier::at_least(2));
        b.quantified_edge(n1, n2, "l", CountingQuantifier::at_least(2));
        b.quantified_edge(n2, n3, "l", CountingQuantifier::at_least(2));
        b.focus(n0);
        assert_eq!(
            b.build(),
            Err(PatternError::TooManyQuantifiersOnPath { limit: 2 })
        );
        // ... but is accepted with a larger limit.
        let mut b = PatternBuilder::new();
        let n0 = b.node("a");
        let n1 = b.node("a");
        let n2 = b.node("a");
        let n3 = b.node("a");
        b.quantified_edge(n0, n1, "l", CountingQuantifier::at_least(2));
        b.quantified_edge(n1, n2, "l", CountingQuantifier::at_least(2));
        b.quantified_edge(n2, n3, "l", CountingQuantifier::at_least(2));
        b.focus(n0);
        let q = b.build_unchecked();
        assert!(q.validate_with_limit(3).is_ok());

        // Double negation on a path is rejected.
        let mut b = PatternBuilder::new();
        let n0 = b.node("a");
        let n1 = b.node("a");
        let n2 = b.node("a");
        b.negated_edge(n0, n1, "l");
        b.negated_edge(n1, n2, "l");
        b.focus(n0);
        assert_eq!(b.build(), Err(PatternError::DoubleNegationOnPath));
    }

    #[test]
    fn display_mentions_quantifiers() {
        let q = q3(2);
        let text = q.to_string();
        assert!(text.contains("follow"));
        assert!(text.contains("σ = 0"));
        assert!(text.contains(">= 2"));
    }

    #[test]
    fn rebuilding_from_parts_preserves_adjacency() {
        let q = q3(3);
        // rebuild_adjacency restores the caches after a structural clone
        // that loses them.
        let mut copy = Pattern::from_parts(
            q.nodes().map(|(_, n)| n.clone()).collect(),
            q.edges().map(|(_, e)| e.clone()).collect(),
            q.focus(),
        );
        copy.rebuild_adjacency();
        assert_eq!(
            copy.out_edges_of(q.focus()).len(),
            q.out_edges_of(q.focus()).len()
        );
        assert_eq!(copy.to_string(), q.to_string());
    }
}
