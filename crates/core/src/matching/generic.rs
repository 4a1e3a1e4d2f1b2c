//! The generic backtracking search `Match` (Fig. 4 of the paper).
//!
//! State-of-the-art subgraph isomorphism algorithms share this skeleton and
//! differ only in how the key functions (`FilterCandidate`, `SelectNext`,
//! `IsExtend`, `Verify`) are optimized.  The quantified matcher `QMatch`, the
//! baseline `Enum`, and the conventional matcher all reuse this engine; they
//! supply different candidate sets, pruning and termination behaviour.
//!
//! The engine enumerates isomorphisms of the *stratified* pattern (quantifier
//! annotations are ignored here), with the focus pinned to a chosen graph
//! node, and invokes a callback on every complete match.  The callback
//! decides whether to continue (`ControlFlow::Continue`) or stop early
//! (`ControlFlow::Break`).

use std::ops::ControlFlow;

use qgp_graph::{Graph, NodeId};

use super::candidates::CandidateSets;
use super::resolved::ResolvedPattern;
use super::stats::MatchStats;

/// How a pattern node is anchored to an already-matched node during the
/// search: via which pattern edge, and in which direction.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    /// Index of the anchoring pattern edge.
    edge: usize,
    /// `true` when the anchoring edge goes *from* the already-matched node
    /// *to* the node being matched (so candidates are out-neighbors of the
    /// matched node); `false` for the reverse direction.
    forward: bool,
    /// The pattern node on the already-matched side of the anchor.
    matched_node: usize,
}

/// A connectivity-aware matching order (`SelectNext` of Fig. 4): pattern
/// nodes are visited in BFS order from the focus, so every node after the
/// first is anchored to an already-matched node and its candidates can be
/// read off the graph adjacency instead of scanned from `C(u)`.
#[derive(Debug, Clone)]
pub(crate) struct SearchOrder {
    /// `nodes[i]` is the pattern node matched at depth `i`; `nodes[0]` is the
    /// focus.
    nodes: Vec<usize>,
    /// Anchor of each depth (`None` for depth 0).
    anchors: Vec<Option<Anchor>>,
    /// For each depth, every pattern edge whose endpoints are both matched
    /// once this depth is assigned, paired with `true` if the edge source is
    /// the node at this depth.
    check_edges: Vec<Vec<(usize, bool)>>,
}

impl SearchOrder {
    /// Builds the BFS-from-focus order.  The pattern must be weakly
    /// connected (guaranteed by [`crate::pattern::Pattern::validate`]).
    pub fn new(rp: &ResolvedPattern) -> Self {
        let n = rp.node_count();
        let mut order = Vec::with_capacity(n);
        let mut anchors = Vec::with_capacity(n);
        let mut depth_of = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();

        order.push(rp.focus);
        anchors.push(None);
        depth_of[rp.focus] = 0;
        queue.push_back(rp.focus);

        while let Some(u) = queue.pop_front() {
            for &eidx in &rp.out_edges[u] {
                let e = &rp.edges[eidx];
                if depth_of[e.to] == usize::MAX {
                    depth_of[e.to] = order.len();
                    order.push(e.to);
                    anchors.push(Some(Anchor {
                        edge: eidx,
                        forward: true,
                        matched_node: u,
                    }));
                    queue.push_back(e.to);
                }
            }
            for &eidx in &rp.in_edges[u] {
                let e = &rp.edges[eidx];
                if depth_of[e.from] == usize::MAX {
                    depth_of[e.from] = order.len();
                    order.push(e.from);
                    anchors.push(Some(Anchor {
                        edge: eidx,
                        forward: false,
                        matched_node: u,
                    }));
                    queue.push_back(e.from);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "pattern must be connected");

        // Every pattern edge is checked at the depth where its *second*
        // endpoint is matched.
        let mut check_edges = vec![Vec::new(); n];
        for (eidx, e) in rp.edges.iter().enumerate() {
            let d_from = depth_of[e.from];
            let d_to = depth_of[e.to];
            let check_depth = d_from.max(d_to);
            let source_is_here = d_from == check_depth;
            check_edges[check_depth].push((eidx, source_is_here));
        }

        SearchOrder {
            nodes: order,
            anchors,
            check_edges,
        }
    }

    /// Number of depths (= pattern nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The pattern node matched at a given depth.
    pub fn node_at(&self, depth: usize) -> usize {
        self.nodes[depth]
    }
}

/// The backtracking engine.  `assignment[u]` holds the graph node currently
/// matched to pattern node `u` (`None` when unmatched).
pub(crate) struct IsomorphismEngine<'a> {
    graph: &'a Graph,
    rp: &'a ResolvedPattern,
    order: &'a SearchOrder,
    candidates: &'a CandidateSets,
}

impl<'a> IsomorphismEngine<'a> {
    /// Creates an engine over a graph, resolved pattern, search order and
    /// candidate sets.
    pub fn new(
        graph: &'a Graph,
        rp: &'a ResolvedPattern,
        order: &'a SearchOrder,
        candidates: &'a CandidateSets,
    ) -> Self {
        IsomorphismEngine {
            graph,
            rp,
            order,
            candidates,
        }
    }

    /// Enumerates every isomorphism of the stratified pattern that maps the
    /// focus to `focus_value`, invoking `on_match` with the assignment
    /// (indexed by pattern node).  Returns `true` if the enumeration was
    /// stopped early by the callback.
    pub fn enumerate_with_focus<F>(
        &self,
        focus_value: NodeId,
        stats: &mut MatchStats,
        mut on_match: F,
    ) -> bool
    where
        F: FnMut(&[NodeId]) -> ControlFlow<()>,
    {
        if !self.candidates.contains(self.rp.focus, focus_value) {
            return false;
        }
        let mut assignment: Vec<NodeId> = vec![NodeId(u32::MAX); self.rp.node_count()];
        let mut used: Vec<NodeId> = Vec::with_capacity(self.rp.node_count());
        matches!(
            self.recurse(
                0,
                focus_value,
                &mut assignment,
                &mut used,
                stats,
                &mut on_match
            ),
            ControlFlow::Break(())
        )
    }

    fn recurse<F>(
        &self,
        depth: usize,
        focus_value: NodeId,
        assignment: &mut Vec<NodeId>,
        used: &mut Vec<NodeId>,
        stats: &mut MatchStats,
        on_match: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[NodeId]) -> ControlFlow<()>,
    {
        if depth == self.order.len() {
            stats.isomorphisms_found += 1;
            return on_match(assignment);
        }
        let u = self.order.node_at(depth);

        if depth == 0 {
            return self.try_assign(
                depth,
                u,
                focus_value,
                focus_value,
                assignment,
                used,
                stats,
                on_match,
            );
        }

        let anchor = self.order.anchors[depth].expect("non-root depth has an anchor");
        let anchor_value = assignment[anchor.matched_node];
        let label = self.rp.edges[anchor.edge].label;
        // Candidates come straight from the frozen adjacency of the anchored
        // node — a contiguous slice, no per-depth allocation.
        let neighbors: &[NodeId] = if anchor.forward {
            self.graph
                .out_neighbors_with_label_slice(anchor_value, label)
        } else {
            self.graph
                .in_neighbors_with_label_slice(anchor_value, label)
        };
        for &v in neighbors {
            self.try_assign(depth, u, v, focus_value, assignment, used, stats, on_match)?;
        }
        ControlFlow::Continue(())
    }

    #[allow(clippy::too_many_arguments)]
    fn try_assign<F>(
        &self,
        depth: usize,
        u: usize,
        v: NodeId,
        focus_value: NodeId,
        assignment: &mut Vec<NodeId>,
        used: &mut Vec<NodeId>,
        stats: &mut MatchStats,
        on_match: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[NodeId]) -> ControlFlow<()>,
    {
        stats.verifications += 1;
        // Injectivity: a graph node matches at most one pattern node.
        if used.contains(&v) {
            return ControlFlow::Continue(());
        }
        // Label and candidate-set membership.
        if self.graph.node_label(v) != self.rp.node_labels[u] {
            return ControlFlow::Continue(());
        }
        if !self.candidates.contains(u, v) {
            return ControlFlow::Continue(());
        }
        // Every pattern edge now fully matched must exist in the graph
        // (`IsExtend` + `Verify` of Fig. 4).
        for &(eidx, source_is_here) in &self.order.check_edges[depth] {
            let e = &self.rp.edges[eidx];
            let (from_v, to_v) = if source_is_here {
                (v, assignment_or(assignment, e.to, v, depth, self.order))
            } else {
                (assignment_or(assignment, e.from, v, depth, self.order), v)
            };
            if !self.graph.has_edge(from_v, to_v, e.label) {
                return ControlFlow::Continue(());
            }
        }
        assignment[u] = v;
        used.push(v);
        let result = self.recurse(depth + 1, focus_value, assignment, used, stats, on_match);
        used.pop();
        result
    }
}

/// Reads the graph node assigned to pattern node `other`, taking into account
/// that the node at the current depth is being assigned `v` and is not yet
/// written into `assignment`.
#[inline]
fn assignment_or(
    assignment: &[NodeId],
    other: usize,
    v: NodeId,
    depth: usize,
    order: &SearchOrder,
) -> NodeId {
    if order.node_at(depth) == other {
        v
    } else {
        assignment[other]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::candidates::{build_candidates, CandidateFilter};
    use crate::pattern::PatternBuilder;
    use qgp_graph::GraphBuilder;

    /// Builds the engine pieces for a pattern/graph pair.
    fn setup(
        graph: &Graph,
        pattern: &crate::pattern::Pattern,
    ) -> (ResolvedPattern, SearchOrder, CandidateSets) {
        let rp = ResolvedPattern::resolve(pattern, graph).unwrap();
        let order = SearchOrder::new(&rp);
        let mut stats = MatchStats::new();
        let cands = build_candidates(graph, &rp, CandidateFilter::LabelOnly, &mut stats);
        (rp, order, cands)
    }

    fn triangle_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("person", 4);
        b.add_edge(n[0], n[1], "knows").unwrap();
        b.add_edge(n[1], n[2], "knows").unwrap();
        b.add_edge(n[2], n[0], "knows").unwrap();
        b.add_edge(n[0], n[3], "knows").unwrap();
        (b.build(), n)
    }

    fn triangle_pattern() -> crate::pattern::Pattern {
        let mut b = PatternBuilder::new();
        let x = b.node("person");
        let y = b.node("person");
        let z = b.node("person");
        b.edge(x, y, "knows");
        b.edge(y, z, "knows");
        b.edge(z, x, "knows");
        b.focus(x);
        b.build().unwrap()
    }

    #[test]
    fn search_order_starts_at_focus_and_covers_all_nodes() {
        let (g, _) = triangle_graph();
        let p = triangle_pattern();
        let (rp, order, _) = setup(&g, &p);
        assert_eq!(order.len(), 3);
        assert_eq!(order.node_at(0), rp.focus);
    }

    #[test]
    fn triangle_is_found_only_at_triangle_nodes() {
        let (g, n) = triangle_graph();
        let p = triangle_pattern();
        let (rp, order, cands) = setup(&g, &p);
        let engine = IsomorphismEngine::new(&g, &rp, &order, &cands);
        let mut stats = MatchStats::new();

        for (idx, expect) in [(0, true), (1, true), (2, true), (3, false)] {
            let mut found = 0;
            engine.enumerate_with_focus(n[idx], &mut stats, |_| {
                found += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(found > 0, expect, "focus node {idx}");
            if expect {
                // Exactly one isomorphism maps the focus to each triangle node
                // (the cycle direction is fixed).
                assert_eq!(found, 1);
            }
        }
        assert!(stats.isomorphisms_found >= 3);
        assert!(stats.verifications > 0);
    }

    #[test]
    fn early_break_stops_enumeration() {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("person");
        let leaves = b.add_nodes("person", 5);
        for &l in &leaves {
            b.add_edge(hub, l, "knows").unwrap();
        }
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node("person");
        let y = pb.node("person");
        pb.edge(x, y, "knows");
        pb.focus(x);
        let p = pb.build().unwrap();

        let (rp, order, cands) = setup(&g, &p);
        let engine = IsomorphismEngine::new(&g, &rp, &order, &cands);
        let mut stats = MatchStats::new();
        let mut seen = 0;
        let stopped = engine.enumerate_with_focus(hub, &mut stats, |_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert!(stopped);
        assert_eq!(seen, 1);
        assert_eq!(stats.isomorphisms_found, 1);
    }

    #[test]
    fn injectivity_prevents_reusing_a_graph_node() {
        // Pattern: x -> y, x -> z (two distinct children); graph: a -> b only.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("person");
        let b_node = gb.add_node("person");
        gb.add_edge(a, b_node, "knows").unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node("person");
        let y = pb.node("person");
        let z = pb.node("person");
        pb.edge(x, y, "knows");
        pb.edge(x, z, "knows");
        pb.focus(x);
        let p = pb.build().unwrap();

        let (rp, order, cands) = setup(&g, &p);
        let engine = IsomorphismEngine::new(&g, &rp, &order, &cands);
        let mut stats = MatchStats::new();
        let mut found = 0;
        engine.enumerate_with_focus(a, &mut stats, |_| {
            found += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(found, 0, "b cannot match both y and z");
    }

    #[test]
    fn focus_not_in_candidates_yields_nothing() {
        let (g, n) = triangle_graph();
        let p = triangle_pattern();
        let (rp, order, mut cands) = setup(&g, &p);
        cands.replace_sorted(rp.focus, vec![]);
        let engine = IsomorphismEngine::new(&g, &rp, &order, &cands);
        let mut stats = MatchStats::new();
        let mut found = 0;
        engine.enumerate_with_focus(n[0], &mut stats, |_| {
            found += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(found, 0);
    }
}
