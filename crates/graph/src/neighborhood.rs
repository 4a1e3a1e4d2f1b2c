//! d-hop neighborhoods and bounded BFS.
//!
//! Section 5 of the paper relies on the *d-hop neighborhood* `N_d(v)` of a
//! node: the subgraph induced by all nodes within `d` hops of `v`, where hops
//! ignore edge direction (a neighbor is reachable "from or to" the node).
//! The d-hop preserving partition `DPar` sizes and weighs `N_d(v)` of border
//! nodes, and the radius of a pattern bounds how much of the graph a single
//! focus candidate can ever touch.
//!
//! Every traversal here is one ball visitor, [`BfsScratch::visit_ball`]: an
//! epoch-marked visited array (marking a node is one store, "clearing"
//! between calls is a counter increment) and a level-synchronous frontier in
//! one reusable vector.  Both are allocated once and reused, so a caller
//! that runs one bounded BFS per node allocates nothing per run.

use crate::graph::{Graph, NodeId};

/// Reusable scratch state for repeated bounded BFS runs over one graph.
///
/// `mark[v] == epoch` means `v` was visited during the current run; bumping
/// `epoch` invalidates all marks at once.  `frontier` holds the stored nodes
/// of the current run in visit order, one contiguous range per level.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    mark: Vec<u32>,
    epoch: u32,
    frontier: Vec<NodeId>,
}

impl BfsScratch {
    /// Creates scratch state sized for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        BfsScratch {
            mark: vec![0; graph.node_count()],
            epoch: 0,
            frontier: Vec::new(),
        }
    }

    /// Starts a new run: grows the mark array if the graph did, and
    /// invalidates every mark.
    fn begin(&mut self, node_count: usize) {
        if self.mark.len() < node_count {
            self.mark.resize(node_count, self.epoch);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped around: old marks could collide with the new epoch.
            self.mark.fill(u32::MAX);
            self.epoch = 1;
        }
        self.frontier.clear();
    }

    /// Bounded undirected BFS from every node of `starts` at once: calls
    /// `visit(node, dist)` the first time a node within `d` hops of a start
    /// is reached, in BFS order, `dist` being the hop distance to the
    /// nearest start.  Duplicate starts are visited once.
    ///
    /// The visited nodes stay readable through [`BfsScratch::visited`] until
    /// the next run; with `keep_last == false` the outermost level (distance
    /// `d`, never expanded) is reported to `visit` but not stored, which is
    /// all a caller that only counts or collects through `visit` needs.
    pub fn visit_ball(
        &mut self,
        graph: &Graph,
        starts: &[NodeId],
        d: usize,
        keep_last: bool,
        mut visit: impl FnMut(NodeId, usize),
    ) {
        self.begin(graph.node_count());
        let epoch = self.epoch;
        for &start in starts {
            if self.mark[start.index()] != epoch {
                self.mark[start.index()] = epoch;
                visit(start, 0);
                if keep_last || d > 0 {
                    self.frontier.push(start);
                }
            }
        }
        let mut level = 0..self.frontier.len();
        for dist in 1..=d {
            let store = keep_last || dist < d;
            for i in level.clone() {
                let v = self.frontier[i];
                for &w in graph
                    .out_neighbors_slice(v)
                    .iter()
                    .chain(graph.in_neighbors_slice(v))
                {
                    if self.mark[w.index()] != epoch {
                        self.mark[w.index()] = epoch;
                        visit(w, dist);
                        if store {
                            self.frontier.push(w);
                        }
                    }
                }
            }
            level = level.end..self.frontier.len();
            if level.is_empty() {
                break;
            }
        }
    }

    /// The nodes the last [`BfsScratch::visit_ball`] run stored, in visit
    /// order.
    pub fn visited(&self) -> &[NodeId] {
        &self.frontier
    }
}

/// The node set of `N_d(v)`: all nodes within `d` undirected hops of `v`.
pub fn d_hop_nodes(graph: &Graph, v: NodeId, d: usize) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    BfsScratch::for_graph(graph).visit_ball(graph, &[v], d, false, |w, _| nodes.push(w));
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use std::collections::HashMap;

    /// Every node within `d` hops of any start, with its distance to the
    /// nearest one, in visit order.
    fn bfs(
        g: &Graph,
        starts: &[NodeId],
        d: usize,
        scratch: &mut BfsScratch,
    ) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        scratch.visit_ball(g, starts, d, false, |v, dist| out.push((v, dist)));
        out
    }

    /// A path a -> b -> c -> d plus an isolated node.
    fn path_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes("person", 5);
        b.add_edge(nodes[0], nodes[1], "follow").unwrap();
        b.add_edge(nodes[1], nodes[2], "follow").unwrap();
        b.add_edge(nodes[2], nodes[3], "follow").unwrap();
        (b.build(), nodes)
    }

    #[test]
    fn bfs_respects_hop_limit_and_ignores_direction() {
        let (g, n) = path_graph();
        let hop1: Vec<_> = d_hop_nodes(&g, n[1], 1);
        // One hop from b reaches a (incoming) and c (outgoing).
        assert_eq!(hop1.len(), 3);
        assert!(hop1.contains(&n[0]));
        assert!(hop1.contains(&n[2]));

        let hop2 = d_hop_nodes(&g, n[1], 2);
        assert_eq!(hop2.len(), 4); // everything except the isolated node
        assert!(!hop2.contains(&n[4]));
    }

    #[test]
    fn zero_hops_is_just_the_start_node() {
        let (g, n) = path_graph();
        assert_eq!(d_hop_nodes(&g, n[2], 0), vec![n[2]]);
    }

    #[test]
    fn distances_are_correct() {
        let (g, n) = path_graph();
        let mut scratch = BfsScratch::for_graph(&g);
        let dist: HashMap<_, _> = bfs(&g, &[n[0]], 3, &mut scratch).into_iter().collect();
        assert_eq!(dist[&n[0]], 0);
        assert_eq!(dist[&n[1]], 1);
        assert_eq!(dist[&n[2]], 2);
        assert_eq!(dist[&n[3]], 3);
        assert!(!dist.contains_key(&n[4]));
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let (g, n) = path_graph();
        let mut scratch = BfsScratch::for_graph(&g);
        for &start in &n {
            for d in 0..3 {
                let reused = bfs(&g, &[start], d, &mut scratch);
                let fresh = bfs(&g, &[start], d, &mut BfsScratch::for_graph(&g));
                assert_eq!(reused, fresh, "start {start:?} d {d}");
                let nodes: Vec<_> = fresh.iter().map(|&(v, _)| v).collect();
                assert_eq!(nodes, d_hop_nodes(&g, start, d), "start {start:?} d {d}");
            }
        }
    }

    #[test]
    fn visitor_stores_the_ball_with_or_without_its_last_level() {
        let (g, n) = path_graph();
        let mut scratch = BfsScratch::for_graph(&g);
        for d in 0..4 {
            let ball = bfs(&g, &[n[0]], d, &mut BfsScratch::for_graph(&g));
            let mut seen = Vec::new();
            scratch.visit_ball(&g, &[n[0]], d, true, |v, dist| seen.push((v, dist)));
            assert_eq!(seen, ball);
            let all: Vec<_> = ball.iter().map(|&(v, _)| v).collect();
            assert_eq!(scratch.visited(), all);

            let mut count = 0;
            scratch.visit_ball(&g, &[n[0]], d, false, |_, _| count += 1);
            assert_eq!(count, ball.len());
            let inner: Vec<_> = ball
                .iter()
                .filter(|&&(_, k)| k < d)
                .map(|&(v, _)| v)
                .collect();
            assert_eq!(scratch.visited(), inner);
        }
    }

    #[test]
    fn scratch_survives_epoch_wraparound() {
        let (g, n) = path_graph();
        let mut scratch = BfsScratch::for_graph(&g);
        scratch.epoch = u32::MAX - 1;
        for _ in 0..4 {
            let ball = bfs(&g, &[n[1]], 1, &mut scratch);
            assert_eq!(ball.len(), 3, "epoch {}", scratch.epoch);
        }
    }

    #[test]
    fn neighborhood_subgraph_contains_internal_edges() {
        let (g, n) = path_graph();
        let ball = d_hop_nodes(&g, n[1], 1);
        assert_eq!(ball.len(), 3);
        assert!(ball.contains(&n[0]));
        assert!(ball.contains(&n[1]));
        assert!(ball.contains(&n[2]));
        // Edges a->b and b->c are internal to the 1-hop neighborhood of b.
        let mut internal: Vec<(NodeId, NodeId)> = (ball.iter())
            .flat_map(|&v| g.out_neighbors_slice(v).iter().map(move |&w| (v, w)))
            .filter(|(_, w)| ball.contains(w))
            .collect();
        internal.sort_unstable();
        assert_eq!(internal, vec![(n[0], n[1]), (n[1], n[2])]);
    }

    #[test]
    fn multi_source_bfs_is_the_union_of_single_source_balls() {
        let (g, n) = path_graph();
        let mut scratch = BfsScratch::for_graph(&g);
        let out = bfs(&g, &[n[0], n[4], n[0]], 1, &mut scratch);
        let mut got: Vec<_> = out.iter().map(|&(v, _)| v).collect();
        got.sort_unstable();
        let mut want = vec![n[0], n[1], n[4]];
        want.sort_unstable();
        assert_eq!(got, want);
        // Distances are to the nearest start.
        let dist: HashMap<_, _> = out.into_iter().collect();
        assert_eq!(dist[&n[0]], 0);
        assert_eq!(dist[&n[4]], 0);
        assert_eq!(dist[&n[1]], 1);

        // Empty start set visits nothing.
        assert!(bfs(&g, &[], 3, &mut scratch).is_empty());
    }

    #[test]
    fn isolated_node_has_singleton_neighborhood() {
        let (g, n) = path_graph();
        assert_eq!(d_hop_nodes(&g, n[4], 3), vec![n[4]]);
    }
}
