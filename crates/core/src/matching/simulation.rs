//! Graph-simulation pre-filter (Appendix B of the paper, Lemma 13).
//!
//! A node `v` of the graph *simulates* a pattern node `u` if it carries the
//! same label and, for every out-edge `(u, u')` of the pattern, `v` has a
//! child via the same edge label that simulates `u'`.  We additionally
//! require the dual condition on in-edges ("dual simulation"), which is still
//! a necessary condition for participating in any isomorphism and prunes
//! more candidates.  The maximal simulation relation is computed by a
//! fixpoint in time quadratic in `|C| · |Q|`, and candidates that fail it can
//! be removed before the expensive backtracking search starts.
//!
//! The relation is held in dense `NodeId`-indexed bit sets
//! ([`qgp_graph::DenseBitSet`], one per pattern node) alongside ordered
//! candidate vectors, so the inner "does some neighbor simulate `u'`" test
//! is a slice scan with a bit-probe per neighbor — no hashing anywhere in
//! the fixpoint.

use qgp_graph::{DenseBitSet, Graph, NodeId};

use super::candidates::CandidateSets;
use super::resolved::ResolvedPattern;
use super::stats::MatchStats;

/// Refines the candidate sets by dual graph simulation, removing every
/// candidate that cannot possibly take part in an isomorphism of the
/// stratified pattern.
pub(crate) fn refine_by_simulation(
    graph: &Graph,
    rp: &ResolvedPattern,
    candidates: &mut CandidateSets,
    stats: &mut MatchStats,
) {
    let n = rp.node_count();
    let universe = graph.node_count();
    let mut alive: Vec<Vec<NodeId>> = (0..n).map(|u| candidates.set(u).to_vec()).collect();
    let mut bits: Vec<DenseBitSet> = alive
        .iter()
        .map(|members| DenseBitSet::from_members(members.iter().map(|v| v.index()), universe))
        .collect();

    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            // Two passes so the relation stays fixed while `u` is scanned
            // (matching the collect-then-remove semantics of the fixpoint).
            let before = alive[u].len();
            let keep: Vec<bool> = alive[u]
                .iter()
                .map(|&v| still_simulates(graph, rp, &bits, u, v))
                .collect();
            if keep.iter().all(|&k| k) {
                continue;
            }
            changed = true;
            let mut idx = 0;
            alive[u].retain(|&v| {
                let k = keep[idx];
                idx += 1;
                if !k {
                    bits[u].remove(v.index());
                }
                k
            });
            stats.pruned_by_simulation += before - alive[u].len();
        }
    }

    for (u, members) in alive.into_iter().enumerate() {
        // `retain` preserves the sorted order of the candidate vectors.
        candidates.replace_sorted(u, members);
    }
}

/// Checks the (dual) simulation condition for a single `(u, v)` pair against
/// the current relation.
fn still_simulates(
    graph: &Graph,
    rp: &ResolvedPattern,
    sim: &[DenseBitSet],
    u: usize,
    v: NodeId,
) -> bool {
    for &eidx in &rp.out_edges[u] {
        let e = &rp.edges[eidx];
        let ok = graph
            .out_neighbors_with_label_slice(v, e.label)
            .iter()
            .any(|&child| sim[e.to].contains(child.index()));
        if !ok {
            return false;
        }
    }
    for &eidx in &rp.in_edges[u] {
        let e = &rp.edges[eidx];
        let ok = graph
            .in_neighbors_with_label_slice(v, e.label)
            .iter()
            .any(|&parent| sim[e.from].contains(parent.index()));
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::candidates::{build_candidates, CandidateFilter};
    use crate::pattern::PatternBuilder;
    use qgp_graph::GraphBuilder;

    #[test]
    fn simulation_removes_candidates_on_broken_chains() {
        // Pattern: a -> b -> c (labels A, B, C via edge l).
        // Graph:  a1 -> b1 -> c1   (full chain)
        //         a2 -> b2          (chain broken: b2 has no C child)
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node("A");
        let b1 = gb.add_node("B");
        let c1 = gb.add_node("C");
        let a2 = gb.add_node("A");
        let b2 = gb.add_node("B");
        gb.add_edge(a1, b1, "l").unwrap();
        gb.add_edge(b1, c1, "l").unwrap();
        gb.add_edge(a2, b2, "l").unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node("A");
        let y = pb.node("B");
        let z = pb.node("C");
        pb.edge(x, y, "l");
        pb.edge(y, z, "l");
        pb.focus(x);
        let p = pb.build().unwrap();

        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let mut cands = build_candidates(&g, &rp, CandidateFilter::LabelOnly, &mut stats);
        // Before simulation both A nodes are candidates for x.
        assert!(cands.contains(0, a1));
        assert!(cands.contains(0, a2));

        refine_by_simulation(&g, &rp, &mut cands, &mut stats);
        // a2's only child b2 has no C child, so a2 cannot simulate x.
        assert!(cands.contains(0, a1));
        assert!(!cands.contains(0, a2));
        assert!(!cands.contains(1, b2));
        assert!(stats.pruned_by_simulation >= 1);
    }

    #[test]
    fn simulation_keeps_all_candidates_when_structure_matches() {
        // A cycle simulates a chain pattern of the same labels.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("A");
        let b = gb.add_node("A");
        gb.add_edge(a, b, "l").unwrap();
        gb.add_edge(b, a, "l").unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node("A");
        let y = pb.node("A");
        pb.edge(x, y, "l");
        pb.focus(x);
        let p = pb.build().unwrap();

        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let mut cands = build_candidates(&g, &rp, CandidateFilter::LabelOnly, &mut stats);
        refine_by_simulation(&g, &rp, &mut cands, &mut stats);
        assert!(cands.contains(0, a));
        assert!(cands.contains(0, b));
        assert_eq!(stats.pruned_by_simulation, 0);
    }

    #[test]
    fn refined_sets_stay_sorted() {
        // A fan where only some spokes survive: the surviving candidate
        // vector must remain sorted for the downstream rank lookups.
        let mut gb = GraphBuilder::new();
        let hub = gb.add_node("A");
        let spokes: Vec<_> = (0..6).map(|_| gb.add_node("B")).collect();
        let leaf = gb.add_node("C");
        for &s in &spokes {
            gb.add_edge(hub, s, "l").unwrap();
        }
        // Only even spokes reach a C leaf.
        for s in spokes.iter().step_by(2) {
            gb.add_edge(*s, leaf, "l").unwrap();
        }
        let g = gb.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node("A");
        let y = pb.node("B");
        let z = pb.node("C");
        pb.edge(x, y, "l");
        pb.edge(y, z, "l");
        pb.focus(x);
        let p = pb.build().unwrap();

        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let mut cands = build_candidates(&g, &rp, CandidateFilter::LabelOnly, &mut stats);
        refine_by_simulation(&g, &rp, &mut cands, &mut stats);
        let survivors = cands.set(1);
        assert_eq!(survivors.len(), 3);
        assert!(survivors.windows(2).all(|w| w[0] < w[1]));
    }
}
