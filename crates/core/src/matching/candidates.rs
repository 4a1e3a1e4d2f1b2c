//! Candidate set computation (`FilterCandidate` of Fig. 4, revised for
//! quantifiers as in `QMatch`, Section 4.1).
//!
//! For every pattern node `u` the candidate set `C(u)` starts from all graph
//! nodes carrying the same node label, and is pruned by structural necessary
//! conditions:
//!
//! * for every out-edge `e = (u, u')` the candidate must have enough children
//!   via `e`'s label to possibly satisfy `f(e)` — the initialization
//!   `U(v, e) = |Mₑ(v)|` of `QMatch`, which removes `v` when the upper bound
//!   already fails the quantifier (Example 5 of the paper),
//! * for every in-edge `e = (u'', u)` the candidate must have at least one
//!   parent via `e`'s label.
//!
//! Candidate sets are stored twice: as sorted vectors (for ordered iteration
//! and rank lookups) and as dense `NodeId`-indexed bitmaps
//! ([`qgp_graph::DenseBitSet`]), so the membership test in the isomorphism
//! engine's inner loop and in the focus upper-bound check is a single
//! shift-and-mask instead of a binary search.  Short-lived restricted sets
//! (built once per focus in the exact-decision path) skip the bitmaps and
//! fall back to binary search — see
//! [`CandidateSets::from_sorted_sets_sparse`].

use qgp_graph::{DenseBitSet, Graph, NodeId};

use super::config::MatchConfig;
use super::resolved::ResolvedPattern;
use super::stats::MatchStats;

/// Candidate sets `C(u)` for every pattern node: sorted vectors, optionally
/// paired with dense bitmaps over the graph's node-id universe.
#[derive(Debug)]
pub(crate) struct CandidateSets {
    /// Sorted, deduplicated candidate list per pattern node.
    sets: Vec<Vec<NodeId>>,
    /// `bits[u]` mirrors `sets[u]` over the node-id universe.  Empty for
    /// *sparse* candidate sets (see [`CandidateSets::from_sorted_sets_sparse`]).
    bits: Vec<DenseBitSet>,
}

impl CandidateSets {
    /// Creates candidate sets from vectors that are already sorted and
    /// deduplicated, with dense membership bitmaps sized for the node-id
    /// universe — the form used for the long-lived, per-run candidate sets
    /// that the isomorphism engine probes in its inner loop.
    pub fn from_sorted_sets(sets: Vec<Vec<NodeId>>, universe: usize) -> Self {
        debug_assert!(sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
        let bits = sets
            .iter()
            .map(|s| DenseBitSet::from_members(s.iter().map(|v| v.index()), universe))
            .collect();
        CandidateSets { sets, bits }
    }

    /// Creates *sparse* candidate sets: sorted vectors only, no bitmaps,
    /// membership by binary search.  This is the right form for the
    /// short-lived restricted sets built once per focus candidate in the
    /// exact-decision path — allocating and zeroing universe-sized bitmaps
    /// there would cost `O(V)` per focus.
    pub fn from_sorted_sets_sparse(sets: Vec<Vec<NodeId>>) -> Self {
        debug_assert!(sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
        CandidateSets {
            bits: Vec::new(),
            sets,
        }
    }

    /// The candidate set of pattern node `u`, sorted ascending.
    pub fn set(&self, u: usize) -> &[NodeId] {
        &self.sets[u]
    }

    /// Membership test — one load, shift and mask when dense; binary search
    /// when sparse.
    #[inline]
    pub fn contains(&self, u: usize, v: NodeId) -> bool {
        match self.bits.get(u) {
            Some(bits) => bits.contains(v.index()),
            None => self.sets[u].binary_search(&v).is_ok(),
        }
    }

    /// The rank of `v` within the sorted candidate set of `u` — the dense
    /// index the counter accumulator keys its per-edge state by.
    #[inline]
    pub fn rank(&self, u: usize, v: NodeId) -> Option<usize> {
        self.sets[u].binary_search(&v).ok()
    }

    /// Is some candidate set empty (in which case the pattern has no match)?
    pub fn any_empty(&self) -> bool {
        self.sets.iter().any(Vec::is_empty)
    }

    /// Total number of candidates across all pattern nodes.
    pub fn total(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Replaces the candidate set of one pattern node with an already-sorted,
    /// deduplicated vector.
    pub fn replace_sorted(&mut self, u: usize, set: Vec<NodeId>) {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]));
        if let Some(bits) = self.bits.get_mut(u) {
            bits.clear();
            for v in &set {
                bits.insert(v.index());
            }
        }
        self.sets[u] = set;
    }

    /// Takes the sorted vectors back out.  This is how the exact-decision
    /// path recycles its per-focus restricted sets: the vectors (and their
    /// capacity) return to the accumulator's scratch instead of being freed
    /// once per focus candidate.
    pub fn into_sets(self) -> Vec<Vec<NodeId>> {
        self.sets
    }
}

/// Whether quantifier-aware degree pruning is applied while building the
/// candidate sets.  The `Enum` baseline uses [`CandidateFilter::LabelOnly`]
/// (it enumerates all matches of the stratified pattern first and only then
/// verifies quantifiers), `QMatch` uses [`CandidateFilter::QuantifierAware`].
/// Incremental match views use [`CandidateFilter::LabelUniverse`]: candidate
/// sets depend only on node labels, which edge updates cannot change, so the
/// sets stay valid across `EdgeOp` batches without recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CandidateFilter {
    /// Node labels only — `C(u)` is exactly `nodes_with_label`.  No degree
    /// checks, so the sets are stable under edge insertions and deletions.
    LabelUniverse,
    /// Node labels plus the existence of required adjacent edge labels.
    LabelOnly,
    /// Additionally require `U(v, e) = |Mₑ(v)|` to satisfy each quantifier.
    QuantifierAware,
}

impl CandidateFilter {
    /// The filter a matcher configuration implies: quantifier-aware degree
    /// pruning when upper bounds are on, label-only otherwise.
    pub(crate) fn implied_by(config: &MatchConfig) -> Self {
        if config.use_upper_bound_pruning {
            CandidateFilter::QuantifierAware
        } else {
            CandidateFilter::LabelOnly
        }
    }
}

/// Builds the candidate sets for a resolved (positive) pattern.
pub(crate) fn build_candidates(
    graph: &Graph,
    rp: &ResolvedPattern,
    filter: CandidateFilter,
    stats: &mut MatchStats,
) -> CandidateSets {
    let mut sets = Vec::with_capacity(rp.node_count());
    for u in 0..rp.node_count() {
        let label = rp.node_labels[u];
        if filter == CandidateFilter::LabelUniverse {
            // `nodes_with_label` lists nodes in id order — already sorted.
            sets.push(graph.nodes_with_label(label).to_vec());
            continue;
        }
        let mut set = Vec::new();
        'candidates: for &v in graph.nodes_with_label(label) {
            for &eidx in &rp.out_edges[u] {
                let e = &rp.edges[eidx];
                if e.quantifier.is_negated() {
                    // Negated edges never constrain candidate existence; they
                    // are handled by the set-difference semantics.
                    continue;
                }
                let total = graph.out_degree_with_label(v, e.label);
                let feasible = match filter {
                    CandidateFilter::LabelUniverse => unreachable!("handled above"),
                    CandidateFilter::LabelOnly => total >= 1,
                    CandidateFilter::QuantifierAware => {
                        e.quantifier.feasible_with_upper_bound(total, total)
                    }
                };
                if !feasible {
                    continue 'candidates;
                }
            }
            for &eidx in &rp.in_edges[u] {
                let e = &rp.edges[eidx];
                if e.quantifier.is_negated() {
                    continue;
                }
                if graph.in_degree_with_label(v, e.label) == 0 {
                    continue 'candidates;
                }
            }
            set.push(v);
        }
        sets.push(set);
    }
    // `nodes_with_label` lists nodes in insertion (= id) order, so the sets
    // are already sorted.
    let candidates = CandidateSets::from_sorted_sets(sets, graph.node_count());
    stats.initial_candidates += candidates.total();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{CountingQuantifier, PatternBuilder};
    use qgp_graph::GraphBuilder;

    /// G1 of Fig. 2 (paper): x1, x2, x3 follow various people; v0..v3
    /// recommend Redmi 2A; v4 gave it a bad rating.
    fn g1() -> (Graph, Vec<NodeId>, Vec<NodeId>, NodeId) {
        let mut b = GraphBuilder::new();
        let xs = b.add_nodes("person", 3); // x1, x2, x3
        let vs = b.add_nodes("person", 5); // v0..v4
        let redmi = b.add_node("Redmi 2A");
        // x1 follows v0; x2 follows v1, v2; x3 follows v2, v3, v4.
        b.add_edge(xs[0], vs[0], "follow").unwrap();
        b.add_edge(xs[1], vs[1], "follow").unwrap();
        b.add_edge(xs[1], vs[2], "follow").unwrap();
        b.add_edge(xs[2], vs[2], "follow").unwrap();
        b.add_edge(xs[2], vs[3], "follow").unwrap();
        b.add_edge(xs[2], vs[4], "follow").unwrap();
        // v0..v3 recommend Redmi; v4 gives a bad rating.
        for &v in &vs[..4] {
            b.add_edge(v, redmi, "recom").unwrap();
        }
        b.add_edge(vs[4], redmi, "bad_rating").unwrap();
        (b.build(), xs, vs, redmi)
    }

    fn follow_recom_pattern(q: CountingQuantifier) -> crate::pattern::Pattern {
        let mut b = PatternBuilder::new();
        let xo = b.node("person");
        let z = b.node("person");
        let redmi = b.node("Redmi 2A");
        b.quantified_edge(xo, z, "follow", q);
        b.edge(z, redmi, "recom");
        b.focus(xo);
        b.build().unwrap()
    }

    #[test]
    fn quantifier_aware_filter_prunes_low_degree_candidates() {
        let (g, xs, _, _) = g1();
        let p = follow_recom_pattern(CountingQuantifier::at_least(2));
        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let cands = build_candidates(&g, &rp, CandidateFilter::QuantifierAware, &mut stats);
        // x1 follows only one person, so the upper bound U = 1 < 2 prunes it
        // (this is exactly Example 5 of the paper).
        assert!(!cands.contains(0, xs[0]));
        assert!(cands.contains(0, xs[1]));
        assert!(cands.contains(0, xs[2]));
        assert!(stats.initial_candidates > 0);
    }

    #[test]
    fn label_only_filter_keeps_all_structurally_possible_candidates() {
        let (g, xs, _, _) = g1();
        let p = follow_recom_pattern(CountingQuantifier::at_least(2));
        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let cands = build_candidates(&g, &rp, CandidateFilter::LabelOnly, &mut stats);
        assert!(cands.contains(0, xs[0]));
        assert!(cands.contains(0, xs[1]));
        assert!(cands.contains(0, xs[2]));
    }

    #[test]
    fn in_edge_requirements_prune_nodes_without_parents() {
        let (g, xs, vs, _) = g1();
        let p = follow_recom_pattern(CountingQuantifier::existential());
        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let cands = build_candidates(&g, &rp, CandidateFilter::QuantifierAware, &mut stats);
        // Pattern node 1 ("z": person followed by someone who recommends
        // Redmi) requires an incoming `follow` edge and an outgoing `recom`
        // edge: v4 has no recom edge, x1..x3 have no incoming follow edge.
        assert!(cands.contains(1, vs[0]));
        assert!(cands.contains(1, vs[2]));
        assert!(!cands.contains(1, vs[4]));
        assert!(!cands.contains(1, xs[0]));
    }

    #[test]
    fn label_universe_filter_is_exactly_nodes_with_label() {
        let (g, xs, vs, redmi) = g1();
        let p = follow_recom_pattern(CountingQuantifier::at_least(2));
        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let cands = build_candidates(&g, &rp, CandidateFilter::LabelUniverse, &mut stats);
        // Every person is a candidate for both person-labeled pattern nodes,
        // degree notwithstanding — that is what makes the sets stable under
        // edge updates.
        let mut all_people: Vec<NodeId> = xs.iter().chain(vs.iter()).copied().collect();
        all_people.sort_unstable();
        assert_eq!(cands.set(0), all_people.as_slice());
        assert_eq!(cands.set(1), all_people.as_slice());
        assert_eq!(cands.set(2), &[redmi]);
    }

    #[test]
    fn empty_candidate_sets_are_detectable() {
        let (g, _, _, _) = g1();
        let p = follow_recom_pattern(CountingQuantifier::at_least(10));
        let rp = ResolvedPattern::resolve(&p, &g).unwrap();
        let mut stats = MatchStats::new();
        let cands = build_candidates(&g, &rp, CandidateFilter::QuantifierAware, &mut stats);
        assert!(cands.any_empty());
    }

    #[test]
    fn candidate_set_operations() {
        let mut sets =
            CandidateSets::from_sorted_sets(vec![vec![NodeId::new(1), NodeId::new(3)], vec![]], 10);
        assert_eq!(sets.set(0), &[NodeId::new(1), NodeId::new(3)]);
        assert!(sets.contains(0, NodeId::new(3)));
        assert!(!sets.contains(0, NodeId::new(2)));
        assert_eq!(sets.rank(0, NodeId::new(3)), Some(1));
        assert_eq!(sets.rank(0, NodeId::new(2)), None);
        assert!(sets.any_empty());
        assert_eq!(sets.total(), 2);

        sets.replace_sorted(1, vec![NodeId::new(9)]);
        assert_eq!(sets.set(1), &[NodeId::new(9)]);
        assert!(sets.contains(1, NodeId::new(9)));
        assert!(!sets.any_empty());
        // Replacing keeps the bitmap in step: the old members are gone.
        sets.replace_sorted(0, vec![NodeId::new(2)]);
        assert!(sets.contains(0, NodeId::new(2)));
        assert!(!sets.contains(0, NodeId::new(3)));
    }

    #[test]
    fn bitmap_agrees_with_sorted_set_across_word_boundaries() {
        // Candidates straddling the 64-bit word boundary.
        let members: Vec<NodeId> = [0usize, 63, 64, 65, 127, 128, 199]
            .iter()
            .map(|&i| NodeId::new(i))
            .collect();
        let sets = CandidateSets::from_sorted_sets(vec![members.clone()], 200);
        for i in 0..200 {
            let v = NodeId::new(i);
            assert_eq!(sets.contains(0, v), members.contains(&v), "node {i}");
        }
    }
}
