//! `DPar`: d-hop preserving, balanced graph partition (Section 5.2).
//!
//! A d-hop preserving partition distributes a graph `G` over `n` workers such
//! that
//!
//! 1. **balance** — every fragment's size stays within a constant factor `c`
//!    of `|G| / n`, and
//! 2. **covering** — for every node `v` that the partition covers, *some*
//!    fragment contains the whole d-hop neighborhood `N_d(v)`, so matches of
//!    patterns with radius ≤ d anchored at `v` can be found locally, without
//!    inter-fragment communication.
//!
//! `DPar` proceeds exactly like the paper's algorithm: a balanced base
//! partition, discovery of border nodes (whose `N_d` is not local),
//! assignment of their neighborhoods to fragments via a Multiple-Knapsack
//! style packing, and a completion step that covers the remaining nodes while
//! minimizing the size imbalance.  The Multiple-Knapsack step substitutes the
//! PTAS of Chekuri–Khanna with a greedy light-first packing; the balance it
//! achieves is measured and reported as the *skew* statistic, mirroring the
//! paper's Exp-2.
//!
//! No ball `N_d(v)` is ever stored.  Each fragment keeps its node set
//! `have = base ∪ replicated` with the **d-fold erosion** of that set
//! (`Erosion` below): level 0 is `have`, level `k` the nodes whose closed
//! neighborhood lies inside level `k − 1`, so `N_d(v) ⊆ have` exactly when
//! level `d` holds `v` — one array read, kept current under insertion in time
//! linear in the edges.  A ball is therefore visited only
//!
//! * once per **border node**, counting, for the `|N_d(v)|` packing key —
//!   stealable tasks on the shared [`qgp_runtime::Runtime`] executor.  The
//!   count is exact but is no [`BfsScratch`] run: `BallCounter` marks
//!   bitsets and ORs in a precomputed row wherever the ball reaches a hub,
//!   instead of rescanning the hub's neighbourhood in every ball that holds
//!   it.  A node whose ball is inside its base chunk is never visited, so a
//!   1-fragment or d-hop-closed partition counts nothing;
//! * once more, by a [`BfsScratch`] visit, for a border node that fits the
//!   capacity but is inside no fragment's erosion at its turn: the visit
//!   counts what each fragment would replicate and the chosen one takes the
//!   ball from the visitor;
//! * once per node of the completion phase, which needs every exact count —
//!   unless a fragment that already holds the ball is the smallest by bounds.
//!
//! All bookkeeping is flat and `NodeId`-indexed — no hash maps anywhere on
//! the partitioning path, [`Fragment::build`] included, and no fragment
//! copies the graph: a fragment is a node set and its covered nodes, and a
//! partitioned execution decides each covered node on the snapshot it runs
//! on, so its answer is `Q(x_o, snapshot)` on the covered nodes.

use qgp_graph::{BfsScratch, Fragment, FragmentId, Graph, NodeId};
use qgp_runtime::Runtime;

/// Configuration of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of fragments / workers `n`.
    pub num_fragments: usize,
    /// The hop bound `d`; queries with radius ≤ d can be answered locally.
    pub d: usize,
    /// Capacity factor `c`: a fragment may grow to `c · |V| / n` nodes during
    /// the knapsack phase (the completion phase may exceed it to guarantee
    /// completeness, as in the paper).
    pub capacity_factor: f64,
}

impl PartitionConfig {
    /// A partition over `n` workers preserving `d` hops with the default
    /// capacity factor 2.0.
    pub fn new(num_fragments: usize, d: usize) -> Self {
        PartitionConfig {
            num_fragments,
            d,
            capacity_factor: 2.0,
        }
    }
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig::new(4, 2)
    }
}

/// Summary statistics of a built partition, mirroring the quantities the
/// paper reports in Exp-2 (balance/skew, coverage).
#[derive(Debug, Clone, Default)]
pub struct PartitionStats {
    /// Number of nodes per fragment (including replicated neighborhood nodes).
    pub fragment_node_counts: Vec<usize>,
    /// Fragment sizes measured as nodes + edges.
    pub fragment_sizes: Vec<usize>,
    /// Ratio of the smallest fragment size to the largest ("skew"; the paper
    /// reports ≥ 0.8 for its datasets).
    pub skew: f64,
    /// Nodes covered during the knapsack phase (before completion).
    pub covered_before_completion: usize,
    /// Total number of graph nodes (every one is covered after completion).
    pub total_nodes: usize,
    /// Number of border nodes whose d-hop neighborhood crossed the base
    /// partition.
    pub border_nodes: usize,
    /// Balls sized for the packing key (one per border node).
    pub balls_sized: usize,
    /// Bounded BFS runs that weighed a ball against every fragment (in the
    /// knapsack and the completion phase; at most two per border node).
    pub balls_weighed: usize,
}

/// A d-hop preserving partition of a graph: the fragments that plan a
/// partitioned execution's tasks, and the graph they were cut from.
#[derive(Debug, Clone)]
pub struct DHopPartition {
    /// The graph the partition was built from — a clone sharing its arrays
    /// — which [`crate::pqmatch_on`] runs on.
    pub(crate) graph: Graph,
    fragments: Vec<Fragment>,
    d: usize,
    stats: PartitionStats,
}

impl DHopPartition {
    /// The fragments, one per worker.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// The hop bound this partition preserves.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Partition statistics.
    pub fn stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True when the partition has no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// The node sets `have_f` of all `n` fragments of one graph, each with its
/// d-fold erosion, kept current under insertion.
///
/// `cnt` holds `d + 1` levels of one counter per (node, fragment), the `n`
/// counters of a node adjacent; a node is *in* a level of `f` when its
/// counter there is 0.  Level 0 is 1 outside `have_f`; level `k ≥ 1` counts
/// the closed-neighborhood slots of `x` — `x` itself plus every entry of its
/// out- and in-neighbor slices, with multiplicity — outside level `k − 1`,
/// so by induction level `k` of `f` is `{x : N_k(x) ⊆ have_f}`.  A node
/// joins each level of a fragment once and then decrements one counter per
/// slot: all insertions together cost `O(n · d · |E|)`.
struct Erosion {
    cnt: Vec<u32>,
    n: usize,
    nodes: usize,
    d: usize,
    work: Vec<(NodeId, usize)>,
}

impl Erosion {
    /// The erosions of `n` empty sets over `graph`.
    fn new(graph: &Graph, n: usize, d: usize) -> Self {
        let nodes = graph.node_count();
        let mut cnt = vec![1; nodes * n];
        for _ in 0..d {
            cnt.extend(graph.nodes().flat_map(|x| {
                let slots = 1 + graph.out_degree(x) + graph.in_degree(x);
                std::iter::repeat_n(slots as u32, n)
            }));
        }
        Erosion {
            cnt,
            n,
            nodes,
            d,
            work: Vec::new(),
        }
    }

    /// One counter per fragment, 0 where level `k` of that fragment holds `x`.
    #[inline]
    fn level(&self, k: usize, x: NodeId) -> &[u32] {
        &self.cnt[(k * self.nodes + x.index()) * self.n..][..self.n]
    }

    /// Is `w` in `have_f`?
    #[inline]
    fn contains(&self, f: usize, w: NodeId) -> bool {
        self.level(0, w)[f] == 0
    }

    /// The lowest fragment with `N_d(v) ⊆ have_f`, if any.
    #[inline]
    fn first_inside(&self, v: NodeId) -> Option<usize> {
        self.level(self.d, v).iter().position(|&c| c == 0)
    }

    /// Adds `w` to `have_f`, cascading it through the levels; false if it
    /// was already there.
    fn insert(&mut self, graph: &Graph, f: usize, w: NodeId) -> bool {
        if self.contains(f, w) {
            return false;
        }
        self.cnt[w.index() * self.n + f] = 0;
        self.work.push((w, 0));
        // Invariant: `(x, k)` on the worklist means x just joined level k.
        while let Some((x, k)) = self.work.pop() {
            if k == self.d {
                continue;
            }
            let next = &mut self.cnt[(k + 1) * self.nodes * self.n..];
            for &y in std::iter::once(&x)
                .chain(graph.out_neighbors_slice(x))
                .chain(graph.in_neighbors_slice(x))
            {
                let c = &mut next[y.index() * self.n + f];
                *c -= 1;
                if *c == 0 {
                    self.work.push((y, k + 1));
                }
            }
        }
        true
    }
}

/// Exact ball sizes `|N_d(v)|` over one graph: DPar's packing key.
///
/// A visit marks nodes in dense bitsets of `V` bits.  A node whose
/// undirected degree exceeds the `⌈V/64⌉` words of such a bitset is a
/// *hub*; for each hub the counter stores, once, one row per radius
/// `k ∈ 1..d`: the bitset of `N_k(hub)`.  A node within `d` hops of `v`
/// on a shortest path through a hub `h` at distance `k < d` lies in
/// `N_{d−k}(h)`, so the visit ORs that row into the ball instead of
/// expanding `h`; paths that pass no hub are followed slot by slot from
/// `v`, hub or not, as [`BfsScratch::visit_ball`] does.  The two parts keep
/// two bitsets: `seen`, the breadth-first visit over hub-free paths, whose
/// marks fix each node's distance, and `ball`, the union of the rows — a
/// node a row covers may lie nearer on a hub-free path and must still be
/// expanded from there.  `|N_d(v)|` is the popcount of their union.
///
/// An OR costs `⌈V/64⌉` words: less than scanning the hub's slots, let
/// alone the radius-`k` visit the row replaces in every ball that reaches
/// the hub — on a power-law graph the same few hubs sit in almost every
/// ball.  The floor is the same `⌈V/64⌉` words twice per ball (clearing
/// both bitsets, then the popcount), far below the visit of the balls a
/// border node has on every dataset here.  The rows are read-only and
/// shared by every worker, each of which owns one [`BallScratch`].
struct BallCounter<'g> {
    graph: &'g Graph,
    d: usize,
    words: usize,
    /// `hub_of[v]`: `v`'s index among the hubs, [`NOT_HUB`] for other nodes.
    hub_of: Vec<u32>,
    /// Hub `h`'s row for radius `k` starts at word `(h · (d − 1) + k − 1) ·
    /// words`.
    rows: Vec<u64>,
}

const NOT_HUB: u32 = u32::MAX;

/// One worker's visit state: the two bitsets and two frontier levels.
struct BallScratch {
    seen: Vec<u64>,
    ball: Vec<u64>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl<'g> BallCounter<'g> {
    /// Finds the hubs of `graph` and builds their rows.
    fn new(graph: &'g Graph, d: usize) -> Self {
        let words = graph.node_count().div_ceil(64);
        let mut hub_of = vec![NOT_HUB; graph.node_count()];
        let mut rows = Vec::new();
        let mut bfs = BfsScratch::for_graph(graph);
        let mut hubs = 0;
        for h in graph.nodes() {
            if graph.out_degree(h) + graph.in_degree(h) <= words {
                continue;
            }
            hub_of[h.index()] = hubs;
            hubs += 1;
            for k in 1..d {
                let start = rows.len();
                rows.resize(start + words, 0);
                let row = &mut rows[start..];
                bfs.visit_ball(graph, &[h], k, false, |w, _| {
                    row[w.index() / 64] |= 1 << (w.index() % 64);
                });
            }
        }
        BallCounter {
            graph,
            d,
            words,
            hub_of,
            rows,
        }
    }

    fn scratch(&self) -> BallScratch {
        BallScratch {
            seen: vec![0; self.words],
            ball: vec![0; self.words],
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// `N_k(h)` of hub number `h`, `1 ≤ k < d`.
    fn row(&self, h: u32, k: usize) -> &[u64] {
        let at = (h as usize * (self.d - 1) + k - 1) * self.words;
        &self.rows[at..at + self.words]
    }

    /// `|N_d(v)|`.
    fn size(&self, scratch: &mut BallScratch, v: NodeId) -> usize {
        let BallScratch {
            seen,
            ball,
            frontier,
            next,
        } = scratch;
        seen.fill(0);
        ball.fill(0);
        seen[v.index() / 64] |= 1 << (v.index() % 64);
        frontier.clear();
        frontier.push(v);
        for dist in 1..=self.d {
            let last = dist == self.d;
            next.clear();
            for &u in frontier.iter() {
                let slots = self.graph.out_neighbors_slice(u).iter();
                for &w in slots.chain(self.graph.in_neighbors_slice(u)) {
                    let (word, bit) = (&mut seen[w.index() / 64], 1 << (w.index() % 64));
                    // The last level only marks: no test, no branch.
                    if !last && *word & bit == 0 {
                        match self.hub_of[w.index()] {
                            NOT_HUB => next.push(w),
                            h => {
                                let row = self.row(h, self.d - dist);
                                ball.iter_mut().zip(row).for_each(|(b, &r)| *b |= r);
                            }
                        }
                    }
                    *word |= bit;
                }
            }
            std::mem::swap(frontier, next);
            if frontier.is_empty() {
                break;
            }
        }
        let union = seen.iter().zip(ball.iter()).map(|(s, b)| s | b);
        union.map(|w| w.count_ones() as usize).sum()
    }
}

/// Builds a d-hop preserving partition of `graph` (`DPar`) on `runtime`
/// (pass [`Runtime::global`] for the process-wide executor).
///
/// Sizing the border nodes' neighborhoods — the dominant cost — runs as
/// stealable node-range tasks on the runtime (the parallel scalability claim
/// of Lemma 8): a worker that finishes its nodes steals from whichever range
/// still holds expensive hub neighborhoods.
pub fn dpar_with(graph: &Graph, config: &PartitionConfig, runtime: &Runtime) -> DHopPartition {
    let n = config.num_fragments.max(1);
    let d = config.d;
    let total_nodes = graph.node_count();

    // ---- Step 1: balanced base partition -------------------------------
    // BFS-chunking: traverse the graph breadth-first (restarting across
    // components) and cut the visit order into n equal chunks.  This keeps
    // neighborhoods mostly local, which minimizes later replication, and is
    // the stand-in for the off-the-shelf balanced partitioner the paper
    // plugs in.
    let visit_order = bfs_visit_order(graph);
    let chunk = total_nodes.div_ceil(n).max(1);
    let mut base_of_fragment: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut have = Erosion::new(graph, n, d);
    for (i, &v) in visit_order.iter().enumerate() {
        let f = (i / chunk).min(n - 1);
        base_of_fragment[f].push(v);
        have.insert(graph, f, v);
    }

    // ---- Step 2: border-node discovery + neighborhood sizing -----------
    // A node whose d-hop neighborhood stays within its base fragment is
    // covered at home — read off the erosion of the base chunk.  Every other
    // node is a border node whose neighborhood must be shipped somewhere;
    // only those are sized, as stealable tasks on the shared executor whose
    // outputs come back in index order (fragment-major), keeping the
    // partition deterministic for any thread count.
    let mut covered_by: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut border: Vec<NodeId> = Vec::new();
    for (f, base) in base_of_fragment.iter().enumerate() {
        for &v in base {
            if have.level(d, v)[f] == 0 {
                covered_by[f].push(v);
            } else {
                border.push(v);
            }
        }
    }
    // The hub rows are built only when some ball needs sizing.
    let sizes = if border.is_empty() {
        Vec::new()
    } else {
        let counter = BallCounter::new(graph, d);
        let sized = runtime.map_with(
            border.len(),
            || counter.scratch(),
            |scratch, i| counter.size(scratch, border[i]),
        );
        sized.outputs
    };
    let mut border: Vec<(NodeId, usize)> = border.into_iter().zip(sizes).collect();
    let border_count = border.len();
    let mut balls_weighed = 0;

    // ---- Step 3: Multiple-Knapsack style assignment ---------------------
    // Each border node is an item of weight |N_d(v)|; each fragment is a
    // knapsack with remaining capacity c·|V|/n − |F_i|.  We greedily place
    // light items first, preferring the fragment that already holds most of
    // the neighborhood (so the marginal weight is smallest), the lowest
    // index on ties.
    let capacity =
        ((config.capacity_factor * total_nodes as f64 / n as f64).ceil() as usize).max(chunk);
    let mut node_counts: Vec<usize> = base_of_fragment.iter().map(Vec::len).collect();
    let mut scratch = BfsScratch::for_graph(graph);
    let mut added = vec![0usize; n];

    border.sort_by_key(|&(_, size)| size);
    let mut uncovered: Vec<(NodeId, usize)> = Vec::new();
    for (v, size) in border {
        // |have_f ∪ N_d(v)| ≥ |N_d(v)|: an oversize ball fits no fragment.
        if size > capacity {
            uncovered.push((v, size));
            continue;
        }
        // A fragment that already holds the ball adds nothing, and it is
        // within capacity because every fragment is throughout this phase.
        if let Some(f) = have.first_inside(v) {
            covered_by[f].push(v);
            continue;
        }
        balls_weighed += 1;
        weigh(graph, v, d, &have, &mut scratch, &mut added);
        let best = (0..n)
            .filter(|&f| node_counts[f] + added[f] <= capacity)
            .min_by_key(|&f| added[f]);
        match best {
            Some(f) => {
                node_counts[f] += assign(graph, &mut have, f, &scratch);
                covered_by[f].push(v);
            }
            None => uncovered.push((v, size)),
        }
    }
    let covered_before_completion: usize = covered_by.iter().map(Vec::len).sum();

    // ---- Step 4: completion ---------------------------------------------
    // Remaining nodes are assigned to the fragment that keeps the estimated
    // sizes most even (the |F_max| − |F_min| balance measure of the paper),
    // ignoring the capacity so every node ends up covered somewhere.
    for (v, size) in uncovered {
        // The resulting size |have_f ∪ N_d(v)| is |have_f| for a fragment
        // that already holds the ball and at least max(|have_f| + 1, |N_d(v)|)
        // for one that does not: when the first minimum of these bounds is
        // exact, it is the first minimum of the sizes too and nothing is
        // visited.
        let holds = have.level(d, v);
        let bound = |f: usize| match holds[f] {
            0 => node_counts[f],
            _ => (node_counts[f] + 1).max(size),
        };
        let f = (0..n)
            .min_by_key(|&f| bound(f))
            .expect("at least one fragment");
        if holds[f] == 0 {
            covered_by[f].push(v);
            continue;
        }
        balls_weighed += 1;
        weigh(graph, v, d, &have, &mut scratch, &mut added);
        let f = (0..n)
            .min_by_key(|&f| node_counts[f] + added[f])
            .expect("at least one fragment");
        node_counts[f] += assign(graph, &mut have, f, &scratch);
        covered_by[f].push(v);
    }

    // ---- Step 5: the fragments' node sets --------------------------------
    let fragments: Vec<Fragment> = (0..n)
        .map(|f| {
            let nodes: Vec<NodeId> = graph.nodes().filter(|&w| have.contains(f, w)).collect();
            Fragment::build(
                FragmentId(f as u32),
                graph,
                &nodes,
                covered_by[f].iter().copied(),
            )
        })
        .collect();

    let fragment_sizes: Vec<usize> = fragments.iter().map(Fragment::size).collect();
    let fragment_node_counts: Vec<usize> = fragments.iter().map(Fragment::node_count).collect();
    let max = fragment_sizes.iter().copied().max().unwrap_or(0);
    let min = fragment_sizes.iter().copied().min().unwrap_or(0);
    let skew = if max == 0 {
        1.0
    } else {
        min as f64 / max as f64
    };

    DHopPartition {
        graph: graph.clone(),
        fragments,
        d,
        stats: PartitionStats {
            fragment_node_counts,
            fragment_sizes,
            skew,
            covered_before_completion,
            total_nodes,
            border_nodes: border_count,
            balls_sized: border_count,
            balls_weighed,
        },
    }
}

/// Visits `N_d(v)` once, leaving in `added[f]` how many of its nodes fragment
/// `f` would have to replicate and the ball itself in `scratch.visited()`.
fn weigh(
    graph: &Graph,
    v: NodeId,
    d: usize,
    have: &Erosion,
    scratch: &mut BfsScratch,
    added: &mut [usize],
) {
    added.fill(0);
    scratch.visit_ball(graph, &[v], d, true, |w, _| {
        for (a, &outside) in added.iter_mut().zip(have.level(0, w)) {
            *a += outside as usize;
        }
    });
}

/// Adds the ball the last [`weigh`] left in `scratch` to a fragment's node
/// set and returns how many nodes were new to it.
fn assign(graph: &Graph, have: &mut Erosion, f: usize, scratch: &BfsScratch) -> usize {
    scratch
        .visited()
        .iter()
        .filter(|&&w| have.insert(graph, f, w))
        .count()
}

/// Visits every node breadth-first, restarting for each weakly connected
/// component, and returns the visit order.
fn bfs_visit_order(graph: &Graph) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(graph.node_count());
    let mut seen = vec![false; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    for start in graph.nodes() {
        if seen[start.index()] {
            continue;
        }
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in graph
                .out_neighbors_slice(v)
                .iter()
                .chain(graph.in_neighbors_slice(v))
            {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qgp_graph::{d_hop_nodes, GraphBuilder};
    use qgp_testkit::{graph_spec, RS};
    use std::collections::HashSet;

    /// A ring of people with a few attribute nodes hanging off it.
    fn ring_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let people = b.add_nodes("person", n);
        for i in 0..n {
            b.add_edge(people[i], people[(i + 1) % n], "follow")
                .unwrap();
        }
        let item = b.add_node("item");
        for i in (0..n).step_by(3) {
            b.add_edge(people[i], item, "like").unwrap();
        }
        b.build()
    }

    fn assert_partition_invariants(graph: &Graph, partition: &DHopPartition) {
        let d = partition.d();
        // Every node is covered by exactly the fragments that claim it, and
        // a covering fragment contains the node's whole d-hop neighborhood.
        let mut covered: HashSet<NodeId> = HashSet::new();
        for frag in partition.fragments() {
            for v in frag.covered_nodes() {
                covered.insert(v);
                for w in d_hop_nodes(graph, v, d) {
                    assert!(
                        frag.contains(w),
                        "fragment {:?} covers {:?} but misses {:?} from its {d}-hop neighborhood",
                        frag.id(),
                        v,
                        w
                    );
                }
            }
        }
        assert_eq!(
            covered.len(),
            graph.node_count(),
            "every node must be covered by some fragment"
        );
    }

    #[test]
    fn partition_covers_every_node_ring() {
        let g = ring_graph(40);
        for n in [1, 2, 4, 7] {
            for d in [1, 2] {
                let p = dpar_with(&g, &PartitionConfig::new(n, d), Runtime::global());
                assert_eq!(p.len(), n);
                assert!(!p.is_empty());
                assert_partition_invariants(&g, &p);
            }
        }
    }

    #[test]
    fn base_partition_is_roughly_balanced() {
        let g = ring_graph(60);
        let p = dpar_with(&g, &PartitionConfig::new(4, 1), Runtime::global());
        let stats = p.stats();
        assert_eq!(stats.total_nodes, 61);
        assert_eq!(stats.fragment_sizes.len(), 4);
        // The ring is easy to balance: skew should be reasonable.
        assert!(stats.skew > 0.3, "skew = {}", stats.skew);
        // Fragment node counts are recorded for every fragment.
        assert_eq!(stats.fragment_node_counts.len(), 4);
    }

    #[test]
    fn single_fragment_partition_covers_everything_trivially() {
        let g = ring_graph(10);
        let p = dpar_with(&g, &PartitionConfig::new(1, 2), Runtime::global());
        assert_eq!(p.len(), 1);
        let frag = &p.fragments()[0];
        assert_eq!(frag.node_count(), g.node_count());
        assert_eq!(frag.covered_count(), g.node_count());
        assert!((p.stats().skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hub_graph_still_gets_fully_covered() {
        // A star: the hub's 1-hop neighborhood is the whole graph, stressing
        // the completion phase (this is the "high degree node" case the
        // paper calls out against the n-hop-guarantee partition of [22]).
        let mut b = GraphBuilder::new();
        let hub = b.add_node("person");
        let leaves = b.add_nodes("person", 30);
        for &l in &leaves {
            b.add_edge(hub, l, "follow").unwrap();
        }
        let g = b.build();
        let p = dpar_with(&g, &PartitionConfig::new(4, 1), Runtime::global());
        assert_partition_invariants(&g, &p);
        assert!(p.stats().border_nodes > 0);
    }

    #[test]
    fn repeated_partitions_are_deterministic() {
        // Dense bookkeeping has no iteration-order entropy: two runs must
        // produce identical fragments and statistics.
        let g = ring_graph(35);
        let a = dpar_with(&g, &PartitionConfig::new(3, 2), Runtime::global());
        let b = dpar_with(&g, &PartitionConfig::new(3, 2), Runtime::global());
        assert_eq!(a.stats().fragment_sizes, b.stats().fragment_sizes);
        assert_eq!(
            a.stats().covered_before_completion,
            b.stats().covered_before_completion
        );
        for (fa, fb) in a.fragments().iter().zip(b.fragments()) {
            assert_eq!(fa.node_count(), fb.node_count());
            let ca: Vec<_> = fa.covered_nodes().collect();
            let cb: Vec<_> = fb.covered_nodes().collect();
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn partition_is_identical_for_every_thread_count() {
        // The runtime returns scan results in index order, so the partition
        // must not depend on how many executor threads ran or what they
        // stole.
        let g = ring_graph(50);
        let reference = dpar_with(&g, &PartitionConfig::new(3, 2), &Runtime::new(1));
        for threads in [2, 4] {
            let p = dpar_with(&g, &PartitionConfig::new(3, 2), &Runtime::new(threads));
            assert_eq!(p.stats().fragment_sizes, reference.stats().fragment_sizes);
            assert_eq!(p.stats().border_nodes, reference.stats().border_nodes);
            for (fa, fb) in p.fragments().iter().zip(reference.fragments()) {
                let ca: Vec<_> = fa.covered_nodes().collect();
                let cb: Vec<_> = fb.covered_nodes().collect();
                assert_eq!(ca, cb, "threads = {threads}");
            }
        }
    }

    #[test]
    fn a_bfs_runs_only_for_border_nodes() {
        // Clock-free guard for the near-linearity of `dpar_with`: one sizing run
        // per border node, at most two weighing runs, none at all when the
        // base chunks are already d-hop closed — for any thread count.
        let g = ring_graph(50);
        for n in [1, 2, 3, 7] {
            for d in [1, 2, 3] {
                let config = PartitionConfig::new(n, d);
                let stats = dpar_with(&g, &config, &Runtime::new(1)).stats().clone();
                assert_eq!(stats.balls_sized, stats.border_nodes, "n = {n}, d = {d}");
                assert!(
                    stats.balls_weighed <= 2 * stats.border_nodes,
                    "n = {n}, d = {d}"
                );
                if n == 1 {
                    assert_eq!((stats.balls_sized, stats.balls_weighed), (0, 0));
                } else {
                    assert!(stats.border_nodes > 0);
                }
                for threads in [2, 4] {
                    let other = dpar_with(&g, &config, &Runtime::new(threads));
                    assert_eq!(other.stats().balls_sized, stats.balls_sized);
                    assert_eq!(other.stats().balls_weighed, stats.balls_weighed);
                }
            }
        }
    }

    #[test]
    fn erosion_tracks_ball_containment_under_any_insert_sequence() {
        // Hubs, a self-loop, a node pair joined under two labels and in both
        // directions, isolated nodes; nodes join the two sets in a scrambled
        // order and after every insert `N_d(v) ⊆ have_f ⇔ level d holds v`.
        let mut b = GraphBuilder::new();
        let v = b.add_nodes("person", 24);
        for i in 0..20 {
            b.add_edge(v[i], v[(i * 7 + 3) % 20], "follow").unwrap();
            b.add_edge(v[i % 2], v[i], "like").unwrap();
        }
        b.add_edge(v[5], v[5], "follow").unwrap();
        b.add_edge(v[6], v[7], "like").unwrap();
        b.add_edge(v[6], v[7], "follow").unwrap();
        b.add_edge(v[7], v[6], "like").unwrap();
        let g = b.build();
        for d in 0..4 {
            let mut erosion = Erosion::new(&g, 2, d);
            let mut have = [HashSet::new(), HashSet::new()];
            for i in 0..2 * v.len() {
                let (f, w) = (i % 2, v[(i * 11 + i / 5) % v.len()]);
                assert_eq!(erosion.insert(&g, f, w), have[f].insert(w));
                for &x in &v {
                    let inside = d_hop_nodes(&g, x, d).iter().all(|y| have[f].contains(y));
                    assert_eq!(
                        erosion.level(d, x)[f] == 0,
                        inside,
                        "d = {d}, step {i}, {x:?}"
                    );
                    assert_eq!(erosion.contains(f, x), have[f].contains(&x));
                }
            }
            for &w in &v {
                erosion.insert(&g, 1, w);
                have[1].insert(w);
            }
            for &x in &v {
                let ball = d_hop_nodes(&g, x, d);
                let lowest = (0..2).find(|&f| ball.iter().all(|y| have[f].contains(y)));
                assert_eq!(erosion.first_inside(x), lowest);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bitset counter sizes every ball exactly as `visit_ball` does,
        /// on kit graphs plus isolated nodes and a hub joined to every
        /// `stride`-th node (itself included: a self-loop), which is always
        /// above the row threshold.
        #[test]
        fn ball_counter_equals_visit_ball(
            spec in graph_spec(1..200, RS),
            isolated in 1usize..4,
            stride in 2usize..5,
        ) {
            let (mut b, ids) = spec.builder();
            b.add_nodes("A", isolated);
            for &w in ids.iter().step_by(stride) {
                b.add_edge_dedup(ids[0], w, RS[0]).unwrap();
            }
            let g = b.build();
            let mut bfs = BfsScratch::for_graph(&g);
            for d in 0..4 {
                let counter = BallCounter::new(&g, d);
                prop_assert!(counter.hub_of[ids[0].index()] != NOT_HUB);
                let mut scratch = counter.scratch();
                for v in g.nodes() {
                    let mut want = 0;
                    bfs.visit_ball(&g, &[v], d, false, |_, _| want += 1);
                    prop_assert_eq!(counter.size(&mut scratch, v), want, "{:?} d = {}", v, d);
                }
            }
        }
    }

    #[test]
    fn empty_graph_partitions_without_panicking() {
        let g = GraphBuilder::new().build();
        let p = dpar_with(&g, &PartitionConfig::new(3, 2), Runtime::global());
        assert_eq!(p.len(), 3);
        assert_eq!(p.stats().total_nodes, 0);
    }
}
