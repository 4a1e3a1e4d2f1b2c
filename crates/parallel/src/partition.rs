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
//! PTAS of Chekuri–Khanna with a greedy value/weight packing (documented in
//! DESIGN.md); the balance it achieves is measured and reported as the *skew*
//! statistic, mirroring the paper's Exp-2.
//!
//! All bookkeeping is flat and `NodeId`-indexed: the node → fragment
//! assignment is a dense vector, each fragment's replicated-node set is a
//! bitmap, and the per-node neighborhood scans run on the shared
//! [`qgp_runtime::Runtime`] executor with one epoch-marked BFS scratch per
//! worker thread — no hash maps anywhere on the partitioning path.

use qgp_graph::{d_hop_nodes_with, BfsScratch, DenseBitSet, Fragment, FragmentId, Graph, NodeId};
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
}

/// A d-hop preserving partition of a graph.
#[derive(Debug, Clone)]
pub struct DHopPartition {
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

/// Builds a d-hop preserving partition of `graph` (`DPar`) on the global
/// runtime (`QGP_THREADS`).
pub fn dpar(graph: &Graph, config: &PartitionConfig) -> DHopPartition {
    dpar_with(graph, config, Runtime::global())
}

/// Builds a d-hop preserving partition of `graph` (`DPar`) on an explicit
/// executor.
///
/// The per-node neighborhood expansion — the dominant cost — is scheduled as
/// stealable node-range tasks on the runtime (the parallel scalability claim
/// of Lemma 8): a worker that finishes its nodes steals from whichever range
/// still holds expensive hub neighborhoods, and every worker reuses one
/// [`BfsScratch`] across all nodes it executes.
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
    // Dense node → base-fragment assignment (every node gets one).
    let mut fragment_of_node: Vec<u32> = vec![0; total_nodes];
    for (i, &v) in visit_order.iter().enumerate() {
        let f = (i / chunk).min(n - 1);
        base_of_fragment[f].push(v);
        fragment_of_node[v.index()] = f as u32;
    }

    // ---- Step 2: border-node discovery + neighborhood computation ------
    // For each node, determine whether its d-hop neighborhood stays within
    // its base fragment; if not it is a border node and its neighborhood
    // must be shipped somewhere.  Scheduled as stealable node tasks on the
    // shared executor (fragment-major, so initial ranges align with
    // fragments), each worker reusing one BFS scratch across every node it
    // executes.  Outputs come back in index order, keeping the partition
    // deterministic for any thread count.
    let mut home_covered: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut border: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    {
        let flat: Vec<(u32, NodeId)> = base_of_fragment
            .iter()
            .enumerate()
            .flat_map(|(f, base)| base.iter().map(move |&v| (f as u32, v)))
            .collect();
        let fragment_of_node = &fragment_of_node;
        let outcome = runtime.map_with(
            flat.len(),
            || BfsScratch::for_graph(graph),
            |scratch, i| {
                let (f, v) = flat[i];
                let nd = d_hop_nodes_with(graph, v, d, scratch);
                let local = nd.iter().all(|w| fragment_of_node[w.index()] == f);
                if local {
                    None
                } else {
                    Some(nd)
                }
            },
        );
        for (i, scan) in outcome.outputs.into_iter().enumerate() {
            let (f, v) = flat[i];
            match scan {
                None => home_covered[f as usize].push(v),
                Some(nd) => border.push((v, nd)),
            }
        }
    }
    let border_count = border.len();

    // ---- Step 3: Multiple-Knapsack style assignment ---------------------
    // Each border node is an item of weight |N_d(v)|; each fragment is a
    // knapsack with remaining capacity c·|V|/n − |F_i|.  We greedily place
    // light items first, preferring the fragment that already holds most of
    // the neighborhood (so the marginal weight is smallest).
    let capacity = ((config.capacity_factor * total_nodes as f64 / n as f64).ceil() as usize)
        .max(chunk);
    let mut extra_nodes: Vec<DenseBitSet> =
        (0..n).map(|_| DenseBitSet::new(total_nodes)).collect();
    let mut covered_by: Vec<Vec<NodeId>> = home_covered;
    let mut node_counts: Vec<usize> = base_of_fragment.iter().map(Vec::len).collect();

    border.sort_by_key(|(_, nd)| nd.len());
    let mut uncovered: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for (v, nd) in border {
        let mut best: Option<(usize, usize)> = None; // (added, fragment)
        for f in 0..n {
            let added = marginal_weight(&nd, f, &fragment_of_node, &extra_nodes[f]);
            if node_counts[f] + added <= capacity
                && best.is_none_or(|(b_added, _)| added < b_added)
            {
                best = Some((added, f));
            }
        }
        match best {
            Some((_, f)) => {
                assign_neighborhood(
                    &nd,
                    f,
                    &fragment_of_node,
                    &mut extra_nodes,
                    &mut node_counts,
                );
                covered_by[f].push(v);
            }
            None => uncovered.push((v, nd)),
        }
    }
    let covered_before_completion: usize = covered_by.iter().map(Vec::len).sum();

    // ---- Step 4: completion ---------------------------------------------
    // Remaining nodes are assigned to the fragment that keeps the estimated
    // sizes most even (the |F_max| − |F_min| balance measure of the paper),
    // ignoring the capacity so every node ends up covered somewhere.
    for (v, nd) in uncovered {
        let f = (0..n)
            .min_by_key(|&f| {
                node_counts[f] + marginal_weight(&nd, f, &fragment_of_node, &extra_nodes[f])
            })
            .expect("at least one fragment");
        assign_neighborhood(
            &nd,
            f,
            &fragment_of_node,
            &mut extra_nodes,
            &mut node_counts,
        );
        covered_by[f].push(v);
    }

    // ---- Step 5: materialize fragments ----------------------------------
    let fragments: Vec<Fragment> = (0..n)
        .map(|f| {
            let mut nodes: Vec<NodeId> = base_of_fragment[f].clone();
            nodes.extend(extra_nodes[f].iter().map(NodeId::new));
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
    let skew = if max == 0 { 1.0 } else { min as f64 / max as f64 };

    DHopPartition {
        fragments,
        d,
        stats: PartitionStats {
            fragment_node_counts,
            fragment_sizes,
            skew,
            covered_before_completion,
            total_nodes,
            border_nodes: border_count,
        },
    }
}

/// How many nodes of `nd` fragment `f` would have to replicate (nodes neither
/// based in `f` nor already replicated there).
#[inline]
fn marginal_weight(
    nd: &[NodeId],
    f: usize,
    fragment_of_node: &[u32],
    extra: &DenseBitSet,
) -> usize {
    nd.iter()
        .filter(|w| fragment_of_node[w.index()] != f as u32 && !extra.contains(w.index()))
        .count()
}

/// Adds the out-of-fragment part of a neighborhood to a fragment's extra
/// nodes and updates the size estimate.
fn assign_neighborhood(
    nd: &[NodeId],
    fragment: usize,
    fragment_of_node: &[u32],
    extra_nodes: &mut [DenseBitSet],
    node_counts: &mut [usize],
) {
    for &w in nd {
        if fragment_of_node[w.index()] != fragment as u32 && extra_nodes[fragment].insert(w.index()) {
            node_counts[fragment] += 1;
        }
    }
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
    use qgp_graph::{d_hop_nodes, GraphBuilder};
    use std::collections::HashSet;

    /// A ring of people with a few attribute nodes hanging off it.
    fn ring_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let people = b.add_nodes("person", n);
        for i in 0..n {
            b.add_edge(people[i], people[(i + 1) % n], "follow").unwrap();
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
                let p = dpar(&g, &PartitionConfig::new(n, d));
                assert_eq!(p.len(), n);
                assert!(!p.is_empty());
                assert_partition_invariants(&g, &p);
            }
        }
    }

    #[test]
    fn base_partition_is_roughly_balanced() {
        let g = ring_graph(60);
        let p = dpar(&g, &PartitionConfig::new(4, 1));
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
        let p = dpar(&g, &PartitionConfig::new(1, 2));
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
        let p = dpar(&g, &PartitionConfig::new(4, 1));
        assert_partition_invariants(&g, &p);
        assert!(p.stats().border_nodes > 0);
    }

    #[test]
    fn repeated_partitions_are_deterministic() {
        // Dense bookkeeping has no iteration-order entropy: two runs must
        // produce identical fragments and statistics.
        let g = ring_graph(35);
        let a = dpar(&g, &PartitionConfig::new(3, 2));
        let b = dpar(&g, &PartitionConfig::new(3, 2));
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
    fn empty_graph_partitions_without_panicking() {
        let g = Graph::new();
        let p = dpar(&g, &PartitionConfig::new(3, 2));
        assert_eq!(p.len(), 3);
        assert_eq!(p.stats().total_nodes, 0);
    }
}
