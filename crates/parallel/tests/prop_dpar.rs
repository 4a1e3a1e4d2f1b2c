//! `dpar_with` against the stored-ball algorithm it replaced.
//!
//! `dpar_reference` is the partitioner as it was before balls stopped being
//! stored: one materialised `N_d(v)` per border node, `marginal_weight`
//! re-scanning it per fragment, `assign_neighborhood` re-scanning it once
//! more.  The production partitioner must make the same decisions — hence
//! return the same fragments, node for node — on random graphs with hubs,
//! isolated nodes, self-loops, parallel edges under several labels and a
//! pending delta overlay.

use proptest::prelude::*;

use qgp_graph::{d_hop_nodes, EdgeOp, Graph, GraphBuilder, NodeId};
use qgp_parallel::{dpar_with, PartitionConfig};
use qgp_runtime::Runtime;

const EDGE_LABELS: &[&str] = &["r", "s", "t"];
const FRAGMENTS: &[usize] = &[1, 2, 3, 4, 7];
const CAPACITY_FACTORS: &[f64] = &[1.0, 1.2, 2.0];

/// What a partition is compared by: per fragment the sorted node list and
/// the covered list, then sizes, border count and knapsack coverage.
#[derive(Debug, PartialEq)]
struct Outcome {
    fragments: Vec<(Vec<NodeId>, Vec<NodeId>)>,
    fragment_sizes: Vec<usize>,
    border_nodes: usize,
    covered_before_completion: usize,
}

fn bfs_visit_order(graph: &Graph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; graph.node_count()];
    for start in graph.nodes() {
        if std::mem::replace(&mut seen[start.index()], true) {
            continue;
        }
        order.push(start);
        let mut next = order.len() - 1;
        while next < order.len() {
            let v = order[next];
            next += 1;
            for &w in graph
                .out_neighbors_slice(v)
                .iter()
                .chain(graph.in_neighbors_slice(v))
            {
                if !std::mem::replace(&mut seen[w.index()], true) {
                    order.push(w);
                }
            }
        }
    }
    order
}

fn dpar_reference(graph: &Graph, config: &PartitionConfig) -> Outcome {
    let (n, d, total) = (config.num_fragments.max(1), config.d, graph.node_count());
    let chunk = total.div_ceil(n).max(1);
    let mut base: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut home = vec![0usize; total];
    for (i, &v) in bfs_visit_order(graph).iter().enumerate() {
        home[v.index()] = (i / chunk).min(n - 1);
        base[home[v.index()]].push(v);
    }
    let mut covered_by: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut border: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for (f, nodes) in base.iter().enumerate() {
        for &v in nodes {
            let nd = d_hop_nodes(graph, v, d);
            if nd.iter().all(|w| home[w.index()] == f) {
                covered_by[f].push(v);
            } else {
                border.push((v, nd));
            }
        }
    }
    let border_nodes = border.len();
    let capacity = ((config.capacity_factor * total as f64 / n as f64).ceil() as usize).max(chunk);
    let mut extra = vec![vec![false; total]; n];
    let mut node_counts: Vec<usize> = base.iter().map(Vec::len).collect();
    let marginal_weight = |nd: &[NodeId], f: usize, extra: &[Vec<bool>]| {
        nd.iter()
            .filter(|w| home[w.index()] != f && !extra[f][w.index()])
            .count()
    };
    let assign_neighborhood =
        |nd: &[NodeId], f: usize, extra: &mut [Vec<bool>], node_counts: &mut [usize]| {
            for w in nd {
                if home[w.index()] != f && !std::mem::replace(&mut extra[f][w.index()], true) {
                    node_counts[f] += 1;
                }
            }
        };
    border.sort_by_key(|(_, nd)| nd.len());
    let mut uncovered = Vec::new();
    for (v, nd) in border {
        let mut best: Option<(usize, usize)> = None;
        for (f, &count) in node_counts.iter().enumerate() {
            let added = marginal_weight(&nd, f, &extra);
            if count + added <= capacity && best.is_none_or(|(b, _)| added < b) {
                best = Some((added, f));
            }
        }
        match best {
            Some((_, f)) => {
                assign_neighborhood(&nd, f, &mut extra, &mut node_counts);
                covered_by[f].push(v);
            }
            None => uncovered.push((v, nd)),
        }
    }
    let covered_before_completion = covered_by.iter().map(Vec::len).sum();
    for (v, nd) in uncovered {
        let f = (0..n)
            .min_by_key(|&f| node_counts[f] + marginal_weight(&nd, f, &extra))
            .expect("at least one fragment");
        assign_neighborhood(&nd, f, &mut extra, &mut node_counts);
        covered_by[f].push(v);
    }
    let mut fragments = Vec::new();
    let mut fragment_sizes = Vec::new();
    for f in 0..n {
        let mut nodes = base[f].clone();
        nodes.extend(graph.nodes().filter(|w| extra[f][w.index()]));
        nodes.sort_unstable();
        // Nodes plus the edges with both endpoints among them.
        let inside = |w: &&NodeId| nodes.binary_search(w).is_ok();
        let edges: usize = (nodes.iter())
            .map(|&v| graph.out_neighbors_slice(v).iter().filter(inside).count())
            .sum();
        fragment_sizes.push(nodes.len() + edges);
        covered_by[f].sort_unstable();
        fragments.push((nodes, std::mem::take(&mut covered_by[f])));
    }
    Outcome {
        fragments,
        fragment_sizes,
        border_nodes,
        covered_before_completion,
    }
}

fn outcome_of(graph: &Graph, config: &PartitionConfig, threads: usize) -> Outcome {
    let partition = dpar_with(graph, config, &Runtime::new(threads));
    let stats = partition.stats();
    assert_eq!(stats.balls_sized, stats.border_nodes);
    assert!(stats.balls_weighed <= 2 * stats.border_nodes);
    Outcome {
        fragments: partition
            .fragments()
            .iter()
            .map(|frag| (frag.nodes().to_vec(), frag.covered_nodes().collect()))
            .collect(),
        fragment_sizes: stats.fragment_sizes.clone(),
        border_nodes: stats.border_nodes,
        covered_before_completion: stats.covered_before_completion,
    }
}

/// A random graph description: `edges` may repeat a node pair under several
/// labels and may be self-loops; `hubs` own an edge to every third node;
/// `ops` stay pending in the delta overlay (`true` inserts, `false` deletes).
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: usize,
    edges: Vec<(usize, usize, usize)>,
    hubs: usize,
    ops: Vec<(bool, usize, usize, usize)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (3usize..200).prop_flat_map(|nodes| {
        let edge = || (0..nodes, 0..nodes, 0..EDGE_LABELS.len());
        let edges = proptest::collection::vec(edge(), 0..(2 * nodes));
        let ops = proptest::collection::vec((any::<bool>(), 0..nodes, 0..nodes, 0..3usize), 0..12);
        (edges, 0usize..3, ops).prop_map(move |(edges, hubs, ops)| GraphSpec {
            nodes,
            edges,
            hubs,
            ops,
        })
    })
}

fn build_graph(spec: &GraphSpec) -> Graph {
    let mut b = GraphBuilder::new();
    let ids = b.add_nodes("person", spec.nodes);
    for &(from, to, label) in &spec.edges {
        // Two in three edges stay within four ids of their source, so balls
        // are small and straddle chunk borders; the rest are long-range and
        // get one region replicated into several fragments.
        let to = if to % 3 == 0 {
            to
        } else {
            (from + to % 4) % spec.nodes
        };
        let _ = b.add_edge_dedup(ids[from], ids[to], EDGE_LABELS[label]);
    }
    for hub in 0..spec.hubs {
        for &v in ids.iter().skip(hub).step_by(3) {
            let _ = b.add_edge_dedup(ids[hub], v, EDGE_LABELS[hub]);
        }
    }
    // Intern every label before freezing, so the ops below stay in the
    // overlay instead of forcing a rebuild for a wider label stride.
    let (a, z) = (b.add_node("item"), b.add_node("item"));
    for label in EDGE_LABELS {
        let _ = b.add_edge_dedup(a, z, label);
    }
    let mut graph = b.build();
    let ops: Vec<EdgeOp> = spec
        .ops
        .iter()
        .map(|&(insert, from, to, label)| {
            let label = graph
                .labels()
                .edge_label(EDGE_LABELS[label])
                .expect("interned above");
            if insert {
                EdgeOp::insert(ids[from], ids[to], label)
            } else {
                EdgeOp::delete(ids[from], ids[to], label)
            }
        })
        .collect();
    graph.apply_edge_ops(&ops).expect("ops name existing nodes");
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dpar_makes_the_reference_decisions(
        spec in graph_spec(),
        n in 0..FRAGMENTS.len(),
        d in 0usize..4,
        c in 0..CAPACITY_FACTORS.len(),
    ) {
        let graph = build_graph(&spec);
        let config = PartitionConfig {
            num_fragments: FRAGMENTS[n],
            d,
            capacity_factor: CAPACITY_FACTORS[c],
        };
        let want = dpar_reference(&graph, &config);
        for threads in [1, 4] {
            prop_assert_eq!(&outcome_of(&graph, &config, threads), &want);
        }
    }
}

/// Found by search: at d = 1 over two fragments, nodes here reach their turn
/// with their ball already inside *both* fragments — rare on random graphs —
/// and the lower index must win as it did when both were weighed.
#[test]
fn a_ball_already_inside_two_fragments_goes_to_the_lower_one() {
    let mut b = GraphBuilder::new();
    let ids = b.add_nodes("person", 6);
    for (from, to) in [(2, 4), (1, 4), (2, 5), (3, 1), (5, 3), (5, 1)] {
        b.add_edge(ids[from], ids[to], "r").unwrap();
    }
    let graph = b.build();
    let config = PartitionConfig::new(2, 1);
    let got = outcome_of(&graph, &config, 1);
    assert_eq!(got, dpar_reference(&graph, &config));
    assert_eq!(
        got.fragments[1].1,
        [ids[3]],
        "only the home-covered node stays in fragment 1"
    );
}
