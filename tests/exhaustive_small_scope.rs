//! The differential spec, exhaustive on a small scope: every single-edge
//! transition between the graphs on three nodes.
//!
//! The nodes are labelled `A`, `B` and `C`, and the edge labels `r` and `s`
//! are interned up front.  That gives 12 possible edges and 4,096 edge sets,
//! the vertices of the 12-cube.  With every cube edge doubled, each vertex
//! has one out-arc per edge it can toggle, so a closed Eulerian circuit
//! makes 49,152 single-edge toggles and visits each (edge set, toggle) pair
//! exactly once.
//!
//! Each pattern kind of the kit gets one `GraphStore` that follows the
//! circuit and one `MatchView` on it.  The view follows the store by
//! `advance` on even steps and by `apply` of the same op on odd steps.  After
//! every step the view must equal `evaluate_reference`, memoised per
//! (kind, edge set).  On an edge set's first visit every row of the surface
//! table must equal the memo too.
//!
//! Under `--cfg qgp_mutate` the view repair drops its ratio seeds, and the
//! walk must find a divergence.

use std::thread;

use qgp_testkit::{pattern, surface_table, PATTERN_KINDS};
use quantified_graph_patterns::core::matching::reference::evaluate_reference;
use quantified_graph_patterns::graph::LabelSet;
use quantified_graph_patterns::{EdgeOp, Engine, Graph, GraphBuilder, GraphStore, NodeId, Runtime};

/// The possible edges: bit `2p + l` is the `p`-th ordered pair of distinct
/// nodes under label `l` (`r` = 0, `s` = 1).
const PAIRS: [(u32, u32); 6] = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];
const EDGES: usize = 2 * PAIRS.len();
const LABELS: [&str; 2] = ["r", "s"];

fn labels() -> LabelSet {
    let mut labels = LabelSet::new();
    for name in ["A", "B", "C"] {
        labels.intern_node_label(name);
    }
    for name in LABELS {
        labels.intern_edge_label(name);
    }
    labels
}

/// The graph on the three nodes whose edges are the bits of `set`.
fn graph_of(set: usize) -> Graph {
    let mut b = GraphBuilder::with_labels(labels());
    for name in ["A", "B", "C"] {
        b.add_node(name);
    }
    for bit in (0..EDGES).filter(|bit| set >> bit & 1 == 1) {
        let (from, to) = PAIRS[bit / 2];
        b.add_edge(NodeId(from), NodeId(to), LABELS[bit % 2])
            .expect("distinct edges");
    }
    b.build()
}

/// Hierholzer's algorithm on the doubled 12-cube, from the empty edge set:
/// the bits toggled along the circuit, in order.
fn euler_circuit() -> Vec<usize> {
    let mut next_bit = vec![0; 1 << EDGES];
    // (edge set, the bit toggled to reach it); the start has none.
    let mut stack = vec![(0usize, None)];
    let mut circuit = Vec::with_capacity(EDGES << EDGES);
    while let Some(&(set, _)) = stack.last() {
        if next_bit[set] < EDGES {
            let bit = next_bit[set];
            next_bit[set] += 1;
            stack.push((set ^ 1 << bit, Some(bit)));
        } else if let (_, Some(bit)) = stack.pop().expect("stack is non-empty") {
            circuit.push(bit);
        }
    }
    circuit.reverse();
    circuit
}

/// Walks `circuit` for one pattern kind and returns the first step where
/// the view diverged from the oracle, if any.  A surface that diverges
/// panics: no mutation touches them.
fn walk(kind: u8, circuit: &[usize]) -> Option<String> {
    let pattern = pattern(kind);
    let runtime = Runtime::new(1);
    let store = GraphStore::new(graph_of(0));
    let prepared = Engine::from_store(&store).prepare(&pattern).unwrap();
    let mut view = prepared.view();
    let surfaces = surface_table();
    let labels = LABELS.map(|name| store.snapshot().graph().labels().edge_label(name).unwrap());
    let mut memo: Vec<Option<Vec<NodeId>>> = vec![None; 1 << EDGES];
    let mut set = 0;
    for step in 0..=circuit.len() {
        if step > 0 {
            let bit = circuit[step - 1];
            let (from, to) = PAIRS[bit / 2];
            let label = labels[bit % 2];
            let op = if set >> bit & 1 == 0 {
                EdgeOp::insert(NodeId(from), NodeId(to), label)
            } else {
                EdgeOp::delete(NodeId(from), NodeId(to), label)
            };
            set ^= 1 << bit;
            store.apply(&[op]).unwrap();
            if step % 2 == 0 {
                view.advance_with(&store, &runtime).unwrap();
            } else {
                view.apply_with(&[op], &runtime).unwrap();
            }
        }
        let oracle = memo[set].get_or_insert_with(|| {
            let oracle = evaluate_reference(&graph_of(set), &pattern);
            let head = store.snapshot();
            for surface in &surfaces {
                let got = (surface.answer)(&prepared, &head, &runtime).unwrap();
                assert_eq!(
                    got, oracle,
                    "kind {kind}, edge set {set:#05x}: {}",
                    surface.name
                );
            }
            oracle
        });
        if view.matches() != &oracle[..] {
            return Some(format!(
                "kind {kind}, step {step}, edge set {set:#05x}: view {:?}, oracle {:?}",
                view.matches(),
                oracle
            ));
        }
    }
    None
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "26 s unoptimized against 7 s optimized on 2 vCPUs; run it with `cargo test --release`"
)]
fn every_single_edge_transition_on_three_nodes_matches_the_oracle() {
    let circuit = euler_circuit();
    assert_eq!(circuit.len(), EDGES << EDGES);
    let mut seen = vec![false; EDGES << EDGES];
    let mut set = 0;
    for &bit in &circuit {
        assert!(!seen[set * EDGES + bit], "(edge set, toggle) pair repeated");
        seen[set * EDGES + bit] = true;
        set ^= 1 << bit;
    }
    assert_eq!(set, 0, "the circuit is closed");

    let circuit = &circuit;
    // One thread per core, each walking every `threads`-th kind.
    let threads = thread::available_parallelism().map_or(1, usize::from);
    let divergences: Vec<String> = thread::scope(|scope| {
        let walks: Vec<_> = (0..threads.min(PATTERN_KINDS.into()))
            .map(|first| {
                let kinds = (first as u8..PATTERN_KINDS).step_by(threads);
                scope.spawn(move || {
                    kinds
                        .filter_map(|kind| walk(kind, circuit))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        walks.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    #[cfg(not(qgp_mutate))]
    assert!(divergences.is_empty(), "{divergences:#?}");
    #[cfg(qgp_mutate)]
    {
        assert!(
            !divergences.is_empty(),
            "dropping the ratio seeds must be caught"
        );
        println!("{divergences:#?}");
    }
}
