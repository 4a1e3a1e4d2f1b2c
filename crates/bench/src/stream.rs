//! Seeded edge-update stream generation.
//!
//! [`UpdateStreamGen`] produces reproducible [`EdgeOp`] batches against a
//! starting graph, with the mix that makes incremental maintenance honest
//! rather than easy:
//!
//! * interleaved inserts and deletes (not an insert-only warm stream),
//! * deletes biased toward edges that actually exist (a delete-of-absent
//!   no-op exercises nothing past validation),
//! * inserts biased toward re-inserting previously deleted edges (the
//!   path where the delta overlay cancels a pending delete),
//! * endpoints drawn from a hub-skewed pool — every node once, plus both
//!   endpoints of every starting edge — so high-degree nodes see
//!   proportionally more churn, like real social-graph streams.
//!
//! The generator maintains an exact mirror of the live edge set under its
//! own ops (in batch order, counting no-ops as no-ops), so tests can check
//! a graph that applied the stream against [`UpdateStreamGen::live_count`].
//! The differential proptests (`tests/prop_{epochs,incremental}.rs`) draw
//! their streams from this generator.

use std::collections::HashSet;

use qgp_graph::{EdgeOp, Graph, LabelId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `(from, to, label)` edge in mirror form.
type Edge = (NodeId, NodeId, LabelId);

/// Tunables for one update stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// RNG seed; equal seeds over equal graphs yield equal streams.
    pub seed: u64,
    /// Fraction of ops that are deletes (the rest are inserts).
    pub delete_fraction: f64,
    /// Fraction of deletes that target a currently-live edge (the rest draw
    /// random endpoints and are usually no-ops).
    pub delete_existing_bias: f64,
    /// Fraction of inserts that re-insert a previously deleted edge.
    pub reinsert_fraction: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            seed: 0x0051_6d61_7463_6821,
            delete_fraction: 0.4,
            delete_existing_bias: 0.9,
            reinsert_fraction: 0.3,
        }
    }
}

/// A seeded generator of [`EdgeOp`] batches over an evolving edge set.
#[derive(Debug, Clone)]
pub struct UpdateStreamGen {
    rng: StdRng,
    config: StreamConfig,
    /// Live edges in pick-one-at-random form (swap_remove on delete).
    live: Vec<Edge>,
    /// Live edges in membership-test form, kept in sync with `live`.
    live_set: HashSet<Edge>,
    /// Previously deleted edges, the re-insert pool.
    removed: Vec<Edge>,
    /// Hub-skewed endpoint pool (see module docs).
    endpoints: Vec<NodeId>,
    /// Edge labels observed in the starting graph.
    labels: Vec<LabelId>,
}

impl UpdateStreamGen {
    /// Builds a generator whose stream starts from `graph`'s edge set.
    pub fn new(graph: &Graph, config: StreamConfig) -> Self {
        let live: Vec<Edge> = graph.edges().map(|e| (e.from, e.to, e.label)).collect();
        let live_set: HashSet<Edge> = live.iter().copied().collect();
        let mut endpoints: Vec<NodeId> = graph.nodes().collect();
        endpoints.extend(live.iter().flat_map(|&(f, t, _)| [f, t]));
        let mut labels: Vec<LabelId> = live.iter().map(|&(_, _, l)| l).collect();
        labels.sort_unstable();
        labels.dedup();
        UpdateStreamGen {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            live,
            live_set,
            removed: Vec::new(),
            endpoints,
            labels,
        }
    }

    /// Edges live after every op generated so far (the mirror a graph that
    /// applied the whole stream must agree with).
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Draws a random `(from, to, label)` from the hub-skewed pools.
    fn random_edge(&mut self) -> Edge {
        let from = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
        let to = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
        let label = self.labels[self.rng.gen_range(0..self.labels.len())];
        (from, to, label)
    }

    /// Applies one generated op to the mirror.
    fn mirror(&mut self, op: EdgeOp) {
        let edge = (op.from(), op.to(), op.label());
        if op.is_insert() {
            if self.live_set.insert(edge) {
                self.live.push(edge);
                if let Some(i) = self.removed.iter().position(|&e| e == edge) {
                    self.removed.swap_remove(i);
                }
            }
        } else if self.live_set.remove(&edge) {
            let i = self
                .live
                .iter()
                .position(|&e| e == edge)
                .expect("live and live_set agree");
            self.live.swap_remove(i);
            self.removed.push(edge);
        }
    }

    /// Generates the next batch of `size` ops.  Ops are meant to be applied
    /// in order; the internal mirror assumes exactly that.
    pub fn next_batch(&mut self, size: usize) -> Vec<EdgeOp> {
        let mut ops = Vec::with_capacity(size);
        if self.endpoints.is_empty() || self.labels.is_empty() {
            return ops;
        }
        for _ in 0..size {
            let op = if self.rng.gen_bool(self.config.delete_fraction) && !self.live.is_empty() {
                if self.rng.gen_bool(self.config.delete_existing_bias) {
                    let (f, t, l) = self.live[self.rng.gen_range(0..self.live.len())];
                    EdgeOp::delete(f, t, l)
                } else {
                    let (f, t, l) = self.random_edge();
                    EdgeOp::delete(f, t, l)
                }
            } else if !self.removed.is_empty() && self.rng.gen_bool(self.config.reinsert_fraction)
            {
                let (f, t, l) = self.removed[self.rng.gen_range(0..self.removed.len())];
                EdgeOp::insert(f, t, l)
            } else {
                let (f, t, l) = self.random_edge();
                EdgeOp::insert(f, t, l)
            };
            self.mirror(op);
            ops.push(op);
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgp_graph::GraphBuilder;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let people = b.add_nodes("person", 12);
        let item = b.add_node("item");
        for i in 0..people.len() {
            b.add_edge(people[i], people[(i + 1) % people.len()], "follow")
                .unwrap();
            if i % 3 == 0 {
                b.add_edge(people[i], item, "recom").unwrap();
            }
        }
        b.build()
    }

    fn config(seed: u64) -> StreamConfig {
        StreamConfig {
            seed,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn equal_seeds_produce_equal_streams() {
        let g = small_graph();
        let mut a = UpdateStreamGen::new(&g, config(7));
        let mut b = UpdateStreamGen::new(&g, config(7));
        for size in [1, 10, 100] {
            assert_eq!(a.next_batch(size), b.next_batch(size));
        }
        let mut c = UpdateStreamGen::new(&g, config(8));
        assert_ne!(a.next_batch(100), c.next_batch(100));
    }

    #[test]
    fn mirror_agrees_with_a_graph_applying_the_stream() {
        let g = small_graph();
        let mut live = g.clone();
        let mut gen = UpdateStreamGen::new(&g, config(42));
        assert_eq!(gen.live_count(), g.edge_count());
        for size in [1, 5, 50, 200] {
            let ops = gen.next_batch(size);
            live.apply_edge_ops(&ops).unwrap();
            assert_eq!(live.edge_count(), gen.live_count(), "batch of {size}");
        }
    }

    #[test]
    fn streams_mix_inserts_deletes_and_noops() {
        let g = small_graph();
        let mut live = g.clone();
        let mut gen = UpdateStreamGen::new(&g, config(3));
        let ops = gen.next_batch(600);
        assert!(ops.iter().any(|op| op.is_insert()));
        assert!(ops.iter().any(|op| !op.is_insert()));
        let report = live.apply_edge_ops(&ops).unwrap();
        assert!(report.inserted > 0 && report.deleted > 0);
        // The hub-skewed pool and the random-delete tail should produce at
        // least a few no-ops over 600 ops.
        assert!(report.noop_inserts + report.noop_deletes > 0);
    }
}
