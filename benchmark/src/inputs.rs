//! Seeded inputs: datasets, pattern pools, the update stream, request
//! draws — and the fingerprints that pin them.
//!
//! The program under test receives only what these generators produce;
//! `--seed` is the one argument that changes them.  Pattern *shapes* come
//! from fixed generator seeds (see [`generated_patterns`]) so that every
//! seed measures the same mix of queries over a statistically equal graph;
//! the seed moves the graph's edges, the order of ops, the update stream
//! and the request draws.

use std::collections::HashSet;

use qgp_core::matching::{MatchConfig, MatchSession};
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_datasets::{
    generate_pattern, pokec_like, yago_like, KnowledgeConfig, PatternGenConfig, PatternSize,
    SocialConfig,
};
use qgp_graph::{EdgeOp, Graph, GraphBuilder, LabelId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a, 64 bit: the fingerprint hash (stable across runs and hosts,
/// unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of a sorted node list — how answers are compared without keeping
/// them (length first, so a prefix never collides with the whole).
pub fn hash_nodes(nodes: &[NodeId]) -> u64 {
    let mut h = Fnv::new();
    h.u64(nodes.len() as u64);
    for v in nodes {
        h.u64(u64::from(v.0));
    }
    h.finish()
}

/// Derives an independent generator seed from the run seed and a stream
/// tag (SplitMix64 step), so the dataset, the schedule and the update
/// stream never share a random sequence.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which generator family a workload's graph comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Hub-heavy social graph (`qgp_datasets::pokec_like`).
    Pokec,
    /// Sparse knowledge graph with concept hubs (`qgp_datasets::yago_like`).
    Yago,
}

/// A dataset to generate: family, size and the run seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataset {
    pub family: Family,
    pub persons: usize,
    pub seed: u64,
}

impl Dataset {
    pub fn generate(&self) -> Graph {
        match self.family {
            Family::Pokec => pokec_like(&SocialConfig {
                seed: sub_seed(self.seed, 1),
                ..SocialConfig::with_persons(self.persons)
            }),
            Family::Yago => yago_like(&KnowledgeConfig {
                seed: sub_seed(self.seed, 2),
                ..KnowledgeConfig::with_persons(self.persons)
            }),
        }
    }

    pub fn name(&self) -> &'static str {
        match self.family {
            Family::Pokec => "pokec-like",
            Family::Yago => "yago2-like",
        }
    }
}

/// What a run's inputs hash to; pinned per (workload, seed, size) in
/// `fingerprints.txt` so a change to `qgp-datasets` cannot silently change
/// the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub nodes: usize,
    pub edges: usize,
    /// FNV of the node labels and the sorted edge list.
    pub graph: u64,
    /// FNV of the pattern pool's `Display` renderings (or mining configs).
    pub patterns: u64,
    /// FNV of the op schedule and the update stream.
    pub stream: u64,
}

impl Fingerprint {
    pub fn line(&self, workload: &str, seed: u64, size: &str) -> String {
        format!(
            "{workload} {seed} {size} {} {} {:016x} {:016x} {:016x}",
            self.nodes, self.edges, self.graph, self.patterns, self.stream
        )
    }
}

/// Hashes node labels and the sorted edge list by label *name*, so the
/// fingerprint does not depend on the order labels were interned in.
pub fn fingerprint_graph(graph: &Graph) -> u64 {
    let name_hash = |name: Option<&str>| {
        let mut h = Fnv::new();
        h.bytes(name.unwrap_or("").as_bytes());
        h.finish()
    };
    let labels = graph.labels();
    let node_names: Vec<u64> = (0..labels.node_label_count() as u32)
        .map(|l| name_hash(labels.node_label_name(LabelId(l))))
        .collect();
    let edge_names: Vec<u64> = (0..labels.edge_label_count() as u32)
        .map(|l| name_hash(labels.edge_label_name(LabelId(l))))
        .collect();
    let mut h = Fnv::new();
    for v in graph.nodes() {
        h.u64(node_names[graph.node_label(v).index()]);
    }
    let mut edges: Vec<(u32, u32, u64)> = graph
        .edges()
        .map(|e| (e.from.0, e.to.0, edge_names[e.label.index()]))
        .collect();
    edges.sort_unstable();
    for (f, t, l) in edges {
        h.u64(u64::from(f));
        h.u64(u64::from(t));
        h.u64(l);
    }
    h.finish()
}

pub fn fingerprint_patterns<'a>(patterns: impl IntoIterator<Item = &'a Pattern>) -> u64 {
    let mut h = Fnv::new();
    for p in patterns {
        h.bytes(p.to_string().as_bytes());
        h.bytes(&[0]);
    }
    h.finish()
}

pub fn hash_ops(h: &mut Fnv, ops: &[EdgeOp]) {
    h.u64(ops.len() as u64);
    for op in ops {
        h.u64(u64::from(op.is_insert()));
        h.u64(u64::from(op.from().0));
        h.u64(u64::from(op.to().0));
        h.u64(u64::from(op.label().0));
    }
}

/// Generated patterns of the given sizes `(nodes, edges, ratio %, negated
/// edges)` with focus `person`, in order, skipping sizes the generator
/// cannot realise, patterns whose radius exceeds `max_radius` (a d-hop
/// partition at that radius is the whole hub-heavy graph several times
/// over) and patterns candidate analysis refutes outright (no focus
/// candidate survives: they cost a constant and exercise nothing past it).
///
/// The patterns are drawn on a small *reference* graph of the family with
/// a constant seed, not on the run's graph: the frequent-feature generator
/// picks shapes from label statistics, and near-ties in those statistics
/// would otherwise hand different seeds different queries.  This way every
/// seed measures exactly the same query mix, and a metric's spread across
/// seeds measures the system and the host, not the luck of the draw; the
/// run seed moves the graph, the order of ops and the update stream.
pub fn generated_patterns(
    family: Family,
    sizes: &[(usize, usize, f64, usize)],
    want: usize,
    max_radius: usize,
) -> Vec<Pattern> {
    let reference = Dataset {
        family,
        persons: 2_000,
        seed: 0,
    }
    .generate();
    let mut out = Vec::with_capacity(want);
    for (i, &(nodes, edges, ratio, negated)) in sizes.iter().cycle().enumerate() {
        if out.len() == want || i >= sizes.len() * 8 {
            break;
        }
        let config = PatternGenConfig {
            focus_label: Some("person".to_owned()),
            seed: 0x51_67_70 + i as u64,
            ..PatternGenConfig::with_size(PatternSize::new(nodes, edges, ratio, negated))
        };
        if let Some(p) = generate_pattern(&reference, &config) {
            let refuted = || {
                MatchSession::new(&reference, &p, &MatchConfig::qmatch())
                    .focus_candidates()
                    .is_empty()
            };
            if p.radius() <= max_radius && !refuted() {
                out.push(p);
            }
        }
    }
    out
}

/// The library's Q3 shape with every part a parameter: "people with
/// `quantifier` followees who `edge` a `target`, and no followee who gave
/// `disliked` a bad rating".  Two such queries that differ only in
/// `disliked` have the same positive projection Π(Q).
pub fn followee_query(
    edge: &str,
    target: &str,
    quantifier: CountingQuantifier,
    disliked: &str,
) -> Pattern {
    let mut b = PatternBuilder::new();
    let xo = b.node_named("person", "xo");
    let z1 = b.node_named("person", "z1");
    let z2 = b.node_named("person", "z2");
    let liked = b.node(target);
    // Q3 proper tests the bad rating on the recommended product itself.
    let bad = if disliked == target {
        liked
    } else {
        b.node(disliked)
    };
    b.quantified_edge(xo, z1, "follow", quantifier);
    b.edge(z1, liked, edge);
    b.negated_edge(xo, z2, "follow");
    b.edge(z2, bad, "bad_rating");
    b.focus(xo);
    b.build()
        .expect("the Q3 shape is well-formed for any labels")
}

/// Splits `total` items over ranks in proportion to Zipf(1) weights
/// `1 / (rank + 1)`, exactly: largest-remainder apportionment, so the
/// counts sum to `total` and every run and block of a given size gets the
/// same counts.
pub fn zipf_counts(ranks: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..ranks).map(|r| 1.0 / (r + 1) as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

/// A `(from, to, label)` edge in mirror form.
pub type Edge = (NodeId, NodeId, LabelId);

/// The benchmark's own seeded update-stream generator (it does not import
/// `qgp_bench::stream`, so a change there cannot change the load).
///
/// Mix: 40 % deletes, 90 % of them of a live edge; 30 % of inserts
/// re-insert a previously deleted edge (the overlay's tombstone
/// cancellation); fresh inserts rewire a live edge to the target of
/// another edge *of the same label*, which keeps the generators' typing
/// (`follow` stays person → person) and draws endpoints in proportion to
/// their degree, so hubs see proportionally more churn.  The generator
/// mirrors the live edge set under its own ops, which is what the
/// `view_stream` check rebuilds the graph from.
pub struct UpdateStream {
    rng: StdRng,
    live: Vec<Edge>,
    live_set: HashSet<Edge>,
    removed: Vec<Edge>,
    /// Targets of the starting edges, grouped by edge label.
    targets_by_label: Vec<Vec<NodeId>>,
}

impl UpdateStream {
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let live: Vec<Edge> = graph.edges().map(|e| (e.from, e.to, e.label)).collect();
        let mut targets_by_label = vec![Vec::new(); graph.labels().edge_label_count()];
        for &(_, to, label) in &live {
            targets_by_label[label.index()].push(to);
        }
        UpdateStream {
            rng: StdRng::seed_from_u64(seed),
            live_set: live.iter().copied().collect(),
            live,
            removed: Vec::new(),
            targets_by_label,
        }
    }

    /// The live edge set after every op generated so far.
    #[cfg(test)]
    pub fn live_edges(&self) -> &[Edge] {
        &self.live
    }

    fn insert(&mut self, edge: Edge) {
        if self.live_set.insert(edge) {
            self.live.push(edge);
        }
    }

    fn delete_at(&mut self, idx: usize) -> Edge {
        let edge = self.live.swap_remove(idx);
        self.live_set.remove(&edge);
        self.removed.push(edge);
        edge
    }

    /// The next batch of `size` ops, to be applied in order.
    pub fn next_batch(&mut self, size: usize) -> Vec<EdgeOp> {
        let mut ops = Vec::with_capacity(size);
        if self.live.is_empty() {
            return ops;
        }
        for _ in 0..size {
            let delete = self.rng.gen_bool(0.4) && self.live.len() > 1;
            let op = if delete && self.rng.gen_bool(0.9) {
                let idx = self.rng.gen_range(0..self.live.len());
                let (f, t, l) = self.delete_at(idx);
                EdgeOp::delete(f, t, l)
            } else if delete {
                // A delete of a (most likely) absent edge: a counted no-op.
                let (f, _, l) = self.live[self.rng.gen_range(0..self.live.len())];
                let (_, t, _) = self.live[self.rng.gen_range(0..self.live.len())];
                if self.live_set.contains(&(f, t, l)) {
                    let idx = self.live.iter().position(|&e| e == (f, t, l));
                    self.delete_at(idx.expect("live and live_set agree"));
                }
                EdgeOp::delete(f, t, l)
            } else if !self.removed.is_empty() && self.rng.gen_bool(0.3) {
                let idx = self.rng.gen_range(0..self.removed.len());
                let (f, t, l) = self.removed.swap_remove(idx);
                self.insert((f, t, l));
                EdgeOp::insert(f, t, l)
            } else {
                let (f, _, l) = self.live[self.rng.gen_range(0..self.live.len())];
                let targets = &self.targets_by_label[l.index()];
                let t = targets[self.rng.gen_range(0..targets.len())];
                self.insert((f, t, l));
                EdgeOp::insert(f, t, l)
            };
            ops.push(op);
        }
        ops
    }
}

/// Rebuilds a graph from scratch with [`GraphBuilder`]: `base`'s nodes and
/// labels, and exactly the given edges.  Node ids are preserved.
pub fn rebuild_graph(base: &Graph, edges: &[Edge]) -> Graph {
    let labels = base.labels();
    let mut b = GraphBuilder::with_capacity(base.node_count());
    for v in base.nodes() {
        b.add_node(labels.node_label_name(base.node_label(v)).unwrap_or(""));
    }
    for &(from, to, label) in edges {
        let name = labels.edge_label_name(label).unwrap_or("");
        b.add_edge(from, to, name)
            .expect("mirrored endpoints exist in the base graph");
    }
    b.build()
}

/// Fisher–Yates with the shimmed rng (the shim has no `shuffle`).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Graph {
        Dataset {
            family: Family::Pokec,
            persons: 200,
            seed,
        }
        .generate()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let (a, b, c) = (small(1), small(1), small(2));
        assert_eq!(fingerprint_graph(&a), fingerprint_graph(&b));
        assert_ne!(fingerprint_graph(&a), fingerprint_graph(&c));

        let stream = |g: &Graph, seed| {
            let mut s = UpdateStream::new(g, seed);
            let mut h = Fnv::new();
            for size in [1, 10, 100] {
                hash_ops(&mut h, &s.next_batch(size));
            }
            h.finish()
        };
        assert_eq!(stream(&a, 7), stream(&b, 7));
        assert_ne!(stream(&a, 7), stream(&a, 8));
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }

    #[test]
    fn generated_patterns_are_valid_small_radius_and_repeatable() {
        let sizes = [(4, 4, 30.0, 0), (4, 5, 50.0, 1), (5, 6, 40.0, 1)];
        let a = generated_patterns(Family::Pokec, &sizes, 3, 2);
        let b = generated_patterns(Family::Pokec, &sizes, 3, 2);
        assert_eq!(a.len(), 3);
        assert_eq!(fingerprint_patterns(&a), fingerprint_patterns(&b));
        assert!(a.iter().all(|p| p.radius() <= 2 && p.validate().is_ok()));
        let y = generated_patterns(Family::Yago, &sizes, 2, 2);
        assert_ne!(fingerprint_patterns(&a), fingerprint_patterns(&y));
    }

    #[test]
    fn the_stream_mirror_agrees_with_a_graph_that_applied_it() {
        let g = small(3);
        let mut live = g.clone();
        let mut stream = UpdateStream::new(&g, 11);
        let (mut inserts, mut deletes, mut noops) = (0, 0, 0);
        for size in [1, 5, 50, 400] {
            let report = live.apply_edge_ops(&stream.next_batch(size)).unwrap();
            inserts += report.inserted;
            deletes += report.deleted;
            noops += report.noop_inserts + report.noop_deletes;
            assert_eq!(live.edge_count(), stream.live_edges().len());
        }
        assert!(inserts > 0 && deletes > 0 && noops > 0);
        let rebuilt = rebuild_graph(&g, stream.live_edges());
        assert_eq!(fingerprint_graph(&rebuilt), fingerprint_graph(&live));
    }

    #[test]
    fn zipf_counts_are_exact_and_shuffle_permutes() {
        let counts = zipf_counts(24, 256);
        assert_eq!(counts.iter().sum::<usize>(), 256);
        assert_eq!(&counts[..4], &[68, 34, 23, 17]);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[23] >= 2);
        assert_eq!(zipf_counts(3, 0), vec![0, 0, 0]);
        assert_eq!(zipf_counts(2, 3), vec![2, 1]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        shuffle(&mut v, &mut rng);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
