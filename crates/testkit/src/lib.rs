//! # qgp-testkit
//!
//! The differential spec's test kit.  The paper gives `Q(x_o, G)` one
//! definition (Section 2.2), and every answering surface of the engine is
//! checked against its brute-force transcription,
//! `matching::reference::evaluate_reference`.  The property suites draw
//! their inputs and helpers from here:
//!
//! * [`graph_spec`] and [`GraphSpec`] — small random labelled graphs,
//! * [`pattern`] — the fixed family of [`PATTERN_KINDS`] patterns,
//! * [`stream`] — seeded edge-update streams,
//! * [`surfaces`] and [`surface_table`] — every way of asking for `Q(x_o, G)`,
//!   and [`limit_row`] — `limit(k)` in every mode against the oracle,
//! * the edge-set mirror ([`edge_set`], [`mirror`]) with its from-scratch
//!   [`rebuild`], and [`recompute`], [`all_configs`],
//!   [`whole_graph_fragment`], [`plan_for_case`], [`engine_match`], [`run`].
//!
//! Only integration tests link the kit.  It depends on `qgp-core`, so a
//! unit test inside `qgp-core` would see a second copy of the core's types.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use qgp_core::engine::{Engine, ExecOptions, PreparedQuery, QueryRegistry, ServeRequest};
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{CountingQuantifier, Pattern, PatternBuilder};
use qgp_core::MatchError;
use qgp_graph::{
    EdgeOp, Fragment, FragmentId, Graph, GraphBuilder, GraphSnapshot, LabelId, NodeId,
};
use qgp_runtime::faults::FaultPlan;
use qgp_runtime::Runtime;

#[path = "../../core/tests/common/mod.rs"]
mod common;
pub mod stream;

pub use common::{engine_match, run};
pub use stream::UpdateStreamGen;

/// Node labels of every generated graph and of the pattern family.
pub const NODE_LABELS: &[&str] = &["A", "B", "C"];
/// The edge labels the pattern family names.
pub const RS: &[&str] = &["r", "s"];

/// A small random graph: node labels index [`NODE_LABELS`], edge labels
/// index `edge_labels`.  Self loops and repeated edges may occur.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// `node_labels[v]` is node `v`'s label.
    pub node_labels: Vec<u8>,
    /// `(from, to, label)` triples.
    pub edges: Vec<(u8, u8, u8)>,
    /// The edge label vocabulary.
    pub edge_labels: &'static [&'static str],
}

/// Graphs on `nodes` nodes with up to `(|edge_labels| + 1) · n` edges: `3n`
/// over [`RS`], `4n` over three labels.
pub fn graph_spec(
    nodes: Range<usize>,
    edge_labels: &'static [&'static str],
) -> impl Strategy<Value = GraphSpec> {
    nodes.prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u8..NODE_LABELS.len() as u8, n);
        let edges = proptest::collection::vec(
            (0u8..n as u8, 0u8..n as u8, 0u8..edge_labels.len() as u8),
            0..(edge_labels.len() + 1) * n,
        );
        (labels, edges).prop_map(move |(node_labels, edges)| GraphSpec {
            node_labels,
            edges,
            edge_labels,
        })
    })
}

impl GraphSpec {
    /// A builder holding the spec's nodes and edges, self loops and
    /// duplicates dropped, plus the node ids.  Edge label `i` is always
    /// interned by an edge `v_i → v_{i+1}` (indices mod `n`), so a stream
    /// drawn from the graph has the whole vocabulary.
    pub fn builder(&self) -> (GraphBuilder, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = self
            .node_labels
            .iter()
            .map(|&l| b.add_node(NODE_LABELS[l as usize]))
            .collect();
        let n = ids.len();
        let interning = (0..self.edge_labels.len()).map(|i| (i % n, (i + 1) % n, i));
        let edges = self
            .edges
            .iter()
            .map(|&(f, t, l)| (f as usize, t as usize, l as usize));
        for (from, to, label) in interning.chain(edges).filter(|(f, t, _)| f != t) {
            b.add_edge_dedup(ids[from], ids[to], self.edge_labels[label])
                .expect("spec endpoints are in range");
        }
        (b, ids)
    }

    /// The built graph.
    pub fn build(&self) -> Graph {
        self.builder().0.build()
    }
}

/// Overlay compaction thresholds: the tiny ones make a short stream cross
/// the threshold several times; `0` is the default (1024), which short
/// streams never reach.
pub fn compaction_threshold() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 3, 8, 0][i])
}

/// Number of kinds in the [`pattern`] family.
pub const PATTERN_KINDS: u8 = 10;

/// A fixed family of patterns covering every quantifier class: negation,
/// a ratio and an equality edge below the focus, a negated edge that is a
/// shortcut `Π(Q)` does not have, and a pure negation.  Every kind can
/// change its answer on three nodes labelled `A`, `B` and `C`.
pub fn pattern(kind: u8) -> Pattern {
    let mut b = PatternBuilder::new();
    let xo = b.node("A");
    let y = b.node("B");
    let kind = kind % PATTERN_KINDS;
    match kind {
        0 => b.edge(xo, y, "r"),
        1 => b.quantified_edge(xo, y, "r", CountingQuantifier::at_least(2)),
        2 | 3 => {
            let z = b.node("C");
            let q = if kind == 2 {
                CountingQuantifier::at_least_percent(50.0)
            } else {
                CountingQuantifier::universal()
            };
            b.quantified_edge(xo, y, "r", q);
            b.edge(y, z, "s")
        }
        4 => b.quantified_edge(xo, y, "r", CountingQuantifier::exactly(1)),
        5 => {
            let z = b.node("C");
            b.quantified_edge(xo, y, "r", CountingQuantifier::at_least(1));
            b.negated_edge(xo, z, "s")
        }
        6 | 7 => {
            // `|Mₑ(y)|` moves with any `s` edge out of a `B` node; 60 % is
            // one `C` child of two, so three nodes can flip it.
            let z = b.node("C");
            let q = if kind == 6 {
                CountingQuantifier::at_least_percent(60.0)
            } else {
                CountingQuantifier::exactly(2)
            };
            b.edge(xo, y, "r");
            b.quantified_edge(y, z, "s", q)
        }
        8 => {
            // Q reaches `w` in one hop through the negated edge; Π(Q) in two.
            let w = b.node("C");
            b.edge(xo, y, "r");
            b.edge(y, w, "s");
            b.negated_edge(xo, w, "s")
        }
        // A two-node pure negation: under counting, the positified body is
        // decided by its sub-session's single-edge ranked intersection.
        _ => b.negated_edge(xo, y, "s"),
    };
    b.focus(xo);
    b.build().expect("fixed pattern family validates")
}

/// The four matcher configurations, the default first.
pub fn all_configs() -> [MatchConfig; 4] {
    [
        MatchConfig::qmatch(),
        MatchConfig::qmatch_n(),
        MatchConfig::qmatch_with_simulation(),
        MatchConfig::enumerate(),
    ]
}

/// One single-fragment partition covering the whole graph: trivially d-hop
/// preserving for any d, so partitioned mode runs without `qgp-parallel`.
pub fn whole_graph_fragment(graph: &Graph) -> Vec<Fragment> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    vec![Fragment::build(
        FragmentId(0),
        graph,
        &nodes,
        nodes.iter().copied(),
    )]
}

/// The armed fault plan for one proptest case: the `QGP_FAULTS` plan when
/// the environment pins one (its seed xor-folded with the case seed, so
/// cases still explore distinct fault schedules), else `fallback`.
pub fn plan_for_case(case_seed: u64, fallback: FaultPlan) -> FaultPlan {
    match FaultPlan::from_env() {
        Some(env) => {
            FaultPlan::new(env.seed ^ case_seed, env.panic_rate).with_delay_rate(env.delay_rate)
        }
        None => fallback,
    }
}

/// An edge in mirror form.
pub type Edge = (NodeId, NodeId, LabelId);

/// The edge set of `graph`.
pub fn edge_set(graph: &Graph) -> BTreeSet<Edge> {
    graph.edges().map(|e| (e.from, e.to, e.label)).collect()
}

/// Applies `ops` in order to a mirrored edge set and returns the ops that
/// changed it (a duplicate insert or a delete of an absent edge does not).
pub fn mirror(edges: &mut BTreeSet<Edge>, ops: &[EdgeOp]) -> Vec<EdgeOp> {
    let changed = |op: &&EdgeOp| {
        let key = (op.from(), op.to(), op.label());
        if op.is_insert() {
            edges.insert(key)
        } else {
            edges.remove(&key)
        }
    };
    ops.iter().filter(changed).copied().collect()
}

/// A from-scratch build of `template`'s nodes with exactly `edges`: the
/// first-principles graph an overlay or a snapshot is compared against.  It
/// shares no storage with `template`, only a copy of its label ids.
pub fn rebuild(template: &Graph, edges: &BTreeSet<Edge>) -> Graph {
    let labels = template.labels();
    let mut b = GraphBuilder::with_labels(labels.clone());
    for v in template.nodes() {
        b.add_node(
            labels
                .node_label_name(template.node_label(v))
                .expect("interned label"),
        );
    }
    for &(from, to, label) in edges {
        let name = labels.edge_label_name(label).expect("interned label");
        b.add_edge(from, to, name)
            .expect("mirrored edges are distinct and in range");
    }
    b.build()
}

/// A sequential engine run of `pattern` on `graph` under `config`.
pub fn recompute(graph: &Graph, pattern: &Pattern, config: &MatchConfig) -> Vec<NodeId> {
    engine_match(graph, pattern, config).matches
}

/// What a surface returns: the accepted foci, ascending, or the run's error.
pub type Answer = Result<Vec<NodeId>, MatchError>;

/// Asks a prepared query for `Q(x_o, G)` on a snapshot, scheduling any
/// parallel work on the runtime.
pub type AnswerFn = dyn Fn(&PreparedQuery, &Arc<GraphSnapshot>, &Runtime) -> Answer + Send + Sync;

/// One answering surface: a name for assertion messages and the closure.
pub struct Surface {
    /// Names the surface and its config.
    pub name: String,
    /// Runs the surface.
    pub answer: Box<AnswerFn>,
}

/// How a row schedules its decisions.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Sequential,
    Parallel,
    Partitioned,
}

/// What a row asks for: enumeration, or counting in one of its modes.
#[derive(Debug, Clone, Copy)]
enum Ask {
    Enumerate,
    CountThreshold,
    CountExact,
}

/// The options of one execution of `q` in `mode`; a partitioned one runs
/// on `fragments` at the pattern's radius.
fn mode_options<'a>(
    mode: Mode,
    q: &PreparedQuery,
    fragments: &'a [Fragment],
    runtime: &'a Runtime,
) -> ExecOptions<'a> {
    match mode {
        Mode::Sequential => ExecOptions::sequential(),
        Mode::Parallel => ExecOptions::parallel_on(runtime),
        Mode::Partitioned => ExecOptions::partitioned_on(fragments, q.radius(), runtime),
    }
}

fn row(mode: Mode, ask: Ask, config: MatchConfig) -> Surface {
    let answer = move |q: &PreparedQuery, snapshot: &Arc<GraphSnapshot>, runtime: &Runtime| {
        let fragments = match mode {
            Mode::Partitioned => whole_graph_fragment(snapshot.graph()),
            _ => Vec::new(),
        };
        let opts = mode_options(mode, q, &fragments, runtime).with_config(config);
        let opts = match ask {
            Ask::Enumerate => return q.run_on(snapshot, opts).map(|a| a.matches),
            Ask::CountThreshold => opts.count_only(),
            Ask::CountExact => opts.count_exact(),
        };
        q.count_on(snapshot, opts).map(|a| a.matches().collect())
    };
    Surface {
        name: format!("{mode:?} {ask:?}, {config:?}"),
        answer: Box::new(answer),
    }
}

fn serve(config: MatchConfig) -> Surface {
    let answer = move |q: &PreparedQuery, snapshot: &Arc<GraphSnapshot>, runtime: &Runtime| {
        let mut registry = QueryRegistry::new();
        let id = registry.register(Engine::on(Arc::clone(snapshot)).prepare(q.pattern())?);
        let request = ServeRequest::new(id).with_config(config);
        let outcome = registry.serve(snapshot, &[request], runtime).pop();
        outcome
            .expect("one outcome per request")
            .result
            .map(|a| a.matches)
    };
    Surface {
        name: format!("serve, {config:?}"),
        answer: Box::new(answer),
    }
}

/// Every answering surface under `config`: enumeration, counting at the
/// threshold and exact counting, each sequential, parallel and partitioned
/// on one whole-graph fragment; then `QueryRegistry::serve`.
pub fn surfaces(config: MatchConfig) -> Vec<Surface> {
    let modes = [Mode::Sequential, Mode::Parallel, Mode::Partitioned];
    let asks = [Ask::Enumerate, Ask::CountThreshold, Ask::CountExact];
    let grid = modes
        .into_iter()
        .flat_map(|mode| asks.map(|ask| row(mode, ask, config)));
    grid.chain([serve(config)]).collect()
}

/// The surface table: sequential enumeration under each of the four
/// configs; then, under the default config, parallel and partitioned
/// enumeration, sequential counting at the threshold and exact, and
/// `QueryRegistry::serve`.
pub fn surface_table() -> Vec<Surface> {
    let config = MatchConfig::default();
    let sequential = all_configs().map(|c| row(Mode::Sequential, Ask::Enumerate, c));
    let rest = [
        row(Mode::Parallel, Ask::Enumerate, config),
        row(Mode::Partitioned, Ask::Enumerate, config),
        row(Mode::Sequential, Ask::CountThreshold, config),
        row(Mode::Sequential, Ask::CountExact, config),
        serve(config),
    ];
    sequential.into_iter().chain(rest).collect()
}

/// The `limit` row: `limit(k)` for each `k` in `{0, 1, n}`, `n` the
/// oracle's size, in every mode.  Sequentially the answer is the oracle's
/// first `min(k, n)` foci; parallel and partitioned it is some `min(k, n)`
/// of them, ascending.  Returns the first divergence.
pub fn limit_row(
    q: &PreparedQuery,
    snapshot: &Arc<GraphSnapshot>,
    runtime: &Runtime,
    oracle: &[NodeId],
) -> Result<(), String> {
    let n = oracle.len();
    let fragments = whole_graph_fragment(snapshot.graph());
    let ks = BTreeSet::from([0, 1, n]);
    for mode in [Mode::Sequential, Mode::Parallel, Mode::Partitioned] {
        for &k in &ks {
            let opts = mode_options(mode, q, &fragments, runtime).limit(k);
            let got = q.run_on(snapshot, opts).map_err(|e| e.to_string())?;
            let prefix = &oracle[..k.min(n)];
            let holds = match mode {
                Mode::Sequential => got.matches == prefix,
                _ => {
                    got.matches.len() == prefix.len()
                        && got.matches.windows(2).all(|w| w[0] < w[1])
                        && got.matches.iter().all(|v| oracle.binary_search(v).is_ok())
                }
            };
            if !holds || got.truncated {
                return Err(format!(
                    "{mode:?} limit({k}): {:?} (truncated {}), oracle {oracle:?}",
                    got.matches, got.truncated
                ));
            }
        }
    }
    Ok(())
}
