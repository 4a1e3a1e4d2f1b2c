//! Knowledge discovery: run the paper's knowledge-graph patterns Q4 and Q5 on
//! a YAGO2-like synthetic knowledge graph, then keep Q4's answer live on a
//! versioned store while update batches are published.
//!
//! ```text
//! cargo run --release --example knowledge_discovery
//! ```

use std::sync::Arc;

use quantified_graph_patterns::core::pattern::library;
use quantified_graph_patterns::datasets::{yago_like, KnowledgeConfig};
use quantified_graph_patterns::graph::GraphStats;
use quantified_graph_patterns::{EdgeOp, Engine, ExecOptions, GraphStore, Runtime};

fn main() {
    let graph = yago_like(&KnowledgeConfig::with_persons(5_000));
    let stats = GraphStats::compute(&graph);
    println!(
        "knowledge graph: {} nodes, {} edges (avg out-degree {:.1})",
        stats.node_count, stats.edge_count, stats.avg_out_degree
    );
    let engine = Engine::new(&graph);

    // Q4: UK professors without a PhD who advised at least p students who are
    // professors in the UK (negation + numeric aggregate).
    for p in [1, 2, 3, 4] {
        let q4 = library::q4_uk_professors(p);
        let answer = engine
            .prepare(&q4)
            .unwrap()
            .run(ExecOptions::sequential())
            .unwrap();
        println!(
            "Q4 (≥{p} students): {:4} professors   (verified {}, pruned by upper bounds {})",
            answer.len(),
            answer.stats.focus_verified,
            answer.stats.pruned_by_upper_bound
        );
    }

    // Raising the threshold can only shrink the answer (anti-monotonicity).
    let run = |pattern| {
        engine
            .prepare(&pattern)
            .unwrap()
            .run(ExecOptions::sequential())
            .unwrap()
    };
    let loose = run(library::q4_uk_professors(1));
    let strict = run(library::q4_uk_professors(3));
    assert!(strict.len() <= loose.len());

    // Q5: non-UK professors who supervised students who are professors but
    // have no PhD (two negated edges).
    let answer = run(library::q5_non_uk_professors());
    println!(
        "Q5 (non-UK professors, students without PhD): {} matches",
        answer.len()
    );

    // A few example entities for Q4 with p = 2: `limit(5)` stops verifying
    // candidates as soon as 5 answers are found.
    let q4 = engine.prepare(&library::q4_uk_professors(2)).unwrap();
    let preview = q4.run(ExecOptions::sequential().limit(5)).unwrap().matches;
    println!("example Q4 matches (node ids): {preview:?}");

    // A live view of Q4 on a versioned store.  Each published batch deletes
    // edges leaving current answers and restores the previous batch's; the
    // view follows the head by re-deciding only the foci near changed edges.
    let store = GraphStore::new(graph.clone());
    let live = Engine::from_store(&store)
        .prepare(&library::q4_uk_professors(2))
        .unwrap();
    let mut view = live.view();
    let deletions: Vec<EdgeOp> = graph
        .edges()
        .filter(|e| view.contains(e.from))
        .take(30)
        .map(|e| EdgeOp::delete(e.from, e.to, e.label))
        .collect();
    let mut restore: Vec<EdgeOp> = Vec::new();
    for batch in deletions.chunks(10) {
        let mut ops = std::mem::take(&mut restore);
        ops.extend_from_slice(batch);
        store.apply(&ops).unwrap();
        let delta = view.advance_with(&store, Runtime::global()).unwrap();
        let head = store.snapshot();
        assert!(
            Arc::ptr_eq(view.snapshot(), &head),
            "the view pins the head"
        );
        let recomputed = live.run_on(&head, ExecOptions::sequential()).unwrap();
        assert_eq!(view.matches(), recomputed.matches.as_slice());
        println!(
            "epoch {}: {} ops, {} foci re-decided, +{} -{} -> {} matches (= recompute)",
            head.epoch(),
            ops.len(),
            delta.rechecked,
            delta.added.len(),
            delta.removed.len(),
            view.len()
        );
        restore = batch.iter().map(EdgeOp::inverse).collect();
    }
}
