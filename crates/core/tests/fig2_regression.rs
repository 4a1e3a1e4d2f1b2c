//! Regression tests pinning the engine's answers on the Fig. 2 graphs of
//! the paper, across every matcher configuration.
//!
//! These are the exact running examples the paper works through (Examples
//! 3–5), so their answers are known in closed form.  The test exists to
//! guarantee that storage- or matcher-layout changes (e.g. the CSR rewrite)
//! never shift semantics: all three configurations — `QMatch` (incremental
//! negation), `QMatchn` (negation from scratch) and `Enum`
//! (enumerate-then-verify) — must return the same, correct answers.

mod common;

use common::{engine_match, run};
use qgp_core::engine::ExecOptions;
use qgp_core::matching::reference::evaluate_reference;
use qgp_core::matching::MatchConfig;
use qgp_core::pattern::{library, Pattern};
use qgp_graph::{EdgeOp, Graph, GraphBuilder, LabelSet, NodeId};

fn configs() -> [(&'static str, MatchConfig); 3] {
    [
        ("QMatch", MatchConfig::qmatch()),
        ("QMatchn", MatchConfig::qmatch_n()),
        ("Enum", MatchConfig::enumerate()),
    ]
}

/// Graph G1 of Fig. 2: x1 follows v0; x2 follows v1, v2; x3 follows v2, v3,
/// v4; v0..v3 recommend Redmi 2A; v4 gave it a bad rating.
fn g1() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let xs = b.add_nodes("person", 3);
    let vs = b.add_nodes("person", 5);
    let redmi = b.add_node("Redmi 2A");
    b.add_edge(xs[0], vs[0], "follow").unwrap();
    b.add_edge(xs[1], vs[1], "follow").unwrap();
    b.add_edge(xs[1], vs[2], "follow").unwrap();
    b.add_edge(xs[2], vs[2], "follow").unwrap();
    b.add_edge(xs[2], vs[3], "follow").unwrap();
    b.add_edge(xs[2], vs[4], "follow").unwrap();
    for &v in &vs[..4] {
        b.add_edge(v, redmi, "recom").unwrap();
    }
    b.add_edge(vs[4], redmi, "bad_rating").unwrap();
    (b.build(), xs, vs)
}

/// Graph G2 of Fig. 2: professors x4..x6 in the UK with PhD students v5..v9
/// (x4 also holds a PhD; x6 advised only one student).
fn g2() -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let xs = b.add_nodes("person", 3); // x4, x5, x6
    let vs = b.add_nodes("person", 5); // v5..v9
    let prof = b.add_node("prof");
    let phd = b.add_node("PhD");
    let uk = b.add_node("UK");
    for &x in &xs {
        b.add_edge(x, prof, "is_a").unwrap();
        b.add_edge(x, uk, "in").unwrap();
    }
    b.add_edge(xs[0], phd, "is_a").unwrap();
    let advisors = [0usize, 0, 1, 1, 2];
    for (i, &a) in advisors.iter().enumerate() {
        b.add_edge(xs[a], vs[i], "advisor").unwrap();
        b.add_edge(vs[i], prof, "is_a").unwrap();
        b.add_edge(vs[i], uk, "in").unwrap();
    }
    (b.build(), xs)
}

fn assert_answer(graph: &Graph, pattern: &Pattern, expected: &[NodeId], what: &str) {
    let oracle = evaluate_reference(graph, pattern);
    assert_eq!(oracle, expected, "{what}: oracle");
    for (name, config) in configs() {
        let ans = engine_match(graph, pattern, &config);
        assert_eq!(ans.matches, expected, "{what} under {name}");
    }
}

#[test]
fn q2_universal_on_g1_matches_example_3() {
    // Q2(xo, G1) = {x1, x2}: everyone x1/x2 follows recommends Redmi 2A,
    // while x3 follows v4 who does not.
    let (g, xs, _) = g1();
    assert_answer(&g, &library::q2_redmi_universal(), &xs[..2], "Q2 on G1");
}

#[test]
fn q3_negation_on_g1_matches_example_4() {
    // Q3(xo, G1) with p = 2 is {x2}: x1 follows only one recommender and x3
    // follows v4 who panned the phone.
    let (g, xs, _) = g1();
    assert_answer(&g, &library::q3_redmi_negation(2), &[xs[1]], "Q3(p=2) on G1");
    // With p = 1 the numeric aggregate also admits x1; the negated edge
    // still excludes x3.
    assert_answer(
        &g,
        &library::q3_redmi_negation(1),
        &xs[..2],
        "Q3(p=1) on G1",
    );
    // p = 3: only x3 has three followees, but the negation kills it.
    assert_answer(&g, &library::q3_redmi_negation(3), &[], "Q3(p=3) on G1");
}

#[test]
fn q4_and_q5_on_g2_match_example_4() {
    // Q4 with p = 2: x4 holds a PhD (negated edge), x6 has one student:
    // answer = {x5}.
    let (g, xs) = g2();
    assert_answer(&g, &library::q4_uk_professors(2), &[xs[1]], "Q4(p=2) on G2");
    // Everyone in G2 lives in the UK, so Q5's negated `in UK` edge empties
    // the answer.
    assert_answer(&g, &library::q5_non_uk_professors(), &[], "Q5 on G2");
}

#[test]
fn stratified_matching_on_g1_is_stable() {
    // Interpreted conventionally (all quantifiers existential), Q3 matches
    // any xo with both a recommending and a bad-rating followee: only x3.
    let (g, xs, _) = g1();
    let stratified = library::q3_redmi_negation(2).stratified();
    let ans = run(&g, &stratified, ExecOptions::sequential()).unwrap();
    assert_eq!(ans.matches, vec![xs[2]]);
}

#[test]
fn fig2_graphs_built_batch_and_incrementally_agree() {
    // The same G1 assembled from the builder's nodes plus one-op
    // `apply_edge_ops` batches must give the same answers — the two
    // construction paths freeze identical CSR state.
    let (batch, xs, _) = g1();
    let mut labels = LabelSet::new();
    let follow = labels.intern_edge_label("follow");
    let recom = labels.intern_edge_label("recom");
    let bad = labels.intern_edge_label("bad_rating");
    let mut b = GraphBuilder::with_labels(labels);
    let xs2 = b.add_nodes("person", 3);
    let vs2 = b.add_nodes("person", 5);
    let redmi = b.add_node("Redmi 2A");
    let mut g = b.build();
    let mut edges = vec![
        (xs2[0], vs2[0], follow),
        (xs2[1], vs2[1], follow),
        (xs2[1], vs2[2], follow),
        (xs2[2], vs2[2], follow),
        (xs2[2], vs2[3], follow),
        (xs2[2], vs2[4], follow),
    ];
    edges.extend(vs2[..4].iter().map(|&v| (v, redmi, recom)));
    edges.push((vs2[4], redmi, bad));
    for (from, to, label) in edges {
        let report = g
            .apply_edge_ops(&[EdgeOp::insert(from, to, label)])
            .unwrap();
        assert_eq!(report.inserted, 1);
    }

    for (name, config) in configs() {
        let a = engine_match(&batch, &library::q3_redmi_negation(2), &config);
        let b = engine_match(&g, &library::q3_redmi_negation(2), &config);
        assert_eq!(a.matches, b.matches, "{name}");
        assert_eq!(a.matches, vec![xs[1]]);
    }
}
