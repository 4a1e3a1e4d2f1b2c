//! Quickstart: build a small social graph, write a quantified graph pattern
//! with the builder DSL, prepare it once with the engine, and stream the
//! matches.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use quantified_graph_patterns::{
    CountingQuantifier, Engine, ExecOptions, GraphBuilder, PatternBuilder,
};

fn main() {
    // A small social graph: four users, their follow relationships, and who
    // recommends (or pans) the "Redmi 2A" phone.  This is graph G1 of the
    // paper's running example, extended slightly.
    let mut g = GraphBuilder::new();
    let ann = g.add_node("person");
    let bob = g.add_node("person");
    let cai = g.add_node("person");
    let dee = g.add_node("person");
    let fans = g.add_nodes("person", 4);
    let phone = g.add_node("Redmi 2A");

    // ann follows two fans, both recommend the phone.
    g.add_edge(ann, fans[0], "follow").unwrap();
    g.add_edge(ann, fans[1], "follow").unwrap();
    // bob follows three people; only one of them recommends (and none pans),
    // so bob fails the numeric aggregate alone.
    g.add_edge(bob, fans[2], "follow").unwrap();
    g.add_edge(bob, ann, "follow").unwrap();
    g.add_edge(bob, cai, "follow").unwrap();
    // cai follows two fans and one person who gave a bad rating.
    g.add_edge(cai, fans[2], "follow").unwrap();
    g.add_edge(cai, fans[3], "follow").unwrap();
    g.add_edge(cai, dee, "follow").unwrap();
    for &f in &fans {
        g.add_edge(f, phone, "recom").unwrap();
    }
    g.add_edge(dee, phone, "bad_rating").unwrap();
    let graph = g.build();

    println!(
        "graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // "Find people xo such that at least 2 of the people xo follows recommend
    //  the Redmi 2A, and nobody xo follows gave it a bad rating."
    // This is pattern Q3 of the paper: a numeric aggregate plus negation.
    let mut b = PatternBuilder::new();
    let xo = b.node_named("person", "xo");
    let z1 = b.node_named("person", "z1");
    let z2 = b.node_named("person", "z2");
    let redmi = b.node("Redmi 2A");
    b.quantified_edge(xo, z1, "follow", CountingQuantifier::at_least(2));
    b.edge(z1, redmi, "recom");
    b.negated_edge(xo, z2, "follow");
    b.edge(z2, redmi, "bad_rating");
    b.focus(xo);
    let pattern = b.build().expect("pattern is well-formed");

    println!("\npattern:\n{pattern}");

    // Prepare once: the pattern is validated and compiled (projection,
    // positified negation patterns, radius) exactly here.
    let engine = Engine::new(&graph);
    let prepared = engine.prepare(&pattern).expect("pattern validates");

    // Execute: the first run builds the matcher session.
    let found = prepared.run(ExecOptions::sequential()).unwrap().matches;
    println!("matches of the query focus: {found:?}");

    // The prepared query is reusable; a second execution on the same
    // snapshot reuses the pooled matcher session: nothing is rebuilt.
    let answer = prepared.run(ExecOptions::sequential()).unwrap();
    let stats = answer.stats;
    assert_eq!(answer.matches, found);
    assert_eq!(stats.sessions_built, 0);
    println!(
        "stats (2nd run): {} focus candidates, {} verified, {} isomorphisms, \
         {} pruned by upper bounds, {} sessions built",
        stats.focus_candidates,
        stats.focus_verified,
        stats.isomorphisms_found,
        stats.pruned_by_upper_bound,
        stats.sessions_built
    );

    // ann qualifies (2 recommenders, no bad rating in her followees);
    // bob fails the numeric aggregate; cai fails the negation.
    assert_eq!(found, vec![ann]);
    println!("\n=> only the first user satisfies the quantified pattern, as expected");
}
