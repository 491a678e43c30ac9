//! Experiment E18 (correctness half): differential testing of the
//! evaluation strategies — the reference denotational evaluator, the
//! Expand-based planner engine, the cartesian-baseline planner and the
//! index-free plans — over randomized graphs and a corpus of read queries.
//!
//! The paper's Section 4 argues a formal semantics "paves a way to a
//! reference implementation against which others will be compared"; this
//! file runs that comparison (`cypher_tck::diff`) over one corpus under
//! each of the three morphisms of Section 8, which parameterise the
//! matching semantics.

use cypher::{MatchConfig, Morphism};
use cypher_tck::diff::{Diff, Stmt, Sweep, CORPUS, PLANS};

const MORPHISMS: [Morphism; 3] = [
    Morphism::EdgeIsomorphism,
    Morphism::NodeIsomorphism,
    Morphism::Homomorphism,
];

/// Sweeps the corpus over `random_graph(nodes, rels, …, seed)` after
/// `setup`, under [`PLANS`] and every morphism.
fn check_graph(nodes: usize, rels: usize, seed: u64, setup: &[&str]) {
    let mut stream: Vec<Stmt> = setup.iter().map(|u| Stmt::Update(u.to_string())).collect();
    stream.extend(CORPUS.iter().map(|q| Stmt::Read(q.to_string())));
    for morphism in MORPHISMS {
        let diff = Diff::new(PLANS).matching(MatchConfig {
            morphism,
            ..MatchConfig::default()
        });
        diff.total_order_by()
            .sweep(Sweep::new(nodes, rels, seed, stream.clone()));
    }
}

#[test]
fn corpus_on_small_random_graphs() {
    for seed in 0..8 {
        check_graph(12, 20, seed, &[]);
    }
}

#[test]
fn corpus_on_denser_random_graphs() {
    for seed in 100..103 {
        check_graph(20, 60, seed, &[]);
    }
}

#[test]
fn corpus_on_edge_case_graphs() {
    // Empty graph.
    check_graph(0, 0, 0, &[]);
    // Single node, no relationships.
    check_graph(0, 0, 0, &["CREATE (:A {i: 0, v: 1})"]);
    // Self-loops and parallel edges.
    let loops = "CREATE (a:A {i: 0, v: 3}), (b:B {i: 1, v: 7}), (a)-[:X {w: 1}]->(a), \
                 (a)-[:X {w: 2}]->(b), (a)-[:X {w: 3}]->(b), (b)-[:Y {w: 4}]->(a)";
    check_graph(0, 0, 0, &[loops]);
}

#[test]
fn workload_generators_agree_too() {
    let g = cypher::workload::citation_network(6, 30, 2, 11);
    for q in [
        "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN r.name, count(p) AS pubs",
        "MATCH (p1:Publication)<-[:CITES*1..3]-(p2) RETURN p1.acmid, count(DISTINCT p2) AS c",
        "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) RETURN r.name, count(s) AS n",
    ] {
        Diff::new(PLANS).rows(&g, q);
    }
}
