//! Experiment E18 (correctness half): differential testing of the three
//! evaluation strategies — the reference denotational evaluator, the
//! Expand-based planner engine, and the cartesian-baseline planner — over
//! randomized graphs and a corpus of read queries.
//!
//! The paper's Section 4 argues a formal semantics "paves a way to a
//! reference implementation against which others will be compared"; this
//! file is that comparison — under each of the three morphisms of
//! Section 8, which parameterise the matching semantics.

use cypher::workload::random_graph;
use cypher::{
    run_read_with, run_reference, run_reference_with, EngineConfig, MatchConfig, Morphism, Params,
    PlannerMode, PropertyGraph,
};

const MORPHISMS: [Morphism; 3] = [
    Morphism::EdgeIsomorphism,
    Morphism::NodeIsomorphism,
    Morphism::Homomorphism,
];

/// The query corpus: read queries over labels A/B and types X/Y exercising
/// matching, optional matching, variable-length patterns, filtering,
/// aggregation, ordering, distinct, unwind and unions.
const CORPUS: &[&str] = &[
    "MATCH (a) RETURN count(*) AS c",
    "MATCH (a:A) RETURN a.i ORDER BY a.i",
    "MATCH (a)-[r:X]->(b) RETURN a.i, r.w, b.i",
    "MATCH (a)-[r]->(b) RETURN count(*) AS c",
    "MATCH (a)-[:X]->(b)-[:Y]->(c) RETURN a.i, b.i, c.i",
    "MATCH (a)-[:X]-(b) RETURN a.i, b.i",
    "MATCH (a)<-[:Y]-(b) RETURN a.i, b.i",
    "MATCH (a:A)-[*1..2]->(b:B) RETURN a.i, b.i",
    "MATCH (a)-[rs:X*0..2]->(b) RETURN a.i, size(rs) AS hops, b.i",
    "MATCH p = (a)-[:X*1..2]->(b) RETURN a.i, length(p) AS len",
    "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(b) RETURN a.i, b.i",
    "MATCH (a) OPTIONAL MATCH (a)-[:X]->(b:B) WHERE b.v > 5 RETURN a.i, b.i",
    "MATCH (a)-[r:X]->(b) WHERE r.w > 50 RETURN a.i, b.i",
    "MATCH (a:A), (b:B) RETURN count(*) AS pairs",
    "MATCH (a)-[r1]->(b)-[r2]->(a) RETURN a.i, b.i",
    "MATCH (a) WHERE (a)-[:X]->(:B) RETURN a.i",
    "MATCH (a) WHERE NOT (a)-[:X]->() RETURN a.i",
    "MATCH (a) RETURN DISTINCT a.v AS v ORDER BY v",
    "MATCH (a) RETURN a.v AS v, count(*) AS c ORDER BY v, c",
    // A group keeps its first source row only where it is read: by an
    // aggregated item that is not bare, or by a sort key that is not an
    // output column (and never after DISTINCT).
    "MATCH (a) RETURN a.v AS g, a.v + count(*) AS x ORDER BY g",
    "MATCH (a) RETURN a.v AS g, count(*) AS c ORDER BY a.i DESC",
    "MATCH (a) RETURN DISTINCT a.v AS g ORDER BY g DESC",
    "MATCH (a)-[:X]->(b) WITH a, count(b) AS deg WHERE deg > 1 RETURN a.i, deg",
    "MATCH (a) WITH a.v AS v, collect(a.i) AS is RETURN v, size(is) AS n ORDER BY v",
    "MATCH (a) RETURN sum(a.v) AS s, min(a.v) AS lo, max(a.v) AS hi, avg(a.v) AS mean",
    "UNWIND [1, 2, 3] AS x MATCH (a:A) RETURN x, count(a) AS c ORDER BY x",
    "MATCH (a:A) RETURN a.i AS i UNION MATCH (b:B) RETURN b.i AS i",
    "MATCH (a:A) RETURN a.i AS i UNION ALL MATCH (b:B) RETURN b.i AS i",
    "MATCH (a) RETURN a.i AS i ORDER BY i DESC SKIP 2 LIMIT 3",
    "MATCH (a) RETURN CASE WHEN a.v > 5 THEN 'hi' ELSE 'lo' END AS bucket, count(*) AS c",
    "MATCH (a) RETURN [x IN range(0, a.v) WHERE x % 2 = 0 | x] AS evens ORDER BY a.i LIMIT 5",
    "MATCH (a)-[rs:X*1..3]->(b) RETURN count(*) AS walks",
    "MATCH (a)-[:X]->(b), (b)-[:Y]->(c) RETURN a.i, b.i, c.i",
    // Streamed chains: every clause below runs inside one segment.
    "MATCH (a:A) WITH a WHERE a.v > 3 MATCH (a)-[:X]->(b) RETURN a.i, b.i",
    "UNWIND [0, 1, 2, 3, 4] AS x WITH x WHERE x % 2 = 0 MATCH (a {i: x}) RETURN x, a.v",
    "MATCH (a)-[:X]->(b) WITH * RETURN a.i, b.i",
    "MATCH (a)-[:X]->(b) WITH b AS a, a AS b RETURN a.i, b.i",
    "MATCH (a)-[:X]->(b) WITH b AS a MATCH (a)-[:Y]->(c) RETURN a.i, c.i",
    "UNWIND [null, 1, [2, [3]]] AS x UNWIND x AS y RETURN x, y",
    "UNWIND null AS x UNWIND 7 AS y RETURN x, y",
    "MATCH p = (a:A)-[:X*1..2]->(b) WITH p, b MATCH (b)-[:Y]->(c) RETURN length(p) AS len, c.i",
    "MATCH (a)-[:X]->() MATCH (b)-[:Y]->() WHERE a.i < b.i RETURN a.i, b.i",
    "MATCH (a:Nope) WITH nosuchvar AS x RETURN x",
];

fn check_graph(g: &PropertyGraph, label: &str) {
    for morphism in MORPHISMS {
        check_graph_under(g, &format!("{label}, {morphism:?}"), morphism);
    }
}

fn check_graph_under(g: &PropertyGraph, label: &str, morphism: Morphism) {
    let params = Params::new();
    let match_config = MatchConfig {
        morphism,
        ..MatchConfig::default()
    };
    let engine = EngineConfig {
        match_config,
        ..EngineConfig::default()
    };
    for q in CORPUS {
        let reference = run_reference_with(g, q, &params, match_config)
            .unwrap_or_else(|e| panic!("[{label}] reference failed on {q}: {e}"));
        let expand = run_read_with(g, q, &params, &engine)
            .unwrap_or_else(|e| panic!("[{label}] engine failed on {q}: {e}"));
        assert!(
            expand.bag_eq(&reference),
            "[{label}] expand-engine diverges on {q}\nreference:\n{reference}\nengine:\n{expand}"
        );
        let cartesian = run_read_with(
            g,
            q,
            &params,
            &EngineConfig {
                planner_mode: PlannerMode::CartesianJoin,
                ..engine.clone()
            },
        )
        .unwrap_or_else(|e| panic!("[{label}] cartesian engine failed on {q}: {e}"));
        assert!(
            cartesian.bag_eq(&reference),
            "[{label}] cartesian baseline diverges on {q}\nreference:\n{reference}\nbaseline:\n{cartesian}"
        );
    }
}

#[test]
fn corpus_on_small_random_graphs() {
    for seed in 0..8 {
        let g = random_graph(12, 20, &["A", "B"], &["X", "Y"], seed);
        check_graph(&g, &format!("seed {seed}"));
    }
}

#[test]
fn corpus_on_denser_random_graphs() {
    for seed in 100..103 {
        let g = random_graph(20, 60, &["A", "B"], &["X", "Y"], seed);
        check_graph(&g, &format!("dense seed {seed}"));
    }
}

#[test]
fn corpus_on_edge_case_graphs() {
    // Empty graph.
    check_graph(&PropertyGraph::new(), "empty");
    // Single node, no relationships.
    let mut single = PropertyGraph::new();
    single.add_node(
        &["A"],
        [("i", cypher::Value::int(0)), ("v", cypher::Value::int(1))],
    );
    check_graph(&single, "single node");
    // Self-loops and parallel edges.
    let mut loops = PropertyGraph::new();
    let a = loops.add_node(
        &["A"],
        [("i", cypher::Value::int(0)), ("v", cypher::Value::int(3))],
    );
    let b = loops.add_node(
        &["B"],
        [("i", cypher::Value::int(1)), ("v", cypher::Value::int(7))],
    );
    loops
        .add_rel(a, a, "X", [("w", cypher::Value::int(1))])
        .unwrap();
    loops
        .add_rel(a, b, "X", [("w", cypher::Value::int(2))])
        .unwrap();
    loops
        .add_rel(a, b, "X", [("w", cypher::Value::int(3))])
        .unwrap();
    loops
        .add_rel(b, a, "Y", [("w", cypher::Value::int(4))])
        .unwrap();
    check_graph(&loops, "loops and parallel edges");
}

#[test]
fn workload_generators_agree_too() {
    let params = Params::new();
    let g = cypher::workload::citation_network(6, 30, 2, 11);
    for q in [
        "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN r.name, count(p) AS pubs",
        "MATCH (p1:Publication)<-[:CITES*1..3]-(p2) RETURN p1.acmid, count(DISTINCT p2) AS c",
        "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) RETURN r.name, count(s) AS n",
    ] {
        let reference = run_reference(&g, q, &params).unwrap();
        let engine = cypher::run_read(&g, q, &params).unwrap();
        assert!(engine.bag_eq(&reference), "diverges on {q}");
    }
}
