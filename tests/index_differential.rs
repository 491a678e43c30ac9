//! Differential testing of the **index subsystem**: the engine with the
//! label/property indexes enabled, the engine with them disabled (pure
//! scans + filters), and the reference evaluator must produce identical
//! bags on every read query — including immediately after interleaved
//! updates, which is exactly when a stale index would diverge.
//!
//! The incremental-maintenance obligation mirrors *Answering FO+MOD
//! queries under updates* (Berkholz et al.): each `CREATE`/`DELETE`/`SET`
//! must leave the index answers equal to recomputation from scratch. Here
//! "recomputation" is the index-free engine and the reference oracle, as
//! the differential harness (`cypher_tck::diff`) compares them.

use cypher::workload::random_graph;
use cypher::{explain, run_read_with, MatchConfig, Params, Value};
use cypher_tck::diff::{config, graph, Diff, Stmt, Sweep, LIGHT, PLANS};

/// Read queries whose anchors exercise every index family: label scans,
/// key-only property seeks, composite label+property seeks, multi-label
/// and multi-property patterns, seeks under OPTIONAL MATCH / MERGE
/// driving rows, and a label only `MERGE` creates.
const READ_CORPUS: &[&str] = &[
    "MATCH (n) RETURN count(*) AS c",
    "MATCH (n:A) RETURN n",
    "MATCH (n:B) RETURN count(n) AS c",
    "MATCH (n {v: 3}) RETURN n",
    "MATCH (n:A {v: 3}) RETURN n",
    "MATCH (n:A {v: 3, i: 7}) RETURN n",
    "MATCH (a:A {v: 1})-[r]->(b) RETURN a, b",
    "MATCH (a:A)-[:X]->(b {v: 2}) RETURN a, b",
    "MATCH (a {v: 0})-[:X*1..2]->(b) RETURN a, b",
    "MATCH (a:A {v: 1}), (b:B {v: 2}) RETURN count(*) AS c",
    "MATCH (n:A) WHERE n.v > 2 RETURN n.v AS v ORDER BY v",
    "OPTIONAL MATCH (n:A {v: 9}) RETURN n",
    "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(b:B {v: 1}) RETURN a, b",
    "MATCH (m:Marker {slot: 1}) RETURN m",
    "MATCH (m:Marker) RETURN count(*) AS c",
];

/// The corpus under [`PLANS`] (indexes on and off, and the cartesian
/// baseline) after each statement of `setup`.
fn sweep(seed: u64, nodes: usize, rels: usize, setup: &[&str]) {
    let reads = || READ_CORPUS.iter().map(|q| Stmt::Read(q.to_string()));
    let mut stream: Vec<Stmt> = reads().collect();
    for step in setup {
        stream.push(Stmt::Update(step.to_string()));
        stream.extend(reads());
    }
    Diff::new(PLANS).sweep(Sweep::new(nodes, rels, seed, stream));
}

#[test]
fn corpus_agrees_on_random_graphs() {
    for seed in 0..8 {
        sweep(seed, 30, 60, &[]);
    }
}

#[test]
fn corpus_agrees_after_interleaved_updates() {
    for seed in 0..4 {
        // Each step mutates labels, properties or topology through the
        // Cypher surface; after each one every index family must still
        // agree with the scan-based plans and the oracle.
        sweep(
            seed,
            20,
            30,
            &[
                "CREATE (:A {v: 3, fresh: true})-[:X]->(:B {v: 3})",
                "MATCH (n:A {v: 3}) SET n.v = 4",
                "MATCH (n:B) WHERE n.v = 3 SET n:A",
                "MATCH (n:A {v: 4}) REMOVE n:A",
                "MATCH (n {fresh: true}) SET n = {v: 5, recycled: true}",
                "MATCH (n:A {v: 1}) SET n.v = null",
                "MATCH (a:A)-[r:X]->(b:B {v: 2}) DELETE r",
                "MATCH (n {recycled: true}) DETACH DELETE n",
                "MERGE (m:Marker {slot: 1}) ON CREATE SET m.created = true",
                "MERGE (m:Marker {slot: 1}) ON MATCH SET m.matched = true",
                "MATCH (m:Marker) REMOVE m.slot",
            ],
        );
    }
}

#[test]
fn parameterized_seeks_agree() {
    let mut params = Params::new();
    params.insert("wanted".into(), Value::int(2));
    let g = random_graph(40, 60, &["A", "B"], &["X"], 99);
    // A parameter is a planning-time constant: the seek must use it and
    // agree with the oracle.
    let q = "MATCH (n:A {v: $wanted}) RETURN n";
    Diff::new(PLANS).params(params).rows(&g, q);
    let plan = explain(&g, q).unwrap();
    assert!(plan.contains("PropertyIndexSeek"), "{plan}");
}

/// The residual `Filter` behind a seek evaluates a literal or parameter
/// once, on the first row that reaches it: a seek that finds nothing
/// never evaluates a missing parameter, and one that finds rows raises
/// the same error as before.
#[test]
fn residual_filter_evaluates_constants_only_when_a_row_arrives() {
    let params = Params::new();
    let g = graph(&["UNWIND range(0, 9) AS i CREATE (:Bot {v: i, w: 1})"]);
    let empty = "MATCH (p:Bot {v: 99, w: $w}) RETURN p";
    let plan = explain(&g, empty).unwrap();
    assert!(plan.contains("PropertyIndexSeek(p:Bot.v = 99)"), "{plan}");
    let found = "MATCH (p:Bot {v: 3, w: $w}) RETURN p";
    for &cell in LIGHT {
        let cfg = config(cell, MatchConfig::default());
        let t = run_read_with(&g, empty, &params, &cfg).expect("no row reaches the filter");
        assert!(t.is_empty(), "{cell:?}");
        let e = run_read_with(&g, found, &params, &cfg).unwrap_err();
        assert!(
            e.to_string().contains("missing parameter: $w"),
            "{cell:?}: {e}"
        );
    }
}

#[test]
fn explain_surfaces_index_choice() {
    let g =
        graph(&["CREATE (:Person {name: 'Ada'}), (:Person {name: 'Bo'}), (:Bot {name: 'Ada'})"]);
    let plan = explain(&g, "MATCH (n:Person {name: 'Ada'}) RETURN n").unwrap();
    assert!(
        plan.contains("PropertyIndexSeek(n:Person.name = 'Ada')"),
        "composite seek missing from plan:\n{plan}"
    );
    let label_only = explain(&g, "MATCH (n:Person) RETURN n").unwrap();
    assert!(
        label_only.contains("NodeIndexScan(n:Person)"),
        "label index scan missing from plan:\n{label_only}"
    );
}

#[test]
fn seeks_respect_equality_semantics_on_numerics() {
    // 1 and 1.0 are *equivalent* (same index bucket) and also `=`-equal;
    // the seek plus residual filter must return both, like the oracle.
    let g = graph(&["CREATE (:N {v: 1}), (:N {v: 1.0}), (:N {v: 2})"]);
    let t = Diff::new(PLANS).rows(&g, "MATCH (n:N {v: 1}) RETURN count(*) AS c");
    assert_eq!(t.cell(0, "c"), Some(&Value::int(2)));
    Diff::new(PLANS).rows(&g, "MATCH (n:N {v: 1.0}) RETURN count(*) AS c");
}
