//! Differential testing of the **index subsystem**: the engine with the
//! label/property indexes enabled, the engine with them disabled (pure
//! scans + filters), and the reference evaluator must produce identical
//! bags on every read query — including immediately after interleaved
//! updates, which is exactly when a stale index would diverge.
//!
//! The incremental-maintenance obligation mirrors *Answering FO+MOD
//! queries under updates* (Berkholz et al.): each `CREATE`/`DELETE`/`SET`
//! must leave the index answers equal to recomputation from scratch. Here
//! "recomputation" is the index-free engine and the reference oracle.

use cypher::workload::random_graph;
use cypher::{
    explain, run_read_with, run_reference, run_with, EngineConfig, Params, PropertyGraph, Value,
};

/// Read queries whose anchors exercise every index family: label scans,
/// key-only property seeks, composite label+property seeks, multi-label
/// and multi-property patterns, and seeks under OPTIONAL MATCH / MERGE
/// driving rows.
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
];

/// Asserts the three evaluation strategies agree on `q` over `g`.
fn assert_agree(g: &PropertyGraph, q: &str, params: &Params) {
    let with_idx = run_read_with(g, q, params, &EngineConfig::default())
        .unwrap_or_else(|e| panic!("indexed engine failed on {q}: {e}"));
    let without_idx = run_read_with(g, q, params, &EngineConfig::default().without_indexes())
        .unwrap_or_else(|e| panic!("index-free engine failed on {q}: {e}"));
    let oracle =
        run_reference(g, q, params).unwrap_or_else(|e| panic!("reference failed on {q}: {e}"));
    assert!(
        with_idx.bag_eq(&without_idx),
        "indexes changed the result of {q}\nwith:\n{with_idx}\nwithout:\n{without_idx}"
    );
    assert!(
        with_idx.bag_eq(&oracle),
        "engine diverges from reference on {q}\nengine:\n{with_idx}\nreference:\n{oracle}"
    );
}

#[test]
fn corpus_agrees_on_random_graphs() {
    let params = Params::new();
    for seed in 0..8 {
        let g = random_graph(30, 60, &["A", "B"], &["X", "Y"], seed);
        for q in READ_CORPUS {
            assert_agree(&g, q, &params);
        }
    }
}

#[test]
fn corpus_agrees_after_interleaved_updates() {
    let params = Params::new();
    for seed in 0..4 {
        let mut g = random_graph(20, 30, &["A", "B"], &["X", "Y"], seed);
        // Each step mutates labels, properties or topology through the
        // Cypher surface; after each one every index family must still
        // agree with the scan-based plans and the oracle.
        let steps: &[&str] = &[
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
        ];
        for step in steps {
            run_with(&mut g, step, &params, &EngineConfig::default())
                .unwrap_or_else(|e| panic!("update step failed ({step}): {e}"));
            for q in READ_CORPUS {
                assert_agree(&g, q, &params);
            }
            assert_agree(&g, "MATCH (m:Marker {slot: 1}) RETURN m", &params);
            assert_agree(&g, "MATCH (m:Marker) RETURN count(*) AS c", &params);
        }
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
    assert_agree(&g, q, &params);
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
    let cfg = EngineConfig::default();
    let mut g = PropertyGraph::new();
    let create = "UNWIND range(0, 9) AS i CREATE (:Bot {v: i, w: 1})";
    run_with(&mut g, create, &params, &cfg).unwrap();
    let empty = "MATCH (p:Bot {v: 99, w: $w}) RETURN p";
    let plan = explain(&g, empty).unwrap();
    assert!(plan.contains("PropertyIndexSeek(p:Bot.v = 99)"), "{plan}");
    let t = run_read_with(&g, empty, &params, &cfg).expect("no row reaches the filter");
    assert!(t.is_empty());
    let found = "MATCH (p:Bot {v: 3, w: $w}) RETURN p";
    let e = run_read_with(&g, found, &params, &cfg).unwrap_err();
    assert!(e.to_string().contains("missing parameter: $w"), "{e}");
}

#[test]
fn explain_surfaces_index_choice() {
    let params = Params::new();
    let mut g = PropertyGraph::new();
    run_with(
        &mut g,
        "CREATE (:Person {name: 'Ada'}), (:Person {name: 'Bo'}), (:Bot {name: 'Ada'})",
        &params,
        &EngineConfig::default(),
    )
    .unwrap();
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
    let params = Params::new();
    let mut g = PropertyGraph::new();
    run_with(
        &mut g,
        "CREATE (:N {v: 1}), (:N {v: 1.0}), (:N {v: 2})",
        &params,
        &EngineConfig::default(),
    )
    .unwrap();
    assert_agree(&g, "MATCH (n:N {v: 1}) RETURN count(*) AS c", &params);
    assert_agree(&g, "MATCH (n:N {v: 1.0}) RETURN count(*) AS c", &params);
    let t = run_read_with(
        &g,
        "MATCH (n:N {v: 1}) RETURN count(*) AS c",
        &params,
        &EngineConfig::default(),
    )
    .unwrap();
    assert_eq!(t.cell(0, "c"), Some(&Value::int(2)));
}
