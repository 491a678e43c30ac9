//! Experiment E21: the update clauses of Section 2 ("Data modification"):
//! `CREATE`, `DELETE` / `DETACH DELETE`, `SET`, `REMOVE`, and `MERGE`'s
//! match-or-create semantics.

use cypher::{run, run_read, Params, PropertyGraph, Value};

fn fresh() -> (PropertyGraph, Params) {
    (PropertyGraph::new(), Params::new())
}

#[test]
fn create_nodes_and_relationships() {
    let (mut g, params) = fresh();
    run(
        &mut g,
        "CREATE (a:Person {name: 'Ada'})-[:KNOWS {since: 1985}]->(b:Person {name: 'Bo'}),
                (a)-[:KNOWS {since: 2001}]->(c:Person {name: 'Cy'})",
        &params,
    )
    .unwrap();
    assert_eq!(g.node_count(), 3);
    assert_eq!(g.rel_count(), 2);
    let t = run_read(
        &g,
        "MATCH (:Person {name: 'Ada'})-[r:KNOWS]->(x) RETURN x.name AS n ORDER BY n",
        &params,
    )
    .unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.cell(0, "n"), Some(&Value::str("Bo")));
}

#[test]
fn create_per_driving_row() {
    let (mut g, params) = fresh();
    run(
        &mut g,
        "UNWIND [1, 2, 3] AS i CREATE (:Item {rank: i})",
        &params,
    )
    .unwrap();
    assert_eq!(g.node_count(), 3);
    let t = run_read(&g, "MATCH (x:Item) RETURN sum(x.rank) AS s", &params).unwrap();
    assert_eq!(t.cell(0, "s"), Some(&Value::int(6)));
}

#[test]
fn create_binds_new_variables_for_return() {
    let (mut g, params) = fresh();
    let t = run(
        &mut g,
        "CREATE (a:Person {name: 'Ada'}) RETURN a.name AS n, id(a) AS i",
        &params,
    )
    .unwrap();
    assert_eq!(t.cell(0, "n"), Some(&Value::str("Ada")));
    assert_eq!(t.cell(0, "i"), Some(&Value::int(0)));
}

#[test]
fn set_properties_and_labels() {
    let (mut g, params) = fresh();
    run(&mut g, "CREATE (:Person {name: 'Ada', tmp: 1})", &params).unwrap();
    run(
        &mut g,
        "MATCH (p:Person) SET p.age = 36, p:Verified, p.tmp = null",
        &params,
    )
    .unwrap();
    let t = run_read(
        &g,
        "MATCH (p:Person:Verified) RETURN p.age AS age, p.tmp AS tmp",
        &params,
    )
    .unwrap();
    assert_eq!(t.cell(0, "age"), Some(&Value::int(36)));
    assert!(t.cell(0, "tmp").unwrap().is_null());
}

#[test]
fn set_replace_and_merge_maps() {
    let (mut g, params) = fresh();
    run(&mut g, "CREATE (:P {a: 1, b: 2})", &params).unwrap();
    run(&mut g, "MATCH (p:P) SET p += {b: 20, c: 30}", &params).unwrap();
    let t = run_read(&g, "MATCH (p:P) RETURN p.a, p.b, p.c", &params).unwrap();
    assert_eq!(t.cell(0, "p.a"), Some(&Value::int(1)));
    assert_eq!(t.cell(0, "p.b"), Some(&Value::int(20)));
    assert_eq!(t.cell(0, "p.c"), Some(&Value::int(30)));
    run(&mut g, "MATCH (p:P) SET p = {z: 9}", &params).unwrap();
    let t2 = run_read(&g, "MATCH (p:P) RETURN p.a, p.z", &params).unwrap();
    assert!(t2.cell(0, "p.a").unwrap().is_null());
    assert_eq!(t2.cell(0, "p.z"), Some(&Value::int(9)));
}

#[test]
fn remove_properties_and_labels() {
    let (mut g, params) = fresh();
    run(&mut g, "CREATE (:A:B {x: 1, y: 2})", &params).unwrap();
    run(&mut g, "MATCH (n:A) REMOVE n.x, n:B", &params).unwrap();
    let t = run_read(&g, "MATCH (n:A) RETURN n.x AS x, n.y AS y", &params).unwrap();
    assert!(t.cell(0, "x").unwrap().is_null());
    assert_eq!(t.cell(0, "y"), Some(&Value::int(2)));
    let b_count = run_read(&g, "MATCH (n:B) RETURN count(*) AS c", &params).unwrap();
    assert_eq!(b_count.cell(0, "c"), Some(&Value::int(0)));
}

#[test]
fn delete_requires_detach_for_connected_nodes() {
    let (mut g, params) = fresh();
    run(&mut g, "CREATE (:A)-[:R]->(:B)", &params).unwrap();
    // Plain DELETE of a connected node is an error (Cypher semantics).
    assert!(run(&mut g, "MATCH (a:A) DELETE a", &params).is_err());
    assert_eq!(g.node_count(), 2);
    run(&mut g, "MATCH (a:A) DETACH DELETE a", &params).unwrap();
    assert_eq!(g.node_count(), 1);
    assert_eq!(g.rel_count(), 0);
}

#[test]
fn delete_relationship_then_node() {
    let (mut g, params) = fresh();
    run(&mut g, "CREATE (:A)-[:R]->(:B)", &params).unwrap();
    run(&mut g, "MATCH (a:A)-[r:R]->(b) DELETE r, a, b", &params).unwrap();
    assert_eq!(g.node_count(), 0);
    assert_eq!(g.rel_count(), 0);
}

#[test]
fn delete_same_entity_from_multiple_rows() {
    let (mut g, params) = fresh();
    run(
        &mut g,
        "CREATE (hub:Hub), (:A)-[:R]->(hub), (:A)-[:R]->(hub)",
        &params,
    )
    .unwrap();
    // hub appears in two rows; collected deletions apply once.
    run(&mut g, "MATCH (:A)-[r:R]->(hub:Hub) DELETE r, hub", &params).unwrap();
    assert_eq!(g.rel_count(), 0);
    let t = run_read(&g, "MATCH (h:Hub) RETURN count(*) AS c", &params).unwrap();
    assert_eq!(t.cell(0, "c"), Some(&Value::int(0)));
}

#[test]
fn merge_matches_or_creates() {
    let (mut g, params) = fresh();
    // First MERGE creates…
    run(&mut g, "MERGE (p:Person {name: 'Ada'})", &params).unwrap();
    assert_eq!(g.node_count(), 1);
    // …second MERGE matches (paper: "creates the pattern if no match was
    // found", so uniqueness is preserved).
    run(&mut g, "MERGE (p:Person {name: 'Ada'})", &params).unwrap();
    assert_eq!(g.node_count(), 1);
    run(&mut g, "MERGE (p:Person {name: 'Bo'})", &params).unwrap();
    assert_eq!(g.node_count(), 2);
}

#[test]
fn merge_on_create_on_match() {
    let (mut g, params) = fresh();
    run(
        &mut g,
        "MERGE (p:Person {name: 'Ada'})
         ON CREATE SET p.created = true
         ON MATCH SET p.matched = true",
        &params,
    )
    .unwrap();
    let t = run_read(
        &g,
        "MATCH (p:Person) RETURN p.created AS c, p.matched AS m",
        &params,
    )
    .unwrap();
    assert_eq!(t.cell(0, "c"), Some(&Value::Bool(true)));
    assert!(t.cell(0, "m").unwrap().is_null());

    run(
        &mut g,
        "MERGE (p:Person {name: 'Ada'})
         ON CREATE SET p.created2 = true
         ON MATCH SET p.matched = true",
        &params,
    )
    .unwrap();
    let t2 = run_read(
        &g,
        "MATCH (p:Person) RETURN p.matched AS m, p.created2 AS c2",
        &params,
    )
    .unwrap();
    assert_eq!(t2.cell(0, "m"), Some(&Value::Bool(true)));
    assert!(t2.cell(0, "c2").unwrap().is_null());
}

#[test]
fn merge_relationship_per_row() {
    let (mut g, params) = fresh();
    run(&mut g, "CREATE (:P {n: 1}), (:P {n: 2})", &params).unwrap();
    // MERGE a HUB and attach each P; the hub pattern includes the rel, so
    // one rel per P is created, but re-running creates nothing new.
    run(
        &mut g,
        "MATCH (p:P) MERGE (p)-[:LINKED]->(:Hub {name: 'h'})",
        &params,
    )
    .unwrap();
    let rels_before = g.rel_count();
    run(
        &mut g,
        "MATCH (p:P) MERGE (p)-[:LINKED]->(:Hub {name: 'h'})",
        &params,
    )
    .unwrap();
    assert_eq!(g.rel_count(), rels_before, "MERGE is idempotent");
}

#[test]
fn updates_compose_linearly_with_reads() {
    let (mut g, params) = fresh();
    run(
        &mut g,
        "CREATE (:Account {id: 1, balance: 100}), (:Account {id: 2, balance: 50})",
        &params,
    )
    .unwrap();
    // Read + update + read in one query.
    let t = run(
        &mut g,
        "MATCH (a:Account) WHERE a.balance >= 100
         SET a.premium = true
         WITH a
         MATCH (a) RETURN a.id AS id, a.premium AS p",
        &params,
    )
    .unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.cell(0, "p"), Some(&Value::Bool(true)));
}

#[test]
fn parameters_in_updates() {
    let (mut g, mut params) = (PropertyGraph::new(), Params::new());
    params.insert("name".into(), Value::str("Dyn"));
    params.insert("age".into(), Value::int(7));
    run(&mut g, "CREATE (:P {name: $name, age: $age})", &params).unwrap();
    let t = run_read(&g, "MATCH (p:P {name: $name}) RETURN p.age AS a", &params).unwrap();
    assert_eq!(t.cell(0, "a"), Some(&Value::int(7)));
}

#[test]
fn create_rejects_invalid_patterns() {
    let (mut g, params) = fresh();
    // Undirected relationship cannot be created.
    assert!(run(&mut g, "CREATE (:A)-[:R]-(:B)", &params).is_err());
    // Variable-length cannot be created.
    assert!(run(&mut g, "CREATE (:A)-[:R*2]->(:B)", &params).is_err());
    // Typeless relationship cannot be created.
    assert!(run(&mut g, "CREATE (:A)-[]->(:B)", &params).is_err());
}

/// `EXPLAIN` renders every clause of an updating statement: one line per
/// updating clause (and `MERGE`'s match plan), and the clauses after it
/// planned over the names it binds, down to the closing projection.
#[test]
fn explain_renders_the_clauses_around_updates() {
    let (mut g, params) = fresh();
    run(
        &mut g,
        "UNWIND range(1, 50) AS i CREATE (:P {k: i})",
        &params,
    )
    .unwrap();
    let explain = |q: &str| cypher::explain(&g, q).unwrap();
    assert_eq!(
        explain("CREATE (n:P {k: 1}) RETURN n.k AS k"),
        "CREATE (n:P {k: 1})\nProject(k)\n"
    );
    let set = explain("MATCH (a:P {k: 1}) SET a.v = 2 RETURN a.v");
    assert!(set.starts_with("MATCH plan:\n"), "{set}");
    assert!(set.ends_with(")\nSET a.v = 2\nProject(a.v)\n"), "{set}");
    let merge = explain("MATCH (a:P {k: 1}) MERGE (a)-[r:R]->(b:Q) RETURN r");
    let (matched, merged) = merge
        .split_once("MERGE (a)-[r:R]->(b:Q)\nMERGE plan:\n")
        .unwrap();
    assert!(matched.starts_with("MATCH plan:\n"), "{merge}");
    assert!(merged.contains("(estimated rows: "), "{merge}");
    assert!(merged.ends_with(")\nProject(r)\n"), "{merge}");
}
