//! Experiments E7–E11: the formal examples of Section 4, reproduced as
//! end-to-end queries over the Figure 4 graph and checked against both
//! evaluators.

use cypher::workload::figure4;
use cypher::{table_of, NodeId, Table, Value};
use cypher_tck::diff::{Diff, ALL};

/// `query` on the Figure 4 graph at every cell of the harness's table:
/// thread counts and morsel sizes, join policies, indexes on and off, the
/// cartesian baseline.
fn fig4(query: &str) -> Table {
    Diff::new(ALL).rows(&figure4(), query)
}

fn node(i: u64) -> Value {
    // Figure 4's n1..n4 are NodeId(0)..NodeId(3).
    Value::Node(NodeId(i - 1))
}

#[test]
fn e7_example_4_2_node_pattern_satisfaction() {
    // (x:Teacher) is satisfied by n1, n3, n4 and not by n2.
    let out = fig4("MATCH (x:Teacher) RETURN x");
    out.assert_bag_eq(&table_of(
        &["x"],
        vec![vec![node(1)], vec![node(3)], vec![node(4)]],
    ));
    // (y) is satisfied by each of the four nodes.
    let out_any = fig4("MATCH (y) RETURN y");
    assert_eq!(out_any.len(), 4);
}

#[test]
fn e8_example_4_3_rigid_pattern_unique_assignment() {
    // (x:Teacher)-[:KNOWS*2]->(y): the only satisfying path is
    // n1 r1 n2 r2 n3, and the assignment is uniquely x=n1, y=n3.
    let out = fig4("MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y");
    out.assert_bag_eq(&table_of(&["x", "y"], vec![vec![node(1), node(3)]]));
}

#[test]
fn e9_example_4_4_variable_length_assignments() {
    // With the middle node named, three assignments exist:
    // (x=n1, z=n2, y=n3), (x=n1, z=n2, y=n4), (x=n1, z=n3, y=n4).
    let out =
        fig4("MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) RETURN x, z, y");
    out.assert_bag_eq(&table_of(
        &["x", "z", "y"],
        vec![
            vec![node(1), node(2), node(3)],
            vec![node(1), node(2), node(4)],
            vec![node(1), node(3), node(4)],
        ],
    ));
}

#[test]
fn e10_example_4_5_bag_multiplicity() {
    // Anonymous middle: the n1→n4 path satisfies the pattern through two
    // rigid expansions (splits 1+2 and 2+1), so two copies of the same
    // assignment appear in the bag.
    let out = fig4("MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) RETURN x, y");
    out.assert_bag_eq(&table_of(
        &["x", "y"],
        vec![
            vec![node(1), node(3)],
            vec![node(1), node(4)],
            vec![node(1), node(4)], // second copy of u (Example 4.5)
        ],
    ));
}

#[test]
fn e11_example_4_6_match_on_driving_table() {
    // [[MATCH (x)-[:KNOWS*]->(y)]] over T = {(x: n1), (x: n3)}: the
    // driving table is emulated by pinning x via id().
    let out = fig4(
        "MATCH (x) WHERE id(x) = 0 OR id(x) = 2
         MATCH (x)-[:KNOWS*]->(y)
         RETURN x, y",
    );
    out.assert_bag_eq(&table_of(
        &["x", "y"],
        vec![
            vec![node(1), node(2)],
            vec![node(1), node(3)],
            vec![node(1), node(4)],
            vec![node(3), node(4)],
        ],
    ));
}

#[test]
fn named_paths_are_values() {
    // §2: "Cypher also supports matching and returning paths as values."
    let out = fig4("MATCH p = (x:Student)-[:KNOWS*]->(y) RETURN length(p) AS len");
    out.assert_bag_eq(&table_of(
        &["len"],
        vec![vec![Value::int(1)], vec![Value::int(2)]],
    ));
}

#[test]
fn path_functions_on_named_paths() {
    let out = fig4(
        "MATCH p = (x:Teacher)-[:KNOWS*2]->(y)
         RETURN size(nodes(p)) AS n, size(relationships(p)) AS r",
    );
    out.assert_bag_eq(&table_of(
        &["n", "r"],
        vec![vec![Value::int(3), Value::int(2)]],
    ));
}

#[test]
fn undirected_and_reverse_patterns_agree() {
    // (a)-[r]-(b) matches each relationship in both orientations; the
    // reverse arrow form binds the same pairs swapped.
    let undirected = fig4("MATCH (a)-[:KNOWS]-(b) RETURN a, b");
    assert_eq!(undirected.len(), 6); // 3 rels × 2 orientations
    let fwd = fig4("MATCH (a)-[:KNOWS]->(b) RETURN a AS x, b AS y");
    let rev = fig4("MATCH (b)<-[:KNOWS]-(a) RETURN a AS x, b AS y");
    assert!(fwd.bag_eq(&rev));
}

/// The remaining Figure 4 rows of the differential corpus.
#[test]
fn figure4_corpus_agrees_across_the_cell_table() {
    for q in [
        "MATCH (x:Teacher)-[:KNOWS]->(y) RETURN x, y",
        "MATCH (x)-[r]-(y) RETURN x, y",
        "MATCH p = (x)-[:KNOWS*]->(y) RETURN x, y, length(p) AS len",
        "OPTIONAL MATCH (s:Student)-[:TEACHES]->(t) RETURN s, t",
        "MATCH (a), (b:Student) RETURN a, b",
    ] {
        fig4(q);
    }
}
