//! Experiments E1–E5: the Section 3 walkthrough of the paper, reproduced
//! table by table.
//!
//! The paper develops one running query over the Figure 1 graph and shows
//! every intermediate binding table (Figure 2a, Figure 2b, the table after
//! line 4, the table after line 5 with its duplicate † rows) and the final
//! result. Each prefix of the query is executed here — against **both**
//! the planner engine and the reference semantics — and compared with the
//! exact bag the paper prints.

use cypher::workload::figure1;
use cypher::{table_of, NodeId, Table, Value};
use cypher_tck::diff::rows;

/// `query` on the Figure 1 graph, through the differential harness.
fn fig1(query: &str) -> Table {
    rows(&figure1(), query)
}

fn node(i: u64) -> Value {
    // Figure 1's n1..n10 are NodeId(0)..NodeId(9) in insertion order.
    Value::Node(NodeId(i - 1))
}

#[test]
fn e2_figure_2a_optional_match_bindings() {
    // Lines 1–2: MATCH researchers, OPTIONAL MATCH supervised students.
    let out = fig1(
        "MATCH (r:Researcher)
         OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
         RETURN r, s",
    );
    let expected = table_of(
        &["r", "s"],
        vec![
            vec![node(1), Value::Null],
            vec![node(6), node(7)],
            vec![node(6), node(8)],
            vec![node(10), node(7)],
        ],
    );
    out.assert_bag_eq(&expected);
}

#[test]
fn e3_figure_2b_with_aggregation() {
    // Line 3: WITH r, count(s) — grouping on r, counting non-null s.
    let out = fig1(
        "MATCH (r:Researcher)
         OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
         WITH r, count(s) AS studentsSupervised
         RETURN r, studentsSupervised",
    );
    let expected = table_of(
        &["r", "studentsSupervised"],
        vec![
            vec![node(1), Value::int(0)],
            vec![node(6), Value::int(2)],
            vec![node(10), Value::int(1)],
        ],
    );
    out.assert_bag_eq(&expected);
}

#[test]
fn e4_line4_authors_drops_thor() {
    // Line 4: Thor (n10) authored nothing, so no row with n10 survives.
    let out = fig1(
        "MATCH (r:Researcher)
         OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
         WITH r, count(s) AS studentsSupervised
         MATCH (r)-[:AUTHORS]->(p1:Publication)
         RETURN r, studentsSupervised, p1",
    );
    let expected = table_of(
        &["r", "studentsSupervised", "p1"],
        vec![
            vec![node(1), Value::int(0), node(2)],
            vec![node(6), Value::int(2), node(5)],
            vec![node(6), Value::int(2), node(9)],
        ],
    );
    out.assert_bag_eq(&expected);
}

#[test]
fn e5_line5_variable_length_with_duplicates() {
    // Line 5: the variable-length CITES* match. n9 reaches n2 through two
    // distinct paths (via n5 and via n4), producing the duplicate rows
    // marked † in the paper; n9 itself is cited by nothing → null.
    let out = fig1(
        "MATCH (r:Researcher)
         OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
         WITH r, count(s) AS studentsSupervised
         MATCH (r)-[:AUTHORS]->(p1:Publication)
         OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication)
         RETURN r, studentsSupervised, p1, p2",
    );
    let expected = table_of(
        &["r", "studentsSupervised", "p1", "p2"],
        vec![
            vec![node(1), Value::int(0), node(2), node(4)],
            vec![node(1), Value::int(0), node(2), node(9)], // †
            vec![node(1), Value::int(0), node(2), node(5)],
            vec![node(1), Value::int(0), node(2), node(9)], // †
            vec![node(6), Value::int(2), node(5), node(9)],
            vec![node(6), Value::int(2), node(9), Value::Null],
        ],
    );
    out.assert_bag_eq(&expected);
}

#[test]
fn e1_final_result_table() {
    // Lines 6–7: the output the paper prints — Nils 0 3, Elin 2 1.
    let out = fig1(
        "MATCH (r:Researcher)
         OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
         WITH r, count(s) AS studentsSupervised
         MATCH (r)-[:AUTHORS]->(p1:Publication)
         OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication)
         RETURN r.name, studentsSupervised,
                count(DISTINCT p2) AS citedCount",
    );
    let expected = table_of(
        &["r.name", "studentsSupervised", "citedCount"],
        vec![
            vec![Value::str("Nils"), Value::int(0), Value::int(3)],
            vec![Value::str("Elin"), Value::int(2), Value::int(1)],
        ],
    );
    out.assert_bag_eq(&expected);
    // Column headers match the paper's table.
    assert_eq!(
        out.schema().names(),
        &[
            "r.name".to_string(),
            "studentsSupervised".to_string(),
            "citedCount".to_string()
        ]
    );
}

#[test]
fn line1_initial_bindings() {
    // The very first clause: three researcher bindings n1, n6, n10.
    let out = fig1("MATCH (r:Researcher) RETURN r");
    let expected = table_of(&["r"], vec![vec![node(1)], vec![node(6)], vec![node(10)]]);
    out.assert_bag_eq(&expected);
}
