//! Experiments E15 and E16: the two industry queries quoted verbatim in
//! Section 3 of the paper — network management (transitive `DEPENDS_ON`)
//! and fraud-ring detection (shared personal information) — run over the
//! synthetic workload generators and cross-checked between evaluators.

use cypher::workload::{datacenter, fraud_rings};
use cypher::Value;
use cypher_tck::diff::rows;

#[test]
fn e15_network_management_top_dependency() {
    // "The query returns the component that is depended upon — both
    //  directly and indirectly — by the largest number of entities."
    let g = datacenter(120, 4, 2, 42);
    let q = "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service)
             RETURN svc.name AS svc, count(DISTINCT dep) AS dependents
             ORDER BY dependents DESC
             LIMIT 1";
    let engine = rows(&g, q);
    assert_eq!(engine.len(), 1);
    // The hub must be shared infrastructure from the lowest layer.
    let name = engine.cell(0, "svc").unwrap().as_str().unwrap().to_string();
    assert!(
        name.starts_with("core-switch"),
        "expected a layer-0 hub, got {name}"
    );
    // And its dependent count must dominate any single node's in-degree.
    let dependents = engine.cell(0, "dependents").unwrap().as_int().unwrap();
    assert!(
        dependents > 2,
        "hub should accumulate transitive dependents"
    );
}

#[test]
fn e15_transitive_closure_exceeds_direct() {
    let g = datacenter(80, 4, 2, 7);
    let direct = rows(
        &g,
        "MATCH (s:Service)<-[:DEPENDS_ON]-(d:Service)
         RETURN s.name AS n, count(DISTINCT d) AS c ORDER BY c DESC LIMIT 1",
    );
    let transitive = rows(
        &g,
        "MATCH (s:Service)<-[:DEPENDS_ON*]-(d:Service)
         RETURN s.name AS n, count(DISTINCT d) AS c ORDER BY c DESC LIMIT 1",
    );
    let d = direct.cell(0, "c").unwrap().as_int().unwrap();
    let t = transitive.cell(0, "c").unwrap().as_int().unwrap();
    assert!(t >= d, "transitive closure dominates direct dependents");
}

#[test]
fn e16_fraud_ring_detection() {
    // Section 3's second example: account holders sharing SSN, phone
    // number or address. The generator plants exactly 3 rings of size 4.
    let g = fraud_rings(40, 3, 4, 99);
    let q = "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo)
             WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address
             WITH pInfo,
                  collect(accHolder.uniqueId) AS accountHolders,
                  count(*) AS fraudRingCount
             WHERE fraudRingCount > 1
             RETURN accountHolders,
                    labels(pInfo) AS personalInformation,
                    fraudRingCount";
    let engine = rows(&g, q);
    assert_eq!(engine.len(), 3, "exactly the planted rings surface");
    for row in engine.rows() {
        let count = row
            .get(engine.schema().index_of("fraudRingCount").unwrap())
            .as_int()
            .unwrap();
        assert_eq!(count, 4, "each ring has 4 members");
        let Value::List(holders) = row.get(0) else {
            panic!("collect() returns a list")
        };
        assert_eq!(holders.len(), 4);
    }
}

#[test]
fn e16_no_false_positives_without_rings() {
    let g = fraud_rings(40, 0, 4, 99);
    let q = "MATCH (a:AccountHolder)-[:HAS]->(p)
             WITH p, count(*) AS c WHERE c > 1
             RETURN count(*) AS rings";
    let t = rows(&g, q);
    assert_eq!(t.cell(0, "rings"), Some(&Value::int(0)));
}

#[test]
fn collect_and_labels_functions_from_paper() {
    // "the collect function returns a list containing the values returned
    //  by the expression, and the labels function returns a list
    //  containing all the labels of a node."
    let g = fraud_rings(10, 1, 3, 5);
    let t = rows(
        &g,
        "MATCH (h:AccountHolder)-[:HAS]->(p:Address)
         RETURN labels(p) AS ls, collect(h.uniqueId) AS ids",
    );
    assert_eq!(t.len(), 1);
    let Value::List(ls) = t.cell(0, "ls").unwrap() else {
        panic!()
    };
    assert_eq!(ls[0], Value::str("Address"));
    let Value::List(ids) = t.cell(0, "ids").unwrap() else {
        panic!()
    };
    assert_eq!(ids.len(), 3);
}
