//! Experiment E13: the algebraic content of Figures 6 and 7 — the
//! equations defining `[[·]]` — validated as laws, both on concrete
//! queries and property-based over randomized tables.

use cypher::workload::{figure1, random_graph};
use cypher::{run_read, table_of, Params, Record, Schema, Table, Value};
use cypher_tck::diff::rows;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Figure 6 laws
// ---------------------------------------------------------------------------

#[test]
fn return_star_is_identity() {
    // [[RETURN ∗]](T) = T (T has at least one field).
    let g = figure1();
    let plain = rows(&g, "MATCH (r:Researcher) RETURN r");
    let star = rows(&g, "MATCH (r:Researcher) RETURN *");
    assert!(plain.bag_eq(&star));
}

#[test]
fn return_star_plus_items_prepends_fields() {
    // [[RETURN ∗, e AS a]](T) = [[RETURN b₁ AS b₁, …, e AS a]](T).
    let g = figure1();
    let star = rows(&g, "MATCH (r:Researcher) RETURN *, r.name AS n");
    let explicit = rows(&g, "MATCH (r:Researcher) RETURN r AS r, r.name AS n");
    assert!(star.bag_eq(&explicit));
}

#[test]
fn union_all_is_bag_union() {
    // [[Q₁ UNION ALL Q₂]](T) = [[Q₁]](T) ⊎ [[Q₂]](T).
    let g = figure1();
    let left = rows(&g, "MATCH (r:Researcher) RETURN r.name AS n");
    let right = rows(&g, "MATCH (s:Student) RETURN s.name AS n");
    let union = rows(
        &g,
        "MATCH (r:Researcher) RETURN r.name AS n
         UNION ALL
         MATCH (s:Student) RETURN s.name AS n",
    );
    assert!(union.bag_eq(&left.bag_union(right)));
}

#[test]
fn union_is_dedup_of_union_all() {
    // [[Q₁ UNION Q₂]](T) = ε([[Q₁]](T) ∪ [[Q₂]](T)).
    let g = figure1();
    let all = rows(
        &g,
        "MATCH (:Publication)-[:CITES]->(p) RETURN p AS x
         UNION ALL
         MATCH (p:Publication) RETURN p AS x",
    );
    let set = rows(
        &g,
        "MATCH (:Publication)-[:CITES]->(p) RETURN p AS x
         UNION
         MATCH (p:Publication) RETURN p AS x",
    );
    assert!(set.bag_eq(&all.dedup()));
}

#[test]
fn clause_composition_is_function_composition() {
    // [[C Q]](T) = [[Q]]([[C]](T)): splitting a pipeline at a WITH leaves
    // the result unchanged.
    let g = figure1();
    let fused = rows(
        &g,
        "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN r.name AS n, count(p) AS c",
    );
    let split = rows(
        &g,
        "MATCH (r:Researcher)-[:AUTHORS]->(p)
         WITH r, p
         RETURN r.name AS n, count(p) AS c",
    );
    assert!(fused.bag_eq(&split));
}

// ---------------------------------------------------------------------------
// Figure 7 laws
// ---------------------------------------------------------------------------

#[test]
fn optional_match_defaults_to_where_true() {
    // [[OPTIONAL MATCH π̄]] = [[OPTIONAL MATCH π̄ WHERE true]].
    let g = figure1();
    let bare = rows(
        &g,
        "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) RETURN r, s",
    );
    let with_true = rows(
        &g,
        "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) WHERE true RETURN r, s",
    );
    assert!(bare.bag_eq(&with_true));
}

#[test]
fn match_where_equals_where_after_match() {
    // [[MATCH π̄ WHERE e]] = [[WHERE e]] ∘ [[MATCH π̄]].
    let g = figure1();
    let fused = rows(&g, "MATCH (p:Publication) WHERE p.acmid > 230 RETURN p");
    let split = rows(
        &g,
        "MATCH (p:Publication) WITH * WHERE p.acmid > 230 RETURN p",
    );
    assert!(fused.bag_eq(&split));
}

#[test]
fn where_keeps_only_true_rows() {
    // Rows whose predicate is null (not just false) are dropped.
    let g = figure1();
    // s.name is null for non-Student nodes → comparison is null → dropped.
    let out = rows(&g, "MATCH (s) WHERE s.name > 'S' RETURN s.name AS n");
    // Names > 'S': Sten, Thor (researchers/students with names; pubs have
    // no name → null → dropped).
    let expected = table_of(
        &["n"],
        vec![vec![Value::str("Sten")], vec![Value::str("Thor")]],
    );
    out.assert_bag_eq(&expected);
}

#[test]
fn unwind_figure7_cases() {
    let g = figure1();
    // list(v₀, …) → one row per element.
    let list = rows(&g, "UNWIND [10, 20] AS x RETURN x");
    assert_eq!(list.len(), 2);
    // list() → no rows.
    let empty = rows(&g, "UNWIND [] AS x RETURN x");
    assert_eq!(empty.len(), 0);
    // otherwise → the single value (paper-exact, including null).
    let null = rows(&g, "UNWIND null AS x RETURN x");
    assert_eq!(null.len(), 1);
    assert!(null.rows()[0].get(0).is_null());
    // Nested per driving row.
    let per_row = rows(
        &g,
        "MATCH (r:Researcher) UNWIND [1, 2] AS x RETURN r.name, x",
    );
    assert_eq!(per_row.len(), 6);
}

#[test]
fn with_star_is_identity() {
    let g = figure1();
    let a = rows(&g, "MATCH (r:Researcher) WITH * RETURN r");
    let b = rows(&g, "MATCH (r:Researcher) RETURN r");
    assert!(a.bag_eq(&b));
}

// ---------------------------------------------------------------------------
// Bag-algebra laws (the ⊎ / ε infrastructure of §4.1), property-based
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-5i64..5).prop_map(Value::Integer),
        "[a-c]{0,2}".prop_map(Value::str),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec((arb_value(), arb_value()), 0..12).prop_map(|rows| {
        let schema = Schema::new(vec!["x".into(), "y".into()]);
        Table::new(
            schema,
            rows.into_iter()
                .map(|(a, b)| Record::new(vec![a, b]))
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn bag_union_commutes(a in arb_table(), b in arb_table()) {
        let ab = a.clone().bag_union(b.clone());
        let ba = b.bag_union(a);
        prop_assert!(ab.bag_eq(&ba));
    }

    #[test]
    fn bag_union_is_associative(a in arb_table(), b in arb_table(), c in arb_table()) {
        let l = a.clone().bag_union(b.clone()).bag_union(c.clone());
        let r = a.bag_union(b.bag_union(c));
        prop_assert!(l.bag_eq(&r));
    }

    #[test]
    fn dedup_is_idempotent(t in arb_table()) {
        let once = t.clone().dedup();
        let twice = once.clone().dedup();
        prop_assert!(once.bag_eq(&twice));
    }

    #[test]
    fn dedup_absorbs_self_union(t in arb_table()) {
        // ε(T ⊎ T) = ε(T).
        let doubled = t.clone().bag_union(t.clone()).dedup();
        prop_assert!(doubled.bag_eq(&t.dedup()));
    }

    #[test]
    fn union_multiplicities_add(a in arb_table(), b in arb_table()) {
        let u = a.clone().bag_union(b.clone());
        prop_assert_eq!(u.len(), a.len() + b.len());
    }
}

// ---------------------------------------------------------------------------
// Randomized differential spot-check for the law suite
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn match_count_consistency(seed in 0u64..500) {
        // count(*) over MATCH (a)-->(b) equals the relationship count —
        // every edge is matched exactly once by a directed any-pattern.
        let g = random_graph(8, 14, &["A"], &["X"], seed);
        let params = Params::new();
        let t = run_read(&g, "MATCH ()-[r]->() RETURN count(*) AS c", &params).unwrap();
        prop_assert_eq!(t.cell(0, "c"), Some(&Value::int(g.rel_count() as i64)));
    }
}
