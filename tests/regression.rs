//! Regression suite: each test pins a bug found (and fixed) during the
//! development of this reproduction, so it stays fixed.

use cypher::{PropertyGraph, Value};
use cypher_tck::diff::{error, graph, rows};

/// Zero-hop variable-length patterns must accept even when the
/// relationship type (or a property key) was never interned in the graph:
/// the per-hop conditions are vacuous over zero hops. (The engine's
/// Expand operator used to bail out entirely.)
#[test]
fn zero_hop_accepts_with_unknown_type() {
    let g = graph(&["CREATE (:A {i: 0})"]);
    let q = "MATCH (a)-[rs:NEVER_USED*0..2]->(b) RETURN a.i, size(rs) AS hops, b.i";
    let engine = rows(&g, q);
    assert_eq!(engine.len(), 1);
    assert_eq!(engine.cell(0, "hops"), Some(&Value::int(0)));
}

/// `exists(<pattern>)` must return the pattern's truth value, not test the
/// resulting boolean for null-ness (which made every `exists` true).
#[test]
fn exists_of_non_matching_pattern_is_false() {
    let g = graph(&["CREATE (:A)"]);
    let t = rows(&g, "MATCH (a:A) RETURN exists((a)-[:NOPE]->()) AS e");
    assert_eq!(t.cell(0, "e"), Some(&Value::Bool(false)));
}

/// `ORDER BY` must be able to reference pre-projection variables
/// (`RETURN a.i ORDER BY a.x` is legal Cypher), with projected aliases
/// taking precedence on collision.
#[test]
fn order_by_sees_pre_projection_scope() {
    let g = graph(&["CREATE (:P {i: 1, w: 9}), (:P {i: 2, w: 8})"]);
    let t = rows(&g, "MATCH (p:P) RETURN p.i AS i ORDER BY p.w");
    assert_eq!(t.rows()[0].get(0), &Value::int(2));
    assert_eq!(t.rows()[1].get(0), &Value::int(1));
    // After DISTINCT, only projected columns are addressable.
    error(&g, "MATCH (p:P) RETURN DISTINCT p.i AS i ORDER BY p.w");
}

/// Negative numeric literals must round-trip through render/parse
/// (`-1` folds to the literal −1; `(-1).a` keeps its parens).
#[test]
fn negative_literal_roundtrip() {
    use cypher::ast::expr::{Expr, Literal};
    use cypher::parse_expression;
    let e = parse_expression("-1").unwrap();
    assert_eq!(e, Expr::Lit(Literal::Integer(-1)));
    let rendered = Expr::Prop(Box::new(Expr::Lit(Literal::Integer(-1))), "a".into()).to_string();
    assert_eq!(rendered, "(-1).a");
    let back = parse_expression(&rendered).unwrap();
    assert!(matches!(back, Expr::Prop(_, _)));
}

/// `1..3` must lex as integer–range–integer, not as the float `1.` etc.
#[test]
fn slice_bounds_not_floats() {
    let t = rows(&PropertyGraph::new(), "RETURN [9, 8, 7][1..3] AS s");
    assert_eq!(t.cell(0, "s").unwrap().to_string(), "[8, 7]");
}

/// A duplicate output name in a projection is an error, not a panic.
#[test]
fn duplicate_projection_names_error_cleanly() {
    error(&PropertyGraph::new(), "RETURN 1 AS x, 2 AS x");
}

/// An aggregate inside `WHERE` is an error even when rows exist.
#[test]
fn aggregate_in_where_is_error() {
    let g = graph(&["CREATE ()"]);
    error(&g, "MATCH (n) WHERE count(n) > 0 RETURN n");
}

/// Expanding from a null-bound variable yields no matches (and no error):
/// chaining MATCH after a failed OPTIONAL MATCH drops those rows.
#[test]
fn match_from_null_binding_drops_row() {
    let g = graph(&["CREATE (:A)"]);
    let q = "MATCH (a:A)
             OPTIONAL MATCH (a)-[:X]->(b)
             MATCH (b)-[:Y]->(c)
             RETURN count(*) AS n";
    let t = rows(&g, q);
    assert_eq!(t.cell(0, "n"), Some(&Value::int(0)));
}

/// Self-loops appear exactly once in undirected expansion (not once per
/// orientation).
#[test]
fn self_loop_undirected_multiplicity() {
    let g = graph(&["CREATE (n)-[:L]->(n)"]);
    let t = rows(&g, "MATCH (a)-[r:L]-(b) RETURN count(*) AS c");
    assert_eq!(t.cell(0, "c"), Some(&Value::int(1)));
}

/// The property-index scan must not match `{k: null}` (equality with null
/// is never true, even though null ≡ null under equivalence).
#[test]
fn null_property_pattern_never_matches() {
    let g = graph(&["CREATE (:P)"]); // no k at all
    let t = rows(&g, "MATCH (p:P {k: null}) RETURN count(*) AS c");
    assert_eq!(t.cell(0, "c"), Some(&Value::int(0)));
}

/// Property-index lookups respect numeric equivalence (1 vs 1.0) while
/// the residual filter keeps `=` exactness.
#[test]
fn property_index_numeric_equivalence() {
    let g = graph(&["CREATE (:P {k: 1}), (:P {k: 1.0})"]);
    let engine = rows(&g, "MATCH (p:P {k: 1}) RETURN count(*) AS c");
    assert_eq!(engine.cell(0, "c"), Some(&Value::int(2)), "1 = 1.0 is true");
}

/// Aggregates nested under slices, indexing, CASE etc. must be extracted
/// by the projection rewriter (`collect(x)[..3]` used to error).
#[test]
fn aggregates_nested_in_composite_expressions() {
    let g = graph(&["UNWIND range(1, 5) AS i CREATE (:P {v: i})"]);
    for (q, expect) in [
        (
            "MATCH (p:P) WITH p.v AS v ORDER BY v RETURN collect(v)[..2] AS x",
            "[1, 2]",
        ),
        ("MATCH (p:P) RETURN collect(p.v)[0] IS NULL AS x", "false"),
        (
            "MATCH (p:P) RETURN CASE WHEN count(*) > 3 THEN 'many' ELSE 'few' END AS x",
            "'many'",
        ),
        ("MATCH (p:P) RETURN (sum(p.v) IN [15]) AS x", "true"),
        ("MATCH (p:P) RETURN {total: sum(p.v)}.total AS x", "15"),
    ] {
        let a = rows(&g, q);
        assert_eq!(a.cell(0, "x").unwrap().to_string(), expect, "{q}");
    }
}

/// Variable-length patterns whose *endpoint* variable is pre-bound used to
/// lose every traversal longer than the first acceptance attempt: the
/// reference matcher's DFS returned outright when the endpoint bind
/// failed, instead of continuing to deeper hop counts that might reach the
/// pinned node. Found by the grammar-driven parallel differential harness.
#[test]
fn var_length_to_prebound_endpoint_keeps_long_paths() {
    let g = graph(&["CREATE (:A {i: 0})-[:X]->(:B {i: 1})-[:X]->(:A {i: 2})-[:Y]->(:B {i: 3})"]);
    // n0 is bound by the first pattern before the var-length pattern runs.
    let q = "MATCH (n0), (n1)<-[r*1..3]-(n0) RETURN n0.i AS s, n1.i AS t, size(r) AS hops";
    let engine = rows(&g, q);
    // Chain of 3 relationships: 3 one-hop + 2 two-hop + 1 three-hop paths.
    assert_eq!(engine.len(), 6);
}

/// When the planner anchors a variable-length expand at the pattern's
/// *right* end (e.g. the right node is pre-bound), the traversed
/// relationship list must still bind in pattern order — left to right —
/// as the formal semantics (item (a')) and path projection require. The
/// engine used to bind it in traversal order, i.e. reversed.
#[test]
fn reversed_var_length_expand_binds_rels_in_pattern_order() {
    let g = graph(&["CREATE (:A)-[:X {ord: 1}]->(:B)-[:X {ord: 2}]->(:C)"]);
    // n2 (the right end) is pre-bound, so the expand runs right-to-left.
    let q = "MATCH (n2:C) MATCH (n0)-[r*2]->(n2) RETURN r[0].ord AS first, r[1].ord AS second";
    let engine = rows(&g, q);
    assert_eq!(engine.cell(0, "first"), Some(&Value::int(1)));
    assert_eq!(engine.cell(0, "second"), Some(&Value::int(2)));
    // And the named-path projection over the same shape must not panic.
    let p = "MATCH (n2:C) MATCH p = (n0)-[*2]->(n2) RETURN length(p) AS l";
    let t = rows(&g, p);
    assert_eq!(t.cell(0, "l"), Some(&Value::int(2)));
}

/// A filter that can match nothing (never-interned label, empty scan
/// list) must still surface evaluation errors raised upstream of it:
/// short-circuiting to "no rows" would diverge from the oracle, which
/// evaluates the erroring expression regardless.
#[test]
fn impossible_filters_still_surface_upstream_errors() {
    let g = graph(&["CREATE (:A)-[:X {w: 1}]->(:A)"]);
    // The per-hop property expression `a + 1` errors (node + integer);
    // `:Zzz` was never interned, so the label filter downstream of the
    // expand matches nothing — but must not swallow the error.
    let q = "MATCH (a:A), (b:A) MATCH (a)-[*1..2 {w: a + 1}]->(b:Zzz) RETURN a";
    error(&g, q);
}
