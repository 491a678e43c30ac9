//! Experiments E6 and E12: the grammars of Figure 3 (patterns) and
//! Figure 5 (expressions, clauses, queries), validated by round-tripping —
//! `parse(render(ast)) == ast` — over a hand-written corpus covering every
//! production and over property-test-generated expression trees.

use cypher::ast::expr::{ArithOp, CmpOp, Expr, Literal};
use cypher::{parse_expression, parse_pattern, parse_query};
use proptest::prelude::*;

/// Every pattern production of Figure 3.
const PATTERN_CORPUS: &[&str] = &[
    "()",
    "(a)",
    "(a:Person)",
    "(a:Person:Male)",
    "(a {name: 'Nils', age: 42})",
    "(a:Person {name: 'Nils'})",
    "({since: 1985})",
    "(a)-->(b)",
    "(a)<--(b)",
    "(a)--(b)",
    "(a)-[r]->(b)",
    "(a)<-[r]-(b)",
    "(a)-[r]-(b)",
    "(a)-[:KNOWS]->(b)",
    "(a)-[:KNOWS|LIKES]->(b)",
    "(a)-[r:KNOWS {since: 1985}]->(b)",
    "(a)-[*]->(b)",
    "(a)-[*2]->(b)",
    "(a)-[*1..]->(b)",
    "(a)-[*..5]->(b)",
    "(a)-[*1..5]->(b)",
    "(a)-[r:KNOWS*1..2 {since: 1985}]-(b)",
    "p = (a)-[:KNOWS]->(b)",
    "(a)-[:A]->(b)<-[:B]-(c)--(d)",
    "(x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher)",
];

/// Query-level corpus exercising Figure 5 plus the surface extensions.
const QUERY_CORPUS: &[&str] = &[
    "MATCH (n) RETURN n",
    "MATCH (n) RETURN *",
    "MATCH (n) RETURN DISTINCT n.x AS x",
    "MATCH (a), (b) WHERE a.x = b.y RETURN a, b",
    "MATCH (a) WHERE (a)-[:X]->(b) RETURN a",
    "OPTIONAL MATCH (a)-[:X]->(b) RETURN b",
    "MATCH (a) WITH a.x AS x WHERE x > 1 RETURN x",
    "MATCH (a) WITH DISTINCT a RETURN a",
    "UNWIND [1, 2, 3] AS x RETURN x",
    "UNWIND $events AS e RETURN e.id",
    "MATCH (n) RETURN n.x ORDER BY n.x DESC SKIP 1 LIMIT 2",
    "MATCH (n) RETURN count(*)",
    "MATCH (n) RETURN count(DISTINCT n.x) AS c",
    "MATCH (n) RETURN collect(n.name) AS names",
    "RETURN 1 AS x UNION RETURN 2 AS x",
    "RETURN 1 AS x UNION ALL RETURN 2 AS x",
    "CREATE (a:P {x: 1})-[:R {w: 2}]->(b)",
    "MERGE (a:P {x: 1}) ON CREATE SET a.c = true ON MATCH SET a.m = true",
    "MATCH (a) SET a.x = 1, a:L, a += {y: 2}",
    "MATCH (a) REMOVE a.x, a:L",
    "MATCH (a) DETACH DELETE a",
    "MATCH (a)-[r]->(b) DELETE r",
    "FROM GRAPH soc_net MATCH (a) RETURN a",
    "FROM GRAPH soc_net AT 'hdfs://x/y' MATCH (a) RETURN a",
    "MATCH (a)-[:F]-(b) WITH DISTINCT a, b RETURN GRAPH friends OF (a)-[:SF]->(b)",
    "MATCH (n) RETURN CASE WHEN n.x > 0 THEN 'p' ELSE 'n' END AS sign",
    "MATCH (n) RETURN [x IN range(1, 10) WHERE x % 2 = 0 | x * x] AS sq",
    "MATCH (n) RETURN all(x IN n.xs WHERE x > 0) AS ok",
    "MATCH (n) WHERE n.name STARTS WITH 'N' AND n.name CONTAINS 'il' RETURN n",
    "MATCH (n) WHERE n.x IS NOT NULL XOR n.y IS NULL RETURN n",
    "MATCH (n) RETURN n.xs[0], n.xs[1..2], n.xs[..2], n.xs[1..]",
    "MATCH (n) WHERE n:SSN OR n:PhoneNumber RETURN labels(n)",
    "MATCH p = (a)-[:K*]->(b) RETURN nodes(p), relationships(p), length(p)",
    "MATCH (n) RETURN -n.x + 2 ^ 3 * 4 % 5 - 6 / 7",
    "RETURN date('2018-06-10') AS d, duration('P1D') AS dur",
];

#[test]
fn e6_pattern_grammar_roundtrip() {
    for src in PATTERN_CORPUS {
        let ast = parse_pattern(src)
            .unwrap_or_else(|e| panic!("pattern corpus entry failed to parse: {src}: {e}"));
        let rendered = ast.to_string();
        let reparsed = parse_pattern(&rendered)
            .unwrap_or_else(|e| panic!("rendered pattern failed to parse: {rendered}: {e}"));
        assert_eq!(ast, reparsed, "round-trip changed {src} → {rendered}");
    }
}

#[test]
fn e12_query_grammar_roundtrip() {
    for src in QUERY_CORPUS {
        let ast = parse_query(src)
            .unwrap_or_else(|e| panic!("query corpus entry failed to parse: {src}: {e}"));
        let rendered = ast.to_string();
        let reparsed = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered query failed to parse: {rendered}: {e}"));
        assert_eq!(ast, reparsed, "round-trip changed {src} → {rendered}");
    }
}

#[test]
fn rejects_malformed_inputs() {
    for src in [
        "MATCH (a RETURN a",
        "MATCH (a)-[>(b) RETURN a",
        "MATCH (a)<-[:X]->(b) RETURN a",
        "RETURN",
        "MATCH (a) RETURN a AS",
        "MATCH (a) WHERE RETURN a",
        "UNWIND [1,2] RETURN x",
        "MATCH (a) ORDER BY a RETURN a",
        "CREATE (a:P {x: })",
        "MERGE",
    ] {
        assert!(parse_query(src).is_err(), "should reject: {src}");
    }
}

// ---------------------------------------------------------------------------
// Property-based expression round-trip
// ---------------------------------------------------------------------------

fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Lit(Literal::Null)),
        any::<bool>().prop_map(|b| Expr::Lit(Literal::Bool(b))),
        (-1000i64..1000).prop_map(|i| Expr::Lit(Literal::Integer(i))),
        (0u32..1000).prop_map(|i| Expr::Lit(Literal::Float(i as f64 / 8.0))),
        "[a-z ]{0,6}".prop_map(|s| Expr::Lit(Literal::String(s.into()))),
        "[a-z][a-z0-9]{0,4}".prop_map(Expr::Var),
        "[a-z][a-z0-9]{0,4}".prop_map(Expr::Param),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_literal().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Arith(
                ArithOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Arith(
                ArithOp::Mul,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Cmp(
                CmpOp::Le,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            inner.clone().prop_map(|a| Expr::IsNull(Box::new(a))),
            (inner.clone(), "[a-z]{1,4}").prop_map(|(a, k)| Expr::Prop(Box::new(a), k)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::List),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::In(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Case {
                input: None,
                whens: vec![(a, b)],
                else_: Some(Box::new(c)),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn e12_random_expressions_roundtrip(e in arb_expr()) {
        let rendered = e.to_string();
        let reparsed = parse_expression(&rendered)
            .unwrap_or_else(|err| panic!("rendered expr failed to parse: {rendered}: {err}"));
        prop_assert_eq!(e, reparsed, "render: {}", rendered);
    }
}
