//! Expression-language coverage through full queries, cross-checked
//! between the planner engine and the reference semantics: the
//! `expressions` productions of Figure 5 (values, maps, lists, strings,
//! logic, inequalities) plus the function library `F`.

use cypher::workload::figure1;
use cypher::{Params, PropertyGraph, Value};
use cypher_tck::diff::{error, rows, Diff, LIGHT};

/// `RETURN <expr> AS x` on an empty graph, through the differential
/// harness: its single cell.
fn eval(expr: &str) -> Value {
    let t = rows(&PropertyGraph::new(), &format!("RETURN {expr} AS x"));
    t.cell(0, "x").unwrap().clone()
}

fn eval_err(expr: &str) {
    error(&PropertyGraph::new(), &format!("RETURN {expr} AS x"));
}

#[test]
fn numeric_tower() {
    assert_eq!(eval("1 + 2 * 3 - 4"), Value::int(3));
    assert_eq!(eval("2 ^ 3 ^ 2"), Value::float(512.0)); // right-assoc
    assert_eq!(eval("-2 ^ 2"), Value::float(4.0)); // (-2)^2, literal fold
    assert_eq!(eval("7 % 4"), Value::int(3));
    assert_eq!(eval("1 + 0.5"), Value::float(1.5));
    assert_eq!(eval("abs(-7)"), Value::int(7));
    assert_eq!(eval("sign(-0.1)"), Value::int(-1));
    assert_eq!(eval("round(2.5)"), Value::float(3.0));
    assert_eq!(eval("floor(2.9)"), Value::float(2.0));
    assert_eq!(eval("sqrt(16)"), Value::float(4.0));
    eval_err("1 / 0");
    eval_err("1 % 0");
    assert_eq!(eval("1.0 / 0"), Value::float(f64::INFINITY));
}

#[test]
fn string_library() {
    assert_eq!(eval("toUpper('abc')"), Value::str("ABC"));
    assert_eq!(eval("toLower('ABC')"), Value::str("abc"));
    assert_eq!(eval("trim('  x ')"), Value::str("x"));
    assert_eq!(eval("replace('banana', 'na', 'NA')"), Value::str("baNANA"));
    assert_eq!(eval("split('a,b,c', ',')[1]"), Value::str("b"));
    assert_eq!(eval("substring('hello', 1, 3)"), Value::str("ell"));
    assert_eq!(eval("left('hello', 2)"), Value::str("he"));
    assert_eq!(eval("right('hello', 2)"), Value::str("lo"));
    assert_eq!(eval("reverse('abc')"), Value::str("cba"));
    assert_eq!(eval("size('héllo')"), Value::int(5));
    assert_eq!(eval("'a' + 'b' + 1"), Value::str("ab1"));
}

#[test]
fn list_library() {
    assert_eq!(eval("size([1, 2, 3])"), Value::int(3));
    assert_eq!(eval("head([1, 2])"), Value::int(1));
    assert_eq!(eval("last([1, 2])"), Value::int(2));
    assert_eq!(eval("head([])"), Value::Null);
    assert_eq!(eval("tail([1, 2, 3])").to_string(), "[2, 3]");
    assert_eq!(eval("reverse([1, 2])").to_string(), "[2, 1]");
    assert_eq!(eval("range(1, 3)").to_string(), "[1, 2, 3]");
    assert_eq!(eval("range(5, 1, -2)").to_string(), "[5, 3, 1]");
    assert_eq!(eval("[1, 2, 3][1..]").to_string(), "[2, 3]");
    assert_eq!(eval("[1, 2, 3][-1]"), Value::int(3));
    assert_eq!(eval("[1, 2, 3][5]"), Value::Null);
    assert_eq!(eval("[1, 2] + [3]").to_string(), "[1, 2, 3]");
    eval_err("range(1, 10, 0)");
}

#[test]
fn null_propagation_catalogue() {
    for e in [
        "null + 1",
        "null * 2",
        "toUpper(null)",
        "size(null)",
        "head(null)",
        "null[0]",
        "[1, 2][null]",
        "null.prop",
        "null STARTS WITH 'a'",
        "null = null",
        "null <> 1",
        "null < 1",
        "abs(null)",
        "null IN [1, 2]",
        "1 IN null",
        "null ^ 2",
    ] {
        assert!(eval(e).is_null(), "{e} should be null");
    }
    // IS NULL is the only way to observe null positively.
    assert_eq!(eval("null IS NULL"), Value::Bool(true));
    assert_eq!(eval("coalesce(null, null, 3)"), Value::int(3));
    assert_eq!(eval("coalesce(null, null)"), Value::Null);
}

#[test]
fn map_expressions() {
    assert_eq!(eval("{a: 1, b: {c: 2}}.b.c"), Value::int(2));
    assert_eq!(eval("{a: 1}['a']"), Value::int(1));
    assert_eq!(eval("keys({b: 1, a: 2})").to_string(), "['a', 'b']");
    assert_eq!(eval("size({a: 1, b: 2})"), Value::int(2));
    assert_eq!(eval("{a: 1} = {a: 1}"), Value::Bool(true));
    assert_eq!(eval("{a: 1} = {a: 2}"), Value::Bool(false));
    assert_eq!(eval("{a: 1} = {b: 1}"), Value::Bool(false));
    assert_eq!(eval("{a: null} = {a: null}"), Value::Null);
}

#[test]
fn conversions() {
    assert_eq!(eval("toInteger('42')"), Value::int(42));
    assert_eq!(eval("toInteger('nope')"), Value::Null);
    assert_eq!(eval("toInteger(3.9)"), Value::int(3));
    assert_eq!(eval("toFloat('2.5')"), Value::float(2.5));
    assert_eq!(eval("toBoolean('true')"), Value::Bool(true));
    assert_eq!(eval("toString(42)"), Value::str("42"));
    assert_eq!(eval("toString(true)"), Value::str("true"));
}

#[test]
fn quantifiers_and_comprehensions() {
    assert_eq!(eval("[x IN [1,2,3] | x + 1]").to_string(), "[2, 3, 4]");
    assert_eq!(eval("[x IN [1,2,3] WHERE x <> 2]").to_string(), "[1, 3]");
    assert_eq!(
        eval("size([x IN range(1, 100) WHERE x % 7 = 0])"),
        Value::int(14)
    );
    // Shadowing: inner x hides outer x.
    assert_eq!(
        eval("[x IN [[1], [2, 3]] | size([y IN x | y])]").to_string(),
        "[1, 2]"
    );
    assert_eq!(eval("any(x IN [] WHERE x > 0)"), Value::Bool(false));
    assert_eq!(eval("all(x IN [] WHERE x > 0)"), Value::Bool(true));
    assert_eq!(eval("none(x IN [] WHERE x > 0)"), Value::Bool(true));
    assert_eq!(eval("single(x IN [] WHERE x > 0)"), Value::Bool(false));
}

#[test]
fn case_forms() {
    assert_eq!(
        eval("CASE 3 WHEN 1 THEN 'a' WHEN 3 THEN 'c' ELSE 'z' END"),
        Value::str("c")
    );
    assert_eq!(
        eval("CASE WHEN false THEN 1 WHEN null THEN 2 ELSE 3 END"),
        Value::int(3)
    );
    assert_eq!(eval("CASE WHEN false THEN 1 END"), Value::Null);
}

#[test]
fn exists_function() {
    let g = figure1();
    let q = "MATCH (r:Researcher)
             RETURN r.name AS n, exists(r.name) AS has_name,
                    exists(r.nothing) AS has_nothing,
                    exists((r)-[:SUPERVISES]->()) AS supervises";
    let a = rows(&g, q);
    for row in a.rows() {
        assert_eq!(row.get(1), &Value::Bool(true));
        assert_eq!(row.get(2), &Value::Bool(false));
    }
    // Nils does not supervise; Elin and Thor do.
    let sup: Vec<&Value> = a.rows().iter().map(|r| r.get(3)).collect();
    assert_eq!(sup.iter().filter(|v| ***v == Value::Bool(true)).count(), 2);
}

#[test]
fn entity_functions_in_queries() {
    let g = figure1();
    let q = "MATCH (r:Researcher)-[a:AUTHORS]->(p)
             RETURN id(r) >= 0 AS has_id, type(a) AS t,
                    labels(p) AS ls, keys(p) AS ks,
                    startNode(a) = r AS s, endNode(a) = p AS e";
    let out = rows(&g, q);
    for row in out.rows() {
        assert_eq!(row.get(0), &Value::Bool(true));
        assert_eq!(row.get(1), &Value::str("AUTHORS"));
        assert_eq!(row.get(2).to_string(), "['Publication']");
        assert_eq!(row.get(3).to_string(), "['acmid']");
        assert_eq!(row.get(4), &Value::Bool(true));
        assert_eq!(row.get(5), &Value::Bool(true));
    }
}

#[test]
fn comparison_chaining_and_in() {
    assert_eq!(eval("1 < 2 = true"), Value::Bool(true)); // (1<2) = true
    assert_eq!(eval("3 IN [1, 2] OR 3 IN [3]"), Value::Bool(true));
    assert_eq!(eval("[1, 2] = [1, 2]"), Value::Bool(true));
    assert_eq!(eval("[1, 2] < [1, 3]"), Value::Bool(true));
    assert_eq!(eval("[1] < [1, 0]"), Value::Bool(true));
    assert_eq!(eval("'abc' < 'abd'"), Value::Bool(true));
}

#[test]
fn aggregates_with_expressions() {
    let g = figure1();
    for (q, expect) in [
        (
            "MATCH (p:Publication) RETURN percentileDisc(p.acmid, 0.5) AS x",
            Value::int(235),
        ),
        (
            "MATCH (p:Publication) RETURN max(p.acmid) - min(p.acmid) AS x",
            Value::int(79),
        ),
        (
            "MATCH (p:Publication) RETURN size(collect(p.acmid)) AS x",
            Value::int(5),
        ),
        (
            "MATCH (p:Publication) RETURN count(p) + count(*) AS x",
            Value::int(10),
        ),
    ] {
        let a = rows(&g, q);
        assert_eq!(a.cell(0, "x"), Some(&expect), "{q}");
    }
}

#[test]
fn parameters_everywhere() {
    let g = figure1();
    let mut params = Params::new();
    params.insert("name".into(), Value::str("Elin"));
    params.insert("min".into(), Value::int(1));
    params.insert(
        "list".into(),
        Value::list([Value::int(220), Value::int(240)]),
    );
    let q = "MATCH (r:Researcher {name: $name})-[:AUTHORS]->(p)
             WHERE p.acmid IN $list
             RETURN count(p) >= $min AS ok";
    let a = Diff::new(LIGHT).params(params).rows(&g, q);
    assert_eq!(a.cell(0, "ok"), Some(&Value::Bool(true)));
}

#[test]
fn pattern_comprehensions() {
    let g = figure1();
    // Names of students supervised by each researcher, as a list.
    let q = "MATCH (r:Researcher)
             RETURN r.name AS n,
                    [(r)-[:SUPERVISES]->(s) | s.name] AS students,
                    size([(r)-[:AUTHORS]->(p) WHERE p.acmid > 230 | p.acmid]) AS recent";
    let a = rows(&g, q);
    let by_name = |name: &str| -> (String, i64) {
        let row = a
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str(name))
            .unwrap();
        (row.get(1).to_string(), row.get(2).as_int().unwrap())
    };
    assert_eq!(by_name("Nils"), ("[]".to_string(), 0));
    assert_eq!(by_name("Elin"), ("['Sten', 'Linda']".to_string(), 2));
    assert_eq!(by_name("Thor"), ("['Sten']".to_string(), 0));
}

#[test]
fn pattern_comprehension_roundtrips() {
    use cypher::parse_expression;
    for src in [
        "[(a)-[:X]->(b) | b.name]",
        "[(a)-[:X]->(b) WHERE b.v > 1 | b]",
        "[(a)-[:X*1..2]->(b) | b.v]",
    ] {
        let e = parse_expression(src).unwrap();
        let rendered = e.to_string();
        let reparsed = parse_expression(&rendered).unwrap();
        assert_eq!(e, reparsed, "{src} → {rendered}");
    }
    // A plain list whose first element is a parenthesized expression must
    // not be mistaken for a pattern comprehension.
    let list = parse_expression("[(1 + 2), 3]").unwrap();
    assert!(matches!(list, cypher::ast::expr::Expr::List(v) if v.len() == 2));
}
