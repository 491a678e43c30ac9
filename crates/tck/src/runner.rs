//! Scenario parser and runner.

use crate::diff::{self, Diff};
use cypher::{parse_expression, run, EvalContext, Params, PropertyGraph, Record, Schema, Table};
use cypher_core::expr::NoVars;
use std::fmt;

/// A single given/when/then scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The scenario title.
    pub name: String,
    /// Cypher update statements (one per line group) building the graph.
    pub given: Vec<String>,
    /// The query under test.
    pub when: String,
    /// The expected table, or `None` when an error is expected.
    pub then: Option<ExpectedTable>,
    /// True for `THEN ORDERED` scenarios: results must match the expected
    /// table *row for row*, not merely as a bag — the determinism
    /// obligation of `ORDER BY` (and of `SKIP`/`LIMIT` after it), which
    /// must hold identically under parallel execution.
    pub ordered: bool,
}

/// An expected result table: header plus rows of literal expressions.
#[derive(Debug, Clone)]
pub struct ExpectedTable {
    /// Column names.
    pub header: Vec<String>,
    /// Rows of Cypher literal expressions (unevaluated text).
    pub rows: Vec<Vec<String>>,
}

/// A scenario failure.
#[derive(Debug)]
pub struct TckError {
    /// The failing scenario.
    pub scenario: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario '{}': {}", self.scenario, self.message)
    }
}

impl std::error::Error for TckError {}

/// Parses a scenario corpus from its textual form.
pub fn parse_scenarios(src: &str) -> Result<Vec<Scenario>, String> {
    let mut out: Vec<Scenario> = Vec::new();
    let mut section = "";
    for line in src.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("SCENARIO:") {
            let then = ExpectedTable {
                header: Vec::new(),
                rows: Vec::new(),
            };
            out.push(Scenario {
                name: name.trim().to_string(),
                given: Vec::new(),
                when: String::new(),
                then: Some(then),
                ordered: false,
            });
            section = "";
            continue;
        }
        let Some(s) = out.last_mut() else {
            return Err(format!("content before first SCENARIO: {line}"));
        };
        match (line, section) {
            ("GIVEN" | "WHEN" | "THEN", _) => section = line,
            ("THEN ERROR", _) => (section, s.then) = ("THEN", None),
            ("THEN ORDERED", _) => (section, s.ordered) = ("THEN", true),
            (_, "GIVEN") => s.given.push(line.to_string()),
            (_, "WHEN") if s.when.is_empty() => s.when = line.to_string(),
            (_, "WHEN") => s.when = format!("{} {line}", s.when),
            (_, "THEN") => {
                let Some(table) = s.then.as_mut() else {
                    return Err(format!("rows after THEN ERROR in '{}'", s.name));
                };
                let cells = line.trim_matches('|').split('|');
                let cells: Vec<String> = cells.map(|c| c.trim().to_string()).collect();
                if table.header.is_empty() {
                    table.header = cells;
                } else if cells.len() == table.header.len() {
                    table.rows.push(cells);
                } else {
                    return Err(format!("row width mismatch in '{}': {line}", s.name));
                }
            }
            _ => return Err(format!("line outside any section in '{}': {line}", s.name)),
        }
    }
    Ok(out)
}

fn expected_to_table(exp: &ExpectedTable) -> Result<Table, String> {
    let schema = Schema::new(exp.header.clone());
    let g = PropertyGraph::new();
    let params = Params::new();
    let ctx = EvalContext::new(&g, &params);
    let mut rows = Vec::with_capacity(exp.rows.len());
    for r in &exp.rows {
        let mut vals = Vec::with_capacity(r.len());
        for cell in r {
            let e = parse_expression(cell).map_err(|e| format!("bad cell '{cell}': {e}"))?;
            let v = cypher_core::eval_expr(&ctx, &NoVars, &e)
                .map_err(|e| format!("bad cell '{cell}': {e}"))?;
            vals.push(v);
        }
        rows.push(Record::new(vals));
    }
    Ok(Table::new(schema, rows))
}

/// Runs one scenario through the differential harness at
/// [`diff::LIGHT`] (the oracle's row sequence too for `THEN ORDERED`),
/// then compares the sequential built-in cell's outcome with the
/// expectation: row for row for `THEN ORDERED`, as a bag otherwise.
pub fn run_scenario(s: &Scenario) -> Result<(), TckError> {
    let fail = |message: String| TckError {
        scenario: s.name.clone(),
        message,
    };
    let mut g = PropertyGraph::new();
    for stmt in &s.given {
        run(&mut g, stmt, &Params::new()).map_err(|e| fail(format!("GIVEN failed: {e}")))?;
    }
    let diff = match s.ordered {
        true => Diff::new(diff::LIGHT).total_order_by(),
        false => Diff::new(diff::LIGHT),
    };
    match (&s.then, diff.outcome(&g, &s.when).map_err(&fail)?) {
        (None, Err(_)) => Ok(()),
        (None, Ok(got)) => Err(fail(format!("expected an error, got:\n{got}"))),
        (Some(_), Err(e)) => Err(fail(format!("evaluation failed: {e}"))),
        (Some(exp), Ok(got)) => {
            let want = expected_to_table(exp).map_err(&fail)?;
            let msg = match s.ordered {
                true if !got.ordered_eq(&want) => "result differs (ordered)",
                false if !got.bag_eq(&want) => "result differs",
                _ => return Ok(()),
            };
            Err(fail(format!("{msg}\nexpected:\n{want}\ngot:\n{got}")))
        }
    }
}

/// Parses and runs a whole corpus, returning the number of scenarios on
/// success.
pub fn run_scenarios(src: &str) -> Result<usize, TckError> {
    let scenarios = parse_scenarios(src).map_err(|message| TckError {
        scenario: "<corpus>".into(),
        message,
    })?;
    for s in &scenarios {
        run_scenario(s)?;
    }
    Ok(scenarios.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_run_minimal() {
        let n = run_scenarios(
            "SCENARIO: simple count
             GIVEN
               CREATE (r:Researcher {name: 'Elin'})-[:SUPERVISES]->(:Student)
             WHEN
               MATCH (r:Researcher)-[:SUPERVISES]->(s) RETURN r.name AS n, count(s) AS c
             THEN
               | n | c |
               | 'Elin' | 1 |",
        )
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn failing_expectation_reports() {
        let err = run_scenarios(
            "SCENARIO: wrong expectation
             WHEN
               RETURN 1 AS x
             THEN
               | x |
               | 2 |",
        )
        .unwrap_err();
        assert!(err.message.contains("differs"));
    }

    #[test]
    fn expected_error_scenario() {
        run_scenarios(
            "SCENARIO: slice of integer is an error
             WHEN
               RETURN 1[0] AS x
             THEN ERROR",
        )
        .unwrap();
    }

    #[test]
    fn then_ordered_checks_row_order() {
        // Correct order passes…
        run_scenarios(
            "SCENARIO: ordered ok
             GIVEN
               CREATE (:N {v: 2}), (:N {v: 1}), (:N {v: 3})
             WHEN
               MATCH (n:N) RETURN n.v AS v ORDER BY v
             THEN ORDERED
               | v |
               | 1 |
               | 2 |
               | 3 |",
        )
        .unwrap();
        // …the same rows in the wrong order fail, though they bag-match.
        let err = run_scenarios(
            "SCENARIO: ordered violation
             GIVEN
               CREATE (:N {v: 2}), (:N {v: 1})
             WHEN
               MATCH (n:N) RETURN n.v AS v ORDER BY v
             THEN ORDERED
               | v |
               | 2 |
               | 1 |",
        )
        .unwrap_err();
        assert!(err.message.contains("ordered"), "{err}");
    }

    #[test]
    fn multiline_when_and_comments() {
        let n = run_scenarios(
            "# a comment
             SCENARIO: multiline
             GIVEN
               CREATE (:A {v: 1})
               CREATE (:A {v: 2})
             WHEN
               MATCH (a:A)
               RETURN sum(a.v) AS s
             THEN
               | s |
               | 3 |",
        )
        .unwrap();
        assert_eq!(n, 1);
    }
}
