//! # cypher-tck
//!
//! A miniature Technology Compatibility Kit in the spirit of the
//! openCypher TCK the paper describes (Section 5: "a Technology
//! Compatibility Kit (TCK), designed using a language neutral framework
//! (Cucumber)").
//!
//! Scenarios are written in a small given/when/then text DSL:
//!
//! ```text
//! SCENARIO: count supervised students
//! GIVEN
//!   CREATE (r:Researcher {name: 'Elin'})-[:SUPERVISES]->(:Student)
//! WHEN
//!   MATCH (r:Researcher)-[:SUPERVISES]->(s) RETURN r.name AS n, count(s) AS c
//! THEN
//!   | n | c |
//!   | 'Elin' | 1 |
//! ```
//!
//! `GIVEN` is a Cypher update statement building the graph, `WHEN` the
//! query under test, and `THEN` the expected table (bag equality; cells
//! are Cypher literal expressions). `THEN ORDERED` demands the rows
//! *in the given order* — the determinism obligation of `ORDER BY` (and
//! of `SKIP`/`LIMIT` after it). `THEN ERROR` asserts that evaluation
//! fails. Every scenario's `WHEN` runs through [`diff`], the differential
//! harness behind every engine-vs-oracle check of the test suite, at its
//! [`diff::LIGHT`] cells; the sequential cell's outcome is then compared
//! with the expectation.

#![warn(missing_docs)]

pub mod diff;
pub mod runner;

// The harness's self-test compiles a repro as printed, crate path included.
#[cfg(test)]
extern crate self as cypher_tck;

pub use runner::{parse_scenarios, run_scenario, run_scenarios, Scenario, TckError};

use std::collections::HashMap;

/// Splits a Prometheus-style metrics page (`Database::metrics_snapshot`
/// or a server's `Metrics` reply) into `name -> value` samples, labels
/// kept in the name, panicking on any malformed line.
pub fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unsplittable sample line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        out.insert(name.to_string(), value);
    }
    out
}
