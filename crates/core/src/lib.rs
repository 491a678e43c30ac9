//! # cypher-core
//!
//! The paper's primary contribution, implemented literally: the **formal
//! semantics of core Cypher** (Section 4 of *Cypher: An Evolving Query
//! Language for Property Graphs*, SIGMOD 2018).
//!
//! This crate is the *reference evaluator*: a direct transcription of the
//! denotational semantics —
//!
//! * tables are bags of records ([`table`]),
//! * the pattern-matching relation `(p, G, u) ⊨ π` and the bag
//!   `match(π̄, G, u)` of Equation (1) ([`matching`]),
//! * expression semantics `[[expr]]_{G,u}` with SQL-style three-valued
//!   logic ([`expr`], [`functions`], [`aggregate`]),
//! * clause semantics `[[C]]_G : Table → Table` and query semantics
//!   `[[Q]]_G` per Figures 6 and 7 ([`clauses`], [`query`]).
//!
//! Evaluation starts from the unit table: `output(Q, G) = [[Q]]_G(T())`.
//!
//! The companion crate `cypher-engine` implements the same language with a
//! Volcano-style planner; the two are differentially tested against each
//! other. This crate favours clarity and fidelity to the paper over speed —
//! it *is* the naive-enumeration baseline measured in the benchmark suite.
//!
//! ```
//! use cypher_core::{eval_query, EvalContext, Params};
//! use cypher_graph::{PropertyGraph, Value};
//! use cypher_parser::parse_query;
//!
//! let mut g = PropertyGraph::new();
//! let a = g.add_node(&["Researcher"], [("name", Value::str("Nils"))]);
//! let b = g.add_node(&["Publication"], [("acmid", Value::int(220))]);
//! g.add_rel(a, b, "AUTHORS", []).unwrap();
//!
//! let q = parse_query("MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN r.name").unwrap();
//! let params = Params::new();
//! let ctx = EvalContext::new(&g, &params);
//! let out = eval_query(&ctx, &q).unwrap();
//! assert_eq!(out.cell(0, "r.name"), Some(&Value::str("Nils")));
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod bag;
pub mod clauses;
pub mod error;
pub mod expr;
pub mod functions;
pub mod matching;
pub mod morphism;
pub mod project;
pub mod query;
pub mod table;

pub use error::EvalError;
pub use expr::{eval_expr, Bindings, VarLookup};
pub use matching::{match_patterns, MatchConfig};
pub use morphism::Morphism;
pub use query::{eval_query, output};
pub use table::{table_of, Record, Schema, Table};

use cypher_graph::PropertyGraph;

/// Query parameters (`$name` bindings), as in the paper's Section 2
/// ("built-in support for query parameters").
pub type Params = std::collections::BTreeMap<String, cypher_graph::Value>;

/// Everything an evaluation needs besides the table being transformed:
/// the graph `G`, the parameters, and the pattern-matching configuration.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// The queried property graph `G`.
    pub graph: &'a PropertyGraph,
    /// Query parameters.
    pub params: &'a Params,
    /// Morphism mode and variable-length safeguards.
    pub config: MatchConfig,
}

impl<'a> EvalContext<'a> {
    /// A context with the default (paper-faithful) configuration:
    /// relationship isomorphism.
    pub fn new(graph: &'a PropertyGraph, params: &'a Params) -> Self {
        EvalContext {
            graph,
            params,
            config: MatchConfig::default(),
        }
    }

    /// Overrides the matching configuration (Section 8, "Configurable
    /// morphisms").
    pub fn with_config(mut self, config: MatchConfig) -> Self {
        self.config = config;
        self
    }
}
