//! # cypher
//!
//! The facade crate of this reproduction of *Cypher: An Evolving Query
//! Language for Property Graphs* (Francis et al., SIGMOD 2018): parse,
//! plan and execute Cypher queries over in-memory property graphs.
//!
//! Two interchangeable evaluators are provided:
//!
//! * [`run`] / [`run_read`] — the production-style engine
//!   ([`cypher_engine`]): cost-based planning, `Expand` chains and
//!   intersections over native adjacency, morsel-driven batches, updates;
//! * [`run_reference`] — the literal transcription of the paper's formal
//!   semantics ([`cypher_core`]), used as the differential-testing oracle.
//!
//! For graphs that must outlive the process, [`Database`] wraps the
//! engine in the durable open/query/checkpoint/close lifecycle of
//! [`cypher_storage`]: every query's mutations are committed to a
//! write-ahead log as one atomic batch and compacted into snapshots,
//! and reopening the data directory recovers the graph — indexes
//! included — exactly.
//!
//! ```
//! use cypher::{run, run_read, Params, PropertyGraph};
//!
//! let mut g = PropertyGraph::new();
//! let params = Params::new();
//! run(&mut g, "CREATE (:Researcher {name: 'Nils'})-[:AUTHORS]->(:Publication {acmid: 220})",
//!     &params).unwrap();
//! let out = run_read(&g, "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN r.name, p.acmid",
//!     &params).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

#![warn(missing_docs)]

use std::fmt;

pub use cypher_ast as ast;
pub use cypher_core::{
    eval_query, table_of, EvalContext, EvalError, MatchConfig, Morphism, Params, Record, Schema,
    Table,
};
pub use cypher_engine::config;
pub use cypher_engine::{
    ClauseProfile, EngineConfig, EnvConfigIssue, ExecMetrics, FsyncMode, MultiResult, OpProfile,
    PartialAggMode, PlanMemo, PlannerMode, QueryProfile, WcoJoinMode,
};
pub use cypher_graph::{
    Catalog, Change, Direction, GraphView, NodeId, Path, PropertyGraph, RelId, SharedChangeBuffer,
    Symbol, Temporal, Tri, Value, VersionedGraph, ViewRef,
};
pub use cypher_metrics as metrics;
pub use cypher_parser::{parse_expression, parse_pattern, parse_query, ParseError};
pub use cypher_storage as storage;
pub use cypher_storage::{RecoveryReport, StorageError, Store};
pub use cypher_workload as workload;

mod commit;
mod database;
// `crate::metrics` is the public re-export of `cypher_metrics`, so the
// registry's module cannot share its file's name.
mod plan_cache;
#[path = "metrics.rs"]
mod registry;
mod session;
mod view;
pub use database::Database;
pub use plan_cache::PlanCacheStats;
pub use registry::{DatabaseMetrics, SlowQueryEntry, SlowQuerySink};
pub use session::{ProfileReport, Session};
pub use view::{SubscriptionPoll, ViewChange, ViewSubscription};

/// Locks `m`, recovering the guard if a panicking thread poisoned it:
/// every structure this crate keeps under a mutex is valid at each step
/// of its updates, and one statement's panic must not take the database
/// down for every other session.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the fault-injection test doubles may arm: a network-exposed
/// binary must not carry a live fault hook, so they stay inert unless
/// the `CYPHER_TEST_FAULTS` environment variable is set (to anything) —
/// the fault-injection suites set it themselves.
#[doc(hidden)]
pub fn test_faults_armed() -> bool {
    std::env::var_os("CYPHER_TEST_FAULTS").is_some()
}

/// Anything that can go wrong between query text and result table.
#[derive(Debug, Clone)]
pub enum Error {
    /// The text did not parse.
    Parse(ParseError),
    /// Evaluation failed.
    Eval(EvalError),
    /// The durable storage engine failed (I/O, corruption, recovery).
    Storage(std::sync::Arc<StorageError>),
    /// The write path is unavailable: the database was closed, or turned
    /// read-only after a failed WAL commit. Reads keep working. Clients
    /// (in-process or remote) should treat this as "retry against a
    /// reopened database", not as a statement-level failure — which is
    /// why it is a dedicated variant rather than an [`EvalError`]: a
    /// network front-end maps it to its own protocol error code.
    Unavailable(String),
}

/// Structural equality; storage errors (which wrap non-comparable
/// `io::Error`s) compare by rendered message.
impl PartialEq for Error {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Error::Parse(a), Error::Parse(b)) => a == b,
            (Error::Eval(a), Error::Eval(b)) => a == b,
            (Error::Storage(a), Error::Storage(b)) => a.to_string() == b.to_string(),
            (Error::Unavailable(a), Error::Unavailable(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
            Error::Storage(e) => write!(f, "{e}"),
            Error::Unavailable(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Self {
        Error::Eval(e)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Self {
        Error::Storage(std::sync::Arc::new(e))
    }
}

/// Parses and executes a query (reads and updates) with the default
/// engine configuration.
pub fn run(graph: &mut PropertyGraph, query: &str, params: &Params) -> Result<Table, Error> {
    run_with(graph, query, params, &EngineConfig::default())
}

/// Parses and executes a query with an explicit configuration.
pub fn run_with(
    graph: &mut PropertyGraph,
    query: &str,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<Table, Error> {
    let q = parse_query(query)?;
    Ok(cypher_engine::execute(graph, &q, params, cfg)?)
}

/// Parses and executes a read-only query through the planner engine.
pub fn run_read(graph: &PropertyGraph, query: &str, params: &Params) -> Result<Table, Error> {
    run_read_with(graph, query, params, &EngineConfig::default())
}

/// Read-only execution with an explicit configuration.
pub fn run_read_with(
    graph: &PropertyGraph,
    query: &str,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<Table, Error> {
    let q = parse_query(query)?;
    Ok(cypher_engine::execute_read(graph, &q, params, cfg)?)
}

/// Parses and evaluates a read query with the **reference evaluator** —
/// the paper's denotational semantics, used as the testing oracle.
pub fn run_reference(graph: &PropertyGraph, query: &str, params: &Params) -> Result<Table, Error> {
    run_reference_with(graph, query, params, MatchConfig::default())
}

/// Reference evaluation with an explicit matching configuration.
pub fn run_reference_with(
    graph: &PropertyGraph,
    query: &str,
    params: &Params,
    config: MatchConfig,
) -> Result<Table, Error> {
    let q = parse_query(query)?;
    let ctx = EvalContext::new(graph, params).with_config(config);
    Ok(cypher_core::eval_query(&ctx, &q)?)
}

/// Renders the physical plans of a query's `MATCH` clauses (`EXPLAIN`).
pub fn explain(graph: &PropertyGraph, query: &str) -> Result<String, Error> {
    let q = parse_query(query)?;
    Ok(cypher_engine::explain(graph, &q, &EngineConfig::default()))
}

/// Executes a composed query over a catalog of named graphs (Cypher 10,
/// paper Section 6).
pub fn run_on_catalog(
    catalog: &mut Catalog,
    default_graph: &str,
    query: &str,
    params: &Params,
) -> Result<MultiResult, Error> {
    let q = parse_query(query)?;
    Ok(cypher_engine::execute_on_catalog(
        catalog,
        default_graph,
        &q,
        params,
        &EngineConfig::default(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh per-process scratch directory for a durable-database test.
    pub(crate) fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cypher-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn facade_roundtrip() {
        let mut g = PropertyGraph::new();
        let params = Params::new();
        run(&mut g, "CREATE (:P {x: 1}), (:P {x: 2})", &params).unwrap();
        let t = run_read(&g, "MATCH (p:P) RETURN sum(p.x) AS s", &params).unwrap();
        assert_eq!(t.cell(0, "s"), Some(&Value::int(3)));
        let r = run_reference(&g, "MATCH (p:P) RETURN sum(p.x) AS s", &params).unwrap();
        assert!(t.bag_eq(&r));
    }

    #[test]
    fn parse_errors_surface() {
        let mut g = PropertyGraph::new();
        let params = Params::new();
        let e = run(&mut g, "MATCH (", &params).unwrap_err();
        assert!(matches!(e, Error::Parse(_)));
        let e2 = run(&mut g, "RETURN nosuch", &params).unwrap_err();
        assert!(matches!(e2, Error::Eval(_)));
    }

    #[test]
    fn explain_works_via_facade() {
        let g = workload::figure4();
        let plan = explain(&g, "MATCH (t:Teacher)-[:KNOWS]->(x) RETURN x").unwrap();
        assert!(plan.contains("Expand"));
    }
}
