//! # cypher-engine
//!
//! A production-style executor for the Cypher language of the SIGMOD 2018
//! paper, built the way Section 2 describes the Neo4j implementation:
//!
//! * a **cost-based planner** ([`planner`]) choosing scan anchors by label
//!   selectivity and compiling patterns to chains of the **`Expand`**
//!   operator over native adjacency,
//! * a **batch-at-a-time (morsel-driven) runtime** ([`ops`]): operators
//!   exchange [`ops::RowBatch`]es of up to `morsel_size` rows, and scan
//!   sources are partitioned into morsels dispatched across a
//!   `std::thread::scope` worker pool when `num_threads > 1` — with the
//!   guarantee that every thread count produces the same row sequence,
//! * the **update clauses** `CREATE` / `MERGE` / `DELETE` / `SET` /
//!   `REMOVE` ([`update`]),
//! * **multiple named graphs and query composition** (Cypher 10,
//!   [`multigraph`]).
//!
//! One clause interpreter ([`exec`]) serves every entry point: each run
//! of streamable clauses (`MATCH`, `WHERE`, a row-by-row `WITH`,
//! `UNWIND`) is one step list for the morsel driver, and the projection
//! that ends it is the *sink* the driver folds into: aggregation and
//! `DISTINCT` fold per-morsel `GroupedAggState`s (the same type the
//! reference semantics fold through), `ORDER BY … LIMIT` folds bounded
//! top-k heaps and a plain projection maps each batch, merged in morsel
//! order so results stay bit-identical across thread counts and morsel
//! sizes — surfaced in `EXPLAIN` and `PROFILE` as `PartialAggregate(…)`,
//! `TopK(k=…)` and `Project(…)`, controlled by
//! [`EngineConfig::partial_agg`]. Repeated
//! queries skip planning through a [`PlanMemo`] (see [`cache`]), which
//! the `cypher::Database` facade wires into an LRU parse+plan cache with
//! statistics-fingerprint invalidation.
//!
//! ```
//! use cypher_engine::{execute, EngineConfig};
//! use cypher_core::Params;
//! use cypher_graph::PropertyGraph;
//! use cypher_parser::parse_query;
//!
//! let mut g = PropertyGraph::new();
//! let params = Params::new();
//! let create = parse_query(
//!     "CREATE (:Service {name: 'db'})<-[:DEPENDS_ON]-(:Service {name: 'api'})",
//! ).unwrap();
//! execute(&mut g, &create, &params, &EngineConfig::default()).unwrap();
//!
//! let q = parse_query(
//!     "MATCH (s:Service)<-[:DEPENDS_ON]-(d) RETURN s.name AS svc, count(d) AS deps",
//! ).unwrap();
//! let out = execute(&mut g, &q, &params, &EngineConfig::default()).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod delta;
pub mod exec;
pub mod multigraph;
pub mod ops;
pub mod plan;
pub mod planner;
mod pushdown;
pub mod update;

pub use cache::{stats_fingerprint, PlanMemo};
pub use config::EnvConfigIssue;
pub use delta::{expr_rescans_graph, DeltaPlan};
pub use exec::{
    execute, execute_cached, execute_read, execute_read_cached, explain, profile_read,
    ClauseProfile, EngineConfig, FsyncMode, OpProfile, PartialAggMode, QueryProfile,
};
pub use multigraph::{execute_on_catalog, MultiResult};
pub use ops::{ExecMetrics, RowBatch, DEFAULT_MORSEL_SIZE};
pub use plan::{IntersectGuard, MatchPlan, PlanStep};
pub use planner::{plan_match, PlannerMode, WcoJoinMode};
