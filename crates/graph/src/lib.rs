//! # cypher-graph
//!
//! The property graph data model of *Cypher: An Evolving Query Language for
//! Property Graphs* (Francis et al., SIGMOD 2018), Section 4.1.
//!
//! A property graph is a tuple `G = ⟨N, R, src, tgt, ι, λ, τ⟩` where
//!
//! * `N` is a finite set of node identifiers,
//! * `R` is a finite set of relationship identifiers,
//! * `src, tgt : R → N` map each relationship to its endpoints,
//! * `ι : (N ∪ R) × K ⇀ V` is a finite partial property map,
//! * `λ : N → 2^L` assigns each node a finite set of labels,
//! * `τ : R → T` assigns each relationship a type.
//!
//! This crate provides:
//!
//! * [`Value`] — the inductively defined value set `V` (ids, base types,
//!   booleans, `null`, lists, maps, paths) plus the Cypher 10 temporal types,
//! * [`PropertyGraph`] — the graph itself, stored *natively*: every node
//!   record holds direct references to its incident relationships, so the
//!   `Expand` operator of the paper's Section 2 never goes through an index,
//! * [`Interner`] — token interning for property keys `K`, labels `L`,
//!   relationship types `T` and names `A`,
//! * [`Catalog`] — a registry of multiple named graphs (Cypher 10,
//!   Section 6 of the paper),
//! * [`Path`] — the path values `path(n₁, r₁, …, nₘ)` of Section 4.1,
//! * [`GraphView`] / [`VersionedGraph`] — multi-version concurrency: a
//!   writer prepares the next copy-on-write version off to the side while
//!   any number of readers execute against frozen, immutable snapshots,
//!   and one leaf lock publishes each new version.

#![warn(missing_docs)]

pub mod adjacency;
pub mod catalog;
pub mod change;
pub mod fxhash;
pub mod graph;
pub mod index;
pub mod interner;
pub mod path;
mod slots;
pub mod temporal;
pub mod value;
pub mod version;

pub use adjacency::{gallop, Neighbor};
pub use catalog::Catalog;
pub use change::{affected_nodes, Change, ChangeSink, SharedChangeBuffer};
pub use graph::{
    Direction, GraphError, GraphStats, NodeId, NodeState, PropertyGraph, RelId, RelState,
};
pub use index::{IndexCardinality, IndexSet};
pub use interner::{Interner, Symbol};
pub use path::Path;
pub use temporal::{Date, Duration, LocalDateTime, LocalTime, Temporal, ZonedDateTime};
pub use value::{Tri, Value};
pub use version::{GraphView, VersionedGraph, ViewRef};
