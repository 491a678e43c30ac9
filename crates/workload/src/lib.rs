//! # cypher-workload
//!
//! Deterministic synthetic graph generators for the application domains
//! the paper draws its examples from (Sections 1 and 3): the Figure 1
//! citation graph and Figure 4 teacher graph used by the formal examples,
//! plus scaled-up generators for the industry queries — data-center
//! dependency networks, fraud rings sharing personal information, social
//! networks, and citation networks.
//!
//! All generators are seeded and reproducible; they substitute for the
//! production datasets the paper's deployments run on.
//!
//! Besides graphs, [`queries`] generates random *queries* from a small
//! grammar — the workload side of the parallel differential harness
//! (`tests/parallel_differential.rs`), which replays each one at several
//! thread counts and against the reference oracle.

#![warn(missing_docs)]

pub mod generators;
pub mod queries;

pub use generators::*;
pub use queries::{
    random_cyclic_queries, random_queries, random_updates, QueryGenerator, QueryVocabulary,
};
