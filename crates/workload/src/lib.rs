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

/// A scale knob of a test harness, read from environment
/// variable `name`: `default` when unset or empty, else the value — which
/// must be an integer no smaller than `min`. A set-but-malformed value
/// **panics**: a typo in a CI cell (`CYPHER_RECOVERY_WORKLOADS=5oo`) must
/// fail the run, not silently shrink it to the default and go green.
pub fn harness_knob(name: &str, default: u64, min: u64) -> u64 {
    harness_override(name, min).unwrap_or(default)
}

/// [`harness_knob`] for a knob without a default (`CYPHER_TEST_SEED`
/// replays one seed; unset, a harness sweeps its whole range).
pub fn harness_override(name: &str, min: u64) -> Option<u64> {
    let raw = std::env::var_os(name).filter(|v| !v.is_empty())?;
    match raw.to_str().and_then(|v| v.trim().parse::<u64>().ok()) {
        Some(v) if v >= min => Some(v),
        _ => panic!("{name}={raw:?}: expected an integer >= {min}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_knobs_default_when_unset_and_reject_typos() {
        assert_eq!(harness_knob("CYPHER_KNOB_TEST_UNSET", 40, 1), 40);
        std::env::set_var("CYPHER_KNOB_TEST_OK", " 7 ");
        assert_eq!(harness_knob("CYPHER_KNOB_TEST_OK", 40, 1), 7);
        std::env::set_var("CYPHER_KNOB_TEST_EMPTY", "");
        assert_eq!(harness_override("CYPHER_KNOB_TEST_EMPTY", 0), None);
        for (name, bad) in [
            ("CYPHER_KNOB_TEST_TYPO", "5oo"),
            ("CYPHER_KNOB_TEST_LOW", "0"),
        ] {
            std::env::set_var(name, bad);
            let refused = std::panic::catch_unwind(|| harness_knob(name, 40, 1));
            assert!(refused.is_err(), "{name}={bad} must not be swallowed");
        }
    }
}
