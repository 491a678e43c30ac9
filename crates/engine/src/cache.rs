//! Plan memoization for repeated queries.
//!
//! A [`PlanMemo`] caches the compiled [`PlannedMatch`] of every `MATCH`
//! clause of one query, keyed by the clause's position **and** the driving
//! schema it was planned against (schemas are deterministic per query, but
//! keying by the actual runtime schema makes a stale or mispredicted entry
//! impossible — a mismatch is simply a miss and the clause replans).
//!
//! The memo is deliberately dumb about *when* plans go stale: plans are
//! chosen from index statistics, so `cypher::Database` fingerprints those
//! statistics with [`stats_fingerprint`] and throws the memo away when the
//! fingerprint moves. Statistics are bucketed on a log₂ grid: a cardinality
//! has to roughly double (or halve) before the fingerprint changes, which
//! is the magnitude of movement that flips anchor choices, while steady
//! trickle mutations keep their cached plans. A stale plan is never
//! *wrong* — index and anchor choices affect speed, not results — so
//! coarse invalidation is safe by construction.

use crate::exec::EngineConfig;
use crate::planner::{plan_match, PlannedMatch};
use cypher_ast::pattern::PathPattern;
use cypher_graph::{PropertyGraph, ViewRef};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Where in a query a `MATCH` clause sits: `(union branch, clause index)`.
pub(crate) type MemoSite = (usize, usize);

/// The memoized plans, by site and driving fields.
type MemoSlots = HashMap<(MemoSite, Vec<String>), Arc<PlannedMatch>>;

/// A per-query cache of compiled `MATCH` plans. Cheap to create; shared
/// behind an `Arc` by `cypher::Database`'s LRU entry and every execution
/// of the cached query.
#[derive(Debug, Default)]
pub struct PlanMemo {
    slots: Mutex<MemoSlots>,
}

impl PlanMemo {
    /// An empty memo.
    pub fn new() -> PlanMemo {
        PlanMemo::default()
    }

    /// Returns the cached plan for `(site, fields)` or compiles, stores
    /// and returns it.
    pub(crate) fn get_or_plan(
        &self,
        site: MemoSite,
        view: ViewRef<'_>,
        fields: &[String],
        patterns: &[PathPattern],
        cfg: &EngineConfig,
    ) -> Arc<PlannedMatch> {
        let key = (site, fields.to_vec());
        if let Some(p) = self.slots.lock().unwrap().get(&key) {
            return Arc::clone(p);
        }
        let planned = Arc::new(plan_match(view, fields, patterns, cfg));
        self.slots.lock().unwrap().insert(key, Arc::clone(&planned));
        planned
    }
}

/// Plans for `(site, fields)` against the given snapshot — through the
/// memo when one is installed, directly otherwise.
pub(crate) fn plan_match_memo(
    memo: Option<(&PlanMemo, MemoSite)>,
    view: ViewRef<'_>,
    fields: &[String],
    patterns: &[PathPattern],
    cfg: &EngineConfig,
) -> Arc<PlannedMatch> {
    match memo {
        Some((m, site)) => m.get_or_plan(site, view, fields, patterns, cfg),
        None => Arc::new(plan_match(view, fields, patterns, cfg)),
    }
}

/// Buckets a cardinality on a log₂ grid: 0, then one bucket per power of
/// two. Plans flip when relative cardinalities shift by factors, not by
/// single insertions.
fn bucket(n: usize) -> u32 {
    if n == 0 {
        0
    } else {
        usize::BITS - n.leading_zeros()
    }
}

/// A fingerprint of every statistic the planner consults — node/rel
/// counts, per-label cardinalities, and per-key / per-`(label, key)`
/// entry/distinct counts — each bucketed on a log₂ grid. When the
/// fingerprint of a graph differs from the one a plan was compiled under,
/// the statistics have moved far enough that anchor choices may flip and
/// the plan should be recompiled.
pub fn stats_fingerprint(g: &PropertyGraph) -> u64 {
    let stats = g.stats();
    let mut h = DefaultHasher::new();
    bucket(stats.nodes).hash(&mut h);
    bucket(stats.rels).hash(&mut h);
    // Hash maps iterate in arbitrary order; sort by symbol for stability.
    let mut labels: Vec<_> = stats
        .label_cardinality
        .iter()
        .map(|(s, &n)| (*s, bucket(n)))
        .collect();
    labels.sort_unstable();
    labels.hash(&mut h);
    let mut props: Vec<_> = stats
        .prop_cardinality
        .iter()
        .map(|(s, c)| (*s, bucket(c.entries), bucket(c.distinct)))
        .collect();
    props.sort_unstable();
    props.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::Value;

    #[test]
    fn bucketing_is_logarithmic() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1023), 10);
        assert_eq!(bucket(1024), 11);
    }

    #[test]
    fn fingerprint_stable_under_small_churn_moves_under_big() {
        let mut g = PropertyGraph::new();
        for i in 0..64 {
            g.add_node(&["A"], [("v", Value::int(i))]);
        }
        let fp = stats_fingerprint(&g);
        assert_eq!(fp, stats_fingerprint(&g), "fingerprint is deterministic");
        // One more node of an existing power-of-two band: same bucket.
        g.add_node(&["A"], [("v", Value::int(64))]);
        // 64 → 65 crosses a bucket boundary at 64→65? bucket(64)=7,
        // bucket(65)=7 — still the same band.
        assert_eq!(fp, stats_fingerprint(&g), "single insert keeps the plan");
        // Doubling the label flips the fingerprint.
        for i in 0..200 {
            g.add_node(&["A"], [("v", Value::int(100 + i))]);
        }
        assert_ne!(fp, stats_fingerprint(&g), "2× growth invalidates");
    }
}
