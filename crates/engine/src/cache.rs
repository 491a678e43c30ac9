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
use crate::planner::{plan_match, PlannedMatch, PlannerMode, PlannerOptions, WcoJoinMode};
use cypher_ast::pattern::PathPattern;
use cypher_core::morphism::Morphism;
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
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl PlanMemo {
    /// An empty memo.
    pub fn new() -> PlanMemo {
        PlanMemo::default()
    }

    /// Plans planned through this memo that were answered from cache.
    pub fn plan_hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Plans that had to be compiled.
    pub fn plan_misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns the cached plan for `(site, fields)` or compiles, stores
    /// and returns it.
    pub(crate) fn get_or_plan(
        &self,
        site: MemoSite,
        view: ViewRef<'_>,
        fields: &[String],
        patterns: &[PathPattern],
        opts: PlannerOptions,
    ) -> Arc<PlannedMatch> {
        let key = (site, fields.to_vec());
        {
            let slots = self.slots.lock().unwrap();
            if let Some(p) = slots.get(&key) {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Arc::clone(p);
            }
        }
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let planned = Arc::new(plan_match(view, fields, patterns, opts));
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
    opts: PlannerOptions,
) -> Arc<PlannedMatch> {
    match memo {
        Some((m, site)) => m.get_or_plan(site, view, fields, patterns, opts),
        None => Arc::new(plan_match(view, fields, patterns, opts)),
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

impl EngineConfig {
    /// A fingerprint of the configuration slice that shapes plans (the
    /// planner mode, index toggles, join policy and morphism). Cached plans
    /// keyed by query text are only reused under an identical fingerprint.
    pub fn plan_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        let mode: u8 = match self.planner_mode {
            PlannerMode::ExpandBased => 0,
            PlannerMode::CartesianJoin => 1,
        };
        mode.hash(&mut h);
        self.use_label_index.hash(&mut h);
        self.use_property_index.hash(&mut h);
        let wco: u8 = match self.wco_join {
            WcoJoinMode::Off => 0,
            WcoJoinMode::Auto => 1,
            WcoJoinMode::Force => 2,
        };
        wco.hash(&mut h);
        let morphism: u8 = match self.match_config.morphism {
            Morphism::EdgeIsomorphism => 0,
            Morphism::NodeIsomorphism => 1,
            Morphism::Homomorphism => 2,
        };
        morphism.hash(&mut h);
        h.finish()
    }
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

    #[test]
    fn config_fingerprint_tracks_planner_slice() {
        // Pin the join policy so the test holds under a CYPHER_WCO_JOIN
        // override (the CI matrix runs the whole suite with it set).
        let base = || EngineConfig::default().with_wco_join(WcoJoinMode::Auto);
        let a = base();
        let b = base().without_indexes();
        assert_ne!(a.plan_fingerprint(), b.plan_fingerprint());
        // Runtime knobs do not reshape plans.
        let c = base().with_threads(8).with_morsel_size(2);
        assert_eq!(a.plan_fingerprint(), c.plan_fingerprint());
        // The worst-case-optimal join policy does.
        let d = base().with_wco_join(WcoJoinMode::Off);
        assert_ne!(a.plan_fingerprint(), d.plan_fingerprint());
        let e = base().with_wco_join(WcoJoinMode::Force);
        assert_ne!(a.plan_fingerprint(), e.plan_fingerprint());
        assert_ne!(d.plan_fingerprint(), e.plan_fingerprint());
        // So does the morphism: node isomorphism ends plans in a filter.
        let mut f = base();
        f.match_config.morphism = Morphism::NodeIsomorphism;
        assert_ne!(a.plan_fingerprint(), f.plan_fingerprint());
    }
}
