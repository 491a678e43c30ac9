//! The parse+plan cache every session of a database shares.

use crate::{lock, Error};
use cypher_ast::query::Query;
use cypher_engine::{stats_fingerprint, EngineConfig, PlanMemo};
use cypher_graph::GraphView;
use cypher_metrics::{fmt_counter, fmt_gauge};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A resolved text: the query, its plan memo (`None` with the cache off)
/// and whether the lookup was a full hit.
type Resolved = (Arc<Query>, Option<Arc<PlanMemo>>, bool);

/// Counters of the `Database` parse+plan cache. All zeros when the cache
/// is disabled (`EngineConfig::plan_cache_size == 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Queries answered entirely from cache (no parse, no planning).
    pub hits: u64,
    /// Queries that were parsed (and planned) fresh.
    pub misses: u64,
    /// Cache entries that held no plans valid under the querying
    /// session's statistics fingerprint, so the plans were compiled
    /// fresh (the parse is kept).
    pub invalidations: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

/// Plan memos kept per cached query text: one per recent statistics
/// fingerprint, so concurrent sessions pinned at different versions
/// (hence different statistics) don't thrash each other's plans.
const MEMOS_PER_ENTRY: usize = 4;

/// One cached query: the parsed AST plus memoized plans per recent
/// statistics fingerprint.
struct CacheEntry {
    query: Arc<Query>,
    cfg_fp: u64,
    /// `(stats fingerprint, plans, last used)` — tiny LRU within the
    /// entry.
    memos: Vec<(u64, Arc<PlanMemo>, u64)>,
    last_used: u64,
}

/// An LRU parse+plan cache keyed by query text, shared by every session
/// of a database (interior `Mutex`, held only to resolve entries —
/// never across execution).
#[derive(Default)]
struct PlanCache {
    entries: HashMap<String, CacheEntry>,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Looks up the entry for `text`, returning the parsed query plus
    /// the plan memo valid under `stats_fp`. `None` means the text is
    /// not cached (or was cached under another config and has been
    /// dropped) — the caller parses **outside the cache lock** and
    /// completes with [`PlanCache::insert`].
    ///
    /// `count` suppresses the public counters for internal re-lookups
    /// (a write transaction re-validating its memo against its actual
    /// base statistics, or the adopt path after a racing insert).
    /// The returned `bool` is the *full hit* flag — `true` only when
    /// both the parse and a valid plan memo were served from cache
    /// (what the slow-query log reports as `cache_hit`).
    fn lookup(
        &mut self,
        text: &str,
        cfg_fp: u64,
        stats_fp: u64,
        count: bool,
    ) -> Option<(Arc<Query>, Arc<PlanMemo>, bool)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(text) {
            if e.cfg_fp == cfg_fp {
                e.last_used = tick;
                if let Some(slot) = e.memos.iter_mut().find(|(fp, _, _)| *fp == stats_fp) {
                    slot.2 = tick;
                    if count {
                        self.stats.hits += 1;
                    }
                    return Some((Arc::clone(&e.query), Arc::clone(&slot.1), true));
                }
                // Statistics moved (or this session is pinned at another
                // version): keep the parse, plan fresh under this
                // fingerprint. Older fingerprints stay cached so a
                // session still pinned before the mutation keeps *its*
                // plans too.
                let memo = Arc::new(PlanMemo::new());
                if e.memos.len() >= MEMOS_PER_ENTRY {
                    if let Some(lru) = e
                        .memos
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, _, used))| *used)
                        .map(|(i, _)| i)
                    {
                        e.memos.remove(lru);
                    }
                }
                e.memos.push((stats_fp, Arc::clone(&memo), tick));
                if count {
                    self.stats.invalidations += 1;
                }
                return Some((Arc::clone(&e.query), memo, false));
            }
            // Config changed under the same text: drop; the caller
            // reparses and reinserts.
            self.entries.remove(text);
        }
        None
    }

    /// Completes a miss: records the externally parsed query (evicting
    /// LRU at capacity) and returns its fresh memo.
    fn insert(
        &mut self,
        text: &str,
        query: Arc<Query>,
        capacity: usize,
        cfg_fp: u64,
        stats_fp: u64,
    ) -> (Arc<Query>, Arc<PlanMemo>) {
        self.tick += 1;
        let tick = self.tick;
        self.stats.misses += 1;
        let memo = Arc::new(PlanMemo::new());
        if self.entries.len() >= capacity {
            // Evict the least-recently-used entry (capacity ≥ 1 here).
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            text.to_string(),
            CacheEntry {
                query: Arc::clone(&query),
                cfg_fp,
                memos: vec![(stats_fp, Arc::clone(&memo), tick)],
                last_used: tick,
            },
        );
        (query, memo)
    }
}

/// The cache as a database holds it: the LRU behind a `Mutex` held only
/// to resolve entries — never across a parse or an execution — plus the
/// per-version statistics-fingerprint memo its keys are computed from.
#[derive(Default)]
pub(crate) struct SharedPlanCache {
    cache: Mutex<PlanCache>,
    /// `(version, statistics fingerprint)` memo for recent versions: the
    /// fingerprint is recomputed only when a session reads a version it
    /// hasn't been computed for — read-only traffic on a quiet graph
    /// costs one lookup.
    stats_fp: Mutex<Vec<(u64, u64)>>,
}

impl SharedPlanCache {
    /// Resolves `text` for a statement that runs against `view`'s
    /// statistics: the parsed query, the plan memo to execute with (none
    /// when `cfg` disables the cache) and the full-hit flag. A cache-miss
    /// **parse runs unlocked**, so one session parsing a large query
    /// never serializes other sessions' query startup. `count` as in
    /// [`PlanCache::lookup`].
    pub(crate) fn resolve(
        &self,
        text: &str,
        cfg: &EngineConfig,
        view: &GraphView,
        count: bool,
    ) -> Result<Resolved, Error> {
        let capacity = cfg.plan_cache_size;
        if capacity == 0 {
            return Ok((Arc::new(crate::parse_query(text)?), None, false));
        }
        let (cfg_fp, stats_fp) = (cfg.plan_fingerprint(), self.stats_fp_for(view));
        let hit = |(q, memo, hit)| (q, Some(memo), hit);
        if let Some(found) = lock(&self.cache).lookup(text, cfg_fp, stats_fp, count) {
            return Ok(hit(found));
        }
        let parsed = Arc::new(crate::parse_query(text)?);
        let mut c = lock(&self.cache);
        // A racing session may have inserted while we parsed: adopt its
        // entry. Counted under the caller's flag — an absent-entry
        // lookup increments nothing, so this query's outcome has not
        // been accounted yet and the adoption *is* its cache hit.
        if let Some(found) = c.lookup(text, cfg_fp, stats_fp, count) {
            return Ok(hit(found));
        }
        let (q, memo) = c.insert(text, parsed, capacity, cfg_fp, stats_fp);
        Ok((q, Some(memo), false))
    }

    /// The statistics fingerprint of `view`, memoized by version.
    fn stats_fp_for(&self, view: &GraphView) -> u64 {
        let mut memo = lock(&self.stats_fp);
        if let Some(&(_, fp)) = memo.iter().find(|(v, _)| *v == view.version()) {
            return fp;
        }
        let fp = stats_fingerprint(view.graph());
        memo.push((view.version(), fp));
        if memo.len() > 16 {
            memo.remove(0);
        }
        fp
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        lock(&self.cache).stats
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.cache).entries.len()
    }

    /// Appends the cache's counters to a metrics page.
    pub(crate) fn render_into(&self, out: &mut String) {
        let pc = self.stats();
        for (name, help, v) in [
            (
                "hits",
                "queries answered entirely from the plan cache",
                pc.hits,
            ),
            ("misses", "queries parsed and planned fresh", pc.misses),
            (
                "invalidations",
                "cache entries replanned after statistics drift",
                pc.invalidations,
            ),
            (
                "evictions",
                "cache entries evicted by the LRU policy",
                pc.evictions,
            ),
        ] {
            fmt_counter(out, &format!("cypher_plan_cache_{name}_total"), help, v);
        }
        fmt_gauge(
            out,
            "cypher_plan_cache_entries",
            "query texts currently cached",
            self.len() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::{Database, EngineConfig, Params};

    #[test]
    fn sessions_share_one_graph_and_one_plan_cache() {
        let params = Params::new();
        let cfg = EngineConfig {
            persistence: None,
            plan_cache_size: 16,
            ..EngineConfig::default()
        };
        let db = Database::open_with(cfg).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.query("CREATE (:P {v: 1}), (:P {v: 2})", &params).unwrap();
        let q = "MATCH (n:P) RETURN n.v AS v ORDER BY v";
        let ra = a.query(q, &params).unwrap();
        let rb = b.query(q, &params).unwrap();
        assert!(ra.ordered_eq(&rb));
        let s = db.plan_cache_stats();
        assert!(
            s.hits >= 1,
            "second session must hit the shared cache: {s:?}"
        );
    }
}
