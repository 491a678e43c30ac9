//! The `Database` facade: a **transactional, multi-version** property
//! graph — open / session / query / checkpoint / close — over the
//! versioned core of [`cypher_graph::VersionedGraph`] and the durable
//! store of [`cypher_storage`].
//!
//! ## Concurrency model (snapshot isolation, group commit)
//!
//! * Any number of [`Session`]s (cheap handles onto one shared database)
//!   run **read queries concurrently**, each against a frozen
//!   [`GraphView`]. Reader admission is one `Arc` clone under the
//!   store's leaf publication lock (see `cypher_graph::version`); a
//!   write transaction executes on its own copy-on-write clone, not
//!   under that lock, so an in-flight writer never blocks readers.
//! * **Write execution is serialized**; durability and visibility are
//!   decoupled from it by the commit pipeline ([`crate::commit`]), which
//!   seals concurrently-arriving transactions as one WAL group and
//!   publishes one version covering it. Batch seqs stay
//!   per-transaction — a commit's version id is its batch seq + 1,
//!   grouped or not.
//! * [`Session::begin_read`] pins the latest version for a multi-query
//!   read transaction: every query until [`Session::commit`] sees that
//!   one frozen state, regardless of concurrent commits.
//!
//! ## Durability lifecycle
//!
//! 1. **open** — `cypher_storage::Store::open` recovers the graph from
//!    the latest valid snapshot plus the replayed WAL tail; the result
//!    is published as the initial version (= batches recovered);
//! 2. **query** — one WAL batch per mutating query; a query that errors
//!    midway still commits the clauses before the failing one (a clause
//!    applies all of its rows or none), atomically, so memory and disk
//!    stay aligned;
//! 3. **checkpoint** — when the WAL outgrows
//!    [`EngineConfig::wal_compact_bytes`] (or on demand), the pipeline is
//!    quiesced, the latest version snapshotted and the WAL truncated;
//! 4. **close** — quiesces the pipeline and fsyncs the WAL (committed
//!    batches are already with the OS, so dropping without closing
//!    survives *process* crashes).

use crate::commit::{PendingCommit, Pipeline, Publisher};
use crate::plan_cache::{PlanCacheStats, SharedPlanCache};
use crate::registry::{DatabaseMetrics, SlowQuerySink, StderrSlowQueryLog};
use crate::session::{keyword_prefix, ProfileReport, Session};
use crate::view::{ViewRegistry, ViewSubscription};
use crate::{lock, run_reference_with, Error, Table};
use cypher_core::Params;
use cypher_engine::config::{render_config, ENGINE_KNOBS};
use cypher_engine::EngineConfig;
use cypher_graph::{Change, GraphView, PropertyGraph, VersionedGraph};
use cypher_metrics::{fmt_counter, fmt_gauge};
use cypher_storage::{RecoveryReport, Store};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What readers see, and the commit pipeline's [`Publisher`]: the
/// published versions and the standing-query registry kept atomic with
/// them. `views` is taken by the publisher with no other lock held and
/// under the apply lock by view registration; the only lock ever taken
/// under it is the store's leaf publication lock.
pub(crate) struct Readers {
    pub(crate) versioned: VersionedGraph,
    pub(crate) views: Mutex<ViewRegistry>,
    metrics: Arc<DatabaseMetrics>,
}

impl Publisher for Readers {
    /// Standing views refresh **before** the version publishes:
    /// publishers are serialized, so each refresh folds exactly one
    /// group's delta from the previously published graph to this group's
    /// candidate, and a reader that sees the new version sees the
    /// matching view contents.
    fn publish(&self, group: &[PendingCommit]) {
        let last = group.last().expect("groups are non-empty");
        {
            let mut views = lock(&self.views);
            if !views.is_empty() {
                let old = self.versioned.latest();
                let changes: Vec<&[Change]> = group.iter().map(|p| p.changes.as_slice()).collect();
                views.refresh_all(&old, &last.candidate, last.seq + 1, &changes, &self.metrics);
            }
        }
        self.versioned
            .publish_view(Arc::clone(&last.candidate), last.seq + 1);
    }
}

/// Everything shared between a [`Database`] and its [`Session`]s.
pub(crate) struct DbInner {
    pub(crate) pipeline: Pipeline<Store>,
    pub(crate) readers: Arc<Readers>,
    pub(crate) metrics: Arc<DatabaseMetrics>,
    pub(crate) cfg: EngineConfig,
    recovery: RecoveryReport,
    pub(crate) plans: SharedPlanCache,
    /// When this handle was opened (the metrics page's uptime).
    opened: Instant,
    /// Where slow-query records go; locked only on the slow path.
    pub(crate) slow_sink: Mutex<Arc<dyn SlowQuerySink>>,
}

impl DbInner {
    /// Registers and materializes a standing view (see [`crate::view`]).
    /// The commit pipeline is quiesced first, so the view materializes
    /// against a fully published state and no commit group can publish
    /// mid-registration.
    pub(crate) fn create_view(&self, name: &str, query: &str) -> Result<u64, Error> {
        let _apply = self.pipeline.quiesce();
        let latest = self.readers.versioned.latest();
        lock(&self.readers.views).create(name, query, &latest)
    }

    /// Reads a view's contents as of `at`: the published table when the
    /// snapshot is within the retained ring, a cold re-evaluation of the
    /// view query against `at` otherwise (counted as a full recompute).
    pub(crate) fn read_view(&self, name: &str, at: &GraphView) -> Result<Table, Error> {
        let (published, query) = {
            let views = lock(&self.readers.views);
            (views.read_at(name, at.version())?, views.query_of(name)?)
        };
        if let Some(t) = published {
            return Ok((*t).clone());
        }
        // The pin predates the retained publications: re-evaluate at the
        // pinned snapshot — same contents, full query cost.
        if self.metrics.enabled() {
            self.metrics.view_full_recomputes.inc();
        }
        crate::view::cold_eval(at, &query, &self.cfg)
    }
}

/// A transactional property graph with an optional durable store behind
/// it and snapshot-isolated concurrent sessions on top.
///
/// ```
/// use cypher::{Database, Params};
///
/// let dir = std::env::temp_dir().join(format!("cypher-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let params = Params::new();
/// {
///     let mut db = Database::open(&dir).unwrap();
///     db.query("CREATE (:Person {name: 'Ada'})", &params).unwrap();
/// } // dropped: committed batches are already with the OS
/// let mut db = Database::open(&dir).unwrap();
/// let out = db.query("MATCH (p:Person) RETURN p.name", &params).unwrap();
/// assert_eq!(out.len(), 1);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
///
/// For concurrent use, hand each thread its own [`Session`]:
///
/// ```
/// use cypher::{Database, Params};
///
/// let db = Database::in_memory();
/// let params = Params::new();
/// let mut reader = db.session();
/// let mut writer = db.session();
/// writer.query("CREATE (:N {v: 1})", &params).unwrap();
/// let v = reader.begin_read(); // pin: a frozen snapshot
/// writer.query("CREATE (:N {v: 2})", &params).unwrap();
/// let pinned = reader.query("MATCH (n:N) RETURN count(*) AS c", &params).unwrap();
/// assert_eq!(format!("{:?}", pinned.cell(0, "c").unwrap()), "Integer(1)");
/// reader.commit(); // release the pin
/// assert!(reader.version().is_none());
/// assert_eq!(v, 1);
/// ```
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    /// Opens (creating if necessary) a durable database at `dir`,
    /// recovering whatever a previous process committed there.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database, Error> {
        Database::open_with(EngineConfig {
            persistence: Some(dir.as_ref().to_path_buf()),
            ..EngineConfig::default()
        })
    }

    /// Opens a database as configured: durable when
    /// [`EngineConfig::persistence`] is set (which defaults from the
    /// `CYPHER_DATA_DIR` environment variable), in-memory otherwise.
    /// Opening starts no thread: recovery runs on the calling thread and
    /// the commit pipeline runs on its writers' threads.
    pub fn open_with(mut cfg: EngineConfig) -> Result<Database, Error> {
        // The metrics registry exists either way (a disabled one is a
        // plain bool gate); the executor's counters are shared with the
        // engine through the config only when recording is on.
        let metrics = Arc::new(DatabaseMetrics::new(cfg.metrics_enabled));
        if cfg.metrics_enabled && cfg.exec_metrics.is_none() {
            cfg.exec_metrics = Some(Arc::new(cypher_engine::ExecMetrics::default()));
        }
        let (graph, store, recovery) = match &cfg.persistence {
            Some(dir) => {
                let (store, graph) = Store::open(dir)?;
                let recovery = store.report().clone();
                (graph, Some(store), recovery)
            }
            None => (PropertyGraph::new(), None, RecoveryReport::default()),
        };
        let initial_version = store.as_ref().map_or(0, Store::batches_committed);
        let readers = Arc::new(Readers {
            versioned: VersionedGraph::new(graph, initial_version),
            views: Mutex::new(ViewRegistry::new(cfg.clone())),
            metrics: Arc::clone(&metrics),
        });
        let pipeline = Pipeline::new(
            store,
            &readers.versioned.latest(),
            Arc::clone(&readers) as Arc<dyn Publisher>,
            Arc::clone(&metrics),
            cfg.fsync_mode,
            cfg.group_commit,
        );
        Ok(Database {
            inner: Arc::new(DbInner {
                pipeline,
                readers,
                metrics,
                cfg,
                recovery,
                plans: SharedPlanCache::default(),
                opened: Instant::now(),
                slow_sink: Mutex::new(Arc::new(StderrSlowQueryLog)),
            }),
        })
    }

    /// An in-memory database (no files, no WAL); mostly for tests and as
    /// the oracle half of differential harnesses.
    pub fn in_memory() -> Database {
        let cfg = EngineConfig {
            persistence: None,
            ..EngineConfig::default()
        };
        Database::open_with(cfg).expect("in-memory open cannot fail")
    }

    /// Opens a new session: an independent, cheap handle onto this
    /// database. Sessions on one database share the graph, the durable
    /// store and the plan cache; each may pin its own read snapshot, and
    /// any number of them may run queries concurrently (send them to
    /// other threads freely). Concurrent updating queries feed the
    /// group-commit queue and share WAL seals (and fsyncs).
    pub fn session(&self) -> Session {
        let m = &self.inner.metrics;
        if m.enabled() {
            m.sessions_active.inc();
        }
        Session {
            inner: Arc::clone(&self.inner),
            pinned: None,
            last_commit: None,
        }
    }

    /// Executes one query (reads and updates) in auto-commit mode.
    ///
    /// Reads run lock-free against the latest published version. An
    /// updating query runs as one write transaction through the
    /// group-commit pipeline: its change records are sealed in the WAL
    /// inside an atomic group, then the new version is published to
    /// readers once the group is durable per
    /// [`EngineConfig::fsync_mode`] (the snapshot-compaction trigger
    /// runs afterwards).
    ///
    /// Repeated query texts skip parsing and `MATCH` planning entirely via
    /// the shared LRU plan cache (capacity [`EngineConfig::plan_cache_size`];
    /// `0` disables). Plans are memoized per statistics fingerprint —
    /// when the index statistics drift far enough to change plan choice
    /// (log₂-bucketed; see `cypher_engine::stats_fingerprint`), the entry
    /// replans while keeping the parse. Parameters are *not* part of the
    /// cache key: plans embed parameter *expressions*, evaluated freshly
    /// on every execution.
    pub fn query(&mut self, query: &str, params: &Params) -> Result<Table, Error> {
        let view = self.inner.readers.versioned.latest();
        let mut committed = None;
        self.inner
            .query_at(&view, false, query, params, &mut committed, None)
    }

    /// Evaluates a read query with the reference evaluator (the paper's
    /// denotational semantics) against the latest version.
    pub fn query_reference(&self, query: &str, params: &Params) -> Result<Table, Error> {
        let view = self.inner.readers.versioned.latest();
        run_reference_with(view.graph(), query, params, self.inner.cfg.match_config)
    }

    /// Forces a snapshot + WAL truncation now (quiescing the commit
    /// pipeline first). No-op for in-memory databases.
    pub fn checkpoint(&mut self) -> Result<(), Error> {
        let inner = &self.inner;
        let latest = || inner.readers.versioned.latest();
        if inner.pipeline.checkpoint(latest, None)? && inner.metrics.enabled() {
            inner.metrics.checkpoints.inc();
        }
        Ok(())
    }

    /// Syncs the WAL to stable storage and consumes the database handle.
    /// Every committed batch is handed to the OS at commit time (durable
    /// against process crashes); `close` quiesces the commit pipeline
    /// and forces the fsync that makes the tail durable against OS
    /// crashes and power loss too.
    ///
    /// Sessions outlive the handle but the *write path does not*: after
    /// `close`, updating queries on any surviving session fail loudly —
    /// silently accepting a commit that will never be fsynced would
    /// break the durability promise `close` just made. Reads (which
    /// only touch published in-memory versions) keep working.
    pub fn close(self) -> Result<(), Error> {
        self.inner.pipeline.close()
    }

    /// The latest published version of the graph, as a frozen snapshot
    /// handle (derefs to [`PropertyGraph`], so the whole read API is
    /// available on it).
    pub fn graph(&self) -> GraphView {
        self.inner.readers.versioned.latest()
    }

    /// The version id of the latest committed transaction (0 for a fresh
    /// in-memory database; the recovered batch count after `open`).
    pub fn version(&self) -> u64 {
        self.inner.readers.versioned.latest_version()
    }

    /// What recovery found when this database was opened (all zeros for
    /// in-memory databases).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Number of WAL batches committed over the store's lifetime; `None`
    /// for in-memory databases. The recovery differential uses this to
    /// map kill points back to statement prefixes. Lock-free (reads a
    /// mirror refreshed at each seal), so monitoring never stalls behind
    /// the commit pipeline.
    pub fn batches_committed(&self) -> Option<u64> {
        self.inner.pipeline.batches_committed()
    }

    /// WAL size in bytes as of the last seal/checkpoint; `None` for
    /// in-memory databases. Lock-free mirror, like
    /// [`Database::batches_committed`].
    pub fn wal_bytes(&self) -> Option<u64> {
        self.inner.pipeline.wal_bytes()
    }

    /// Snapshot generation as of the last seal/checkpoint; `None` for
    /// in-memory databases. Lock-free mirror, like
    /// [`Database::batches_committed`].
    pub fn generation(&self) -> Option<u64> {
        self.inner.pipeline.generation()
    }

    /// The engine configuration this database executes with.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// Hit/miss/invalidation/eviction counters of the parse+plan cache
    /// (shared across all sessions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plans.stats()
    }

    /// Number of query texts currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plans.len()
    }

    /// Test double for the fsync fault-injection harness: forces the
    /// next `n` WAL flushes to fail by arming the store's injection
    /// (consumed by `Sync`-mode seals and by `close`). Returns whether
    /// it armed one: `false` on an in-memory database, which has no log
    /// to fail, and inert — `false`, nothing armed — unless
    /// [`crate::test_faults_armed`].
    #[doc(hidden)]
    pub fn inject_fsync_failures(&self, n: u32) -> bool {
        crate::test_faults_armed()
            && self
                .inner
                .pipeline
                .with_log(|store| store.inject_sync_failures(n))
    }

    /// Renders the physical plans (and projection pushdowns) this
    /// database's configuration produces for `query` against the latest
    /// version's statistics — the `EXPLAIN` witness the plan-cache tests
    /// compare before and after invalidation.
    pub fn explain(&self, query: &str) -> Result<String, Error> {
        let q = crate::parse_query(query)?;
        let view = self.inner.readers.versioned.latest();
        Ok(cypher_engine::explain(&view, &q, &self.inner.cfg))
    }

    /// Executes a read query with per-operator instrumentation against
    /// the latest version, returning the result (bit-identical to an
    /// unprofiled run) alongside the profile in structured and rendered
    /// form. A leading `PROFILE ` prefix on `query` is accepted and
    /// stripped. The same profile is available through the normal query
    /// path — `query("PROFILE …")` returns the per-operator rows — so
    /// remote clients get it over the wire unchanged.
    pub fn profile(&self, query: &str, params: &Params) -> Result<ProfileReport, Error> {
        let text = keyword_prefix(query, "PROFILE").unwrap_or(query);
        let view = self.inner.readers.versioned.latest();
        self.inner.profile_at(&view, text, params)
    }

    /// The typed metrics registry of this database (always present; its
    /// instruments stay at zero when [`EngineConfig::metrics_enabled`]
    /// is off).
    pub fn metrics(&self) -> &DatabaseMetrics {
        &self.inner.metrics
    }

    /// The executor's counters (morsels, rows, parallel runs), when
    /// metrics are enabled.
    pub fn exec_metrics(&self) -> Option<&cypher_engine::ExecMetrics> {
        self.inner.cfg.exec_metrics.as_deref()
    }

    /// Renders one consistent-enough metrics page: every layer's
    /// instruments as Prometheus-style text, identity (uptime, version,
    /// snapshot generation) included. Lock-free except for the
    /// plan-cache stats and the pin registry (both held briefly); safe
    /// to call at any frequency under load.
    pub fn metrics_snapshot(&self) -> String {
        let inner = &self.inner;
        let mut text = String::new();
        fmt_gauge(
            &mut text,
            "cypher_metrics_enabled",
            "1 when instrument recording is on",
            inner.metrics.enabled() as i64,
        );
        fmt_counter(
            &mut text,
            "cypher_uptime_ms",
            "milliseconds since this database handle was opened",
            inner.opened.elapsed().as_millis() as u64,
        );
        fmt_counter(
            &mut text,
            "cypher_version",
            "latest published version id",
            inner.readers.versioned.latest_version(),
        );
        inner.metrics.render_into(&mut text);
        if let Some(em) = &inner.cfg.exec_metrics {
            em.render_into(&mut text);
        }
        inner.plans.render_into(&mut text);
        if let Some(batches) = self.batches_committed() {
            fmt_counter(
                &mut text,
                "cypher_wal_batches_total",
                "WAL batches committed over the store's lifetime",
                batches,
            );
        }
        if let Some(bytes) = self.wal_bytes() {
            fmt_gauge(
                &mut text,
                "cypher_wal_bytes",
                "WAL size as of the last seal/checkpoint",
                bytes as i64,
            );
        }
        if let Some(generation) = self.generation() {
            fmt_counter(
                &mut text,
                "cypher_snapshot_generation",
                "snapshot generation as of the last checkpoint",
                generation,
            );
        }
        fmt_counter(
            &mut text,
            "cypher_recovery_batches_replayed",
            "WAL batches replayed when this database was opened",
            inner.recovery.batches_replayed,
        );
        render_config(&mut text, "cypher_config", &ENGINE_KNOBS, &inner.cfg);
        text
    }

    /// Registers a **standing view**: `query` (read-only) is planned and
    /// classified once, materialized at the current version, and kept
    /// current across commits by the maintenance modes of the view
    /// module — delta folds for the maintainable fragment, full
    /// recomputation otherwise. Returns the version the view
    /// materialized at. `EXPLAIN VIEW <name>` (through any query path)
    /// shows the chosen maintenance plan.
    pub fn create_view(&self, name: &str, query: &str) -> Result<u64, Error> {
        self.inner.create_view(name, query)
    }

    /// Unregisters a standing view. Open subscriptions disconnect.
    pub fn drop_view(&self, name: &str) -> Result<(), Error> {
        lock(&self.inner.readers.views).drop_view(name)
    }

    /// The contents of view `name` at the latest published version —
    /// served from the maintained table, not by re-running the query.
    pub fn view(&self, name: &str) -> Result<Table, Error> {
        let at = self.inner.readers.versioned.latest();
        self.inner.read_view(name, &at)
    }

    /// Renders view `name`'s maintenance plan (same text as
    /// `EXPLAIN VIEW <name>`).
    pub fn explain_view(&self, name: &str) -> Result<String, Error> {
        let at = self.inner.readers.versioned.latest();
        lock(&self.inner.readers.views).explain(name, &at)
    }

    /// Subscribes to view `name`'s change stream: one
    /// [`crate::ViewChange`] per published commit group that changed the
    /// view's contents, in version order.
    pub fn subscribe(&self, name: &str) -> Result<ViewSubscription, Error> {
        lock(&self.inner.readers.views).subscribe(name)
    }

    /// Replaces the slow-query sink (default: one machine-parseable
    /// line per slow query on stderr). Takes effect for statements
    /// observed after the call; the slow path is the only reader.
    pub fn set_slow_query_sink(&self, sink: Arc<dyn SlowQuerySink>) {
        *lock(&self.inner.slow_sink) = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tmpdir;
    use crate::{FsyncMode, Value};

    #[test]
    fn durable_roundtrip_across_open() {
        let dir = tmpdir("roundtrip");
        let params = Params::new();
        {
            let mut db = Database::open(&dir).unwrap();
            db.query(
                "CREATE (:P {name: 'Ada'})-[:KNOWS {since: 1985}]->(:P {name: 'Bo'})",
                &params,
            )
            .unwrap();
            db.query("MATCH (n:P {name: 'Bo'}) SET n.age = 3", &params)
                .unwrap();
            assert_eq!(db.batches_committed(), Some(2));
            assert_eq!(db.version(), 2, "version = sealed batches");
            db.close().unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(db.recovery().batches_replayed, 2);
        assert_eq!(db.version(), 2, "versions continue across reopen");
        let out = db
            .query(
                "MATCH (a:P)-[r:KNOWS]->(b) RETURN a.name, r.since, b.age",
                &params,
            )
            .unwrap();
        assert_eq!(out.cell(0, "a.name"), Some(&Value::str("Ada")));
        assert_eq!(out.cell(0, "r.since"), Some(&Value::int(1985)));
        assert_eq!(out.cell(0, "b.age"), Some(&Value::int(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_trigger_snapshots_and_truncates() {
        let dir = tmpdir("compact");
        let params = Params::new();
        let cfg = EngineConfig {
            persistence: Some(dir.clone()),
            wal_compact_bytes: 512, // tiny: trigger quickly
            ..EngineConfig::default()
        };
        let mut db = Database::open_with(cfg.clone()).unwrap();
        for i in 0..50 {
            db.query(&format!("CREATE (:N {{i: {i}}})"), &params)
                .unwrap();
        }
        assert!(db.generation().unwrap() > 0, "compaction never triggered");
        assert!(db.wal_bytes().unwrap() <= 512 + 200, "wal was truncated");
        let dump = db.graph().canonical_dump();
        db.close().unwrap();
        let db2 = Database::open_with(cfg).unwrap();
        assert_eq!(db2.graph().canonical_dump(), dump);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_database_has_no_files() {
        let params = Params::new();
        let mut db = Database::in_memory();
        db.query("CREATE (:N)", &params).unwrap();
        assert_eq!(db.batches_committed(), None);
        assert_eq!(db.wal_bytes(), None);
        assert!(!db.graph().has_change_sink());
        assert_eq!(db.version(), 1);
    }

    #[test]
    fn close_poisons_writes_on_surviving_sessions_but_reads_continue() {
        let dir = tmpdir("close-poison");
        let params = Params::new();
        let db = Database::open(&dir).unwrap();
        let mut survivor = db.session();
        survivor.query("CREATE (:N {v: 1})", &params).unwrap();
        db.close().unwrap();
        // A write after close would seal a batch no one ever fsyncs —
        // it must fail loudly, not succeed silently.
        let e = survivor.query("CREATE (:N {v: 2})", &params).unwrap_err();
        assert!(e.to_string().contains("closed"), "unexpected error: {e}");
        // Reads only touch published in-memory versions: still fine.
        let t = survivor
            .query("MATCH (n:N) RETURN count(*) AS c", &params)
            .unwrap();
        assert_eq!(t.cell(0, "c"), Some(&Value::int(1)));
        // close released the directory lock even though a session
        // lingers: the directory reopens immediately.
        let db2 = Database::open(&dir).unwrap();
        assert_eq!(db2.version(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_stamps_the_snapshot_version() {
        let params = Params::new();
        let mut db = Database::in_memory();
        db.query("CREATE (:P {v: 1})", &params).unwrap();
        let plan = db.explain("MATCH (n:P) RETURN n").unwrap();
        assert!(
            plan.starts_with("snapshot version 1\n"),
            "explain must witness the version its statistics came from:\n{plan}"
        );
    }

    #[test]
    fn fsync_failures_cannot_be_armed_without_a_log() {
        std::env::set_var("CYPHER_TEST_FAULTS", "1");
        let mut db = Database::in_memory();
        assert!(!db.inject_fsync_failures(1), "no store, nothing armed");
        db.query("CREATE (:N)", &Params::new()).unwrap();
        assert_eq!(db.version(), 1);
    }

    /// One injected flush failure in `Sync` mode: the doomed writer gets
    /// the flush error, its group never publishes, later writers see the
    /// poison, and a reopen replays exactly the durable prefix.
    #[test]
    fn sync_mode_fsync_failure_poisons_exactly_its_group() {
        let dir = tmpdir("sync-fail");
        let params = Params::new();
        let mut cfg = EngineConfig {
            persistence: Some(dir.clone()),
            fsync_mode: FsyncMode::Sync,
            ..EngineConfig::default()
        };
        {
            let mut db = Database::open_with(cfg.clone()).unwrap();
            db.query("CREATE (:N {v: 1})", &params).unwrap();
            std::env::set_var("CYPHER_TEST_FAULTS", "1");
            assert!(db.inject_fsync_failures(1), "armed under the env guard");
            let e = db.query("CREATE (:N {v: 2})", &params).unwrap_err();
            assert!(
                e.to_string().contains("fsync"),
                "the doomed writer gets the flush error: {e}"
            );
            // The failed group never published: memory stayed on the
            // durable prefix.
            assert_eq!(db.version(), 1);
            let e2 = db.query("CREATE (:N {v: 3})", &params).unwrap_err();
            assert!(
                e2.to_string()
                    .contains("read-only after a failed WAL commit"),
                "later writers see the poison: {e2}"
            );
        } // dropped, not closed: close would fsync a damaged writer
        cfg.fsync_mode = FsyncMode::Os;
        let mut db2 = Database::open_with(cfg).unwrap();
        assert_eq!(db2.version(), 1, "prior groups stayed durable");
        assert_eq!(
            db2.recovery().batches_replayed,
            1,
            "the WAL was rolled back to the durable group"
        );
        let t = db2
            .query("MATCH (n:N) RETURN count(*) AS c", &params)
            .unwrap();
        assert_eq!(t.cell(0, "c"), Some(&Value::int(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintained_views_track_every_commit() {
        let params = Params::new();
        let mut db = Database::in_memory();
        db.query(
            "CREATE (:P {city: 'a', age: 30}), (:P {city: 'b', age: 40})",
            &params,
        )
        .unwrap();
        let q = "MATCH (p:P) RETURN p.city AS city, count(*) AS n, sum(p.age) AS total";
        let v = db.create_view("by_city", q).unwrap();
        assert_eq!(v, 1);
        let explain = db.explain_view("by_city").unwrap();
        assert!(
            explain.contains("grouped-aggregate fold"),
            "aggregate view should be delta-maintained:\n{explain}"
        );
        // Each commit's refreshed view must equal a cold re-evaluation.
        let steps = [
            "CREATE (:P {city: 'a', age: 10})",
            "MATCH (p:P {age: 30}) SET p.age = 35",
            "MATCH (p:P {city: 'b'}) DELETE p",
            "MATCH (p:P {age: 10}) SET p.city = 'c'",
        ];
        for step in steps {
            db.query(step, &params).unwrap();
            let maintained = db.view("by_city").unwrap();
            let cold = db.query(q, &params).unwrap();
            maintained.assert_bag_eq(&cold);
        }
        db.drop_view("by_city").unwrap();
        assert!(db.view("by_city").is_err());
        assert!(
            !db.graph().has_change_sink(),
            "published graphs never carry the collector sink"
        );
    }

    #[test]
    fn subscriptions_stream_bag_deltas_per_version() {
        let params = Params::new();
        let mut db = Database::in_memory();
        db.create_view("people", "MATCH (p:P) RETURN p.name AS name")
            .unwrap();
        let sub = db.subscribe("people").unwrap();
        db.query("CREATE (:P {name: 'Ada'})", &params).unwrap();
        db.query("MATCH (p:P {name: 'Ada'}) SET p.name = 'Bo'", &params)
            .unwrap();
        let first = sub
            .next_timeout(std::time::Duration::from_secs(5))
            .expect("first change frame");
        assert_eq!(first.version, 1);
        assert_eq!(first.added.len(), 1);
        assert_eq!(first.removed.len(), 0);
        assert_eq!(first.added.cell(0, "name"), Some(&Value::str("Ada")));
        let second = sub
            .next_timeout(std::time::Duration::from_secs(5))
            .expect("second change frame");
        assert_eq!(second.version, 2);
        assert_eq!(second.added.cell(0, "name"), Some(&Value::str("Bo")));
        assert_eq!(second.removed.cell(0, "name"), Some(&Value::str("Ada")));
    }

    #[test]
    fn unmaintainable_views_fall_back_to_full_recompute() {
        let params = Params::new();
        let cfg = EngineConfig {
            persistence: None,
            metrics_enabled: true,
            ..EngineConfig::default()
        };
        let mut db = Database::open_with(cfg).unwrap();
        db.query("CREATE (:A)-[:R]->(:B)", &params).unwrap();
        // Variable-length paths are outside the delta fragment.
        let q = "MATCH (a:A)-[:R*1..2]->(b) RETURN count(*) AS c";
        db.create_view("far", q).unwrap();
        let explain = db.explain_view("far").unwrap();
        assert!(explain.contains("full recomputation"), "{explain}");
        db.query("CREATE (:A)-[:R]->(:B)", &params).unwrap();
        let maintained = db.view("far").unwrap();
        let cold = db.query(q, &params).unwrap();
        maintained.assert_bag_eq(&cold);
        assert!(
            db.metrics().view_full_recomputes.get() >= 1,
            "full-mode refreshes are counted"
        );
    }
}
