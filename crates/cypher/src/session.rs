//! [`Session`] and the statement path every session runs: dispatch
//! (`EXPLAIN` / `PROFILE` / read / write), the plan cache in front of
//! it, and the per-statement observation tail behind it.

use crate::database::DbInner;
use crate::registry::SlowQueryEntry;
use crate::{lock, run_reference_with, Error, Record, Schema, Table};
use cypher_ast::query::Query;
use cypher_core::error::EvalError;
use cypher_core::Params;
use cypher_engine::QueryProfile;
use cypher_graph::{GraphView, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The result of profiling one query ([`crate::Database::profile`]): the query
/// result plus per-operator actuals, in both structured and rendered
/// form.
pub struct ProfileReport {
    /// The query's own result table (bit-identical to an unprofiled
    /// run).
    pub result: Table,
    /// One row per pipeline operator: `clause`, `operator`, `est_rows`,
    /// `rows`, `batches`, `time_us` — what `PROFILE <query>` returns
    /// over the wire.
    pub operators: Table,
    /// The annotated plan tree, rendered for humans.
    pub text: String,
    /// The raw structured profile.
    pub profile: QueryProfile,
}

/// Case-insensitively strips leading keyword `kw` (which must be
/// followed by whitespace) from `text`, returning the remainder.
/// `EXPLAIN` / `PROFILE` are dispatch prefixes, not grammar: no valid
/// Cypher statement starts with either token, so prefix matching here
/// cannot shadow a real query.
pub(crate) fn keyword_prefix<'t>(text: &'t str, kw: &str) -> Option<&'t str> {
    let t = text.trim_start();
    if t.len() <= kw.len() || !t.as_bytes()[..kw.len()].eq_ignore_ascii_case(kw.as_bytes()) {
        return None;
    }
    let rest = &t[kw.len()..];
    rest.starts_with(|c: char| c.is_whitespace())
        .then(|| rest.trim_start())
}

/// A one-column table holding `text` line by line (how `EXPLAIN`
/// renders into a result table).
fn lines_table(column: &str, text: &str) -> Table {
    let mut t = Table::empty(Schema::new(vec![column.to_string()]));
    for line in text.lines() {
        t.push(Record::new(vec![Value::str(line)]));
    }
    t
}

impl DbInner {
    /// Executes one query: reads run lock-free against `view`; updating
    /// queries enter the commit pipeline (refused when `pinned` — a read
    /// transaction never mutates). `committed` reports the version id
    /// the statement committed at, if it committed one. An `EXPLAIN ` /
    /// `PROFILE ` prefix dispatches to plan rendering / instrumented
    /// execution instead (neither token starts a valid Cypher
    /// statement). `trace` is the caller's request id, threaded into
    /// the slow-query log and the WAL seal.
    pub(crate) fn query_at(
        &self,
        view: &GraphView,
        pinned: bool,
        text: &str,
        params: &Params,
        committed: &mut Option<u64>,
        trace: Option<u64>,
    ) -> Result<Table, Error> {
        if let Some(rest) = keyword_prefix(text, "EXPLAIN") {
            // `EXPLAIN VIEW <name>` renders a standing view's
            // maintenance plan (VIEW is not a Cypher keyword, so the
            // prefix cannot shadow a real query).
            if let Some(name) = keyword_prefix(rest, "VIEW") {
                let text = lock(&self.readers.views).explain(name.trim(), view)?;
                return Ok(lines_table("view", &text));
            }
            let q = crate::parse_query(rest)?;
            return Ok(lines_table(
                "plan",
                &cypher_engine::explain(view, &q, &self.cfg),
            ));
        }
        if let Some(rest) = keyword_prefix(text, "PROFILE") {
            // PROFILE executes the query for real, so it is observed
            // like any read (its results are bit-identical to an
            // unprofiled run; only the instrumentation differs).
            let started = Instant::now();
            let report = self.profile_at(view, rest, params);
            let rows = report.as_ref().ok().map(|r| r.result.len() as u64);
            self.observe_query(rest, started, false, false, None, trace, rows);
            return report.map(|r| r.operators);
        }
        let started = Instant::now();
        let resolved = self.plans.resolve(text, &self.cfg, view, true);
        let (q, memo, cache_hit) = match resolved {
            Ok(r) => r,
            Err(e) => {
                self.observe_query(text, started, false, false, None, trace, None);
                return Err(e);
            }
        };
        let write = q.is_updating();
        let result = if !write {
            cypher_engine::execute_read_cached(view, &q, params, &self.cfg, memo.as_deref())
                .map_err(Error::from)
        } else if pinned {
            Err(Error::Eval(EvalError::new(
                "updating query inside a read transaction: \
                 call Session::commit() to release the pinned snapshot first",
            )))
        } else {
            self.write_query(text, &q, params, committed, trace)
        };
        let rows = result.as_ref().ok().map(|t| t.len() as u64);
        self.observe_query(text, started, write, cache_hit, *committed, trace, rows);
        result
    }

    /// Profiles a read query against `view`: the production plan under
    /// a measuring probe, so the result is bit-identical to the
    /// unprofiled run (see `cypher_engine::profile_read`).
    pub(crate) fn profile_at(
        &self,
        view: &GraphView,
        text: &str,
        params: &Params,
    ) -> Result<ProfileReport, Error> {
        let q = crate::parse_query(text)?;
        if q.is_updating() {
            return Err(Error::Eval(EvalError::new(
                "PROFILE supports read-only queries: run the update without the prefix",
            )));
        }
        let (result, profile) = cypher_engine::profile_read(view, &q, params, &self.cfg)?;
        let schema = Schema::new(
            [
                "clause", "operator", "est_rows", "rows", "batches", "time_us",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        let mut operators = Table::empty(schema);
        for c in &profile.clauses {
            for op in &c.operators {
                operators.push(Record::new(vec![
                    Value::str(c.label.as_str()),
                    Value::str(op.operator.as_str()),
                    Value::float(op.estimated_rows),
                    Value::int(op.rows as i64),
                    Value::int(op.batches as i64),
                    Value::int(op.time_us as i64),
                ]));
            }
        }
        let text = profile.render();
        Ok(ProfileReport {
            result,
            operators,
            text,
            profile,
        })
    }

    /// The per-statement observation tail: metrics (when enabled) and
    /// the slow-query log (when configured). `rows` is `None` for a
    /// failed statement.
    #[allow(clippy::too_many_arguments)]
    fn observe_query(
        &self,
        text: &str,
        started: Instant,
        write: bool,
        plan_cache_hit: bool,
        committed: Option<u64>,
        trace: Option<u64>,
        rows: Option<u64>,
    ) {
        let elapsed = started.elapsed();
        let m = &self.metrics;
        if m.enabled() {
            if write {
                m.queries_write.inc();
            } else {
                m.queries_read.inc();
            }
            match rows {
                Some(n) => m.rows_returned.add(n),
                None => m.queries_failed.inc(),
            }
            m.query_latency_us.record(elapsed.as_micros() as u64);
        }
        let Some(threshold_ms) = self.cfg.slow_query_ms else {
            return;
        };
        if (elapsed.as_millis() as u64) < threshold_ms {
            return;
        }
        if m.enabled() {
            m.slow_queries.inc();
        }
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        let entry = SlowQueryEntry {
            query_hash: h.finish(),
            duration_us: elapsed.as_micros() as u64,
            rows,
            plan_cache_hit,
            committed_version: committed,
            trace_id: trace,
            write,
        };
        let sink = Arc::clone(&*lock(&self.slow_sink));
        sink.record(&entry);
    }

    /// Executes an updating query as one transaction: private
    /// copy-on-write clone of the apply head → execute → drain the
    /// change records → admit into the commit pipeline, which seals the
    /// queued batches in one atomic WAL write and publishes the new
    /// version once the group is durable (per
    /// [`EngineConfig::fsync_mode`](crate::EngineConfig::fsync_mode)).
    fn write_query(
        &self,
        text: &str,
        q: &Arc<Query>,
        params: &Params,
        committed: &mut Option<u64>,
        trace: Option<u64>,
    ) -> Result<Table, Error> {
        let pipeline = &self.pipeline;
        let txn = pipeline.begin_write()?;
        let base = txn.base();
        // Resolve the plan memo against the statistics this transaction
        // will *actually* execute under — the apply head, frozen for the
        // duration (we hold the apply lock). The caller's pre-lock
        // resolution may have been computed against an older version;
        // caching plans chosen under these statistics into that older
        // fingerprint's slot would poison it for sessions genuinely
        // pinned there. Quiet: this query's cache outcome was already
        // counted.
        let memo = self.plans.resolve(text, &self.cfg, &base, false)?.1;
        // Change records feed the WAL batch (durable databases) and the
        // standing-view delta folds, and their presence is the one
        // did-anything-mutate detector.
        let mut graph = (**base.graph_arc()).clone();
        // Discard anything a previous transaction left behind: a query
        // that *panicked* mid-execution aborted its clone but could not
        // drain the records it had already emitted — sealing them into
        // this batch would write mutations to disk that no published
        // version ever contained.
        let _stale = txn.buffer().drain();
        graph.set_change_sink(Box::new(txn.buffer().clone()));
        let result =
            cypher_engine::execute_cached(&mut graph, q, params, &self.cfg, memo.as_deref())
                .map_err(Error::from);
        // Even an errored query commits (and seals) the mutations it
        // did apply before failing — Cypher has no rollback, so the
        // already-executed clauses are real and must be durable; they
        // become visible to readers atomically like any other batch.
        let changes = txn.buffer().drain();
        graph.take_change_sink();
        if changes.is_empty() {
            // No mutator changed anything (e.g. a SET whose MATCH bound
            // nothing): nothing to publish.
            return result;
        }
        let settled = txn.admit(graph, changes, trace);
        *committed = Some(settled.recv().expect("every admitted commit is settled")?);
        // Compaction trigger. Any error is this writer's to report (its
        // own commit is already sealed and published).
        let limit = self.cfg.wal_compact_bytes;
        if pipeline.wal_bytes().is_some_and(|bytes| bytes > limit)
            && pipeline.checkpoint(|| self.readers.versioned.latest(), Some(limit))?
            && self.metrics.enabled()
        {
            self.metrics.wal_compactions.inc();
        }
        result
    }
}

/// One client's handle onto a shared [`crate::Database`]: the unit of
/// concurrency and of read-transaction scope.
///
/// * `query()` outside a read transaction auto-commits: reads execute
///   against the latest version, updates run as their own atomic write
///   transaction (through the group-commit pipeline — concurrent
///   sessions' commits share WAL seals and fsyncs).
/// * [`Session::begin_read`] … [`Session::commit`] brackets a **read
///   transaction**: every query in between executes against the one
///   version pinned at `begin_read`, unaffected by concurrent commits
///   (snapshot isolation — repeatable reads, no torn batches). Updating
///   queries are refused while pinned.
///
/// Sessions are `Send`: create one per thread and query away. All
/// sessions share the plan cache, so a hot query planned by one session
/// is a cache hit for every other session at the same statistics
/// fingerprint.
pub struct Session {
    pub(crate) inner: Arc<DbInner>,
    /// The read transaction's snapshot with its pin-registry token
    /// (which feeds the pinned-sessions gauge and the oldest-pin age).
    pub(crate) pinned: Option<(GraphView, u64)>,
    pub(crate) last_commit: Option<u64>,
}

impl Session {
    /// Starts (or restarts) a read transaction: pins the latest
    /// published version and returns its id. Until [`Session::commit`],
    /// every query of this session executes against this frozen
    /// snapshot.
    pub fn begin_read(&mut self) -> u64 {
        self.commit();
        let view = self.inner.readers.versioned.latest();
        let v = view.version();
        self.pinned = Some((view, self.inner.metrics.register_pin()));
        v
    }

    /// Ends the read transaction, releasing the pinned snapshot (and
    /// with it, eventually, the memory of that version). No-op when no
    /// transaction is open. The name mirrors the transactional bracket;
    /// read transactions have nothing to make durable.
    pub fn commit(&mut self) {
        if let Some((_, id)) = self.pinned.take() {
            self.inner.metrics.release_pin(id);
        }
    }

    /// The version this session is pinned at, if a read transaction is
    /// open.
    pub fn version(&self) -> Option<u64> {
        self.pinned.as_ref().map(|(v, _)| v.version())
    }

    /// The version id this session's most recent statement committed at
    /// — `None` if that statement was a read, a no-op update, or failed
    /// to commit. Under group commit a member's version id may never be
    /// published on its own (the group publishes one version covering
    /// all members); the multi-writer differential harness orders its
    /// oracle replay by these ids, which stay per-transaction and
    /// monotonic.
    pub fn last_commit_version(&self) -> Option<u64> {
        self.last_commit
    }

    /// The snapshot this session's next read query will execute against:
    /// the pinned version inside a read transaction, the latest version
    /// otherwise.
    pub fn snapshot(&self) -> GraphView {
        match &self.pinned {
            Some((v, _)) => v.clone(),
            None => self.inner.readers.versioned.latest(),
        }
    }

    /// Executes one query in this session. Inside a read transaction,
    /// reads see the pinned snapshot and updates are refused; outside,
    /// behaves exactly like [`crate::Database::query`].
    pub fn query(&mut self, query: &str, params: &Params) -> Result<Table, Error> {
        self.query_inner(query, params, None)
    }

    /// Like [`Session::query`], tagging the statement with a caller
    /// trace id — the wire server stamps each request with
    /// `(connection id << 32) | request seq`. The id rides into the
    /// slow-query log, and for updating queries into the WAL seal
    /// (witnessed by `DatabaseMetrics::last_sealed_trace`), so one
    /// client request can be followed from accept to fsync.
    pub fn query_traced(
        &mut self,
        query: &str,
        params: &Params,
        trace_id: u64,
    ) -> Result<Table, Error> {
        self.query_inner(query, params, Some(trace_id))
    }

    fn query_inner(
        &mut self,
        query: &str,
        params: &Params,
        trace: Option<u64>,
    ) -> Result<Table, Error> {
        let (view, pinned) = (self.snapshot(), self.pinned.is_some());
        self.last_commit = None;
        self.inner
            .query_at(&view, pinned, query, params, &mut self.last_commit, trace)
    }

    /// Reads view `name` at this session's snapshot: inside a read
    /// transaction the contents are exactly the view as of the pinned
    /// version (from the published ring, or by cold re-evaluation when
    /// the pin predates retention); outside, the latest published table.
    pub fn view(&self, name: &str) -> Result<Table, Error> {
        self.inner.read_view(name, &self.snapshot())
    }

    /// Like [`Session::view`], also reporting the version the rows are
    /// exact at (the pinned version inside a read transaction, the
    /// latest published version outside) — what a wire front-end stamps
    /// on its `ViewRows` response.
    pub fn view_versioned(&self, name: &str) -> Result<(u64, Table), Error> {
        let at = self.snapshot();
        let version = at.version();
        Ok((version, self.inner.read_view(name, &at)?))
    }

    /// Registers a standing view; see [`crate::Database::create_view`].
    pub fn create_view(&self, name: &str, query: &str) -> Result<u64, Error> {
        self.inner.create_view(name, query)
    }

    /// Unregisters a standing view; see [`crate::Database::drop_view`].
    pub fn drop_view(&self, name: &str) -> Result<(), Error> {
        lock(&self.inner.readers.views).drop_view(name)
    }

    /// Subscribes to view `name`'s change stream; see
    /// [`crate::Database::subscribe`].
    pub fn subscribe(&self, name: &str) -> Result<crate::view::ViewSubscription, Error> {
        lock(&self.inner.readers.views).subscribe(name)
    }

    /// Profiles a read query against this session's snapshot (pinned or
    /// latest); see [`crate::Database::profile`].
    pub fn profile(&self, query: &str, params: &Params) -> Result<ProfileReport, Error> {
        let text = keyword_prefix(query, "PROFILE").unwrap_or(query);
        let view = self.snapshot();
        self.inner.profile_at(&view, text, params)
    }

    /// Evaluates a read query with the reference evaluator against this
    /// session's snapshot (pinned or latest).
    pub fn query_reference(&self, query: &str, params: &Params) -> Result<Table, Error> {
        let view = self.snapshot();
        run_reference_with(view.graph(), query, params, self.inner.cfg.match_config)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.commit();
        if self.inner.metrics.enabled() {
            self.inner.metrics.sessions_active.dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tmpdir;
    use crate::{Database, EngineConfig};

    #[test]
    fn failed_query_keeps_memory_and_disk_aligned() {
        let dir = tmpdir("failed");
        let params = Params::new();
        {
            let mut db = Database::open(&dir).unwrap();
            db.query("CREATE (:A {v: 1}), (:A {v: 2})", &params)
                .unwrap();
            // DELETE without DETACH on a connected node errors after the
            // CREATE clause already ran.
            db.query("CREATE (a:B)-[:X]->(b:B) WITH a DELETE a", &params)
                .unwrap_err();
            let dump = db.graph().canonical_dump();
            db.close().unwrap();
            let db2 = Database::open(&dir).unwrap();
            assert_eq!(
                db2.graph().canonical_dump(),
                dump,
                "partial mutations of a failed query must be durable too"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_read_txn_pins_a_snapshot() {
        let params = Params::new();
        let db = Database::in_memory();
        let mut writer = db.session();
        let mut reader = db.session();
        writer.query("CREATE (:N {v: 1})", &params).unwrap();
        let pinned_at = reader.begin_read();
        assert_eq!(pinned_at, 1);
        writer.query("CREATE (:N {v: 2})", &params).unwrap();
        writer
            .query("MATCH (n:N {v: 1}) SET n.v = 99", &params)
            .unwrap();
        // Repeatable reads at the pinned version.
        let count = |s: &mut Session| {
            let t = s
                .query("MATCH (n:N) RETURN count(*) AS c", &params)
                .unwrap();
            t.cell(0, "c").cloned().unwrap()
        };
        assert_eq!(count(&mut reader), Value::int(1));
        assert_eq!(
            reader
                .query("MATCH (n:N) RETURN n.v AS v", &params)
                .unwrap()
                .cell(0, "v"),
            Some(&Value::int(1)),
            "pinned snapshot predates the SET"
        );
        // Updates are refused inside the read transaction.
        let e = reader.query("CREATE (:Oops)", &params).unwrap_err();
        assert!(
            e.to_string().contains("read transaction"),
            "unexpected error: {e}"
        );
        // Release: the same session now sees the latest version.
        reader.commit();
        assert_eq!(count(&mut reader), Value::int(2));
        assert_eq!(db.version(), 3);
    }

    #[test]
    fn last_commit_version_tracks_write_statements_only() {
        let params = Params::new();
        let db = Database::in_memory();
        let mut s = db.session();
        assert_eq!(s.last_commit_version(), None);
        s.query("CREATE (:N {v: 1})", &params).unwrap();
        assert_eq!(s.last_commit_version(), Some(1));
        s.query("MATCH (n:N) RETURN n.v", &params).unwrap();
        assert_eq!(s.last_commit_version(), None, "reads commit nothing");
        s.query("MATCH (n:Absent) SET n.v = 2", &params).unwrap();
        assert_eq!(
            s.last_commit_version(),
            None,
            "no-op updates commit nothing"
        );
        s.query("CREATE (:N {v: 2})-[:R]->(:N)", &params).unwrap();
        assert_eq!(s.last_commit_version(), Some(2));
        // A mutator that fails before changing anything publishes
        // nothing, in memory as on disk.
        s.query("MATCH (n:N {v: 2}) DELETE n", &params).unwrap_err();
        assert_eq!(
            s.last_commit_version(),
            None,
            "failed no-op commits nothing"
        );
        assert_eq!(db.version(), 2);
    }

    #[test]
    fn concurrent_writers_share_groups_and_all_commit() {
        let params = Params::new();
        let cfg = EngineConfig {
            persistence: None,
            plan_cache_size: 0,
            ..EngineConfig::default()
        };
        let db = Database::open_with(cfg).unwrap();
        const WRITERS: usize = 4;
        const EACH: usize = 25;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let mut session = db.session();
                scope.spawn(move || {
                    for i in 0..EACH {
                        session
                            .query(&format!("CREATE (:W {{w: {w}, i: {i}}})"), &Params::new())
                            .unwrap();
                        assert!(
                            session.last_commit_version().is_some(),
                            "every write commits a version"
                        );
                    }
                });
            }
        });
        let mut check = db.session();
        let t = check
            .query("MATCH (n:W) RETURN count(*) AS c", &params)
            .unwrap();
        assert_eq!(t.cell(0, "c"), Some(&Value::int((WRITERS * EACH) as i64)));
        assert_eq!(
            db.version(),
            (WRITERS * EACH) as u64,
            "the last group's publish covers every member seq"
        );
    }

    #[test]
    fn pinned_session_reads_the_view_at_its_version() {
        let params = Params::new();
        let mut db = Database::in_memory();
        db.query("CREATE (:N {v: 1})", &params).unwrap();
        db.create_view("cnt", "MATCH (n:N) RETURN count(*) AS c")
            .unwrap();
        let mut reader = db.session();
        reader.begin_read();
        db.query("CREATE (:N {v: 2})", &params).unwrap();
        assert_eq!(
            reader.view("cnt").unwrap().cell(0, "c"),
            Some(&Value::int(1)),
            "pinned reader sees the view as of its snapshot"
        );
        reader.commit();
        assert_eq!(
            reader.view("cnt").unwrap().cell(0, "c"),
            Some(&Value::int(2))
        );
    }
}
