//! The `Database` facade: a **transactional, multi-version** property
//! graph — open / session / query / checkpoint / close — over the
//! versioned core of [`cypher_graph::VersionedGraph`] and the durable
//! store of [`cypher_storage`].
//!
//! ## Concurrency model (snapshot isolation, group commit)
//!
//! * Any number of [`Session`]s (cheap handles onto one shared database)
//!   run **read queries concurrently**, each against a frozen
//!   [`GraphView`]. Reader admission is lock-free (a few atomics — see
//!   `cypher_graph::version`), so an in-flight writer never blocks
//!   readers and readers never block the writer.
//! * **Write execution is serialized** by the apply lock: each updating
//!   query executes against a copy-on-write clone of the *apply head*
//!   (the working graph carrying every commit admitted so far, published
//!   or not), and its clone becomes the next apply head. Durability and
//!   visibility are **decoupled from execution** by the group-commit
//!   queue: the finished transaction enqueues its change batch and
//!   candidate graph, and one *leader* drains the queue, sealing every
//!   queued batch in a **single WAL write (+ fsync)** and publishing one
//!   version that covers the whole group. Concurrent writers therefore
//!   amortize the per-commit fsync; a solo writer forms groups of one
//!   and behaves exactly like the classic serial path.
//! * Batch seqs stay **per-transaction**: member `i` of a group sealed
//!   at `first_seq` commits as seq `first_seq + i` and its version id is
//!   `seq + 1`, so transaction id = batch seq = version survives
//!   grouping (intermediate versions of a group are simply never
//!   published — the group's last candidate is, covering them all).
//! * [`EngineConfig::fsync_mode`] picks the durability schedule:
//!   `Os` (seal, no fsync), `Sync` (fsync before publish), `Pipelined`
//!   (a dedicated fsync thread flushes group N through a duplicate file
//!   handle while the leader appends group N+1; publish and commit
//!   acknowledgements happen after the flush). A failed seal or flush
//!   **poisons exactly its group**: the member transactions get the
//!   error, the WAL is rolled back to the last durable group, prior
//!   groups stay durable, and the database turns read-only. The *first*
//!   failure owns that rollback — groups sealed behind it are already
//!   cut by its truncation and just fail their tickets (a rollback
//!   never extends the file).
//! * [`Session::begin_read`] pins the latest version for a multi-query
//!   read transaction: every query until [`Session::commit`] sees that
//!   one frozen state, regardless of concurrent commits.
//!
//! ## Durability lifecycle (unchanged from the storage engine's design)
//!
//! 1. **open** — `cypher_storage::Store::open` recovers the graph from
//!    the latest valid snapshot plus the replayed WAL tail; the result
//!    is published as the initial version (= batches recovered);
//! 2. **query** — one WAL batch per mutating query, sealed inside a
//!    group record; a query that errors midway still commits the
//!    mutations it *did* apply (Cypher has no rollback), atomically, so
//!    memory and disk stay aligned;
//! 3. **checkpoint** — when the WAL outgrows
//!    [`EngineConfig::wal_compact_bytes`] (or on demand), the commit
//!    pipeline is quiesced (queue drained, in-flight fsyncs retired),
//!    the latest version is snapshotted and the WAL truncated;
//! 4. **close** — quiesces the pipeline and fsyncs the WAL (committed
//!    batches are already with the OS, so dropping without closing
//!    survives *process* crashes).

use crate::{run_reference_with, Error, Record, Schema, Table};
use cypher_ast::query::Query;
use cypher_core::error::EvalError;
use cypher_core::Params;
use cypher_engine::{stats_fingerprint, EngineConfig, FsyncMode, PlanMemo, QueryProfile};
use cypher_graph::{Change, GraphView, PropertyGraph, SharedChangeBuffer, Value, VersionedGraph};
use cypher_metrics::{fmt_counter, fmt_gauge, fmt_histogram, Counter, Gauge, Histogram};
use cypher_storage::{RecoveryReport, StorageError, Store};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

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

/// The engine-wide metrics registry: every layer of one database —
/// query dispatch, the commit pipeline, checkpointing, sessions —
/// records into these lock-free instruments (see [`cypher_metrics`]).
/// Recording is gated on [`EngineConfig::metrics_enabled`]
/// (`CYPHER_METRICS`); when disabled every hook is a single branch on a
/// plain bool, so the hot path pays nothing.
///
/// Exposed through [`Database::metrics`] (typed, for tests and embedded
/// monitoring) and [`Database::metrics_snapshot`] (Prometheus-style
/// text, served over the wire protocol's `Metrics` request).
#[derive(Debug)]
pub struct DatabaseMetrics {
    enabled: bool,
    /// Read queries executed (successful or not; `EXPLAIN` excluded,
    /// `PROFILE` included — it executes the query).
    pub queries_read: Counter,
    /// Updating queries executed (successful or not, including updates
    /// refused inside a read transaction).
    pub queries_write: Counter,
    /// Queries that returned an error.
    pub queries_failed: Counter,
    /// Rows returned to clients by successful queries.
    pub rows_returned: Counter,
    /// End-to-end statement latency, microseconds (parse through
    /// commit acknowledgement).
    pub query_latency_us: Histogram,
    /// Queries at or above the [`EngineConfig::slow_query_ms`]
    /// threshold (0 when the slow-query log is disabled).
    pub slow_queries: Counter,
    /// Commit groups sealed by the group-commit leader.
    pub commit_groups: Counter,
    /// Member transactions per sealed group.
    pub commit_group_size: Histogram,
    /// Transactions currently waiting in the group-commit queue.
    pub commit_queue_depth: Gauge,
    /// Wall time of one group seal (WAL write + fsync handoff),
    /// microseconds.
    pub seal_latency_us: Histogram,
    /// Wall time of one successful WAL flush, microseconds (`Sync` and
    /// `Pipelined` fsync modes; `Os` mode never flushes).
    pub fsync_latency_us: Histogram,
    /// Times the database turned read-only after a failed WAL commit
    /// (first failure only — the cascade it causes is not re-counted).
    pub poison_events: Counter,
    /// Explicit checkpoints ([`Database::checkpoint`] and `close`).
    pub checkpoints: Counter,
    /// Checkpoints triggered by the WAL outgrowing
    /// [`EngineConfig::wal_compact_bytes`].
    pub wal_compactions: Counter,
    /// Open [`Session`] handles.
    pub sessions_active: Gauge,
    /// Sessions currently holding a pinned read snapshot.
    pub sessions_pinned: Gauge,
    /// Wall time of one standing-view refresh (delta fold + snapshot),
    /// microseconds, recorded per view per published commit group.
    pub view_refresh_us: Histogram,
    /// Delta rows folded into view states (retractions + insertions).
    pub view_delta_rows: Counter,
    /// View refreshes (or reads) that fell back to re-running the whole
    /// query: `Full`-mode views pay one per commit; a delta-maintained
    /// view counts one only when its state diverged, and a pinned reader
    /// counts one when its snapshot predates the published ring.
    pub view_full_recomputes: Counter,
    /// `trace_id + 1` of the most recent commit whose group was sealed
    /// and published carrying a trace id; 0 = none yet. The end-to-end
    /// witness that a request's trace id survives from server accept to
    /// WAL seal.
    last_sealed_trace: AtomicU64,
    /// Live read pins: `(token, pinned-at)`, for the oldest-pin-age
    /// gauge (a long-forgotten pin is the classic version-GC leak).
    pins: Mutex<Vec<(u64, Instant)>>,
    next_pin: AtomicU64,
}

impl DatabaseMetrics {
    fn new(enabled: bool) -> DatabaseMetrics {
        DatabaseMetrics {
            enabled,
            queries_read: Counter::new(),
            queries_write: Counter::new(),
            queries_failed: Counter::new(),
            rows_returned: Counter::new(),
            query_latency_us: Histogram::new(),
            slow_queries: Counter::new(),
            commit_groups: Counter::new(),
            commit_group_size: Histogram::new(),
            commit_queue_depth: Gauge::new(),
            seal_latency_us: Histogram::new(),
            fsync_latency_us: Histogram::new(),
            poison_events: Counter::new(),
            checkpoints: Counter::new(),
            wal_compactions: Counter::new(),
            sessions_active: Gauge::new(),
            sessions_pinned: Gauge::new(),
            view_refresh_us: Histogram::new(),
            view_delta_rows: Counter::new(),
            view_full_recomputes: Counter::new(),
            last_sealed_trace: AtomicU64::new(0),
            pins: Mutex::new(Vec::new()),
            next_pin: AtomicU64::new(0),
        }
    }

    /// Whether recording is on ([`EngineConfig::metrics_enabled`]).
    /// When off, every instrument stays at zero.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The trace id of the most recent published commit that carried
    /// one (threaded from the server's accept loop through
    /// [`Session::query_traced`] into the WAL seal).
    pub fn last_sealed_trace(&self) -> Option<u64> {
        match self.last_sealed_trace.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }

    fn note_sealed_trace(&self, trace: Option<u64>) {
        if let Some(t) = trace {
            // Saturate rather than wrap: id u64::MAX must not read back
            // as "none" (it clamps to u64::MAX - 1 instead — the one
            // unrepresentable id in the zero-means-none encoding).
            self.last_sealed_trace
                .store(t.saturating_add(1), Ordering::Relaxed);
        }
    }

    fn register_pin(&self) -> u64 {
        let id = self.next_pin.fetch_add(1, Ordering::Relaxed);
        if self.enabled {
            self.sessions_pinned.inc();
            self.pins
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((id, Instant::now()));
        }
        id
    }

    fn release_pin(&self, id: u64) {
        if self.enabled {
            let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(i) = pins.iter().position(|(p, _)| *p == id) {
                pins.remove(i);
                self.sessions_pinned.dec();
            }
        }
    }

    /// Age of the oldest live read pin, microseconds (0 when nothing is
    /// pinned or metrics are disabled).
    pub fn oldest_pin_age_us(&self) -> u64 {
        self.pins
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(_, at)| at.elapsed().as_micros() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Appends this registry's instruments to a Prometheus-style text
    /// page.
    pub fn render_into(&self, out: &mut String) {
        fmt_counter(
            out,
            "cypher_queries_read_total",
            "read queries executed",
            self.queries_read.get(),
        );
        fmt_counter(
            out,
            "cypher_queries_write_total",
            "updating queries executed",
            self.queries_write.get(),
        );
        fmt_counter(
            out,
            "cypher_queries_failed_total",
            "queries that returned an error",
            self.queries_failed.get(),
        );
        fmt_counter(
            out,
            "cypher_rows_returned_total",
            "rows returned by successful queries",
            self.rows_returned.get(),
        );
        fmt_histogram(
            out,
            "cypher_query_latency_us",
            "end-to-end statement latency (microseconds)",
            &self.query_latency_us.snapshot(),
        );
        fmt_counter(
            out,
            "cypher_slow_queries_total",
            "queries at or above the slow-query threshold",
            self.slow_queries.get(),
        );
        fmt_counter(
            out,
            "cypher_commit_groups_total",
            "commit groups sealed",
            self.commit_groups.get(),
        );
        fmt_histogram(
            out,
            "cypher_commit_group_size",
            "member transactions per sealed group",
            &self.commit_group_size.snapshot(),
        );
        fmt_gauge(
            out,
            "cypher_commit_queue_depth",
            "transactions waiting in the group-commit queue",
            self.commit_queue_depth.get(),
        );
        fmt_histogram(
            out,
            "cypher_seal_latency_us",
            "group seal wall time (microseconds)",
            &self.seal_latency_us.snapshot(),
        );
        fmt_histogram(
            out,
            "cypher_fsync_latency_us",
            "WAL flush wall time (microseconds)",
            &self.fsync_latency_us.snapshot(),
        );
        fmt_counter(
            out,
            "cypher_poison_events_total",
            "times the database turned read-only after a failed WAL commit",
            self.poison_events.get(),
        );
        fmt_counter(
            out,
            "cypher_checkpoints_total",
            "explicit checkpoints",
            self.checkpoints.get(),
        );
        fmt_counter(
            out,
            "cypher_wal_compactions_total",
            "checkpoints triggered by WAL growth",
            self.wal_compactions.get(),
        );
        fmt_gauge(
            out,
            "cypher_sessions_active",
            "open session handles",
            self.sessions_active.get(),
        );
        fmt_gauge(
            out,
            "cypher_sessions_pinned",
            "sessions holding a pinned read snapshot",
            self.sessions_pinned.get(),
        );
        fmt_gauge(
            out,
            "cypher_oldest_pin_age_us",
            "age of the oldest live read pin (microseconds)",
            self.oldest_pin_age_us() as i64,
        );
        fmt_histogram(
            out,
            "cypher_view_refresh_us",
            "standing-view refresh wall time per commit group (microseconds)",
            &self.view_refresh_us.snapshot(),
        );
        fmt_counter(
            out,
            "cypher_view_delta_rows_total",
            "delta rows folded into standing-view states",
            self.view_delta_rows.get(),
        );
        fmt_counter(
            out,
            "cypher_view_full_recomputes_total",
            "standing-view refreshes or reads that re-ran the whole query",
            self.view_full_recomputes.get(),
        );
    }
}

/// One page of the database's metrics, with the headline identity
/// fields broken out so the wire protocol can carry them as typed
/// values next to the text exposition.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Milliseconds since this database handle was opened.
    pub uptime_ms: u64,
    /// The latest published version id.
    pub version: u64,
    /// Snapshot generation of the store (0 for in-memory databases).
    pub wal_generation: u64,
    /// Prometheus-style text exposition of every instrument: the
    /// database registry, executor counters, plan-cache stats, store
    /// mirror and recovery report.
    pub text: String,
}

/// One structured slow-query record, emitted when a statement's latency
/// reaches [`EngineConfig::slow_query_ms`]. `Display` renders the
/// machine-parseable single-line `key=value` form the default stderr
/// sink logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Stable hash of the query text (the text itself may hold
    /// sensitive literals; the hash is enough to group repeat
    /// offenders).
    pub query_hash: u64,
    /// End-to-end statement latency, microseconds.
    pub duration_us: u64,
    /// Rows returned; `None` when the statement failed.
    pub rows: Option<u64>,
    /// Whether the parse+plan cache answered without planning.
    pub plan_cache_hit: bool,
    /// The version the statement committed at, if it committed one.
    pub committed_version: Option<u64>,
    /// The caller-supplied trace id ([`Session::query_traced`]), if any.
    pub trace_id: Option<u64>,
    /// Whether the statement was an updating query.
    pub write: bool,
}

impl fmt::Display for SlowQueryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slow_query query_hash={:016x} duration_us={} rows={} cache_hit={} \
             committed_version={} trace_id={} write={}",
            self.query_hash,
            self.duration_us,
            self.rows
                .map_or_else(|| "err".to_string(), |r| r.to_string()),
            self.plan_cache_hit,
            self.committed_version
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            self.trace_id
                .map_or_else(|| "-".to_string(), |t| t.to_string()),
            self.write,
        )
    }
}

/// Where slow-query records go. The default sink writes the `Display`
/// line to stderr; embedders swap in their own collector with
/// [`Database::set_slow_query_sink`]. Called on the query's own thread
/// (only for statements past the threshold), so implementations should
/// be quick or hand off.
pub trait SlowQuerySink: Send + Sync {
    /// Accepts one slow-query record.
    fn record(&self, entry: &SlowQueryEntry);
}

/// The default sink: one machine-parseable line per slow query on
/// stderr.
struct StderrSlowQueryLog;

impl SlowQuerySink for StderrSlowQueryLog {
    fn record(&self, entry: &SlowQueryEntry) {
        eprintln!("{entry}");
    }
}

/// The result of profiling one query ([`Database::profile`]): the query
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
fn keyword_prefix<'t>(text: &'t str, kw: &str) -> Option<&'t str> {
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

/// Lock-free mirror of the store's observability counters, refreshed
/// under the store lock after every seal/checkpoint. Monitoring getters
/// (`batches_committed`, `wal_bytes`, `generation`) read these instead
/// of taking a lock the commit pipeline may hold for a while.
struct StoreMetrics {
    durable: bool,
    batches: AtomicU64,
    wal_bytes: AtomicU64,
    generation: AtomicU64,
}

impl StoreMetrics {
    fn of(store: &Option<Store>) -> StoreMetrics {
        let m = StoreMetrics {
            durable: store.is_some(),
            batches: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        };
        if let Some(s) = store {
            m.refresh(s);
        }
        m
    }

    fn refresh(&self, store: &Store) {
        self.batches
            .store(store.batches_committed(), Ordering::Relaxed);
        self.wal_bytes.store(store.wal_bytes(), Ordering::Relaxed);
        self.generation.store(store.generation(), Ordering::Relaxed);
    }

    fn read(&self, counter: &AtomicU64) -> Option<u64> {
        self.durable.then(|| counter.load(Ordering::Relaxed))
    }
}

/// A finished-but-unsealed write transaction waiting in the group-commit
/// queue: its batch seq, the change records to seal, the candidate graph
/// that becomes the published state once its group is durable, and the
/// ticket its writer blocks on.
struct PendingCommit {
    seq: u64,
    changes: Vec<Change>,
    candidate: Arc<PropertyGraph>,
    ticket: Arc<Ticket>,
    /// The caller's trace id ([`Session::query_traced`]), carried to
    /// the seal so the metrics registry can witness it end to end.
    trace: Option<u64>,
}

/// The commit a follower blocks on while the group leader (or the
/// pipelined fsync thread) seals and publishes its group: completed
/// exactly once with the member's version id or the group's error.
#[derive(Default)]
struct Ticket {
    state: Mutex<Option<Result<u64, Error>>>,
    done: Condvar,
}

impl Ticket {
    fn complete(&self, r: Result<u64, Error>) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(s.is_none(), "tickets complete exactly once");
        *s = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<u64, Error> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = s.take() {
                return r;
            }
            s = self.done.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Execution-side state of the commit pipeline, everything touched under
/// the apply lock: the apply head (the working graph carrying every
/// admitted commit, sealed or not), the next batch seq, the group-commit
/// queue and the leader flag.
struct ApplyState {
    /// The apply head: the state every admitted commit has been applied
    /// to, whether or not its group has been sealed/published yet. The
    /// next write transaction clones this (copy-on-write) and executes
    /// against the clone.
    working: Arc<PropertyGraph>,
    /// Seq the next admitted batch receives (= the apply head's version
    /// id; the published version trails this while groups are in
    /// flight).
    next_seq: u64,
    /// Admitted commits not yet handed to a seal. Invariant: non-empty
    /// only while `leader_running` (the writer that enqueues into an
    /// idle queue becomes the leader in the same critical section).
    queue: Vec<PendingCommit>,
    /// Exactly one leader drains the queue at a time.
    leader_running: bool,
    /// Change-record collector wired into each write transaction's
    /// clone while it executes (only ever one executor: the apply lock).
    buffer: SharedChangeBuffer,
}

/// A sealed group handed to the pipelined fsync thread: flush `file`,
/// then publish the group's last candidate and complete the tickets —
/// or, on a failed flush, poison the database, roll the WAL back to
/// `wal_len_before` (first failure only — see
/// [`CommitShared::set_poison`]) and fail exactly this group's tickets.
struct FsyncJob {
    file: std::fs::File,
    wal_len_before: u64,
    group: Vec<PendingCommit>,
}

/// Everything the commit pipeline shares between sessions, the group
/// leader and the pipelined fsync thread. Lock hierarchy (outer →
/// inner): `apply` → `store` → `inflight` → `poison`; `views` is a leaf
/// lock (taken by the publisher with no other lock held, and under
/// `apply` by view registration and the write path's has-views probe);
/// the metrics mirror and the fail-injection counter are atomics.
struct CommitShared {
    versioned: VersionedGraph,
    apply: Mutex<ApplyState>,
    /// Signalled when the leader retires (queue drained); quiesce waits
    /// here.
    leader_done: Condvar,
    store: Mutex<Option<Store>>,
    /// First failure wins; set before any rollback I/O so a racing seal
    /// leader aborts instead of appending past the truncation point.
    poison: Mutex<Option<String>>,
    /// Groups handed to the fsync thread and not yet published/failed.
    inflight: Mutex<usize>,
    /// Signalled when `inflight` drops; quiesce waits here.
    drained: Condvar,
    /// Test double: the next `n` pipelined flushes fail without touching
    /// the file (the `Sync`-mode double lives in the store itself).
    pipeline_fail_injections: AtomicU32,
    metrics: StoreMetrics,
    /// The engine-wide metrics registry; lives here so the commit
    /// pipeline (including the detached fsync thread) can record into
    /// it.
    db_metrics: Arc<DatabaseMetrics>,
    /// The standing-query registry (see [`crate::view`]); refreshed by
    /// whichever thread publishes a commit group, *before* the data
    /// version becomes visible.
    views: Mutex<crate::view::ViewRegistry>,
}

impl CommitShared {
    fn lock_apply(&self) -> MutexGuard<'_, ApplyState> {
        self.apply.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_store(&self) -> MutexGuard<'_, Option<Store>> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn poison_msg(&self) -> Option<String> {
        self.poison
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// First poison wins: the original failure is the one later writers
    /// should see, not whatever cascade it caused. Returns whether this
    /// call won — the winner, and only the winner, owns the WAL
    /// rollback: its truncation restores the last durable boundary, and
    /// any later group's rollback target lies *past* that boundary, so
    /// truncating to it would zero-extend the file into garbage.
    fn set_poison(&self, msg: String) -> bool {
        let mut p = self.poison.lock().unwrap_or_else(|e| e.into_inner());
        if p.is_none() {
            *p = Some(msg);
            if self.db_metrics.enabled {
                self.db_metrics.poison_events.inc();
            }
            true
        } else {
            false
        }
    }

    /// Publishes a sealed-and-durable group: one version covering every
    /// member (the last candidate at `last_seq + 1`), then each member's
    /// ticket completes with its own version id `seq + 1`.
    ///
    /// Standing views refresh here, **before** the version publishes:
    /// the publishers are serialized (the seal leader in `Os`/`Sync`
    /// mode, the single fsync thread in `Pipelined` mode), so each
    /// refresh folds exactly one group's delta from the previously
    /// published graph to this group's candidate, and a reader that sees
    /// the new version sees the matching view contents.
    fn publish_group(&self, group: &[PendingCommit]) {
        let last = group.last().expect("groups are non-empty");
        {
            let mut views = self.views.lock().unwrap_or_else(|e| e.into_inner());
            if !views.is_empty() {
                let old = self.versioned.latest();
                let changes: Vec<&[Change]> = group.iter().map(|p| p.changes.as_slice()).collect();
                views.refresh_all(
                    &old,
                    &last.candidate,
                    last.seq + 1,
                    &changes,
                    &self.db_metrics,
                );
            }
        }
        self.versioned
            .publish_view(Arc::clone(&last.candidate), last.seq + 1);
        if self.db_metrics.enabled {
            for p in group {
                self.db_metrics.note_sealed_trace(p.trace);
            }
        }
        for p in group {
            p.ticket.complete(Ok(p.seq + 1));
        }
    }

    fn fail_group(&self, group: &[PendingCommit], err: &Error) {
        for p in group {
            p.ticket.complete(Err(err.clone()));
        }
    }

    /// Blocks until the commit pipeline is idle — queue drained, no
    /// leader, no in-flight fsyncs — and returns the apply guard, which
    /// the caller holds to keep new writers out while it operates on the
    /// store (checkpoint, close, compaction). On return the latest
    /// published version is exactly the state of every sealed batch.
    fn quiesce(&self) -> MutexGuard<'_, ApplyState> {
        let mut apply = self.lock_apply();
        while apply.leader_running || !apply.queue.is_empty() {
            apply = self
                .leader_done
                .wait(apply)
                .unwrap_or_else(|e| e.into_inner());
        }
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        while *inflight > 0 {
            inflight = self
                .drained
                .wait(inflight)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(inflight);
        apply
    }
}

/// The pipelined fsync scheduler: flushes sealed groups in seal order
/// through duplicate file handles, overlapping the flush of group N with
/// the leader's append of group N+1. Publish (and the members' commit
/// acknowledgements) happen here, *after* the flush — so in `Pipelined`
/// mode no reader can pin a version whose group isn't on stable storage,
/// the same guarantee `Sync` gives, at pipeline depth.
/// The worker holds only a `Weak` so a dropped (not closed) `Database`
/// releases its store — and with it the data directory's lock —
/// synchronously, instead of waiting for this thread to notice the
/// disconnected channel. A job can only be in flight while its writer
/// blocks on the ticket (holding the database alive), so the upgrade
/// cannot fail under a pending job.
fn fsync_worker(shared: std::sync::Weak<CommitShared>, rx: Receiver<FsyncJob>) {
    while let Ok(job) = rx.recv() {
        let Some(shared) = shared.upgrade() else {
            return;
        };
        let injected = shared
            .pipeline_fail_injections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        let flushed: Result<(), Error> = if let Some(msg) = shared.poison_msg() {
            // An earlier group already failed: this group was sealed
            // after the failure point and its bytes are gone (or going)
            // with the rollback — it must not publish.
            Err(Error::Unavailable(msg))
        } else if injected {
            Err(StorageError::Io(std::io::Error::other("injected fsync failure")).into())
        } else {
            let flush_started = Instant::now();
            let r = job.file.sync_all().map_err(|e| StorageError::Io(e).into());
            if r.is_ok() && shared.db_metrics.enabled {
                shared
                    .db_metrics
                    .fsync_latency_us
                    .record(flush_started.elapsed().as_micros() as u64);
            }
            r
        };
        match flushed {
            Ok(()) => shared.publish_group(&job.group),
            Err(e) => {
                // Poison FIRST, then roll back under the store lock: a
                // seal leader already holding the store lock gets its
                // append cut by our truncation; one that hasn't acquired
                // it yet sees the poison and aborts. Either way disk
                // never keeps a group that memory refused.
                //
                // Only the poison *winner* rolls back. With two groups
                // in flight (the pipelined steady state), the first
                // failure truncates to its own `wal_len_before` — which
                // already cuts every later group's bytes. A later
                // group's job lands here via the poison check above; its
                // rollback target is past the restored boundary, and
                // truncating to it would zero-extend the log past the
                // durable prefix, turning a clean rollback into a
                // corrupt, unopenable file.
                let won = shared.set_poison(format!(
                    "database is read-only after a failed WAL commit: {e}"
                ));
                if won {
                    let mut store = shared.lock_store();
                    if let Some(store) = &mut *store {
                        let _ = store.truncate_wal(job.wal_len_before);
                        shared.metrics.refresh(store);
                    }
                }
                shared.fail_group(&job.group, &e);
            }
        }
        let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *inflight -= 1;
        shared.drained.notify_all();
    }
}

/// Everything shared between a [`Database`] and its [`Session`]s.
struct DbInner {
    shared: Arc<CommitShared>,
    cfg: EngineConfig,
    recovery: RecoveryReport,
    cache: Mutex<PlanCache>,
    /// `(version, statistics fingerprint)` memo for recent versions: the
    /// fingerprint is recomputed only when a session reads a version it
    /// hasn't been computed for — read-only traffic on a quiet graph
    /// costs one lookup.
    stats_fp: Mutex<Vec<(u64, u64)>>,
    /// Live only in `Pipelined` mode on a durable database. Dropping the
    /// sender (close, or the last handle going away) retires the fsync
    /// thread.
    fsync_tx: Mutex<Option<Sender<FsyncJob>>>,
    /// The pipelined fsync thread itself, joined when the last handle
    /// drops: mid-job it holds the store alive (and with it the data
    /// directory's single-writer lock), so dropping the database must
    /// not return until the lock is actually free — a reopen right
    /// after the drop would otherwise race the release and see
    /// `Locked`.
    fsync_join: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// When this handle was opened (the metrics page's uptime).
    opened: Instant,
    /// Where slow-query records go; locked only on the slow path.
    slow_sink: Mutex<Arc<dyn SlowQuerySink>>,
}

impl Drop for DbInner {
    fn drop(&mut self) {
        // Disconnect the pipelined fsync thread and wait for it. The
        // worker may hold the store — and with it the data directory's
        // single-writer lock — mid-job; without the join, a reopen of
        // the same directory immediately after this drop races the
        // worker's exit and fails with `Locked`. The worker only ever
        // holds a `Weak` on `CommitShared` and nothing on `DbInner`,
        // so joining from here cannot deadlock.
        *self.fsync_tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        if let Some(handle) = self
            .fsync_join
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl DbInner {
    /// Resolves `text` through the shared plan cache: the cache `Mutex`
    /// is held only for lookup/insert — a cache-miss **parse runs
    /// unlocked**, so one session parsing a large query never serializes
    /// other sessions' query startup. `count` as in
    /// [`PlanCache::lookup`].
    fn resolve_cached(
        &self,
        text: &str,
        capacity: usize,
        stats_fp: u64,
        count: bool,
    ) -> Result<(Arc<Query>, Arc<PlanMemo>, bool), Error> {
        let cfg_fp = self.cfg.plan_fingerprint();
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lookup(text, cfg_fp, stats_fp, count)
        {
            return Ok(hit);
        }
        let parsed = Arc::new(crate::parse_query(text)?);
        let mut c = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        // A racing session may have inserted while we parsed: adopt its
        // entry. Counted under the caller's flag — an absent-entry
        // lookup increments nothing, so this query's outcome has not
        // been accounted yet and the adoption *is* its cache hit.
        if let Some(hit) = c.lookup(text, cfg_fp, stats_fp, count) {
            return Ok(hit);
        }
        let (q, memo) = c.insert(text, parsed, capacity, cfg_fp, stats_fp);
        Ok((q, memo, false))
    }

    /// The statistics fingerprint of `view`, memoized by version.
    fn stats_fp_for(&self, view: &GraphView) -> u64 {
        let mut memo = self.stats_fp.lock().unwrap_or_else(|e| e.into_inner());
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

    /// Executes one query: reads run lock-free against `view`; updating
    /// queries enter the commit pipeline (refused when `pinned` — a read
    /// transaction never mutates). `committed` reports the version id
    /// the statement committed at, if it committed one. An `EXPLAIN ` /
    /// `PROFILE ` prefix dispatches to plan rendering / instrumented
    /// execution instead (neither token starts a valid Cypher
    /// statement). `trace` is the caller's request id, threaded into
    /// the slow-query log and the WAL seal.
    fn query_at(
        self: &Arc<Self>,
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
                let text = self
                    .shared
                    .views
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .explain(name.trim())?;
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
        let capacity = self.cfg.plan_cache_size;
        let resolved = if capacity == 0 {
            crate::parse_query(text)
                .map(|q| (Arc::new(q), None, false))
                .map_err(Error::from)
        } else {
            let stats_fp = self.stats_fp_for(view);
            self.resolve_cached(text, capacity, stats_fp, true)
                .map(|(q, memo, hit)| (q, Some(memo), hit))
        };
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
    fn profile_at(
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
            if c.operators.is_empty() {
                // Clause answered by the reference matcher (node
                // isomorphism): no operator pipeline to report.
                operators.push(Record::new(vec![
                    Value::str(c.label.as_str()),
                    Value::str("ReferenceMatcher"),
                    Value::float(0.0),
                    Value::int(0),
                    Value::int(0),
                    Value::int(0),
                ]));
                continue;
            }
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

    /// Registers and materializes a standing view (see [`crate::view`]).
    /// The commit pipeline is quiesced first, so the view materializes
    /// against a fully published state and no commit group can publish
    /// mid-registration.
    fn create_view(&self, name: &str, query: &str) -> Result<u64, Error> {
        let shared = &self.shared;
        let _apply = shared.quiesce();
        let latest = shared.versioned.latest();
        shared
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .create(name, query, &latest)
    }

    /// Unregisters a standing view; its subscriptions disconnect.
    fn drop_view(&self, name: &str) -> Result<(), Error> {
        self.shared
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drop_view(name)
    }

    /// Reads a view's contents as of `at`: the published table when the
    /// snapshot is within the retained ring, a cold re-evaluation of the
    /// view query against `at` otherwise (counted as a full recompute).
    fn read_view(&self, name: &str, at: &GraphView) -> Result<Table, Error> {
        let (published, query) = {
            let views = self.shared.views.lock().unwrap_or_else(|e| e.into_inner());
            (views.read_at(name, at.version())?, views.query_of(name)?)
        };
        if let Some(t) = published {
            return Ok((*t).clone());
        }
        // The pin predates the retained publications: re-evaluate at the
        // pinned snapshot — same contents, full query cost.
        if self.shared.db_metrics.enabled {
            self.shared.db_metrics.view_full_recomputes.inc();
        }
        Ok(cypher_engine::execute_read_cached(
            at,
            &query,
            &Params::new(),
            &self.cfg,
            None,
        )?)
    }

    /// Opens a change-stream subscription on a view.
    fn subscribe(&self, name: &str) -> Result<crate::view::ViewSubscription, Error> {
        self.shared
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .subscribe(name)
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
        let m = &self.shared.db_metrics;
        if m.enabled {
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
        if m.enabled {
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
        let sink = Arc::clone(&*self.slow_sink.lock().unwrap_or_else(|e| e.into_inner()));
        sink.record(&entry);
    }

    /// Executes an updating query as one transaction: private
    /// copy-on-write clone of the apply head → execute → drain the
    /// change records → enqueue into the group-commit queue → the group
    /// leader seals the queued batches in one atomic WAL write → the new
    /// version publishes once the group is durable (per
    /// [`EngineConfig::fsync_mode`]).
    fn write_query(
        &self,
        text: &str,
        q: &Arc<Query>,
        params: &Params,
        committed: &mut Option<u64>,
        trace: Option<u64>,
    ) -> Result<Table, Error> {
        let shared = &self.shared;
        let mut apply = shared.lock_apply();
        if let Some(msg) = shared.poison_msg() {
            return Err(Error::Unavailable(msg));
        }
        // Resolve the plan memo against the statistics this transaction
        // will *actually* execute under — the apply head, frozen for the
        // duration (we hold the apply lock). The caller's pre-lock
        // resolution may have been computed against an older version;
        // caching plans chosen under these statistics into that older
        // fingerprint's slot would poison it for sessions genuinely
        // pinned there. Quiet: this query's cache outcome was already
        // counted.
        let capacity = self.cfg.plan_cache_size;
        let memo = if capacity == 0 {
            None
        } else {
            let base = GraphView::new(Arc::clone(&apply.working), apply.next_seq);
            let fp = self.stats_fp_for(&base);
            Some(self.resolve_cached(text, capacity, fp, false)?.1)
        };
        let memo = memo.as_deref();
        let durable = shared.metrics.durable;
        // Change records are collected for the WAL batch (durable
        // databases) and for standing-view delta folds — an in-memory
        // database installs the sink only while views are registered
        // (view creation quiesces the pipeline, so the flag cannot flip
        // under an admitted transaction).
        let track_changes = durable
            || !shared
                .views
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
        let mut graph = (*apply.working).clone();
        if track_changes {
            // Discard anything a previous transaction left behind: a
            // query that *panicked* mid-execution aborted its clone but
            // could not drain the records it had already emitted —
            // sealing them into this batch would write mutations to disk
            // that no published version ever contained.
            let _stale = apply.buffer.drain();
            graph.set_change_sink(Box::new(apply.buffer.clone()));
        }
        // Without views, in-memory databases skip the sink entirely (no
        // records to seal); the mutation counter is their
        // did-anything-mutate detector.
        let version_before = apply.working.version();
        let result = cypher_engine::execute_cached(&mut graph, q, params, &self.cfg, memo)
            .map_err(Error::from);
        // Even an errored query commits (and seals) the mutations it
        // did apply before failing — Cypher has no rollback, so the
        // already-executed clauses are real and must be durable; they
        // become visible to readers atomically like any other batch.
        let changes = if track_changes {
            apply.buffer.drain()
        } else {
            Vec::new()
        };
        graph.take_change_sink();
        let mutated = if track_changes {
            !changes.is_empty()
        } else {
            // No mutator ran (e.g. a SET whose MATCH bound nothing):
            // nothing to publish. A *failed* mutation attempt bumps the
            // counter without changing state; publishing that
            // content-identical version is harmless.
            graph.version() != version_before
        };
        if !mutated {
            return result;
        }
        // Admit the commit: the clone becomes the new apply head (the
        // next writer executes on top of it, sealed or not) and joins
        // the group-commit queue. If the queue was idle, *this* writer
        // is the leader and drains it after releasing the apply lock.
        let candidate = Arc::new(graph);
        let seq = apply.next_seq;
        apply.next_seq += 1;
        apply.working = Arc::clone(&candidate);
        let ticket = Arc::new(Ticket::default());
        apply.queue.push(PendingCommit {
            seq,
            changes,
            candidate,
            ticket: Arc::clone(&ticket),
            trace,
        });
        if shared.db_metrics.enabled {
            shared
                .db_metrics
                .commit_queue_depth
                .set(apply.queue.len() as i64);
        }
        let leader = !apply.leader_running;
        if leader {
            apply.leader_running = true;
        }
        drop(apply);
        if leader {
            self.run_seal_leader();
        }
        let version = ticket.wait()?;
        *committed = Some(version);
        // Compaction trigger: quiesce the pipeline and checkpoint. Any
        // error is this writer's to report (its own commit is already
        // sealed and published).
        if let Some(bytes) = shared.metrics.read(&shared.metrics.wal_bytes) {
            if bytes > self.cfg.wal_compact_bytes {
                let _apply = shared.quiesce();
                let latest = shared.versioned.latest();
                let mut store = shared.lock_store();
                if let Some(store) = &mut *store {
                    // Re-check under the lock: a racing writer may have
                    // compacted already.
                    if store.wal_bytes() > self.cfg.wal_compact_bytes {
                        let ck = store.checkpoint(latest.graph());
                        shared.metrics.refresh(store);
                        ck?;
                        if shared.db_metrics.enabled {
                            shared.db_metrics.wal_compactions.inc();
                        }
                    }
                }
            }
        }
        result
    }

    /// The group-commit leader loop: drain the queue, seal the drained
    /// batches as one group, repeat until the queue is empty, retire.
    /// With [`EngineConfig::group_commit`] off every seal carries
    /// exactly one batch — the serial baseline the `e24_group_commit`
    /// bench compares against.
    fn run_seal_leader(&self) {
        let shared = &self.shared;
        loop {
            let mut apply = shared.lock_apply();
            if apply.queue.is_empty() {
                apply.leader_running = false;
                shared.leader_done.notify_all();
                return;
            }
            let group = if self.cfg.group_commit {
                std::mem::take(&mut apply.queue)
            } else {
                vec![apply.queue.remove(0)]
            };
            let m = &shared.db_metrics;
            if m.enabled {
                m.commit_groups.inc();
                m.commit_group_size.record(group.len() as u64);
                m.commit_queue_depth.set(apply.queue.len() as i64);
            }
            drop(apply);
            let seal_started = Instant::now();
            self.seal_group(group);
            if m.enabled {
                m.seal_latency_us
                    .record(seal_started.elapsed().as_micros() as u64);
            }
        }
    }

    /// Seals one group: a single contiguous WAL write covering every
    /// member batch plus the group record, then — per fsync mode —
    /// publish immediately (`Os`), fsync-then-publish (`Sync`), or hand
    /// off to the fsync thread (`Pipelined`). A failure poisons the
    /// database and fails exactly this group's tickets; the WAL is
    /// rolled back so prior groups stay durable and disk never exceeds
    /// memory.
    fn seal_group(&self, group: Vec<PendingCommit>) {
        let shared = &self.shared;
        let mut store_guard = shared.lock_store();
        // Re-check poison *under the store lock*: the pipelined fsync
        // thread sets poison before it truncates, so either we see it
        // here and abort, or our append lands first and the truncation
        // cuts it (see `fsync_worker`).
        if let Some(msg) = shared.poison_msg() {
            drop(store_guard);
            shared.fail_group(&group, &Error::Unavailable(msg));
            return;
        }
        let Some(store) = &mut *store_guard else {
            // In-memory database: admission is durability; publish now.
            drop(store_guard);
            shared.publish_group(&group);
            return;
        };
        let batches: Vec<&[Change]> = group.iter().map(|p| p.changes.as_slice()).collect();
        let receipt = match store.commit_group(&batches) {
            Ok(r) => r,
            Err(e) => {
                // The members' mutations cannot be made durable; leaving
                // their versions unpublished keeps readers (and future
                // recovery) on the last consistent state. The database
                // stops accepting writes: retrying against a store that
                // already failed a seal risks interleaving half-sealed
                // groups.
                shared.set_poison(format!(
                    "database is read-only after a failed WAL commit: {e}"
                ));
                let err = Error::from(e);
                drop(store_guard);
                shared.fail_group(&group, &err);
                return;
            }
        };
        debug_assert_eq!(receipt.first_seq, group[0].seq, "queue seqs match the WAL");
        match self.cfg.fsync_mode {
            FsyncMode::Os => {
                shared.metrics.refresh(store);
                drop(store_guard);
                shared.publish_group(&group);
            }
            FsyncMode::Sync => {
                let flush_started = Instant::now();
                let flushed = store.sync();
                if flushed.is_ok() && shared.db_metrics.enabled {
                    shared
                        .db_metrics
                        .fsync_latency_us
                        .record(flush_started.elapsed().as_micros() as u64);
                }
                match flushed {
                    Ok(()) => {
                        shared.metrics.refresh(store);
                        drop(store_guard);
                        shared.publish_group(&group);
                    }
                    Err(e) => {
                        // Roll the whole group back: after a failed fsync its
                        // bytes may or may not be stable, so cutting them is
                        // the only way disk and (unpublished) memory agree.
                        // Rollback belongs to the poison winner alone (see
                        // `set_poison`); a loser's bytes are cut by the
                        // winner's own truncation.
                        if shared.set_poison(format!(
                            "database is read-only after a failed WAL commit: {e}"
                        )) {
                            let _ = store.truncate_wal(receipt.wal_len_before);
                            shared.metrics.refresh(store);
                        }
                        let err = Error::from(e);
                        drop(store_guard);
                        shared.fail_group(&group, &err);
                    }
                }
            }
            FsyncMode::Pipelined => {
                let file = match store.sync_handle() {
                    Ok(f) => f,
                    Err(e) => {
                        // As above: the poison winner owns the rollback.
                        // Losing here means the fsync thread failed an
                        // earlier group while we held the store lock —
                        // its truncation (queued behind this lock) cuts
                        // our group's bytes along with its own.
                        if shared.set_poison(format!(
                            "database is read-only after a failed WAL commit: {e}"
                        )) {
                            let _ = store.truncate_wal(receipt.wal_len_before);
                            shared.metrics.refresh(store);
                        }
                        let err = Error::from(e);
                        drop(store_guard);
                        shared.fail_group(&group, &err);
                        return;
                    }
                };
                // Count the group in flight before the leader can retire
                // — quiesce must not observe an idle queue while a flush
                // it cannot see is pending.
                *shared.inflight.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                shared.metrics.refresh(store);
                drop(store_guard);
                let job = FsyncJob {
                    file,
                    wal_len_before: receipt.wal_len_before,
                    group,
                };
                let sent = {
                    let tx = self.fsync_tx.lock().unwrap_or_else(|e| e.into_inner());
                    match &*tx {
                        Some(tx) => tx.send(job).map_err(|e| e.0),
                        None => Err(job),
                    }
                };
                if let Err(job) = sent {
                    // The fsync thread is gone (close raced us, or it
                    // died): the group cannot be acknowledged.
                    shared.set_poison(
                        "database is read-only after a failed WAL commit: \
                         fsync pipeline unavailable"
                            .to_string(),
                    );
                    let msg = shared.poison_msg().expect("poison was just set");
                    shared.fail_group(&job.group, &Error::Unavailable(msg));
                    let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
                    *inflight -= 1;
                    shared.drained.notify_all();
                }
            }
        }
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
    inner: Arc<DbInner>,
}

impl Database {
    /// Opens (creating if necessary) a durable database at `dir`,
    /// recovering whatever a previous process committed there.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database, Error> {
        let mut cfg = EngineConfig::default();
        cfg.persistence = Some(dir.as_ref().to_path_buf());
        Database::open_with(cfg)
    }

    /// Opens a database as configured: durable when
    /// [`EngineConfig::persistence`] is set (which defaults from the
    /// `CYPHER_DATA_DIR` environment variable), in-memory otherwise.
    /// Recovery fans large-batch index rebuilds out across
    /// [`EngineConfig::num_threads`] workers; in `Pipelined` fsync mode
    /// a dedicated flush thread is started here.
    pub fn open_with(mut cfg: EngineConfig) -> Result<Database, Error> {
        // The metrics registry exists either way (a disabled one is a
        // plain bool gate); the executor's counters are shared with the
        // engine through the config only when recording is on.
        let db_metrics = Arc::new(DatabaseMetrics::new(cfg.metrics_enabled));
        if cfg.metrics_enabled && cfg.exec_metrics.is_none() {
            cfg.exec_metrics = Some(Arc::new(cypher_engine::ExecMetrics::default()));
        }
        let (graph, store, recovery, initial_version) = match &cfg.persistence {
            Some(dir) => {
                let (store, graph) = Store::open_with_threads(dir, cfg.num_threads)?;
                let recovery = store.report().clone();
                let v = store.batches_committed();
                (graph, Some(store), recovery, v)
            }
            None => (PropertyGraph::new(), None, RecoveryReport::default(), 0),
        };
        let metrics = StoreMetrics::of(&store);
        let durable = store.is_some();
        let versioned = VersionedGraph::new(graph, initial_version);
        let working = Arc::clone(versioned.latest().graph_arc());
        let shared = Arc::new(CommitShared {
            versioned,
            apply: Mutex::new(ApplyState {
                working,
                next_seq: initial_version,
                queue: Vec::new(),
                leader_running: false,
                buffer: SharedChangeBuffer::new(),
            }),
            leader_done: Condvar::new(),
            store: Mutex::new(store),
            poison: Mutex::new(None),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            pipeline_fail_injections: AtomicU32::new(0),
            metrics,
            db_metrics,
            views: Mutex::new(crate::view::ViewRegistry::new(cfg.clone())),
        });
        let (fsync_tx, fsync_join) = if durable && cfg.fsync_mode == FsyncMode::Pipelined {
            let (tx, rx) = mpsc::channel();
            let worker_shared = Arc::downgrade(&shared);
            let handle = std::thread::Builder::new()
                .name("cypher-fsync".to_string())
                .spawn(move || fsync_worker(worker_shared, rx))
                .map_err(StorageError::Io)?;
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        Ok(Database {
            inner: Arc::new(DbInner {
                shared,
                cfg,
                recovery,
                cache: Mutex::new(PlanCache::default()),
                stats_fp: Mutex::new(Vec::new()),
                fsync_tx: Mutex::new(fsync_tx),
                fsync_join: Mutex::new(fsync_join),
                opened: Instant::now(),
                slow_sink: Mutex::new(Arc::new(StderrSlowQueryLog)),
            }),
        })
    }

    /// An in-memory database (no files, no WAL); mostly for tests and as
    /// the oracle half of differential harnesses.
    pub fn in_memory() -> Database {
        let mut cfg = EngineConfig::default();
        cfg.persistence = None;
        Database::open_with(cfg).expect("in-memory open cannot fail")
    }

    /// Opens a new session: an independent, cheap handle onto this
    /// database. Sessions on one database share the graph, the durable
    /// store and the plan cache; each may pin its own read snapshot, and
    /// any number of them may run queries concurrently (send them to
    /// other threads freely). Concurrent updating queries feed the
    /// group-commit queue and share WAL seals (and fsyncs).
    pub fn session(&self) -> Session {
        let m = &self.inner.shared.db_metrics;
        if m.enabled {
            m.sessions_active.inc();
        }
        Session {
            inner: Arc::clone(&self.inner),
            pinned: None,
            last_commit: None,
            pin: None,
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
        let view = self.inner.shared.versioned.latest();
        let mut committed = None;
        self.inner
            .query_at(&view, false, query, params, &mut committed, None)
    }

    /// Evaluates a read query with the reference evaluator (the paper's
    /// denotational semantics) against the latest version.
    pub fn query_reference(&self, query: &str, params: &Params) -> Result<Table, Error> {
        let view = self.inner.shared.versioned.latest();
        run_reference_with(view.graph(), query, params, self.inner.cfg.match_config)
    }

    /// Forces a snapshot + WAL truncation now (quiescing the commit
    /// pipeline first). No-op for in-memory databases.
    pub fn checkpoint(&mut self) -> Result<(), Error> {
        let shared = &self.inner.shared;
        // Hold the apply guard across the snapshot: no commit is in
        // flight and none can start, so the latest published version is
        // exactly the state of every sealed batch.
        let _apply = shared.quiesce();
        let view = shared.versioned.latest();
        let mut store = shared.lock_store();
        if let Some(store) = &mut *store {
            let ck = store.checkpoint(view.graph());
            shared.metrics.refresh(store);
            ck?;
            if shared.db_metrics.enabled {
                shared.db_metrics.checkpoints.inc();
            }
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
        let shared = &self.inner.shared;
        let _apply = shared.quiesce();
        let mut store_guard = shared.lock_store();
        if let Some(store) = &mut *store_guard {
            store.sync()?;
        }
        // Drop the store now (not when the last Session drops): this
        // releases the data directory's single-writer lock, so the
        // directory can be reopened even while sessions linger.
        *store_guard = None;
        drop(store_guard);
        {
            let mut p = shared.poison.lock().unwrap_or_else(|e| e.into_inner());
            *p = Some("database has been closed: open it again to resume writing".to_string());
        }
        // Retire the pipelined fsync thread (its channel disconnects).
        *self
            .inner
            .fsync_tx
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        Ok(())
    }

    /// The latest published version of the graph, as a frozen snapshot
    /// handle (derefs to [`PropertyGraph`], so the whole read API is
    /// available on it).
    pub fn graph(&self) -> GraphView {
        self.inner.shared.versioned.latest()
    }

    /// The version id of the latest committed transaction (0 for a fresh
    /// in-memory database; the recovered batch count after `open`).
    pub fn version(&self) -> u64 {
        self.inner.shared.versioned.latest_version()
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
        let m = &self.inner.shared.metrics;
        m.read(&m.batches)
    }

    /// WAL size in bytes as of the last seal/checkpoint; `None` for
    /// in-memory databases. Lock-free mirror, like
    /// [`Database::batches_committed`].
    pub fn wal_bytes(&self) -> Option<u64> {
        let m = &self.inner.shared.metrics;
        m.read(&m.wal_bytes)
    }

    /// Snapshot generation as of the last seal/checkpoint; `None` for
    /// in-memory databases. Lock-free mirror, like
    /// [`Database::batches_committed`].
    pub fn generation(&self) -> Option<u64> {
        let m = &self.inner.shared.metrics;
        m.read(&m.generation)
    }

    /// The engine configuration this database executes with.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// Hit/miss/invalidation/eviction counters of the parse+plan cache
    /// (shared across all sessions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
    }

    /// Number of query texts currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.inner
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Test double for the fsync fault-injection harness: forces the
    /// next `n` WAL flushes to fail. In `Pipelined` mode the failure is
    /// injected at the flush thread; otherwise it arms the store's
    /// injection (consumed by `Sync`-mode seals and by `close`).
    ///
    /// **Inert outside the test harness.** A network-exposed binary must
    /// not carry a live fault-injection hook, so arming requires the
    /// `CYPHER_TEST_FAULTS` environment variable to be set (to anything)
    /// — the fault-injection suites set it themselves. Without it the
    /// call does nothing and returns `false`.
    #[doc(hidden)]
    pub fn inject_fsync_failures(&self, n: u32) -> bool {
        if std::env::var_os("CYPHER_TEST_FAULTS").is_none() {
            return false;
        }
        if self.inner.cfg.fsync_mode == FsyncMode::Pipelined {
            self.inner
                .shared
                .pipeline_fail_injections
                .store(n, Ordering::Relaxed);
        } else if let Some(store) = &mut *self.inner.shared.lock_store() {
            store.inject_sync_failures(n);
        }
        true
    }

    /// Renders the physical plans (and projection pushdowns) this
    /// database's configuration produces for `query` against the latest
    /// version's statistics — the `EXPLAIN` witness the plan-cache tests
    /// compare before and after invalidation.
    pub fn explain(&self, query: &str) -> Result<String, Error> {
        let q = crate::parse_query(query)?;
        let view = self.inner.shared.versioned.latest();
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
        let view = self.inner.shared.versioned.latest();
        self.inner.profile_at(&view, text, params)
    }

    /// The typed metrics registry of this database (always present; its
    /// instruments stay at zero when [`EngineConfig::metrics_enabled`]
    /// is off).
    pub fn metrics(&self) -> &DatabaseMetrics {
        &self.inner.shared.db_metrics
    }

    /// The executor's counters (morsels, rows, parallel runs), when
    /// metrics are enabled.
    pub fn exec_metrics(&self) -> Option<&cypher_engine::ExecMetrics> {
        self.inner.cfg.exec_metrics.as_deref()
    }

    /// Renders one consistent-enough metrics page: every layer's
    /// instruments as Prometheus-style text, plus the headline identity
    /// fields broken out for the wire protocol. Lock-free except for
    /// the plan-cache stats and the pin registry (both held briefly);
    /// safe to call at any frequency under load.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let m = &inner.shared.db_metrics;
        let uptime_ms = inner.opened.elapsed().as_millis() as u64;
        let version = inner.shared.versioned.latest_version();
        let sm = &inner.shared.metrics;
        let wal_generation = sm.read(&sm.generation).unwrap_or(0);
        let mut text = String::new();
        fmt_gauge(
            &mut text,
            "cypher_metrics_enabled",
            "1 when instrument recording is on",
            m.enabled as i64,
        );
        fmt_counter(
            &mut text,
            "cypher_uptime_ms",
            "milliseconds since this database handle was opened",
            uptime_ms,
        );
        fmt_counter(
            &mut text,
            "cypher_version",
            "latest published version id",
            version,
        );
        m.render_into(&mut text);
        if let Some(em) = &inner.cfg.exec_metrics {
            fmt_counter(
                &mut text,
                "cypher_exec_morsels_total",
                "morsels executed by MATCH pipelines",
                em.morsels.get(),
            );
            fmt_counter(
                &mut text,
                "cypher_exec_rows_total",
                "rows produced by MATCH pipelines (pre-projection)",
                em.rows.get(),
            );
            fmt_counter(
                &mut text,
                "cypher_exec_parallel_runs_total",
                "pipeline runs that engaged the parallel dispatcher",
                em.parallel_runs.get(),
            );
            fmt_counter(
                &mut text,
                "cypher_exec_intersect_probes_total",
                "galloping probes issued by multiway intersection joins",
                em.intersect_probes.get(),
            );
            fmt_counter(
                &mut text,
                "cypher_exec_intersect_nodes_total",
                "candidate nodes surviving multiway adjacency intersection",
                em.intersect_nodes.get(),
            );
            fmt_counter(
                &mut text,
                "cypher_exec_intersect_rows_total",
                "rows emitted by MultiwayIntersect operators",
                em.intersect_rows.get(),
            );
        }
        let pc = self.plan_cache_stats();
        fmt_counter(
            &mut text,
            "cypher_plan_cache_hits_total",
            "queries answered entirely from the plan cache",
            pc.hits,
        );
        fmt_counter(
            &mut text,
            "cypher_plan_cache_misses_total",
            "queries parsed and planned fresh",
            pc.misses,
        );
        fmt_counter(
            &mut text,
            "cypher_plan_cache_invalidations_total",
            "cache entries replanned after statistics drift",
            pc.invalidations,
        );
        fmt_counter(
            &mut text,
            "cypher_plan_cache_evictions_total",
            "cache entries evicted by the LRU policy",
            pc.evictions,
        );
        fmt_gauge(
            &mut text,
            "cypher_plan_cache_entries",
            "query texts currently cached",
            self.plan_cache_len() as i64,
        );
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
        MetricsSnapshot {
            uptime_ms,
            version,
            wal_generation,
            text,
        }
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
        self.inner.drop_view(name)
    }

    /// The contents of view `name` at the latest published version —
    /// served from the maintained table, not by re-running the query.
    pub fn view(&self, name: &str) -> Result<Table, Error> {
        let at = self.inner.shared.versioned.latest();
        self.inner.read_view(name, &at)
    }

    /// The registered view names, in creation order.
    pub fn view_names(&self) -> Vec<String> {
        self.inner
            .shared
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .names()
    }

    /// Renders view `name`'s maintenance plan (same text as
    /// `EXPLAIN VIEW <name>`).
    pub fn explain_view(&self, name: &str) -> Result<String, Error> {
        self.inner
            .shared
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .explain(name)
    }

    /// Subscribes to view `name`'s change stream: one
    /// [`crate::ViewChange`] per published commit group that changed the
    /// view's contents, in version order.
    pub fn subscribe(&self, name: &str) -> Result<crate::view::ViewSubscription, Error> {
        self.inner.subscribe(name)
    }

    /// Replaces the slow-query sink (default: one machine-parseable
    /// line per slow query on stderr). Takes effect for statements
    /// observed after the call; the slow path is the only reader.
    pub fn set_slow_query_sink(&self, sink: Arc<dyn SlowQuerySink>) {
        *self
            .inner
            .slow_sink
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = sink;
    }
}

/// One client's handle onto a shared [`Database`]: the unit of
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
    inner: Arc<DbInner>,
    pinned: Option<GraphView>,
    last_commit: Option<u64>,
    /// Pin-registry token while a read transaction is open (feeds the
    /// pinned-sessions gauge and the oldest-pin-age metric).
    pin: Option<u64>,
}

impl Session {
    /// Starts (or restarts) a read transaction: pins the latest
    /// published version and returns its id. Until [`Session::commit`],
    /// every query of this session executes against this frozen
    /// snapshot.
    pub fn begin_read(&mut self) -> u64 {
        let m = &self.inner.shared.db_metrics;
        if let Some(id) = self.pin.take() {
            m.release_pin(id);
        }
        let view = self.inner.shared.versioned.latest();
        let v = view.version();
        self.pinned = Some(view);
        self.pin = Some(m.register_pin());
        v
    }

    /// Ends the read transaction, releasing the pinned snapshot (and
    /// with it, eventually, the memory of that version). No-op when no
    /// transaction is open. The name mirrors the transactional bracket;
    /// read transactions have nothing to make durable.
    pub fn commit(&mut self) {
        if let Some(id) = self.pin.take() {
            self.inner.shared.db_metrics.release_pin(id);
        }
        self.pinned = None;
    }

    /// The version this session is pinned at, if a read transaction is
    /// open.
    pub fn version(&self) -> Option<u64> {
        self.pinned.as_ref().map(|v| v.version())
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
            Some(v) => v.clone(),
            None => self.inner.shared.versioned.latest(),
        }
    }

    /// Executes one query in this session. Inside a read transaction,
    /// reads see the pinned snapshot and updates are refused; outside,
    /// behaves exactly like [`Database::query`].
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
        let (view, pinned) = match &self.pinned {
            Some(v) => (v.clone(), true),
            None => (self.inner.shared.versioned.latest(), false),
        };
        self.last_commit = None;
        self.inner
            .query_at(&view, pinned, query, params, &mut self.last_commit, trace)
    }

    /// Reads view `name` at this session's snapshot: inside a read
    /// transaction the contents are exactly the view as of the pinned
    /// version (from the published ring, or by cold re-evaluation when
    /// the pin predates retention); outside, the latest published table.
    pub fn view(&self, name: &str) -> Result<Table, Error> {
        let at = self.snapshot();
        self.inner.read_view(name, &at)
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

    /// Registers a standing view; see [`Database::create_view`].
    pub fn create_view(&self, name: &str, query: &str) -> Result<u64, Error> {
        self.inner.create_view(name, query)
    }

    /// Unregisters a standing view; see [`Database::drop_view`].
    pub fn drop_view(&self, name: &str) -> Result<(), Error> {
        self.inner.drop_view(name)
    }

    /// Subscribes to view `name`'s change stream; see
    /// [`Database::subscribe`].
    pub fn subscribe(&self, name: &str) -> Result<crate::view::ViewSubscription, Error> {
        self.inner.subscribe(name)
    }

    /// Profiles a read query against this session's snapshot (pinned or
    /// latest); see [`Database::profile`].
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
        let m = &self.inner.shared.db_metrics;
        if let Some(id) = self.pin.take() {
            m.release_pin(id);
        }
        if m.enabled {
            m.sessions_active.dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::Value;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cypher-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

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
        let mut cfg = EngineConfig::default();
        cfg.persistence = Some(dir.clone());
        cfg.wal_compact_bytes = 512; // tiny: trigger quickly
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
    fn sessions_share_one_graph_and_one_plan_cache() {
        let params = Params::new();
        let mut cfg = EngineConfig::default();
        cfg.persistence = None;
        cfg.plan_cache_size = 16;
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
        s.query("CREATE (:N {v: 2})", &params).unwrap();
        assert_eq!(s.last_commit_version(), Some(2));
    }

    #[test]
    fn sync_mode_fsync_failure_poisons_exactly_its_group() {
        let dir = tmpdir("sync-fail");
        let params = Params::new();
        let mut cfg = EngineConfig::default();
        cfg.persistence = Some(dir.clone());
        cfg.fsync_mode = FsyncMode::Sync;
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
            // Later writers see the poison.
            let e2 = db.query("CREATE (:N {v: 3})", &params).unwrap_err();
            assert!(
                e2.to_string()
                    .contains("read-only after a failed WAL commit"),
                "unexpected error: {e2}"
            );
        } // dropped, not closed: close would fsync a damaged writer
        cfg.fsync_mode = FsyncMode::Os;
        let mut db2 = Database::open_with(cfg).unwrap();
        assert_eq!(db2.version(), 1, "prior groups stayed durable");
        let t = db2
            .query("MATCH (n:N) RETURN count(*) AS c", &params)
            .unwrap();
        assert_eq!(t.cell(0, "c"), Some(&Value::int(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_mode_publishes_after_flush_and_survives_reopen() {
        let dir = tmpdir("pipelined");
        let params = Params::new();
        let mut cfg = EngineConfig::default();
        cfg.persistence = Some(dir.clone());
        cfg.fsync_mode = FsyncMode::Pipelined;
        {
            let mut db = Database::open_with(cfg.clone()).unwrap();
            for i in 0..3 {
                db.query(&format!("CREATE (:N {{v: {i}}})"), &params)
                    .unwrap();
            }
            assert_eq!(db.version(), 3, "acknowledged commits are published");
            db.close().unwrap();
        }
        let db2 = Database::open_with(cfg).unwrap();
        assert_eq!(db2.recovery().batches_replayed, 3);
        assert_eq!(db2.version(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_flush_failure_poisons_and_rolls_back_its_group() {
        let dir = tmpdir("pipelined-fail");
        let params = Params::new();
        let mut cfg = EngineConfig::default();
        cfg.persistence = Some(dir.clone());
        cfg.fsync_mode = FsyncMode::Pipelined;
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
            assert_eq!(db.version(), 1, "the failed group never published");
            let e2 = db.query("CREATE (:N {v: 3})", &params).unwrap_err();
            assert!(
                e2.to_string()
                    .contains("read-only after a failed WAL commit"),
                "unexpected error: {e2}"
            );
        }
        cfg.fsync_mode = FsyncMode::Os;
        let mut db2 = Database::open_with(cfg).unwrap();
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
    fn pipelined_failure_with_two_groups_in_flight_rolls_back_once() {
        // The pipelined steady state holds two in-flight groups: N
        // flushing while the leader seals N+1. If N's flush fails, only
        // N's rollback may touch the file — N+1's rollback target lies
        // past the restored boundary, and truncating to it would
        // zero-extend the WAL into garbage that makes the database
        // unopenable. This test stages that interleaving
        // deterministically by capturing the sealed groups and feeding
        // them to a worker only after both are in flight.
        let dir = tmpdir("pipelined-two-inflight");
        let params = Params::new();
        let mut cfg = EngineConfig::default();
        cfg.persistence = Some(dir.clone());
        cfg.fsync_mode = FsyncMode::Pipelined;
        {
            let db = Database::open_with(cfg.clone()).unwrap();
            let mut s0 = db.session();
            s0.query("CREATE (:N {v: 0})", &params).unwrap();
            // Intercept the pipeline: jobs land in the test's channel
            // instead of the real worker (which retires when its sender
            // drops), so the test controls when each flush runs.
            let (tx, sealed_rx) = mpsc::channel();
            let old = std::mem::replace(&mut *db.inner.fsync_tx.lock().unwrap(), Some(tx));
            drop(old);
            let spawn_writer = |v: i64| {
                let mut s = db.session();
                std::thread::spawn(move || {
                    s.query(&format!("CREATE (:N {{v: {v}}})"), &Params::new())
                })
            };
            // Each writer finds an idle queue, leads its own seal, and
            // blocks on its ticket — receiving its job proves the group
            // is sealed (appended to the WAL) and in flight.
            let w1 = spawn_writer(1);
            let job1 = sealed_rx.recv().unwrap();
            let w2 = spawn_writer(2);
            let job2 = sealed_rx.recv().unwrap();
            let durable_len = job1.wal_len_before;
            assert!(
                job2.wal_len_before > durable_len,
                "two distinct groups are in flight"
            );
            // Fail the first flush, then let a worker drain both jobs in
            // seal order: job1 fails and rolls back to durable_len; job2
            // sees the poison and must NOT roll back to its own (larger,
            // no longer existing) target.
            db.inner
                .shared
                .pipeline_fail_injections
                .store(1, Ordering::Relaxed);
            let (wtx, wrx) = mpsc::channel();
            let weak = Arc::downgrade(&db.inner.shared);
            let worker = std::thread::spawn(move || fsync_worker(weak, wrx));
            wtx.send(job1).unwrap();
            wtx.send(job2).unwrap();
            drop(wtx);
            worker.join().unwrap();
            assert!(
                w1.join().unwrap().is_err(),
                "the failed group's writer errors"
            );
            assert!(w2.join().unwrap().is_err(), "the poisoned follower errors");
            assert_eq!(
                db.wal_bytes(),
                Some(durable_len),
                "the WAL sits exactly at the durable boundary — neither \
                 extended nor cut below it"
            );
            assert_eq!(db.version(), 1, "neither group published");
        }
        // The decisive check: the directory reopens cleanly with exactly
        // the durable prefix (the double-rollback bug left an unopenable
        // zero-extended log here).
        cfg.fsync_mode = FsyncMode::Os;
        let mut db2 = Database::open_with(cfg).unwrap();
        assert_eq!(db2.recovery().batches_replayed, 1);
        let t = db2
            .query("MATCH (n:N) RETURN count(*) AS c", &params)
            .unwrap();
        assert_eq!(t.cell(0, "c"), Some(&Value::int(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_share_groups_and_all_commit() {
        let params = Params::new();
        let mut cfg = EngineConfig::default();
        cfg.persistence = None;
        cfg.plan_cache_size = 0;
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
        let mut cfg = EngineConfig::default();
        cfg.persistence = None;
        cfg.metrics_enabled = true;
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
