//! The database's metrics registry, the page it renders, and the
//! slow-query log's record and sink.

use crate::lock;
use cypher_metrics::{fmt_gauge, Counter, Gauge, Histogram, Instrument};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Live read pins, `(token, pinned-at)`: a long-forgotten pin is the
/// classic version-GC leak, so the page shows the oldest one's age.
#[derive(Debug, Default)]
struct PinRegistry {
    pins: Mutex<Vec<(u64, Instant)>>,
    next: AtomicU64,
}

impl PinRegistry {
    fn oldest_age_us(&self) -> u64 {
        let pins = lock(&self.pins);
        let ages = pins.iter().map(|(_, at)| at.elapsed().as_micros() as u64);
        ages.max().unwrap_or(0)
    }
}

impl Instrument for PinRegistry {
    fn render(&self, out: &mut String, name: &str, help: &str) {
        fmt_gauge(out, name, help, self.oldest_age_us() as i64);
    }
}

cypher_metrics::instruments! {
    /// The engine-wide metrics registry: every layer of one database —
    /// query dispatch, the commit pipeline, checkpointing, sessions —
    /// records into these lock-free instruments (see [`cypher_metrics`]).
    /// Recording is gated on [`crate::EngineConfig::metrics_enabled`]
    /// (`CYPHER_METRICS`); when disabled every hook is a single branch on
    /// a plain bool, so the hot path pays nothing.
    ///
    /// Exposed through [`crate::Database::metrics`] (typed, for tests and embedded
    /// monitoring) and [`crate::Database::metrics_snapshot`] (Prometheus-style
    /// text, served over the wire protocol's `Metrics` request).
    pub struct DatabaseMetrics {
        enabled: bool;
        /// Read queries executed (successful or not; `EXPLAIN` excluded,
        /// `PROFILE` included — it executes the query).
        pub queries_read: Counter = "cypher_queries_read_total", "read queries executed";
        /// Updating queries executed (successful or not, including updates
        /// refused inside a read transaction).
        pub queries_write: Counter = "cypher_queries_write_total", "updating queries executed";
        pub queries_failed: Counter = "cypher_queries_failed_total",
            "queries that returned an error";
        pub rows_returned: Counter = "cypher_rows_returned_total",
            "rows returned by successful queries";
        /// End-to-end statement latency, microseconds (parse through
        /// commit acknowledgement).
        pub query_latency_us: Histogram = "cypher_query_latency_us",
            "end-to-end statement latency (microseconds)";
        /// Queries at or above the [`crate::EngineConfig::slow_query_ms`]
        /// threshold (0 when the slow-query log is disabled).
        pub slow_queries: Counter = "cypher_slow_queries_total",
            "queries at or above the slow-query threshold";
        pub commit_groups: Counter = "cypher_commit_groups_total", "commit groups sealed";
        pub commit_group_size: Histogram = "cypher_commit_group_size",
            "member transactions per sealed group";
        pub commit_queue_depth: Gauge = "cypher_commit_queue_depth",
            "transactions waiting in the group-commit queue";
        /// Wall time of one group seal (WAL append, flush step and
        /// publish), microseconds.
        pub seal_latency_us: Histogram = "cypher_seal_latency_us",
            "group seal wall time (microseconds)";
        /// Wall time of one successful WAL flush, microseconds (`Sync`
        /// fsync mode; `Os` mode never flushes).
        pub fsync_latency_us: Histogram = "cypher_fsync_latency_us",
            "WAL flush wall time (microseconds)";
        /// Times the database turned read-only after a failed WAL commit
        /// (first failure only — the cascade it causes is not re-counted).
        pub poison_events: Counter = "cypher_poison_events_total",
            "times the database turned read-only after a failed WAL commit";
        /// Explicit checkpoints ([`crate::Database::checkpoint`] and `close`).
        pub checkpoints: Counter = "cypher_checkpoints_total", "explicit checkpoints";
        /// Checkpoints triggered by the WAL outgrowing
        /// [`crate::EngineConfig::wal_compact_bytes`].
        pub wal_compactions: Counter = "cypher_wal_compactions_total",
            "checkpoints triggered by WAL growth";
        pub sessions_active: Gauge = "cypher_sessions_active", "open session handles";
        pub sessions_pinned: Gauge = "cypher_sessions_pinned",
            "sessions holding a pinned read snapshot";
        pins: PinRegistry = "cypher_oldest_pin_age_us",
            "age of the oldest live read pin (microseconds)";
        /// Wall time of one standing-view refresh (delta fold + snapshot),
        /// microseconds, recorded per view per published commit group.
        pub view_refresh_us: Histogram = "cypher_view_refresh_us",
            "standing-view refresh wall time per commit group (microseconds)";
        /// Delta rows folded into view states (retractions + insertions).
        pub view_delta_rows: Counter = "cypher_view_delta_rows_total",
            "delta rows folded into standing-view states";
        /// View refreshes (or reads) that fell back to re-running the whole
        /// query: `Full`-mode views pay one per commit; a delta-maintained
        /// view counts one only when its state diverged, and a pinned reader
        /// counts one when its snapshot predates the published ring.
        pub view_full_recomputes: Counter = "cypher_view_full_recomputes_total",
            "standing-view refreshes or reads that re-ran the whole query";
        /// `trace_id + 1` of the most recent commit whose group was sealed
        /// and published carrying a trace id; 0 = none yet. The end-to-end
        /// witness that a request's trace id survives from server accept to
        /// WAL seal.
        last_sealed_trace: AtomicU64;
    }
}

impl DatabaseMetrics {
    pub(crate) fn new(enabled: bool) -> DatabaseMetrics {
        DatabaseMetrics {
            enabled,
            ..DatabaseMetrics::default()
        }
    }

    /// Whether recording is on ([`crate::EngineConfig::metrics_enabled`]).
    /// When off, every instrument stays at zero.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The trace id of the most recent published commit that carried
    /// one (threaded from the server's accept loop through
    /// [`crate::Session::query_traced`] into the WAL seal).
    pub fn last_sealed_trace(&self) -> Option<u64> {
        match self.last_sealed_trace.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }

    pub(crate) fn note_sealed_trace(&self, trace: Option<u64>) {
        if let Some(t) = trace {
            // Saturate rather than wrap: id u64::MAX must not read back
            // as "none" (it clamps to u64::MAX - 1 instead — the one
            // unrepresentable id in the zero-means-none encoding).
            self.last_sealed_trace
                .store(t.saturating_add(1), Ordering::Relaxed);
        }
    }

    pub(crate) fn register_pin(&self) -> u64 {
        let id = self.pins.next.fetch_add(1, Ordering::Relaxed);
        if self.enabled {
            self.sessions_pinned.inc();
            lock(&self.pins.pins).push((id, Instant::now()));
        }
        id
    }

    pub(crate) fn release_pin(&self, id: u64) {
        if self.enabled {
            let mut pins = lock(&self.pins.pins);
            if let Some(i) = pins.iter().position(|(p, _)| *p == id) {
                pins.remove(i);
                self.sessions_pinned.dec();
            }
        }
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
    /// mirror, recovery report and effective configuration.
    pub text: String,
}

/// One structured slow-query record, emitted when a statement's latency
/// reaches [`crate::EngineConfig::slow_query_ms`]. `Display` renders the
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
    /// The caller-supplied trace id ([`crate::Session::query_traced`]), if any.
    pub trace_id: Option<u64>,
    /// Whether the statement was an updating query.
    pub write: bool,
}

impl fmt::Display for SlowQueryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let or = |v: Option<u64>, none: &str| v.map_or_else(|| none.to_string(), |v| v.to_string());
        write!(
            f,
            "slow_query query_hash={:016x} duration_us={} rows={} cache_hit={} \
             committed_version={} trace_id={} write={}",
            self.query_hash,
            self.duration_us,
            or(self.rows, "err"),
            self.plan_cache_hit,
            or(self.committed_version, "-"),
            or(self.trace_id, "-"),
            self.write,
        )
    }
}

/// Where slow-query records go. The default sink writes the `Display`
/// line to stderr; embedders swap in their own collector with
/// [`crate::Database::set_slow_query_sink`]. Called on the query's own thread
/// (only for statements past the threshold), so implementations should
/// be quick or hand off.
pub trait SlowQuerySink: Send + Sync {
    /// Accepts one slow-query record.
    fn record(&self, entry: &SlowQueryEntry);
}

/// The default sink: one machine-parseable line per slow query on
/// stderr.
pub(crate) struct StderrSlowQueryLog;

impl SlowQuerySink for StderrSlowQueryLog {
    fn record(&self, entry: &SlowQueryEntry) {
        eprintln!("{entry}");
    }
}
