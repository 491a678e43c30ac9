//! End-to-end tests of the observability subsystem: `PROFILE`, the
//! engine-wide metrics registry, the structured slow-query log, and
//! their exposition over the wire.
//!
//! What must hold:
//!
//! * **PROFILE is an observer, not a participant** — a profiled query's
//!   result table is bit-identical (same row sequence) to the
//!   unprofiled run of the same statement, across a matrix of
//!   thread-count × morsel-size configurations;
//! * **metrics tell the truth** — query/commit/session counters move by
//!   exactly the amounts the workload implies, histogram counts equal
//!   the sum of their buckets, and turning metrics off freezes every
//!   instrument without changing results;
//! * **metrics are cheap** — metrics-on point reads keep at least 95% of
//!   the metrics-off throughput (a timing claim, `#[ignore]`d by default
//!   and run in release by CI's `observability` job);
//! * **the slow-query log fires on its threshold exactly** — threshold
//!   0 logs every query (with hash, rows, cache-hit, commit version and
//!   trace id fields filled truthfully), a huge threshold logs none,
//!   and an unset threshold disables the path entirely;
//! * **the wire exposes all of it** — a `Metrics` request returns a
//!   parseable Prometheus-style page whose counters are monotone under
//!   concurrent load, `PROFILE` over TCP returns structured operator
//!   rows, and a remote write's trace id is witnessed at the WAL seal.

use cypher::{
    Database, EngineConfig, MatchConfig, Params, PartialAggMode, SlowQueryEntry, SlowQuerySink,
    Value,
};
use cypher_client::Client;
use cypher_server::{Server, ServerConfig};
use cypher_tck::diff::{config, Policy::Builtin, ALL};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The built-in cell in memory. No query here closes a cycle, so the join
/// policy cannot reach them; the `PROFILE` sweep covers threads × morsels.
fn mem_cfg() -> EngineConfig {
    EngineConfig {
        persistence: None,
        ..EngineConfig::default()
    }
}

/// Seeds a small two-label graph with enough rows for parallel scans to
/// actually split into morsels.
fn seed(db: &Database, rows: usize) {
    let params = Params::new();
    let mut session = db.session();
    let mut k = 0usize;
    while k < rows {
        let batch = (rows - k).min(200);
        let stmt = (k..k + batch)
            .map(|i| format!("(:P {{x: {i}}})-[:R]->(:Q {{y: {}}})", i * 2))
            .collect::<Vec<_>>()
            .join(", ");
        session
            .query(&format!("CREATE {stmt}"), &params)
            .expect("seed batch");
        k += batch;
    }
}

const QUERIES: &[&str] = &[
    "MATCH (p:P) RETURN p.x ORDER BY p.x",
    "MATCH (p:P) WHERE p.x < 50 RETURN p.x ORDER BY p.x",
    "MATCH (p:P)-[:R]->(q:Q) RETURN p.x, q.y ORDER BY p.x",
    "MATCH (p:P) RETURN count(p) AS c, sum(p.x) AS s",
    "MATCH (p:P)-[:R]->(q) WHERE q.y > 100 RETURN count(q) AS c",
    // One query per pipeline sink: grouped aggregate with keys, DISTINCT,
    // top-k, plain projection under SKIP/LIMIT.
    "MATCH (p:P) RETURN p.x % 3 AS k, count(*) AS c",
    "MATCH (p:P)-[:R]->(q:Q) RETURN DISTINCT q.y % 5 AS m",
    "MATCH (p:P) RETURN p.x ORDER BY p.x DESC LIMIT 7",
    "MATCH (p:P)-[:R]->(q:Q) RETURN p.x AS x, q.y AS y SKIP 3 LIMIT 5",
    // A plain projection that fails: a node in arithmetic.
    BAD_PROJECTION,
];

const BAD_PROJECTION: &str = "MATCH (p:P) RETURN p.x AS x, p + 1 AS y";

/// Whether a plan line is a sink's.
fn is_sink(line: &str) -> bool {
    ["PartialAggregate(", "TopK(", "Project("]
        .iter()
        .any(|s| line.starts_with(s))
}

/// The sink line `EXPLAIN` prints under the final `MATCH` plan, if any.
fn explained_sink(db: &Database, q: &str) -> Option<String> {
    let plan = db.explain(q).expect("explain");
    plan.lines().find(|l| is_sink(l)).map(str::to_string)
}

// ---------------------------------------------------------------------
// PROFILE: bit-identical results, structured output, update refusal.
// ---------------------------------------------------------------------

/// A profiled query must return exactly the rows of its unprofiled twin
/// — same multiset, same order — no matter how the executor is
/// parallelised or whether the projection runs in the pipeline; and a
/// failing projection fails with the same text everywhere.
#[test]
fn profile_results_bit_identical_across_parallel_configs() {
    let params = Params::new();
    // Per query and pushdown on/off, the rows every operator reported in
    // the first cell.
    let mut op_rows: HashMap<(&str, bool), Vec<u64>> = HashMap::new();
    // Per query, the first cell's result (or error text).
    let mut results: HashMap<&str, Result<cypher::Table, String>> = HashMap::new();
    let modes = [PartialAggMode::Off, PartialAggMode::Auto];
    // Every thread × morsel cell of the built-in policy, with pushdown
    // off and on.
    let cells = ALL.iter().filter(|(policy, ..)| *policy == Builtin);
    for (mode, &cell) in modes
        .iter()
        .flat_map(|m| cells.clone().map(move |c| (*m, c)))
    {
        let cfg = EngineConfig {
            persistence: None,
            ..config(cell, MatchConfig::default()).with_partial_agg(mode)
        };
        let db = Database::open_with(cfg).expect("open");
        seed(&db, 300);
        let mut session = db.session();
        let cell = format!("{cell:?} {mode:?}");
        for q in QUERIES {
            let plain = session.query(q, &params).map_err(|e| e.to_string());
            let first = results.entry(q).or_insert_with(|| plain.clone());
            match (&plain, &*first) {
                (Ok(t), Ok(f)) => assert!(t.ordered_eq(f), "{cell}: rows moved for {q}"),
                (Err(e), Err(f)) => assert_eq!(e, f, "{cell}: error text moved for {q}"),
                _ => panic!("{cell}: {q} answered {plain:?}, first cell {first:?}"),
            }
            let report = match db.profile(q, &params) {
                Ok(report) => report,
                Err(e) => {
                    let plain = plain.map(|t| t.len());
                    assert_eq!(Err(e.to_string()), plain, "{cell}: profiled {q}");
                    continue;
                }
            };
            let plain = plain.expect("the plain run succeeds where PROFILE does");
            assert!(
                report.result.ordered_eq(&plain),
                "{cell}: profiled rows diverged for {q}"
            );
            assert_eq!(report.profile.rows, plain.len() as u64);
            // The profile is of the plan that ran: a folded query ends
            // in its sink, which took in exactly what the operator
            // beneath it emitted; and how the work was cut into morsels
            // changes no operator's row count.
            let ops = &report.profile.clauses.last().expect("a MATCH").operators;
            if let Some(sink) = explained_sink(&db, q) {
                let [.., below, last] = ops.as_slice() else {
                    panic!("a folded MATCH has an operator and a sink: {ops:?}")
                };
                assert_eq!(last.operator, sink, "{q}");
                assert_eq!(last.rows, below.rows, "sink rows-in for {q}");
            }
            let rows: Vec<u64> = ops.iter().map(|op| op.rows).collect();
            let key = (*q, mode == PartialAggMode::Off);
            let first = op_rows.entry(key).or_insert_with(|| rows.clone());
            assert_eq!(*first, rows, "{cell}: operator rows moved for {q}");
            // The annotated text names at least one operator and the
            // structured table is one row per operator.
            assert!(!report.profile.clauses.is_empty());
            assert!(!report.operators.is_empty());
            assert_eq!(
                report.operators.schema().names(),
                &["clause", "operator", "est_rows", "rows", "batches", "time_us"]
            );
        }
    }
}

/// `EXPLAIN` and `PROFILE` ask the executor's own sink selection, so
/// the sink `EXPLAIN` promises is the last operator `PROFILE` measured
/// — with real rows and time — and with pushdown off neither shows one.
#[test]
fn explain_and_profile_name_the_same_sink() {
    let params = Params::new();
    for mode in [PartialAggMode::Auto, PartialAggMode::Off] {
        let mut cfg = mem_cfg();
        cfg.partial_agg = mode;
        let db = Database::open_with(cfg).expect("open");
        seed(&db, 300);
        let mut folded = 0;
        for q in QUERIES {
            let explained = explained_sink(&db, q);
            if let Some(sink) = &explained {
                assert_eq!(
                    mode,
                    PartialAggMode::Auto,
                    "pushdown off, yet {sink} for {q}"
                );
                folded += 1;
            }
            let Ok(report) = db.profile(q, &params) else {
                assert_eq!(*q, BAD_PROJECTION, "only the bad projection fails");
                continue;
            };
            let ops = &report.profile.clauses.last().expect("a MATCH").operators;
            let last = ops.last().expect("an operator");
            match explained {
                Some(sink) => assert_eq!(last.operator, sink, "{q}"),
                None => assert!(
                    !is_sink(&last.operator),
                    "PROFILE alone shows {} for {q}",
                    last.operator
                ),
            }
        }
        // The two `count` queries and the five added for the sinks; a
        // bare `ORDER BY` is collected.
        assert_eq!(folded, if mode == PartialAggMode::Auto { 7 } else { 0 });
    }

    let db = Database::open_with(mem_cfg().with_partial_agg(PartialAggMode::Auto)).expect("open");
    seed(&db, 300);
    let report = db
        .profile(
            "PROFILE MATCH (p:P) RETURN p.x % 3 AS k, count(*) AS c",
            &params,
        )
        .expect("profiled run");
    let sink = report.profile.clauses[0].operators.last().expect("sink");
    assert_eq!(sink.operator, "PartialAggregate(keys=[k], aggs=[count(*)])");
    assert_eq!(sink.rows, 300);
    assert!(sink.time_us > 0, "folding 300 rows takes time: {sink:?}");
    assert!(report.text.contains(&sink.operator), "{}", report.text);
}

/// A chain of streamable clauses is one segment: `PROFILE` measures one
/// pipeline whose operators cover both `MATCH` plans and the `WITH`
/// projection and end in the sink, and `EXPLAIN` renders the same block.
#[test]
fn a_streamed_chain_profiles_as_one_segment() {
    let db = Database::open_with(mem_cfg().with_partial_agg(PartialAggMode::Auto)).expect("open");
    seed(&db, 300);
    let q = "MATCH (p:P) WITH p MATCH (p)-[:R]->(q) RETURN count(*) AS c";
    let report = db.profile(q, &Params::new()).expect("profiled run");
    assert_eq!(report.result.cell(0, "c"), Some(&Value::int(300)));
    let [segment] = report.profile.clauses.as_slice() else {
        panic!("one segment: {}", report.text)
    };
    assert_eq!(segment.label, "MATCH WITH MATCH");
    let ops: Vec<&str> = segment
        .operators
        .iter()
        .map(|op| op.operator.as_str())
        .collect();
    assert_eq!(
        ops,
        [
            "NodeIndexScan(p:P)",
            "Project(p)",
            "Argument(p)",
            "Expand(p)->[ anon0:R](q)",
            "PartialAggregate(keys=[], aggs=[count(*)])",
        ],
        "{}",
        report.text
    );
    assert!(
        segment.operators.iter().all(|op| op.rows == 300),
        "{}",
        report.text
    );
    let plan = db.explain(q).expect("explain");
    assert_eq!(plan.matches(" plan:").count(), 1, "{plan}");
    assert!(
        plan.contains("MATCH WITH MATCH plan:") && plan.contains(" Project(p)"),
        "{plan}"
    );
}

/// `PROFILE` is read-only: an update under it must refuse rather than
/// commit as a side effect of being observed. The prefix itself is
/// accepted and stripped by [`Database::profile`].
#[test]
fn profile_strips_prefix_and_refuses_updates() {
    let db = Database::open_with(mem_cfg()).expect("open");
    seed(&db, 20);
    let params = Params::new();
    let bare = db.profile("MATCH (p:P) RETURN p.x", &params).expect("bare");
    let prefixed = db
        .profile("PROFILE MATCH (p:P) RETURN p.x", &params)
        .expect("prefixed");
    assert!(bare.result.ordered_eq(&prefixed.result));
    let before = db.version();
    let err = db
        .profile("CREATE (:Nope)", &params)
        .map(|r| r.text)
        .unwrap_err();
    assert!(err.to_string().contains("read-only"), "got: {err}");
    assert_eq!(db.version(), before, "refused PROFILE must not commit");
}

/// Through the normal statement path, `PROFILE <q>` answers the
/// structured per-operator table — that is what a remote client sees.
#[test]
fn profile_statement_returns_operator_rows() {
    let db = Database::open_with(mem_cfg()).expect("open");
    seed(&db, 20);
    let mut session = db.session();
    let t = session
        .query(
            "PROFILE MATCH (p:P)-[:R]->(q:Q) RETURN p.x, q.y",
            &Params::new(),
        )
        .expect("profile statement");
    assert_eq!(
        t.schema().names(),
        &["clause", "operator", "est_rows", "rows", "batches", "time_us"]
    );
    assert!(!t.is_empty());
}

/// Every `EXPLAIN` plan line of a `MATCH` step carries the planner's
/// estimated cardinality next to what will actually run.
#[test]
fn explain_lines_carry_estimates() {
    let db = Database::open_with(mem_cfg()).expect("open");
    seed(&db, 50);
    let mut session = db.session();
    let t = session
        .query(
            "EXPLAIN MATCH (p:P)-[:R]->(q:Q) RETURN p.x, q.y",
            &Params::new(),
        )
        .expect("explain");
    assert_eq!(t.schema().names(), &["plan"]);
    let mut step_lines = 0usize;
    for row in t.rows() {
        if let Some(line) = row.values().first().and_then(Value::as_str) {
            if line.contains("(est rows:") {
                step_lines += 1;
            }
        }
    }
    assert!(step_lines >= 2, "expected estimates on plan steps: {t:?}");
}

// ---------------------------------------------------------------------
// Metrics registry: counters move exactly, histograms stay consistent.
// ---------------------------------------------------------------------

#[test]
fn metrics_counters_track_the_workload_exactly() {
    let db = Database::open_with(mem_cfg()).expect("open");
    let m = db.metrics();
    assert!(m.enabled());
    seed(&db, 40);
    let params = Params::new();
    let mut session = db.session();

    let reads0 = m.queries_read.get();
    let writes0 = m.queries_write.get();
    let failed0 = m.queries_failed.get();
    let rows0 = m.rows_returned.get();
    let lat0 = m.query_latency_us.snapshot().count;

    let t = session
        .query("MATCH (p:P) RETURN p.x ORDER BY p.x", &params)
        .expect("read");
    session
        .query("CREATE (:P {x: -1})", &params)
        .expect("write");
    session.query("RETURN nosuch", &params).unwrap_err();

    // A failed statement still counts as the read (or write) it was,
    // *plus* one failure — `failed / (read + write)` is the error rate.
    assert_eq!(m.queries_read.get(), reads0 + 2);
    assert_eq!(m.queries_write.get(), writes0 + 1);
    assert_eq!(m.queries_failed.get(), failed0 + 1);
    // Only the successful read returned rows (`CREATE` returns none).
    assert_eq!(m.rows_returned.get(), rows0 + t.len() as u64);
    // Reads, writes and failures all pay one latency observation.
    let lat = m.query_latency_us.snapshot();
    assert_eq!(lat.count, lat0 + 3);
    assert_eq!(lat.count, lat.buckets.iter().sum::<u64>());
    assert!(m.commit_groups.get() >= 1, "the writes sealed groups");

    // Session gauges: one live session here; a pin moves the pinned
    // gauge and the pin registry's age witness.
    assert_eq!(m.sessions_active.get(), 1);
    assert_eq!(m.sessions_pinned.get(), 0);
    session.begin_read();
    assert_eq!(m.sessions_pinned.get(), 1);
    session.commit();
    assert_eq!(m.sessions_pinned.get(), 0);
    drop(session);
    assert_eq!(m.sessions_active.get(), 0);
}

/// The executor's counters are recorded by the one morsel driver, so a
/// `MATCH` folded into its `RETURN` and a profiled run move them like
/// any other.
#[test]
fn exec_metrics_count_folded_and_profiled_runs() {
    let mut cfg = mem_cfg();
    cfg.num_threads = 4;
    cfg.morsel_size = 8;
    let db = Database::open_with(cfg).expect("open");
    seed(&db, 100);
    let params = Params::new();
    let q = "MATCH (p:P) RETURN count(p)";
    let em = db.exec_metrics().expect("metrics are on");
    let read = || (em.morsels.get(), em.rows.get(), em.parallel_runs.get());

    let before = read();
    db.session().query(q, &params).expect("folded run");
    let after = read();
    // 100 :P nodes in morsels of 8.
    assert_eq!(after.0 - before.0, 13, "morsels");
    assert_eq!(after.1 - before.1, 100, "rows");
    assert_eq!(after.2 - before.2, 1, "parallel runs");

    db.profile(q, &params).expect("profiled run");
    let profiled = read();
    assert_eq!(profiled.0 - after.0, 13, "profiled morsels");
    assert_eq!(profiled.1 - after.1, 100, "profiled rows");
    assert_eq!(profiled.2 - after.2, 1, "profiled parallel runs");
}

/// With `metrics_enabled = false` results are unchanged and every
/// instrument stays at zero — the off switch is really off.
#[test]
fn disabled_metrics_freeze_but_do_not_change_results() {
    let mut cfg = mem_cfg();
    cfg.metrics_enabled = false;
    let db = Database::open_with(cfg).expect("open");
    seed(&db, 30);
    let params = Params::new();
    let mut session = db.session();
    let on_db = Database::open_with(mem_cfg()).expect("open twin");
    seed(&on_db, 30);
    let mut on_session = on_db.session();
    for q in QUERIES {
        match (session.query(q, &params), on_session.query(q, &params)) {
            (Ok(off), Ok(on)) => {
                assert!(off.ordered_eq(&on), "metrics toggle changed rows for {q}")
            }
            (Err(off), Err(on)) => assert_eq!(off.to_string(), on.to_string(), "{q}"),
            (off, on) => panic!("metrics toggle changed the outcome of {q}: {off:?} vs {on:?}"),
        }
    }
    let m = db.metrics();
    assert!(!m.enabled());
    assert_eq!(m.queries_read.get(), 0);
    assert_eq!(m.queries_write.get(), 0);
    assert_eq!(m.query_latency_us.snapshot().count, 0);
    assert_eq!(m.sessions_active.get(), 0);
    // The page still renders, and says the registry is off.
    let snap = db.metrics_snapshot();
    assert!(snap.text.contains("cypher_metrics_enabled 0"));
}

/// The registry's price: in-process point reads against a metrics-on and
/// a metrics-off database, best of three rounds in alternating order,
/// keep the on/off throughput ratio at or above 0.95. A timing claim, so
/// it runs only when asked, in release:
/// `cargo test --release -p cypher-server --test observability -- --include-ignored`.
#[test]
#[ignore = "timing claim: run in release with --include-ignored"]
fn metrics_cost_at_most_five_percent_of_point_read_throughput() {
    const KEYS: i64 = 1000;
    const OPS: usize = 30_000;
    let open = |metrics: bool| {
        let mut cfg = mem_cfg();
        cfg.metrics_enabled = metrics;
        let db = Database::open_with(cfg).expect("open");
        db.session()
            .query(
                "UNWIND range(0, 999) AS i CREATE (:Load {k: i, v: i * i})",
                &Params::new(),
            )
            .expect("seed");
        db
    };
    let point_reads_per_s = |db: &Database| {
        let mut session = db.session();
        let mut state = 0x5EEDu64;
        let t = std::time::Instant::now();
        for _ in 0..OPS {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) as i64 % KEYS;
            let mut p = Params::new();
            p.insert("k".to_string(), Value::int(k));
            let rows = session
                .query("MATCH (n:Load {k: $k}) RETURN n.v AS v", &p)
                .expect("point read");
            assert_eq!(rows.cell(0, "v"), Some(&Value::int(k * k)), "k={k}");
        }
        OPS as f64 / t.elapsed().as_secs_f64()
    };
    let (mut on_best, mut off_best) = (0.0f64, 0.0f64);
    for round in 0..3 {
        let (on, off) = (open(true), open(false));
        // Alternate the order so warm-up drift cannot favour one side.
        let (on_qps, off_qps) = if round % 2 == 0 {
            let on_qps = point_reads_per_s(&on);
            (on_qps, point_reads_per_s(&off))
        } else {
            let off_qps = point_reads_per_s(&off);
            (point_reads_per_s(&on), off_qps)
        };
        println!("round {round}: metrics on {on_qps:.0} q/s, off {off_qps:.0} q/s");
        on_best = on_best.max(on_qps);
        off_best = off_best.max(off_qps);
    }
    let ratio = on_best / off_best;
    assert!(
        ratio >= 0.95,
        "the metrics registry may cost at most 5% of throughput \
         (on {on_best:.0} vs off {off_best:.0} q/s, ratio {ratio:.3})"
    );
}

/// The rendered exposition parses line by line: every non-comment line
/// is `name[{labels}] value` with a numeric value, and histogram
/// `_count` lines agree with their cumulative last bucket.
#[test]
fn metrics_snapshot_text_parses() {
    let db = Database::open_with(mem_cfg()).expect("open");
    seed(&db, 25);
    let mut session = db.session();
    let params = Params::new();
    for q in QUERIES {
        let warm = session.query(q, &params);
        assert_eq!(warm.is_err(), *q == BAD_PROJECTION, "warm instruments: {q}");
    }
    let snap = db.metrics_snapshot();
    assert_eq!(snap.version, db.version());
    let samples = parse_exposition(&snap.text);
    assert!(samples.get("cypher_queries_read_total").copied() >= Some(5.0));
    assert!(samples.contains_key("cypher_uptime_ms"));
    assert!(samples.contains_key("cypher_query_latency_us_sum"));
    assert_eq!(
        samples.get("cypher_query_latency_us_count"),
        samples.get("cypher_query_latency_us_bucket{le=\"+Inf\"}"),
        "histogram count must equal its +Inf cumulative bucket"
    );
}

/// Splits a Prometheus-style page into `name -> value` samples,
/// panicking on any malformed line.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unsplittable sample line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        out.insert(name.to_string(), value);
    }
    out
}

// ---------------------------------------------------------------------
// Slow-query log: threshold exactness and truthful fields.
// ---------------------------------------------------------------------

#[derive(Default)]
struct CaptureSink(Mutex<Vec<SlowQueryEntry>>);

impl SlowQuerySink for CaptureSink {
    fn record(&self, entry: &SlowQueryEntry) {
        self.0.lock().unwrap().push(entry.clone());
    }
}

#[test]
fn slow_query_log_threshold_zero_logs_everything_truthfully() {
    let mut cfg = mem_cfg();
    cfg.slow_query_ms = Some(0);
    let db = Database::open_with(cfg).expect("open");
    let sink = Arc::new(CaptureSink::default());
    db.set_slow_query_sink(Arc::clone(&sink) as Arc<dyn SlowQuerySink>);
    let params = Params::new();
    let mut session = db.session();

    session
        .query("CREATE (:P {x: 1}), (:P {x: 2})", &params)
        .expect("write");
    let t = session
        .query("MATCH (p:P) RETURN p.x ORDER BY p.x", &params)
        .expect("read");
    session.query("RETURN nosuch", &params).unwrap_err();
    session
        .query_traced("MATCH (p:P) RETURN p.x ORDER BY p.x", &params, 99)
        .expect("traced read");

    let entries = sink.0.lock().unwrap().clone();
    assert_eq!(
        entries.len(),
        4,
        "threshold 0 logs every query: {entries:?}"
    );

    let write = &entries[0];
    assert!(write.write);
    assert_eq!(write.committed_version, Some(db.version()));
    assert_eq!(write.trace_id, None);

    let read = &entries[1];
    assert!(!read.write);
    assert_eq!(read.rows, Some(t.len() as u64));
    assert_eq!(read.committed_version, None);

    let failed = &entries[2];
    assert_eq!(failed.rows, None, "failed queries log rows=err");

    let traced = &entries[3];
    assert_eq!(traced.trace_id, Some(99));
    assert_eq!(
        traced.query_hash, read.query_hash,
        "same text, same hash — that is what makes the log groupable"
    );
    assert_ne!(write.query_hash, read.query_hash);

    // The rendered line is one machine-parseable record.
    let line = traced.to_string();
    assert!(line.starts_with("slow_query "), "got: {line}");
    for key in [
        "query_hash=",
        "duration_us=",
        "rows=",
        "cache_hit=",
        "trace_id=99",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
    assert_eq!(db.metrics().slow_queries.get(), 4);
}

#[test]
fn slow_query_log_high_threshold_and_unset_stay_silent() {
    for threshold in [Some(u64::MAX), None] {
        let mut cfg = mem_cfg();
        cfg.slow_query_ms = threshold;
        let db = Database::open_with(cfg).expect("open");
        let sink = Arc::new(CaptureSink::default());
        db.set_slow_query_sink(Arc::clone(&sink) as Arc<dyn SlowQuerySink>);
        let params = Params::new();
        let mut session = db.session();
        session.query("CREATE (:P {x: 1})", &params).expect("write");
        session
            .query("MATCH (p:P) RETURN p.x", &params)
            .expect("read");
        assert!(
            sink.0.lock().unwrap().is_empty(),
            "threshold {threshold:?} must not log sub-threshold queries"
        );
        assert_eq!(db.metrics().slow_queries.get(), 0);
    }
}

/// A write's trace id survives the whole pipeline: session → pending
/// commit → group seal, where the registry witnesses it.
#[test]
fn trace_ids_are_witnessed_at_the_seal() {
    let db = Database::open_with(mem_cfg()).expect("open");
    assert_eq!(db.metrics().last_sealed_trace(), None);
    let params = Params::new();
    let mut session = db.session();
    session
        .query_traced("CREATE (:P {x: 7})", &params, 0xDEAD_BEEF)
        .expect("traced write");
    assert_eq!(db.metrics().last_sealed_trace(), Some(0xDEAD_BEEF));
    // Untraced writes do not overwrite the witness with garbage.
    session
        .query("CREATE (:P {x: 8})", &params)
        .expect("untraced write");
    assert_eq!(db.metrics().last_sealed_trace(), Some(0xDEAD_BEEF));
    // The one unrepresentable id, u64::MAX, clamps rather than erasing
    // the witness.
    session
        .query_traced("CREATE (:P {x: 9})", &params, u64::MAX)
        .expect("max-id write");
    assert_eq!(db.metrics().last_sealed_trace(), Some(u64::MAX - 1));
}

// ---------------------------------------------------------------------
// Over the wire: Metrics requests under load, PROFILE rows, trace ids.
// ---------------------------------------------------------------------

fn start_server() -> Server {
    let db = Database::open_with(mem_cfg()).expect("open");
    Server::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("bind")
}

#[test]
fn wire_metrics_page_is_monotone_and_parseable_under_load() {
    let server = start_server();
    let addr = server.local_addr();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let params = Params::new();
                for i in 0..40 {
                    if i % 8 == 0 {
                        client
                            .query(&format!("CREATE (:W {{w: {w}, i: {i}}})"), &params)
                            .expect("remote write");
                    } else {
                        client
                            .query("MATCH (n:W) RETURN count(n) AS c", &params)
                            .expect("remote read");
                    }
                }
                client.goodbye().expect("goodbye");
            })
        })
        .collect();

    let mut poller = Client::connect(addr).expect("connect poller");
    let mut last_requests = 0.0f64;
    let mut last_uptime = 0u64;
    for _ in 0..20 {
        let page = poller.metrics().expect("metrics request");
        assert!(page.uptime_ms >= last_uptime);
        last_uptime = page.uptime_ms;
        let samples = parse_exposition(&page.text);
        let requests = samples["cypher_server_requests_total"];
        assert!(
            requests >= last_requests,
            "requests counter went backwards: {requests} < {last_requests}"
        );
        last_requests = requests;
        assert!(samples["cypher_server_connections"] >= 1.0);
        assert_eq!(samples["cypher_server_frame_errors_total"], 0.0);
    }
    for w in workers {
        w.join().expect("worker");
    }
    let page = poller.metrics().expect("final metrics");
    let samples = parse_exposition(&page.text);
    // 4 workers × 40 statements, plus this poller's traffic.
    assert!(samples["cypher_server_requests_query_total"] >= 160.0);
    assert!(samples["cypher_queries_write_total"] >= 4.0 * 5.0);
    assert!(samples["cypher_server_bytes_in_total"] > 0.0);
    assert!(samples["cypher_server_bytes_out_total"] > 0.0);
    assert_eq!(page.version, server.db().version());
    poller.goodbye().expect("goodbye");
}

#[test]
fn wire_profile_returns_structured_rows_and_seal_sees_the_trace() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let params = Params::new();
    client
        .query("CREATE (:P {x: 1})-[:R]->(:Q {y: 2})", &params)
        .expect("remote write");
    // The remote write was stamped (conn_id << 32) | req_seq by the
    // server; the seal witnessed some such nonzero id.
    let sealed = server.db().metrics().last_sealed_trace();
    assert!(sealed.is_some_and(|t| t > 0), "got {sealed:?}");

    let rows = client
        .query("PROFILE MATCH (p:P)-[:R]->(q:Q) RETURN p.x, q.y", &params)
        .expect("remote profile");
    assert_eq!(
        rows.table.schema().names(),
        &["clause", "operator", "est_rows", "rows", "batches", "time_us"]
    );
    assert!(!rows.table.is_empty());
    client.goodbye().expect("goodbye");
}
