//! Differential testing of **snapshot-isolated concurrent sessions**: N
//! reader threads replay generated queries against pinned snapshots
//! while a single writer streams generated update statements, commit by
//! commit. Every reader records the version it pinned; afterwards a
//! sequential oracle replays the same deterministic statement stream and
//! re-evaluates every recorded query at exactly that reader's version.
//!
//! What must hold, for every one of ≥ 200 generated workloads:
//!
//! * **snapshot correctness** — a reader's rows are *exactly* (same row
//!   sequence) what the sequential engine produces on the oracle graph
//!   at the reader's pinned version, and a bag-equal match for the
//!   reference evaluator (the paper's denotational semantics);
//! * **no torn reads** — a reader can never observe a mid-batch state:
//!   any such observation would match no committed prefix of the
//!   statement stream and fail the oracle comparison;
//! * **repeatable reads** — re-running a query inside one read
//!   transaction returns bit-identical rows, no matter how many commits
//!   landed in between;
//! * **readers are not blocked by the writer** — reader queries complete
//!   *while a write batch is open*; the run asserts such overlapped
//!   completions were actually observed (across the whole run, so a
//!   single unlucky scheduling slice cannot flake the suite).
//!
//! Workload count is tunable via `CYPHER_CONC_WORKLOADS` (default 200,
//! the acceptance floor); reader-thread count via `CYPHER_CONC_READERS`
//! (default 3; CI runs 2 and 8). Every eighth workload runs one of the
//! other engine cells of `cypher_tck::diff::LIGHT` in turn (thread
//! counts, morsel sizes, every cycle intersected), the rest the built-in
//! cell; failure messages name the cell.

use cypher::workload::{harness_knob, harness_override, QueryGenerator};
use cypher::{
    run_read_with, run_reference, run_with, Database, EngineConfig, MatchConfig, Params,
    PropertyGraph, Table,
};
use cypher_tck::diff::{config, Cell, LIGHT};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

fn workload_count() -> u64 {
    harness_knob("CYPHER_CONC_WORKLOADS", 200, 0)
}

fn reader_count() -> usize {
    harness_knob("CYPHER_CONC_READERS", 3, 1) as usize
}

/// The engine configuration of both the live database and the oracle at
/// `cell`. The plan cache is disabled so every query is planned freshly against
/// the statistics of its own snapshot — that makes *row order* (not just
/// the multiset) a pure function of the pinned version, which is what
/// the exact-sequence assertion needs. Plan-cache sharing across
/// sessions has its own suite (`tests/plan_cache.rs`).
fn conc_cfg(cell: Cell) -> EngineConfig {
    EngineConfig {
        persistence: None,
        plan_cache_size: 0,
        ..config(cell, MatchConfig::default())
    }
}

/// One reader observation: the pinned version, the query, and what the
/// session returned (errors by message — both sides must agree on those
/// too).
struct Observation {
    version: u64,
    query: String,
    outcome: Result<Table, String>,
}

/// Replays `seeds` then a growing prefix of `updates` on a fresh graph,
/// re-evaluating each observation at its pinned version. `prefix_of`
/// maps a published version to the statement prefix that produced it.
fn check_against_oracle(
    label: &str,
    seeds: &[String],
    updates: &[String],
    prefix_of: &HashMap<u64, usize>,
    mut observations: Vec<Observation>,
    params: &Params,
    cfg: &EngineConfig,
) {
    observations.sort_by_key(|o| o.version);
    let mut oracle = PropertyGraph::new();
    for s in seeds {
        run_with(&mut oracle, s, params, cfg)
            .unwrap_or_else(|e| panic!("{label}: oracle seed failed on {s}: {e}"));
    }
    let mut applied = 0usize;
    for obs in &observations {
        let need = *prefix_of.get(&obs.version).unwrap_or_else(|| {
            panic!(
                "{label}: reader pinned version {} which no commit ever published — \
                 a torn or invented state",
                obs.version
            )
        });
        while applied < need {
            run_with(&mut oracle, &updates[applied], params, cfg).unwrap_or_else(|e| {
                panic!("{label}: oracle update failed on {}: {e}", updates[applied])
            });
            applied += 1;
        }
        match &obs.outcome {
            Ok(table) => {
                // Exact row sequence vs the sequential engine at the
                // pinned version (the engine's output is deterministic
                // per version, independent of threads/morsels).
                let seq = run_read_with(&oracle, &obs.query, params, cfg).unwrap_or_else(|e| {
                    panic!(
                        "{label}: oracle engine errored where the reader succeeded \
                         on {} at v{}: {e}",
                        obs.query, obs.version
                    )
                });
                assert!(
                    table.ordered_eq(&seq),
                    "{label}: reader rows diverge from the sequential oracle \
                     on {} at v{}\nreader:\n{table}\noracle:\n{seq}",
                    obs.query,
                    obs.version
                );
                // And the reference semantics agree on the multiset.
                let reference = run_reference(&oracle, &obs.query, params)
                    .unwrap_or_else(|e| panic!("{label}: reference failed on {}: {e}", obs.query));
                assert!(
                    table.bag_eq(&reference),
                    "{label}: reader diverges from the reference oracle on {} at v{}\
                     \nreader:\n{table}\nreference:\n{reference}",
                    obs.query,
                    obs.version
                );
            }
            Err(msg) => {
                let oracle_err = run_read_with(&oracle, &obs.query, params, cfg)
                    .err()
                    .unwrap_or_else(|| {
                        panic!(
                            "{label}: reader errored ({msg}) but the oracle succeeded \
                             on {} at v{}",
                            obs.query, obs.version
                        )
                    });
                assert_eq!(
                    msg,
                    &oracle_err.to_string(),
                    "{label}: error drift on {} at v{}",
                    obs.query,
                    obs.version
                );
            }
        }
    }
}

/// Runs one generated workload; returns how many reader queries were
/// observed to complete while a write batch was open.
fn run_workload(seed: u64, readers: usize, params: &Params) -> usize {
    // Every eighth workload takes the next of the other cells of `LIGHT`;
    // the rest run the built-in cell. Readers cycle until the writer is
    // done, so a slower cell also means more observations to replay.
    let others = &LIGHT[1..];
    let cell = match seed % 8 {
        7 => others[(seed / 8) as usize % others.len()],
        _ => LIGHT[0],
    };
    let label = format!("workload {seed} at {cell:?}");
    let cfg = conc_cfg(cell);

    // Deterministic statement streams: a seeding prefix, then the
    // concurrent update stream. One mid-stream statement is a *bulk*
    // batch (thousands of rows in one transaction), so every workload
    // has a write window wide enough for readers to visibly complete
    // inside it even on a single-core machine.
    let mut gen = QueryGenerator::new(seed);
    let seeds: Vec<String> = (0..8).map(|_| gen.next_update()).collect();
    let mut updates: Vec<String> = (0..10).map(|_| gen.next_update()).collect();
    updates.insert(
        5,
        format!(
            "UNWIND range(1, 800) AS b CREATE (:A {{i: {}, v: 7, bulk: b}})",
            20_000 + (seed % 1000)
        ),
    );
    // Per-reader query streams (disjoint generator seeds). Readers
    // cycle their stream until the writer finishes, so observations
    // spread across the whole version history.
    let query_streams: Vec<Vec<String>> = (0..readers)
        .map(|r| {
            let mut qg = QueryGenerator::new(seed.wrapping_mul(31).wrapping_add(r as u64 + 1));
            (0..4).map(|_| qg.next_query()).collect()
        })
        .collect();

    let db = Database::open_with(cfg.clone()).expect("in-memory open");
    let mut seeder = db.session();
    for s in &seeds {
        seeder
            .query(s, params)
            .unwrap_or_else(|e| panic!("{label}: seed statement failed on {s}: {e}"));
    }
    let base_version = db.version();

    // version → number of update statements applied when it was
    // published. Statements that mutate nothing publish nothing; a later
    // entry overwriting the same version is therefore content-identical.
    let commit_log: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
    let writer_busy = AtomicBool::new(false);
    let writer_done = AtomicBool::new(false);
    let overlapped = AtomicUsize::new(0);
    let barrier = Barrier::new(readers + 1);

    let mut writer_session = db.session();
    let reader_sessions: Vec<_> = (0..readers).map(|_| db.session()).collect();

    let observations: Vec<Observation> = std::thread::scope(|sc| {
        let commit_log = &commit_log;
        let writer_busy = &writer_busy;
        let writer_done = &writer_done;
        let overlapped = &overlapped;
        let barrier = &barrier;
        let updates = &updates;

        let writer = sc.spawn(move || {
            barrier.wait();
            for (i, stmt) in updates.iter().enumerate() {
                writer_busy.store(true, Ordering::SeqCst);
                writer_session
                    .query(stmt, params)
                    .unwrap_or_else(|e| panic!("update statement failed on {stmt}: {e}"));
                writer_busy.store(false, Ordering::SeqCst);
                let v = writer_session.snapshot().version();
                commit_log.lock().unwrap().push((v, i));
            }
            writer_done.store(true, Ordering::SeqCst);
        });

        let handles: Vec<_> = reader_sessions
            .into_iter()
            .zip(&query_streams)
            .map(|(mut session, queries)| {
                sc.spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    let mut round = 0usize;
                    // At least one full pass; then keep cycling while
                    // the writer is still committing (bounded).
                    while round == 0 || (!writer_done.load(Ordering::SeqCst) && round < 16) {
                        for q in queries {
                            let version = session.begin_read();
                            let first = session.query(q, params).map_err(|e| e.to_string());
                            // The writer never holds a lock a reader
                            // needs: a query completing while the flag
                            // is up just finished *inside* an open
                            // write batch.
                            if writer_busy.load(Ordering::SeqCst) {
                                overlapped.fetch_add(1, Ordering::Relaxed);
                            }
                            // Repeatable reads: same pin, same rows —
                            // no matter what committed meanwhile.
                            let again = session.query(q, params).map_err(|e| e.to_string());
                            match (&first, &again) {
                                (Ok(a), Ok(b)) => assert!(
                                    a.ordered_eq(b),
                                    "read transaction at v{version} was not repeatable on {q}\
                                     \nfirst:\n{a}\nagain:\n{b}"
                                ),
                                (a, b) => assert_eq!(
                                    a.as_ref().err(),
                                    b.as_ref().err(),
                                    "repeatable-read error drift on {q}"
                                ),
                            }
                            session.commit();
                            out.push(Observation {
                                version,
                                query: q.clone(),
                                outcome: first,
                            });
                        }
                        round += 1;
                    }
                    out
                })
            })
            .collect();

        writer.join().expect("writer thread");
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect()
    });

    // Every pinned version must be a published one.
    let mut prefix_of: HashMap<u64, usize> = HashMap::new();
    prefix_of.insert(base_version, 0);
    for (v, i) in commit_log.into_inner().unwrap() {
        prefix_of.insert(v, i + 1);
    }

    check_against_oracle(
        &label,
        &seeds,
        &updates,
        &prefix_of,
        observations,
        params,
        &cfg,
    );
    overlapped.load(Ordering::Relaxed)
}

#[test]
fn concurrent_readers_match_the_sequential_oracle_at_their_pinned_versions() {
    let params = Params::new();
    let readers = reader_count();
    let n = workload_count();
    // CYPHER_TEST_SEED replays exactly one workload seed (the failure
    // messages name it as `workload <seed>`); default sweeps the range.
    let workload_seeds: Vec<u64> = match harness_override("CYPHER_TEST_SEED", 0) {
        Some(seed) => {
            eprintln!("CYPHER_TEST_SEED={seed}: replaying a single workload");
            vec![seed]
        }
        None => (0..n).map(|w| 0xC0FFEE + w).collect(),
    };
    let mut overlapped_total = 0usize;
    for seed in workload_seeds {
        overlapped_total += run_workload(seed, readers, &params);
    }
    // Readers must actually have proceeded during open write batches.
    // Asserted across the whole run: per-workload scheduling on a small
    // machine can legitimately serialize a single round.
    assert!(
        overlapped_total > 0,
        "no reader query ever completed while a write batch was open \
         ({n} workloads × {readers} readers) — readers appear to be \
         blocked by the writer"
    );
}

/// A reader holding one pinned snapshot across a long streak of commits:
/// the view must stay frozen (same rows, same version) from first to
/// last, while an unpinned session tracks the head.
#[test]
fn long_pin_stays_frozen_under_write_pressure() {
    let params = Params::new();
    let db = Database::open_with(conc_cfg(LIGHT[0])).expect("in-memory open");
    let mut writer = db.session();
    let mut pinned = db.session();
    let mut head = db.session();
    writer.query("CREATE (:A {v: 0})", &params).unwrap();
    let v = pinned.begin_read();
    let frozen = pinned
        .query("MATCH (n:A) RETURN n.v AS v ORDER BY v", &params)
        .unwrap();
    for i in 1..=150 {
        writer
            .query(&format!("CREATE (:A {{v: {i}}})"), &params)
            .unwrap();
        if i % 25 == 0 {
            let again = pinned
                .query("MATCH (n:A) RETURN n.v AS v ORDER BY v", &params)
                .unwrap();
            assert!(
                again.ordered_eq(&frozen),
                "pinned view drifted at commit {i}"
            );
            assert_eq!(pinned.version(), Some(v));
            let now = head
                .query("MATCH (n:A) RETURN count(*) AS c", &params)
                .unwrap();
            assert_eq!(
                format!("{:?}", now.cell(0, "c").unwrap()),
                format!("Integer({})", i + 1),
                "unpinned session must track the latest version"
            );
        }
    }
    assert_eq!(db.version(), 151);
}

/// A writer holds a **single write batch open** (one multi-clause query
/// over a large `UNWIND`) while readers pin snapshots, finish queries
/// and release, repeatedly — demonstrating that reader admission never
/// waits on the writer's in-flight transaction.
#[test]
fn readers_complete_while_one_write_batch_is_open() {
    let params = Params::new();
    let db = Database::open_with(conc_cfg(LIGHT[0])).expect("in-memory open");
    let mut seeder = db.session();
    seeder.query("CREATE (:Seed {v: 1})", &params).unwrap();
    let base = db.version();

    let started = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let mut writer = db.session();
    let mut reader = db.session();

    let params = &params;
    std::thread::scope(|sc| {
        let started = &started;
        let done = &done;
        let w = sc.spawn(move || {
            started.store(true, Ordering::SeqCst);
            // One query = one write batch: thousands of CREATEs inside a
            // single open transaction.
            writer
                .query("UNWIND range(1, 20000) AS i CREATE (:Bulk {i: i})", params)
                .unwrap();
            done.store(true, Ordering::SeqCst);
        });
        // Readers run until the writer finishes; every query that
        // completes after `started` and before `done` completed while
        // the batch was open.
        let mut completed_during_batch = 0usize;
        let mut spins = 0usize;
        while !done.load(Ordering::SeqCst) {
            let v = reader.begin_read();
            let t = reader
                .query("MATCH (n:Bulk) RETURN count(*) AS c", params)
                .unwrap();
            let still_open = started.load(Ordering::SeqCst) && !done.load(Ordering::SeqCst);
            reader.commit();
            // The batch is all-or-nothing: either the pre-batch version
            // (no Bulk nodes) or the committed one (all 20000) — any
            // other count is a torn mid-batch observation.
            let count = format!("{:?}", t.cell(0, "c").unwrap());
            match v {
                v if v == base => assert_eq!(count, "Integer(0)", "torn state at v{v}"),
                v if v == base + 1 => assert_eq!(count, "Integer(20000)", "torn state at v{v}"),
                other => panic!("reader pinned unpublished version {other}"),
            }
            // Completing a pre-batch read while the writer is still
            // inside its transaction is exactly "a reader proceeding
            // while a write batch is open".
            if v == base && still_open {
                completed_during_batch += 1;
            }
            spins += 1;
            if spins > 5_000_000 {
                panic!("writer never finished; readers starved it?");
            }
        }
        w.join().unwrap();
        assert!(
            completed_during_batch > 0,
            "no reader query completed inside the open write batch"
        );
    });

    // The batch became visible atomically.
    assert_eq!(db.version(), base + 1);
    let mut check = db.session();
    let t = check
        .query("MATCH (n:Bulk) RETURN count(*) AS c", params)
        .unwrap();
    assert_eq!(format!("{:?}", t.cell(0, "c").unwrap()), "Integer(20000)");
}
