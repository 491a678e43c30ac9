//! Differential testing of **snapshot-isolated concurrent sessions**: N
//! reader threads pin snapshots at seed-chosen steps of a single writer's
//! generated update stream and run generated queries, each twice, while
//! the writer goes on committing. `cypher_tck::diff`'s
//! `Diff::at_versions` then replays the stream once and proves every
//! observation at its pinned version.
//!
//! What must hold, for every one of 200 generated workloads:
//!
//! * **snapshot correctness** — a reader's rows are *exactly* (same row
//!   sequence) what the sequential engine produces on the replayed graph
//!   at the reader's pinned version, and that engine keeps the
//!   differential contract with the reference evaluator (the paper's
//!   denotational semantics);
//! * **no torn reads** — a pinned version is a published one, and a
//!   mid-batch state would match no committed prefix of the stream;
//! * **repeatable reads** — both runs of a query inside one read
//!   transaction return the same rows, however many commits landed in
//!   between.
//!
//! The schedule makes the run replayable: each reader pins at [`PINS`]
//! seed-chosen steps of the update stream, and the writer starts
//! statement *i* only once every reader scheduled at step *i* has
//! pinned. Which version each read sees is a pure function of (seed,
//! cell), and on correct code so is the whole observation list, while
//! the queries still race the commits that follow their pin. That readers
//! finish while a write batch is open is the wall-clock test
//! `readers_complete_while_one_write_batch_is_open`.
//!
//! Workload count is tunable via `CYPHER_CONC_WORKLOADS` (default 200,
//! the acceptance floor); reader-thread count via `CYPHER_CONC_READERS`
//! (default 3; CI runs 2 and 8); `CYPHER_TEST_SEED=<n>` replays exactly
//! one workload, and failure messages name it. Every eighth workload
//! runs one of the other engine cells of `cypher_tck::diff::LIGHT` in
//! turn (thread counts, morsel sizes, every cycle intersected), the rest
//! the built-in cell; failure messages name the cell.

use cypher::workload::{harness_knob, random_queries, random_updates};
use cypher::{Database, Params};
use cypher_tck::diff::{live, seeds, Cell, Commit, Diff, History, Observation, LIGHT};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn workload_count() -> u64 {
    harness_knob("CYPHER_CONC_WORKLOADS", 200, 0)
}

fn reader_count() -> usize {
    harness_knob("CYPHER_CONC_READERS", 3, 1) as usize
}

/// The pins each reader takes: one in each third of the update stream.
const PINS: usize = 3;

/// Who pins when. Reader `r` pins at the steps `pins[r]` of the update
/// stream. At step *i* the writer, having run statements `0..i`, meets
/// the readers scheduled there at `steps[i]` twice, once before they pin
/// and once after, and only then starts statement *i*.
struct Schedule {
    pins: Vec<Vec<usize>>,
    steps: Vec<Barrier>,
}

impl Schedule {
    /// The schedule of workload `seed` for `readers` over `statements`
    /// statements: reader `r`'s `k`-th pin falls at a seed-chosen step of
    /// the `k`-th of [`PINS`] near-equal strata of `0..statements`. Every
    /// pin precedes a statement, so every read races a later commit.
    fn new(seed: u64, readers: usize, statements: usize) -> Schedule {
        let step = |r: usize, k: usize| {
            let (lo, hi) = (k * statements / PINS, (k + 1) * statements / PINS);
            let h = (seed << 16 ^ (r * PINS + k) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            lo + (h >> 40) as usize % (hi - lo)
        };
        let pins: Vec<Vec<usize>> = (0..readers)
            .map(|r| (0..PINS).map(|k| step(r, k)).collect())
            .collect();
        let pinned_at = |i| pins.iter().flatten().filter(|&&s| s == i).count();
        let steps = (0..statements).map(|i| Barrier::new(1 + pinned_at(i)));
        let steps = steps.collect();
        Schedule { pins, steps }
    }
}

/// The cell of workload `seed`: every eighth workload takes the next of
/// the other cells of `LIGHT`, the rest run the built-in cell.
fn cell(seed: u64) -> Cell {
    let others = &LIGHT[1..];
    match seed % 8 {
        7 => others[(seed / 8) as usize % others.len()],
        _ => LIGHT[0],
    }
}

/// Runs workload `seed` with `readers` readers on its schedule: its
/// history, its observations and the database it ran on.
fn run(seed: u64, readers: usize, params: &Params) -> (History, Vec<Observation>, Database) {
    let label = format!("workload {seed} at {:?}", cell(seed));
    // Deterministic statement streams: a seeding prefix, then the
    // concurrent update stream, which ends in a *bulk* batch (800 rows in
    // one transaction): the readers pinned at its step race the widest
    // write window, and the final dump comparison checks what it wrote.
    let mut updates = random_updates(18, seed);
    let seeds: Vec<String> = updates.drain(..8).collect();
    updates.push(format!(
        "UNWIND range(1, 800) AS b CREATE (:A {{i: {}, v: 7, bulk: b}})",
        20_000 + (seed % 1000)
    ));
    // Per-reader query streams (disjoint generator seeds), run at
    // every pin.
    let query_streams: Vec<Vec<String>> = (0..readers as u64)
        .map(|r| random_queries(4, seed.wrapping_mul(31).wrapping_add(r + 1)))
        .collect();

    let db = Database::open_with(live(cell(seed))).expect("in-memory open");
    let mut seeder = db.session();
    for s in &seeds {
        seeder
            .query(s, params)
            .unwrap_or_else(|e| panic!("{label}: seed statement failed on {s}: {e}"));
    }
    let base = db.version();
    let schedule = Schedule::new(seed, readers, updates.len());
    let mut writer = db.session();
    let reader_sessions: Vec<_> = (0..readers).map(|_| db.session()).collect();

    let (commits, observations) = std::thread::scope(|sc| {
        let (schedule, updates) = (&schedule, &updates);
        // Neither side may die while the other waits at a step: the
        // writer records a failed statement and reports it after the
        // join, and a reader records a panicking query as an error.
        let writer = sc.spawn(move || {
            let (mut commits, mut failed) = (Vec::new(), Vec::new());
            for (stmt, meet) in updates.iter().zip(&schedule.steps) {
                meet.wait();
                meet.wait();
                let ok = writer.query(stmt, params).is_ok();
                let stmt = stmt.clone();
                match writer.last_commit_version() {
                    Some(version) => commits.push(Commit { version, stmt, ok }),
                    None if !ok => failed.push(stmt),
                    None => {}
                }
            }
            (commits, failed)
        });
        let handles: Vec<_> = reader_sessions
            .into_iter()
            .zip(&query_streams)
            .zip(&schedule.pins)
            .map(|((mut session, queries), steps)| {
                sc.spawn(move || {
                    let mut out = Vec::new();
                    for &step in steps {
                        schedule.steps[step].wait();
                        let version = session.begin_read();
                        schedule.steps[step].wait();
                        for q in queries.iter().flat_map(|q| [q, q]) {
                            let run = || session.query(q, params).map_err(|e| e.to_string());
                            let outcome = catch_unwind(AssertUnwindSafe(run));
                            let outcome = outcome.unwrap_or_else(|_| Err("panicked".into()));
                            out.push(Observation::new(version, q, outcome));
                        }
                        session.commit();
                    }
                    out
                })
            })
            .collect();
        let (commits, failed) = writer.join().expect("writer thread");
        assert!(failed.is_empty(), "{label}: updates failed: {failed:?}");
        let observations = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"));
        (commits, observations.collect())
    });
    let history = History {
        cell: cell(seed),
        seeds,
        base,
        commits,
    };
    (history, observations, db)
}

#[test]
fn concurrent_readers_match_the_sequential_oracle_at_their_pinned_versions() {
    let params = Params::new();
    let readers = reader_count();
    let mut pairs = 0;
    for seed in seeds(workload_count()) {
        let (history, observations, db) = run(seed, readers, &params);
        let label = format!("workload {seed} at {:?}", history.cell);
        let replayed = Diff::new(LIGHT)
            .at_versions(&history, &observations)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            db.graph().canonical_dump(),
            replayed.canonical_dump(),
            "{label}: the head diverged from the replayed stream"
        );
        let distinct: HashSet<_> = observations.iter().map(|o| (o.version, &o.query)).collect();
        pairs += distinct.len();
    }
    eprintln!("{pairs} distinct (version, query) pairs checked");
}

/// The schedule fixes every read's version, so one seed's observation
/// list — versions, queries and rows — is the same on every run.
#[test]
fn one_seed_replays_the_same_observations() {
    let params = Params::new();
    // Workload 15 runs four threads over one-row morsels.
    let ((h, a, _), (_, b, _)) = (run(15, 3, &params), run(15, 3, &params));
    assert_eq!(h.cell, (cypher_tck::diff::Policy::Builtin, 4, 1));
    assert!(a == b);
    assert_eq!(a.len(), 3 * PINS * 4 * 2);
}

/// A reader holding one pinned snapshot across a long streak of commits:
/// the view must stay frozen (same rows, same version) from first to
/// last, while an unpinned session tracks the head.
#[test]
fn long_pin_stays_frozen_under_write_pressure() {
    let params = Params::new();
    let db = Database::open_with(live(LIGHT[0])).expect("in-memory open");
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
    let db = Database::open_with(live(LIGHT[0])).expect("in-memory open");
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
