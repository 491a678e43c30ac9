//! Differential testing of the **multi-writer commit pipeline** (group
//! commit): N writer threads race generated update streams through one
//! database — their transactions coalesce into shared WAL seals — while
//! M reader threads pin snapshots at arbitrary moments mid-flight.
//! Afterwards `cypher_tck::diff`'s `Diff::at_versions` replays the
//! *committed* statements in published-commit order (each writer
//! records [`cypher::Session::last_commit_version`] per statement;
//! commit version order **is** the serialization order, because write
//! execution is serialized by the apply lock and versions are assigned
//! at admission).
//!
//! What must hold, for every generated workload and every knob cell
//! (`EngineConfig::group_commit` on/off × `FsyncMode` os/sync, set by
//! the tests themselves × 2–8 writers; workloads take the engine cells
//! of `cypher_tck::diff::LIGHT` in turn):
//!
//! * **serializability witness** — the final graph is bit-identical
//!   (canonical dump, indexes included) to the replay of the committed
//!   statements in version order, and every statement's success/error
//!   outcome matches the replay's at the same position;
//! * **dense, monotone versions** — the committed versions of all
//!   writers interleaved are exactly `base+1 ..= base+k`, no gaps
//!   (a lost or double-published group would tear this);
//! * **snapshot reads under write contention** — a reader pinned at
//!   version `v` sees exactly the replay's state after the
//!   version-`≤ v` prefix: group commit publishes one version per
//!   group, so a reader can never observe a mid-group state;
//! * **durable modes survive reopen** — under `sync` the recovered
//!   graph equals the replay, batch-for-batch;
//! * **fsync faults poison exactly their group** — with an injected
//!   flush failure, every statement is accounted for (acknowledged ∪
//!   errored = all), acknowledged commits form a dense prefix, and both
//!   the live graph and the reopened graph equal the oracle of exactly
//!   that prefix (memory never diverges from disk).
//!
//! Workload count is tunable via `CYPHER_WRITER_WORKLOADS` (default 40);
//! writer threads via `CYPHER_CONC_WRITERS` (default 4; CI runs 2 and
//! 8); reader threads via `CYPHER_CONC_READERS` (default 2).
//! `CYPHER_TEST_SEED=<n>` replays exactly one seed — failure messages
//! name the seed that minted the workload.

use cypher::workload::{harness_knob, random_queries, random_updates};
use cypher::{run_with, Database, EngineConfig, FsyncMode, Params, PropertyGraph};
use cypher_tck::diff::{live, seeds, Cell, Commit, Diff, History, Observation, LIGHT};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

fn workload_count() -> u64 {
    harness_knob("CYPHER_WRITER_WORKLOADS", 40, 0)
}

fn writer_count() -> usize {
    harness_knob("CYPHER_CONC_WRITERS", 4, 1) as usize
}

fn reader_count() -> usize {
    harness_knob("CYPHER_CONC_READERS", 2, 1) as usize
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cypher-writers-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The engine cell of workload `seed`: the cells of `LIGHT` in turn.
fn cell(seed: u64) -> Cell {
    LIGHT[seed as usize % LIGHT.len()]
}

/// Runs one multi-writer workload against `cfg` and proves it against
/// the sequential oracle. When `cfg.persistence` is set, also closes,
/// reopens and proves the recovered state.
fn run_workload(seed: u64, writers: usize, readers: usize, cfg: &EngineConfig, params: &Params) {
    let label = format!("workload {seed} at {:?}", cell(seed));

    // Deterministic statement streams: a seeding prefix every side
    // agrees on, then one disjoint update stream per writer.
    let seed_stmts = random_updates(6, seed);
    let streams: Vec<Vec<String>> = (0..writers as u64)
        .map(|w| random_updates(10, seed.wrapping_mul(131).wrapping_add(w + 1)))
        .collect();
    let query_streams: Vec<Vec<String>> = (0..readers as u64)
        .map(|r| random_queries(3, seed.wrapping_mul(31).wrapping_add(777 + r)))
        .collect();

    let db =
        Database::open_with(cfg.clone()).unwrap_or_else(|e| panic!("{label}: open failed: {e}"));
    let mut seeder = db.session();
    for s in &seed_stmts {
        seeder
            .query(s, params)
            .unwrap_or_else(|e| panic!("{label}: seed statement failed on {s}: {e}"));
    }
    let base = db.version();

    let committed: Mutex<Vec<Commit>> = Mutex::new(Vec::new());
    let writers_done = AtomicBool::new(false);
    let barrier = Barrier::new(writers + readers);
    let writer_sessions: Vec<_> = (0..writers).map(|_| db.session()).collect();
    let reader_sessions: Vec<_> = (0..readers).map(|_| db.session()).collect();

    let observations: Vec<Observation> = std::thread::scope(|sc| {
        let (committed, writers_done, barrier, label) =
            (&committed, &writers_done, &barrier, &label);
        let write_handles: Vec<_> = writer_sessions
            .into_iter()
            .zip(&streams)
            .map(|(mut session, stream)| {
                sc.spawn(move || {
                    barrier.wait();
                    for stmt in stream {
                        let ok = session.query(stmt, params).is_ok();
                        // A statement that commits nothing must not have
                        // mutated anything — only a clean no-op (e.g. SET
                        // on an empty MATCH) or a query that errored
                        // before its first mutation.
                        if let Some(version) = session.last_commit_version() {
                            let stmt = stmt.clone();
                            committed.lock().unwrap().push(Commit { version, stmt, ok });
                        }
                    }
                })
            })
            .collect();

        let read_handles: Vec<_> = reader_sessions
            .into_iter()
            .zip(&query_streams)
            .map(|(mut session, queries)| {
                sc.spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    let mut round = 0usize;
                    while round == 0 || (!writers_done.load(Ordering::SeqCst) && round < 16) {
                        for q in queries {
                            let version = session.begin_read();
                            out.push(Observation::new(version, q, session.query(q, params)));
                            session.commit();
                        }
                        round += 1;
                    }
                    out
                })
            })
            .collect();

        for h in write_handles {
            h.join()
                .unwrap_or_else(|_| panic!("{label}: writer thread panicked"));
        }
        writers_done.store(true, Ordering::SeqCst);
        read_handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("{label}: reader thread panicked"))
            })
            .collect()
    });

    let history = History {
        cell: cell(seed),
        seeds: seed_stmts,
        base,
        commits: committed.into_inner().unwrap(),
    };
    let total = base + history.commits.len() as u64;
    assert_eq!(
        db.version(),
        total,
        "{label}: published head disagrees with the acknowledged commits"
    );
    let final_dump = Diff::new(LIGHT)
        .at_versions(&history, &observations)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .canonical_dump();
    assert_eq!(
        db.graph().canonical_dump(),
        final_dump,
        "{label}: final state diverged from the version-order replay"
    );

    // Durable cells: the WAL must reconstruct the same state, batch for
    // batch, across a clean close/reopen.
    if let Some(dir) = &cfg.persistence {
        assert_eq!(db.batches_committed(), Some(total), "{label}");
        db.close()
            .unwrap_or_else(|e| panic!("{label}: close failed: {e}"));
        let db2 = Database::open_with(cfg.clone())
            .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
        assert_eq!(
            db2.recovery().batches_replayed,
            total,
            "{label}: reopen lost or invented batches"
        );
        assert_eq!(
            db2.graph().canonical_dump(),
            final_dump,
            "{label}: recovered state diverged from the oracle"
        );
        drop(db2);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn racing_writers_serialize_to_the_oracle_in_commit_version_order() {
    let params = Params::new();
    let writers = writer_count();
    let readers = reader_count();
    for seed in seeds(workload_count()) {
        run_workload(seed, writers, readers, &live(cell(seed)), &params);
    }
}

#[test]
fn serial_commit_mode_matches_the_oracle_too() {
    // `group_commit = false` drives the same protocol with groups of
    // one — the serial baseline must be just as correct under writer
    // contention.
    let params = Params::new();
    for seed in seeds(8) {
        let mut cfg = live(cell(seed));
        cfg.group_commit = false;
        run_workload(seed, writer_count(), reader_count(), &cfg, &params);
    }
}

#[test]
fn durable_multi_writer_runs_survive_reopen_in_every_fsync_mode() {
    // `sync` is the one mode that flushes per group; `os` is the
    // recovery suite's default diet.
    let params = Params::new();
    for seed in seeds(4) {
        let dir = fresh_dir(&format!("durable-sync-{seed}"));
        let mut cfg = live(cell(seed));
        cfg.persistence = Some(dir);
        cfg.fsync_mode = FsyncMode::Sync;
        run_workload(seed, writer_count(), reader_count(), &cfg, &params);
    }
}

#[test]
fn fsync_fault_poisons_followers_and_keeps_the_durable_prefix() {
    // Deterministic fault schedule: a sequential prefix commits and
    // flushes cleanly, then one injected flush failure is armed — the
    // first concurrent group hits it, and every concurrent statement
    // must fail (its own group's flush error, or the poison). The
    // durable prefix, the live graph and the reopened graph must all be
    // exactly the pre-fault oracle state.
    let params_owned = Params::new();
    let params = &params_owned;
    for seed in seeds(6) {
        let label = format!("workload {seed} at {:?}", cell(seed));
        let dir = fresh_dir(&format!("fault-{seed}"));
        let mut cfg = live(cell(seed));
        cfg.persistence = Some(dir.clone());
        cfg.fsync_mode = FsyncMode::Sync;

        let prefix = random_updates(8, seed);
        let streams: Vec<Vec<String>> = (0..writer_count() as u64)
            .map(|w| random_updates(6, seed.wrapping_mul(97).wrapping_add(w + 1)))
            .collect();

        let db = Database::open_with(cfg.clone()).unwrap();
        let mut oracle = PropertyGraph::new();
        let mut seeder = db.session();
        for s in &prefix {
            seeder
                .query(s, params)
                .unwrap_or_else(|e| panic!("{label}: prefix failed on {s}: {e}"));
            run_with(&mut oracle, s, params, &cfg)
                .unwrap_or_else(|e| panic!("{label}: oracle prefix failed on {s}: {e}"));
        }
        let durable_versions = db.version();
        let durable_dump = oracle.canonical_dump();
        std::env::set_var("CYPHER_TEST_FAULTS", "1");
        assert!(
            db.inject_fsync_failures(1),
            "fault injection arms under CYPHER_TEST_FAULTS"
        );

        let total: usize = streams.iter().map(|s| s.len()).sum();
        let failed = Mutex::new(0usize);
        std::thread::scope(|sc| {
            for stream in &streams {
                let mut session = db.session();
                let failed = &failed;
                let label = &label;
                sc.spawn(move || {
                    for stmt in stream {
                        match session.query(stmt, params) {
                            // A clean no-op (MATCH bound nothing) seals
                            // nothing and may still succeed — but it
                            // must not claim a commit.
                            Ok(_) => assert_eq!(
                                session.last_commit_version(),
                                None,
                                "{label}: a post-fault write was acknowledged: {stmt}"
                            ),
                            Err(e) => {
                                let msg = e.to_string();
                                assert!(
                                    msg.contains("fsync")
                                        || msg.contains("read-only after a failed WAL commit"),
                                    "{label}: unexpected failure class on {stmt}: {msg}"
                                );
                                assert_eq!(
                                    session.last_commit_version(),
                                    None,
                                    "{label}: a failed statement claims a commit version"
                                );
                                *failed.lock().unwrap() += 1;
                            }
                        }
                    }
                });
            }
        });
        // Accounting: every statement either errored or was a committed
        // no-op — nothing mutating got through (each spawn asserted
        // that), and the armed fault actually fired.
        let failed = *failed.lock().unwrap();
        assert!(
            failed > 0 && failed <= total,
            "{label}: the injected fault never fired ({failed}/{total} errors)"
        );
        // Memory never ran ahead of disk: the published head is still
        // the durable prefix.
        assert_eq!(db.version(), durable_versions, "{label}");
        assert_eq!(
            db.graph().canonical_dump(),
            durable_dump,
            "{label}: live graph diverged from the durable prefix"
        );
        drop(seeder); // sessions keep the store (and its dir lock) alive
        drop(db);

        let mut reopen_cfg = cfg.clone();
        reopen_cfg.fsync_mode = FsyncMode::Os;
        let db2 = Database::open_with(reopen_cfg).unwrap();
        assert_eq!(
            db2.recovery().batches_replayed,
            durable_versions,
            "{label}: the WAL kept more (or less) than the pre-fault groups"
        );
        assert_eq!(
            db2.graph().canonical_dump(),
            durable_dump,
            "{label}: recovered state diverged from the pre-fault oracle"
        );
        drop(db2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
