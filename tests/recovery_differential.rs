//! Differential testing of the **durable storage engine**, in the style
//! the morsel executor was verified (`tests/parallel_differential.rs`):
//! a grammar-driven random workload of mixed reads and updates runs
//! simultaneously against an in-memory oracle graph and a persistent
//! [`Database`], then the write-ahead log is killed at **every record
//! boundary and mid-record** and reopened. Each kill point must recover
//! exactly the oracle's state after the corresponding committed batch
//! prefix — entities, adjacency, statistics *and* all three index
//! families, compared through [`PropertyGraph::canonical_dump`], which
//! renders index posting lists verbatim (so "bit-identical indexes" is
//! literally asserted, not approximated by query sampling).
//!
//! Workload count is tunable via `CYPHER_RECOVERY_WORKLOADS` (default
//! 200, the acceptance floor). `CYPHER_TEST_SEED=<n>` replays exactly
//! one seed — every failure message names the seed it was minted from,
//! so a red CI line reproduces locally with one env var.

use cypher::storage::wal;
use cypher::workload::{harness_knob, harness_override, QueryGenerator};
use cypher::{Change, Database, EngineConfig, Params, PropertyGraph, SharedChangeBuffer, Store};
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cypher-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_cfg(dir: &Path, compact_bytes: u64) -> EngineConfig {
    EngineConfig {
        persistence: Some(dir.to_path_buf()),
        wal_compact_bytes: compact_bytes,
        ..EngineConfig::default()
    }
}

/// One mixed workload: two update statements for every read query, drawn
/// from the same deterministic generator both sides replay.
fn workload(seed: u64, len: usize) -> Vec<String> {
    let mut gen = QueryGenerator::new(seed);
    (0..len)
        .map(|i| {
            if i % 3 == 2 {
                gen.next_query()
            } else {
                gen.next_update()
            }
        })
        .collect()
}

fn workload_count() -> u64 {
    harness_knob("CYPHER_RECOVERY_WORKLOADS", 200, 0)
}

/// The seeds a differential test sweeps: `0..n`, or exactly the one
/// named by `CYPHER_TEST_SEED` (for replaying a failure from a CI log —
/// every assertion message includes the seed that minted the workload).
fn seeds(n: u64) -> Vec<u64> {
    match harness_override("CYPHER_TEST_SEED", 0) {
        Some(seed) => {
            eprintln!("CYPHER_TEST_SEED={seed}: replaying a single seed");
            vec![seed]
        }
        None => (0..n).collect(),
    }
}

#[test]
fn generated_workloads_survive_kill_points_at_every_record_boundary() {
    let params = Params::new();
    let seed_list = seeds(workload_count());
    let swept = seed_list.len();
    let mut total_kill_points = 0usize;
    for seed in seed_list {
        let stmts = workload(seed, 12);
        let dir = fresh_dir(&format!("sweep-{seed}"));
        let cfg = durable_cfg(&dir, u64::MAX); // no compaction: one WAL holds the history
        let mut db = Database::open_with(cfg.clone()).unwrap();
        let mut oracle = PropertyGraph::new();

        // Run both sides in lockstep; record the oracle's canonical state
        // after every committed batch (read-only statements commit none).
        let mut dump_at_batches: Vec<String> = vec![oracle.canonical_dump()];
        for s in &stmts {
            let mem = cypher::run(&mut oracle, s, &params);
            let dur = db.query(s, &params);
            match (mem, dur) {
                (Ok(a), Ok(b)) => assert!(
                    a.ordered_eq(&b),
                    "result drift on {s} (seed {seed})\nmem:\n{a}\ndurable:\n{b}"
                ),
                (a, b) => panic!("generated statement errored: {s}\nmem: {a:?}\ndurable: {b:?}"),
            }
            let batches = db.batches_committed().unwrap() as usize;
            while dump_at_batches.len() <= batches {
                dump_at_batches.push(oracle.canonical_dump());
            }
        }
        let final_dump = oracle.canonical_dump();
        assert_eq!(
            db.graph().canonical_dump(),
            final_dump,
            "live durable graph diverged (seed {seed})"
        );
        db.close().unwrap();

        // Clean reopen: state, indexes and query answers all match.
        {
            let mut db2 = Database::open_with(cfg.clone()).unwrap();
            assert_eq!(
                db2.graph().canonical_dump(),
                final_dump,
                "clean reopen diverged (seed {seed})"
            );
            let mut qgen = QueryGenerator::new(100_000 + seed);
            for _ in 0..3 {
                let q = qgen.next_query();
                let recovered = db2.query(&q, &params).unwrap();
                let mem = cypher::run_read(&oracle, &q, &params).unwrap();
                assert!(
                    recovered.ordered_eq(&mem),
                    "read drift after reopen on {q} (seed {seed})"
                );
                let reference = db2.query_reference(&q, &params).unwrap();
                assert!(
                    recovered.bag_eq(&reference),
                    "recovered engine diverges from the reference oracle on {q}"
                );
            }
        }

        // Kill-point sweep: truncate the WAL at every record boundary and
        // in the middle of every record; recovery must land exactly on
        // the committed-batch prefix state.
        let wal_path = dir.join("wal-0000000000.log");
        let wal_bytes = std::fs::read(&wal_path).unwrap();
        let records = wal::scan(&wal_path).unwrap();
        let mut kill_points: Vec<(u64, usize)> = Vec::new(); // (cut offset, batches expected)
        kill_points.push((4, 0)); // mid-magic
        kill_points.push((wal::WAL_MAGIC.len() as u64, 0)); // empty log

        // A batch is recoverable only once its *group* record is on
        // disk: commit records alone stage it, so the expected prefix
        // at any cut is `durable_through`, not `commits_through`.
        let mut durable_before = 0usize;
        for r in &records {
            let mid = (r.start + r.end) / 2;
            if mid > r.start {
                kill_points.push((mid, durable_before)); // mid-record tear
            }
            kill_points.push((r.end, r.durable_through as usize)); // boundary
            durable_before = r.durable_through as usize;
        }
        for &(cut, expected_batches) in &kill_points {
            let kdir = fresh_dir(&format!("kill-{seed}-{cut}"));
            std::fs::create_dir_all(&kdir).unwrap();
            std::fs::write(kdir.join("wal-0000000000.log"), &wal_bytes[..cut as usize]).unwrap();
            let db3 = Database::open_with(durable_cfg(&kdir, u64::MAX)).unwrap();
            assert_eq!(
                db3.recovery().batches_replayed as usize,
                expected_batches,
                "wrong batch count at kill point {cut} (seed {seed})"
            );
            assert_eq!(
                db3.graph().canonical_dump(),
                dump_at_batches[expected_batches],
                "recovered state at kill point {cut} is not the batch-{expected_batches} \
                 prefix (seed {seed})"
            );
            drop(db3);
            let _ = std::fs::remove_dir_all(&kdir);
        }
        total_kill_points += kill_points.len();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        total_kill_points >= swept * 10,
        "sweep too shallow: {total_kill_points} kill points over {swept} workloads"
    );
}

#[test]
fn multi_batch_group_seals_recover_at_group_granularity() {
    // Group commit seals several transactions behind ONE group record:
    // cutting the WAL at **every byte** of each seal must recover
    // exactly the last *fully sealed* group's prefix — never a partial
    // group, even though every member batch before the cut is a
    // complete, checksummed record (staged, not durable).
    let params = Params::new();
    const GROUP_SIZES: [usize; 3] = [2, 3, 4];
    for seed in seeds(10) {
        let dir = fresh_dir(&format!("group-{seed}"));
        let (mut store, _empty) = Store::open(&dir).unwrap();
        let mut oracle = PropertyGraph::new();
        let buffer = SharedChangeBuffer::new();
        oracle.set_change_sink(Box::new(buffer.clone()));
        let mut gen = QueryGenerator::new(seed);

        // One non-empty change batch per update statement, with the
        // oracle's canonical state after each.
        let want: usize = GROUP_SIZES.iter().sum();
        let mut batches: Vec<Vec<Change>> = Vec::new();
        let mut dump_after_batch = vec![PropertyGraph::new().canonical_dump()];
        while batches.len() < want {
            let s = gen.next_update();
            cypher::run(&mut oracle, &s, &params)
                .unwrap_or_else(|e| panic!("generated update errored: {s}: {e} (seed {seed})"));
            let changes = buffer.drain();
            if changes.is_empty() {
                continue; // no-op update: the database would not commit it either
            }
            batches.push(changes);
            dump_after_batch.push(oracle.canonical_dump());
        }

        // Seal them as three multi-transaction groups.
        let mut it = batches.iter();
        for take in GROUP_SIZES {
            let group: Vec<&[Change]> = (&mut it).take(take).map(|b| b.as_slice()).collect();
            store.commit_group(&group).unwrap();
        }
        store.sync().unwrap();
        drop(store); // release the directory lock for the reopen sweep

        let wal_path = dir.join("wal-0000000000.log");
        let wal_bytes = std::fs::read(&wal_path).unwrap();
        let records = wal::scan(&wal_path).unwrap();
        // Group-boundary prefixes are the only legal recovery states.
        let legal: Vec<usize> = GROUP_SIZES
            .iter()
            .scan(0usize, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();

        // Every byte of every group seal record, plus every record
        // boundary in between.
        let mut cuts: Vec<(u64, usize)> = Vec::new();
        let mut durable_before = 0usize;
        for r in &records {
            if r.kind == wal::KIND_GROUP {
                for cut in r.start..r.end {
                    cuts.push((cut, durable_before));
                }
            }
            cuts.push((r.end, r.durable_through as usize));
            durable_before = r.durable_through as usize;
        }
        for &(cut, expected) in &cuts {
            let kdir = fresh_dir(&format!("groupkill-{seed}-{cut}"));
            std::fs::create_dir_all(&kdir).unwrap();
            std::fs::write(kdir.join("wal-0000000000.log"), &wal_bytes[..cut as usize]).unwrap();
            let db = Database::open_with(durable_cfg(&kdir, u64::MAX)).unwrap();
            assert_eq!(
                db.recovery().batches_replayed as usize,
                expected,
                "wrong committed-group prefix at kill point {cut} (seed {seed})"
            );
            assert!(
                expected == 0 || legal.contains(&expected),
                "recovered a PARTIAL group: {expected} batches at kill point {cut} (seed {seed})"
            );
            assert_eq!(
                db.graph().canonical_dump(),
                dump_after_batch[expected],
                "recovered state at kill point {cut} is not the batch-{expected} prefix \
                 (seed {seed})"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&kdir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn compaction_preserves_the_differential_under_churn() {
    // A tiny compaction threshold forces many snapshot+truncate cycles
    // mid-workload; reopening across them must still match the oracle.
    let params = Params::new();
    for seed in seeds(10) {
        let dir = fresh_dir(&format!("compact-{seed}"));
        let cfg = durable_cfg(&dir, 700);
        let mut db = Database::open_with(cfg.clone()).unwrap();
        let mut oracle = PropertyGraph::new();
        let stmts = workload(500 + seed, 30);
        for (i, s) in stmts.iter().enumerate() {
            let mem = cypher::run(&mut oracle, s, &params);
            let dur = db.query(s, &params);
            assert_eq!(mem.is_ok(), dur.is_ok(), "{s}");
            // Periodically bounce the process (close + reopen).
            if i % 11 == 10 {
                db.close().unwrap();
                db = Database::open_with(cfg.clone()).unwrap();
                assert_eq!(
                    db.graph().canonical_dump(),
                    oracle.canonical_dump(),
                    "reopen across compaction diverged (seed {seed}, step {i})"
                );
            }
        }
        assert!(
            db.generation().unwrap() > 0,
            "threshold never triggered a checkpoint (seed {seed})"
        );
        assert_eq!(db.graph().canonical_dump(), oracle.canonical_dump());
        db.close().unwrap();
        let db2 = Database::open_with(cfg).unwrap();
        assert_eq!(db2.graph().canonical_dump(), oracle.canonical_dump());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn random_wal_corruption_never_panics() {
    // Flip bytes throughout a real WAL; opening must always return — a
    // prefix recovery or a structured error, never a panic or a wrong
    // "clean" recovery (the recovered state must be one of the oracle's
    // batch-prefix states).
    let params = Params::new();
    let dir = fresh_dir("corrupt");
    let cfg = durable_cfg(&dir, u64::MAX);
    let mut db = Database::open_with(cfg).unwrap();
    let mut oracle = PropertyGraph::new();
    let mut prefix_dumps = vec![oracle.canonical_dump()];
    for s in workload(9_999, 12) {
        let mem = cypher::run(&mut oracle, &s, &params);
        let dur = db.query(&s, &params);
        assert_eq!(mem.is_ok(), dur.is_ok());
        let batches = db.batches_committed().unwrap() as usize;
        while prefix_dumps.len() <= batches {
            prefix_dumps.push(oracle.canonical_dump());
        }
    }
    db.close().unwrap();
    let wal_path = dir.join("wal-0000000000.log");
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let step = (wal_bytes.len() / 97).max(1);
    for flip_at in (0..wal_bytes.len()).step_by(step) {
        for mask in [0x01u8, 0x80] {
            let kdir = fresh_dir(&format!("corrupt-{flip_at}-{mask}"));
            std::fs::create_dir_all(&kdir).unwrap();
            let mut bad = wal_bytes.clone();
            bad[flip_at] ^= mask;
            std::fs::write(kdir.join("wal-0000000000.log"), &bad).unwrap();
            match Database::open_with(durable_cfg(&kdir, u64::MAX)) {
                Ok(recovered) => {
                    let dump = recovered.graph().canonical_dump();
                    assert!(
                        prefix_dumps.contains(&dump),
                        "corruption at byte {flip_at} (mask {mask:#x}) recovered to a state \
                         that is not any committed prefix"
                    );
                }
                Err(cypher::Error::Storage(_)) => {} // detected, structured
                Err(other) => panic!("unexpected error class: {other}"),
            }
            let _ = std::fs::remove_dir_all(&kdir);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_database_keeps_assigning_fresh_ids() {
    // Tombstones survive persistence: ids deleted before a crash are
    // never reused after recovery.
    let params = Params::new();
    let dir = fresh_dir("tombstone");
    let cfg = durable_cfg(&dir, u64::MAX);
    {
        let mut db = Database::open_with(cfg.clone()).unwrap();
        db.query("CREATE (:A {i: 0}), (:A {i: 1}), (:A {i: 2})", &params)
            .unwrap();
        db.query("MATCH (n:A {i: 2}) DETACH DELETE n", &params)
            .unwrap();
        db.close().unwrap();
    }
    let mut db = Database::open_with(cfg).unwrap();
    assert_eq!(db.graph().node_slot_count(), 3, "tombstone slot survived");
    db.query("CREATE (:A {i: 3})", &params).unwrap();
    let out = db
        .query("MATCH (n:A) RETURN n.i AS i ORDER BY i", &params)
        .unwrap();
    assert_eq!(out.len(), 3);
    // The new node occupies slot 3, not the tombstoned slot 2.
    assert_eq!(db.graph().node_slot_count(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Index statistics the planner reads, keyed by name (interner symbols
/// differ between an oracle and a recovered graph). The canonical dump
/// renders posting lists but not the running `entries` totals, so these
/// are compared separately.
fn index_stats(g: &PropertyGraph, labels: &[&str], keys: &[&str]) -> Vec<String> {
    let sym = |s: &str| g.interner().get(s);
    let mut out = Vec::new();
    for &l in labels {
        let n = sym(l).map_or(0, |l| g.label_cardinality(l));
        out.push(format!("label {l}: {n}"));
        for &k in keys {
            let c = sym(l)
                .zip(sym(k))
                .map(|(l, k)| g.label_prop_index_cardinality(l, k))
                .unwrap_or_default();
            out.push(format!("composite {l}/{k}: {c:?}"));
        }
    }
    for &k in keys {
        let c = sym(k)
            .map(|k| g.prop_index_cardinality(k))
            .unwrap_or_default();
        out.push(format!("prop {k}: {c:?}"));
    }
    out
}

#[test]
fn large_wal_tail_replays_and_restores_bit_identical_indexes() {
    // A tail far beyond the generated workloads: thousands of node-level
    // changes across every index hook (node add/remove, label add/remove,
    // property set/remove), replayed from the WAL and then restored from
    // a snapshot, must rebuild the live graph's indexes and statistics.
    const LABELS: [&str; 3] = ["A", "B", "C"];
    const KEYS: [&str; 3] = ["k", "v", "w"];
    let params = Params::new();
    let dir = fresh_dir("large-tail");
    let cfg = durable_cfg(&dir, u64::MAX);
    let mut db = Database::open_with(cfg.clone()).unwrap();
    let mut oracle = PropertyGraph::new();
    let buffer = SharedChangeBuffer::new();
    oracle.set_change_sink(Box::new(buffer.clone()));

    let mut stmts = Vec::new();
    for lo in (0..900).step_by(100) {
        let hi = lo + 100;
        let window = format!("n.v >= {lo} AND n.v < {hi}");
        stmts.push(format!(
            "UNWIND range({lo}, {}) AS i CREATE (:A:B {{k: i % 7, v: i}})",
            hi - 1
        ));
        stmts.push(format!(
            "UNWIND range({lo}, {}) AS i MATCH (a:A {{v: i}}), (b:A {{v: i + 1}}) \
             CREATE (a)-[:R]->(b)",
            hi - 2
        ));
        stmts.push(format!(
            "MATCH (n:A) WHERE {window} AND n.v % 3 = 0 SET n.k = n.k + 100"
        ));
        stmts.push(format!(
            "MATCH (n:B) WHERE {window} AND n.v % 5 = 1 SET n = {{k: 1, w: n.v}}"
        ));
        stmts.push(format!(
            "MATCH (n:A) WHERE {window} AND n.v % 2 = 0 SET n:C"
        ));
        stmts.push(format!(
            "MATCH (n:C) WHERE {window} AND n.v % 4 = 0 REMOVE n:C"
        ));
        stmts.push(format!(
            "MATCH (n:A) WHERE {window} AND n.v % 7 = 3 REMOVE n.k"
        ));
        stmts.push(format!(
            "MATCH (n:A) WHERE {window} AND n.v % 4 = 2 DETACH DELETE n"
        ));
    }
    for s in &stmts {
        cypher::run(&mut oracle, s, &params).unwrap_or_else(|e| panic!("{s}: {e}"));
        db.query(s, &params).unwrap_or_else(|e| panic!("{s}: {e}"));
    }

    // Every node-level change fires at least one index hook on replay.
    let changes = buffer.drain();
    let mut kinds = std::collections::BTreeSet::new();
    let mut node_changes = 0usize;
    for c in &changes {
        let kind = match c {
            Change::AddRel { .. } | Change::DeleteRel { .. } | Change::SetRelProp { .. } => {
                continue
            }
            Change::AddNode { .. } => "add-node",
            Change::DeleteNode { .. } => "delete-node",
            Change::SetNodeProp { .. } => "set-prop",
            Change::RemoveNodeProp { .. } => "remove-prop",
            Change::ReplaceNodeProps { .. } => "replace-props",
            Change::AddLabel { .. } => "add-label",
            Change::RemoveLabel { .. } => "remove-label",
        };
        kinds.insert(kind);
        node_changes += 1;
    }
    assert_eq!(kinds.len(), 7, "workload misses a hook: {kinds:?}");
    assert!(
        node_changes > 2048,
        "tail too small: {node_changes} node changes"
    );

    let want_dump = oracle.canonical_dump();
    let want_stats = index_stats(&oracle, &LABELS, &KEYS);
    assert_eq!(
        db.graph().canonical_dump(),
        want_dump,
        "live graph diverged"
    );
    db.close().unwrap();

    // Reopen: the whole history replays from one WAL.
    let mut db = Database::open_with(cfg.clone()).unwrap();
    assert_eq!(db.recovery().snapshot_generation, 0);
    assert_eq!(db.recovery().changes_replayed, changes.len());
    assert_eq!(
        db.graph().canonical_dump(),
        want_dump,
        "WAL replay diverged"
    );
    assert_eq!(
        index_stats(&db.graph(), &LABELS, &KEYS),
        want_stats,
        "WAL replay index statistics diverged"
    );

    // Checkpoint and reopen: the state now comes back through restore.
    db.checkpoint().unwrap();
    db.close().unwrap();
    let db = Database::open_with(cfg).unwrap();
    assert!(db.recovery().snapshot_generation > 0);
    assert_eq!(db.recovery().changes_replayed, 0);
    assert_eq!(
        db.graph().canonical_dump(),
        want_dump,
        "snapshot restore diverged"
    );
    assert_eq!(
        index_stats(&db.graph(), &LABELS, &KEYS),
        want_stats,
        "snapshot restore index statistics diverged"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
