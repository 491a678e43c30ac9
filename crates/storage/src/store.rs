//! The `open`/`recover`/`commit`/`checkpoint` lifecycle tying WAL and
//! snapshots together.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/snapshot-<generation>.snap    full graph at some point in time
//! <dir>/wal-<generation>.log          batches committed since that snapshot
//! ```
//!
//! Generations pair a snapshot with the WAL that continues it. Recovery
//! loads the **latest valid** snapshot (generation 0 means "the empty
//! graph", which has no snapshot file) and replays its paired WAL,
//! truncating any torn tail. A checkpoint publishes snapshot `g+1`
//! atomically, starts the empty `wal-(g+1).log`, then deletes the old
//! generation's files — a crash at any point leaves at least one
//! consistent `(snapshot, wal)` pair on disk.

use crate::{snapshot, wal, StorageError, TxnId};
use cypher_graph::change::Change;
use cypher_graph::PropertyGraph;
use std::path::{Path, PathBuf};

/// What recovery found when a store was opened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot that was loaded (0 = started empty).
    pub snapshot_generation: u64,
    /// Committed WAL batches replayed on top of the snapshot.
    pub batches_replayed: u64,
    /// Sealed commit groups those batches arrived in.
    pub groups_replayed: u64,
    /// Individual change records inside those batches.
    pub changes_replayed: usize,
    /// Bytes of torn/uncommitted WAL tail that were truncated.
    pub truncated_bytes: u64,
    /// Decoded-but-uncommitted changes the truncation discarded.
    pub discarded_changes: usize,
}

/// Receipt for one sealed commit group (see [`Store::commit_group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupReceipt {
    /// Batch seq of the group's first member; members are consecutive.
    pub first_seq: TxnId,
    /// Number of member batches in the group.
    pub batches: u32,
    /// WAL length before the group was appended — the rollback target
    /// if the group's fsync fails.
    pub wal_len_before: u64,
}

/// A durable store rooted at one data directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    generation: u64,
    wal: wal::WalWriter,
    report: RecoveryReport,
    /// Held for the store's lifetime; releases the `LOCK` file on drop.
    _lock: DirLock,
    /// Set when a failed checkpoint left the on-disk generation state
    /// ambiguous (a newer snapshot published, but its WAL missing and
    /// the old snapshot not restorable as authoritative). A poisoned
    /// store refuses further commits/checkpoints: committing to the old
    /// WAL would be silently swept by the next recovery.
    poisoned: bool,
}

/// The single-writer guard: an exclusive **kernel advisory lock**
/// (`flock`-style, via [`std::fs::File::try_lock`]) on the `LOCK` file,
/// whose content is the holder's pid for diagnostics. Two writers
/// appending to one WAL would interleave entity ids and destroy the log,
/// so [`Store::open`] refuses while another open descriptor holds the
/// lock.
///
/// Mutual exclusion lives entirely in the kernel lock, which makes the
/// classic pid-file hazards structurally impossible:
///
/// * **stale locks cannot exist** — the kernel releases the lock the
///   instant the holding process dies, however it dies, so takeover of a
///   dead holder is automatic and race-free, where judging a recorded
///   pid dead and rewriting the file can be raced into stealing a live
///   lock;
/// * **partial content cannot mislead** — the pid in the file is only
///   ever read to decorate the `Locked` error; an unreadable pid
///   degrades the message, never the exclusion.
///
/// The file itself is deliberately never unlinked (locks attach to the
/// inode; unlink-on-release would let one contender lock a doomed inode
/// while another creates — and locks — a fresh file at the same path).
#[derive(Debug)]
struct DirLock {
    /// Holding this descriptor open *is* holding the lock; dropping it
    /// releases the kernel lock.
    _file: std::fs::File,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<DirLock, StorageError> {
        let path = dir.join("LOCK");
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                let pid = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|c| c.trim().parse::<u32>().ok())
                    .unwrap_or(0);
                return Err(StorageError::Locked { pid });
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(e.into()),
        }
        // Lock held: record our pid through the locked descriptor. Best
        // effort and purely diagnostic — a concurrent contender reading
        // mid-rewrite sees a garbled pid in its error message, nothing
        // more.
        use std::io::Write;
        let _ = file.set_len(0);
        let _ = writeln!(file, "{}", std::process::id());
        let _ = file.sync_all();
        Ok(DirLock { _file: file })
    }
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:010}.snap"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:010}.log"))
}

/// Parses `<stem>-<generation>.<ext>` file names back to generations.
fn parse_generation(name: &str, stem: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(stem)?
        .strip_prefix('-')?
        .strip_suffix(ext)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

impl Store {
    /// Opens (creating if necessary) the store at `dir` and recovers the
    /// graph it holds: latest valid snapshot plus replayed WAL tail.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Store, PropertyGraph), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Single-writer rule; released on drop (including every error
        // path below, via the guard), taken over when its owner is dead.
        let lock = DirLock::acquire(&dir)?;
        let mut report = RecoveryReport::default();

        // The newest snapshot is authoritative and must load. Falling
        // back to an older generation — or worse, the empty graph —
        // would silently present committed data as missing (older WALs
        // were swept at checkpoint time), and the next checkpoint would
        // then overwrite the only copy of the real state. A snapshot
        // that exists but fails validation is therefore a hard error;
        // half-written snapshots never look like this (they are `.tmp`
        // files that were never renamed into place).
        let newest: Option<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_generation(&e.file_name().to_string_lossy(), "snapshot", "snap"))
            .max();
        let mut graph = PropertyGraph::new();
        let mut generation = 0u64;
        let mut base_seq = 0u64;
        if let Some(g) = newest {
            let (stored_gen, seq, loaded) = snapshot::load(&snap_path(&dir, g))?;
            if stored_gen != g {
                return Err(StorageError::corrupt(
                    format!("snapshot file named generation {g} but contains {stored_gen}"),
                    0,
                ));
            }
            graph = loaded;
            generation = g;
            base_seq = seq;
        }
        report.snapshot_generation = generation;

        // Replay the paired WAL (creating it when absent — the legal
        // crash window between snapshot publication and WAL creation).
        let path = wal_path(&dir, generation);
        let mut upgrade = false;
        let wal = if path.exists() {
            let summary = wal::replay(&path, &mut graph)?;
            report.batches_replayed = summary.batches_applied;
            report.groups_replayed = summary.groups_applied;
            report.changes_replayed = summary.changes_applied;
            report.truncated_bytes = summary.truncated_bytes;
            report.discarded_changes = summary.discarded_changes;
            upgrade = summary.format_version < 2;
            wal::WalWriter::open_append(&path, summary.valid_len, summary.next_seq.max(base_seq))?
        } else {
            wal::WalWriter::create(&path, base_seq)?
        };

        let mut store = Store {
            dir,
            generation,
            wal,
            report,
            _lock: lock,
            poisoned: false,
        };
        store.sweep_stale_files();
        if upgrade {
            // The log on disk is the previous format: replay just read
            // it, but appending current-format group records into it
            // would mix semantics. Absorb the recovered state into a
            // snapshot and start a fresh current-format log — the
            // ordinary checkpoint, crash-consistent at every step. On
            // failure the old pair stays authoritative and `open`
            // surfaces the error (nothing was appended).
            store.checkpoint(&graph)?;
        }
        Ok((store, graph))
    }

    /// Appends one commit group — each member batch plus one covering
    /// group record — to the WAL in a single contiguous write,
    /// **sealing** every member transaction on disk at once. Members
    /// receive consecutive batch seqs from `first_seq` in slice order;
    /// the receipt records the pre-append WAL length so a failed
    /// fsync can roll the whole group back with
    /// [`Store::truncate_wal`].
    pub fn commit_group(&mut self, batches: &[&[Change]]) -> Result<GroupReceipt, StorageError> {
        if self.poisoned {
            return Err(StorageError::corrupt(
                "store disabled by an earlier failed checkpoint",
                0,
            ));
        }
        let wal_len_before = self.wal.bytes();
        let first_seq = self.wal.append_group(batches)?;
        Ok(GroupReceipt {
            first_seq,
            batches: batches.len() as u32,
            wal_len_before,
        })
    }

    /// Appends one atomic batch of changes as a group of one. Returns
    /// the batch sequence number — the transaction's id, which versioned
    /// callers publish as the new graph version (see [`TxnId`]).
    pub fn commit(&mut self, changes: &[Change]) -> Result<TxnId, StorageError> {
        self.commit_group(&[changes]).map(|r| r.first_seq)
    }

    /// Rolls the WAL back to `len` bytes (a [`GroupReceipt`]'s
    /// `wal_len_before`) after a failed group seal, so disk never holds
    /// a group that memory refused to acknowledge.
    pub fn truncate_wal(&mut self, len: u64) -> Result<(), StorageError> {
        self.wal.truncate_to(len)
    }

    /// Test double: forces the next `n` WAL fsyncs to fail.
    #[doc(hidden)]
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.wal.inject_sync_failures(n);
    }

    /// Bytes in the current WAL — the compaction trigger's input.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Total batches committed across the store's lifetime (monotonic
    /// across checkpoints). Equivalently: the next [`TxnId`] to be
    /// assigned, and the version id of the recovered graph.
    pub fn batches_committed(&self) -> TxnId {
        self.wal.next_seq()
    }

    /// The current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// What recovery found when this store was opened.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The data directory this store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a new snapshot of `graph` and starts a fresh WAL (the
    /// snapshot + truncate of log compaction). `graph` must be exactly
    /// the state produced by every batch committed so far.
    pub fn checkpoint(&mut self, graph: &PropertyGraph) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::corrupt(
                "store disabled by an earlier failed checkpoint",
                0,
            ));
        }
        let next = self.generation + 1;
        // A failure here leaves at most a `.tmp` file — the store is
        // untouched and stays usable.
        snapshot::save(
            &snap_path(&self.dir, next),
            graph,
            next,
            self.wal.next_seq(),
        )?;
        // From here on, recovery prefers generation `next`; the old pair
        // stays consistent until the new WAL exists, after which the old
        // files are dead weight and are swept.
        match wal::WalWriter::create(&wal_path(&self.dir, next), self.wal.next_seq()) {
            Ok(w) => {
                self.wal = w;
                self.generation = next;
                self.sweep_stale_files();
                Ok(())
            }
            Err(e) => {
                // Snapshot `next` is already published, so recovery would
                // prefer it and sweep the *old* WAL — any batch committed
                // there after this point would be silently destroyed.
                // Unpublish the snapshot to restore the old pair's
                // authority; if even that fails, the on-disk state is
                // ambiguous and the store must stop accepting writes.
                if std::fs::remove_file(snap_path(&self.dir, next)).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Forces WAL bytes to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Best-effort removal of files from older generations and leftover
    /// temporaries. Never fails the caller: stale files are garbage, not
    /// state.
    fn sweep_stale_files(&mut self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for e in entries.filter_map(|e| e.ok()) {
            let name = e.file_name().to_string_lossy().into_owned();
            let stale = parse_generation(&name, "snapshot", "snap")
                .map(|g| g < self.generation)
                .or_else(|| parse_generation(&name, "wal", "log").map(|g| g < self.generation))
                .unwrap_or_else(|| name.ends_with(".tmp"));
            if stale {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::{NodeId, Value};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cypher-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn add_node_batch(i: u64) -> Vec<Change> {
        vec![Change::AddNode {
            id: NodeId(i),
            labels: vec![Arc::from("N")],
            props: vec![(Arc::from("i"), Value::int(i as i64))],
        }]
    }

    #[test]
    fn open_commit_reopen() {
        let dir = tmpdir("basic");
        {
            let (mut store, graph) = Store::open(&dir).unwrap();
            assert_eq!(graph.node_count(), 0);
            for i in 0..5 {
                store.commit(&add_node_batch(i)).unwrap();
            }
            assert_eq!(store.batches_committed(), 5);
        }
        let (store, graph) = Store::open(&dir).unwrap();
        assert_eq!(graph.node_count(), 5);
        assert_eq!(store.report().batches_replayed, 5);
        assert_eq!(store.generation(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let dir = tmpdir("checkpoint");
        let mut oracle = PropertyGraph::new();
        {
            let (mut store, mut graph) = Store::open(&dir).unwrap();
            for i in 0..4 {
                let batch = add_node_batch(i);
                for c in &batch {
                    wal::apply_change(&mut graph, c).unwrap();
                    wal::apply_change(&mut oracle, c).unwrap();
                }
                store.commit(&batch).unwrap();
            }
            store.checkpoint(&graph).unwrap();
            assert_eq!(store.generation(), 1);
            assert!(snap_path(&dir, 1).exists());
            assert!(!wal_path(&dir, 0).exists(), "old wal swept");
            // More batches on top of the snapshot.
            let batch = add_node_batch(4);
            for c in &batch {
                wal::apply_change(&mut graph, c).unwrap();
                wal::apply_change(&mut oracle, c).unwrap();
            }
            store.commit(&batch).unwrap();
            assert_eq!(
                store.batches_committed(),
                5,
                "seq monotonic across checkpoint"
            );
        }
        let (store, graph) = Store::open(&dir).unwrap();
        assert_eq!(store.report().snapshot_generation, 1);
        assert_eq!(store.report().batches_replayed, 1);
        assert_eq!(graph.canonical_dump(), oracle.canonical_dump());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_refuses_to_open() {
        // Falling back to an older generation (or the empty graph) would
        // present committed data as missing and let the next checkpoint
        // destroy the evidence — a corrupt snapshot must be loud.
        let dir = tmpdir("refuse");
        std::fs::create_dir_all(&dir).unwrap();
        let mut g = PropertyGraph::new();
        g.add_node(&["A"], []);
        snapshot::save(&snap_path(&dir, 1), &g, 1, 0).unwrap();
        std::fs::write(snap_path(&dir, 2), b"CYSNAP01 garbage").unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StorageError::Corrupt { .. })
        ));
        // A leftover `.tmp` (crash during save) is not a snapshot and
        // must not block opening.
        std::fs::remove_file(snap_path(&dir, 2)).unwrap();
        std::fs::write(dir.join("snapshot-0000000002.tmp"), b"partial").unwrap();
        let (store, graph) = Store::open(&dir).unwrap();
        assert_eq!(store.report().snapshot_generation, 1);
        assert_eq!(graph.node_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_seq_is_monotonic_across_checkpoint_and_reopen() {
        let dir = tmpdir("seq");
        {
            let (mut store, mut graph) = Store::open(&dir).unwrap();
            for i in 0..3 {
                let batch = add_node_batch(i);
                for c in &batch {
                    wal::apply_change(&mut graph, c).unwrap();
                }
                store.commit(&batch).unwrap();
            }
            store.checkpoint(&graph).unwrap();
            assert_eq!(store.batches_committed(), 3);
        }
        // Reopen with an *empty* post-checkpoint WAL: the sequence must
        // come from the snapshot, not reset to zero.
        let (mut store, _) = Store::open(&dir).unwrap();
        assert_eq!(store.batches_committed(), 3);
        let seq = store.commit(&add_node_batch(3)).unwrap();
        assert_eq!(seq, 3);
        // And the legal crash window: snapshot published, WAL missing.
        // (Shadowing does not drop the previous store — release its
        // directory lock explicitly before reopening.)
        drop(store);
        std::fs::remove_file(wal_path(&dir, 1)).unwrap();
        let (store, _) = Store::open(&dir).unwrap();
        assert_eq!(store.batches_committed(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_unpublishes_the_snapshot_and_keeps_the_store_usable() {
        let dir = tmpdir("ckfail");
        let (mut store, mut graph) = Store::open(&dir).unwrap();
        for i in 0..2 {
            let batch = add_node_batch(i);
            for c in &batch {
                wal::apply_change(&mut graph, c).unwrap();
            }
            store.commit(&batch).unwrap();
        }
        // Squat on the next generation's WAL name with a directory so
        // WalWriter::create fails after the snapshot is published.
        std::fs::create_dir_all(wal_path(&dir, 1)).unwrap();
        assert!(store.checkpoint(&graph).is_err());
        assert!(
            !snap_path(&dir, 1).exists(),
            "published snapshot must be unpublished on failure"
        );
        assert_eq!(store.generation(), 0, "generation unchanged");
        // The old pair is still authoritative: commits keep working and
        // a reopen recovers everything.
        store.commit(&add_node_batch(2)).unwrap();
        drop(store);
        std::fs::remove_dir_all(wal_path(&dir, 1)).unwrap();
        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(store.report().batches_replayed, 3);
        assert_eq!(recovered.node_count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_of_a_live_store_is_refused_but_stale_locks_are_taken_over() {
        let dir = tmpdir("lock");
        let (store, _) = Store::open(&dir).unwrap();
        // Same directory, same (live) process: must refuse.
        assert!(matches!(
            Store::open(&dir),
            Err(StorageError::Locked { .. })
        ));
        drop(store); // releases the lock
        let (store, _) = Store::open(&dir).unwrap();
        drop(store);
        // A lock left by a dead process is stale: fabricate one with an
        // (almost certainly) unused pid.
        std::fs::write(dir.join("LOCK"), "4194000\n").unwrap();
        assert!(Store::open(&dir).is_ok(), "stale lock must be taken over");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stale_lock_takeover_has_exactly_one_winner() {
        // Two claimants race for the same dead holder's lock. The kernel
        // lock guarantees exactly one wins; the loser must see `Locked`,
        // never a second acquisition. (The pre-kernel-lock protocol —
        // check pid then rewrite the file — failed exactly this test.)
        for round in 0..20 {
            let dir = tmpdir(&format!("lockrace-{round}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("LOCK"), "4194000\n").unwrap(); // dead pid
            let barrier = std::sync::Barrier::new(2);
            let outcomes: Vec<Result<DirLock, StorageError>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let barrier = &barrier;
                        let dir = dir.clone();
                        s.spawn(move || {
                            barrier.wait();
                            DirLock::acquire(&dir)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let wins = outcomes.iter().filter(|r| r.is_ok()).count();
            assert_eq!(wins, 1, "round {round}: exactly one claimant must win");
            assert!(
                outcomes
                    .iter()
                    .any(|r| matches!(r, Err(StorageError::Locked { .. }))),
                "round {round}: the loser must be told the directory is locked"
            );
            drop(outcomes); // releases the winner's lock
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_group_fsync_rolls_back_to_the_prior_durable_group() {
        // The fsync fault double: a group whose seal fails to reach
        // stable storage is truncated away whole, so a reopen recovers
        // exactly the prior groups — disk never runs ahead of what the
        // database acknowledged.
        let dir = tmpdir("groupfsync");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            let receipt = store
                .commit_group(&[&add_node_batch(0), &add_node_batch(1)])
                .unwrap();
            assert_eq!(receipt.first_seq, 0);
            assert_eq!(receipt.batches, 2);
            store.sync().unwrap();
            let doomed = store
                .commit_group(&[&add_node_batch(2), &add_node_batch(3)])
                .unwrap();
            assert_eq!(doomed.first_seq, 2);
            store.inject_sync_failures(1);
            assert!(store.sync().is_err(), "injected fsync failure surfaces");
            store.truncate_wal(doomed.wal_len_before).unwrap();
            assert_eq!(store.wal_bytes(), doomed.wal_len_before);
            assert!(
                store.commit(&add_node_batch(2)).is_err(),
                "writer stays damaged after a failed fsync"
            );
        }
        let (store, graph) = Store::open(&dir).unwrap();
        assert_eq!(store.report().batches_replayed, 2);
        assert_eq!(store.report().groups_replayed, 1);
        assert_eq!(graph.node_count(), 2, "only the durable group survives");
        assert_eq!(store.batches_committed(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rollback_after_a_first_rollback_cannot_extend_the_wal() {
        // A stale rollback: group B rolls back to its wal_len_before
        // (cutting C's bytes too, since C sealed behind it); a rollback
        // to C's — now larger than the file — must refuse rather than
        // zero-extend the log past the durable boundary. Reopen recovers
        // exactly group A.
        let dir = tmpdir("staleroll");
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            store.commit_group(&[&add_node_batch(0)]).unwrap();
            store.sync().unwrap();
            let b = store.commit_group(&[&add_node_batch(1)]).unwrap();
            let c = store.commit_group(&[&add_node_batch(2)]).unwrap();
            assert!(c.wal_len_before > b.wal_len_before);
            store.truncate_wal(b.wal_len_before).unwrap();
            assert!(
                store.truncate_wal(c.wal_len_before).is_err(),
                "a rollback target past EOF must be refused"
            );
            assert_eq!(store.wal_bytes(), b.wal_len_before);
        }
        let (store, graph) = Store::open(&dir).unwrap();
        assert_eq!(store.report().batches_replayed, 1);
        assert_eq!(graph.node_count(), 1, "exactly the durable prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hand-writes `wal-0000000000.log` in the version-1 format (magic
    /// `CYWAL001`, commit records, no group records) holding `n`
    /// single-change batches.
    fn write_v1_wal(dir: &Path, n: u64) {
        std::fs::create_dir_all(dir).unwrap();
        let batches: Vec<Vec<Change>> = (0..n).map(add_node_batch).collect();
        wal::tests::write_v1_log(&wal_path(dir, 0), &batches);
    }

    #[test]
    fn v1_directory_is_replayed_and_upgraded_on_open() {
        let dir = tmpdir("v1dir");
        write_v1_wal(&dir, 3);
        {
            let (mut store, graph) = Store::open(&dir).unwrap();
            assert_eq!(graph.node_count(), 3, "v1 batches replayed");
            assert_eq!(store.report().batches_replayed, 3);
            assert_eq!(
                store.generation(),
                1,
                "open upgrades the v1 directory via a checkpoint"
            );
            let bytes = std::fs::read(wal_path(&dir, 1)).unwrap();
            assert_eq!(
                &bytes[..wal::WAL_MAGIC.len()],
                wal::WAL_MAGIC,
                "the live log is current-format after the upgrade"
            );
            // Batch seqs continue where the v1 log left off.
            let seq = store.commit(&add_node_batch(3)).unwrap();
            assert_eq!(seq, 3);
        }
        let (store, graph) = Store::open(&dir).unwrap();
        assert_eq!(graph.node_count(), 4);
        assert_eq!(store.batches_committed(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotted_length_field_mid_file_is_a_hard_error() {
        // A flipped high bit in a length field claims an extent past
        // EOF — shaped like a tear, except CRC-valid committed frames
        // still follow. Resync must find them and refuse.
        let dir = tmpdir("lenrot");
        let wal_file;
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            for i in 0..4 {
                store.commit(&add_node_batch(i)).unwrap();
            }
            wal_file = wal_path(&dir, 0);
        }
        let mut bytes = std::fs::read(&wal_file).unwrap();
        // First record's frame starts right after the 8-byte magic; its
        // length field is bytes 8..12.
        bytes[11] ^= 0x80;
        std::fs::write(&wal_file, &bytes).unwrap();
        assert!(
            matches!(Store::open(&dir), Err(StorageError::Corrupt { .. })),
            "length rot with intact committed data after it must refuse"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_wal_corruption_is_a_hard_error_not_silent_truncation() {
        let dir = tmpdir("midfile");
        let wal_file;
        {
            let (mut store, _) = Store::open(&dir).unwrap();
            for i in 0..4 {
                store.commit(&add_node_batch(i)).unwrap();
            }
            wal_file = wal_path(&dir, 0);
        }
        let mut bytes = std::fs::read(&wal_file).unwrap();
        // Flip a byte inside the *first* record's payload (the frame
        // header is 8 bytes after the 8-byte magic), leaving valid
        // committed records after it: a CRC mismatch mid-file.
        bytes[18] ^= 0x20;
        std::fs::write(&wal_file, &bytes).unwrap();
        assert!(
            matches!(Store::open(&dir), Err(StorageError::Corrupt { .. })),
            "rotted committed data must not be silently truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
