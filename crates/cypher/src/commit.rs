//! The commit pipeline: serialized write admission, the group-commit
//! queue and its seal leader, the flush schedule, and **the one rule for
//! how a sealed group ends** ([`Pipeline::settle`]).
//!
//! The pipeline knows the write-ahead log only through [`Log`] — exactly
//! the calls it makes on [`Store`] — and readers only through an
//! injected [`Publisher`], so the unit tests below run deterministic
//! fault schedules against it with a scripted in-memory log: no
//! filesystem, no threads, no query engine.
//!
//! A writer holds the apply lock from [`Pipeline::begin_write`] to
//! [`WriteTxn::admit`]; admission makes its candidate graph the new
//! apply head and queues it. Whoever queues into an idle pipeline is the
//! **leader**: it drains the queue group by group, and each group is
//! *append → flush step → settle*, where [`FsyncMode`] picks the flush
//! step and nothing else: none (`Os`) or inline (`Sync`). The leader is
//! the pipeline's only actor — no other thread appends, flushes,
//! publishes or rolls back — so groups end strictly in seal order.
//!
//! Lock hierarchy (outer → inner): `apply` → `log` → `poison`; the
//! publisher's own locks are leaves.

use crate::registry::DatabaseMetrics;
use crate::{lock, Error};
use cypher_engine::FsyncMode;
use cypher_graph::{Change, GraphView, PropertyGraph, SharedChangeBuffer};
use cypher_storage::store::GroupReceipt;
use cypher_storage::{StorageError, Store};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What [`WriteTxn::admit`] hands the writer to block on.
pub(crate) type Ticket = Receiver<Result<u64, Error>>;

/// The write-ahead log as the pipeline uses it.
pub(crate) trait Log: Send + 'static {
    /// Appends the batches as one atomic group.
    fn commit_group(&mut self, batches: &[&[Change]]) -> Result<GroupReceipt, StorageError>;
    /// Forces every appended byte to stable storage.
    fn sync(&mut self) -> Result<(), StorageError>;
    /// Cuts the log back to `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;
    /// Snapshots `graph` and starts an empty log.
    fn checkpoint(&mut self, graph: &PropertyGraph) -> Result<(), StorageError>;
    /// Batches committed over the log's lifetime.
    fn batches_committed(&self) -> u64;
    /// Bytes in the log.
    fn wal_bytes(&self) -> u64;
    /// Snapshot generation.
    fn generation(&self) -> u64;
}

impl Log for Store {
    fn commit_group(&mut self, batches: &[&[Change]]) -> Result<GroupReceipt, StorageError> {
        Store::commit_group(self, batches)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        Store::sync(self)
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        Store::truncate_wal(self, len)
    }
    fn checkpoint(&mut self, graph: &PropertyGraph) -> Result<(), StorageError> {
        Store::checkpoint(self, graph)
    }
    fn batches_committed(&self) -> u64 {
        Store::batches_committed(self)
    }
    fn wal_bytes(&self) -> u64 {
        Store::wal_bytes(self)
    }
    fn generation(&self) -> u64 {
        Store::generation(self)
    }
}

/// How a durable group becomes visible. Only the seal leader publishes,
/// and at most one leader runs, so publishes are serialized and see
/// groups in seq order.
pub(crate) trait Publisher: Send + Sync + 'static {
    /// Makes the group's last candidate the version readers see, at
    /// `last.seq + 1`, covering every member.
    fn publish(&self, group: &[PendingCommit]);
}

/// A finished-but-unsealed write transaction waiting in the group-commit
/// queue: its batch seq, the change records to seal, the candidate graph
/// that becomes the published state once its group is durable, and the
/// ticket its writer blocks on — a one-shot channel settled exactly once
/// with the member's version id or the group's error.
pub(crate) struct PendingCommit {
    pub(crate) seq: u64,
    pub(crate) changes: Vec<Change>,
    pub(crate) candidate: Arc<PropertyGraph>,
    ticket: SyncSender<Result<u64, Error>>,
    /// The caller's trace id, carried to the seal so the metrics
    /// registry can witness it end to end.
    trace: Option<u64>,
}

impl PendingCommit {
    /// Settles the writer's ticket (a writer that stopped waiting is
    /// not an error).
    fn complete(&self, r: Result<u64, Error>) {
        let settled = self.ticket.try_send(r);
        debug_assert!(
            !matches!(settled, Err(mpsc::TrySendError::Full(_))),
            "tickets settle exactly once"
        );
    }
}

/// Execution-side state, everything touched under the apply lock.
pub(crate) struct ApplyState {
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

/// Lock-free mirror of the log's counters, refreshed under the log lock
/// after every seal, rollback and checkpoint. Monitoring getters read
/// these instead of taking a lock the pipeline may hold for a while.
#[derive(Default)]
struct LogMirror {
    durable: bool,
    batches: AtomicU64,
    wal_bytes: AtomicU64,
    generation: AtomicU64,
}

impl LogMirror {
    fn refresh(&self, log: &impl Log) {
        self.batches
            .store(log.batches_committed(), Ordering::Relaxed);
        self.wal_bytes.store(log.wal_bytes(), Ordering::Relaxed);
        self.generation.store(log.generation(), Ordering::Relaxed);
    }

    fn read(&self, counter: &AtomicU64) -> Option<u64> {
        self.durable.then(|| counter.load(Ordering::Relaxed))
    }
}

/// Everything the commit pipeline shares between writers and the group
/// leader.
pub(crate) struct Pipeline<L: Log> {
    apply: Mutex<ApplyState>,
    /// Signalled when the leader retires (queue drained).
    leader_done: Condvar,
    log: Mutex<Option<L>>,
    /// First failure wins; set before the rollback, so every group the
    /// leader seals after it is refused instead of appended.
    poison: Mutex<Option<String>>,
    mirror: LogMirror,
    metrics: Arc<DatabaseMetrics>,
    publisher: Arc<dyn Publisher>,
    fsync_mode: FsyncMode,
    group_commit: bool,
}

/// A write transaction between admission control and the queue: holds
/// the apply lock, so exactly one executes at a time.
pub(crate) struct WriteTxn<'a, L: Log> {
    pipeline: &'a Pipeline<L>,
    apply: MutexGuard<'a, ApplyState>,
}

impl<L: Log> WriteTxn<'_, L> {
    /// The apply head this transaction executes on top of, with its
    /// version id.
    pub(crate) fn base(&self) -> GraphView {
        GraphView::new(Arc::clone(&self.apply.working), self.apply.next_seq)
    }

    /// The change-record collector to wire into the transaction's clone.
    pub(crate) fn buffer(&self) -> &SharedChangeBuffer {
        &self.apply.buffer
    }

    /// Admits the commit: `candidate` becomes the new apply head (the
    /// next writer executes on top of it, sealed or not) and joins the
    /// queue. If the queue was idle, *this* writer is the leader and
    /// drains it — after releasing the apply lock — before returning the
    /// ticket to wait on.
    pub(crate) fn admit(
        mut self,
        candidate: PropertyGraph,
        changes: Vec<Change>,
        trace: Option<u64>,
    ) -> Ticket {
        let apply = &mut *self.apply;
        let candidate = Arc::new(candidate);
        let (ticket, settled) = mpsc::sync_channel(1);
        apply.queue.push(PendingCommit {
            seq: apply.next_seq,
            changes,
            candidate: Arc::clone(&candidate),
            ticket,
            trace,
        });
        apply.next_seq += 1;
        apply.working = candidate;
        let m = &self.pipeline.metrics;
        if m.enabled() {
            m.commit_queue_depth.set(apply.queue.len() as i64);
        }
        let leader = !std::mem::replace(&mut apply.leader_running, true);
        drop(self.apply);
        if leader {
            self.pipeline.run_seal_leader();
        }
        settled
    }
}

impl<L: Log> Pipeline<L> {
    /// A pipeline over `log` (`None` = in-memory: admission is
    /// durability) whose apply head starts at `head`.
    pub(crate) fn new(
        log: Option<L>,
        head: &GraphView,
        publisher: Arc<dyn Publisher>,
        metrics: Arc<DatabaseMetrics>,
        fsync_mode: FsyncMode,
        group_commit: bool,
    ) -> Pipeline<L> {
        let mirror = LogMirror {
            durable: log.is_some(),
            ..LogMirror::default()
        };
        if let Some(log) = &log {
            mirror.refresh(log);
        }
        Pipeline {
            apply: Mutex::new(ApplyState {
                working: Arc::clone(head.graph_arc()),
                next_seq: head.version(),
                queue: Vec::new(),
                leader_running: false,
                buffer: SharedChangeBuffer::new(),
            }),
            leader_done: Condvar::new(),
            log: Mutex::new(log),
            poison: Mutex::new(None),
            mirror,
            metrics,
            publisher,
            fsync_mode,
            group_commit,
        }
    }

    /// Batches committed over the log's lifetime (`None` in memory).
    pub(crate) fn batches_committed(&self) -> Option<u64> {
        self.mirror.read(&self.mirror.batches)
    }

    /// Log size as of the last seal/checkpoint (`None` in memory).
    pub(crate) fn wal_bytes(&self) -> Option<u64> {
        self.mirror.read(&self.mirror.wal_bytes)
    }

    /// Snapshot generation as of the last checkpoint (`None` in memory).
    pub(crate) fn generation(&self) -> Option<u64> {
        self.mirror.read(&self.mirror.generation)
    }

    /// Runs `f` on the log, if there is one (test doubles live there);
    /// `false` when there is none.
    pub(crate) fn with_log(&self, f: impl FnOnce(&mut L)) -> bool {
        lock(&self.log).as_mut().map(f).is_some()
    }

    /// Starts a write transaction: takes the apply lock and refuses if
    /// the write path is closed or poisoned.
    pub(crate) fn begin_write(&self) -> Result<WriteTxn<'_, L>, Error> {
        let apply = lock(&self.apply);
        match self.poison_msg() {
            Some(msg) => Err(Error::Unavailable(msg)),
            None => Ok(WriteTxn {
                pipeline: self,
                apply,
            }),
        }
    }

    fn poison_msg(&self) -> Option<String> {
        lock(&self.poison).clone()
    }

    /// The group-commit leader loop: drain the queue, seal the drained
    /// batches as one group, repeat until the queue is empty, retire.
    /// With group commit off every seal carries exactly one batch — the
    /// serial baseline the multi-writer tests check just as strictly.
    fn run_seal_leader(&self) {
        loop {
            let mut apply = lock(&self.apply);
            if apply.queue.is_empty() {
                apply.leader_running = false;
                self.leader_done.notify_all();
                return;
            }
            let group = if self.group_commit {
                std::mem::take(&mut apply.queue)
            } else {
                vec![apply.queue.remove(0)]
            };
            let m = &self.metrics;
            if m.enabled() {
                m.commit_groups.inc();
                m.commit_group_size.record(group.len() as u64);
                m.commit_queue_depth.set(apply.queue.len() as i64);
            }
            drop(apply);
            let seal_started = Instant::now();
            self.seal_group(group);
            if m.enabled() {
                m.seal_latency_us
                    .record(seal_started.elapsed().as_micros() as u64);
            }
        }
    }

    /// Seals one group: a single contiguous append covering every member
    /// batch plus the group record, then the flush step, then
    /// [`Pipeline::settle`].
    fn seal_group(&self, group: Vec<PendingCommit>) {
        let mut guard = lock(&self.log);
        let wal_len_before = guard.as_ref().map_or(0, Log::wal_bytes);
        // A failed group poisons before it rolls back, so the group
        // sealed after it is refused here and never appended.
        let outcome = if let Some(msg) = self.poison_msg() {
            Err(Error::Unavailable(msg))
        } else if let Some(log) = guard.as_mut() {
            let batches: Vec<&[Change]> = group.iter().map(|p| p.changes.as_slice()).collect();
            let mut step = log.commit_group(&batches).map(|receipt| {
                debug_assert_eq!(
                    (receipt.first_seq, receipt.wal_len_before),
                    (group[0].seq, wal_len_before),
                    "queue seqs and the rollback target match the WAL"
                );
            });
            if step.is_ok() && self.fsync_mode == FsyncMode::Sync {
                let started = Instant::now();
                step = log.sync();
                if step.is_ok() && self.metrics.enabled() {
                    self.metrics
                        .fsync_latency_us
                        .record(started.elapsed().as_micros() as u64);
                }
            }
            if step.is_ok() {
                self.mirror.refresh(log);
            }
            step.map_err(Error::from)
        } else {
            Ok(()) // in-memory: admission is durability
        };
        self.settle(guard, &group, outcome, wal_len_before);
    }

    /// **How a sealed group ends** — the only place a commit is
    /// acknowledged, refused or rolled back. `outcome` is the result of
    /// its append and flush step; `wal_len_before` is the log length
    /// before its append; `log` is the log lock, which the seal leader
    /// has held since before the append.
    ///
    /// * **Durable**: publish one version covering every member (the
    ///   last candidate at `last.seq + 1`), then complete each member's
    ///   ticket with its own version id `seq + 1`.
    /// * **Not durable**: poison FIRST, then roll back to
    ///   `wal_len_before` under the still-held log lock, then fail
    ///   exactly this group's tickets with its own error. Nothing was
    ///   published and the next group the leader seals sees the poison
    ///   and is refused before its append, so disk never keeps a group
    ///   that memory refused, and no reader sees one.
    /// * **Only the poison winner rolls back.** A refused group (its
    ///   `outcome` is the poison) appended nothing, so it has nothing
    ///   to cut: losing the poison needs no I/O at all.
    fn settle(
        &self,
        mut log: MutexGuard<'_, Option<L>>,
        group: &[PendingCommit],
        outcome: Result<(), Error>,
        wal_len_before: u64,
    ) {
        let Err(err) = outcome else {
            drop(log);
            self.publisher.publish(group);
            for p in group {
                if self.metrics.enabled() {
                    self.metrics.note_sealed_trace(p.trace);
                }
                p.complete(Ok(p.seq + 1));
            }
            return;
        };
        if self.set_poison(&err) {
            if let Some(log) = log.as_mut() {
                let _ = log.truncate(wal_len_before);
                self.mirror.refresh(log);
            }
        }
        drop(log);
        for p in group {
            p.complete(Err(err.clone()));
        }
    }

    /// First poison wins: the original failure is the one later writers
    /// should see, not whatever cascade it caused. Returns whether this
    /// call won.
    fn set_poison(&self, err: &Error) -> bool {
        let mut p = lock(&self.poison);
        if p.is_some() {
            return false;
        }
        *p = Some(format!(
            "database is read-only after a failed WAL commit: {err}"
        ));
        if self.metrics.enabled() {
            self.metrics.poison_events.inc();
        }
        true
    }

    /// Blocks until the pipeline is idle — queue drained, no leader —
    /// and returns the apply guard, which the caller holds to keep new
    /// writers out. On return the latest published version is exactly
    /// the state of every sealed batch.
    pub(crate) fn quiesce(&self) -> MutexGuard<'_, ApplyState> {
        let mut apply = lock(&self.apply);
        while apply.leader_running || !apply.queue.is_empty() {
            apply = self
                .leader_done
                .wait(apply)
                .unwrap_or_else(|e| e.into_inner());
        }
        apply
    }

    /// Quiesces, then snapshots `latest()` and truncates the log — only
    /// if the log has outgrown `over` bytes, when given. Returns whether
    /// a checkpoint was taken (never, in memory).
    pub(crate) fn checkpoint(
        &self,
        latest: impl FnOnce() -> GraphView,
        over: Option<u64>,
    ) -> Result<bool, Error> {
        // The apply guard is held across the snapshot: no commit is in
        // flight and none can start.
        let _apply = self.quiesce();
        let view = latest();
        let mut log = lock(&self.log);
        let Some(log) = log.as_mut() else {
            return Ok(false);
        };
        // Re-checked under the lock: a racing writer may have compacted
        // already.
        if over.is_some_and(|bytes| log.wal_bytes() <= bytes) {
            return Ok(false);
        }
        let done = log.checkpoint(view.graph());
        self.mirror.refresh(log);
        done?;
        Ok(true)
    }

    /// Quiesces, forces the log to stable storage and drops it (which
    /// releases the data directory's single-writer lock even while
    /// sessions linger), and closes the write path.
    pub(crate) fn close(&self) -> Result<(), Error> {
        let _apply = self.quiesce();
        let mut log = lock(&self.log);
        if let Some(log) = log.as_mut() {
            log.sync()?;
        }
        *log = None;
        drop(log);
        *lock(&self.poison) =
            Some("database has been closed: open it again to resume writing".to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where the scripted log's one armed failure fires.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        Append,
        Flush,
    }

    /// An in-memory log that follows a script: one armed [`Fault`], and a
    /// hook run from inside the next append (the leader holds no apply
    /// lock there, so the hook can admit the group that is sealed next).
    #[derive(Default)]
    struct Script {
        len: u64,
        seq: u64,
        truncations: Vec<u64>,
        armed: Option<Fault>,
        during_append: Option<Box<dyn FnOnce() + Send>>,
    }

    struct ScriptedLog(Arc<Mutex<Script>>);

    fn fire(script: &Mutex<Script>, site: Fault) -> std::io::Result<()> {
        let mut s = lock(script);
        if s.armed != Some(site) {
            return Ok(());
        }
        s.armed = None;
        Err(std::io::Error::other(format!("scripted {site:?} failure")))
    }

    impl Log for ScriptedLog {
        fn commit_group(&mut self, batches: &[&[Change]]) -> Result<GroupReceipt, StorageError> {
            if let Some(hook) = lock(&self.0).during_append.take() {
                hook();
            }
            fire(&self.0, Fault::Append)?;
            let mut s = lock(&self.0);
            let receipt = GroupReceipt {
                first_seq: s.seq,
                batches: batches.len() as u32,
                wal_len_before: s.len,
            };
            s.seq += batches.len() as u64;
            s.len += 100 * batches.len() as u64;
            Ok(receipt)
        }
        fn sync(&mut self) -> Result<(), StorageError> {
            Ok(fire(&self.0, Fault::Flush)?)
        }
        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            let mut s = lock(&self.0);
            s.truncations.push(len);
            s.len = s.len.min(len);
            Ok(())
        }
        fn checkpoint(&mut self, _: &PropertyGraph) -> Result<(), StorageError> {
            Ok(())
        }
        fn batches_committed(&self) -> u64 {
            lock(&self.0).seq
        }
        fn wal_bytes(&self) -> u64 {
            lock(&self.0).len
        }
        fn generation(&self) -> u64 {
            0
        }
    }

    /// Records the version each publish makes visible.
    impl Publisher for Mutex<Vec<u64>> {
        fn publish(&self, group: &[PendingCommit]) {
            lock(self).push(group.last().unwrap().seq + 1);
        }
    }

    fn admit(p: &Pipeline<ScriptedLog>) -> Result<Ticket, Error> {
        Ok(p.begin_write()?
            .admit(PropertyGraph::new(), Vec::new(), None))
    }

    fn settled(t: &Ticket) -> Result<u64, Error> {
        t.try_recv()
            .expect("every admitted ticket is settled by now")
    }

    /// Group A commits and sets the durable boundary; the fault hits
    /// group B; group C is sealed behind B — queued while B seals
    /// (`queued_behind`: admitted from inside B's append, so the same
    /// leader seals it next) or admitted after B settled. The leader is
    /// the only actor and runs on the admitting thread, so every ticket
    /// is settled when `admit` returns: each interleaving is forced,
    /// none raced.
    fn run_schedule(mode: FsyncMode, fault: Fault, queued_behind: bool) {
        let case = format!("{mode:?} × {fault:?} × queued behind: {queued_behind}");
        let script = Arc::new(Mutex::new(Script::default()));
        let published = Arc::new(Mutex::new(Vec::<u64>::new()));
        let metrics = Arc::new(DatabaseMetrics::new(true));
        let head = GraphView::new(Arc::new(PropertyGraph::new()), 0);
        let pipeline = Arc::new(Pipeline::new(
            Some(ScriptedLog(Arc::clone(&script))),
            &head,
            Arc::clone(&published) as Arc<dyn Publisher>,
            Arc::clone(&metrics),
            mode,
            true,
        ));

        let a = admit(&pipeline).unwrap();
        assert_eq!(settled(&a), Ok(1), "{case}");
        let boundary = lock(&script).len;

        lock(&script).armed = Some(fault);
        let behind = Arc::new(Mutex::new(None));
        if queued_behind {
            let (p, slot) = (Arc::clone(&pipeline), Arc::clone(&behind));
            lock(&script).during_append = Some(Box::new(move || *lock(&slot) = Some(admit(&p))));
        }
        let b = admit(&pipeline).unwrap();
        let c = match lock(&behind).take() {
            Some(admitted) => settled(&admitted.unwrap()),
            None => admit(&pipeline).map(|_| unreachable!("{case}: admitted after poison")),
        };

        let poison = "database is read-only after a failed WAL commit: ";
        let refused = |r: &Result<u64, Error>| match r {
            Err(Error::Unavailable(msg)) => msg.starts_with(poison),
            _ => false,
        };
        let b = settled(&b);
        assert!(
            b.is_err() && !refused(&b),
            "{case}: B fails with its own error: {b:?}"
        );
        assert!(refused(&c), "{case}: C is refused: {c:?}");
        assert!(admit(&pipeline).is_err(), "{case}: so is everyone after");
        let s = lock(&script);
        assert_eq!(
            s.truncations,
            [boundary],
            "{case}: one rollback, the first failure's"
        );
        assert_eq!(
            s.len, boundary,
            "{case}: the log ends at the durable boundary"
        );
        assert_eq!(
            *lock(&published),
            [1u64],
            "{case}: nothing publishes after poison"
        );
        assert_eq!(metrics.poison_events.get(), 1, "{case}");
    }

    #[test]
    fn every_fault_schedule_fails_one_group_and_rolls_back_once() {
        use Fault::*;
        use FsyncMode::*;
        for (mode, fault) in [(Os, Append), (Sync, Append), (Sync, Flush)] {
            for queued_behind in [false, true] {
                run_schedule(mode, fault, queued_behind);
            }
        }
    }
}
