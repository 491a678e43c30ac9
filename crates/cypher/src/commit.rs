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
//! step and nothing else: none (`Os`), inline (`Sync`), or on the fsync
//! worker through a duplicate handle while the leader appends the next
//! group (`Pipelined`).
//!
//! Lock hierarchy (outer → inner): `apply` → `log` → `inflight` →
//! `poison`; the flush channel and the publisher's own locks are leaves.

use crate::registry::DatabaseMetrics;
use crate::{lock, Error};
use cypher_engine::FsyncMode;
use cypher_graph::{Change, GraphView, PropertyGraph, SharedChangeBuffer};
use cypher_storage::store::GroupReceipt;
use cypher_storage::{StorageError, Store};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Instant;

/// What [`WriteTxn::admit`] hands the writer to block on.
pub(crate) type Ticket = Receiver<Result<u64, Error>>;

/// A flush of everything appended so far that runs without the log —
/// on the fsync worker, through a duplicate handle.
pub(crate) type Flush = Box<dyn FnOnce() -> std::io::Result<()> + Send>;

/// The write-ahead log as the pipeline uses it.
pub(crate) trait Log: Send + 'static {
    /// Appends the batches as one atomic group.
    fn commit_group(&mut self, batches: &[&[Change]]) -> Result<GroupReceipt, StorageError>;
    /// Forces every appended byte to stable storage.
    fn sync(&mut self) -> Result<(), StorageError>;
    /// The same flush, detached from the log.
    fn sync_handle(&self) -> Result<Flush, StorageError>;
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
    fn sync_handle(&self) -> Result<Flush, StorageError> {
        let file = Store::sync_handle(self)?;
        Ok(Box::new(move || file.sync_all()))
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

/// How a durable group becomes visible. Publishers are serialized (the
/// seal leader in `Os`/`Sync` mode, the single fsync worker in
/// `Pipelined` mode) and see groups in seq order.
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

/// A sealed group handed to the fsync worker.
pub(crate) struct FlushJob {
    flush: Flush,
    wal_len_before: u64,
    group: Vec<PendingCommit>,
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

/// Everything the commit pipeline shares between writers, the group
/// leader and the fsync worker.
pub(crate) struct Pipeline<L: Log> {
    apply: Mutex<ApplyState>,
    /// Signalled when the leader retires (queue drained).
    leader_done: Condvar,
    log: Mutex<Option<L>>,
    /// First failure wins; set before any rollback I/O so a racing seal
    /// leader aborts instead of appending past the truncation point.
    poison: Mutex<Option<String>>,
    /// Groups handed to the fsync worker and not yet settled.
    inflight: Mutex<usize>,
    /// Signalled when `inflight` drops.
    drained: Condvar,
    /// Where `Pipelined` seals send their flush; `None` = no worker.
    flush_tx: Mutex<Option<Sender<FlushJob>>>,
    /// Test double: the next `n` worker flushes fail without touching
    /// the file (the `Sync`-mode double lives in the store itself).
    flush_fail_injections: AtomicU32,
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
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            flush_tx: Mutex::new(None),
            flush_fail_injections: AtomicU32::new(0),
            mirror,
            metrics,
            publisher,
            fsync_mode,
            group_commit,
        }
    }

    /// Whether a log backs this pipeline.
    pub(crate) fn durable(&self) -> bool {
        self.mirror.durable
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

    /// Runs `f` on the log, if there is one (test doubles live there).
    pub(crate) fn with_log(&self, f: impl FnOnce(&mut L)) {
        if let Some(log) = lock(&self.log).as_mut() {
            f(log);
        }
    }

    /// Test double: the next `n` flushes on the fsync worker fail.
    /// `false` when there is no worker to inject into.
    pub(crate) fn inject_flush_failures(&self, n: u32) -> bool {
        let worker = lock(&self.flush_tx).is_some();
        if worker {
            self.flush_fail_injections.store(n, Ordering::Relaxed);
        }
        worker
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
        // Poison is re-checked *under the log lock*: a failing flush on
        // the worker sets it before truncating, so either we see it here
        // and refuse, or our append lands first and the truncation cuts
        // it.
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
            if step.is_ok() {
                match self.fsync_mode {
                    FsyncMode::Os => {}
                    FsyncMode::Sync => step = self.timed_flush(|| log.sync()),
                    FsyncMode::Pipelined => match log.sync_handle() {
                        Err(e) => step = Err(e),
                        Ok(flush) => {
                            // Counted in flight before the leader can
                            // retire — quiesce must not observe an idle
                            // queue while a flush it cannot see is
                            // pending.
                            *lock(&self.inflight) += 1;
                            self.mirror.refresh(log);
                            drop(guard);
                            return self.hand_off(FlushJob {
                                flush,
                                wal_len_before,
                                group,
                            });
                        }
                    },
                }
            }
            if step.is_ok() {
                self.mirror.refresh(log);
            }
            step.map_err(Error::from)
        } else {
            Ok(()) // in-memory: admission is durability
        };
        self.settle(Some(guard), &group, outcome, wal_len_before);
    }

    /// Sends a sealed group to the fsync worker; a worker that is gone
    /// (it died, or close raced the seal) fails the group like any other
    /// flush that did not happen.
    fn hand_off(&self, job: FlushJob) {
        let sent = match &*lock(&self.flush_tx) {
            Some(tx) => tx.send(job).map_err(|e| e.0),
            None => Err(job),
        };
        if let Err(job) = sent {
            let gone = Error::Unavailable("fsync pipeline unavailable".to_string());
            self.finish_flush(&job.group, Err(gone), job.wal_len_before);
        }
    }

    /// One job of the fsync worker: flushes sealed groups in seal order,
    /// overlapping the flush of group N with the leader's append of
    /// group N+1. Publish (and the members' acknowledgements) happen
    /// here, *after* the flush — so in `Pipelined` mode no reader can
    /// pin a version whose group isn't on stable storage, the same
    /// guarantee `Sync` gives, at pipeline depth.
    fn flush_job(&self, job: FlushJob) {
        let injected = self
            .flush_fail_injections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        let FlushJob {
            flush,
            wal_len_before,
            group,
        } = job;
        let outcome = if let Some(msg) = self.poison_msg() {
            // An earlier group already failed: this one was sealed past
            // the failure point and its bytes are gone (or going) with
            // the rollback — it must not publish.
            Err(Error::Unavailable(msg))
        } else if injected {
            Err(StorageError::Io(std::io::Error::other("injected fsync failure")).into())
        } else {
            self.timed_flush(flush)
                .map_err(|e| StorageError::Io(e).into())
        };
        self.finish_flush(&group, outcome, wal_len_before);
    }

    fn finish_flush(&self, group: &[PendingCommit], outcome: Result<(), Error>, len_before: u64) {
        self.settle(None, group, outcome, len_before);
        *lock(&self.inflight) -= 1;
        self.drained.notify_all();
    }

    /// Runs a flush, recording its latency when it succeeds.
    fn timed_flush<E>(&self, flush: impl FnOnce() -> Result<(), E>) -> Result<(), E> {
        let started = Instant::now();
        let flushed = flush();
        if flushed.is_ok() && self.metrics.enabled() {
            self.metrics
                .fsync_latency_us
                .record(started.elapsed().as_micros() as u64);
        }
        flushed
    }

    /// **How a sealed group ends** — the only place a commit is
    /// acknowledged, refused or rolled back. `outcome` is the result of
    /// its append and flush step; `wal_len_before` is the log length
    /// before its append; `held` is the log lock if the caller (the seal
    /// leader) still holds it.
    ///
    /// * **Durable**: publish one version covering every member (the
    ///   last candidate at `last.seq + 1`), then complete each member's
    ///   ticket with its own version id `seq + 1`.
    /// * **Not durable**: poison FIRST, then roll back under the log
    ///   lock, then fail exactly this group's tickets with its own
    ///   error. A seal leader already holding the log lock gets its
    ///   append cut by the truncation; one that hasn't acquired it yet
    ///   sees the poison and refuses. Either way disk never keeps a
    ///   group that memory refused, and no reader sees one.
    /// * **Only the poison winner rolls back.** With two groups in
    ///   flight (the pipelined steady state) the first failure truncates
    ///   to its own `wal_len_before`, which already cuts every later
    ///   group's bytes. A later group arrives here refused (its
    ///   `outcome` is the poison) or failing on its own; its rollback
    ///   target lies *past* the restored boundary, and truncating to it
    ///   would zero-extend the log over the durable prefix — a clean
    ///   rollback turned into an unopenable file. Losing the race needs
    ///   no I/O at all.
    fn settle(
        &self,
        mut held: Option<MutexGuard<'_, Option<L>>>,
        group: &[PendingCommit],
        outcome: Result<(), Error>,
        wal_len_before: u64,
    ) {
        let Err(err) = outcome else {
            drop(held);
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
            let mut log = held.take().unwrap_or_else(|| lock(&self.log));
            if let Some(log) = log.as_mut() {
                let _ = log.truncate(wal_len_before);
                self.mirror.refresh(log);
            }
        }
        drop(held);
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

    /// Blocks until the pipeline is idle — queue drained, no leader, no
    /// in-flight flushes — and returns the apply guard, which the caller
    /// holds to keep new writers out. On return the latest published
    /// version is exactly the state of every sealed batch.
    pub(crate) fn quiesce(&self) -> MutexGuard<'_, ApplyState> {
        let mut apply = lock(&self.apply);
        while apply.leader_running || !apply.queue.is_empty() {
            apply = self
                .leader_done
                .wait(apply)
                .unwrap_or_else(|e| e.into_inner());
        }
        let mut inflight = lock(&self.inflight);
        while *inflight > 0 {
            inflight = self
                .drained
                .wait(inflight)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(inflight);
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
    /// sessions linger), closes the write path, and retires the fsync
    /// worker by disconnecting its channel.
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
        *lock(&self.flush_tx) = None;
        Ok(())
    }
}

/// The fsync worker's loop. It holds only a `Weak`, so a dropped (not
/// closed) database releases its log — and with it the data directory's
/// lock — synchronously instead of waiting for this thread to notice the
/// disconnected channel. A job can only be in flight while its writer
/// blocks on the ticket (holding the database alive), so the upgrade
/// cannot fail under a pending job.
fn fsync_worker<L: Log>(pipeline: Weak<Pipeline<L>>, rx: Receiver<FlushJob>) {
    while let Ok(job) = rx.recv() {
        let Some(pipeline) = pipeline.upgrade() else {
            return;
        };
        pipeline.flush_job(job);
    }
}

/// The owner's handle on a pipeline: starts the fsync worker a durable
/// `Pipelined` pipeline needs, and on drop disconnects and **joins** it.
/// Mid-job the worker holds the log alive (and with it the data
/// directory's single-writer lock), so dropping the database must not
/// return until the lock is actually free — a reopen right after the
/// drop would otherwise race the release and see `Locked`. The worker
/// holds a `Weak` on the pipeline and nothing on this handle, so the
/// join cannot deadlock.
pub(crate) struct PipelineHandle<L: Log> {
    pipeline: Arc<Pipeline<L>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<L: Log> PipelineHandle<L> {
    pub(crate) fn start(pipeline: Pipeline<L>) -> std::io::Result<PipelineHandle<L>> {
        let pipeline = Arc::new(pipeline);
        let mut worker = None;
        if pipeline.durable() && pipeline.fsync_mode == FsyncMode::Pipelined {
            let (tx, rx) = mpsc::channel();
            *lock(&pipeline.flush_tx) = Some(tx);
            let weak = Arc::downgrade(&pipeline);
            let spawned = std::thread::Builder::new().name("cypher-fsync".to_string());
            worker = Some(spawned.spawn(move || fsync_worker(weak, rx))?);
        }
        Ok(PipelineHandle { pipeline, worker })
    }
}

impl<L: Log> std::ops::Deref for PipelineHandle<L> {
    type Target = Arc<Pipeline<L>>;
    fn deref(&self) -> &Arc<Pipeline<L>> {
        &self.pipeline
    }
}

impl<L: Log> Drop for PipelineHandle<L> {
    fn drop(&mut self) {
        *lock(&self.pipeline.flush_tx) = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tmpdir;
    use crate::{Database, EngineConfig, Params, Value};

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
            let old = lock(&db.inner.pipeline.flush_tx).replace(tx);
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
            let pipeline = &db.inner.pipeline;
            pipeline.flush_fail_injections.store(1, Ordering::Relaxed);
            let (wtx, wrx) = mpsc::channel();
            let weak = Arc::downgrade(pipeline);
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

    /// Where the scripted log's one armed failure fires.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        Append,
        Flush,
        SyncHandle,
        WorkerGone,
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
        fn sync_handle(&self) -> Result<Flush, StorageError> {
            fire(&self.0, Fault::SyncHandle)?;
            let script = Arc::clone(&self.0);
            Ok(Box::new(move || fire(&script, Fault::Flush)))
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
    /// group B; group C is sealed behind B — while B is still in flight
    /// (`in_flight == 2`: admitted from inside B's append) or after B
    /// settled. The test itself plays the fsync worker, so every
    /// interleaving is forced, none raced.
    fn run_schedule(mode: FsyncMode, fault: Fault, in_flight: usize) {
        let case = format!("{mode:?} × {fault:?} × {in_flight} in flight");
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
        let (tx, jobs) = mpsc::channel();
        *lock(&pipeline.flush_tx) = (mode == FsyncMode::Pipelined).then_some(tx);
        let run_worker = || jobs.try_iter().for_each(|job| pipeline.flush_job(job));

        let a = admit(&pipeline).unwrap();
        run_worker();
        assert_eq!(settled(&a), Ok(1), "{case}");
        let boundary = lock(&script).len;

        match fault {
            Fault::WorkerGone => *lock(&pipeline.flush_tx) = None,
            fault => lock(&script).armed = Some(fault),
        }
        let behind = Arc::new(Mutex::new(None));
        if in_flight == 2 {
            let (p, slot) = (Arc::clone(&pipeline), Arc::clone(&behind));
            lock(&script).during_append = Some(Box::new(move || *lock(&slot) = Some(admit(&p))));
        }
        let b = admit(&pipeline).unwrap();
        run_worker();
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
        assert_eq!(
            *lock(&pipeline.inflight),
            0,
            "{case}: nothing left in flight"
        );
    }

    #[test]
    fn every_fault_schedule_fails_one_group_and_rolls_back_once() {
        use Fault::*;
        use FsyncMode::*;
        let sites = [
            (Os, Append),
            (Sync, Append),
            (Sync, Flush),
            (Pipelined, Append),
            (Pipelined, SyncHandle),
            (Pipelined, WorkerGone),
            (Pipelined, Flush),
        ];
        for (mode, fault) in sites {
            for in_flight in [1, 2] {
                run_schedule(mode, fault, in_flight);
            }
        }
    }
}
