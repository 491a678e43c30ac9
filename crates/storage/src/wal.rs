//! The append-only write-ahead log.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic record*
//! magic  := "CYWAL002"                      (8 bytes)
//! record := len:u32 crc:u32 payload         (len = payload bytes, crc = CRC-32(payload))
//! payload := 0x01 change                    (one encoded Change)
//!          | 0x02 seq:u64 count:u32         (commit: batch seq + change count)
//!          | 0x03 first_seq:u64 count:u32   (group seal: `count` batches from `first_seq`)
//! ```
//!
//! Changes stream in mutation order; a **commit record** stages the
//! preceding changes as one batch, and a **group record** seals every
//! batch staged since the previous group as one durable unit (the
//! `Database` facade's group-commit queue writes one group per WAL
//! write+fsync — a group of one for sequential writers). Replay applies
//! batches only when their covering group record is intact: a crash
//! anywhere inside a group — between records, inside one, or before the
//! group record lands — leaves a torn tail, which replay discards by
//! truncating the file back to the last sealed group boundary. A group
//! is therefore all-or-nothing: recovery never yields a torn group, and
//! never a partially-applied member batch. Torn tails are expected (that
//! is what a crash looks like); corruption *before* the last sealed
//! group is not, and surfaces as [`StorageError::Corrupt`] instead of
//! silently dropping data.
//!
//! Logs written by the previous release (magic `CYWAL001` — same
//! framing, no group records) replay with each commit sealing its own
//! batch; the store upgrades such directories immediately after replay
//! (see [`WAL_MAGIC_V1`]). A `CYWAL0xx` magic of any *other* version is
//! reported as [`StorageError::UnsupportedVersion`], never as
//! corruption.

use crate::codec::{crc32, put_change, put_u32, put_u64, Reader};
use crate::StorageError;
use cypher_graph::change::Change;
use cypher_graph::{NodeId, PropertyGraph, RelId};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// The WAL file magic (8 bytes, versioned).
pub const WAL_MAGIC: &[u8; 8] = b"CYWAL002";

/// The previous format's magic. Version 1 had no group records: each
/// commit record sealed its own batch — exactly a group of one under
/// today's semantics — so [`replay`] still reads these logs.
/// `Store::open` then upgrades the directory (checkpoint + fresh
/// current-format log) so the writer never appends group records into a
/// v1 file.
pub const WAL_MAGIC_V1: &[u8; 8] = b"CYWAL001";

/// Checks a WAL file's magic. `Ok(version)` for formats replay
/// understands; a well-formed `CYWAL0xx` magic of any other version is
/// the dedicated [`StorageError::UnsupportedVersion`] (a log written by
/// a different release is not corruption); anything else is
/// [`StorageError::Corrupt`]. The caller guarantees `buf` holds at
/// least the 8 magic bytes.
fn check_magic(buf: &[u8]) -> Result<u32, StorageError> {
    let magic = &buf[..WAL_MAGIC.len()];
    let version = magic
        .strip_prefix(b"CYWAL")
        .and_then(|digits| std::str::from_utf8(digits).ok())
        .and_then(|digits| digits.parse::<u32>().ok());
    match version {
        Some(2) if magic == WAL_MAGIC => Ok(2),
        Some(1) if magic == WAL_MAGIC_V1 => Ok(1),
        Some(v) => Err(StorageError::UnsupportedVersion(v)),
        None => Err(StorageError::corrupt("wal: bad magic", 0)),
    }
}

/// Payload kind byte: one change record.
pub const KIND_CHANGE: u8 = 0x01;
/// Payload kind byte: a batch commit (stages the preceding changes).
pub const KIND_COMMIT: u8 = 0x02;
/// Payload kind byte: a group seal (makes the staged batches durable).
pub const KIND_GROUP: u8 = 0x03;

/// Frames a payload as one WAL record: length, CRC-32, payload.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Reads the record frame starting at `pos`, returning `(payload,
/// end_offset)`. Any inconsistency — header past EOF, length past EOF,
/// CRC mismatch — is reported as [`StorageError::Corrupt`] at `pos`.
pub fn read_frame(buf: &[u8], pos: usize) -> Result<(&[u8], usize), StorageError> {
    let bad = |what: &str| StorageError::corrupt(format!("wal record: {what}"), pos as u64);
    if buf.len() - pos < 8 {
        return Err(bad("truncated header"));
    }
    let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
    let body_start = pos + 8;
    if len == 0 || len > buf.len() - body_start {
        return Err(bad("length past end of file"));
    }
    let payload = &buf[body_start..body_start + len];
    if crc32(payload) != crc {
        return Err(bad("CRC mismatch"));
    }
    Ok((payload, body_start + len))
}

/// Is a frame failure at `pos` consistent with a **torn write** (which
/// can only damage a suffix of the file), as opposed to corruption in
/// the middle of data that was once durably written?
///
/// Torn shapes: a header cut off by EOF; a zero-filled tail (a
/// partially written page); a claimed extent running past EOF **with no
/// CRC-valid frame anywhere after it** (a rotted length field also
/// claims an impossible extent, but then the record's real successors
/// still frame correctly — resync finds them and the failure is
/// corruption); a CRC mismatch on a record whose extent ends exactly at
/// EOF. Anything else means bytes before intact committed data have
/// rotted, and replay must refuse rather than silently truncate the
/// batches after it.
fn frame_failure_is_torn_tail(buf: &[u8], pos: usize) -> bool {
    if buf.len() - pos < 8 {
        return true;
    }
    let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
    if len == 0 {
        // A half-flushed page leaves zeros; genuine corruption leaves a
        // zero length with live data after it.
        return buf[pos..].iter().all(|&b| b == 0);
    }
    let body_start = pos + 8;
    if len > buf.len() - body_start {
        return !has_valid_frame_after(buf, pos + 1);
    }
    body_start + len == buf.len()
}

/// Scans forward byte-by-byte for any offset at which a CRC-valid frame
/// begins. A genuine tear is at most one partial batch, so this scan is
/// tiny in the honest case; a hit after a failed frame proves the file
/// continues past the failure — i.e. mid-file corruption, not a tear.
/// (A 2⁻³² per-offset false positive turns a real tear into a loud
/// refusal — the safe direction.)
fn has_valid_frame_after(buf: &[u8], from: usize) -> bool {
    (from..buf.len().saturating_sub(8)).any(|off| read_frame(buf, off).is_ok())
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends change batches to a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    bytes: u64,
    next_seq: u64,
    /// Set when an append or sync failed: the file may end in a partial
    /// frame, and appending more records *after* that garbage would turn
    /// a recoverable torn tail into unrecoverable mid-file corruption.
    /// A damaged writer refuses all further appends.
    damaged: bool,
    /// Test double: number of upcoming `sync` calls forced to fail.
    fail_syncs: u32,
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (truncating anything there) and
    /// writes the magic. `first_seq` seeds the batch sequence so that
    /// batch numbers stay monotonic across checkpoints.
    pub fn create(path: &Path, first_seq: u64) -> Result<WalWriter, StorageError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        crate::sync_parent_dir(path);
        Ok(WalWriter {
            file,
            bytes: WAL_MAGIC.len() as u64,
            next_seq: first_seq,
            damaged: false,
            fail_syncs: 0,
        })
    }

    /// Opens an existing WAL for appending after replay validated (and
    /// possibly truncated) it to `valid_len` bytes.
    pub fn open_append(
        path: &Path,
        valid_len: u64,
        next_seq: u64,
    ) -> Result<WalWriter, StorageError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter {
            file,
            bytes: valid_len,
            next_seq,
            damaged: false,
            fail_syncs: 0,
        })
    }

    /// Appends one sealed commit group — every member batch as change
    /// records plus a commit record, then one group record covering them
    /// all — as a single contiguous write handed to the OS. Returns the
    /// sequence number of the group's first batch; members receive
    /// consecutive seqs in slice order.
    ///
    /// Durability scope: a sealed group survives **process** death (the
    /// bytes live in the kernel page cache after `write(2)` returns); it
    /// is not yet fsynced, so an OS crash or power loss may still tear
    /// it — which replay then handles as a torn tail covering the whole
    /// group. Call [`WalWriter::sync`] (or checkpoint) to force stable
    /// storage.
    pub fn append_group(&mut self, batches: &[&[Change]]) -> Result<u64, StorageError> {
        if self.damaged {
            return Err(StorageError::corrupt(
                "wal writer disabled by an earlier append/sync failure",
                self.bytes,
            ));
        }
        assert!(!batches.is_empty(), "a commit group has at least one batch");
        let first_seq = self.next_seq;
        let mut out = Vec::new();
        let mut payload = Vec::new();
        for (i, changes) in batches.iter().enumerate() {
            for c in *changes {
                payload.clear();
                payload.push(KIND_CHANGE);
                put_change(&mut payload, c);
                out.extend_from_slice(&frame_record(&payload));
            }
            payload.clear();
            payload.push(KIND_COMMIT);
            put_u64(&mut payload, first_seq + i as u64);
            put_u32(&mut payload, changes.len() as u32);
            out.extend_from_slice(&frame_record(&payload));
        }
        payload.clear();
        payload.push(KIND_GROUP);
        put_u64(&mut payload, first_seq);
        put_u32(&mut payload, batches.len() as u32);
        out.extend_from_slice(&frame_record(&payload));
        if let Err(e) = self.file.write_all(&out).and_then(|()| self.file.flush()) {
            // The file may now end in a partial frame. Refuse further
            // appends: recovery truncates a torn *tail* cleanly, but
            // valid frames written after garbage would read as mid-file
            // corruption and make the whole log refuse to open.
            self.damaged = true;
            return Err(e.into());
        }
        self.bytes += out.len() as u64;
        self.next_seq = first_seq + batches.len() as u64;
        Ok(first_seq)
    }

    /// Appends one atomic batch as a group of one. Returns its seq.
    pub fn append_batch(&mut self, changes: &[Change]) -> Result<u64, StorageError> {
        self.append_group(&[changes])
    }

    /// Bytes written so far (the compaction trigger reads this).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The sequence number the next batch will receive (equivalently, the
    /// number of batches committed so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Forces written data to stable storage. After a failed fsync the
    /// kernel's page-cache state is unknowable, so the writer is
    /// disabled (the classic fsync-error rule: never retry blindly).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if self.fail_syncs > 0 {
            self.fail_syncs -= 1;
            self.damaged = true;
            return Err(std::io::Error::other("injected fsync failure").into());
        }
        if let Err(e) = self.file.sync_all() {
            self.damaged = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Cuts the file back to `len` bytes — the group-commit pipeline's
    /// cleanup after a failed seal, restoring disk to the last durable
    /// group so it never holds more than memory acknowledged. The writer
    /// stays damaged if it already was; truncation does not re-arm it.
    ///
    /// A rollback must only ever *shrink* the log: `set_len` past EOF
    /// zero-extends, and a zero-filled tail beyond the durable boundary
    /// parses as garbage on replay. A target past the current length
    /// (e.g. a second failed group whose rollback point was already cut
    /// by the first failure's truncation) is therefore refused.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), StorageError> {
        if len > self.bytes {
            return Err(StorageError::corrupt(
                format!(
                    "wal rollback to {len} bytes would extend the {}-byte log",
                    self.bytes
                ),
                self.bytes,
            ));
        }
        self.file.set_len(len)?;
        self.bytes = len;
        Ok(())
    }

    /// Test double: forces the next `n` calls to [`WalWriter::sync`] to
    /// fail (and damage the writer) without touching the file.
    #[doc(hidden)]
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.fail_syncs = n;
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What replay found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Committed batches applied to the graph.
    pub batches_applied: u64,
    /// Sealed commit groups those batches arrived in.
    pub groups_applied: u64,
    /// Change records inside those batches.
    pub changes_applied: usize,
    /// Bytes cut off the end of the file (torn or unsealed tail).
    pub truncated_bytes: u64,
    /// Decoded-but-unsealed change records the truncation discarded
    /// (loose changes plus staged batches no group record covered).
    pub discarded_changes: usize,
    /// File length after truncation — where the writer resumes.
    pub valid_len: u64,
    /// The sequence number the next batch should use.
    pub next_seq: u64,
    /// On-disk format version the log was written in (see
    /// [`WAL_MAGIC_V1`]; the store upgrades version-1 directories right
    /// after replay).
    pub format_version: u32,
}

/// Replays a WAL into `graph`, truncating any torn or unsealed tail.
///
/// Total by construction: corrupt *sealed* data (a group whose records
/// are intact but whose application the graph rejects, e.g. a dangling
/// id) is a hard [`StorageError`]; everything after the last intact
/// group record is treated as a crash artifact and truncated away —
/// commit groups are all-or-nothing, so a crash mid-group discards every
/// member batch, never a prefix of one. Changes apply through the
/// graph's ordinary mutators, so indexes are kept by the same hooks a
/// live commit runs.
pub fn replay(path: &Path, graph: &mut PropertyGraph) -> Result<ReplaySummary, StorageError> {
    let buf = std::fs::read(path)?;
    let mut summary = ReplaySummary::default();
    if buf.len() < WAL_MAGIC.len() {
        // A crash while writing the very header: nothing was ever
        // committed. Rewrite the file as a fresh, empty log.
        let writer = WalWriter::create(path, 0)?;
        summary.truncated_bytes = buf.len() as u64;
        summary.valid_len = writer.bytes();
        summary.format_version = 2;
        return Ok(summary);
    }
    let version = check_magic(&buf)?;
    summary.format_version = version;

    let mut pos = WAL_MAGIC.len();
    let mut last_sealed_end = pos;
    let mut pending: Vec<Change> = Vec::new();
    let mut staged: Vec<(u64, Vec<Change>)> = Vec::new();
    // Replay loads into a graph the caller owns: lists an append left out
    // of order are sorted once when the scope ends.
    graph.bulk_load(|graph| {
        loop {
            if pos == buf.len() {
                break;
            }
            let (payload, end) = match read_frame(&buf, pos) {
                Ok(ok) => ok,
                // A frame failure that touches EOF is what a crash looks
                // like: truncate. One with intact data after it means bytes
                // that were once durably written have rotted — surface it
                // instead of silently cutting off every later group.
                Err(_) if frame_failure_is_torn_tail(&buf, pos) => break,
                Err(e) => return Err(e),
            };
            enum Decoded {
                Change(Change),
                Commit { seq: u64, count: usize },
                Group { first_seq: u64, count: usize },
            }
            let mut r = Reader::new(payload, "wal payload");
            let decoded: Result<Decoded, StorageError> = (|| match r.u8()? {
                KIND_CHANGE => Ok(Decoded::Change(r.change()?)),
                KIND_COMMIT => {
                    let seq = r.u64()?;
                    let count = r.u32()? as usize;
                    Ok(Decoded::Commit { seq, count })
                }
                // Group records exist only in version 2; in a v1 log a 0x03
                // kind byte is garbage and falls through to "unknown kind".
                KIND_GROUP if version == 2 => {
                    let first_seq = r.u64()?;
                    let count = r.u32()? as usize;
                    Ok(Decoded::Group { first_seq, count })
                }
                _ => Err(StorageError::corrupt(
                    "wal: unknown record kind",
                    pos as u64,
                )),
            })();
            let mut seal = false;
            match decoded {
                Ok(Decoded::Change(c)) => pending.push(c),
                Ok(Decoded::Commit { seq, count }) => {
                    if count != pending.len() {
                        let e = StorageError::corrupt(
                            format!(
                                "wal commit {seq}: claims {count} changes, found {}",
                                pending.len()
                            ),
                            pos as u64,
                        );
                        // A mismatched final commit is indistinguishable from
                        // a torn write (its change records were the casualty);
                        // anywhere else it is genuine corruption.
                        if end == buf.len() {
                            break;
                        }
                        return Err(e);
                    }
                    staged.push((seq, std::mem::take(&mut pending)));
                    // Version 1 had no group records: every commit seals its
                    // own batch, a group of one.
                    seal = version == 1;
                }
                Ok(Decoded::Group { first_seq, count }) => {
                    // The group record must cover exactly the batches staged
                    // since the previous group: right count, right first seq,
                    // consecutive seqs, no loose changes after the last
                    // commit. A mismatched *final* record is a torn seal;
                    // anywhere else the sealed history has rotted.
                    let coherent = count > 0
                        && pending.is_empty()
                        && staged.len() == count
                        && staged
                            .iter()
                            .enumerate()
                            .all(|(i, (seq, _))| *seq == first_seq + i as u64);
                    if !coherent {
                        let e = StorageError::corrupt(
                            format!(
                                "wal group at {first_seq}: claims {count} staged batches, found {}",
                                staged.len()
                            ),
                            pos as u64,
                        );
                        if end == buf.len() {
                            break;
                        }
                        return Err(e);
                    }
                    seal = true;
                }
                Err(e) => {
                    // Decode errors never mutate the graph: a final record
                    // that frames but does not decode is treated as torn.
                    if end == buf.len() {
                        break;
                    }
                    return Err(e);
                }
            }
            if seal {
                // Application failures are *always* hard errors — changes
                // mutate the graph as they apply, so a partially applied
                // group must never be reported as a clean recovery.
                for (seq, changes) in staged.drain(..) {
                    for c in changes {
                        apply_change(graph, &c)?;
                        summary.changes_applied += 1;
                    }
                    summary.batches_applied += 1;
                    summary.next_seq = seq + 1;
                }
                summary.groups_applied += 1;
                last_sealed_end = end;
            }
            pos = end;
        }
        Ok(())
    })?;

    summary.discarded_changes = pending.len() + staged.iter().map(|(_, c)| c.len()).sum::<usize>();
    summary.truncated_bytes = (buf.len() - last_sealed_end) as u64;
    summary.valid_len = last_sealed_end as u64;
    if summary.truncated_bytes > 0 {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(summary.valid_len)?;
        f.sync_all()?;
    }
    Ok(summary)
}

/// Applies one change record through the graph's public mutators,
/// re-interning every token string. Total: dangling ids, duplicate ids
/// and impossible deletions come back as structured errors, never panics.
pub fn apply_change(g: &mut PropertyGraph, c: &Change) -> Result<(), StorageError> {
    match c {
        Change::AddNode { id, labels, props } => {
            let expected = NodeId(g.node_slot_count() as u64);
            if *id != expected {
                return Err(StorageError::corrupt(
                    format!("AddNode out of sequence: got {id}, expected {expected}"),
                    0,
                ));
            }
            let labels: Vec<_> = labels.iter().map(|l| g.intern(l)).collect();
            let props: Vec<_> = props
                .iter()
                .map(|(k, v)| (g.intern(k), v.clone()))
                .collect();
            g.add_node_syms(labels, props);
            Ok(())
        }
        Change::AddRel {
            id,
            src,
            tgt,
            rel_type,
            props,
        } => {
            let expected = RelId(g.rel_slot_count() as u64);
            if *id != expected {
                return Err(StorageError::corrupt(
                    format!("AddRel out of sequence: got {id}, expected {expected}"),
                    0,
                ));
            }
            let t = g.intern(rel_type);
            let props: Vec<_> = props
                .iter()
                .map(|(k, v)| (g.intern(k), v.clone()))
                .collect();
            g.add_rel_syms(*src, *tgt, t, props)?;
            Ok(())
        }
        Change::DeleteNode { id } => Ok(g.delete_node(*id)?),
        Change::DeleteRel { id } => Ok(g.delete_rel(*id)?),
        Change::SetNodeProp { id, key, value } => {
            let k = g.intern(key);
            Ok(g.set_node_prop(*id, k, value.clone())?)
        }
        Change::SetRelProp { id, key, value } => {
            let k = g.intern(key);
            Ok(g.set_rel_prop(*id, k, value.clone())?)
        }
        Change::RemoveNodeProp { id, key } => {
            let k = g.intern(key);
            Ok(g.remove_node_prop(*id, k)?)
        }
        Change::ReplaceNodeProps { id, props } => {
            let props: Vec<_> = props
                .iter()
                .map(|(k, v)| (g.intern(k), v.clone()))
                .collect();
            Ok(g.replace_node_props(*id, props)?)
        }
        Change::AddLabel { id, label } => {
            let l = g.intern(label);
            Ok(g.add_label(*id, l)?)
        }
        Change::RemoveLabel { id, label } => {
            let l = g.intern(label);
            Ok(g.remove_label(*id, l)?)
        }
    }
}

// ---------------------------------------------------------------------------
// Scanning (tools & the kill-point sweep harness)
// ---------------------------------------------------------------------------

/// One parsed record of a WAL file, as reported by [`scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecordInfo {
    /// Byte offset of the record's frame header.
    pub start: u64,
    /// Byte offset one past the record's last byte.
    pub end: u64,
    /// The payload kind ([`KIND_CHANGE`], [`KIND_COMMIT`] or
    /// [`KIND_GROUP`]).
    pub kind: u8,
    /// Number of commit records at or before this record (batches
    /// *staged*, whether or not a group record has sealed them yet).
    pub commits_through: u64,
    /// Number of batches covered by group records at or before this
    /// record — what replay would recover from a file cut at `end`.
    pub durable_through: u64,
}

/// Parses a WAL file's record structure without applying anything —
/// the kill-point sweep uses the offsets as truncation targets.
pub fn scan(path: &Path) -> Result<Vec<WalRecordInfo>, StorageError> {
    let buf = std::fs::read(path)?;
    if buf.len() < WAL_MAGIC.len() {
        return Err(StorageError::corrupt("wal: bad magic", 0));
    }
    let version = check_magic(&buf)?;
    let mut out = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut commits = 0u64;
    let mut durable = 0u64;
    while pos < buf.len() {
        let (payload, end) = read_frame(&buf, pos)?;
        let kind = *payload.first().unwrap_or(&0);
        if kind == KIND_COMMIT {
            commits += 1;
            if version == 1 {
                // v1 has no group records: a commit is its own seal.
                durable = commits;
            }
        }
        if kind == KIND_GROUP {
            // A well-formed log seals every staged batch with its next
            // group record, so "durable through here" is simply every
            // commit seen so far.
            durable = commits;
        }
        out.push(WalRecordInfo {
            start: pos as u64,
            end: end as u64,
            kind,
            commits_through: commits,
            durable_through: durable,
        });
        pos = end;
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cypher_graph::Value;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cypher-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_batch() -> Vec<Change> {
        vec![
            Change::AddNode {
                id: NodeId(0),
                labels: vec![Arc::from("A")],
                props: vec![(Arc::from("v"), Value::int(1))],
            },
            Change::AddNode {
                id: NodeId(1),
                labels: vec![],
                props: vec![],
            },
            Change::AddRel {
                id: RelId(0),
                src: NodeId(0),
                tgt: NodeId(1),
                rel_type: Arc::from("X"),
                props: vec![],
            },
        ]
    }

    #[test]
    fn write_then_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append_batch(&sample_batch()).unwrap();
        w.append_batch(&[Change::SetNodeProp {
            id: NodeId(1),
            key: Arc::from("v"),
            value: Value::int(9),
        }])
        .unwrap();
        let mut g = PropertyGraph::new();
        let s = replay(&path, &mut g).unwrap();
        assert_eq!(s.batches_applied, 2);
        assert_eq!(s.groups_applied, 2);
        assert_eq!(s.changes_applied, 4);
        assert_eq!(s.truncated_bytes, 0);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 1);
        assert_eq!(g.node_prop_by_name(NodeId(1), "v"), Some(&Value::int(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_truncated() {
        let dir = tmpdir("tail");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append_batch(&sample_batch()).unwrap();
        let committed_len = w.bytes();
        // Hand-write a change record with no commit after it.
        let mut payload = vec![KIND_CHANGE];
        put_change(&mut payload, &Change::DeleteRel { id: RelId(0) });
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame_record(&payload)).unwrap();
        drop(f);

        let mut g = PropertyGraph::new();
        let s = replay(&path, &mut g).unwrap();
        assert_eq!(s.batches_applied, 1);
        assert_eq!(s.discarded_changes, 1);
        assert!(s.truncated_bytes > 0);
        assert_eq!(s.valid_len, committed_len);
        assert_eq!(g.rel_count(), 1, "uncommitted delete not applied");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            committed_len,
            "file truncated back to the last commit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_record_tear_recovers_prefix() {
        let dir = tmpdir("tear");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append_batch(&sample_batch()).unwrap();
        let good = w.bytes();
        w.append_batch(&[Change::DeleteRel { id: RelId(0) }])
            .unwrap();
        // Tear the file in the middle of the second batch.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(good + 3).unwrap();
        drop(f);
        let mut g = PropertyGraph::new();
        let s = replay(&path, &mut g).unwrap();
        assert_eq!(s.batches_applied, 1);
        assert_eq!(s.valid_len, good);
        assert_eq!(g.rel_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_corruption_is_a_hard_error() {
        let dir = tmpdir("hard");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        // A batch whose application must fail: deleting a rel that never
        // existed. The frame itself is intact, and more data follows, so
        // this is corruption, not a torn tail.
        w.append_batch(&[Change::DeleteRel { id: RelId(7) }])
            .unwrap();
        w.append_batch(&sample_batch()).unwrap();
        let mut g = PropertyGraph::new();
        assert!(matches!(
            replay(&path, &mut g),
            Err(StorageError::Graph(_) | StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reports_boundaries() {
        let dir = tmpdir("scan");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append_batch(&sample_batch()).unwrap();
        w.append_batch(&sample_batch()[1..2]).unwrap();
        let records = scan(&path).unwrap();
        // 3 changes + commit + group, then 1 change + commit + group.
        assert_eq!(records.len(), 8);
        assert_eq!(records[3].kind, KIND_COMMIT);
        assert_eq!(records[3].commits_through, 1);
        assert_eq!(records[3].durable_through, 0, "staged but not yet sealed");
        assert_eq!(records[4].kind, KIND_GROUP);
        assert_eq!(records[4].durable_through, 1);
        assert_eq!(records[6].kind, KIND_COMMIT);
        assert_eq!(records[6].commits_through, 2);
        assert_eq!(records[7].kind, KIND_GROUP);
        assert_eq!(records[7].durable_through, 2);
        assert_eq!(records[0].start, WAL_MAGIC.len() as u64);
        assert_eq!(records[7].end, w.bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_batch_group_replays_every_member_with_consecutive_seqs() {
        let dir = tmpdir("group");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        let update = [Change::SetNodeProp {
            id: NodeId(1),
            key: Arc::from("v"),
            value: Value::int(9),
        }];
        let first = w.append_group(&[&sample_batch(), &update]).unwrap();
        assert_eq!(first, 0);
        assert_eq!(w.next_seq(), 2);
        let mut g = PropertyGraph::new();
        let s = replay(&path, &mut g).unwrap();
        assert_eq!(s.batches_applied, 2);
        assert_eq!(s.groups_applied, 1);
        assert_eq!(s.next_seq, 2);
        assert_eq!(g.node_prop_by_name(NodeId(1), "v"), Some(&Value::int(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_batches_without_a_group_record_are_discarded_whole() {
        // A crash after the member records land but before the group
        // record does must roll back *every* member batch — the group is
        // all-or-nothing, even though each member's commit record is
        // intact on disk.
        let dir = tmpdir("unsealed");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append_batch(&sample_batch()).unwrap();
        let sealed_len = w.bytes();
        w.append_group(&[
            &[Change::SetNodeProp {
                id: NodeId(0),
                key: Arc::from("v"),
                value: Value::int(2),
            }],
            &[Change::DeleteRel { id: RelId(0) }],
        ])
        .unwrap();
        // Cut the second group's seal record off (keep its commits).
        let records = scan(&path).unwrap();
        let last_group_start = records
            .iter()
            .rev()
            .find(|r| r.kind == KIND_GROUP)
            .unwrap()
            .start;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(last_group_start).unwrap();
        drop(f);

        let mut g = PropertyGraph::new();
        let s = replay(&path, &mut g).unwrap();
        assert_eq!(s.batches_applied, 1, "only the sealed group recovered");
        assert_eq!(s.groups_applied, 1);
        assert_eq!(s.discarded_changes, 2, "both staged member batches dropped");
        assert_eq!(s.valid_len, sealed_len);
        assert_eq!(s.next_seq, 1);
        assert_eq!(g.rel_count(), 1, "unsealed delete not applied");
        assert_eq!(g.node_prop_by_name(NodeId(0), "v"), Some(&Value::int(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_never_extends_the_file() {
        let dir = tmpdir("noextend");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        let first = w.bytes();
        w.append_batch(&sample_batch()).unwrap();
        let sealed = w.bytes();
        // A rollback target past EOF (a stale wal_len_before from a
        // group whose bytes a prior rollback already cut) must refuse:
        // set_len would zero-extend the log past the durable boundary.
        assert!(w.truncate_to(sealed + 64).is_err());
        assert_eq!(w.bytes(), sealed, "refused rollback leaves state alone");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), sealed);
        // Shrinking (the legitimate direction) still works.
        w.truncate_to(first).unwrap();
        assert_eq!(w.bytes(), first);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hand-writes a version-1 log: magic `CYWAL001`, then for each
    /// batch its change records followed by a commit record — no group
    /// records (they did not exist in v1).
    pub(crate) fn write_v1_log(path: &Path, batches: &[Vec<Change>]) {
        let mut buf = Vec::new();
        buf.extend_from_slice(WAL_MAGIC_V1);
        let mut payload = Vec::new();
        for (seq, changes) in batches.iter().enumerate() {
            for c in changes {
                payload.clear();
                payload.push(KIND_CHANGE);
                put_change(&mut payload, c);
                buf.extend_from_slice(&frame_record(&payload));
            }
            payload.clear();
            payload.push(KIND_COMMIT);
            put_u64(&mut payload, seq as u64);
            put_u32(&mut payload, changes.len() as u32);
            buf.extend_from_slice(&frame_record(&payload));
        }
        std::fs::write(path, &buf).unwrap();
    }

    #[test]
    fn v1_log_replays_commits_as_groups_of_one() {
        let dir = tmpdir("v1");
        let path = dir.join("wal.log");
        let update = vec![Change::SetNodeProp {
            id: NodeId(1),
            key: Arc::from("v"),
            value: Value::int(9),
        }];
        write_v1_log(&path, &[sample_batch(), update]);
        // An uncommitted trailing change is still a discardable tail.
        let mut payload = vec![KIND_CHANGE];
        put_change(&mut payload, &Change::DeleteRel { id: RelId(0) });
        let committed_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame_record(&payload)).unwrap();
        drop(f);

        let mut g = PropertyGraph::new();
        let s = replay(&path, &mut g).unwrap();
        assert_eq!(s.format_version, 1);
        assert_eq!(s.batches_applied, 2);
        assert_eq!(s.groups_applied, 2, "each v1 commit is a group of one");
        assert_eq!(s.next_seq, 2);
        assert_eq!(s.discarded_changes, 1);
        assert_eq!(s.valid_len, committed_len);
        assert_eq!(g.rel_count(), 1, "uncommitted delete not applied");
        assert_eq!(g.node_prop_by_name(NodeId(1), "v"), Some(&Value::int(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_wal_version_is_a_dedicated_error_not_corruption() {
        let dir = tmpdir("future");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"CYWAL007").unwrap();
        let mut g = PropertyGraph::new();
        assert!(matches!(
            replay(&path, &mut g),
            Err(StorageError::UnsupportedVersion(7))
        ));
        assert!(matches!(
            scan(&path),
            Err(StorageError::UnsupportedVersion(7))
        ));
        // A magic that is not a CYWAL version at all stays "corrupt".
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        assert!(matches!(
            replay(&path, &mut g),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_sync_failure_damages_the_writer() {
        let dir = tmpdir("failsync");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append_batch(&sample_batch()).unwrap();
        w.inject_sync_failures(1);
        assert!(w.sync().is_err(), "injected failure surfaces");
        assert!(
            w.append_batch(&sample_batch()[1..2]).is_err(),
            "writer is disabled after a failed fsync"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
