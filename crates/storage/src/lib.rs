//! # cypher-storage
//!
//! The durable storage engine of the workspace: everything between the
//! in-memory [`cypher_graph::PropertyGraph`] and the file system.
//!
//! The design treats the graph's **logical change stream**
//! ([`cypher_graph::Change`], emitted by every store mutator) as the
//! source of truth, in the spirit of maintaining query answers under
//! updates (Berkholz et al., *Answering FO+MOD queries under updates*):
//! both the graph and its label/property/composite indexes are pure
//! functions of the stream, and recovery is replay.
//!
//! Three layers:
//!
//! * [`codec`] — a hand-rolled binary codec for [`cypher_graph::Value`]
//!   trees, change records and snapshot rows (the workspace is offline, so
//!   no serde), plus the CRC-32 the framing layers use;
//! * [`wal`] — an append-only **write-ahead log** of change records with
//!   per-record CRC and length framing, grouped into atomic batches (one
//!   batch per executed query; a batch is replayed only if its commit
//!   record survived — all-or-nothing on replay);
//! * [`snapshot`] — full-graph snapshot files written atomically
//!   (temp-file + rename), CRC-protected, restoring via
//!   [`cypher_graph::PropertyGraph::restore`].
//!
//! [`Store`] ties them together with a generation-numbered
//! `open`/`recover`/`commit`/`checkpoint` lifecycle: `snapshot-<g>.snap`
//! pairs with `wal-<g>.log`, so a crash anywhere — including between
//! snapshot publication and log truncation — always leaves one consistent
//! pair to recover from.

#![warn(missing_docs)]

pub mod codec;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use store::{RecoveryReport, Store};

use cypher_graph::GraphError;
use std::fmt;

/// A committed transaction's id: the sequence number of its WAL batch
/// (0-based, assigned at commit, monotonic across checkpoints and
/// reopens — sequence numbers are persisted in snapshots).
///
/// These ids double as the **version numbers** of the in-memory
/// multi-version store ([`cypher_graph::VersionedGraph`]): the graph
/// state containing batches `0..=i` is published as version `i + 1`
/// (version 0 is the empty/initial state). The `Database` facade seals a
/// batch in the WAL *first* and publishes the version *second* (through
/// [`cypher_graph::VersionedGraph::publish_view`]), so any
/// version a reader can ever pin is, by construction, recoverable from
/// disk.
pub type TxnId = u64;

/// Best-effort fsync of a path's parent directory, so a just-created or
/// just-renamed file's directory entry also reaches stable storage.
/// Failures are ignored: not every platform/filesystem supports opening
/// a directory for sync, and the file's own fsync already happened.
pub(crate) fn sync_parent_dir(path: &std::path::Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Everything that can go wrong between the graph and the file system.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// On-disk bytes failed validation (CRC mismatch, truncated frame,
    /// malformed payload, impossible replay target). Recovery treats a
    /// corrupt WAL *tail* as a torn write and truncates it; corruption
    /// anywhere else surfaces as this error.
    Corrupt {
        /// Which file/structure was corrupt.
        context: String,
        /// Byte offset of the corruption where known.
        offset: u64,
    },
    /// The graph rejected restored or replayed state as inconsistent.
    Graph(GraphError),
    /// The file was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// Another live process holds the data directory (single-writer
    /// rule: two writers appending to one WAL interleave ids and
    /// destroy the log).
    Locked {
        /// The pid recorded in the directory's `LOCK` file.
        pid: u32,
    },
}

impl StorageError {
    /// Builds a [`StorageError::Corrupt`] with context.
    pub fn corrupt(context: impl Into<String>, offset: u64) -> StorageError {
        StorageError::Corrupt {
            context: context.into(),
            offset,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { context, offset } => {
                write!(f, "corrupt storage ({context} at byte {offset})")
            }
            StorageError::Graph(e) => write!(f, "storage replay rejected: {e}"),
            StorageError::UnsupportedVersion(v) => {
                write!(f, "unsupported storage format version {v}")
            }
            StorageError::Locked { pid } => {
                write!(f, "data directory is locked by live process {pid}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<GraphError> for StorageError {
    fn from(e: GraphError) -> Self {
        StorageError::Graph(e)
    }
}
