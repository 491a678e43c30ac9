//! # cypher-client
//!
//! A small, dependency-free TCP client for `cypher-server`: it speaks
//! the [`cypher_wire`] protocol (handshake, length-framed CRC-checked
//! messages) over one blocking connection, and exposes the server's
//! request surface as typed methods — `query`, prepared statements
//! (`prepare`/`execute`/`deallocate`), pinned read transactions
//! (`begin_read`/`commit_read`), and the observability calls
//! (`ping`/`stats`).
//!
//! Results come back as the engine's own [`Table`], so client-side
//! assertions can use the same `ordered_eq`/`bag_eq`/`cell` helpers as
//! in-process tests — which is exactly how the differential harness
//! compares remote observations with the in-process `Session` oracle.

#![warn(missing_docs)]

use cypher_core::{Params, Table};
use cypher_wire::{
    client_handshake, read_exact_frame, write_frame, ErrorCode, Request, Response, ServerStats,
    WireError, DEFAULT_MAX_FRAME_BYTES,
};
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Anything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport- or codec-level failure (I/O, framing, CRC, decode).
    Wire(WireError),
    /// The server answered with a structured protocol error.
    Server {
        /// The machine-readable error class.
        code: ErrorCode,
        /// The engine's (or server's) human-readable message.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong
    /// kind for the request (a server bug, not a transport fault).
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

impl ClientError {
    /// The server's error code, when this is a structured server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// The full metrics page of a server, as returned by a `Metrics`
/// request: a few headline fields decoded for programmatic use, plus
/// the complete Prometheus-style text exposition.
#[derive(Debug, Clone)]
pub struct MetricsPage {
    /// Milliseconds since the served database was opened.
    pub uptime_ms: u64,
    /// The currently committed graph version.
    pub version: u64,
    /// The WAL generation (bumps on every compaction).
    pub wal_generation: u64,
    /// Every instrument of every layer — engine, commit pipeline,
    /// storage, sessions, server — rendered as `# HELP`/`# TYPE` +
    /// sample lines.
    pub text: String,
}

/// A successful statement execution: the result table plus the version
/// the statement committed at, if it wrote.
#[derive(Debug, Clone)]
pub struct Rows {
    /// `Some(version)` when the statement contained update clauses and
    /// committed; `None` for pure reads.
    pub committed: Option<u64>,
    /// The result rows, in the engine's own representation.
    pub table: Table,
}

/// One blocking connection to a `cypher-server`.
///
/// The connection owns a server-side session: prepared-statement ids
/// and pinned read transactions are scoped to it and released when it
/// drops (gracefully via [`Client::goodbye`] or abruptly).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_bytes: u32,
}

impl Client {
    /// Connects and performs the protocol handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&mut stream)?;
        let reader_stream = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Caps the response frames this client will accept (mirrors the
    /// server's own receive cap; enforced before allocation).
    pub fn with_max_frame_bytes(mut self, n: u32) -> Client {
        self.max_frame_bytes = n;
        self
    }

    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        self.writer.flush().map_err(WireError::Io)?;
        let payload = read_exact_frame(&mut self.reader, self.max_frame_bytes)?;
        Ok(Response::decode(&payload)?)
    }

    fn expect_rows(resp: Response) -> Result<Rows, ClientError> {
        match resp {
            Response::Rows { committed, table } => Ok(Rows { committed, table }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Rows, got {other:?}"
            ))),
        }
    }

    /// Executes one statement (read or update) in auto-commit mode.
    pub fn query(&mut self, text: &str, params: &Params) -> Result<Rows, ClientError> {
        let resp = self.request(&Request::Query {
            text: text.to_string(),
            params: params.clone(),
        })?;
        Self::expect_rows(resp)
    }

    /// Parses and registers a statement on the server, returning its
    /// connection-scoped id.
    pub fn prepare(&mut self, text: &str) -> Result<u32, ClientError> {
        match self.request(&Request::Prepare {
            text: text.to_string(),
        })? {
            Response::Prepared { id } => Ok(id),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Prepared, got {other:?}"
            ))),
        }
    }

    /// Executes a prepared statement with a fresh parameter binding.
    pub fn execute(&mut self, id: u32, params: &Params) -> Result<Rows, ClientError> {
        let resp = self.request(&Request::Execute {
            id,
            params: params.clone(),
        })?;
        Self::expect_rows(resp)
    }

    /// Releases a prepared statement's server-side registration.
    pub fn deallocate(&mut self, id: u32) -> Result<(), ClientError> {
        match self.request(&Request::Deallocate { id })? {
            Response::Deallocated => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Deallocated, got {other:?}"
            ))),
        }
    }

    /// Pins a read transaction: every following read sees the returned
    /// version until [`Client::commit_read`], regardless of concurrent
    /// writers.
    pub fn begin_read(&mut self) -> Result<u64, ClientError> {
        match self.request(&Request::BeginRead)? {
            Response::BeganRead { version } => Ok(version),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted BeganRead, got {other:?}"
            ))),
        }
    }

    /// Releases the pinned read transaction.
    pub fn commit_read(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::CommitRead)? {
            Response::ReadCommitted => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted ReadCommitted, got {other:?}"
            ))),
        }
    }

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Pong, got {other:?}"
            ))),
        }
    }

    /// Server-wide counters: connections, pinned sessions, requests,
    /// and the shared plan cache's hit/miss statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Stats, got {other:?}"
            ))),
        }
    }

    /// The server's full metrics page: headline fields plus the
    /// Prometheus-style text exposition covering every layer.
    pub fn metrics(&mut self) -> Result<MetricsPage, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics {
                uptime_ms,
                version,
                wal_generation,
                text,
            } => Ok(MetricsPage {
                uptime_ms,
                version,
                wal_generation,
                text,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Metrics, got {other:?}"
            ))),
        }
    }

    /// Registers a standing query under `name`: the server plans it
    /// once, materializes it at the current version (returned), and
    /// keeps it delta-maintained on every commit.
    pub fn create_view(&mut self, name: &str, query: &str) -> Result<u64, ClientError> {
        match self.request(&Request::CreateView {
            name: name.to_string(),
            query: query.to_string(),
        })? {
            Response::ViewCreated { version } => Ok(version),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted ViewCreated, got {other:?}"
            ))),
        }
    }

    /// Unregisters a standing query (server-wide — any connection's
    /// readers and subscribers see it end).
    pub fn drop_view(&mut self, name: &str) -> Result<(), ClientError> {
        match self.request(&Request::DropView {
            name: name.to_string(),
        })? {
            Response::ViewDropped => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted ViewDropped, got {other:?}"
            ))),
        }
    }

    /// Reads a view's maintained contents and the version they are
    /// exact at. Inside [`Client::begin_read`] the rows are the view as
    /// of the pinned version.
    pub fn read_view(&mut self, name: &str) -> Result<(u64, Table), ClientError> {
        match self.request(&Request::ReadView {
            name: name.to_string(),
        })? {
            Response::ViewRows { version, table } => Ok((version, table)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted ViewRows, got {other:?}"
            ))),
        }
    }

    /// Turns this connection into a push stream of `name`'s change
    /// frames. Consumes the client: after `Subscribed`, the server
    /// answers no further requests on this connection.
    pub fn subscribe(mut self, name: &str) -> Result<Subscription, ClientError> {
        match self.request(&Request::Subscribe {
            name: name.to_string(),
        })? {
            Response::Subscribed => Ok(Subscription {
                reader: self.reader,
                max_frame_bytes: self.max_frame_bytes,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Subscribed, got {other:?}"
            ))),
        }
    }

    /// Graceful close: tells the server this connection is done and
    /// waits for its acknowledgement before dropping the socket.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.request(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted Bye, got {other:?}"
            ))),
        }
    }
}

/// One pushed change frame of a subscribed view: the bag delta a
/// committed version produced. Replaying frames in `version` order
/// against the subscribe-time contents reproduces every published state.
#[derive(Debug, Clone)]
pub struct ViewChangeFrame {
    /// The subscribed view's name.
    pub name: String,
    /// The version whose commit produced this delta.
    pub version: u64,
    /// Rows present after this version that were not before.
    pub added: Table,
    /// Rows present before this version that are gone after.
    pub removed: Table,
}

/// The receive half of a [`Client::subscribe`]d connection.
///
/// Dropping it closes the socket; the server notices at its next push.
pub struct Subscription {
    reader: BufReader<TcpStream>,
    max_frame_bytes: u32,
}

impl Subscription {
    /// Blocks for the next change frame. `Ok(None)` means the stream
    /// ended cleanly (the view was dropped or the server stopped).
    pub fn next_frame(&mut self) -> Result<Option<ViewChangeFrame>, ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(None)
            .map_err(WireError::Io)?;
        self.read_frame()
    }

    /// Blocks up to `timeout` for the next change frame; `Ok(None)` on
    /// timeout **or** clean end of stream (poll again to distinguish —
    /// a dead stream keeps answering `None` immediately). Pick a
    /// timeout comfortably above the server's push cadence: a timeout
    /// firing mid-frame tears the stream's framing.
    pub fn next_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<ViewChangeFrame>, ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout))
            .map_err(WireError::Io)?;
        match self.read_frame() {
            Err(ClientError::Wire(WireError::Io(e)))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            other => other,
        }
    }

    fn read_frame(&mut self) -> Result<Option<ViewChangeFrame>, ClientError> {
        let payload = match read_exact_frame(&mut self.reader, self.max_frame_bytes) {
            Ok(p) => p,
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        match Response::decode(&payload)? {
            Response::ViewChange {
                name,
                version,
                added,
                removed,
            } => Ok(Some(ViewChangeFrame {
                name,
                version,
                added,
                removed,
            })),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!(
                "wanted ViewChange, got {other:?}"
            ))),
        }
    }
}
