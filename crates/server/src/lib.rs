//! # cypher-server
//!
//! A concurrent TCP front-end over the [`cypher`] engine: one OS thread
//! per connection, each owning its own [`Session`] onto one shared
//! [`Database`] — so the engine's whole concurrency story (lock-free
//! snapshot reads, group-committed writes, the shared plan cache)
//! carries over to remote clients unchanged.
//!
//! ## Protocol
//!
//! The wire format lives in [`cypher_wire`]: an 8-byte handshake, then
//! length-framed, CRC-checked request/response payloads. Per connection
//! the server offers:
//!
//! * `Query` — auto-commit execution, exactly [`Session::query`];
//! * `Prepare`/`Execute`/`Deallocate` — **prepared statements**: prepare
//!   parses (and so validates) the text once and returns a
//!   connection-scoped id; every execution binds a fresh parameter map
//!   and rides the server-wide plan cache (plans embed parameter
//!   *expressions*, so one cached plan serves every binding, across all
//!   connections);
//! * `BeginRead`/`CommitRead` — a pinned read transaction mapped 1:1
//!   onto [`Session::begin_read`]/[`Session::commit`]: repeatable reads
//!   at one frozen version, however many remote writers commit
//!   in between;
//! * `CreateView`/`DropView`/`ReadView` — **standing queries**: a view
//!   registered by any connection is delta-maintained on every commit
//!   and readable by every connection; `ReadView` inside a pinned read
//!   transaction answers the view as of the pinned version;
//! * `Subscribe` — turns the connection into a **push stream**: after
//!   `Subscribed`, the server sends one `ViewChange` frame (bag deltas
//!   `added`/`removed`) per committed version that changed the view's
//!   rows, in version order, and closes the stream when the view is
//!   dropped or the server stops;
//! * `Ping`/`Metrics`/`Goodbye` — liveness, the metrics page (every
//!   layer's instruments as text exposition), clean close.
//!
//! ## Error discipline (the hardening contract)
//!
//! A client can never take the server down, and a *statement* failure
//! can never take its *connection* down:
//!
//! * every engine error maps to a structured [`ErrorCode`] + the
//!   engine's own message ([`classify_error`]) — including the
//!   poisoned-write-path and database-closed cases
//!   ([`cypher::Error::Unavailable`]) and the update-inside-a-pinned-
//!   read refusal;
//! * every request handler runs under `catch_unwind`: a panic answers
//!   `ErrorCode::Internal` and the connection lives on;
//! * hostile bytes are rejected by the total [`cypher_wire`] decoder; a
//!   malformed *message* in a valid frame answers
//!   `ErrorCode::Protocol` (framing is still trusted), while a broken
//!   *frame* (bad CRC, over-cap length, torn header) gets a best-effort
//!   error and a dropped connection (framing is not);
//! * a dropped connection — abrupt or graceful — runs the same cleanup:
//!   the session (and any pinned snapshot version) is released, the
//!   gauges fall, nothing leaks.

#![warn(missing_docs)]

use cypher::config::{Access, Knob, ENGINE_KNOBS};
use cypher::metrics::{Counter, Gauge};
use cypher::{Database, Error, Params, Session, SubscriptionPoll, ViewSubscription};
use cypher_wire::{
    read_exact_frame, server_handshake, write_frame, ErrorCode, Request, Response, WireError,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server-side resource knobs (the engine's own knobs live in
/// [`cypher::EngineConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently; one past the cap is answered
    /// with `ErrorCode::Limit` and closed. Default 64
    /// (`CYPHER_MAX_CONNS`).
    pub max_connections: usize,
    /// Frame payload cap, enforced before allocation on both receive
    /// and send. Default 8 MiB (`CYPHER_MAX_FRAME_BYTES`).
    pub max_frame_bytes: u32,
    /// Prepared statements held per connection; `Prepare` past the cap
    /// answers `ErrorCode::Limit`. Default 1024.
    pub max_prepared: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_prepared: 1024,
        }
    }
}

/// The server's rows of the configuration table (see
/// [`cypher::config`]): same row type, same parser, same reporting as
/// the engine's.
pub static SERVER_KNOBS: [Knob<ServerConfig>; 2] = [
    Knob {
        var: "CYPHER_MAX_CONNS",
        field: "max_connections",
        access: Access::Int {
            min: 1,
            max: usize::MAX as u64,
            get: |c| Some(c.max_connections as u64),
            set: |c, v| c.max_connections = v as usize,
        },
        doc: "connections served at once; one past the cap is answered `Limit` and closed",
    },
    Knob {
        var: "CYPHER_MAX_FRAME_BYTES",
        field: "max_frame_bytes",
        access: Access::Int {
            min: 1,
            max: u32::MAX as u64,
            get: |c| Some(c.max_frame_bytes as u64),
            set: |c, v| c.max_frame_bytes = v as u32,
        },
        doc: "frame payload cap, enforced before allocation on receive and send",
    },
];

/// The address `cypher-server` binds unless `CYPHER_LISTEN` names another.
pub const DEFAULT_LISTEN: &str = "127.0.0.1:7474";

/// The binary's listen address as a row: it configures the process, not
/// a [`ServerConfig`] field (`Server::bind` takes the address).
pub static LISTEN_KNOB: [Knob<String>; 1] = [Knob {
    var: "CYPHER_LISTEN",
    field: "listen",
    access: Access::Text {
        get: |addr| Some(addr.into()),
        set: |addr, v| *addr = v.to_string_lossy().into_owned(),
    },
    doc: "address `cypher-server` binds",
}];

/// The `CYPHER_*` names in `vars` that no row of [`LISTEN_KNOB`],
/// [`ENGINE_KNOBS`] or [`SERVER_KNOBS`] reads: removed or misspelt
/// settings. `CYPHER_TEST_FAULTS` is not one; the library reads it.
pub fn unknown_settings(vars: impl IntoIterator<Item = String>) -> Vec<String> {
    let rows = (LISTEN_KNOB.iter().map(|k| k.var))
        .chain(ENGINE_KNOBS.iter().map(|k| k.var))
        .chain(SERVER_KNOBS.iter().map(|k| k.var));
    let known = |var: &str| var == "CYPHER_TEST_FAULTS" || rows.clone().any(|v| v == var);
    let unknown = |var: &String| var.starts_with("CYPHER_") && !known(var);
    vars.into_iter().filter(unknown).collect()
}

/// Maps an engine error onto its wire error code. The message sent to
/// the client is always the engine's own rendering (`Error::to_string`).
pub fn classify_error(e: &Error) -> ErrorCode {
    match e {
        Error::Parse(_) => ErrorCode::Parse,
        Error::Eval(_) => ErrorCode::Eval,
        Error::Storage(_) => ErrorCode::Storage,
        Error::Unavailable(_) => ErrorCode::Unavailable,
    }
}

fn error(code: ErrorCode, message: impl ToString) -> Response {
    let message = message.to_string();
    Response::Error { code, message }
}

/// An engine error as the response that reports it.
fn engine_error(e: &Error) -> Response {
    error(classify_error(e), e)
}

fn unknown_statement(id: u32) -> Response {
    let message = format!("no prepared statement with id {id} on this connection");
    error(ErrorCode::UnknownStatement, message)
}

cypher::metrics::instruments! {
    /// The server-level instruments, appended to the database's page.
    /// Unlike the database's they are not gated on `CYPHER_METRICS`: the
    /// connection gauge doubles as the admission counter.
    struct ServerMetrics {
        connections: Gauge = "cypher_server_connections", "connections currently served";
        pinned: Gauge = "cypher_server_pinned_connections",
            "connections inside a pinned read transaction";
        requests: Counter = "cypher_server_requests_total",
            "requests answered over the server's lifetime";
        requests_query: Counter = "cypher_server_requests_query_total", "Query requests";
        requests_prepare: Counter = "cypher_server_requests_prepare_total", "Prepare requests";
        requests_execute: Counter = "cypher_server_requests_execute_total", "Execute requests";
        requests_control: Counter = "cypher_server_requests_control_total",
            "control requests (ping/metrics/transactions/goodbye)";
        bytes_in: Counter = "cypher_server_bytes_in_total", "request payload bytes received";
        bytes_out: Counter = "cypher_server_bytes_out_total", "response payload bytes sent";
        frame_errors: Counter = "cypher_server_frame_errors_total",
            "broken frames and malformed messages rejected";
    }
}

/// State shared by the accept loop, every connection thread, and the
/// [`Server`] handle.
struct ServerShared {
    db: Database,
    cfg: ServerConfig,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    metrics: ServerMetrics,
    /// Duplicate handles of every live connection's stream, so shutdown
    /// can force blocked reads to return.
    open_streams: Mutex<HashMap<u64, TcpStream>>,
}

impl ServerShared {
    /// The full metrics page: the database's own exposition plus the
    /// server-level instruments appended, so one request observes every
    /// layer.
    fn metrics(&self) -> Response {
        let mut text = self.db.metrics_snapshot();
        self.metrics.render_into(&mut text);
        Response::Metrics { text }
    }
}

/// A running TCP server; dropping the handle does **not** stop it — call
/// [`Server::shutdown`] (tests) or [`Server::run`] (the binary).
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    /// The accept thread, which answers with the handles of every
    /// connection (and refusal) thread it started and has not reaped.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and starts accepting connections against `db`.
    pub fn bind(db: Database, listen: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            db,
            cfg,
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            metrics: ServerMetrics::default(),
            open_streams: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("cypher-accept".to_string())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database this server fronts (shared — in-process sessions and
    /// remote connections see the same versions and plan cache).
    pub fn db(&self) -> &Database {
        &self.shared.db
    }

    /// Connections currently served.
    pub fn active_connections(&self) -> usize {
        self.shared.metrics.connections.get() as usize
    }

    /// Connections currently inside a pinned read transaction.
    pub fn pinned_connections(&self) -> usize {
        self.shared.metrics.pinned.get() as usize
    }

    /// Serves until the accept loop exits (it never does on its own —
    /// this is the binary's "run forever").
    pub fn run(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, force-closes every live connection (their
    /// sessions — and pinned versions — are released by the connection
    /// threads' cleanup), **joins every thread the server started**, and
    /// returns the database handle.
    pub fn shutdown(mut self) -> Database {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let accept = self.accept.take().expect("shutdown consumes the server");
        let threads = accept.join().unwrap_or_default();
        // Force blocked per-connection reads and writes to return. No
        // stream can register any more: the accept loop is gone.
        for (_, s) in lock(&self.shared.open_streams).iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // A connection thread owns a handle on the shared state until it
        // has fully exited — its gauges fall earlier — so only joining
        // makes ours the last one.
        for t in threads {
            let _ = t.join();
        }
        let shared = Arc::into_inner(self.shared);
        shared.expect("every thread holding the state is joined").db
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Accepts until stopped; returns the threads it started and has not
/// seen finish, for [`Server::shutdown`] to join.
fn accept_loop(shared: Arc<ServerShared>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return threads;
        }
        let Ok((stream, _)) = accepted else {
            continue;
        };
        threads.retain(|t| !t.is_finished());
        // Every accepted stream is registered before its thread starts,
        // so shutdown can unblock whatever that thread is waiting on.
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(dup) = stream.try_clone() {
            lock(&shared.open_streams).insert(conn_id, dup);
        }
        // Over-cap connections are refused politely — but never on the
        // accept thread, where a slow client could stall every accept.
        let admitted = (shared.metrics.connections.get() as usize) < shared.cfg.max_connections;
        if admitted {
            shared.metrics.connections.inc();
        }
        let guard = ConnGuard {
            shared: Arc::clone(&shared),
            conn_id,
            admitted,
            state: None,
        };
        // A failed spawn drops the closure, and the guard inside it
        // rolls the registration back.
        let conn = std::thread::Builder::new().name(format!("cypher-conn-{conn_id}"));
        threads.extend(conn.spawn(move || serve_connection(guard, stream)));
    }
}

/// Everything one connection owns: its session, its prepared-statement
/// registry, and whether it currently holds a read-transaction pin
/// (mirrored into the server-wide gauge).
struct ConnState {
    session: Session,
    statements: HashMap<u32, Arc<str>>,
    next_statement: u32,
    pinned: bool,
    /// Connection id and per-connection request sequence, combined into
    /// the trace id `(conn_id << 32) | req_seq` stamped on every
    /// statement this connection runs — the same id the slow-query log
    /// and the WAL seal witness report, so one grep correlates a wire
    /// request with its durability record.
    conn_id: u64,
    req_seq: u64,
}

/// Gauge/registry cleanup that must run however the connection ends —
/// clean `Goodbye`, peer reset, handshake garbage, or a bug in the serve
/// loop itself.
struct ConnGuard {
    shared: Arc<ServerShared>,
    conn_id: u64,
    /// Whether the connection counts against the cap (a refused one
    /// only has its stream registered).
    admitted: bool,
    state: Option<ConnState>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // Dropping the state drops the Session, which releases any
        // pinned snapshot version.
        if let Some(state) = self.state.take() {
            if state.pinned {
                self.shared.metrics.pinned.dec();
            }
        }
        lock(&self.shared.open_streams).remove(&self.conn_id);
        if self.admitted {
            self.shared.metrics.connections.dec();
        }
    }
}

fn serve_connection(mut guard: ConnGuard, mut stream: TcpStream) {
    let (shared, conn_id) = (Arc::clone(&guard.shared), guard.conn_id);
    let _ = stream.set_nodelay(true);
    if server_handshake(&mut stream).is_err() {
        return; // wrong protocol: drop without answering
    }
    if !guard.admitted {
        let resp = error(ErrorCode::Limit, "connection limit reached");
        let _ = write_frame(&mut stream, &resp.encode());
        let _ = stream.flush();
        return;
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    guard.state = Some(ConnState {
        session: shared.db.session(),
        statements: HashMap::new(),
        next_statement: 1,
        pinned: false,
        conn_id,
        req_seq: 0,
    });
    let state = guard.state.as_mut().expect("state was just installed");
    loop {
        let payload = match read_exact_frame(&mut reader, shared.cfg.max_frame_bytes) {
            Ok(p) => p,
            Err(WireError::Io(_)) => return, // peer gone (abrupt or EOF)
            Err(e) => {
                // Framing can no longer be trusted: answer once (best
                // effort) and drop the connection.
                shared.metrics.frame_errors.inc();
                let resp = error(ErrorCode::Protocol, e);
                let _ = write_frame(&mut writer, &resp.encode());
                let _ = writer.flush();
                return;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.requests.inc();
        shared.metrics.bytes_in.add(payload.len() as u64);
        state.req_seq += 1;
        let (resp, goodbye) = match Request::decode(&payload) {
            Err(e) => {
                // The frame was intact (length + CRC), only the message
                // inside was malformed: answer and keep serving.
                shared.metrics.frame_errors.inc();
                (error(ErrorCode::Protocol, e), false)
            }
            Ok(Request::Subscribe { name }) => {
                // Mode switch: this connection stops answering requests
                // and becomes a push stream of the view's change frames.
                shared.metrics.requests_control.inc();
                match shared.db.subscribe(&name) {
                    Err(e) => (engine_error(&e), false),
                    Ok(sub) => {
                        let encoded = Response::Subscribed.encode();
                        shared.metrics.bytes_out.add(encoded.len() as u64);
                        if write_frame(&mut writer, &encoded).is_err() || writer.flush().is_err() {
                            return;
                        }
                        stream_view_changes(&shared, &mut writer, sub);
                        return;
                    }
                }
            }
            Ok(req) => {
                let goodbye = matches!(req, Request::Goodbye);
                match &req {
                    Request::Query { .. } => &shared.metrics.requests_query,
                    Request::Prepare { .. } => &shared.metrics.requests_prepare,
                    Request::Execute { .. } => &shared.metrics.requests_execute,
                    _ => &shared.metrics.requests_control,
                }
                .inc();
                let resp = catch_unwind(AssertUnwindSafe(|| handle_request(&shared, state, req)))
                    .unwrap_or_else(|panic| {
                        let what = panic_message(&panic);
                        error(
                            ErrorCode::Internal,
                            format!("request handler panicked: {what}"),
                        )
                    });
                (resp, goodbye)
            }
        };
        let encoded = resp.encode();
        shared.metrics.bytes_out.add(encoded.len() as u64);
        if write_frame(&mut writer, &encoded).is_err() || writer.flush().is_err() {
            return;
        }
        if goodbye {
            return;
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn handle_request(shared: &ServerShared, state: &mut ConnState, req: Request) -> Response {
    match req {
        Request::Query { text, params } => run_statement(state, &text, &params),
        Request::Prepare { text } => {
            if state.statements.len() >= shared.cfg.max_prepared {
                let held = state.statements.len();
                let cap = format!("connection holds {held} prepared statements (the cap)");
                return error(ErrorCode::Limit, cap);
            }
            // Parse now: a statement that cannot parse fails at PREPARE
            // time, and honest EXECUTEs never pay a parse-error path.
            // (Planning stays lazy — it depends on the statistics of the
            // snapshot each execution runs against.)
            if let Err(e) = cypher::parse_query(&text) {
                return engine_error(&Error::from(e));
            }
            let id = state.next_statement;
            state.next_statement += 1;
            state.statements.insert(id, Arc::from(text.as_str()));
            Response::Prepared { id }
        }
        Request::Execute { id, params } => match state.statements.get(&id) {
            Some(text) => {
                let text = Arc::clone(text);
                run_statement(state, &text, &params)
            }
            None => unknown_statement(id),
        },
        Request::Deallocate { id } => match state.statements.remove(&id) {
            Some(_) => Response::Deallocated,
            None => unknown_statement(id),
        },
        Request::BeginRead => {
            let version = state.session.begin_read();
            if !state.pinned {
                state.pinned = true;
                shared.metrics.pinned.inc();
            }
            Response::BeganRead { version }
        }
        Request::CommitRead => {
            state.session.commit();
            if state.pinned {
                state.pinned = false;
                shared.metrics.pinned.dec();
            }
            Response::ReadCommitted
        }
        Request::Ping => Response::Pong,
        Request::Metrics => shared.metrics(),
        Request::Goodbye => Response::Bye,
        Request::CreateView { name, query } => match shared.db.create_view(&name, &query) {
            Ok(version) => Response::ViewCreated { version },
            Err(e) => engine_error(&e),
        },
        Request::DropView { name } => match shared.db.drop_view(&name) {
            Ok(()) => Response::ViewDropped,
            Err(e) => engine_error(&e),
        },
        Request::ReadView { name } => match state.session.view_versioned(&name) {
            Ok((version, table)) => Response::ViewRows { version, table },
            Err(e) => engine_error(&e),
        },
        // Subscribe switches the connection into push mode, which owns
        // the writer — the serve loop intercepts it before dispatching
        // here. Reaching this arm means the loop's intercept is broken.
        Request::Subscribe { .. } => error(
            ErrorCode::Protocol,
            "Subscribe must be handled by the connection loop",
        ),
    }
}

/// The push half of a `Subscribe`d connection: forwards every change
/// frame until the view is dropped, the server stops, or the peer goes
/// away (detected at the next write). The 100 ms poll bounds how long a
/// stopping server waits on an idle stream.
fn stream_view_changes(
    shared: &ServerShared,
    writer: &mut BufWriter<TcpStream>,
    sub: ViewSubscription,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match sub.poll(std::time::Duration::from_millis(100)) {
            SubscriptionPoll::Idle => {}
            SubscriptionPoll::Closed => return,
            SubscriptionPoll::Frame(c) => {
                let resp = Response::ViewChange {
                    name: c.name,
                    version: c.version,
                    added: c.added,
                    removed: c.removed,
                };
                let encoded = resp.encode();
                shared.metrics.bytes_out.add(encoded.len() as u64);
                if write_frame(writer, &encoded).is_err() || writer.flush().is_err() {
                    return;
                }
            }
        }
    }
}

fn run_statement(state: &mut ConnState, text: &str, params: &Params) -> Response {
    // Test hook for the catch_unwind path, inert without the
    // fault-injection env guard (mirrors Database::inject_fsync_failures).
    if text == "__CYPHER_TEST_PANIC__" && cypher::test_faults_armed() {
        panic!("injected test panic");
    }
    let trace = (state.conn_id << 32) | (state.req_seq & 0xffff_ffff);
    match state.session.query_traced(text, params, trace) {
        Ok(table) => Response::Rows {
            committed: state.session.last_commit_version(),
            table,
        },
        Err(e) => engine_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_every_error_shape() {
        let parse = Error::from(cypher::parse_query("MATCH (").unwrap_err());
        assert_eq!(classify_error(&parse), ErrorCode::Parse);
        let unavailable = Error::Unavailable("closed".to_string());
        assert_eq!(classify_error(&unavailable), ErrorCode::Unavailable);
    }
}
