//! End-to-end tests of the TCP front-end: real sockets, real frames,
//! real concurrency.
//!
//! * **Differential harness** — N client threads replay generated
//!   update + query workloads over TCP against one server;
//!   `cypher_tck::diff`'s `Diff::at_versions` replays the committed
//!   statements in published version order and proves every pinned-read
//!   observation at its version. Rows must match the sequential engine
//!   exactly (same sequence) and the reference oracle as a bag, errors
//!   by message, and pinned reads must be repeatable across interleaved
//!   remote writers.
//! * **Hardening** — hostile bytes (wrong magic, hostile length
//!   prefixes, garbage payloads, random blobs) can neither kill the
//!   server nor make it over-allocate; statement failures (parse, eval,
//!   update-while-pinned, poisoned write path, handler panics) answer
//!   structured protocol errors on a connection that stays usable.
//! * **Lifecycle** — abrupt disconnects release the session and its
//!   pinned version; the connection cap answers `Limit`; a durable
//!   database round-trips through server shutdown and reopen.
//!
//! Workload count for the differential harness is tunable via
//! `CYPHER_TCP_WORKLOADS` (default 6: workloads take the cells of
//! `cypher_tck::diff::LIGHT` in turn).

use cypher::workload::{harness_knob, random_queries, random_updates};
use cypher::{Database, EngineConfig, MatchConfig, Params, Value};
use cypher_client::{Client, ClientError};
use cypher_server::{Server, ServerConfig};
use cypher_tck::diff::{config, live, Cell, Commit, Diff, History, Observation, LIGHT};
use cypher_tck::parse_exposition;
use cypher_wire::{
    client_handshake, read_exact_frame, write_frame, ErrorCode, Request, Response, WireError,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// An in-memory database at `cell`. The exactness tests sweep the cells
/// of `LIGHT`; the hardening and lifecycle tests run the built-in cell,
/// since what they assert (error codes, connection state) is decided
/// before or after execution.
fn mem_cfg(cell: Cell) -> EngineConfig {
    config(cell, MatchConfig::default())
}

fn start(cfg: EngineConfig, server_cfg: ServerConfig) -> Server {
    let db = Database::open_with(cfg).expect("open database");
    Server::bind(db, "127.0.0.1:0", server_cfg).expect("bind server")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect client")
}

fn wait_until(label: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {label}");
}

// ---------------------------------------------------------------------
// Exactness: remote execution vs the in-process session, one to one.
// ---------------------------------------------------------------------

/// Every remote answer — auto-commit queries and prepared `EXECUTE`s
/// with fresh parameter bindings — must equal what an in-process
/// [`cypher::Session`] produces for the same statement stream.
#[test]
fn remote_results_match_in_process_session_exactly() {
    for &cell in LIGHT {
        remote_results_match_in_process_session_at(cell);
    }
}

fn remote_results_match_in_process_session_at(cell: Cell) {
    let server = start(mem_cfg(cell), ServerConfig::default());
    let oracle_db = Database::open_with(mem_cfg(cell)).expect("oracle open");
    let mut oracle = oracle_db.session();
    let mut client = connect(&server);
    let params = Params::new();

    let setup = [
        "CREATE (:Person {name: 'Nils', age: 40})-[:KNOWS]->(:Person {name: 'Tobias', age: 37})",
        "CREATE (:Person {name: 'Petra', age: 41})",
        "MATCH (a:Person {name: 'Petra'}), (b:Person {name: 'Nils'}) CREATE (a)-[:KNOWS]->(b)",
    ];
    for stmt in setup {
        let remote = client.query(stmt, &params).expect("remote setup");
        let local = oracle.query(stmt, &params).expect("oracle setup");
        assert!(
            remote.table.ordered_eq(&local),
            "setup diverged on {stmt}\nremote:\n{}\noracle:\n{local}",
            remote.table
        );
        assert!(remote.committed.is_some(), "setup must commit");
    }

    let reads = [
        "MATCH (p:Person) RETURN p.name AS name, p.age AS age ORDER BY name",
        "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a.name, b.name ORDER BY a.name",
        "MATCH (p:Person) WHERE p.age > 38 RETURN count(*) AS c",
    ];
    for q in reads {
        let remote = client.query(q, &params).expect("remote read");
        let local = oracle.query(q, &params).expect("oracle read");
        assert!(
            remote.table.ordered_eq(&local),
            "read diverged on {q}\nremote:\n{}\noracle:\n{local}",
            remote.table
        );
        assert!(remote.committed.is_none(), "reads commit nothing");
    }

    // Prepared statement, executed with a fresh binding each time.
    let text = "MATCH (p:Person {name: $who}) RETURN p.age AS age";
    let stmt = client.prepare(text).expect("prepare");
    for who in ["Nils", "Tobias", "Petra", "Nobody"] {
        let mut p = Params::new();
        p.insert("who".to_string(), Value::from(who));
        let remote = client.execute(stmt, &p).expect("execute");
        let local = oracle.query(text, &p).expect("oracle parameterized");
        assert!(
            remote.table.ordered_eq(&local),
            "prepared execution diverged for $who = {who}"
        );
    }
    client.deallocate(stmt).expect("deallocate");
    client.goodbye().expect("goodbye");
}

/// Prepared statements ride the server-wide plan cache: the same text
/// prepared on two different connections plans once and hits after.
#[test]
fn prepared_statements_share_the_plan_cache_across_connections() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let mut seeder = connect(&server);
    let params = Params::new();
    for i in 0..16 {
        seeder
            .query(
                &format!("CREATE (:Point {{k: {i}, v: {}}})", i * 10),
                &params,
            )
            .expect("seed");
    }
    let text = "MATCH (n:Point {k: $k}) RETURN n.v AS v";

    let run_on_fresh_connection = |ks: std::ops::Range<i64>| {
        let mut c = connect(&server);
        let stmt = c.prepare(text).expect("prepare");
        for k in ks {
            let mut p = Params::new();
            p.insert("k".to_string(), Value::int(k));
            let rows = c.execute(stmt, &p).expect("execute");
            assert_eq!(
                rows.table.cell(0, "v"),
                Some(&Value::int(k * 10)),
                "wrong answer for k={k}"
            );
        }
        c.goodbye().expect("goodbye");
    };
    run_on_fresh_connection(0..8);
    run_on_fresh_connection(8..16);

    let page = parse_exposition(&seeder.metrics().expect("metrics"));
    assert!(
        page["cypher_plan_cache_misses_total"] >= 1.0,
        "someone must have planned the text once"
    );
    assert!(
        page["cypher_plan_cache_hits_total"] >= 8.0,
        "prepared executions across connections must hit the shared plan cache"
    );
    seeder.goodbye().expect("goodbye");
}

// ---------------------------------------------------------------------
// The concurrent-clients differential harness.
// ---------------------------------------------------------------------

fn tcp_workload(seed: u64, clients: usize, rounds: usize) {
    let cell = LIGHT[seed as usize % LIGHT.len()];
    let label = format!("tcp workload {seed} at {cell:?}");
    let server = start(live(cell), ServerConfig::default());
    let params = Params::new();

    let seed_stmts = random_updates(6, seed);
    let mut admin = connect(&server);
    for s in &seed_stmts {
        admin
            .query(s, &params)
            .unwrap_or_else(|e| panic!("{label}: seeding failed on {s}: {e}"));
    }
    admin.goodbye().expect("goodbye");
    let base = server.db().version();

    // Each client thread: its own deterministic update + query streams.
    let committed: Mutex<Vec<Commit>> = Mutex::new(Vec::new());
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    let addr = server.local_addr();

    std::thread::scope(|sc| {
        for c in 0..clients as u64 {
            let (committed, observations) = (&committed, &observations);
            let (params, label) = (&params, &label);
            sc.spawn(move || {
                let updates = random_updates(rounds, seed.wrapping_mul(131).wrapping_add(c + 1));
                let queries = random_queries(rounds, seed.wrapping_mul(31).wrapping_add(777 + c));
                let mut client = Client::connect(addr).expect("connect workload client");
                for (stmt, q) in updates.into_iter().zip(queries) {
                    // One update in auto-commit mode; `committed` names
                    // the version this statement (alone) published.
                    let rows = client
                        .query(&stmt, params)
                        .unwrap_or_else(|e| panic!("{label}: update failed on {stmt}: {e}"));
                    if let Some(version) = rows.committed {
                        let ok = true;
                        committed.lock().unwrap().push(Commit { version, stmt, ok });
                    }

                    // A pinned read transaction, its query run twice: both
                    // runs are observations at the pinned version, so they
                    // must agree however many remote writers commit between.
                    let version = client.begin_read().expect("begin read");
                    let stmt_id = client.prepare(&q).ok();
                    let run = |client: &mut Client| match stmt_id {
                        Some(id) => client.execute(id, params),
                        None => client.query(&q, params),
                    };
                    for _ in 0..2 {
                        let outcome = run(&mut client).map(|r| r.table).map_err(|e| match e {
                            ClientError::Server { message, .. } => message,
                            other => panic!("{label}: transport failure on {q}: {other}"),
                        });
                        let o = Observation::new(version, &q, outcome);
                        observations.lock().unwrap().push(o);
                    }
                    if let Some(id) = stmt_id {
                        client.deallocate(id).expect("deallocate");
                    }
                    client.commit_read().expect("commit read");
                }
                client.goodbye().expect("goodbye");
            });
        }
    });

    let history = History {
        cell,
        seeds: seed_stmts,
        base,
        commits: committed.into_inner().unwrap(),
    };
    assert_eq!(server.db().version(), base + history.commits.len() as u64);
    let replayed = Diff::new(LIGHT)
        .at_versions(&history, &observations.into_inner().unwrap())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        server.db().graph().canonical_dump(),
        replayed.canonical_dump(),
        "{label}: the head diverged from the version-order replay"
    );
    server.shutdown();
}

/// N real TCP clients interleave generated updates and pinned reads
/// against one server; the version-order replay must reproduce every
/// observation exactly.
#[test]
fn concurrent_tcp_clients_match_the_in_process_session_oracle() {
    for w in 0..harness_knob("CYPHER_TCP_WORKLOADS", LIGHT.len() as u64, 0) {
        tcp_workload(0xBEEF + w, 3, 5);
    }
}

/// One client pins a snapshot while another commits; the pinned view
/// must not move until the read transaction is committed.
#[test]
fn pinned_read_is_repeatable_across_remote_writers() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let params = Params::new();
    let mut reader = connect(&server);
    let mut writer = connect(&server);
    writer.query("CREATE (:R {v: 1})", &params).expect("seed");

    let v = reader.begin_read().expect("begin read");
    let q = "MATCH (n:R) RETURN count(*) AS c";
    let frozen = reader.query(q, &params).expect("pinned read").table;
    for i in 2..=5 {
        writer
            .query(&format!("CREATE (:R {{v: {i}}})"), &params)
            .expect("remote write");
        let again = reader.query(q, &params).expect("pinned reread").table;
        assert!(
            again.ordered_eq(&frozen),
            "pinned view drifted after {i} remote commits (pinned v{v})"
        );
    }
    reader.commit_read().expect("commit read");
    let fresh = reader.query(q, &params).expect("unpinned read").table;
    assert_eq!(
        fresh.cell(0, "c"),
        Some(&Value::int(5)),
        "release must see the head"
    );
    assert_eq!(server.pinned_connections(), 0);
}

// ---------------------------------------------------------------------
// Hardened error paths: structured errors, never drops or panics.
// ---------------------------------------------------------------------

fn expect_server_error(r: Result<cypher_client::Rows, ClientError>, code: ErrorCode) -> String {
    match r {
        Err(ClientError::Server { code: got, message }) => {
            assert_eq!(got, code, "wrong error code: {message}");
            message
        }
        other => panic!("wanted server error {code:?}, got {other:?}"),
    }
}

/// Parse errors, eval errors, unknown statements and update-while-pinned
/// all answer structured codes — and the connection keeps working.
#[test]
fn statement_failures_answer_structured_errors_and_connection_survives() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let mut client = connect(&server);
    let params = Params::new();

    expect_server_error(client.query("MATCH (", &params), ErrorCode::Parse);
    expect_server_error(client.query("RETURN nosuch", &params), ErrorCode::Eval);
    let e = client.execute(99, &params);
    match e {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownStatement),
        other => panic!("wanted UnknownStatement, got {other:?}"),
    }
    match client.deallocate(99) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownStatement),
        other => panic!("wanted UnknownStatement, got {other:?}"),
    }

    // Updates inside a pinned read transaction are refused with the
    // engine's own guidance, not a dropped connection.
    client.begin_read().expect("begin read");
    let msg = expect_server_error(client.query("CREATE (:X)", &params), ErrorCode::Eval);
    assert!(
        msg.contains("release the pinned snapshot"),
        "refusal must explain itself: {msg}"
    );
    client.commit_read().expect("commit read");
    client
        .query("CREATE (:X)", &params)
        .expect("write after release");

    // The connection survived every failure above. The server-side
    // guard drops a beat after the client reads `Bye`, so poll.
    client.ping().expect("ping after failures");
    client.goodbye().expect("goodbye");
    wait_until("connection teardown", || server.active_connections() == 0);
}

/// A panicking request handler answers `Internal` and keeps serving the
/// same connection. (The panic is injected through a hook that is inert
/// without `CYPHER_TEST_FAULTS`.)
#[test]
fn handler_panic_answers_internal_error_and_connection_survives() {
    std::env::set_var("CYPHER_TEST_FAULTS", "1");
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let mut client = connect(&server);
    let params = Params::new();
    let msg = expect_server_error(
        client.query("__CYPHER_TEST_PANIC__", &params),
        ErrorCode::Internal,
    );
    assert!(msg.contains("panicked"), "message should say so: {msg}");
    client.ping().expect("connection survives a handler panic");
    client
        .query("RETURN 1 AS one", &params)
        .expect("statements keep working");
    client.goodbye().expect("goodbye");
}

/// A poisoned write path (failed WAL fsync) surfaces as a structured
/// `Unavailable` error on every subsequent remote write; reads keep
/// answering on the same connection.
#[test]
fn poisoned_write_path_answers_unavailable_not_a_dropped_connection() {
    std::env::set_var("CYPHER_TEST_FAULTS", "1");
    let dir = std::env::temp_dir().join(format!("cypher-server-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        persistence: Some(dir.clone()),
        group_commit: false,
        fsync_mode: cypher::FsyncMode::Sync,
        ..EngineConfig::default()
    };
    let server = start(cfg, ServerConfig::default());
    let mut client = connect(&server);
    let params = Params::new();
    client.query("CREATE (:P {v: 1})", &params).expect("seed");

    assert!(
        server.db().inject_fsync_failures(1),
        "fault injection arms under CYPHER_TEST_FAULTS"
    );
    // The statement whose fsync fails reports the storage error itself.
    expect_server_error(
        client.query("CREATE (:P {v: 2})", &params),
        ErrorCode::Storage,
    );
    // Every write after that: structured Unavailable, same connection.
    let msg = expect_server_error(
        client.query("CREATE (:P {v: 3})", &params),
        ErrorCode::Unavailable,
    );
    assert!(
        msg.contains("read-only after a failed WAL commit"),
        "unexpected poison message: {msg}"
    );
    // Reads still answer, on this very connection.
    let t = client
        .query("MATCH (n:P) RETURN count(*) AS c", &params)
        .expect("reads survive the poisoned write path")
        .table;
    assert_eq!(
        t.cell(0, "c"),
        Some(&Value::int(1)),
        "failed writes must not be visible"
    );
    client.goodbye().expect("goodbye");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Hostile bytes and lifecycle.
// ---------------------------------------------------------------------

/// Raw-socket attacks: wrong magic, hostile length prefixes, garbage in
/// valid frames, random blobs. The server answers what it can answer,
/// drops what it cannot trust — and always survives.
#[test]
fn hostile_bytes_cannot_kill_the_server() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let addr = server.local_addr();
    let params = Params::new();

    // Wrong magic: dropped without an answer.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HT").unwrap();
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut s, &mut buf); // EOF, not a hang
        assert!(buf.is_empty(), "garbage handshake must not be answered");
    }

    // A 4 GiB length prefix: rejected before allocation, with a
    // structured Protocol error as the last answer.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        client_handshake(&mut s).unwrap();
        s.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        s.write_all(&[0u8; 64]).unwrap();
        let payload = read_exact_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("error frame");
        match Response::decode(&payload).expect("decodable error") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(
                    message.contains("frame"),
                    "should name the frame cap: {message}"
                );
            }
            other => panic!("wanted Protocol error, got {other:?}"),
        }
    }

    // Garbage payload inside a *valid* frame: structured Protocol error,
    // and the connection keeps serving.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        client_handshake(&mut s).unwrap();
        write_frame(&mut s, &[0xEE, 0xDD, 0xCC]).unwrap();
        let payload = read_exact_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("error frame");
        match Response::decode(&payload).expect("decodable error") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("wanted Protocol error, got {other:?}"),
        }
        write_frame(&mut s, &Request::Ping.encode()).unwrap();
        let payload = read_exact_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).expect("pong frame");
        assert!(matches!(Response::decode(&payload), Ok(Response::Pong)));
    }

    // Deterministic random blobs straight after the handshake.
    let mut state = 0x5EEDu64;
    for _ in 0..32 {
        let mut s = TcpStream::connect(addr).unwrap();
        client_handshake(&mut s).unwrap();
        let len = 1 + (splitmix(&mut state) % 256) as usize;
        let blob: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
        let _ = s.write_all(&blob);
        drop(s);
    }

    wait_until("hostile connections to drain", || {
        server.active_connections() == 0
    });
    // After all of that: a well-behaved client gets clean service.
    let mut client = connect(&server);
    client.ping().expect("server survived the hostile sweep");
    client
        .query("RETURN 1 AS one", &params)
        .expect("and still answers queries");
    client.goodbye().expect("goodbye");
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// An abruptly dropped connection — even one holding a pinned read
/// transaction and a half-written frame — leaks nothing: the session
/// dies, the pinned version is released, the gauges fall back to zero.
#[test]
fn abrupt_disconnect_releases_session_and_pinned_version() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    client_handshake(&mut s).unwrap();
    write_frame(&mut s, &Request::BeginRead.encode()).unwrap();
    let payload = read_exact_frame(&mut s, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert!(matches!(
        Response::decode(&payload),
        Ok(Response::BeganRead { .. })
    ));
    wait_until("pin gauge to rise", || server.pinned_connections() == 1);
    assert_eq!(server.active_connections(), 1);

    // Die mid-frame: two bytes of a length prefix, then gone.
    s.write_all(&[0xAB, 0xCD]).unwrap();
    drop(s);

    wait_until("session and pin to be released", || {
        server.active_connections() == 0 && server.pinned_connections() == 0
    });

    // The released pin no longer holds old versions alive: writes and
    // reads proceed normally.
    let mut client = connect(&server);
    let params = Params::new();
    client
        .query("CREATE (:A)", &params)
        .expect("write after abrupt drop");
    client.goodbye().expect("goodbye");
}

/// One connection past the cap is answered `Limit` and closed; existing
/// connections keep their service.
#[test]
fn connection_limit_answers_limit_error() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = start(mem_cfg(LIGHT[0]), cfg);
    let mut first = connect(&server);
    first.ping().expect("first connection serves");

    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    client_handshake(&mut second).unwrap();
    let payload = read_exact_frame(&mut second, DEFAULT_MAX_FRAME_BYTES).expect("limit frame");
    match Response::decode(&payload).expect("decodable") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Limit),
        other => panic!("wanted Limit, got {other:?}"),
    }
    drop(second);
    first.ping().expect("first connection unaffected");
    first.goodbye().expect("goodbye");
}

/// A client capped below a reply's size refuses it with a structured
/// `FrameTooLarge` from the length prefix alone, and the server keeps
/// answering: a second connection gets the same reply in full.
#[test]
fn client_frame_cap_refuses_a_larger_reply() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let big = "RETURN range(1, 6600) AS r"; // one list of 6 600 integers
    let mut capped = connect(&server).with_max_frame_bytes(16 * 1024);
    match capped.query(big, &Params::new()) {
        Err(ClientError::Wire(WireError::FrameTooLarge { len, max })) => {
            assert_eq!(max, 16 * 1024);
            assert!((55_000..65_000).contains(&len), "a ~60 KB reply: {len}");
        }
        other => panic!("wanted FrameTooLarge, got {other:?}"),
    }
    drop(capped);
    let mut second = connect(&server);
    let rows = second.query(big, &Params::new()).expect("uncapped reply");
    assert_eq!(
        rows.table.cell(0, "r"),
        Some(&Value::List((1..=6600).map(Value::int).collect()))
    );
    second.ping().expect("the server keeps answering");
    second.goodbye().expect("goodbye");
}

/// `shutdown` while clients are mid-request must hand the database back
/// every time. A connection thread drops its gauge before it drops its
/// handle on the shared state, so a shutdown that waits for the gauge
/// (instead of joining the threads) can find a handle still alive; the
/// first capped connection also leaves a refusal thread to join.
#[test]
fn shutdown_under_load_joins_every_connection_thread() {
    const CLIENTS: usize = 8;
    let cfg = ServerConfig {
        max_connections: CLIENTS,
        ..ServerConfig::default()
    };
    for round in 0..200 {
        let server = start(mem_cfg(LIGHT[0]), cfg.clone());
        let addr = server.local_addr();
        let in_flight = Barrier::new(CLIENTS + 1);
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect client");
                    client.ping().expect("served before the shutdown");
                    in_flight.wait();
                    // Keep requests in flight until the server hangs up.
                    while client.query("RETURN 1 AS one", &Params::new()).is_ok() {}
                });
            }
            in_flight.wait();
            let _refused = TcpStream::connect(addr);
            let db = server.shutdown();
            assert_eq!(db.version(), 0, "round {round}: the handle came back");
        });
    }
}

/// The per-connection prepared-statement cap answers `Limit` instead of
/// letting one client grow server memory without bound.
#[test]
fn prepared_statement_cap_answers_limit_error() {
    let cfg = ServerConfig {
        max_prepared: 4,
        ..ServerConfig::default()
    };
    let server = start(mem_cfg(LIGHT[0]), cfg);
    let mut client = connect(&server);
    let ids: Vec<u32> = (0..4)
        .map(|_| {
            client
                .prepare("RETURN 1 AS one")
                .expect("prepare under cap")
        })
        .collect();
    match client.prepare("RETURN 2 AS two") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Limit),
        other => panic!("wanted Limit, got {other:?}"),
    }
    client.deallocate(ids[0]).expect("free one");
    client.prepare("RETURN 2 AS two").expect("room again");
    client.goodbye().expect("goodbye");
}

/// Writes made over TCP survive server shutdown and database reopen.
#[test]
fn durable_writes_over_tcp_survive_shutdown_and_reopen() {
    let dir = std::env::temp_dir().join(format!("cypher-server-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        persistence: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let server = start(cfg, ServerConfig::default());
    let params = Params::new();
    let mut client = connect(&server);
    for i in 0..10 {
        let rows = client
            .query(&format!("CREATE (:D {{i: {i}}})"), &params)
            .expect("durable write");
        assert!(rows.committed.is_some());
    }
    client.goodbye().expect("goodbye");

    let db = server.shutdown();
    db.close().expect("clean close");

    let reopened = Database::open(&dir).expect("reopen");
    let mut session = reopened.session();
    let t = session
        .query("MATCH (n:D) RETURN count(*) AS c", &params)
        .expect("read recovered");
    assert_eq!(t.cell(0, "c"), Some(&Value::int(10)));
    reopened.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metrics page read over TCP carries the server-wide gauges that
/// the in-process handle agrees with.
#[test]
fn metrics_page_reports_connections_requests_and_version() {
    let server = start(mem_cfg(LIGHT[0]), ServerConfig::default());
    let mut client = connect(&server);
    let params = Params::new();
    client.query("CREATE (:S {k: 1})", &params).expect("seed");
    let page = parse_exposition(&client.metrics().expect("metrics"));
    assert_eq!(
        page["cypher_server_connections"],
        server.active_connections() as f64
    );
    assert_eq!(page["cypher_server_pinned_connections"], 0.0);
    assert!(
        page["cypher_server_requests_total"] >= 2.0,
        "the metrics call itself counts"
    );
    assert_eq!(page["cypher_version"], server.db().version() as f64);
    client.goodbye().expect("goodbye");
}
