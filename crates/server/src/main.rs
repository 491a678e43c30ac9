//! The `cypher-server` binary: opens a database (durable when
//! `CYPHER_DATA_DIR` is set, in-memory otherwise), binds the address in
//! `CYPHER_LISTEN` (default `127.0.0.1:7474`), and serves the wire
//! protocol until killed. `CYPHER_MAX_CONNS` and
//! `CYPHER_MAX_FRAME_BYTES` bound each client's footprint. It is the only
//! code that reads `CYPHER_*`: the engine's, the server's and the listen
//! rows are overlaid here, and the libraries take the result as
//! arguments.

use cypher::config::{self, ENGINE_KNOBS};
use cypher::{Database, EngineConfig};
use cypher_server::{Server, ServerConfig, DEFAULT_LISTEN, LISTEN_KNOB, SERVER_KNOBS};

fn main() {
    // The one place the process environment becomes configuration: a
    // malformed value keeps its default and is reported.
    let (mut listen, mut engine_cfg) = (DEFAULT_LISTEN.to_string(), EngineConfig::default());
    let mut cfg = ServerConfig::default();
    let env = &config::process_env;
    let mut issues = config::load(&LISTEN_KNOB, &mut listen, env);
    issues.extend(config::load(&ENGINE_KNOBS, &mut engine_cfg, env));
    issues.extend(config::load(&SERVER_KNOBS, &mut cfg, env));
    for issue in issues {
        eprintln!("cypher-server: ignoring environment override {issue}");
    }
    let vars = std::env::vars_os().map(|(var, _)| var.to_string_lossy().into_owned());
    for var in cypher_server::unknown_settings(vars) {
        eprintln!("cypher-server: ignoring environment override {var}: no such setting");
    }
    let durable = engine_cfg
        .persistence
        .as_ref()
        .map(|p| format!("durable at {}", p.display()));
    let db = match Database::open_with(engine_cfg) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cypher-server: failed to open database: {e}");
            std::process::exit(1);
        }
    };
    let max_conns = cfg.max_connections;
    let server = match Server::bind(db, &listen, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cypher-server: failed to bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "cypher-server listening on {} ({}, max {} connections)",
        server.local_addr(),
        durable.as_deref().unwrap_or("in-memory"),
        max_conns,
    );
    server.run();
}
