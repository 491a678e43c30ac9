//! The `cypher-server` binary: opens a database (durable when
//! `CYPHER_DATA_DIR` is set, in-memory otherwise), binds the address in
//! `CYPHER_LISTEN` (default `127.0.0.1:7474`), and serves the wire
//! protocol until killed. `CYPHER_MAX_CONNS` and
//! `CYPHER_MAX_FRAME_BYTES` bound each client's footprint.

use cypher::{config, Database, EngineConfig};
use cypher_server::{Server, ServerConfig, DEFAULT_LISTEN, LISTEN_KNOB};

fn main() {
    let mut listen = DEFAULT_LISTEN.to_string();
    config::load(&LISTEN_KNOB, &mut listen, &config::process_env);
    for issue in cypher::env_config_issues() {
        eprintln!("cypher-server: {issue}");
    }
    let engine_cfg = EngineConfig::default();
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
    let cfg = ServerConfig::from_env();
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
