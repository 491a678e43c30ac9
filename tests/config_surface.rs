//! The configuration table and the metrics page as **surfaces**: what
//! an operator types into the environment, reads in the README and
//! scrapes from the `Metrics` request. Everything here is derived from
//! the rows ([`cypher::config::Knob`]) and the `instruments!` lists, so
//! the tests pin what must not drift:
//!
//! * every row accepts a good value, keeps its default on an empty one,
//!   and **reports** a malformed or out-of-bound one;
//! * the rows write the config fields they name;
//! * the README's knob table is exactly what the rows render to;
//! * the metrics page of a fresh database, and of a server, has the
//!   same lines in the same order as before the registries were
//!   generated (`tests/golden/metrics_page.txt`, sample values
//!   stripped), plus the `cypher_config` block.

use cypher::config::{self, Access, Knob, ENGINE_KNOBS};
use cypher::{Database, EngineConfig, FsyncMode, PartialAggMode, WcoJoinMode};
use cypher_client::Client;
use cypher_server::{
    unknown_settings, Server, ServerConfig, DEFAULT_LISTEN, LISTEN_KNOB, SERVER_KNOBS,
};
use std::ffi::OsString;

/// An environment holding exactly `pairs`.
fn env(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<OsString> {
    let pairs: Vec<(String, OsString)> = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), OsString::from(v)))
        .collect();
    move |name| {
        let hit = pairs.iter().find(|(k, _)| k == name);
        hit.map(|(_, v)| v.clone())
    }
}

/// Feeds every row of `rows` a good, an empty, a malformed and an
/// out-of-bound value (whichever its shape has) on top of `base`.
fn check_rows<C>(rows: &'static [Knob<C>], base: impl Fn() -> C) {
    for row in rows {
        let default = row.value(&base());
        let accept = |raw: &str, shown: &str| {
            let mut cfg = base();
            let issues = config::load(rows, &mut cfg, &env(&[(row.var, raw)]));
            assert!(issues.is_empty(), "{}={raw:?}: {issues:?}", row.var);
            assert_eq!(row.value(&cfg), shown, "{}={raw:?}", row.var);
            for other in rows.iter().filter(|o| o.var != row.var) {
                let untouched = other.value(&base());
                assert_eq!(other.value(&cfg), untouched, "{} moved", other.var);
            }
        };
        let reject = |raw: &str, why: &str| {
            let mut cfg = base();
            let issues = config::load(rows, &mut cfg, &env(&[(row.var, raw)]));
            assert_eq!(issues.len(), 1, "{}={raw:?}: {issues:?}", row.var);
            let issue = &issues[0];
            assert_eq!((issue.var, issue.value.as_str()), (row.var, raw));
            assert_eq!(
                issue.message,
                format!("{why}; using default {default}"),
                "{}={raw:?}",
                row.var
            );
            assert_eq!(row.value(&cfg), default, "{}={raw:?} kept", row.var);
        };
        accept("", &default);
        match &row.access {
            Access::Int { min, max, .. } => {
                let good = (*min).max(7).to_string();
                accept(&good, &good);
                accept(&format!(" {good} "), &good);
                reject("banana", "not a valid integer");
                reject("-5", "not a valid integer");
                if let Some(below) = min.checked_sub(1) {
                    let why = format!("must be at least {min}, got {below}");
                    reject(&below.to_string(), &why);
                }
                if let Some(above) = max.checked_add(1) {
                    let why = format!("must be at most {max}, got {above}");
                    reject(&above.to_string(), &why);
                }
            }
            Access::Choice { tokens, .. } => {
                for token in *tokens {
                    accept(token, token);
                    accept(&token.to_uppercase(), token);
                }
                if tokens.contains(&"on") {
                    accept("0", "off");
                    accept("yes", "on");
                }
                reject("sometimes", &format!("expected {}", tokens.join("/")));
            }
            Access::Text { .. } => accept("/tmp/cy data", "/tmp/cy data"),
        }
    }
}

#[test]
fn every_row_takes_good_values_and_reports_bad_ones() {
    check_rows(&ENGINE_KNOBS, EngineConfig::default);
    check_rows(&SERVER_KNOBS, ServerConfig::default);
    check_rows(&LISTEN_KNOB, || DEFAULT_LISTEN.to_string());
}

/// A value that is not UTF-8 can be a path, never a number or a mode.
#[cfg(unix)]
#[test]
fn non_utf8_values_are_paths_or_reported() {
    use std::os::unix::ffi::OsStringExt;
    let raw = OsString::from_vec(vec![b'/', 0xff, b'd']);
    let lookup = |_: &str| Some(raw.clone());
    let mut cfg = EngineConfig::default();
    let issues = config::load(&ENGINE_KNOBS, &mut cfg, &lookup);
    assert_eq!(cfg.persistence.as_deref(), Some(raw.as_ref()));
    assert_eq!(issues.len(), ENGINE_KNOBS.len() - 1, "all but the path");
    assert!(issues
        .iter()
        .all(|i| i.message.starts_with("not valid UTF-8")));
}

#[test]
fn rows_write_the_fields_they_name() {
    let mut cfg = EngineConfig::default();
    let set = env(&[
        ("CYPHER_NUM_THREADS", "4"),
        ("CYPHER_MORSEL_SIZE", "64"),
        ("CYPHER_PARTIAL_AGG", "off"),
        ("CYPHER_WCO_JOIN", "off"),
        ("CYPHER_PLAN_CACHE_SIZE", "0"),
        ("CYPHER_DATA_DIR", "/tmp/cy"),
        ("CYPHER_WAL_COMPACT_BYTES", "4096"),
        ("CYPHER_FSYNC_MODE", "sync"),
        ("CYPHER_SLOW_QUERY_MS", "250"),
        ("CYPHER_METRICS", "off"),
        ("CYPHER_GROUP_COMMIT", "off"),
    ]);
    assert!(config::load(&ENGINE_KNOBS, &mut cfg, &set).is_empty());
    assert_eq!((cfg.num_threads, cfg.plan_cache_size), (4, 0));
    assert_eq!(cfg.persistence.as_deref(), Some("/tmp/cy".as_ref()));
    assert_eq!(cfg.wal_compact_bytes, 4096);
    assert_eq!(cfg.fsync_mode, FsyncMode::Sync);
    assert_eq!(cfg.slow_query_ms, Some(250));
    assert!(!cfg.metrics_enabled);
    // Fields, not variables: the plan and execution policies are cells
    // of the test suites, never deployment settings.
    assert!(cfg.group_commit);
    assert_eq!(cfg.morsel_size, EngineConfig::default().morsel_size);
    assert_eq!(cfg.partial_agg, PartialAggMode::Auto);
    assert_eq!(cfg.wco_join, WcoJoinMode::Auto);

    let mut server = ServerConfig::default();
    let set = env(&[
        ("CYPHER_MAX_CONNS", "banana"),
        ("CYPHER_MAX_FRAME_BYTES", "4096"),
    ]);
    let issues = config::load(&SERVER_KNOBS, &mut server, &set);
    assert_eq!((server.max_connections, server.max_frame_bytes), (64, 4096));
    assert_eq!(
        issues[0].to_string(),
        "CYPHER_MAX_CONNS=\"banana\": not a valid integer; using default 64"
    );
    let mut listen = DEFAULT_LISTEN.to_string();
    config::load(
        &LISTEN_KNOB,
        &mut listen,
        &env(&[("CYPHER_LISTEN", "[::1]:1")]),
    );
    assert_eq!(listen, "[::1]:1");
}

/// Removed modes are spelled like any unknown token: one issue each,
/// and the field keeps its default.
#[test]
fn removed_modes_are_reported_like_unknown_tokens() {
    let cases = [(
        "CYPHER_FSYNC_MODE",
        "pipelined",
        "expected os/sync; using default os",
    )];
    for (var, value, message) in cases {
        let mut cfg = EngineConfig::default();
        let issues = config::load(&ENGINE_KNOBS, &mut cfg, &env(&[(var, value)]));
        let issues: Vec<String> = issues.iter().map(ToString::to_string).collect();
        assert_eq!(issues, [format!("{var}=\"{value}\": {message}")]);
        assert_eq!(cfg.fsync_mode, FsyncMode::Os);
    }
}

/// A `CYPHER_*` variable no row reads (a removed row, a misspelling) is
/// reported; every row's own variable, `CYPHER_TEST_FAULTS` and names
/// outside the prefix are not.
#[test]
fn unknown_cypher_variables_are_reported() {
    let vars = [
        "PATH",
        "CYPHER_MORSEL_SIZE",
        "CYPHER_NUM_THREADS",
        "CYPHER_TEST_FAULTS",
        "CYPHER_NUM_THREAD",
        "cypher_listen",
        "CYPHER_LISTEN",
        "CYPHER_MAX_CONNS",
    ];
    assert_eq!(
        unknown_settings(vars.map(String::from)),
        ["CYPHER_MORSEL_SIZE", "CYPHER_NUM_THREAD"]
    );
    let rows = (LISTEN_KNOB.iter().map(|k| k.var))
        .chain(ENGINE_KNOBS.iter().map(|k| k.var))
        .chain(SERVER_KNOBS.iter().map(|k| k.var));
    assert!(unknown_settings(rows.map(String::from)).is_empty());
}

/// One README table line per row: variable · field · default · accepted
/// values · effect.
fn readme_lines<C>(prefix: &str, rows: &[Knob<C>], base: &C) -> Vec<String> {
    let line = |row: &Knob<C>| {
        let accepts = match &row.access {
            Access::Int { min, .. } => format!("integer ≥ {min}"),
            Access::Choice { tokens, .. } => format!("`{}`", tokens.join("` / `")),
            Access::Text { .. } => "text".to_string(),
        };
        format!(
            "| `{}` | `{prefix}{}` | `{}` | {accepts} | {} |",
            row.var,
            row.field,
            row.value(base),
            row.doc
        )
    };
    rows.iter().map(line).collect()
}

#[test]
fn readme_knob_table_is_the_rows() {
    let mut table = vec![
        "| variable | field | default | accepts | effect |".to_string(),
        "|---|---|---|---|---|".to_string(),
    ];
    table.extend(readme_lines(
        "EngineConfig::",
        &ENGINE_KNOBS,
        &EngineConfig::default(),
    ));
    table.extend(readme_lines(
        "ServerConfig::",
        &SERVER_KNOBS,
        &ServerConfig::default(),
    ));
    let listen = DEFAULT_LISTEN.to_string();
    table.extend(readme_lines("Server::bind: ", &LISTEN_KNOB, &listen));
    let expected = table.join("\n");

    let readme = include_str!("../README.md");
    let (begin, end) = ("<!-- knobs:begin -->\n", "\n<!-- knobs:end -->");
    let start = readme
        .find(begin)
        .expect("README has the knobs:begin marker")
        + begin.len();
    let len = readme[start..]
        .find(end)
        .expect("README has the knobs:end marker");
    assert_eq!(
        &readme[start..start + len],
        expected,
        "README's knob table differs from the rows; replace the block between \
         the knobs markers with:\n{expected}\n"
    );
}

/// A page with its sample values stripped: `# HELP` / `# TYPE` lines
/// verbatim, sample lines down to their name and labels.
fn skeleton(page: &str) -> Vec<&str> {
    fn name(line: &str) -> &str {
        match line.rsplit_once(' ') {
            Some((name, _value)) if !line.starts_with('#') => name,
            _ => line,
        }
    }
    page.lines().map(name).collect()
}

/// Splits `cfg`'s `cypher_config` block out of a page skeleton and
/// checks it against the rows.
fn take_config_block(page: &mut Vec<&str>, cfg: &EngineConfig) {
    let is_config = |l: &&str| l.contains(" cypher_config ") || l.starts_with("cypher_config{");
    let block: Vec<&str> = page.iter().copied().filter(is_config).collect();
    page.retain(|l| !is_config(l));
    let mut expected = vec![
        "# HELP cypher_config effective configuration (the labels carry the setting)".to_string(),
        "# TYPE cypher_config gauge".to_string(),
    ];
    expected.extend(ENGINE_KNOBS.iter().map(|row| {
        let (knob, value) = (row.field, row.value(cfg));
        format!("cypher_config{{knob=\"{knob}\",value=\"{value}\"}}")
    }));
    assert_eq!(block, expected);
}

#[test]
fn metrics_pages_keep_every_line_and_add_the_config_block() {
    let golden: Vec<&str> = include_str!("golden/metrics_page.txt").lines().collect();
    let database_lines = golden
        .iter()
        .position(|l| l.contains("cypher_server_"))
        .expect("the golden page ends with the server's instruments");
    let cfg = EngineConfig {
        slow_query_ms: Some(250),
        ..EngineConfig::default()
    };

    let db = Database::open_with(cfg.clone()).expect("open");
    let text = db.metrics_snapshot().text;
    let mut page = skeleton(&text);
    take_config_block(&mut page, &cfg);
    assert_eq!(page, golden[..database_lines]);

    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let text = client.metrics().expect("metrics request").text;
    let mut page = skeleton(&text);
    take_config_block(&mut page, &cfg);
    assert_eq!(page, golden);
    drop(client);
    server.shutdown();
}
