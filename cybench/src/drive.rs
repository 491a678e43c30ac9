//! Set-up, the closed-loop TCP driver, and the after-run checks.

use crate::json::{obj, Json};
use crate::stats::{median, percentile, MIN_SAMPLES_P99};
use crate::workloads::{record_ack, ConnState, Expect, OpGen, Reply, Req, Step, Workload};
use cypher::{
    Database, EngineConfig, FsyncMode, MatchConfig, Morphism, Params, PartialAggMode, PlannerMode,
    PropertyGraph, Store, Value, WcoJoinMode,
};
use cypher_client::{Client, ClientError};
use cypher_server::{Server, ServerConfig};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Throughput is the median of this many equal slices of the window.
pub const SLICES: usize = 5;

/// Every field spelled out: nothing here may come from the environment
/// (`EngineConfig::default()` reads `CYPHER_*`). The values are the
/// shipped defaults; the one deviation is `num_threads` on the workload
/// that asks for it.
pub fn engine_config(w: &Workload, dir: &Path) -> EngineConfig {
    EngineConfig {
        match_config: MatchConfig {
            morphism: Morphism::EdgeIsomorphism,
            var_length_cap: 12,
        },
        planner_mode: PlannerMode::ExpandBased,
        use_label_index: true,
        use_property_index: true,
        wco_join: WcoJoinMode::Auto,
        morsel_size: cypher_engine::DEFAULT_MORSEL_SIZE,
        num_threads: w.engine_threads,
        persistence: Some(dir.to_path_buf()),
        wal_compact_bytes: cypher_engine::exec::DEFAULT_WAL_COMPACT_BYTES,
        partial_agg: PartialAggMode::Auto,
        plan_cache_size: cypher_engine::exec::DEFAULT_PLAN_CACHE_SIZE,
        group_commit: true,
        fsync_mode: FsyncMode::Os,
        slow_query_ms: None,
        metrics_enabled: true,
        exec_metrics: None,
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_connections: 64,
        max_frame_bytes: cypher_wire::DEFAULT_MAX_FRAME_BYTES,
        max_prepared: 1024,
    }
}

/// The effective configuration, echoed into `meta`. The data directory
/// is left out: it is a location, not a setting.
pub fn config_json(cfg: &EngineConfig, server: &ServerConfig) -> Json {
    obj([
        (
            "morphism",
            Json::from(format!("{:?}", cfg.match_config.morphism)),
        ),
        (
            "var_length_cap",
            Json::from(cfg.match_config.var_length_cap),
        ),
        (
            "planner_mode",
            Json::from(format!("{:?}", cfg.planner_mode)),
        ),
        ("use_label_index", Json::from(cfg.use_label_index)),
        ("use_property_index", Json::from(cfg.use_property_index)),
        ("wco_join", Json::from(format!("{:?}", cfg.wco_join))),
        ("morsel_size", Json::from(cfg.morsel_size)),
        ("num_threads", Json::from(cfg.num_threads)),
        ("durable", Json::from(cfg.persistence.is_some())),
        ("wal_compact_bytes", Json::from(cfg.wal_compact_bytes)),
        ("partial_agg", Json::from(format!("{:?}", cfg.partial_agg))),
        ("plan_cache_size", Json::from(cfg.plan_cache_size)),
        ("group_commit", Json::from(cfg.group_commit)),
        ("fsync_mode", Json::from(format!("{:?}", cfg.fsync_mode))),
        (
            "slow_query_ms",
            cfg.slow_query_ms.map_or(Json::Null, Json::from),
        ),
        ("metrics_enabled", Json::from(cfg.metrics_enabled)),
        ("max_connections", Json::from(server.max_connections)),
        (
            "max_frame_bytes",
            Json::from(u64::from(server.max_frame_bytes)),
        ),
        ("max_prepared", Json::from(server.max_prepared)),
    ])
}

/// One client connection with its prepared statements, its op stream and
/// what the server has promised it.
pub struct Conn {
    pub client: Client,
    pub stmt_ids: Vec<u32>,
    pub ops: OpGen,
    pub state: ConnState,
}

impl Conn {
    /// Sends one request and waits for its reply.
    pub fn send(&mut self, req: &Req) -> Result<Reply, ClientError> {
        let rows = |r: cypher_client::Rows| Reply {
            committed: r.committed,
            version: None,
            table: r.table,
        };
        match req {
            Req::Execute { stmt, params } => {
                self.client.execute(self.stmt_ids[*stmt], params).map(rows)
            }
            Req::Query { text } => self.client.query(text, &Params::new()).map(rows),
            Req::ReadView { name } => self.client.read_view(name).map(|(version, table)| Reply {
                committed: None,
                version: Some(version),
                table,
            }),
        }
    }

    /// Runs the next op of the stream. `Err` says what went wrong: an
    /// error frame, a transport failure, or a wrong answer. With `expect`
    /// absent (warm-up) replies go unjudged, except that a write must
    /// still be acknowledged — and what it promised is recorded either way.
    pub fn run_op(&mut self, expect: Option<&Expect>) -> Result<(), String> {
        let op = self.ops.next_op();
        let mut wrong = None;
        for step in &op.steps {
            let reply = self.send(&step.req).map_err(|e| e.to_string())?;
            let ok = match expect {
                Some(e) => e.verify(&step.check, &reply, &mut self.state),
                None => record_ack(&step.check, &reply, &mut self.state),
            };
            if !ok {
                wrong.get_or_insert_with(|| wrong_answer(step, &reply));
            }
        }
        wrong.map_or(Ok(()), Err)
    }
}

/// What a failed check looked like, for the first-failure line.
pub fn wrong_answer(step: &Step, reply: &Reply) -> String {
    format!(
        "wrong answer: {:?} for {:?} got {} rows, committed {:?}, version {:?}",
        step.check,
        step.req,
        reply.table.len(),
        reply.committed,
        reply.version
    )
}

/// A loaded, served, warmed-up database.
pub struct Live {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub cfg: EngineConfig,
    /// The generator's own graph: the source of expected answers.
    pub graph: PropertyGraph,
}

/// Builds everything up to the first measured op and returns how long it
/// took: dataset generation, import into a fresh data directory (one
/// snapshot through the public `Store`), open (recovery), view
/// registration, bind, connect, prepare, warm-up.
pub fn set_up(w: &Workload, seed: u64, dir: &Path, lanes: &[usize]) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let graph = w.generate(seed);
    {
        let (mut store, _empty) = Store::open(dir).map_err(|e| format!("create store: {e}"))?;
        store
            .checkpoint(&graph)
            .map_err(|e| format!("import snapshot: {e}"))?;
    }
    let cfg = engine_config(w, dir);
    let db = Database::open_with(cfg.clone()).map_err(|e| format!("open database: {e}"))?;
    for (name, text) in &w.views {
        db.create_view(name, text)
            .map_err(|e| format!("create view {name}: {e}"))?;
    }
    let server =
        Server::bind(db, "127.0.0.1:0", server_config()).map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::with_capacity(lanes.len());
    for &lane in lanes {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let stmt_ids = w
            .statements
            .iter()
            .map(|text| client.prepare(text))
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|e| format!("prepare: {e}"))?;
        conns.push(Conn {
            client,
            stmt_ids,
            ops: w.ops(seed, lane),
            state: ConnState::default(),
        });
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || -> Result<(), String> {
                    for _ in 0..w.warmup_ops {
                        conn.run_op(None)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
    .map_err(|e| format!("warm-up: {e}"))?;
    let live = Live {
        server,
        conns,
        cfg,
        graph,
    };
    Ok((live, started.elapsed().as_secs_f64()))
}

/// Says goodbye on every connection and stops the server.
pub fn tear_down(live: Live) -> (Database, Vec<ConnState>) {
    let mut states = Vec::new();
    for conn in live.conns {
        let _ = conn.client.goodbye();
        states.push(conn.state);
    }
    (live.server.shutdown(), states)
}

/// One completed op: when it finished (since the window opened) and how
/// long the client waited for it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Error frames, transport failures and wrong answers.
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// The closed loop: every connection sends its next op when the previous
/// reply has been checked, until `window` has passed.
pub fn closed_loop(conns: &mut [Conn], expect: &Expect, window: Duration) -> Window {
    let barrier = Barrier::new(conns.len());
    let per_conn: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Window {
                        samples: Vec::with_capacity(1 << 20),
                        ..Window::default()
                    };
                    barrier.wait();
                    let opened = Instant::now();
                    loop {
                        let sent = opened.elapsed();
                        if sent >= window {
                            break;
                        }
                        out.attempted += 1;
                        let verdict = conn.run_op(Some(expect));
                        let done = opened.elapsed();
                        match verdict {
                            Ok(()) => out.samples.push(Sample {
                                done_ns: done.as_nanos() as u64,
                                latency_ns: (done - sent).as_nanos() as u64,
                            }),
                            Err(e) => {
                                out.failed += 1;
                                out.first_failure.get_or_insert(e);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Window::default();
    for w in per_conn {
        all.samples.extend(w.samples);
        all.attempted += w.attempted;
        all.failed += w.failed;
        all.first_failure = all.first_failure.or(w.first_failure);
    }
    all
}

/// Throughput and latency of a window, whole and per slice.
pub struct WindowStats {
    pub ops_per_s: f64,
    pub p50_us: f64,
    /// `None` below 1 000 samples.
    pub p99_us: Option<f64>,
    pub slice_ops_per_s: Vec<f64>,
    pub slice_p50_us: Vec<f64>,
    pub slice_p99_us: Vec<f64>,
}

pub fn window_stats(samples: &[Sample], window: Duration) -> WindowStats {
    let slice_ns = window.as_nanos() as u64 / SLICES as u64;
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
    for s in samples {
        // An op in flight when the window closes finishes just after it;
        // it is a latency sample but belongs to no throughput slice.
        if let Some(slice) = slices.get_mut((s.done_ns / slice_ns) as usize) {
            slice.push(s.latency_ns);
        }
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let mut all: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    all.sort_unstable();
    let mut slice_p50_us = Vec::new();
    let mut slice_p99_us = Vec::new();
    for slice in &mut slices {
        slice.sort_unstable();
        slice_p50_us.extend(percentile(slice, 0.50, 1).map(us));
        slice_p99_us.extend(percentile(slice, 0.99, MIN_SAMPLES_P99).map(us));
    }
    let slice_ops_per_s: Vec<f64> = slices
        .iter()
        .map(|s| s.len() as f64 / (slice_ns as f64 / 1e9))
        .collect();
    WindowStats {
        ops_per_s: median(&slice_ops_per_s),
        p50_us: percentile(&all, 0.50, 1).map_or(f64::NAN, us),
        p99_us: percentile(&all, 0.99, MIN_SAMPLES_P99).map(us),
        slice_ops_per_s,
        slice_p50_us,
        slice_p99_us,
    }
}

/// After a write workload: every view must equal a cold re-evaluation of
/// its query, and — after close and reopen — every acknowledged write
/// must be readable. Returns the mismatches found and how long the
/// reopen (recovery) took.
pub fn check_durability(
    w: &Workload,
    db: Database,
    cfg: &EngineConfig,
    states: &[ConnState],
    initial_edges: usize,
) -> Result<(u64, f64), String> {
    let mut mismatches = 0u64;
    let none = Params::new();
    {
        let mut session = db.session();
        for (name, text) in &w.views {
            let maintained = session
                .view(name)
                .map_err(|e| format!("read view {name}: {e}"))?;
            let cold = session
                .query(text, &none)
                .map_err(|e| format!("re-evaluate view {name}: {e}"))?;
            if !maintained.bag_eq(&cold) {
                eprintln!("cybench: view {name} differs from a cold re-evaluation");
                mismatches += 1;
            }
        }
    }
    db.close().map_err(|e| format!("close: {e}"))?;
    let reopening = Instant::now();
    let db = Database::open_with(cfg.clone()).map_err(|e| format!("reopen: {e}"))?;
    let recovery_s = reopening.elapsed().as_secs_f64();
    let mut session = db.session();
    let persons = session
        .query("MATCH (p:Person) RETURN p.i AS i, p.v AS v", &none)
        .map_err(|e| format!("read back persons: {e}"))?;
    let stored: std::collections::HashMap<i64, i64> = (0..persons.len())
        .filter_map(|r| match (persons.cell(r, "i"), persons.cell(r, "v")) {
            (Some(Value::Integer(i)), Some(Value::Integer(v))) => Some((*i, *v)),
            _ => None,
        })
        .collect();
    let created: usize = states.iter().map(|s| s.created.len()).sum();
    for state in states {
        for (i, v) in &state.sets {
            mismatches += u64::from(stored.get(i) != Some(v));
        }
        for new in &state.created {
            mismatches += u64::from(!stored.contains_key(new));
        }
    }
    let edges = session
        .query(
            "MATCH (:Person)-[f:FOLLOWS]->(:Person) RETURN count(f) AS c",
            &none,
        )
        .map_err(|e| format!("count edges: {e}"))?;
    let want_edges = (initial_edges + created) as i64;
    if edges.cell(0, "c") != Some(&Value::int(want_edges)) {
        eprintln!(
            "cybench: {:?} FOLLOWS edges after reopen, acknowledged writes imply {want_edges}",
            edges.cell(0, "c")
        );
        mismatches += 1;
    }
    drop(session);
    db.close().map_err(|e| format!("close after check: {e}"))?;
    Ok((mismatches, recovery_s))
}
