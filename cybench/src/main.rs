//! `cybench`: the repo benchmark. See `cybench/README.md`.
//!
//! ```text
//! cybench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! cybench [--seed N] [--seconds S]                         every workload, untraced then traced
//! cybench --smoke                                          the self-test
//! cybench compare A.json B.json                            judge B against A by the bounds
//! ```

mod alloc;
mod compare;
mod drive;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use drive::{check_durability, closed_loop, set_up, tear_down, window_stats, Live};
use json::{obj, Json};
use spec::Spec;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Counts, SelfTimes, COUNTED_OPS};
use workloads::{Expect, Workload};

#[global_allocator]
static ALLOC: alloc::GatedCountingAlloc = alloc::GatedCountingAlloc;

/// `setup_s` is the median of this many complete set-ups; the last one
/// is the one measured on.
const SETUPS: usize = 3;

struct Options {
    seed: u64,
    seconds: f64,
    /// Smoke: every workload on `social-S`.
    small: bool,
    /// `C = min(nproc, 2)`.
    conns: usize,
    git_commit: String,
    /// Where accounts, traces and data directories go. `run.sh` passes
    /// the `out/` beside itself, so a run pollutes no other directory
    /// whatever the working directory is.
    out: PathBuf,
}

/// One run of one workload.
struct Report {
    attempted: u64,
    failed: u64,
    /// Every metric computed, by name; the contract's line picks from it.
    metrics: BTreeMap<String, f64>,
    /// The full account, for `out/` and `compare`.
    doc: Json,
    /// Traced runs: the exact counts over the fixed op prefix.
    counted: Counts,
}

fn data_dir(w: &Workload, opt: &Options, purpose: &str) -> PathBuf {
    opt.out.join(format!("data_{}_{purpose}", w.name))
}

fn workload_meta(w: &Workload, live: &Live) -> Json {
    obj([
        ("dataset", Json::from(w.dataset_name())),
        ("persons", Json::from(live.graph.node_count())),
        ("follows", Json::from(live.graph.rel_count())),
        ("connections", Json::from(w.connections)),
        ("warmup_ops_per_connection", Json::from(w.warmup_ops)),
        ("statements", Json::from(w.statements.clone())),
        (
            "views",
            Json::from(w.views.iter().map(|(_, text)| *text).collect::<Vec<_>>()),
        ),
        (
            "config",
            drive::config_json(&live.cfg, &drive::server_config()),
        ),
    ])
}

/// The untraced run: `C` connections in a closed loop for the window.
fn run_untraced(w: &Workload, opt: &Options) -> Result<Report, String> {
    let dir = data_dir(w, opt, "e2e");
    let lanes: Vec<usize> = (0..w.connections).collect();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = live.take() {
            let (db, _) = tear_down(previous);
            db.close().map_err(|e| format!("close: {e}"))?;
        }
        let (l, seconds) = set_up(w, opt.seed, &dir, &lanes)?;
        setup_s.push(seconds);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let t = Instant::now();
    let expect = Expect::build(w, opt.seed, &live.graph, live.server.db());
    eprintln!(
        "cybench: {}: set-ups {setup_s:.2?} s, expected answers {:.2} s",
        w.name,
        t.elapsed().as_secs_f64()
    );
    let meta = workload_meta(w, &live);

    let db = live.server.db();
    let generation_before = db.generation().unwrap_or(0);
    let groups_before = db.metrics().commit_group_size.snapshot();
    let cache_before = db.plan_cache_stats();
    let window = Duration::from_secs_f64(opt.seconds);
    let measured = closed_loop(&mut live.conns, &expect, window);
    let db = live.server.db();
    let groups = db.metrics().commit_group_size.snapshot();
    let cache = db.plan_cache_stats();
    let checkpoints = db.generation().unwrap_or(0) - generation_before;
    let lookups = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);

    let initial_edges = live.graph.rel_count();
    let cfg = live.cfg.clone();
    let (db, states) = tear_down(live);
    let t = Instant::now();
    let (mismatches, _) = check_durability(w, db, &cfg, &states, initial_edges)?;
    eprintln!(
        "cybench: {}: {} ops, reopen and read-back {:.2} s",
        w.name,
        measured.attempted,
        t.elapsed().as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(reason) = &measured.first_failure {
        eprintln!("cybench: {}: first failure: {reason}", w.name);
    }
    let stats = window_stats(&measured.samples, window);
    let attempted = measured.attempted + mismatches;
    let failed = measured.failed + mismatches;
    let mut metrics = BTreeMap::new();
    metrics.insert("ops_per_s".to_string(), stats.ops_per_s);
    metrics.insert("p50_us".to_string(), stats.p50_us);
    metrics.insert("setup_s".to_string(), median(&setup_s));
    let doc = obj([
        ("meta", meta),
        ("samples", Json::from(measured.samples.len())),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("fail_ratio", Json::from(failed as f64 / attempted as f64)),
        (
            "runs",
            obj([
                ("ops_per_s", Json::from(stats.slice_ops_per_s)),
                ("p50_us", Json::from(stats.slice_p50_us)),
                ("p99_us", Json::from(stats.slice_p99_us)),
                ("setup_s", Json::from(setup_s)),
            ]),
        ),
        (
            "diagnostics",
            obj([
                // Printed, not gated: on `point_read` it did not repeat
                // within any bound the contract allows (README).
                ("p99_us", stats.p99_us.map_or(Json::Null, Json::from)),
                ("storage.checkpoints", Json::from(checkpoints)),
                (
                    "cypher.group_size",
                    Json::from(ratio(
                        groups.sum - groups_before.sum,
                        groups.count - groups_before.count,
                    )),
                ),
                (
                    "cypher.plan_cache_hit_ratio",
                    Json::from(ratio(cache.hits - cache_before.hits, lookups)),
                ),
            ]),
        ),
    ]);
    Ok(Report {
        attempted,
        failed,
        metrics,
        doc,
        counted: Counts::default(),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: lane 0 in-process under spans, then lane 1 over TCP
/// alone for the round-trip time the spans are compared with.
fn run_traced(w: &Workload, opt: &Options) -> Result<Report, String> {
    let dir = data_dir(w, opt, "trace");
    let scratch_dir = data_dir(w, opt, "scratch");
    let (mut live, _) = set_up(w, opt.seed, &dir, &[0, 1])?;
    let expect = Expect::build(w, opt.seed, &live.graph, live.server.db());
    let meta = workload_meta(w, &live);
    let opened = Instant::now();
    let (in_process, over_tcp) = live.conns.split_at_mut(1);
    let (in_process, over_tcp) = (&mut in_process[0], &mut over_tcp[0]);
    let db = live.server.db();
    let generation_before = db.generation().unwrap_or(0);

    let traced = trace::traced_pass(
        w,
        db,
        &live.cfg,
        &scratch_dir,
        &mut in_process.ops,
        &expect,
        &mut in_process.state,
        Duration::from_secs_f64(opt.seconds * 0.4),
    )?;
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let times = SelfTimes::of(&traced.tracer.spans);

    let pings: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            over_tcp
                .client
                .ping()
                .map(|()| t.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("ping: {e}"))?;
    let mut rtts = Vec::new();
    let mut failed = traced.failed;
    let mut first_failure = traced.first_failure.clone();
    while opened.elapsed().as_secs_f64() < opt.seconds || rtts.len() < COUNTED_OPS {
        let t = Instant::now();
        match over_tcp.run_op(Some(&expect)) {
            Ok(()) => rtts.push(t.elapsed().as_nanos() as f64 / 1e3),
            Err(e) => {
                failed += 1;
                first_failure.get_or_insert(e);
            }
        }
    }
    let view = db.graph();
    let seek_us = trace::probe_seek_us(&view, w.persons);
    let cow_write_us = trace::probe_cow_write_us(&view, w.persons);
    drop(view);
    let checkpoints = db.generation().unwrap_or(0) - generation_before;

    let initial_edges = live.graph.rel_count();
    let cfg = live.cfg.clone();
    let (mut db, states) = tear_down(live);
    let t = Instant::now();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_us = t.elapsed().as_nanos() as f64 / 1e3;
    let (mismatches, recovery_s) = check_durability(w, db, &cfg, &states, initial_edges)?;
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(reason) = &first_failure {
        eprintln!("cybench: {}: first failure: {reason}", w.name);
    }

    let prefix = traced.counted_prefix;
    let inproc_op_us = median(&times.op_us);
    let rtt_us = median(&rtts);
    let ping_rtt_us = median(&pings);
    let layer = |name: &str| times.by_layer.get(name).map_or(0.0, |v| median(v));
    let metrics: BTreeMap<String, f64> = [
        ("wire.codec_us", layer("wire")),
        ("wire.bytes_per_op", ratio(prefix.wire_bytes, prefix.ops)),
        ("server.rtt_us", rtt_us),
        ("server.ping_rtt_us", ping_rtt_us),
        ("server.transport_us", rtt_us - inproc_op_us),
        ("parser.parse_us", times.span_median_us("parser/parse")),
        ("engine.plan_us", times.span_median_us("engine/plan")),
        ("engine.exec_us", times.span_median_us("engine/exec")),
        ("engine.rows_per_op", ratio(prefix.rows, prefix.ops)),
        ("engine.allocs_per_op", ratio(prefix.allocs, prefix.ops)),
        ("cypher.session_us", layer("cypher")),
        ("cypher.commit_us", times.span_median_us("cypher/write")),
        (
            "cypher.view_read_us",
            times.span_median_us("cypher/view_read"),
        ),
        (
            "cypher.plan_cache_hit_ratio",
            ratio(prefix.cache_hits, prefix.cache_hits + prefix.cache_misses),
        ),
        (
            "cypher.group_size",
            ratio(traced.group_members, traced.groups),
        ),
        (
            "cypher.view_fold_us",
            ratio(traced.view_fold_us_sum, traced.view_folds),
        ),
        (
            "cypher.view_full_recomputes",
            traced.view_full_recomputes as f64,
        ),
        ("storage.append_us", times.span_median_us("storage/append")),
        ("storage.sync_us", times.span_median_us("storage/sync")),
        (
            "storage.wal_bytes_per_commit",
            ratio(prefix.wal_bytes, prefix.commits),
        ),
        ("storage.checkpoints", checkpoints as f64),
        ("storage.checkpoint_us", checkpoint_us),
        ("storage.recovery_us", recovery_s * 1e6),
        ("graph.seek_us", seek_us),
        ("graph.cow_write_us", cow_write_us),
        ("trace.inproc_op_us", inproc_op_us),
        // The share of the client-observed round trip that the in-process
        // layer calls plus the bare ping round trip account for. (With
        // `server.transport_us`, a residual by definition, it would be 1.)
        ("trace.coverage", (inproc_op_us + ping_rtt_us) / rtt_us),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    std::fs::write(
        opt.out.join(format!("trace_{}.json", w.name)),
        trace::trace_file(w.name, opt.seed, &traced.tracer.spans).pretty(),
    )
    .map_err(|e| format!("write trace file: {e}"))?;

    let attempted = traced.counts.ops + rtts.len() as u64 + (failed - traced.failed) + mismatches;
    let failed = failed + mismatches;
    let doc = obj([
        ("meta", meta),
        ("traced_ops", Json::from(traced.counts.ops)),
        ("spans_recorded", Json::from(traced.tracer.spans.len())),
        ("rtt_samples", Json::from(rtts.len())),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("layers", times.budget_table(&times.by_layer, &rtts)),
        ("spans", times.budget_table(&times.by_span, &rtts)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
    ]);
    Ok(Report {
        attempted,
        failed,
        metrics,
        doc,
        counted: prefix,
    })
}

fn run(w: &Workload, opt: &Options, traced: bool) -> Result<Report, String> {
    std::fs::create_dir_all(&opt.out).map_err(|e| format!("create {:?}: {e}", opt.out))?;
    if traced {
        run_traced(w, opt)
    } else {
        run_untraced(w, opt)
    }
}

/// The contract's result line: exactly the metrics `BENCHMARK.json`
/// lists for this mode, each with its unit.
fn result_line(spec: &Spec, report: &Report, traced: bool) -> Result<Json, String> {
    let wanted = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = wanted
        .iter()
        .map(|m| {
            let value = report
                .metrics
                .get(&m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            Ok((
                m.name.clone(),
                obj([
                    ("value", Json::from(*value)),
                    ("unit", Json::from(m.unit.as_str())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(obj([
        ("correct", Json::from(report.failed == 0)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn meta(opt: &Options) -> Json {
    obj([
        ("seed", Json::from(opt.seed)),
        ("window_s", Json::from(opt.seconds)),
        ("slices", Json::from(drive::SLICES)),
        ("setups", Json::from(SETUPS)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("connections_c", Json::from(opt.conns)),
        (
            "load_model",
            Json::from("closed loop, one OS thread per connection"),
        ),
        (
            "server",
            Json::from("in-process, 127.0.0.1, ephemeral port"),
        ),
        (
            "flush_policy",
            Json::from("FsyncMode::Os: sealed groups reach the OS cache, no device flush"),
        ),
        ("git_commit", Json::from(opt.git_commit.as_str())),
    ])
}

/// Every workload, untraced then traced; one document.
fn run_all(spec: &Spec, opt: &Options) -> Result<(Json, u64), String> {
    let mut workloads = Vec::new();
    let mut failed = 0;
    for (name, why) in &spec.workloads {
        let w = Workload::by_name(name, opt.conns, opt.small)
            .ok_or_else(|| format!("BENCHMARK.json names an unknown workload {name}"))?;
        eprintln!("cybench: {name}: untraced");
        let e2e = run(&w, opt, false)?;
        eprintln!("cybench: {name}: traced");
        let traced = run(&w, opt, true)?;
        failed += e2e.failed + traced.failed;
        let end_to_end = spec
            .end_to_end
            .iter()
            .map(|m| {
                let value = e2e
                    .metrics
                    .get(&m.name)
                    .map_or(Json::Null, |v| Json::from(*v));
                (
                    m.name.clone(),
                    obj([("value", value), ("unit", Json::from(m.unit.as_str()))]),
                )
            })
            .collect();
        workloads.push((
            name.clone(),
            obj([
                ("why", Json::from(why.as_str())),
                ("end_to_end", Json::Obj(end_to_end)),
                ("untraced", e2e.doc),
                ("traced", traced.doc),
            ]),
        ));
    }
    Ok((
        obj([("meta", meta(opt)), ("workloads", Json::Obj(workloads))]),
        failed,
    ))
}

/// The self-test: short windows on `social-S`, then the properties the
/// numbers rest on.
fn smoke(spec: &Spec, opt: &Options) -> Result<(), String> {
    let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    check(
        stats::percentile(&[1; 999], 0.99, stats::MIN_SAMPLES_P99).is_none(),
        "p99 was answered from 999 samples".to_string(),
    )?;
    for (name, _) in &spec.workloads {
        let w = Workload::by_name(name, opt.conns, opt.small)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let sequence = |seed| -> Vec<String> {
            let mut ops = w.ops(seed, 0);
            (0..COUNTED_OPS)
                .map(|_| format!("{:?}", ops.next_op()))
                .collect()
        };
        check(
            sequence(opt.seed) == sequence(opt.seed),
            format!("{name}: the op sequence of one seed differs between two generations"),
        )?;
        check(
            sequence(opt.seed) != sequence(opt.seed + 1),
            format!("{name}: two seeds generate the same op sequence"),
        )?;
        let e2e = run(&w, opt, false)?;
        check(
            e2e.failed == 0,
            format!("{name}: {} ops failed", e2e.failed),
        )?;
        for m in &spec.end_to_end {
            let present = e2e
                .metrics
                .get(&m.name)
                .is_some_and(|v| v.is_finite() && *v > 0.0);
            check(
                present && !m.unit.is_empty(),
                format!("{name}: end-to-end metric {} is missing", m.name),
            )?;
        }
        let first = run(&w, opt, true)?;
        let second = run(&w, opt, true)?;
        check(
            first.failed + second.failed == 0,
            format!("{name}: traced ops failed"),
        )?;
        check(
            first.counted == second.counted,
            format!(
                "{name}: exact counts differ between two traced passes of one seed:\n  {:?}\n  {:?}",
                first.counted, second.counted
            ),
        )?;
        for m in &spec.per_layer {
            check(
                first.metrics.contains_key(&m.name),
                format!("{name}: per-layer metric {} is missing", m.name),
            )?;
        }
        eprintln!("cybench: smoke: {name} ok ({:?})", first.counted);
    }
    Ok(())
}

fn parse_args(spec: &Spec) -> Result<(Options, Option<String>, Option<bool>, bool), String> {
    let mut opt = Options {
        seed: 1,
        seconds: spec.run_seconds as f64,
        small: false,
        conns: std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2),
        git_commit: "unknown".to_string(),
        out: PathBuf::from("cybench/out"),
    };
    let (mut workload, mut traced, mut smoke) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opt.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opt.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if opt.seconds.is_nan() || opt.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--git-commit" => opt.git_commit = value()?,
            "--out" => opt.out = PathBuf::from(value()?),
            "--smoke" => {
                smoke = true;
                opt.small = true;
                opt.seconds = 0.5;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((opt, workload, traced, smoke))
}

fn real_main() -> Result<u8, String> {
    // Before the first `EngineConfig` exists: the engine reads its
    // `CYPHER_*` defaults once, at first use, and nothing in the ambient
    // environment may reach a measurement.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CYPHER_") {
            std::env::remove_var(key);
        }
    }
    let spec = Spec::load();
    if std::env::args().nth(1).as_deref() == Some("compare") {
        let paths: Vec<String> = std::env::args().skip(2).collect();
        let [base, new] = paths.as_slice() else {
            return Err("usage: cybench compare BASE.json NEW.json".to_string());
        };
        return compare::compare_files(&spec, base, new);
    }
    let (opt, workload, traced, smoke_test) = parse_args(&spec)?;
    if smoke_test {
        smoke(&spec, &opt)?;
        println!("cybench: smoke ok");
        return Ok(0);
    }
    let Some(name) = workload else {
        let (doc, failed) = run_all(&spec, &opt)?;
        let path = opt.out.join("cybench.json");
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {path:?}: {e}"))?;
        print!("{}", doc.pretty());
        eprintln!("cybench: wrote {}", path.display());
        return Ok(u8::from(failed > 0));
    };
    let w = Workload::by_name(&name, opt.conns, opt.small)
        .filter(|_| spec.workloads.iter().any(|(n, _)| *n == name))
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let traced = traced.unwrap_or(false);
    let report = run(&w, &opt, traced)?;
    let line = result_line(&spec, &report, traced)?;
    let doc = obj([
        ("meta", meta(&opt)),
        ("workload", Json::from(name.as_str())),
        ("run", report.doc),
    ]);
    let path = opt
        .out
        .join(format!("{name}_trace{}.json", u8::from(traced)));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {path:?}: {e}"))?;
    print!("{}", doc.pretty());
    println!("{}", line.compact());
    Ok(u8::from(report.failed > 0))
}

fn main() -> std::process::ExitCode {
    match real_main() {
        Ok(code) => std::process::ExitCode::from(code),
        Err(e) => {
            eprintln!("cybench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
