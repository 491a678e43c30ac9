//! Experiment E26: what observing the engine costs.
//!
//! The metrics registry claims to be cheap enough to leave on in
//! production — a handful of relaxed atomic increments per query. This
//! experiment holds it to that: the same in-process point-read workload
//! runs against a metrics-on and a metrics-off database, best-of-three
//! each, and the on/off throughput ratio must stay **≥ 0.95** (metrics
//! may cost at most 5%).
//!
//! Two more cells keep the rest of the subsystem honest end to end:
//! `PROFILE` over TCP must answer a well-formed operator table whose
//! actual row counts are truthful, and a `Metrics` wire request must
//! return a page that still parses after the workload.
//!
//! Derived `e26:` lines feed the README performance table. Operation
//! count per cell is tunable via `CYPHER_E26_OPS` (default 30000).

use criterion::{criterion_group, criterion_main, Criterion};
use cypher::{Database, EngineConfig, Params, Value};
use cypher_client::Client;
use cypher_server::{Server, ServerConfig};
use std::time::Instant;

const ROWS: usize = 1000;

fn ops() -> usize {
    cypher::workload::harness_knob("CYPHER_E26_OPS", 30_000, 1) as usize
}

fn open_db(metrics: bool) -> Database {
    let mut cfg = EngineConfig::default();
    cfg.persistence = None;
    cfg.metrics_enabled = metrics;
    let db = Database::open_with(cfg).expect("open bench db");
    let mut session = db.session();
    let params = Params::new();
    let mut k = 0usize;
    while k < ROWS {
        let batch = (ROWS - k).min(250);
        let stmt = (k..k + batch)
            .map(|i| format!("(:Load {{k: {i}, v: {}}})", (i * i) as i64))
            .collect::<Vec<_>>()
            .join(", ");
        session
            .query(&format!("CREATE {stmt}"), &params)
            .expect("seed");
        k += batch;
    }
    db
}

/// Runs `n` verified point reads through one session and returns qps.
fn point_reads(db: &Database, n: usize) -> f64 {
    let mut session = db.session();
    let text = "MATCH (n:Load {k: $k}) RETURN n.v AS v";
    let mut state = 0x5EEDu64;
    let t = Instant::now();
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = ((state >> 33) % ROWS as u64) as i64;
        let mut p = Params::new();
        p.insert("k".to_string(), Value::int(k));
        let rows = session.query(text, &p).expect("point read");
        assert_eq!(
            rows.cell(0, "v"),
            Some(&Value::int(k * k)),
            "wrong answer for k={k}"
        );
    }
    n as f64 / t.elapsed().as_secs_f64()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e26_observability");

    // Criterion series: the instrumented read path itself.
    {
        let db = open_db(true);
        group.bench_function("point_reads/metrics_on", |b| {
            b.iter(|| std::hint::black_box(point_reads(&db, 50)))
        });
    }

    // Headline: metrics-on vs metrics-off throughput, best of three.
    let n = ops();
    let mut on_qps = 0.0f64;
    let mut off_qps = 0.0f64;
    for round in 0..3 {
        let on = open_db(true);
        let off = open_db(false);
        // Alternate the order so warm-up drift cannot favour one side.
        let (on_run, off_run) = if round % 2 == 0 {
            let a = point_reads(&on, n);
            let b = point_reads(&off, n);
            (a, b)
        } else {
            let b = point_reads(&off, n);
            let a = point_reads(&on, n);
            (a, b)
        };
        on_qps = on_qps.max(on_run);
        off_qps = off_qps.max(off_run);
        eprintln!("e26: round {round} — on {on_run:.0} qps, off {off_run:.0} qps");
    }
    let ratio = on_qps / off_qps;
    eprintln!(
        "e26: metrics-on {on_qps:.0} qps vs metrics-off {off_qps:.0} qps \
         — ratio {ratio:.3}"
    );
    assert!(
        ratio >= 0.95,
        "the metrics registry may cost at most 5% throughput \
         (on/off ratio {ratio:.3})"
    );
    let mut report = cypher_bench::BenchReport::new("e26");
    report.metric("metrics_on_qps", on_qps);
    report.metric("metrics_off_qps", off_qps);
    report.metric("metrics_on_off_ratio", ratio);
    report.emit();

    // PROFILE and the metrics page, end to end over TCP.
    let server = Server::bind(open_db(true), "127.0.0.1:0", ServerConfig::default())
        .expect("bind observability server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let params = Params::new();
    let profiled = client
        .query("PROFILE MATCH (n:Load) RETURN n.v", &params)
        .expect("remote PROFILE");
    assert_eq!(
        profiled.table.schema().names(),
        &["clause", "operator", "est_rows", "rows", "batches", "time_us"]
    );
    let scanned: i64 = profiled
        .table
        .rows()
        .iter()
        .filter_map(|r| {
            let op = r.get(1).as_str()?;
            op.contains("Scan").then(|| match r.get(3) {
                Value::Integer(n) => *n,
                _ => 0,
            })
        })
        .sum();
    assert!(
        scanned >= ROWS as i64,
        "PROFILE's scan operators must report the {ROWS} seeded rows \
         (saw {scanned})"
    );
    let page = client.metrics().expect("Metrics request");
    let mut samples = 0usize;
    for line in page.text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unsplittable sample line: {line:?}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        samples += 1;
    }
    eprintln!(
        "e26: metrics page — {samples} samples, uptime {}ms, version {}",
        page.uptime_ms, page.version
    );
    assert!(
        samples >= 30,
        "the page must expose every layer's instruments"
    );
    client.goodbye().expect("goodbye");
    server.shutdown();

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
