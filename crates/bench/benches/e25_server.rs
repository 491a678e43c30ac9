//! Experiment E25: saturating the TCP front-end.
//!
//! Point-read throughput and latency over **real sockets**: N client
//! connections, each preparing `MATCH (n:Load {k: $k}) RETURN n.v` once
//! and executing it with fresh parameter bindings, against one server
//! fronting an in-memory database. Swept across connection counts, the
//! sweep reports qps, p50 and p99 per cell, plus a prepared-vs-plain
//! comparison cell (what `PREPARE`/`EXECUTE` saves over re-sending the
//! text each time).
//!
//! The headline assertion: at the best connection count the server
//! sustains **≥ 2,000 point reads/second** end to end — frames, CRC,
//! parse-free prepared execution, snapshot read, row encoding — and the
//! shared plan cache planned the statement a bounded number of times,
//! no matter how many connections executed it.
//!
//! Derived `e25:` lines feed the README performance table. Operation
//! count per cell is tunable via `CYPHER_E25_OPS` (default 2000).

use criterion::{criterion_group, criterion_main, Criterion};
use cypher::{Database, EngineConfig, Params, Value};
use cypher_client::Client;
use cypher_server::{Server, ServerConfig};
use std::time::Instant;

const ROWS: usize = 1000;

fn ops_per_conn() -> usize {
    cypher::workload::harness_knob("CYPHER_E25_OPS", 2000, 1) as usize
}

fn start_server() -> Server {
    let mut cfg = EngineConfig::default();
    cfg.persistence = None;
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
    Server::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("bind")
}

struct Cell {
    qps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Drives `conns` connections × `ops` prepared point reads each and
/// returns throughput and latency percentiles (verifying every answer).
fn saturate(server: &Server, conns: usize, ops: usize, prepared: bool) -> Cell {
    let addr = server.local_addr();
    let t = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let text = "MATCH (n:Load {k: $k}) RETURN n.v AS v";
                    let stmt = prepared.then(|| client.prepare(text).expect("prepare"));
                    let mut lat = Vec::with_capacity(ops);
                    let mut state = 0x5EED ^ (c as u64).wrapping_mul(0xA5A5);
                    for _ in 0..ops {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = ((state >> 33) % ROWS as u64) as i64;
                        let mut p = Params::new();
                        p.insert("k".to_string(), Value::int(k));
                        let op = Instant::now();
                        let rows = match stmt {
                            Some(id) => client.execute(id, &p),
                            None => client.query(text, &p),
                        }
                        .expect("point read");
                        lat.push(op.elapsed().as_nanos() as u64);
                        assert_eq!(
                            rows.table.cell(0, "v"),
                            Some(&Value::int(k * k)),
                            "wrong answer for k={k}"
                        );
                    }
                    client.goodbye().expect("goodbye");
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[(((latencies.len() - 1) as f64) * p) as usize] / 1_000;
    Cell {
        qps: latencies.len() as f64 / secs,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e25_server");

    // Criterion series: one contended prepared-execution cell.
    {
        let server = start_server();
        group.bench_function("prepared_point_reads/4conns", |b| {
            b.iter(|| std::hint::black_box(saturate(&server, 4, 50, true).qps))
        });
        server.shutdown();
    }

    // Derived sweep for the README table: connections × {prepared,plain}.
    let ops = ops_per_conn();
    let server = start_server();
    let mut report = cypher_bench::BenchReport::new("e25");
    let mut best_qps = 0.0f64;
    for conns in [1usize, 2, 4, 8] {
        for prepared in [true, false] {
            let cell = saturate(&server, conns, ops, prepared);
            eprintln!(
                "e25: {conns} conns, {} — {:.0} qps, p50 {}µs, p99 {}µs",
                if prepared { "prepared" } else { "plain   " },
                cell.qps,
                cell.p50_us,
                cell.p99_us,
            );
            let mode = if prepared { "prepared" } else { "plain" };
            report.metric(&format!("{mode}_{conns}conns_qps"), cell.qps);
            report.metric(&format!("{mode}_{conns}conns_p99_us"), cell.p99_us as f64);
            if prepared {
                best_qps = best_qps.max(cell.qps);
            }
        }
    }
    report.metric("best_prepared_qps", best_qps);
    report.emit();
    let stats = server.stats();
    eprintln!(
        "e25: plan cache after the sweep — {} hits, {} misses ({} requests total)",
        stats.plan_hits, stats.plan_misses, stats.requests
    );
    assert!(
        best_qps >= 2_000.0,
        "the TCP front-end must sustain ≥ 2k point reads/s at its best \
         connection count (got {best_qps:.0})"
    );
    // One statement text across every connection: the sweep's point
    // reads plan O(1) times, not O(connections × ops).
    assert!(
        stats.plan_hits > stats.plan_misses,
        "prepared executions must ride the shared plan cache \
         ({} hits vs {} misses)",
        stats.plan_hits,
        stats.plan_misses
    );
    server.shutdown();

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
