//! Experiment E28: what incremental view maintenance buys a standing
//! aggregate under point-update churn.
//!
//! The substrate is a flat `:Item {u, g, x}` table (100k rows by
//! default; override with `CYPHER_E28_ROWS`) with a hot grouped
//! aggregate registered as a maintained view:
//!
//! ```text
//! MATCH (n:Item) RETURN n.g AS g, count(*) AS c, sum(n.x) AS s
//! ```
//!
//! A churn loop seeks one row by its unique `u` and bumps `x` — a
//! one-changed-node commit. Three claims, all asserted:
//!
//! * **read-after-commit** — fetching the maintained table after a
//!   commit must be ≥ 10× cheaper than re-running the aggregate cold
//!   (the view is a published `Arc` table, not a 100k-row scan);
//! * **O(changed rows) folds** — the per-commit delta fold (measured by
//!   the `cypher_view_refresh_us` histogram the maintenance hook feeds)
//!   must stay flat as the base grows 4×: the fold is anchored on the
//!   changed entities, never the base table;
//! * **exactness** — after the whole churn run, the maintained table is
//!   bag-equal to cold re-evaluation (the differential harness checks
//!   this exhaustively; here it guards the numbers being measured).
//!
//! Headline numbers land in `BENCH_e28.json` via `CYPHER_BENCH_JSON`.

use criterion::{criterion_group, criterion_main, Criterion};
use cypher::{Database, EngineConfig, Params, Value};
use std::time::Instant;

#[global_allocator]
static ALLOC: cypher_bench::CountingAlloc = cypher_bench::CountingAlloc;

const HOT: &str = "MATCH (n:Item) RETURN n.g AS g, count(*) AS c, sum(n.x) AS s";
const POINT_UPDATE: &str = "MATCH (n:Item {u: $u}) SET n.x = n.x + 1";

fn rows() -> usize {
    cypher::workload::harness_knob("CYPHER_E28_ROWS", 100_000, 4096) as usize
}

/// An in-memory database seeded with `n` items and the hot view.
fn open_db(n: usize) -> Database {
    let mut cfg = EngineConfig::default();
    cfg.persistence = None;
    cfg.metrics_enabled = true;
    let db = Database::open_with(cfg).expect("open bench db");
    let mut session = db.session();
    let params = Params::new();
    let mut k = 0usize;
    while k < n {
        let batch = (n - k).min(20_000);
        session
            .query(
                &format!(
                    "UNWIND range({k}, {}) AS i \
                     CREATE (:Item {{u: i, g: i % 64, x: i}})",
                    k + batch - 1
                ),
                &params,
            )
            .expect("seed");
        k += batch;
    }
    db.create_view("hot", HOT).expect("create view");
    let explain = db.explain_view("hot").expect("explain view");
    assert!(
        explain.contains("grouped-aggregate fold"),
        "the hot aggregate must be delta-maintained, not recomputed:\n{explain}"
    );
    db
}

/// Runs `commits` one-row point updates and returns the average
/// per-commit view-refresh cost in µs (from the maintenance histogram).
fn churn(db: &Database, commits: usize, seed: u64, n: usize) -> f64 {
    let mut session = db.session();
    let before = db.metrics().view_refresh_us.snapshot();
    let mut state = seed;
    for _ in 0..commits {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut p = Params::new();
        p.insert(
            "u".to_string(),
            Value::int(((state >> 33) % n as u64) as i64),
        );
        session.query(POINT_UPDATE, &p).expect("point update");
    }
    let after = db.metrics().view_refresh_us.snapshot();
    let folds = after.count - before.count;
    assert!(
        folds >= commits as u64,
        "every commit must fold the view ({folds} refreshes for {commits} commits)"
    );
    (after.sum - before.sum) as f64 / folds as f64
}

/// Median-of-5 wall time of `f`, in seconds.
fn time_once(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

fn bench(c: &mut Criterion) {
    let n = rows();
    let db = open_db(n);
    let params = Params::new();
    let mut report = cypher_bench::BenchReport::new("e28");

    // Warm churn so the read-after-commit measurement sees a view that
    // has actually been folded, not the creation-time materialization.
    let fold_us = churn(&db, 200, 0x5EED, n);

    // --- read-after-commit vs cold re-evaluation ------------------------
    let mut session = db.session();
    let t_view = time_once(|| {
        std::hint::black_box(session.view("hot").expect("view read"));
    });
    let t_cold = time_once(|| {
        std::hint::black_box(session.query(HOT, &params).expect("cold query"));
    });
    let speedup = t_cold / t_view;
    println!(
        "e28: {n} rows — maintained read {:.1} µs, cold re-run {:.1} µs, \
         speedup {speedup:.0}x, avg delta fold {fold_us:.1} µs",
        t_view * 1e6,
        t_cold * 1e6,
    );
    assert!(
        speedup >= 10.0,
        "reading the maintained view must beat re-running the aggregate \
         ≥ 10x (got {speedup:.1}x)"
    );

    // --- exactness guard: the numbers above measured a correct view -----
    let maintained = session.view("hot").unwrap();
    let cold = session.query(HOT, &params).unwrap();
    assert!(
        maintained.bag_eq(&cold),
        "maintained view drifted from cold re-evaluation"
    );

    // --- fold cost is O(changed rows), not O(base) ----------------------
    // The same churn against a 4×-smaller base must cost about the same
    // per commit; generous headroom (3× + 50 µs) absorbs container noise
    // while still tripping on any O(base) term.
    let small_n = n / 4;
    let small_db = open_db(small_n);
    let small_fold_us = churn(&small_db, 200, 0x5EED, small_n);
    let big_fold_us = churn(&db, 200, 0xF00D, n);
    println!(
        "e28: avg delta fold — base {small_n}: {small_fold_us:.1} µs, \
         base {n}: {big_fold_us:.1} µs"
    );
    assert!(
        big_fold_us <= small_fold_us * 3.0 + 50.0,
        "delta fold cost scales with the base ({small_fold_us:.1} µs at \
         {small_n} rows vs {big_fold_us:.1} µs at {n} rows)"
    );

    report.metric("rows", n as f64);
    report.metric("maintained_read_us", t_view * 1e6);
    report.metric("cold_query_us", t_cold * 1e6);
    report.metric("read_speedup", speedup);
    report.metric("fold_us_small_base", small_fold_us);
    report.metric("fold_us_full_base", big_fold_us);
    report.emit();

    // --- criterion series -----------------------------------------------
    let mut group = c.benchmark_group("e28_views");
    group.bench_function("maintained_read", |b| {
        b.iter(|| session.view("hot").unwrap())
    });
    group.bench_function("cold_query", |b| {
        b.iter(|| session.query(HOT, &params).unwrap())
    });
    group.bench_function("point_update_with_view", |b| {
        let mut writer = db.session();
        let mut i = 0i64;
        b.iter(|| {
            let mut p = Params::new();
            p.insert("u".to_string(), Value::int(i % n as i64));
            i += 1;
            writer.query(POINT_UPDATE, &p).unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
