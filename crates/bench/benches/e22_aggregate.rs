//! Experiment E22: what partial-aggregation and top-k pushdown buy on
//! analytic (grouping / deduplicating / ordered) queries, plus a hot-query
//! micro for the `Database` plan cache.
//!
//! A graph of `R` nodes (1M by default; override with `CYPHER_E22_ROWS`)
//! carries three integer properties: `v` (8 distinct values — the
//! *few-groups* regime), `m` (rows/64 distinct values — *many groups*)
//! and the unique `u`. Series:
//!
//! * `group_few` / `group_many` — `RETURN key, count(*), sum(u)` group-bys
//!   under {merged-table baseline, sequential fused fold, N-thread
//!   partial aggregation};
//! * `distinct` — `RETURN DISTINCT v`;
//! * `topk` — `ORDER BY u DESC LIMIT 10` under full-sort baseline vs
//!   bounded per-worker heaps;
//! * `plan_cache` — the same hot group-by through `cypher::Database` with
//!   the parse+plan cache on vs off.
//!
//! Tripwires (assert, not just print):
//!
//! * every configuration returns the identical row *sequence*;
//! * with pushdown on, **peak intermediate materialization no longer
//!   scales with the pre-aggregation row count** — the peak live-byte
//!   growth of the fused group-by must stay a small fraction of the
//!   merged-table baseline's (which materializes all rows);
//! * on ≥ 4-core hardware, 4-thread partial aggregation beats the
//!   merged-table baseline by ≥ 1.3× wall-clock (same gate as E20; the
//!   1-CPU CI container still runs every correctness and memory check).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{
    run_read_with, Database, EngineConfig, Params, PartialAggMode, PropertyGraph, Table, Value,
};
use std::time::Instant;

#[global_allocator]
static ALLOC: cypher_bench::CountingAlloc = cypher_bench::CountingAlloc;

fn rows() -> usize {
    cypher::workload::harness_knob("CYPHER_E22_ROWS", 1_000_000, 1024) as usize
}

const GROUP_FEW: &str = "MATCH (n:R) RETURN n.v AS g, count(*) AS c, sum(n.u) AS s";
const GROUP_MANY: &str = "MATCH (n:R) RETURN n.m AS g, count(*) AS c, sum(n.u) AS s";
const DISTINCT: &str = "MATCH (n:R) RETURN DISTINCT n.v AS d";
const TOPK: &str = "MATCH (n:R) RETURN n.u AS k ORDER BY k DESC LIMIT 10";

fn build_graph(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..n {
        g.add_node(
            &["R"],
            [
                ("v", Value::int((i % 8) as i64)),
                ("m", Value::int((i % (n / 64).max(2)) as i64)),
                ("u", Value::int(i as i64)),
            ],
        );
    }
    g
}

/// Baseline: pushdown off — the match output is materialized into one
/// merged table and projected single-threaded.
fn baseline(threads: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_morsel_size(1024)
        .with_partial_agg(PartialAggMode::Off)
}

/// Pushdown on (auto gate).
fn fused(threads: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_morsel_size(1024)
        .with_partial_agg(PartialAggMode::Auto)
}

fn run(g: &PropertyGraph, q: &str, params: &Params, c: &EngineConfig) -> Table {
    run_read_with(g, q, params, c).unwrap()
}

/// Median-of-5 wall time of one run.
fn time_once(g: &PropertyGraph, q: &str, params: &Params, c: &EngineConfig) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            criterion::black_box(run(g, q, params, c));
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

fn bench(c: &mut Criterion) {
    let n = rows();
    let g = build_graph(n);
    let params = Params::new();
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let par = cores.clamp(2, 8);

    // --- Ordered-equality sanity: every configuration, every query. ---
    for q in [GROUP_FEW, GROUP_MANY, DISTINCT, TOPK] {
        let base = run(&g, q, &params, &baseline(1));
        for cfg in [
            fused(1),
            fused(par),
            fused(par).with_morsel_size(4096),
            fused(2).with_partial_agg(PartialAggMode::Force),
            baseline(par),
        ] {
            let out = run(&g, q, &params, &cfg);
            assert!(
                out.ordered_eq(&base),
                "{q} drifted under threads={} morsel={} {:?}",
                cfg.num_threads,
                cfg.morsel_size,
                cfg.partial_agg
            );
        }
    }

    // --- Memory tripwire: peak materialization must not scale with the
    //     pre-aggregation row count once the fold is pushed down. ---
    //
    // A scan's item list is materialized per source (a PR-2 design both
    // paths share), so it scales with the *node* count either way. To
    // isolate the pre-aggregation *row* count, a 4-row driving table
    // multiplies the same scan 4× (`MATCH (k:K) MATCH (n:R) …`): the
    // merged-table baseline materializes 4× the rows, while the fused
    // fold's peak must stay where the 1× query's peak is — constant in
    // the rows entering the aggregation.
    let mem_n = n.min(250_000);
    let mut mem_g = build_graph(mem_n);
    for i in 0..4 {
        mem_g.add_node(&["K"], [("i", Value::int(i))]);
    }
    let group_x4 = "MATCH (k:K) MATCH (n:R) RETURN n.v AS g, count(*) AS c, sum(n.u) AS s";
    let peak_of = |q: &str, cfg: &EngineConfig| {
        let (t, peak) =
            cypher_bench::peak_during(|| criterion::black_box(run(&mem_g, q, &params, cfg)));
        drop(t);
        peak
    };
    let base_x1 = peak_of(GROUP_FEW, &baseline(1));
    let base_x4 = peak_of(group_x4, &baseline(1));
    let fused_x1 = peak_of(GROUP_FEW, &fused(1));
    let fused_x4 = peak_of(group_x4, &fused(1));
    let fused_x4_par = peak_of(group_x4, &fused(par));
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "e22: group-by peak live-byte growth ({mem_n} nodes) — merged-table 1×: {:.1} MiB, \
         4×: {:.1} MiB; fused 1×: {:.1} MiB, 4×: {:.1} MiB, 4× {par}-thread: {:.1} MiB",
        mib(base_x1),
        mib(base_x4),
        mib(fused_x1),
        mib(fused_x4),
        mib(fused_x4_par),
    );
    if mem_n >= 100_000 {
        assert!(
            base_x4 > base_x1 * 2,
            "baseline no longer scales with pre-aggregation rows — tripwire is measuring nothing \
             ({base_x1} vs {base_x4})"
        );
        assert!(
            fused_x4 < fused_x1 * 3 / 2,
            "fused group-by peak scales with pre-aggregation rows: {fused_x1} → {fused_x4}"
        );
        assert!(
            fused_x4 * 3 < base_x4,
            "fused group-by materializes too much: {fused_x4} vs merged-table {base_x4}"
        );
        assert!(
            fused_x4_par * 2 < base_x4,
            "parallel fused group-by materializes too much: {fused_x4_par} vs {base_x4}"
        );
    }
    // Top-k keeps a bounded per-worker heap instead of decorating and
    // sorting every row.
    let topk_x4 = "MATCH (k:K) MATCH (n:R) RETURN n.u AS u ORDER BY u DESC LIMIT 10";
    let topk_base = peak_of(topk_x4, &baseline(1));
    let topk_fused = peak_of(topk_x4, &fused(1));
    println!(
        "e22: top-k peak live-byte growth ({mem_n} nodes × 4) — full sort: {:.1} MiB, \
         bounded heap: {:.1} MiB",
        mib(topk_base),
        mib(topk_fused),
    );
    if mem_n >= 100_000 {
        assert!(
            topk_fused * 2 < topk_base,
            "top-k pushdown materializes too much: {topk_fused} vs full sort {topk_base}"
        );
    }

    // --- Speedup summary (assertion gated on ≥ 4 cores, like E20). ---
    let t_base = time_once(&g, GROUP_FEW, &params, &baseline(par));
    let t_seq = time_once(&g, GROUP_FEW, &params, &fused(1));
    let t_par = time_once(&g, GROUP_FEW, &params, &fused(par));
    println!(
        "e22: group-by {n} rows — merged-table({par}t): {:.1} ms, fused(1t): {:.1} ms, \
         fused({par}t): {:.1} ms, speedup vs baseline {:.2}x ({cores} hardware threads)",
        t_base * 1e3,
        t_seq * 1e3,
        t_par * 1e3,
        t_base / t_par,
    );
    if cores >= 4 {
        assert!(
            t_base / t_par >= 1.3,
            "expected ≥1.3x over the merged-table baseline at {par} threads \
             on {cores}-core hardware, got {:.2}x",
            t_base / t_par
        );
    }

    // --- Plan-cache hot-query micro: cached vs uncached QPS. ---
    let mut small = PropertyGraph::new();
    for i in 0..512 {
        small.add_node(&["R"], [("v", Value::int((i % 8) as i64))]);
    }
    let hot = "MATCH (n:R {v: 3}) RETURN count(*) AS c";
    let qps = |cache: usize| {
        let mut cfg = EngineConfig::default();
        cfg.persistence = None;
        cfg.plan_cache_size = cache;
        let mut db = Database::open_with(cfg).unwrap();
        // Seed the graph through the facade so both runs are identical.
        let p = Params::new();
        for i in 0..512 {
            let mut ip = Params::new();
            ip.insert("v".into(), Value::int((i % 8) as i64));
            db.query("CREATE (:R {v: $v})", &ip).unwrap();
        }
        let t = Instant::now();
        let iters = 2_000;
        for _ in 0..iters {
            criterion::black_box(db.query(hot, &p).unwrap());
        }
        let qps = iters as f64 / t.elapsed().as_secs_f64();
        (qps, db.plan_cache_stats())
    };
    let (qps_on, stats_on) = qps(128);
    let (qps_off, stats_off) = qps(0);
    println!(
        "e22: plan cache hot query — cached: {qps_on:.0} q/s ({} hits), \
         uncached: {qps_off:.0} q/s ({} hits), speedup {:.2}x",
        stats_on.hits,
        stats_off.hits,
        qps_on / qps_off
    );
    assert!(stats_on.hits >= 1_999, "hot query did not hit the cache");
    assert_eq!(stats_off.hits, 0);

    let mut report = cypher_bench::BenchReport::new("e22");
    report.metric("group_few_merged_par_us", t_base * 1e6);
    report.metric("group_few_fused_1t_us", t_seq * 1e6);
    report.metric("group_few_fused_par_us", t_par * 1e6);
    report.metric("group_few_speedup", t_base / t_par);
    report.metric("fused_x4_peak_bytes", fused_x4 as f64);
    report.metric("baseline_x4_peak_bytes", base_x4 as f64);
    report.metric("plan_cache_on_qps", qps_on);
    report.metric("plan_cache_off_qps", qps_off);
    report.emit();

    // --- Criterion series. ---
    let mut group = c.benchmark_group("e22_aggregate");
    for (name, q) in [
        ("group_few", GROUP_FEW),
        ("group_many", GROUP_MANY),
        ("distinct", DISTINCT),
        ("topk", TOPK),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "merged_1t"), &g, |b, g| {
            b.iter(|| run(g, q, &params, &baseline(1)))
        });
        group.bench_with_input(BenchmarkId::new(name, "fused_1t"), &g, |b, g| {
            b.iter(|| run(g, q, &params, &fused(1)))
        });
        group.bench_with_input(
            BenchmarkId::new(name, format!("fused_{par}t")),
            &g,
            |b, g| b.iter(|| run(g, q, &params, &fused(par))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
