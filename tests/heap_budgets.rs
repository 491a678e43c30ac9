//! Heap budgets of the hot read paths, counted exactly.
//!
//! A counting allocator installed for this binary only measures, on every
//! thread, how many allocations a query makes and how far live heap bytes
//! rise above where they started. Those two numbers are the tripwires for
//! regressions that change no result and hide in timing noise:
//!
//! * **allocations per scanned row** — a point seek on the composite
//!   index stays far below the node count, and a label scan, a scan with
//!   a filter and a scan driven by a bound row each stay within a small
//!   per-row budget (the driven scan catches clone-then-grow emission);
//! * **peak materialisation** — a pushed-down group-by and top-k keep a
//!   peak that does not grow with the pre-aggregation row count, while
//!   the merged-table baseline does;
//! * **streaming intersection** — a triangle count through the multiway
//!   intersection join materialises no intermediate;
//! * **streamed clause chains** — `MATCH`, plain `WITH`, `WHERE` and
//!   `UNWIND` run as one segment, so a chain peaks where its one-clause
//!   twin does and an unwound list never becomes a table;
//! * **streamed writes** — an updating clause applies each batch as it
//!   arrives, so a bulk `CREATE` peaks where the same rows in ten
//!   statements do.
//!
//! Results are checked elsewhere (`index_differential`,
//! `parallel_differential`, `cyclic_join`); here only enough to know the
//! measured runs did the work. Every configuration is pinned, so the
//! numbers do not move with the CI matrix's environment.

use cypher::workload::powerlaw_social;
use cypher::{run_read_with, EngineConfig, MatchConfig, Params, PropertyGraph, Table, Value};
use cypher_tck::diff::{config, Policy, Policy::*};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Counts allocations and tracks live and peak bytes, but only while
/// [`heap_of`] has the gate open; otherwise an allocation costs one
/// relaxed load.
struct GatedCountingAlloc;

impl GatedCountingAlloc {
    fn note(allocations: u64, grown: i64) {
        // Relaxed: statistics; they publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(grown, Ordering::Relaxed) + grown;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side-effect-free
// atomic arithmetic that never allocates.
unsafe impl GlobalAlloc for GatedCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: GatedCountingAlloc = GatedCountingAlloc;

/// The counters are global and libtest runs tests on parallel threads:
/// each test holds this lock for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// What one call did to the heap, on this and every other thread.
struct Heap {
    /// Allocations and reallocations.
    allocations: u64,
    /// Peak growth of live bytes above the level at the start.
    peak_bytes: u64,
}

fn heap_of<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let heap = Heap {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed) as u64,
    };
    (out, heap)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The `cypher_tck::diff` cell `(policy, threads, 1024)`.
fn cfg(policy: Policy, threads: usize) -> EngineConfig {
    config((policy, threads, 1024), MatchConfig::default())
}

fn run(g: &PropertyGraph, q: &str, c: &EngineConfig) -> Table {
    run_read_with(g, q, &Params::new(), c).unwrap()
}

const NODES: usize = 100_000;

/// `n` accounts with a unique `serial` and a 16-way `shard`.
fn accounts(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..n {
        g.add_node(
            &["Account"],
            [
                ("serial", Value::int(i as i64)),
                ("shard", Value::int((i % 16) as i64)),
            ],
        );
    }
    g
}

/// Scan sources clone the driving record once per emitted row, with room
/// for the new binding (`Record::cloned_with_extra`), and share one
/// scanned item list across operators. Clone-then-grow would cost two
/// allocations per row on a non-empty driving record: the driven scan's
/// 1.5 per row sits between the two regimes.
#[test]
fn seeks_and_scans_stay_within_their_allocation_budgets() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = accounts(NODES);
    let label_only = EngineConfig {
        use_property_index: false,
        ..cfg(Builtin, 1)
    };
    let per_row = |allocations: u64| allocations as f64 / NODES as f64;

    let point = "MATCH (n:Account {serial: 31337}) RETURN n.shard";
    let (out, seek) = heap_of(|| run(&g, point, &cfg(Builtin, 1)));
    assert_eq!(out.len(), 1);
    let (out, label_scan) = heap_of(|| run(&g, point, &label_only));
    assert_eq!(out.len(), 1);
    let filtered = "MATCH (n:Account) WHERE n.serial = 99999 RETURN n.shard";
    let (out, scan) = heap_of(|| run(&g, filtered, &cfg(Builtin, 1)));
    assert_eq!(out.len(), 1);
    // One thread scans in `ItemScan`, four cut the scan into `MorselScan`s
    // (the `DISTINCT` ends the seek's segment, so the scan anchors the
    // next one and the worker pool engages).
    let driven = "MATCH (a:Account {serial: 0}) WITH DISTINCT a MATCH (n:Account) \
                  WHERE n.serial = a.serial + 99999 RETURN n.shard";
    let driven_scans = [1, 4].map(|threads| {
        let (out, heap) = heap_of(|| run(&g, driven, &cfg(Builtin, threads)));
        assert_eq!(out.len(), 1);
        (threads, heap)
    });
    println!(
        "allocations: seek {}, label scan {:.2}/row, scan+filter {:.2}/row, \
         driven scan {:.2}/row on 1 thread and {:.2}/row on 4 ({NODES} rows)",
        seek.allocations,
        per_row(label_scan.allocations),
        per_row(scan.allocations),
        per_row(driven_scans[0].1.allocations),
        per_row(driven_scans[1].1.allocations),
    );

    assert!(
        seek.allocations < 2_000,
        "point seek allocation budget blown: {}",
        seek.allocations
    );
    for (name, heap) in [("label scan", &label_scan), ("scan+filter", &scan)] {
        assert!(
            per_row(heap.allocations) < 3.0,
            "{name} allocation budget blown: {} for {NODES} rows",
            heap.allocations
        );
    }
    for (threads, heap) in &driven_scans {
        assert!(
            per_row(heap.allocations) < 1.5,
            "driven-scan allocation budget blown on {threads} thread(s): {} \
             for {NODES} rows (clone-then-grow is back?)",
            heap.allocations
        );
    }
}

/// A function call evaluates up to three arguments into a stack array,
/// and a string literal evaluates to a clone of its one `Arc<str>`, so
/// neither allocates per row: each column costs no more per row than a
/// second property read.
#[test]
fn function_calls_and_string_literals_allocate_like_a_property_read() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = accounts(NODES);
    let allocations = |q: &str| {
        let (out, heap) = heap_of(|| run(&g, q, &cfg(Builtin, 1)));
        assert_eq!(out.len(), NODES, "{q}");
        heap.allocations
    };
    let read = allocations("MATCH (n:Account) RETURN n.serial, n.shard");
    let call = allocations("MATCH (n:Account) RETURN n.serial, id(n)");
    let literal = allocations("MATCH (n:Account) RETURN n.serial, 'x' AS t");
    let per_row = |a: u64| a as f64 / NODES as f64;
    println!(
        "allocations per row: property {:.3}, id(n) {:.3}, string literal {:.3}",
        per_row(read),
        per_row(call),
        per_row(literal)
    );
    // Parsing and planning a different text may differ by a few
    // allocations per query; a per-row allocation adds one per row.
    let extra = |a: u64| per_row(a.saturating_sub(read));
    assert!(
        extra(call) < 0.01,
        "a function call allocates per row: {call} vs {read} (an argument vector is back?)"
    );
    assert!(
        extra(literal) < 0.01,
        "a string literal allocates per row: {literal} vs {read} (a per-row string copy is back?)"
    );
}

/// `NODES` `:R` nodes with an 8-way `v` and a unique `u`, plus four `:K`
/// nodes.
fn grouping_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..NODES {
        g.add_node(
            &["R"],
            [
                ("v", Value::int((i % 8) as i64)),
                ("u", Value::int(i as i64)),
            ],
        );
    }
    for i in 0..4 {
        g.add_node(&["K"], [("i", Value::int(i))]);
    }
    g
}

/// A grouped fold allocates nothing per row that joins an existing group:
/// the key is probed from a reused buffer and, like the representative
/// row, copied only into a new group. The scan pushes its ids into one
/// column per batch and the keys and arguments are evaluated a column per
/// batch, so what is left is a few allocations per batch, not per row (a
/// plain projection adds its output record per row).
#[test]
fn grouped_folds_allocate_only_the_scanned_row() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = grouping_graph();
    let per_row = |q: &str| {
        let (out, heap) = heap_of(|| run(&g, q, &cfg(Builtin, 1)));
        assert!(!out.is_empty(), "{q}");
        heap.allocations as f64 / NODES as f64
    };
    let map = per_row("MATCH (n:R) RETURN n.v AS g");
    for q in [
        "MATCH (n:R) RETURN n.v AS g, count(*) AS c, sum(n.u) AS s",
        "MATCH (n:R) RETURN n.v AS g, count(*) AS c, sum(n.u) AS s ORDER BY g",
    ] {
        let fold = per_row(q);
        println!("allocations per input row: fold {fold:.2}, plain projection {map:.2}: {q}");
        assert!(
            fold < 1.1,
            "grouped fold allocation budget blown: {fold:.2} per row \
             (a per-row key or source-row copy is back?): {q}"
        );
        assert!(
            fold < 0.05,
            "grouped fold allocates per row: {fold:.3} per row \
             (a per-row record is back?): {q}"
        );
    }
}

/// A five-hop chain of `Expand`s and label filters folds into `count(*)`
/// allocating per batch, not per row: each expand records the input row
/// of every output row and gathers the input columns by that index once
/// per batch, and each filter compacts its columns in place.
#[test]
fn chained_expands_allocate_per_batch_not_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = powerlaw_social(300, 4, 1);
    let q = "MATCH (p:Person)-[:FOLLOWS]->(:Person)-[:FOLLOWS]->(:Person)-[:FOLLOWS]->(:Person)\
             -[:FOLLOWS]->(:Person)-[:FOLLOWS]->(f:Person) RETURN count(*) AS c";
    let (out, heap) = heap_of(|| run(&g, q, &cfg(Builtin, 1)));
    let rows = out.cell(0, "c").and_then(Value::as_int).unwrap();
    let per_row = heap.allocations as f64 / rows as f64;
    println!(
        "five-hop chain: {rows} rows, {} allocations, {per_row:.4} per output row",
        heap.allocations
    );
    assert!(rows > 100_000, "the substrate is too small: {rows} paths");
    assert!(
        per_row < 0.05,
        "chained expands allocate per row: {per_row:.3} per output row \
         (a per-row record is back?)"
    );
}

/// With the final projection pushed into the pipeline, a group-by's peak
/// scales with its groups and a top-k's with `k`, never with the rows
/// entering them. A four-row driving table multiplies the same scan
/// fourfold to separate the row count from the node count.
#[test]
fn pushed_down_folds_keep_their_peak_flat_in_the_input_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = grouping_graph();
    let baseline = cfg(NoPartialAgg, 1);
    let peak = |q: &str, c: &EngineConfig| heap_of(|| run(&g, q, c)).1.peak_bytes;

    let group_x1 = "MATCH (n:R) RETURN n.v AS g, count(*) AS c, sum(n.u) AS s";
    // The `DISTINCT` ends the first segment, so four threads cut the
    // second scan into morsels.
    let group_x4 = "MATCH (k:K) WITH DISTINCT k MATCH (n:R) \
                    RETURN n.v AS g, count(*) AS c, sum(n.u) AS s";
    let base_x1 = peak(group_x1, &baseline);
    let base_x4 = peak(group_x4, &baseline);
    let fused_x1 = peak(group_x1, &cfg(Builtin, 1));
    let fused_x4 = peak(group_x4, &cfg(Builtin, 1));
    let fused_x4_par = peak(group_x4, &cfg(Builtin, 4));
    println!(
        "group-by peak ({NODES} nodes): merged-table 1x {:.1} MiB, 4x {:.1} MiB; \
         fused 1x {:.1} MiB, 4x {:.1} MiB, 4x on 4 threads {:.1} MiB",
        mib(base_x1),
        mib(base_x4),
        mib(fused_x1),
        mib(fused_x4),
        mib(fused_x4_par),
    );
    assert!(
        base_x4 > base_x1 * 2,
        "the baseline no longer scales with the input rows, so this test \
         measures nothing ({base_x1} vs {base_x4})"
    );
    assert!(
        fused_x4 < fused_x1 * 3 / 2,
        "fused group-by peak scales with the input rows: {fused_x1} -> {fused_x4}"
    );
    assert!(
        fused_x4 * 3 < base_x4,
        "fused group-by materialises too much: {fused_x4} vs merged-table {base_x4}"
    );
    assert!(
        fused_x4_par * 2 < base_x4,
        "parallel fused group-by materialises too much: {fused_x4_par} vs {base_x4}"
    );

    let topk_x4 = "MATCH (k:K) MATCH (n:R) RETURN n.u AS u ORDER BY u DESC LIMIT 10";
    let topk_base = peak(topk_x4, &baseline);
    let topk_fused = peak(topk_x4, &cfg(Builtin, 1));
    println!(
        "top-k peak ({NODES} nodes x 4): full sort {:.1} MiB, bounded heap {:.1} MiB",
        mib(topk_base),
        mib(topk_fused),
    );
    assert!(
        topk_fused * 2 < topk_base,
        "top-k pushdown materialises too much: {topk_fused} vs full sort {topk_base}"
    );
}

/// The intersection operator streams batches over the nodes' own sorted
/// neighbour lists: nothing is built or cached per graph, so every run
/// of a full triangle count, the first included, grows the heap by a
/// fixed budget at most: 1 MiB, less than a sorted copy of this graph's
/// adjacency (two 16-byte entries per relationship, 1.2 MiB) would take.
#[test]
fn intersection_join_streams_a_triangle_count() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = powerlaw_social(5_000, 8, 27);
    let triangles = "MATCH (a)-[:FOLLOWS]->(b)-[:FOLLOWS]->(c), (a)-[:FOLLOWS]->(c) \
                     RETURN count(*) AS n";
    let force = cfg(WcoForce, 1);
    let (first, heap_first) = heap_of(|| run(&g, triangles, &force));
    let (again, heap) = heap_of(|| run(&g, triangles, &force));
    assert!(again.ordered_eq(&first));
    let count = again.cell(0, "n").and_then(|v| v.as_int()).unwrap();
    assert!(count > 0, "the substrate closed no triangles");
    for (which, heap) in [("first", heap_first), ("second", heap)] {
        println!(
            "{which} run: {count} triangles over {} rels grew the heap by {:.2} MiB at peak",
            g.rel_count(),
            mib(heap.peak_bytes)
        );
        assert!(
            heap.peak_bytes < 1 << 20,
            "{which} intersection join materialised an intermediate: peak {} bytes",
            heap.peak_bytes
        );
    }
}

/// A chain of `MATCH`, plain `WITH`, `WHERE` and `UNWIND` clauses runs as
/// one segment of the morsel driver, so no table is built between its
/// clauses: its peak matches its one-clause twin's, and an unwound list
/// (a parameter, allocated before the measurement) never becomes a
/// table. Exact numbers are asserted at one thread; four threads are
/// printed.
#[test]
fn streamed_chains_keep_the_peak_of_their_one_clause_twins() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let measure = |g: &PropertyGraph, q: &str, params: &Params, threads: usize| {
        let (out, heap) = heap_of(|| run_read_with(g, q, params, &cfg(Builtin, threads)).unwrap());
        let count = out.cell(0, "c").and_then(Value::as_int).unwrap();
        println!(
            "{threads} thread(s): {count} rows, {} allocations, peak {:.2} MiB: {q}",
            heap.allocations,
            mib(heap.peak_bytes)
        );
        (count, heap.peak_bytes)
    };
    let no_params = Params::new();

    let unwind = "UNWIND $xs AS x WITH x WHERE x % 2 = 0 RETURN count(*) AS c";
    let empty = PropertyGraph::new();
    let [small, large] = [20_000i64, 200_000].map(|n| {
        let mut params = Params::new();
        params.insert("xs".into(), Value::List((0..n).map(Value::int).collect()));
        measure(&empty, unwind, &params, 4);
        let (count, peak) = measure(&empty, unwind, &params, 1);
        assert_eq!(count, n / 2);
        peak
    });
    assert!(
        large * 4 <= small * 5,
        "an unwound list is materialised: peak {small} -> {large} bytes"
    );

    let g = accounts(2 * NODES);
    let chain = "MATCH (a:Account) WITH a WHERE a.shard = 3 RETURN count(*) AS c";
    let twin = "MATCH (a:Account) WHERE a.shard = 3 RETURN count(*) AS c";
    let g_chain = measure(&g, chain, &no_params, 1);
    let g_twin = measure(&g, twin, &no_params, 1);
    measure(&g, chain, &no_params, 4);
    assert_eq!(g_chain.0, g_twin.0);
    assert!(
        g_chain.1 * 10 <= g_twin.1 * 11,
        "WITH … WHERE materialises: peak {} vs one-clause {} bytes",
        g_chain.1,
        g_twin.1
    );
    drop(g);

    let g = powerlaw_social(80_000, 4, 1);
    let chain = "MATCH (a:Person) WITH a MATCH (a)-[:FOLLOWS]->(b) RETURN count(*) AS c";
    let twin = "MATCH (a:Person)-[:FOLLOWS]->(b) RETURN count(*) AS c";
    let g_chain = measure(&g, chain, &no_params, 1);
    let g_twin = measure(&g, twin, &no_params, 1);
    measure(&g, chain, &no_params, 4);
    assert_eq!(g_chain.0, g_twin.0);
    assert!(g_chain.0 > 0, "the substrate has no follows");
    assert!(
        g_chain.1 * 10 <= g_twin.1 * 11,
        "WITH between MATCHes materialises: peak {} vs one-MATCH {} bytes",
        g_chain.1,
        g_twin.1
    );
}

/// An updating clause applies each batch of its segment as it arrives,
/// so a bulk `CREATE` never holds its driving table: one 300 000-row
/// statement peaks where the same rows created in ten statements do.
#[test]
fn a_bulk_create_streams_into_the_graph() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const ROWS: i64 = 300_000;
    let create = |statements: i64| {
        heap_of(|| {
            let mut g = PropertyGraph::new();
            for k in 0..statements {
                let (lo, hi) = (k * ROWS / statements + 1, (k + 1) * ROWS / statements);
                let q = format!("UNWIND range({lo}, {hi}) AS i CREATE (:X {{i: i}})");
                cypher::run(&mut g, &q, &Params::new()).unwrap();
            }
            g.node_count()
        })
    };
    let (one, ten) = (create(1), create(10));
    println!(
        "{ROWS} nodes: one statement peaks at {:.1} MiB, ten at {:.1} MiB",
        mib(one.1.peak_bytes),
        mib(ten.1.peak_bytes)
    );
    assert_eq!((one.0, ten.0), (ROWS as usize, ROWS as usize));
    assert!(
        one.1.peak_bytes * 100 <= ten.1.peak_bytes * 105,
        "a bulk CREATE holds its driving table: peak {} vs {} bytes in ten statements",
        one.1.peak_bytes,
        ten.1.peak_bytes
    );
}
