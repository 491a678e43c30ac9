//! Differential testing of the **morsel-driven parallel executor**: every
//! query of a grammar-driven random workload must produce the same sorted
//! multiset of rows at `threads = 1`, at `threads = N` (several morsel
//! sizes, including the degenerate 1-row morsel), and on the reference
//! oracle — the paper's denotational semantics, which knows nothing about
//! batches or threads.
//!
//! The engine actually promises more than multiset equality: morsels are
//! merged in claim-index order, so parallel output is the *same row
//! sequence* as sequential output. Both properties are asserted.

use cypher::workload::{random_graph, QueryGenerator};
use cypher::{
    run_read_with, run_reference, run_reference_with, EngineConfig, MatchConfig, Morphism, Params,
    PartialAggMode, PropertyGraph, Record, Table, Value,
};

fn cfg(threads: usize, morsel: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_morsel_size(morsel)
}

/// Runs one query under every configuration, cross-checks the results,
/// and returns the sequential table.
fn check_query(g: &PropertyGraph, q: &str, params: &Params) -> Table {
    let cells = [(4, 8), (2, 1), (3, 1024)];
    check_query_with(g, q, params, MatchConfig::default(), &cells)
}

/// [`check_query`] under `match_config`, at the `(threads, morsel)`
/// cells given besides the sequential one.
fn check_query_with(
    g: &PropertyGraph,
    q: &str,
    params: &Params,
    match_config: MatchConfig,
    cells: &[(usize, usize)],
) -> Table {
    let at = |threads, morsel| EngineConfig {
        match_config,
        ..cfg(threads, morsel)
    };
    let seq = run_read_with(g, q, params, &at(1, 1024))
        .unwrap_or_else(|e| panic!("sequential engine failed on {q}: {e}"));
    for &(threads, morsel) in cells {
        let par = run_read_with(g, q, params, &at(threads, morsel)).unwrap_or_else(|e| {
            panic!("parallel engine (threads={threads}, morsel={morsel}) failed on {q}: {e}")
        });
        // Exact row-sequence equality — which subsumes multiset equality.
        assert!(
            par.ordered_eq(&seq),
            "parallel result drifted (threads={threads}, morsel={morsel}) on {q}\n\
             sequential:\n{seq}\nparallel:\n{par}"
        );
    }
    let oracle = run_reference_with(g, q, params, match_config)
        .unwrap_or_else(|e| panic!("reference failed on {q}: {e}"));
    assert!(
        seq.bag_eq(&oracle),
        "engine diverges from the reference oracle on {q}\nengine:\n{seq}\nreference:\n{oracle}"
    );
    seq
}

/// Sorts every list cell (collect output) by the orderability order, so
/// tables can be compared against the reference oracle, which feeds
/// aggregation in a different row order than the engine pipelines.
fn canonicalize_lists(t: &Table) -> Table {
    let mut out = Table::empty(t.schema().clone());
    for r in t.rows() {
        let vals: Vec<Value> = r
            .values()
            .iter()
            .map(|v| match v {
                Value::List(items) => {
                    let mut sorted = items.clone();
                    sorted.sort_by(|a, b| a.cmp_order(b));
                    Value::List(sorted)
                }
                other => other.clone(),
            })
            .collect();
        out.push(Record::new(vals));
    }
    out
}

/// Runs one aggregation-heavy query under the full pushdown matrix —
/// merged-table baseline (pushdown off), sequential fused fold, parallel
/// partial aggregation at several thread/morsel combinations (1-row
/// morsels take the merge path on every multi-row input) —
/// and cross-checks every result row-for-row, then checks the baseline
/// against the reference oracle.
fn check_aggregate_query(g: &PropertyGraph, q: &str, params: &Params) -> Table {
    let base_cfg = cfg(1, 1024).with_partial_agg(PartialAggMode::Off);
    let base = run_read_with(g, q, params, &base_cfg)
        .unwrap_or_else(|e| panic!("baseline engine failed on {q}: {e}"));
    let variants: [(usize, usize, PartialAggMode); 5] = [
        (1, 1024, PartialAggMode::Auto), // sequential fused fold
        (4, 8, PartialAggMode::Auto),
        (2, 1, PartialAggMode::Auto), // worst-case merge interleaving
        (4, 1, PartialAggMode::Auto),
        (3, 1024, PartialAggMode::Auto),
    ];
    for (threads, morsel, mode) in variants {
        let c = cfg(threads, morsel).with_partial_agg(mode);
        let out = run_read_with(g, q, params, &c).unwrap_or_else(|e| {
            panic!(
                "pushdown engine (threads={threads}, morsel={morsel}, {mode:?}) failed on {q}: {e}"
            )
        });
        // Exact row sequence — aggregation results must not merely agree
        // as bags, they must be bit-identical in order and value (floats
        // included) for every thread count and morsel size.
        assert!(
            out.ordered_eq(&base),
            "pushdown drifted (threads={threads}, morsel={morsel}, {mode:?}) on {q}\n\
             baseline:\n{base}\npushdown:\n{out}"
        );
    }
    let oracle =
        run_reference(g, q, params).unwrap_or_else(|e| panic!("reference failed on {q}: {e}"));
    let canon_engine = canonicalize_lists(&base);
    let canon_oracle = canonicalize_lists(&oracle);
    if q.contains("ORDER BY") {
        // Every ordered query of the aggregate grammar sorts by a total
        // order (up to identical rows), so even the oracle must agree on
        // the exact row sequence.
        assert!(
            canon_engine.ordered_eq(&canon_oracle),
            "engine diverges from the oracle row order on {q}\n\
             engine:\n{base}\nreference:\n{oracle}"
        );
    } else {
        assert!(
            canon_engine.bag_eq(&canon_oracle),
            "engine diverges from the reference oracle on {q}\n\
             engine:\n{base}\nreference:\n{oracle}"
        );
    }
    base
}

#[test]
fn five_hundred_generated_queries_agree_across_thread_counts() {
    let params = Params::new();
    let mut total = 0usize;
    let mut nonempty = 0usize;
    for seed in 0..4u64 {
        let g = random_graph(22, 40, &["A", "B"], &["X", "Y"], seed);
        let mut gen = QueryGenerator::new(1000 + seed);
        for _ in 0..130 {
            let q = gen.next_query();
            total += 1;
            if !check_query(&g, &q, &params).is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(total >= 500, "only {total} queries generated");
    // The workload must actually exercise the executor, not just prove
    // that empty agrees with empty.
    assert!(
        nonempty * 2 >= total,
        "workload too vacuous: {nonempty}/{total} queries returned rows"
    );
}

#[test]
fn aggregation_corpus_agrees_across_pushdown_configs() {
    let params = Params::new();
    let mut total = 0usize;
    let mut nonempty = 0usize;
    for seed in 0..4u64 {
        let g = random_graph(22, 40, &["A", "B"], &["X", "Y"], 50 + seed);
        let mut gen = QueryGenerator::new(3000 + seed);
        for _ in 0..110 {
            let q = gen.next_aggregate_query();
            total += 1;
            if !check_aggregate_query(&g, &q, &params).is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(total >= 400, "only {total} aggregate queries generated");
    assert!(
        nonempty * 2 >= total,
        "aggregate workload too vacuous: {nonempty}/{total} queries returned rows"
    );
}

#[test]
fn aggregation_corpus_agrees_after_graph_mutations() {
    // The same corpus with update statements churning the graph (and the
    // index statistics the planner anchors the fused pipelines on).
    let params = Params::new();
    let mut g = random_graph(18, 30, &["A", "B"], &["X", "Y"], 77);
    let mut ugen = QueryGenerator::new(8888);
    for step in 0..6u64 {
        let u = ugen.next_update();
        cypher::run(&mut g, &u, &params).unwrap_or_else(|e| panic!("update failed ({u}): {e}"));
        let mut gen = QueryGenerator::new(9000 + step);
        for _ in 0..12 {
            let q = gen.next_aggregate_query();
            check_aggregate_query(&g, &q, &params);
        }
    }
}

#[test]
fn generated_queries_agree_after_graph_mutations() {
    // Re-check a slice of the workload after update clauses have churned
    // the graph (and thus the indexes the parallel sources seek through).
    // The update statements come from the same grammar-driven generator
    // the crash-recovery differential replays (`QueryGenerator::
    // next_update`), so both harnesses exercise one mutation surface.
    let params = Params::new();
    let mut g = random_graph(18, 30, &["A", "B"], &["X", "Y"], 99);
    let mut ugen = QueryGenerator::new(4242);
    for step in 0..8u64 {
        let u = ugen.next_update();
        cypher::run(&mut g, &u, &params).unwrap_or_else(|e| panic!("update failed ({u}): {e}"));
        let mut gen = QueryGenerator::new(7000 + step);
        for _ in 0..15 {
            let q = gen.next_query();
            check_query(&g, &q, &params);
        }
    }
}

/// Grouped projections whose groups keep their first source row (a
/// non-bare aggregated item, a sort key outside the output columns) and
/// one whose groups do not (`DISTINCT`): the representative row must be
/// the sequential fold's at every thread count and morsel size.
const REPRESENTATIVE_ROWS: &[&str] = &[
    "MATCH (a) RETURN a.v AS g, a.v + count(*) AS x ORDER BY g",
    "MATCH (a) RETURN a.v AS g, count(*) AS c ORDER BY a.i DESC",
    "MATCH (a) RETURN DISTINCT a.v AS g ORDER BY g DESC",
];

#[test]
fn representative_rows_agree_across_pushdown_configs() {
    let params = Params::new();
    for seed in 0..4u64 {
        let g = random_graph(22, 40, &["A", "B"], &["X", "Y"], 300 + seed);
        for q in REPRESENTATIVE_ROWS {
            assert!(!check_aggregate_query(&g, q, &params).is_empty(), "{q}");
        }
    }
}

/// Chains of `MATCH`, plain `WITH`, `WHERE` and `UNWIND` run as one
/// segment of the morsel driver; their rows must keep the sequential
/// order at every thread count and morsel size.
const STREAMED_CHAINS: &[&str] = &[
    "MATCH (a:A) WITH a WHERE a.v > 3 MATCH (a)-[:X]->(b) RETURN a.i, b.i",
    "UNWIND [0, 1, 2, 3, 4] AS x WITH x WHERE x % 2 = 0 MATCH (a {i: x}) RETURN x, a.v",
    "MATCH (a)-[:X]->(b) WITH * RETURN a.i, b.i",
    "MATCH (a)-[:X]->(b) WITH b AS a, a AS b RETURN a.i, b.i",
    "MATCH (a)-[:X]->(b) WITH b AS a MATCH (a)-[:Y]->(c) RETURN a.i, c.i",
    "UNWIND [null, 1, [2, [3]]] AS x UNWIND x AS y RETURN x, y",
    "UNWIND null AS x UNWIND 7 AS y RETURN x, y",
    "MATCH p = (a:A)-[:X*1..2]->(b) WITH p, b MATCH (b)-[:Y]->(c) RETURN length(p) AS len, c.i",
    "MATCH (a)-[:X]->() MATCH (b)-[:Y]->() WHERE a.i < b.i RETURN a.i, b.i",
    "MATCH (a:Nope) WITH nosuchvar AS x RETURN x",
];

#[test]
fn streamed_chains_agree_across_thread_counts() {
    let params = Params::new();
    let mut nonempty = 0;
    for seed in 0..4u64 {
        let g = random_graph(22, 40, &["A", "B"], &["X", "Y"], 200 + seed);
        for q in STREAMED_CHAINS {
            if !check_query(&g, q, &params).is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(
        nonempty * 2 >= STREAMED_CHAINS.len() * 4,
        "chains too vacuous: {nonempty} non-empty results"
    );
}

/// Node isomorphism is one more cell of the matrix: generated queries at
/// threads ∈ {1, 4} × morsel ∈ {1, 1024} keep one row sequence, and its
/// bag is the oracle's under the same morphism.
#[test]
fn node_isomorphism_agrees_across_thread_counts() {
    let params = Params::new();
    let node_iso = MatchConfig {
        morphism: Morphism::NodeIsomorphism,
        ..MatchConfig::default()
    };
    let (mut total, mut nonempty) = (0, 0);
    for seed in 0..3u64 {
        let g = random_graph(22, 40, &["A", "B"], &["X", "Y"], 400 + seed);
        let mut gen = QueryGenerator::new(5000 + seed);
        for _ in 0..100 {
            let q = gen.next_query();
            let cells = [(1, 1), (4, 1), (4, 1024)];
            total += 1;
            if !check_query_with(&g, &q, &params, node_iso, &cells).is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(
        nonempty * 2 >= total,
        "workload too vacuous: {nonempty}/{total} queries returned rows"
    );
}
