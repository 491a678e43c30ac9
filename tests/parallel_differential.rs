//! Differential testing of the **morsel-driven parallel executor**: every
//! query of a grammar-driven random workload must produce the same
//! multiset of rows at `threads = 1`, at `threads = N` (several morsel
//! sizes, including the degenerate 1-row morsel), with aggregation pushed
//! into the pipeline or not, and on the reference oracle — the paper's
//! denotational semantics, which knows nothing about batches or threads.
//!
//! The engine actually promises more than multiset equality: morsels are
//! merged in claim-index order, so parallel output is the *same row
//! sequence* as sequential output. The harness (`cypher_tck::diff`, cells
//! [`PARALLEL`] and [`ALL`]) asserts both.

use cypher::workload::QueryGenerator;
use cypher::{MatchConfig, Morphism};
use cypher_tck::diff::{generated, graph, seeds, Diff, Stmt, Sweep, ALL, CORPUS, PARALLEL};
use cypher_tck::diff::{REPRESENTATIVE_ROWS, STREAMED_CHAINS};

/// Sweeps `reads` reads drawn by `next` from `QueryGenerator::new(seed +
/// k)` over `random_graph(22, 40, …, graph_seed + k)`, `k < n`, and
/// returns how many ran; at least half must return rows.
fn sweep_reads(
    diff: &Diff,
    (graph_seed, seed, n): (u64, u64, u64),
    reads: usize,
    next: fn(&mut QueryGenerator) -> String,
) -> usize {
    let rows: Vec<usize> = (0..n)
        .flat_map(|k| {
            let stream = generated(None, seed + k, 1, reads, next);
            diff.sweep(Sweep::new(22, 40, graph_seed + k, stream))
        })
        .collect();
    // The workload must actually exercise the executor, not just prove
    // that empty agrees with empty.
    let nonempty = rows.iter().filter(|&&n| n > 0).count();
    assert!(nonempty * 2 >= rows.len(), "vacuous: {nonempty}/{rows:?}");
    rows.len()
}

/// The aggregate corpus: `collect` feeds rows in pipeline order, and
/// every `ORDER BY` of its grammar is total.
fn aggregates() -> Diff {
    Diff::new(PARALLEL).lists_as_bags().total_order_by()
}

#[test]
fn five_hundred_generated_queries_agree_across_thread_counts() {
    let next = QueryGenerator::next_query;
    let total = sweep_reads(&Diff::new(PARALLEL), (0, 1000, 4), 130, next);
    assert!(total >= 500, "only {total} queries generated");
}

#[test]
fn aggregation_corpus_agrees_across_pushdown_configs() {
    let next = QueryGenerator::next_aggregate_query;
    let total = sweep_reads(&aggregates(), (50, 3000, 4), 110, next);
    assert!(total >= 400, "only {total} aggregate queries");
}

#[test]
fn aggregation_corpus_agrees_after_graph_mutations() {
    // The same corpus with update statements churning the graph (and the
    // index statistics the planner anchors the fused pipelines on).
    let next = QueryGenerator::next_aggregate_query;
    let stream = generated(Some(8888), 9000, 6, 12, next);
    aggregates().sweep(Sweep::new(18, 30, 77, stream));
}

#[test]
fn generated_queries_agree_after_graph_mutations() {
    // Re-check a slice of the workload after update clauses have churned
    // the graph (and thus the indexes the parallel sources seek through).
    // The update statements come from the same grammar-driven generator
    // the crash-recovery differential replays (`QueryGenerator::
    // next_update`), so both harnesses exercise one mutation surface.
    let stream = generated(Some(4242), 7000, 8, 15, QueryGenerator::next_query);
    Diff::new(PARALLEL).sweep(Sweep::new(18, 30, 99, stream));
}

/// Node isomorphism is one more cell of the matrix: generated queries
/// keep one row sequence at every thread count and morsel size, and its
/// bag is the oracle's under the same morphism.
#[test]
fn node_isomorphism_agrees_across_thread_counts() {
    let node_iso = Diff::new(PARALLEL).matching(MatchConfig {
        morphism: Morphism::NodeIsomorphism,
        ..MatchConfig::default()
    });
    sweep_reads(&node_iso, (400, 5000, 3), 100, QueryGenerator::next_query);
}

/// The differential corpus at every cell of [`PARALLEL`]: streamed
/// chains of `MATCH`, `WITH`, `WHERE` and `UNWIND` keep the sequential
/// row order at every thread count and morsel size; half of them return
/// rows.
#[test]
fn streamed_chains_agree_across_thread_counts() {
    let chains: Vec<usize> = (200..204)
        .flat_map(|seed| corpus_sweep(seed)[STREAMED_CHAINS].to_vec())
        .collect();
    let nonempty = chains.iter().filter(|&&n| n > 0).count();
    assert!(
        nonempty * 2 >= chains.len(),
        "chains too vacuous: {chains:?}"
    );
}

/// The differential corpus at every cell of [`PARALLEL`]: a group keeps
/// its first source row (read by a non-bare aggregated item or a sort key
/// outside the output) at every thread count, pushed down or not, and
/// every such query returns rows on every graph.
#[test]
fn representative_rows_agree_across_pushdown_configs() {
    for seed in 300..304 {
        let rows = corpus_sweep(seed);
        assert!(
            !rows[REPRESENTATIVE_ROWS].contains(&0),
            "seed {seed}: {rows:?}"
        );
    }
}

/// Sweeps the corpus over `random_graph(22, 40, …, seed)`; the row count
/// of each corpus query.
fn corpus_sweep(seed: u64) -> Vec<usize> {
    let stream = CORPUS.iter().map(|q| Stmt::Read(q.to_string())).collect();
    Diff::new(PARALLEL)
        .total_order_by()
        .sweep(Sweep::new(22, 40, seed, stream))
}

/// A 200-node `NEXT` chain, so every morsel size of the cell table
/// actually chunks the scan: one row sequence everywhere.
#[test]
fn chain_corpus_agrees_across_the_cell_table() {
    let g = graph(&[
        "UNWIND range(0, 199) AS i CREATE (:Leaf {i: i})",
        "MATCH (n:Leaf) WHERE n.i % 3 = 0 SET n:Hub REMOVE n:Leaf",
        "UNWIND range(0, 198) AS i MATCH (a {i: i}), (b {i: i + 1}) CREATE (a)-[:NEXT]->(b)",
    ]);
    for q in [
        "MATCH (n:Hub) RETURN n",
        "MATCH (n) WHERE n.i > 100 RETURN n.i AS i",
        "MATCH (a:Hub)-[:NEXT]->(b) RETURN a.i AS x, b.i AS y",
        "MATCH (a)-[:NEXT*1..2]->(b:Hub) RETURN a, b",
        "MATCH (x:Hub) OPTIONAL MATCH (x)-[:NEXT]->(y:Hub) RETURN x, y",
    ] {
        Diff::new(ALL).rows(&g, q);
    }
}

/// Evaluation errors raised mid-pipeline are the oracle's at every cell.
#[test]
fn error_shapes_agree_across_the_cell_table() {
    let g = graph(&["UNWIND range(0, 49) AS i CREATE (:N {v: i})"]);
    // `+` on a node is an evaluation error raised mid-pipeline: in a
    // `WHERE`, and in a `WITH` projection inside a chain. Then items
    // whose second fails at an earlier row than its first (`1 / (n.v -
    // 5)` at v = 5, a property read on the integer `n.v` at v = 2):
    // evaluated a column at a time the first fails first, yet the error
    // is the oracle's row-major one, in a `WITH` stage and a `RETURN`.
    for q in [
        "MATCH (n:N) WHERE n + 1 = 2 RETURN n",
        "MATCH (n:N) WITH n, n + 1 AS bad MATCH (n)-->(m) RETURN count(m) AS c",
        "MATCH (n:N) WITH n, 1 / (n.v - 5) AS a, CASE WHEN n.v = 2 THEN n.v.k END AS b \
         RETURN count(*) AS c",
        "MATCH (n:N) RETURN 1 / (n.v - 5) AS a, CASE WHEN n.v = 2 THEN n.v.k END AS b",
    ] {
        let e = Diff::new(ALL).error(&g, q);
        let by_row = !q.contains("CASE") || e.to_string().contains("property");
        assert!(by_row, "{q}: {e}");
    }
    // A later clause that fails at an earlier row (or batch) than an
    // earlier clause: clause at a time, the earlier clause fails first.
    for q in [
        "UNWIND range(1, 2000) AS x WITH x, CASE WHEN x = 1500 THEN 1 / 0 ELSE x END AS a \
         WITH a, CASE WHEN a = 10 THEN a.foo ELSE a END AS b RETURN count(b) AS c",
        "UNWIND [1, 0] AS x WITH x, 10 / x AS a WITH a, x.foo AS b RETURN b",
        "UNWIND [1, 0] AS x WITH x WHERE 10 / x > 0 WITH x WHERE x.foo = 1 RETURN x",
    ] {
        let e = Diff::new(ALL).error(&g, q);
        assert!(e.to_string().contains("division by zero"), "{q}: {e}");
    }
}

/// Seeded chains of two or three streamed clauses over `UNWIND range(1,
/// n)`, `n` up to 3 000, each clause — and the `RETURN` — failing at its
/// own seed-chosen row (if the rows reach it) with its own message, a
/// read of property `c<k>` on the integer `x`. Whichever fails first
/// clause at a time is the error at every cell, wherever the failing
/// rows fall across morsels.
#[test]
fn the_earliest_failing_clause_is_the_error_at_every_cell() {
    let g = graph(&[]);
    let mut failed = 0;
    for seed in seeds(50) {
        let mut state = (seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut below = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let n = 1 + below(3000);
        // A failing row past `n` leaves its clause clean.
        let rows = n + n / 4 + 1;
        let fail = |key: &str, row: u64| format!("CASE WHEN x = {} THEN x.{key}", 1 + row);
        let mut q = format!("UNWIND range(1, {n}) AS x");
        for k in 0..2 + below(2) {
            let fail = fail(&format!("c{k}"), below(rows));
            q += &match below(2) {
                0 => format!(" WITH x, {fail} ELSE x END AS a{k}"),
                _ => format!(" WITH x WHERE {fail} ELSE x % {} <> 0 END", 2 + below(5)),
            };
        }
        let ret = format!("{} ELSE x END", fail("ret", below(rows)));
        q += &match below(4) {
            0 => " RETURN count(*) AS c".to_string(),
            1 => format!(" RETURN sum({ret}) AS s"),
            2 => format!(" RETURN {ret} AS y"),
            _ => format!(" RETURN {ret} AS y ORDER BY y DESC LIMIT 3"),
        };
        match Diff::new(ALL).outcome(&g, &q) {
            Err(divergence) => panic!("seed {seed}: {divergence}"),
            Ok(outcome) => failed += usize::from(outcome.is_err()),
        }
    }
    assert!(failed * 2 >= seeds(50).len(), "vacuous: {failed} failed");
}
