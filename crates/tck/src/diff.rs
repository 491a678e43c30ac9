//! The differential harness: the one place the planner engine is
//! compared with the reference oracle, the paper's formal semantics
//! ("a reference implementation against which others will be compared",
//! Section 4).
//!
//! A check runs one read query on one graph at every cell of a named
//! subset of the cell table [`ALL`], and the oracle at the same
//! [`MatchConfig`], and holds them to one contract:
//!
//! 1. **Failures agree.** The oracle fails if and only if every cell
//!    fails, and then every cell's error equals the oracle's (so also the
//!    sequential built-in cell's).
//! 2. **One row sequence per plan policy.** Cells of one [`Policy`]
//!    ([`Policy::NoPartialAgg`] counts as [`Policy::Builtin`]) return the
//!    row sequence of the policy's first cell exactly (`ordered_eq`).
//! 3. **Every cell is bag-equal to the oracle.** Opt-in variants:
//!    [`Diff::lists_as_bags`] compares list cells as multisets (the
//!    oracle feeds `collect` in another row order), and
//!    [`Diff::total_order_by`] also demands the oracle's row sequence
//!    from a query with `ORDER BY`.
//!
//! A [`Sweep`] is a `random_graph` plus a stream of statements: updates
//! applied through [`cypher::run`], reads checked with the contract and
//! required to succeed — so every answer must equal recomputation from
//! scratch after every update. A failing sweep fails small: the statement
//! stream is shrunk by delta debugging, then the graph's node and
//! relationship counts, as long as a read still diverges or fails, and the
//! panic carries the failure and a paste-ready `#[test]` for
//! `tests/regression.rs`.

use cypher::workload::{random_graph, QueryGenerator};
use cypher::{
    run_read_with, run_reference_with, EngineConfig, Error, MatchConfig, Params, PartialAggMode,
    PlannerMode, PropertyGraph, Record, Table, Value, WcoJoinMode,
};
use std::borrow::Cow;
use std::fmt::Display;
use std::ops::Range;
use Policy::*;

/// A plan policy: [`EngineConfig::builtin`], or one planning choice
/// turned away from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Cost-based joins, both indexes, expand plans, partial aggregation.
    Builtin,
    /// Cycles closed by `Expand` chains only.
    WcoOff,
    /// Every eligible cycle closed by a multiway intersection.
    WcoForce,
    /// No label or property index.
    NoIndexes,
    /// The cartesian-product baseline planner.
    Cartesian,
    /// Aggregation, `DISTINCT` and top-k folded after the pipeline.
    NoPartialAgg,
}

/// A cell: a plan policy at a thread count and a morsel size, built from
/// [`EngineConfig::builtin`] so it means the same under every `CYPHER_*`
/// environment.
pub type Cell = (Policy, usize, usize);

/// The engine configuration of `cell` under `matching`.
fn config((policy, threads, morsel): Cell, matching: MatchConfig) -> EngineConfig {
    let c = EngineConfig {
        match_config: matching,
        ..EngineConfig::builtin()
    };
    let c = c.with_threads(threads).with_morsel_size(morsel);
    match policy {
        Builtin => c,
        WcoOff => c.with_wco_join(WcoJoinMode::Off),
        WcoForce => c.with_wco_join(WcoJoinMode::Force),
        NoIndexes => c.without_indexes(),
        Cartesian => EngineConfig {
            planner_mode: PlannerMode::CartesianJoin,
            ..c
        },
        NoPartialAgg => c.with_partial_agg(PartialAggMode::Off),
    }
}

/// The cell table: every configuration any differential check runs.
#[rustfmt::skip]
pub const ALL: &[Cell] = &[
    (Builtin, 1, 1024), (Builtin, 1, 1), (Builtin, 2, 1), (Builtin, 2, 8), (Builtin, 3, 7),
    (Builtin, 3, 1024), (Builtin, 4, 1), (Builtin, 4, 2), (Builtin, 4, 4), (Builtin, 4, 8),
    (Builtin, 4, 64), (Builtin, 4, 1024), (Builtin, 8, 1024), (NoPartialAgg, 1, 1024),
    (WcoOff, 1, 1024), (WcoOff, 4, 1), (WcoOff, 2, 8), (WcoOff, 3, 1024),
    (WcoForce, 1, 1024), (WcoForce, 4, 1), (WcoForce, 2, 8), (WcoForce, 3, 1024),
    (NoIndexes, 1, 1024), (Cartesian, 1, 1024),
];

/// The default subset: sequential over 1- and 1024-row morsels, 4 threads
/// over 1-, 2- and 1024-row morsels (at 1 and 2 every multi-row input
/// splits), and every cycle intersected.
#[rustfmt::skip]
pub const LIGHT: &[Cell] = &[
    (Builtin, 1, 1024), (Builtin, 1, 1), (Builtin, 4, 1), (Builtin, 4, 2), (Builtin, 4, 1024),
    (WcoForce, 1, 1024),
];

/// Thread counts, morsel sizes and aggregation pushdown.
#[rustfmt::skip]
pub const PARALLEL: &[Cell] = &[
    (Builtin, 1, 1024), (Builtin, 1, 1), (Builtin, 2, 1), (Builtin, 3, 1024), (Builtin, 4, 1),
    (Builtin, 4, 8), (Builtin, 4, 1024), (NoPartialAgg, 1, 1024),
];

/// The three join policies, sequential and parallel.
#[rustfmt::skip]
pub const CYCLIC: &[Cell] = &[
    (Builtin, 1, 1024), (Builtin, 4, 1), (Builtin, 2, 8), (Builtin, 3, 1024),
    (WcoOff, 1, 1024), (WcoOff, 4, 1), (WcoOff, 2, 8), (WcoOff, 3, 1024),
    (WcoForce, 1, 1024), (WcoForce, 4, 1), (WcoForce, 2, 8), (WcoForce, 3, 1024),
];

/// The planner and the index choice, sequentially.
#[rustfmt::skip]
pub const PLANS: &[Cell] = &[(Builtin, 1, 1024), (Cartesian, 1, 1024), (NoIndexes, 1, 1024)];

/// Every subset by name. Each is drawn from [`ALL`] and lists the
/// sequential built-in cell first.
#[rustfmt::skip]
const SUBSETS: [(&str, &[Cell]); 5] =
    [("ALL", ALL), ("LIGHT", LIGHT), ("PARALLEL", PARALLEL), ("CYCLIC", CYCLIC), ("PLANS", PLANS)];

/// The read corpus the differential suites sweep, over labels A/B and
/// types X/Y: matching, optional matching, variable-length patterns,
/// filtering, aggregation, ordering (every `ORDER BY` total), distinct,
/// unwind, unions and streamed chains.
pub const CORPUS: &[&str] = &[
    "MATCH (a) RETURN count(*) AS c",
    "MATCH (a:A) RETURN a.i ORDER BY a.i",
    "MATCH (a)-[r:X]->(b) RETURN a.i, r.w, b.i",
    "MATCH (a)-[r]->(b) RETURN count(*) AS c",
    "MATCH (a)-[:X]->(b)-[:Y]->(c) RETURN a.i, b.i, c.i",
    "MATCH (a)-[:X]-(b) RETURN a.i, b.i",
    "MATCH (a)<-[:Y]-(b) RETURN a.i, b.i",
    "MATCH (a:A)-[*1..2]->(b:B) RETURN a.i, b.i",
    "MATCH (a)-[rs:X*0..2]->(b) RETURN a.i, size(rs) AS hops, b.i",
    "MATCH p = (a)-[:X*1..2]->(b) RETURN a.i, length(p) AS len",
    "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(b) RETURN a.i, b.i",
    "MATCH (a) OPTIONAL MATCH (a)-[:X]->(b:B) WHERE b.v > 5 RETURN a.i, b.i",
    "MATCH (a)-[r:X]->(b) WHERE r.w > 50 RETURN a.i, b.i",
    "MATCH (a:A), (b:B) RETURN count(*) AS pairs",
    "MATCH (a)-[r1]->(b)-[r2]->(a) RETURN a.i, b.i",
    "MATCH (a) WHERE (a)-[:X]->(:B) RETURN a.i",
    "MATCH (a) WHERE NOT (a)-[:X]->() RETURN a.i",
    "MATCH (a) RETURN DISTINCT a.v AS v ORDER BY v",
    "MATCH (a) RETURN a.v AS v, count(*) AS c ORDER BY v, c",
    // A group keeps its first source row only where it is read: by an
    // aggregated item that is not bare, or by a sort key that is not an
    // output column (and never after DISTINCT).
    "MATCH (a) RETURN a.v AS g, a.v + count(*) AS x ORDER BY g",
    "MATCH (a) RETURN a.v AS g, count(*) AS c ORDER BY a.i DESC",
    "MATCH (a) RETURN DISTINCT a.v AS g ORDER BY g DESC",
    "MATCH (a)-[:X]->(b) WITH a, count(b) AS deg WHERE deg > 1 RETURN a.i, deg",
    "MATCH (a) WITH a.v AS v, collect(a.i) AS is RETURN v, size(is) AS n ORDER BY v",
    "MATCH (a) RETURN sum(a.v) AS s, min(a.v) AS lo, max(a.v) AS hi, avg(a.v) AS mean",
    "UNWIND [1, 2, 3] AS x MATCH (a:A) RETURN x, count(a) AS c ORDER BY x",
    "MATCH (a:A) RETURN a.i AS i UNION MATCH (b:B) RETURN b.i AS i",
    "MATCH (a:A) RETURN a.i AS i UNION ALL MATCH (b:B) RETURN b.i AS i",
    "MATCH (a) RETURN a.i AS i ORDER BY i DESC SKIP 2 LIMIT 3",
    "MATCH (a) RETURN CASE WHEN a.v > 5 THEN 'hi' ELSE 'lo' END AS bucket, count(*) AS c",
    "MATCH (a) RETURN [x IN range(0, a.v) WHERE x % 2 = 0 | x] AS evens ORDER BY a.i LIMIT 5",
    "MATCH (a)-[rs:X*1..3]->(b) RETURN count(*) AS walks",
    "MATCH (a)-[:X]->(b), (b)-[:Y]->(c) RETURN a.i, b.i, c.i",
    // Streamed chains: every clause below runs inside one segment.
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

/// The [`CORPUS`] rows whose groups keep a representative source row.
pub const REPRESENTATIVE_ROWS: Range<usize> = 19..22;

/// The [`CORPUS`] rows that run as streamed chains.
pub const STREAMED_CHAINS: Range<usize> = 33..43;

/// How a check runs a read query at a cell.
pub type Engine = fn(&PropertyGraph, &str, &Params, &EngineConfig) -> Result<Table, Error>;

/// One differential check: cells, matching, parameters, comparison
/// variants, and the engine under test.
pub struct Diff {
    cells: &'static [Cell],
    matching: MatchConfig,
    params: Params,
    lists_as_bags: bool,
    total_order_by: bool,
    engine: (&'static str, Engine),
}

/// [`Diff::rows`] at [`LIGHT`].
pub fn rows(g: &PropertyGraph, q: &str) -> Table {
    Diff::new(LIGHT).rows(g, q)
}

/// [`Diff::error`] at [`LIGHT`].
pub fn error(g: &PropertyGraph, q: &str) -> Error {
    Diff::new(LIGHT).error(g, q)
}

/// The graph `updates` build from empty, through [`cypher::run`].
pub fn graph(updates: &[&str]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for u in updates {
        cypher::run(&mut g, u, &Params::new()).unwrap_or_else(|e| panic!("`{u}` failed: {e}"));
    }
    g
}

impl Diff {
    /// Edge isomorphism, no parameters and [`run_read_with`] at `cells`,
    /// one of the named subsets of [`ALL`].
    pub fn new(cells: &'static [Cell]) -> Diff {
        Diff {
            cells,
            matching: MatchConfig::default(),
            params: Params::new(),
            lists_as_bags: false,
            total_order_by: false,
            engine: ("run_read_with", run_read_with),
        }
    }

    /// Runs the cells and the oracle under `matching`.
    pub fn matching(self, matching: MatchConfig) -> Diff {
        Diff { matching, ..self }
    }

    /// Binds the query parameters.
    pub fn params(self, params: Params) -> Diff {
        Diff { params, ..self }
    }

    /// Compares list cells with the oracle's as multisets.
    pub fn lists_as_bags(mut self) -> Diff {
        self.lists_as_bags = true;
        self
    }

    /// Every `ORDER BY` is total: the oracle's row sequence is required too.
    pub fn total_order_by(mut self) -> Diff {
        self.total_order_by = true;
        self
    }

    /// Checks `engine`, named `name` in a repro, instead of [`run_read_with`].
    pub fn engine(mut self, name: &'static str, engine: Engine) -> Diff {
        self.engine = (name, engine);
        self
    }

    /// The sequential built-in cell's outcome of `q` on `g`, or how the
    /// cells and the oracle break the contract.
    pub fn outcome(&self, g: &PropertyGraph, q: &str) -> Result<Result<Table, Error>, String> {
        let oracle = run_reference_with(g, q, &self.params, self.matching);
        let mut orders: Vec<(Policy, Table)> = Vec::new();
        let mut first = None;
        for &cell in self.cells {
            let got = (self.engine.1)(g, q, &self.params, &config(cell, self.matching));
            let (p, threads, morsel) = cell;
            let diverge = |what: &str, want: &dyn Display, got: &dyn Display| {
                let at = format!("[{p:?} {threads}×{morsel}]");
                Err(format!(
                    "divergence on `{q}`: {at} {what}\nexpected:\n{want}\ngot:\n{got}"
                ))
            };
            let order = if p == NoPartialAgg { Builtin } else { p };
            match (&got, &oracle) {
                (Err(e), Err(o)) if e != o => return diverge("fails unlike the oracle", o, e),
                (Err(e), Ok(o)) => return diverge("fails where the oracle does not", o, e),
                (Ok(t), Err(o)) => return diverge("returns rows where the oracle fails", o, t),
                (Ok(t), Ok(o)) => match orders.iter().find(|(p, _)| *p == order) {
                    Some((_, seq)) if !t.ordered_eq(seq) => {
                        return diverge("drifts from its policy's row sequence", seq, t)
                    }
                    None if !self.agrees_with_oracle(q, t, o) => {
                        return diverge("disagrees with the oracle", o, t)
                    }
                    None => orders.push((order, t.clone())),
                    Some(_) => {}
                },
                (Err(_), Err(_)) => {}
            }
            first.get_or_insert(got);
        }
        Ok(first.expect("a cell subset is never empty"))
    }

    fn agrees_with_oracle(&self, q: &str, t: &Table, oracle: &Table) -> bool {
        let canon = |t| match self.lists_as_bags {
            true => Cow::Owned(sort_lists(t)),
            false => Cow::Borrowed(t),
        };
        let (t, oracle) = (canon(t), canon(oracle));
        match self.total_order_by && q.contains("ORDER BY") {
            true => t.ordered_eq(&oracle),
            false => t.bag_eq(&oracle),
        }
    }

    /// The rows of a query that must succeed; panics on a divergence.
    pub fn rows(&self, g: &PropertyGraph, q: &str) -> Table {
        let t = self.outcome(g, q).unwrap_or_else(|d| panic!("{d}"));
        t.unwrap_or_else(|e| panic!("`{q}` fails everywhere: {e}"))
    }

    /// The error of a query that must fail; panics on a divergence.
    pub fn error(&self, g: &PropertyGraph, q: &str) -> Error {
        match self.outcome(g, q).unwrap_or_else(|d| panic!("{d}")) {
            Ok(t) => panic!("`{q}` was expected to fail, but returned\n{t}"),
            Err(e) => e,
        }
    }

    /// Runs `sweep` and returns the row count of each read, in order. Every
    /// read must succeed: one that diverges or fails everywhere panics with
    /// the minimised sweep's failure and a paste-ready test. A failing
    /// update panics at once (generated updates are total).
    pub fn sweep(&self, sweep: Sweep) -> Vec<usize> {
        assert!(self.params.is_empty(), "a sweep binds no parameters");
        match self.replay(&sweep) {
            Ok(counts) => counts,
            Err(Failure::Update(e)) => panic!("{e}"),
            Err(Failure::Read(at, divergence)) => {
                let (s, divergence) = self.minimise(sweep, at, divergence);
                let (n, nodes, test) = (s.stream.len(), s.nodes, self.render(&s));
                panic!(
                    "{divergence}\n\nminimised to {n} statements on {nodes} nodes; \
                     paste into tests/regression.rs:\n\n{test}"
                )
            }
        }
    }

    fn replay(&self, s: &Sweep) -> Result<Vec<usize>, Failure> {
        let mut g = random_graph(s.nodes, s.rels, &["A", "B"], &["X", "Y"], s.seed);
        let mut rows = Vec::new();
        for (at, stmt) in s.stream.iter().enumerate() {
            match stmt {
                Stmt::Update(u) => {
                    let done = cypher::run(&mut g, u, &self.params);
                    done.map_err(|e| Failure::Update(format!("update `{u}` failed: {e}")))?;
                }
                Stmt::Read(q) => match self.outcome(&g, q) {
                    Ok(Ok(t)) => rows.push(t.len()),
                    Ok(Err(e)) => {
                        return Err(Failure::Read(at, format!("`{q}` fails everywhere: {e}")))
                    }
                    Err(d) => return Err(Failure::Read(at, d)),
                },
            }
        }
        Ok(rows)
    }

    /// Shrinks a sweep whose read `at` failed, keeping every candidate in
    /// which a read still fails: chunks of halving size
    /// out of the statement stream, then `nodes`, then `rels`, until a
    /// round shrinks nothing.
    fn minimise(&self, mut s: Sweep, at: usize, mut divergence: String) -> (Sweep, String) {
        s.stream.truncate(at + 1);
        let mut accept = |s: &mut Sweep, mut candidate: Sweep| match self.replay(&candidate) {
            Err(Failure::Read(at, d)) => {
                candidate.stream.truncate(at + 1);
                (*s, divergence) = (candidate, d);
                true
            }
            _ => false,
        };
        let sizes: [fn(&mut Sweep) -> &mut usize; 2] = [|s| &mut s.nodes, |s| &mut s.rels];
        loop {
            let before = (s.stream.len(), s.nodes, s.rels);
            let mut chunk = s.stream.len();
            while chunk > 0 {
                let mut i = 0;
                while i < s.stream.len() {
                    let mut candidate = s.clone();
                    candidate.stream.drain(i..(i + chunk).min(s.stream.len()));
                    if !accept(&mut s, candidate) {
                        i += chunk;
                    }
                }
                chunk /= 2;
            }
            for size in sizes {
                let mut step = *size(&mut s);
                while step > 0 {
                    let mut candidate = s.clone();
                    *size(&mut candidate) -= step;
                    match accept(&mut s, candidate) {
                        true => step = step.min(*size(&mut s)),
                        false => step /= 2,
                    }
                }
            }
            if before == (s.stream.len(), s.nodes, s.rels) {
                return (s, divergence);
            }
        }
    }

    /// The sweep as a `#[test]` for `tests/regression.rs`.
    fn render(&self, s: &Sweep) -> String {
        let subset = SUBSETS.iter().find(|(_, c)| *c == self.cells);
        let mut diff = format!("Diff::new({})", subset.expect("a named subset").0);
        let (m, default) = (self.matching, MatchConfig::default());
        if (m.morphism, m.var_length_cap) != (default.morphism, default.var_length_cap) {
            diff += &format!(
                ".matching(cypher::MatchConfig {{ morphism: cypher::Morphism::{:?}, \
                 var_length_cap: {} }})",
                m.morphism, m.var_length_cap
            );
        }
        if self.lists_as_bags {
            diff += ".lists_as_bags()";
        }
        if self.total_order_by {
            diff += ".total_order_by()";
        }
        if self.engine.0 != "run_read_with" {
            diff += &format!(".engine({:?}, {})", self.engine.0, self.engine.0);
        }
        let mut out = "#[test]\nfn minimised_divergence() {\n    \
                       use cypher_tck::diff::{Stmt::*, *};\n    let stream = vec![\n"
            .to_string();
        for stmt in &s.stream {
            out += &match stmt {
                Stmt::Update(u) => format!("        Update({u:?}.into()),\n"),
                Stmt::Read(q) => format!("        Read({q:?}.into()),\n"),
            };
        }
        let (n, r, seed) = (s.nodes, s.rels, s.seed);
        out + &format!(
            "    ];\n    let diff = {diff};\n    \
             diff.sweep(Sweep::new({n}, {r}, {seed}, stream));\n}}\n"
        )
    }
}

/// One statement of a sweep.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// Applied through [`cypher::run`].
    Update(String),
    /// Checked against the oracle.
    Read(String),
}

/// `random_graph(nodes, rels, &["A", "B"], &["X", "Y"], seed)` (the query
/// generator's default vocabulary) and the statements to run on it.
#[derive(Clone, Debug)]
pub struct Sweep {
    nodes: usize,
    rels: usize,
    seed: u64,
    stream: Vec<Stmt>,
}

/// A generated stream: `rounds` rounds of one update drawn from
/// `QueryGenerator::new(updates)` (none if `updates` is `None`), then
/// `reads` reads drawn by `next` from `QueryGenerator::new(seed + round)`.
pub fn generated(
    updates: Option<u64>,
    seed: u64,
    rounds: u64,
    reads: usize,
    next: fn(&mut QueryGenerator) -> String,
) -> Vec<Stmt> {
    let mut updates = updates.map(QueryGenerator::new);
    let mut stream = Vec::new();
    for round in 0..rounds {
        stream.extend(updates.as_mut().map(|u| Stmt::Update(u.next_update())));
        let mut gen = QueryGenerator::new(seed + round);
        stream.extend((0..reads).map(|_| Stmt::Read(next(&mut gen))));
    }
    stream
}

impl Sweep {
    /// `stream` over `random_graph(nodes, rels, …, seed)`.
    pub fn new(nodes: usize, rels: usize, seed: u64, stream: Vec<Stmt>) -> Sweep {
        Sweep {
            nodes,
            rels,
            seed,
            stream,
        }
    }
}

enum Failure {
    Update(String),
    Read(usize, String),
}

/// `t` with every list cell sorted in the orderability order.
fn sort_lists(t: &Table) -> Table {
    let sorted = |v: &Value| match v {
        Value::List(items) => {
            let mut items = items.clone();
            items.sort_by(|a, b| a.cmp_order(b));
            Value::List(items)
        }
        v => v.clone(),
    };
    let rows = t
        .rows()
        .iter()
        .map(|r| Record::new(r.values().iter().map(sorted).collect()));
    Table::new(t.schema().clone(), rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subset_is_drawn_from_the_table() {
        for (name, cells) in SUBSETS {
            assert_eq!(cells[0], (Builtin, 1, 1024), "{name}");
            for (i, c) in cells.iter().enumerate() {
                assert!(ALL.contains(c) && !cells[..i].contains(c), "{name}: {c:?}");
            }
        }
    }

    #[test]
    fn named_corpus_rows_are_in_place() {
        let clauses = |q: &&str| q.matches("MATCH ").count() + q.matches("UNWIND ").count();
        assert!(CORPUS[REPRESENTATIVE_ROWS]
            .iter()
            .all(|q| q.contains(" AS g")));
        assert!(CORPUS[STREAMED_CHAINS]
            .iter()
            .all(|q| q.contains(" WITH ") || clauses(q) > 1));
        assert_eq!(STREAMED_CHAINS.end, CORPUS.len());
    }

    /// Drops the first row once the graph holds a node a generated update
    /// created or rewrote (`i` ≥ 1 000).
    fn fake_engine(
        g: &PropertyGraph,
        q: &str,
        params: &Params,
        cfg: &EngineConfig,
    ) -> Result<Table, Error> {
        let t = run_read_with(g, q, params, cfg)?;
        let fresh = run_read_with(g, "MATCH (n) WHERE n.i >= 1000 RETURN n", params, cfg)?;
        match fresh.is_empty() || t.is_empty() {
            true => Ok(t),
            false => Ok(Table::new(t.schema().clone(), t.rows()[1..].to_vec())),
        }
    }

    #[test]
    fn a_divergent_sweep_arrives_minimised_as_a_test() {
        let stream = generated(Some(1), 100, 9, 12, QueryGenerator::next_query);
        let sweep = Sweep::new(22, 40, 7, stream);
        let diff = Diff::new(LIGHT).engine("fake_engine", fake_engine);
        let Err(Failure::Read(at, divergence)) = diff.replay(&sweep) else {
            panic!("the fake must diverge on a read")
        };
        // The fake first diverges past the stream's third round.
        assert!(at > 26, "{divergence}");
        let (s, divergence) = diff.minimise(sweep, at, divergence);
        let printed = diff.render(&s);
        assert!(
            s.stream.len() <= 3 && s.nodes <= 10,
            "{divergence}\n{printed}"
        );
        // The printed test is `minimised_divergence` below, modulo
        // formatting: it compiles, and fails against the fake.
        let normal = |s: &str| {
            let s: String = s.split_whitespace().collect();
            s.replace(",)", ")").replace(",]", "]")
        };
        let source = normal(include_str!("diff.rs"));
        let printed = printed.strip_prefix("#[test]").unwrap();
        assert!(source.contains(&normal(printed)), "{printed}");
    }

    #[test]
    #[should_panic(expected = "disagrees with the oracle")]
    fn minimised_divergence() {
        use cypher_tck::diff::{Stmt::*, *};
        let stream = vec![
            Update("CREATE (:B {v: 7, i: 1000})".into()),
            Read("MATCH (n0) RETURN count(*) AS c".into()),
        ];
        let diff = Diff::new(LIGHT).engine("fake_engine", fake_engine);
        diff.sweep(Sweep::new(0, 0, 7, stream));
    }
}
