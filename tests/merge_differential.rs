//! MERGE differential: the engine's `MERGE` — its pattern planned once per
//! clause and run per driving row on the morsel driver — against a
//! test-side oracle loop that, per driving row, asks the reference
//! matcher (`cypher_core::matching::match_patterns`) for the matches on
//! the graph as earlier rows left it, or else creates the pattern.
//!
//! Driving tables are generated with duplicate keys, so later rows match
//! what earlier rows created. Node and path `MERGE` each run with and
//! without `ON CREATE` / `ON MATCH`, under every morphism, at every cell
//! of `cypher_tck::diff::LIGHT`. The returned rows must agree as bags and
//! the graphs' `canonical_dump`s exactly.
//!
//! **Order of `ON MATCH`.** The engine applies `ON MATCH` to a driving
//! row's matches in its plan's row order — the order a `MATCH` of the same
//! pattern returns them. The `ON MATCH` writes below are increments,
//! which commute, so the oracle's matcher order must give the same graph.

use cypher::ast::pattern::PathPattern;
use cypher::workload::random_graph;
use cypher::{
    parse_query, run_reference_with, run_with, Database, EngineConfig, EvalContext, MatchConfig,
    Morphism, Params, PropertyGraph, Record, Table, Value,
};
use cypher_core::expr::Bindings;
use cypher_core::matching::{match_patterns, unbound_free_vars};
use cypher_tck::diff::{config, graph, CYCLIC, LIGHT};

/// What the oracle does where the engine's `MERGE` creates or sets: given
/// the graph, the driving row's values and (after creation or per match)
/// the new names' values.
type Create = fn(&mut PropertyGraph, &[Value]) -> Vec<Value>;
type SetOn = fn(&mut PropertyGraph, &[Value], &[Value]);

struct Case {
    /// The statement prefix that yields the driving table.
    driving: &'static str,
    /// The `MERGE` clause, appended to `driving`.
    merge: &'static str,
    /// The oracle's creation of the pattern, answering the new names'
    /// values in binding order.
    create: Create,
    on_create: SetOn,
    on_match: SetOn,
}

/// `row.<key>` of a driving row whose first field is the map `row`.
fn field(row: &[Value], key: &str) -> Value {
    match &row[0] {
        Value::Map(m) => m.get(key).cloned().unwrap_or(Value::Null),
        other => panic!("row is {other:?}"),
    }
}

fn node(v: &Value) -> cypher::NodeId {
    match v {
        Value::Node(n) => *n,
        other => panic!("expected a node, got {other:?}"),
    }
}

fn rel(v: &Value) -> cypher::RelId {
    match v {
        Value::Rel(r) => *r,
        other => panic!("expected a relationship, got {other:?}"),
    }
}

fn create_p(g: &mut PropertyGraph, row: &[Value]) -> Vec<Value> {
    vec![Value::Node(g.add_node(&["P"], [("k", field(row, "k"))]))]
}

fn create_edge(g: &mut PropertyGraph, row: &[Value]) -> Vec<Value> {
    let b = g.add_node(&["Q"], [("k", field(row, "j"))]);
    let r = g.add_rel(node(&row[1]), b, "R", []).unwrap();
    vec![Value::Rel(r), Value::Node(b)]
}

fn nothing(_: &mut PropertyGraph, _: &[Value], _: &[Value]) {}

/// `ON CREATE SET n.made = row.j`.
fn node_made(g: &mut PropertyGraph, row: &[Value], new: &[Value]) {
    let k = g.intern("made");
    g.set_node_prop(node(&new[0]), k, field(row, "j")).unwrap();
}

/// `ON MATCH SET n.hits = coalesce(n.hits, 0) + 1`.
fn node_hit(g: &mut PropertyGraph, _: &[Value], new: &[Value]) {
    let (n, k) = (node(&new[0]), g.intern("hits"));
    let hits = g.node_prop(n, k).cloned().unwrap_or(Value::int(0));
    let Value::Integer(h) = hits else { panic!() };
    g.set_node_prop(n, k, Value::int(h + 1)).unwrap();
}

/// `ON CREATE SET r.w = row.k`.
fn rel_made(g: &mut PropertyGraph, row: &[Value], new: &[Value]) {
    let k = g.intern("w");
    g.set_rel_prop(rel(&new[0]), k, field(row, "k")).unwrap();
}

/// `ON MATCH SET r.seen = coalesce(r.seen, 0) + 1`.
fn rel_seen(g: &mut PropertyGraph, _: &[Value], new: &[Value]) {
    let (r, k) = (rel(&new[0]), g.intern("seen"));
    let seen = g.rel_prop(r, k).cloned().unwrap_or(Value::int(0));
    let Value::Integer(s) = seen else { panic!() };
    g.set_rel_prop(r, k, Value::int(s + 1)).unwrap();
}

const CASES: &[Case] = &[
    Case {
        driving: "UNWIND $rows AS row",
        merge: "MERGE (n:P {k: row.k})",
        create: create_p,
        on_create: nothing,
        on_match: nothing,
    },
    Case {
        driving: "UNWIND $rows AS row",
        merge: "MERGE (n:P {k: row.k}) ON CREATE SET n.made = row.j \
                ON MATCH SET n.hits = coalesce(n.hits, 0) + 1",
        create: create_p,
        on_create: node_made,
        on_match: node_hit,
    },
    Case {
        driving: "UNWIND $rows AS row MATCH (a:P {k: row.k})",
        merge: "MERGE (a)-[r:R]->(b:Q {k: row.j})",
        create: create_edge,
        on_create: nothing,
        on_match: nothing,
    },
    Case {
        driving: "UNWIND $rows AS row MATCH (a:P {k: row.k})",
        merge: "MERGE (a)-[r:R]->(b:Q {k: row.j}) ON CREATE SET r.w = row.k \
                ON MATCH SET r.seen = coalesce(r.seen, 0) + 1",
        create: create_edge,
        on_create: rel_made,
        on_match: rel_seen,
    },
];

/// A small deterministic generator (xorshift).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> i64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n) as i64
    }
}

/// The base graph: a random graph plus `:P` nodes over keys 0..5 with
/// key 1 twice and key 4 absent, `:Q` nodes over keys 0..2 and a few
/// `R` edges between them — so MERGE meets zero, one and two matches.
fn base(seed: u64) -> PropertyGraph {
    let mut g = random_graph(8, 12, &["A", "B"], &["X", "Y"], seed);
    let p: Vec<_> = [0, 1, 1, 2, 3, 5]
        .map(|k| g.add_node(&["P"], [("k", Value::int(k))]))
        .into();
    let q: Vec<_> = [0, 1, 2]
        .map(|k| g.add_node(&["Q"], [("k", Value::int(k))]))
        .into();
    for (a, b) in [(0, 0), (1, 1), (2, 1), (3, 2), (3, 2)] {
        g.add_rel(p[a], q[b], "R", []).unwrap();
    }
    g
}

/// A driving list of `{k, j}` maps over few keys, so duplicates abound.
fn driving_rows(rng: &mut Rng) -> Value {
    let n = rng.below(14);
    let row = |rng: &mut Rng| {
        let (k, j) = (rng.below(7), rng.below(4));
        Value::map([("k".into(), Value::int(k)), ("j".into(), Value::int(j))])
    };
    Value::List((0..n).map(|_| row(rng)).collect())
}

/// The oracle: the driving table by the reference evaluator, then, per
/// row, the reference matcher's matches or else the creation.
fn oracle(g: &mut PropertyGraph, case: &Case, params: &Params, mc: MatchConfig) -> Table {
    let q = format!("{} RETURN *", case.driving);
    let driving = run_reference_with(g, &q, params, mc).unwrap();
    let merge = parse_query(&format!("{} {} RETURN *", case.driving, case.merge)).unwrap();
    let pattern = merge_pattern(&merge);
    let schema = driving.schema().clone();
    let new_vars = unbound_free_vars(std::slice::from_ref(&pattern), &|n| schema.contains(n));
    let mut out = Table::empty(cypher::Schema::new([schema.names(), &new_vars].concat()));
    for row in driving.rows() {
        let matches = {
            let ctx = EvalContext::new(g, params).with_config(mc);
            let b = Bindings::new(&schema, row);
            match_patterns(&ctx, &b, std::slice::from_ref(&pattern)).unwrap()
        };
        let vals = row.values();
        if matches.is_empty() {
            let made = (case.create)(g, vals);
            (case.on_create)(g, vals, &made);
            out.push(Record::new([vals, &made].concat()));
        }
        for m in matches {
            let get = |v: &String| m.iter().find(|(n, _)| n == v).unwrap().1.clone();
            let found: Vec<Value> = new_vars.iter().map(get).collect();
            (case.on_match)(g, vals, &found);
            out.push(Record::new([vals, &found].concat()));
        }
    }
    out
}

fn merge_pattern(q: &cypher::ast::query::Query) -> PathPattern {
    let cypher::ast::query::Query::Single(sq) = q else {
        panic!("single query")
    };
    let merge = sq.clauses.iter().find_map(|c| match c {
        cypher::ast::query::Clause::Merge { pattern, .. } => Some(pattern.clone()),
        _ => None,
    });
    merge.expect("a MERGE clause")
}

#[test]
fn merge_matches_the_oracle_loop_over_generated_driving_tables() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let (mut created, mut matched) = (0, 0);
    for seed in 0..6u64 {
        let rows = driving_rows(&mut rng);
        let mut params = Params::new();
        params.insert("rows".into(), rows.clone());
        for case in CASES {
            let text = format!("{} {} RETURN *", case.driving, case.merge);
            for morphism in [
                Morphism::EdgeIsomorphism,
                Morphism::NodeIsomorphism,
                Morphism::Homomorphism,
            ] {
                let mc = MatchConfig {
                    morphism,
                    ..MatchConfig::default()
                };
                let mut want_graph = base(seed);
                let before = want_graph.node_count() + want_graph.rel_count();
                let want = oracle(&mut want_graph, case, &params, mc);
                let grew = want_graph.node_count() + want_graph.rel_count() > before;
                (created, matched) = (created + grew as usize, matched + !grew as usize);
                for &cell in LIGHT {
                    let mut g = base(seed);
                    let got = run_with(&mut g, &text, &params, &config(cell, mc))
                        .unwrap_or_else(|e| panic!("{text} failed: {e}"));
                    let at = format!("{text} with rows {rows:?} ({morphism:?}, {cell:?})");
                    assert!(got.bag_eq(&want), "{at}\nengine:\n{got}\noracle:\n{want}");
                    assert_eq!(g.canonical_dump(), want_graph.canonical_dump(), "{at}");
                }
            }
        }
    }
    // Both branches ran: some statements created, some only matched.
    assert!(
        created > 0 && matched > 0,
        "created {created}, matched {matched}"
    );
}

/// `EXPLAIN` renders MERGE's match plan as a segment labelled `MERGE`:
/// planned over the driving columns, so a bound node is an `Argument`,
/// and a constant key is an index seek.
#[test]
fn explain_shows_the_merge_match_plan() {
    let g = base(0);
    // Plan text at the built-in cell; results are swept above.
    let cfg = EngineConfig::default();
    let explain = |q: &str| cypher_engine::explain(&g, &parse_query(q).unwrap(), &cfg);
    let keyed = explain("MERGE (n:P {k: 4}) RETURN n");
    assert!(
        keyed.contains("MERGE plan:\nPropertyIndexSeek(n:P.k = 4)  (est rows:"),
        "{keyed}"
    );
    let path = explain("MATCH (a:P {k: 1}) MERGE (a)-[r:R]->(b:Q) RETURN r");
    let merge = path.split_once("MERGE plan:\n").map(|(_, m)| m);
    let steps: Vec<&str> = merge.unwrap_or_default().lines().collect();
    assert!(steps[0].starts_with("Argument(a)  "), "{path}");
    assert!(steps[1].starts_with(" Expand(a)->[r:R](b)  "), "{path}");
}

/// `MERGE` runs each driving row's match plan on the calling thread: a
/// per-row scan over 4 000 `:P` nodes is far above the parallel gate, yet
/// starting the worker pool once per row costs more than it saves. At 4
/// threads the statement engages no parallel run and leaves the graph the
/// 1-thread run leaves.
#[test]
fn merge_matches_each_driving_row_on_the_calling_thread() {
    let params = Params::new();
    let dump = |num_threads: usize| {
        let mut db = Database::open_with(EngineConfig {
            persistence: None,
            num_threads,
            ..EngineConfig::default()
        })
        .unwrap();
        db.query("UNWIND range(1, 4000) AS i CREATE (:P {k: i})", &params)
            .unwrap();
        let runs = |db: &Database| {
            db.exec_metrics()
                .expect("metrics are on")
                .parallel_runs
                .get()
        };
        let before = runs(&db);
        db.query("UNWIND range(0, 199) AS i MERGE (n:P {k: i})", &params)
            .unwrap();
        assert_eq!(runs(&db), before, "parallel runs at {num_threads} threads");
        db.graph().canonical_dump()
    };
    assert_eq!(dump(4), dump(1));
}

/// A `MERGE` that closes triangles through a hub, fed in scrambled order
/// so the hub's list is appended out of order, then a triangle `MATCH` in
/// the same statement: at every cell of `CYCLIC` (forced intersection
/// included, the one operator that reads list order) the `MATCH` finds
/// every triangle the oracle finds on the graph the statement leaves, so
/// the lists were sorted when the `MERGE` clause ended.
#[test]
fn a_match_after_merge_into_a_hub_reads_sorted_lists() {
    let base = graph(&[
        "UNWIND range(0, 59) AS k CREATE (:P {k: k, s: (k * 37) % 60})",
        "MATCH (a:P), (b:P) WHERE b.k = a.k + 1 CREATE (a)-[:NEXT]->(b)",
        "CREATE (:Hub)",
        "MATCH (h:Hub), (p:P) WHERE p.k % 7 = 0 CREATE (h)-[:L]->(p)",
    ]);
    let merge = "MATCH (h:Hub), (p:P) WITH h, p ORDER BY p.s MERGE (h)-[:L]->(p)";
    let triangles = "MATCH (h:Hub)-[:L]->(a)-[:NEXT]->(b), (h)-[:L]->(b) RETURN a.k AS a, b.k AS b";
    let stmt = format!("{merge} WITH count(*) AS m {triangles}");
    let (params, mc) = (Params::new(), MatchConfig::default());
    for &cell in CYCLIC {
        let mut g = base.clone();
        let got = run_with(&mut g, &stmt, &params, &config(cell, mc))
            .unwrap_or_else(|e| panic!("{cell:?}: {e}"));
        let want = run_reference_with(&g, triangles, &params, mc).unwrap();
        assert_eq!(want.len(), 59, "every NEXT edge closes a triangle");
        assert!(
            got.bag_eq(&want),
            "{cell:?}\nengine:\n{got}\noracle:\n{want}"
        );
    }
}
