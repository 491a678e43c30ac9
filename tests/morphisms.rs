//! Experiment E14: the morphism discussion of Sections 4.2 and 8.
//!
//! Section 4.2 motivates relationship isomorphism with the pattern
//! `(x)-[*0..]->(x)` on a single-node, single-self-loop graph: under
//! homomorphism it matches infinitely often, under Cypher's semantics
//! exactly twice. Section 8 ("Configurable morphisms") envisions letting
//! queries choose; this suite pins the behaviour of all three modes.

use cypher::{Database, EngineConfig, MatchConfig, Morphism, Params, PropertyGraph, Value};
use cypher_tck::diff::{graph, Diff, LIGHT, PARALLEL};

fn cfg(morphism: Morphism, cap: u64) -> MatchConfig {
    MatchConfig {
        morphism,
        var_length_cap: cap,
    }
}

/// The `count(*)` of `q` on `g` under `morphism` with `∞` clamped to
/// `cap`, through the differential harness.
fn count(g: &PropertyGraph, q: &str, morphism: Morphism, cap: u64) -> Value {
    let t = Diff::new(LIGHT).matching(cfg(morphism, cap)).rows(g, q);
    t.cell(0, "c").unwrap().clone()
}

#[test]
fn e14_self_loop_edge_isomorphism_yields_two() {
    // "two matches will be returned: one for traversing the unique edge
    //  zero times, one for traversing it a single time."
    let q = "MATCH (x)-[*0..]->(x) RETURN count(*) AS c";
    let g = graph(&["CREATE (n)-[:LOOP]->(n)"]);
    let c = count(&g, q, Morphism::EdgeIsomorphism, 64);
    assert_eq!(c, Value::int(2));
}

#[test]
fn e14_homomorphism_grows_with_the_cap() {
    // Under homomorphism the same pattern denotes unboundedly many walks;
    // the matcher clamps ∞ to the configured cap, and the count grows
    // linearly with it (cap + 1 walks: 0..=cap traversals).
    let g = graph(&["CREATE (n)-[:LOOP]->(n)"]);
    let q = "MATCH (x)-[*0..]->(x) RETURN count(*) AS c";
    for cap in [1u64, 4, 16] {
        let c = count(&g, q, Morphism::Homomorphism, cap);
        assert_eq!(c, Value::int(cap as i64 + 1), "cap {cap}");
    }
}

#[test]
fn e14_homomorphism_exponential_on_parallel_edges() {
    // Two parallel self-loops: k-hop homomorphic walks number 2^k, while
    // edge isomorphism caps at walks using each edge at most once.
    let g = graph(&["CREATE (n)-[:L]->(n), (n)-[:L]->(n)"]);
    let q = "MATCH (x)-[*2..2]->(x) RETURN count(*) AS c";
    let homo = count(&g, q, Morphism::Homomorphism, 8);
    assert_eq!(homo, Value::int(4)); // 2^2
    let edge = count(&g, q, Morphism::EdgeIsomorphism, 8);
    assert_eq!(edge, Value::int(2)); // the 2 orderings
}

#[test]
fn e14_node_isomorphism_strictest() {
    // Path a→b→c→a (triangle): 3-hop cycles exist under edge isomorphism
    // but not under node isomorphism; homomorphism adds back-and-forth
    // walks on top.
    let g = graph(&["CREATE (a)-[:E]->(b)-[:E]->(c)-[:E]->(a)"]);
    let q = "MATCH (x)-[*3..3]->(x) RETURN count(*) AS c";
    assert_eq!(count(&g, q, Morphism::EdgeIsomorphism, 8), Value::int(3));
    assert_eq!(count(&g, q, Morphism::NodeIsomorphism, 8), Value::int(0));
    assert_eq!(
        count(&g, q, Morphism::Homomorphism, 8),
        Value::int(3),
        "triangle has no 3-walk besides the cycles"
    );
}

#[test]
fn e14_engine_matches_node_isomorphism() {
    // The planner engine matches node isomorphism itself — its plans end
    // in the `DistinctNodes` filter — and must agree with the reference.
    let g = graph(&["CREATE (a:P)-[:E]->(b:P)-[:E]->(c:P)-[:E]->(a)"]);
    let node_iso = Diff::new(LIGHT).matching(cfg(Morphism::NodeIsomorphism, 8));
    for q in [
        "MATCH (x)-[]->(y)-[]->(z) RETURN count(*) AS c",
        "MATCH (x:P) OPTIONAL MATCH (x)-[]->(y)-[]->(x) RETURN x, y",
    ] {
        node_iso.rows(&g, q);
    }
}

#[test]
fn e14_morphisms_agree_on_acyclic_simple_graphs() {
    // On a DAG without parallel edges and patterns shorter than the
    // shortest cycle, all three morphisms coincide.
    let g = cypher::workload::chain(6);
    let q = "MATCH (a)-[:NEXT*1..3]->(b) RETURN count(*) AS c";
    let mut results = Vec::new();
    for m in [
        Morphism::EdgeIsomorphism,
        Morphism::NodeIsomorphism,
        Morphism::Homomorphism,
    ] {
        results.push(count(&g, q, m, 16));
    }
    assert!(
        results.windows(2).all(|w| w[0].equivalent(&w[1])),
        "{results:?}"
    );
}

/// The triangle a→b→c→a plus the tail edge c→d.
const TRIANGLE_WITH_TAIL: &str = "CREATE (a:P {i: 0})-[:E]->(b:P {i: 1})-[:E]->(c:P {i: 2}), \
     (c)-[:E]->(a), (c)-[:E]->(d:P {i: 3})";

fn engine_cfg(morphism: Morphism) -> EngineConfig {
    EngineConfig {
        match_config: cfg(morphism, 8),
        ..EngineConfig::default()
    }
}

/// The positional rule of node isomorphism, engine against oracle: the
/// node sequences of one clause's paths, taken together, repeat no node;
/// a zero-hop step's endpoint is its start's position; separate clauses
/// are separate matches.
#[test]
fn e14_node_isomorphism_probe_shapes() {
    let g = graph(&[TRIANGLE_WITH_TAIL]);
    let node_iso = Diff::new(PARALLEL).matching(cfg(Morphism::NodeIsomorphism, 8));
    for (pattern, want) in [
        ("MATCH (x)-->(y)-->(z)", 4),
        ("MATCH (x)-->(y), (y)-->(z)", 0),
        ("MATCH (x)-->(y) MATCH (y)-->(z)", 4),
        ("MATCH (x)-[*0..2]->(y)", 12),
        ("MATCH (x)-[*0..0]->(y)", 4),
        ("MATCH (x)-[*1..3]->(x)", 0),
        ("MATCH (x)-[*0..2]->(y)-->(z)", 9),
    ] {
        let q = format!("{pattern} RETURN count(*) AS c");
        let t = node_iso.rows(&g, &q);
        assert_eq!(t.cell(0, "c"), Some(&Value::int(want)), "{q}");
    }
}

/// The pruning check: under node isomorphism the variable-length
/// `Expand` never steps back onto its own traversal, so it emits exactly
/// the node-simple paths (9 here: 4 + 4 + a→b→c→d) and the closing
/// `DistinctNodes` filter drops nothing; under edge isomorphism it also
/// walks the three 3-cycles.
#[test]
fn e14_variable_length_expand_emits_only_node_simple_paths() {
    let q = "MATCH (x)-[*1..3]->(y) RETURN count(*) AS c";
    let rows = |morphism| {
        let mut config = engine_cfg(morphism);
        config.persistence = None;
        let db = Database::open_with(config).unwrap();
        db.session()
            .query(TRIANGLE_WITH_TAIL, &Params::new())
            .unwrap();
        let report = db.profile(q, &Params::new()).unwrap();
        let ops = &report.profile.clauses[0].operators;
        let rows_of = |name: &str| {
            let op = ops.iter().find(|o| o.operator.starts_with(name));
            op.unwrap_or_else(|| panic!("no {name} in\n{}", report.text))
                .rows
        };
        let expand = rows_of("Expand");
        let kept = ops.iter().any(|o| o.operator.starts_with("DistinctNodes"));
        assert_eq!(
            kept,
            morphism == Morphism::NodeIsomorphism,
            "{}",
            report.text
        );
        if kept {
            assert_eq!(rows_of("DistinctNodes"), expand, "{}", report.text);
        }
        assert_eq!(report.result.cell(0, "c"), Some(&Value::int(expand as i64)));
        expand
    };
    assert_eq!(rows(Morphism::NodeIsomorphism), 9);
    assert_eq!(rows(Morphism::EdgeIsomorphism), 12);
}

/// `EXPLAIN` under node isomorphism shows the operator pipeline, closed by
/// the filter over the clause's paths.
#[test]
fn e14_node_isomorphism_explains_the_distinct_nodes_filter() {
    let g = graph(&[TRIANGLE_WITH_TAIL]);
    let q = cypher::parse_query("MATCH (x)-[r]->(y), (y)-[*0..2]->(z) RETURN x").unwrap();
    let plan = cypher_engine::explain(&g, &q, &engine_cfg(Morphism::NodeIsomorphism));
    assert!(plan.contains("Expand"), "{plan}");
    assert!(
        plan.contains("DistinctNodes((x)-[r]-(y), (y)-[ anon0*]-(z))"),
        "{plan}"
    );
    let edge = cypher_engine::explain(&g, &q, &engine_cfg(Morphism::EdgeIsomorphism));
    assert!(!edge.contains("DistinctNodes"), "{edge}");
}
