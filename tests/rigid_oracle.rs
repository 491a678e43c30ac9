//! The rigid-expansion oracle: Section 4.2
//! defines satisfaction of a variable-length pattern π through the set
//! `rigid(π)` of rigid patterns it subsumes, and `match(π̄, G, u)` as a bag
//! union over `π̄′ ∈ rigid(π̄)`. Our matcher instead runs a DFS over hop
//! counts. This suite *materializes* `rigid(π)` for bounded ranges,
//! evaluates every rigid expansion separately, takes the bag union, and
//! checks it equals the DFS result — multiplicities included.

use cypher::ast::pattern::{PathPattern, RangeSpec};
use cypher::workload::random_graph;
use cypher::{parse_pattern, EvalContext, Params, PropertyGraph, Value};
use cypher_core::expr::NoVars;
use cypher_core::matching::match_patterns;

/// All rigid expansions of a path pattern with bounded ranges: the
/// cartesian product over each variable-length step's `[lo, hi]` choices,
/// each choice `k` yielding the rigid range `(k, k)`.
fn rigid_expansions(pat: &PathPattern) -> Vec<PathPattern> {
    let mut out = vec![pat.clone()];
    for (i, (rho, _)) in pat.steps.iter().enumerate() {
        if let RangeSpec::Var(lo, hi) = rho.range {
            let lo = lo.unwrap_or(1);
            let hi = hi.expect("oracle requires bounded ranges");
            let mut next = Vec::new();
            for p in &out {
                for k in lo..=hi {
                    let mut q = p.clone();
                    q.steps[i].0.range = RangeSpec::Var(Some(k), Some(k));
                    next.push(q);
                }
            }
            out = next;
        }
    }
    out
}

/// Canonical, comparable form of a match row.
fn canon(rows: Vec<Vec<(String, Value)>>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|mut r| {
            r.sort_by(|a, b| a.0.cmp(&b.0));
            r.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    out.sort();
    out
}

fn check_pattern(g: &PropertyGraph, pattern: &str) {
    let params = Params::new();
    let ctx = EvalContext::new(g, &params);
    let pat = parse_pattern(pattern).unwrap();

    // Direct DFS evaluation.
    let direct = match_patterns(&ctx, &NoVars, std::slice::from_ref(&pat)).unwrap();

    // Oracle: bag union over all rigid expansions.
    let mut oracle = Vec::new();
    for rigid in rigid_expansions(&pat) {
        let rows = match_patterns(&ctx, &NoVars, std::slice::from_ref(&rigid)).unwrap();
        oracle.extend(rows);
    }

    assert_eq!(
        canon(direct),
        canon(oracle),
        "DFS ≠ rigid-expansion oracle for {pattern}"
    );
}

const PATTERNS: &[&str] = &[
    "(a)-[:X*1..3]->(b)",
    "(a)-[:X*0..2]->(b)",
    "(a)-[r:X*1..2]->(b)",
    "(a)-[:X*2..2]->(b)",
    "(a)-[:X*1..2]->(b)-[:Y*1..2]->(c)",
    "(a:A)-[:X*1..3]->(b:B)",
    "(a)-[:X*1..2]-(b)",
    "(a)<-[:X*1..2]-(b)",
    "(a)-[:X*0..1]->(a)",
    "(a)-[:X*1..2]->()-[:Y]->(c)",
];

#[test]
fn oracle_on_random_graphs() {
    for seed in 0..6 {
        let g = random_graph(8, 14, &["A", "B"], &["X", "Y"], seed);
        for p in PATTERNS {
            check_pattern(&g, p);
        }
    }
}

#[test]
fn oracle_on_figure4() {
    let g = cypher::workload::figure4();
    for p in [
        "(x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher)",
        "(x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher)",
        "(x)-[:KNOWS*1..3]->(y)",
        "(x)-[:KNOWS*0..3]->(y)",
    ] {
        check_pattern(&g, p);
    }
}

#[test]
fn oracle_on_cyclic_graphs() {
    // Cycles stress the relationship-isomorphism bookkeeping.
    let mut g = PropertyGraph::new();
    let a = g.add_node(&["A"], []);
    let b = g.add_node(&["B"], []);
    let c = g.add_node(&[], []);
    g.add_rel(a, b, "X", []).unwrap();
    g.add_rel(b, c, "X", []).unwrap();
    g.add_rel(c, a, "X", []).unwrap();
    g.add_rel(a, a, "X", []).unwrap(); // self-loop
    g.add_rel(b, a, "Y", []).unwrap(); // back edge
    for p in PATTERNS {
        check_pattern(&g, p);
    }
}

#[test]
fn oracle_on_parallel_edges() {
    let mut g = PropertyGraph::new();
    let a = g.add_node(&["A"], []);
    let b = g.add_node(&["B"], []);
    for _ in 0..3 {
        g.add_rel(a, b, "X", []).unwrap();
    }
    g.add_rel(b, a, "X", []).unwrap();
    for p in PATTERNS {
        check_pattern(&g, p);
    }
}

#[test]
fn rigid_expansion_counts() {
    // |rigid(π)| for π with two *1..2 steps is 4, as in Example 4.4.
    let pat = parse_pattern("(x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher)").unwrap();
    assert_eq!(rigid_expansions(&pat).len(), 4);
    let single = parse_pattern("(a)-[:X]->(b)").unwrap();
    assert_eq!(rigid_expansions(&single).len(), 1);
    let wide = parse_pattern("(a)-[:X*0..3]->(b)").unwrap();
    assert_eq!(rigid_expansions(&wide).len(), 4);
}
