//! Experiment E18 (performance half): the literal denotational semantics
//! (naive enumeration over all nodes) vs the planned engine (label-scan
//! anchors + Expand), on the same queries and graphs.
//!
//! Shape expected: identical outputs (checked by tests/differential.rs);
//! the engine wins by a factor that grows with graph size because its
//! anchor selection avoids scanning the whole node set per driving row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_read, run_reference, Params};
use cypher_workload::citation_network;

const QUERIES: &[(&str, &str)] = &[
    (
        "label_anchor",
        "MATCH (r:Researcher)-[:AUTHORS]->(p:Publication) RETURN count(*) AS c",
    ),
    (
        "two_hop",
        "MATCH (r:Researcher)-[:AUTHORS]->(p)-[:CITES]->(q) RETURN count(*) AS c",
    ),
    (
        "var_length",
        "MATCH (p:Publication)<-[:CITES*1..3]-(q) RETURN count(*) AS c",
    ),
    (
        "aggregation",
        "MATCH (r:Researcher)-[:AUTHORS]->(p) RETURN r.name, count(p) AS pubs",
    ),
    // Anchor-sensitive shapes: the planner's property-index lookup and
    // anchor reordering pay off here; the reference walks left to right.
    (
        "selective_anchor",
        "MATCH (p:Publication)-[:CITES]->(q:Publication {acmid: 0}) RETURN count(*) AS c",
    ),
    (
        "mid_anchor",
        "MATCH (a:Publication)-[:CITES]->(b {acmid: 1})-[:CITES]->(c) RETURN count(*) AS c",
    ),
];

fn bench(c: &mut Criterion) {
    let params = Params::new();
    let mut group = c.benchmark_group("e18_reference_vs_engine");
    for pubs in [100usize, 400] {
        let g = citation_network(pubs / 10 + 2, pubs, 2, 42);
        for (name, q) in QUERIES {
            group.bench_with_input(
                BenchmarkId::new(format!("engine/{name}"), pubs),
                &g,
                |b, g| b.iter(|| run_read(g, q, &params).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("reference/{name}"), pubs),
                &g,
                |b, g| b.iter(|| run_reference(g, q, &params).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
