//! Experiment E1 (performance dimension): the Section 3 running example,
//! on the literal Figure 1 graph and on scaled-up citation networks.
//! Regenerates the paper's final table on every iteration and reports the
//! cost of each clause prefix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_read, Params};
use cypher_workload::{citation_network, figure1};

const FULL_QUERY: &str = "MATCH (r:Researcher)
    OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
    WITH r, count(s) AS studentsSupervised
    MATCH (r)-[:AUTHORS]->(p1:Publication)
    OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication)
    RETURN r.name, studentsSupervised, count(DISTINCT p2) AS citedCount";

fn bench(c: &mut Criterion) {
    let params = Params::new();
    let mut group = c.benchmark_group("e1_section3");

    // The paper's exact 10-node graph.
    let fig1 = figure1();
    group.bench_function("figure1/full_query", |b| {
        b.iter(|| run_read(&fig1, FULL_QUERY, &params).unwrap())
    });

    // Clause-prefix costs on Figure 1 (the paper walks through these).
    for (name, q) in [
        ("line1_match", "MATCH (r:Researcher) RETURN r"),
        (
            "line2_optional",
            "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) RETURN r, s",
        ),
        (
            "line3_with_count",
            "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
             WITH r, count(s) AS c RETURN r, c",
        ),
    ] {
        group.bench_function(format!("figure1/{name}"), |b| {
            b.iter(|| run_read(&fig1, q, &params).unwrap())
        });
    }

    // Scaled-up citation networks: same query shape, growing data.
    for pubs in [50usize, 200, 800] {
        let g = citation_network(pubs / 10 + 2, pubs, 2, 42);
        group.bench_with_input(
            BenchmarkId::new("citation_network/full_query", pubs),
            &g,
            |b, g| b.iter(|| run_read(g, FULL_QUERY, &params).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
