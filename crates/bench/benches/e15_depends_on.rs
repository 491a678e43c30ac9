//! Experiment E15: the Section 3 network-management query (transitive
//! `DEPENDS_ON*`) over growing synthetic data centers, planner engine vs
//! reference evaluator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_read, run_reference, Params};
use cypher_workload::datacenter;

const QUERY: &str = "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service)
    RETURN svc.name AS svc, count(DISTINCT dep) AS dependents
    ORDER BY dependents DESC
    LIMIT 1";

fn bench(c: &mut Criterion) {
    let params = Params::new();
    let mut group = c.benchmark_group("e15_depends_on");
    for services in [50usize, 100, 200] {
        let g = datacenter(services, 4, 2, 42);
        group.bench_with_input(BenchmarkId::new("engine", services), &g, |b, g| {
            b.iter(|| run_read(g, QUERY, &params).unwrap())
        });
        if services <= 100 {
            group.bench_with_input(BenchmarkId::new("reference", services), &g, |b, g| {
                b.iter(|| run_reference(g, QUERY, &params).unwrap())
            });
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
