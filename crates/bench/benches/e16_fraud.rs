//! Experiment E16: the Section 3 fraud-ring query over growing account
//! graphs — label-predicate filtering, `collect` and grouped counting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_read, run_reference, Params};
use cypher_workload::fraud_rings;

const QUERY: &str = "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo)
    WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address
    WITH pInfo,
         collect(accHolder.uniqueId) AS accountHolders,
         count(*) AS fraudRingCount
    WHERE fraudRingCount > 1
    RETURN accountHolders, labels(pInfo) AS personalInformation, fraudRingCount";

fn bench(c: &mut Criterion) {
    let params = Params::new();
    let mut group = c.benchmark_group("e16_fraud");
    for holders in [100usize, 400, 1600] {
        let g = fraud_rings(holders, holders / 20, 4, 7);
        group.bench_with_input(BenchmarkId::new("engine", holders), &g, |b, g| {
            b.iter(|| run_read(g, QUERY, &params).unwrap())
        });
        if holders <= 400 {
            group.bench_with_input(BenchmarkId::new("reference", holders), &g, |b, g| {
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
