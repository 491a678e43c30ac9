//! Experiment E17: the paper's `Expand` claim (Section 2): "Expand never
//! needs to read any unnecessary data, or proceed via an indirection such
//! as an index in order to find related nodes."
//!
//! Shape expected: Expand-based plans scale with output size (anchor
//! cardinality × fan-out), while the relational baseline — cartesian node
//! scans filtered through relationship scans — scales with |V|·|R| and
//! loses by a rapidly growing factor as the graph grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_read_with, EngineConfig, Params, PlannerMode};
use cypher_workload::social_network;

const ONE_HOP: &str = "MATCH (a:Person)-[:FRIEND]->(b:Person) RETURN count(*) AS c";
const TWO_HOP: &str =
    "MATCH (a:Person)-[:FRIEND]->(b:Person)-[:FRIEND]->(c:Person) RETURN count(*) AS c";

fn bench(c: &mut Criterion) {
    let params = Params::new();
    let expand = EngineConfig::default();
    let cartesian = EngineConfig {
        planner_mode: PlannerMode::CartesianJoin,
        ..EngineConfig::default()
    };

    let mut group = c.benchmark_group("e17_expand_vs_join");
    group.measurement_time(std::time::Duration::from_secs(6));
    for persons in [25usize, 50, 100] {
        let g = social_network(persons, 5, 4, 3);
        group.bench_with_input(BenchmarkId::new("expand/one_hop", persons), &g, |b, g| {
            b.iter(|| run_read_with(g, ONE_HOP, &params, &expand).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("cartesian/one_hop", persons),
            &g,
            |b, g| b.iter(|| run_read_with(g, ONE_HOP, &params, &cartesian).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("expand/two_hop", persons), &g, |b, g| {
            b.iter(|| run_read_with(g, TWO_HOP, &params, &expand).unwrap())
        });
        // The baseline's two-hop cost is |V|³·|R|²-flavoured; only the
        // smallest size is affordable (that *is* the experiment's point).
        if persons <= 25 {
            group.bench_with_input(
                BenchmarkId::new("cartesian/two_hop", persons),
                &g,
                |b, g| b.iter(|| run_read_with(g, TWO_HOP, &params, &cartesian).unwrap()),
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
