//! Experiment E14: morphism ablation (paper §4.2 complexity discussion and
//! §8 "Configurable morphisms").
//!
//! Shape expected: on cyclic graphs, homomorphic matching cost explodes
//! with the hop cap while edge-isomorphism stays bounded by |R| — the
//! reason Cypher "chose to disallow repeating relationship edges".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cypher::{run_reference_with, MatchConfig, Morphism, Params, PropertyGraph};

/// A directed cycle of `n` nodes, every node also carrying a chord — rich
/// in walks, poor in simple paths.
fn cycle_with_chords(n: u64) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let ids: Vec<_> = (0..n).map(|_| g.add_node(&["N"], [])).collect();
    for i in 0..n as usize {
        g.add_rel(ids[i], ids[(i + 1) % n as usize], "E", [])
            .unwrap();
        g.add_rel(ids[i], ids[(i + 2) % n as usize], "E", [])
            .unwrap();
    }
    g
}

fn bench(c: &mut Criterion) {
    let params = Params::new();
    let g = cycle_with_chords(12);
    let q = "MATCH (x)-[:E*1..]->(y) RETURN count(*) AS c";
    let mut group = c.benchmark_group("e14_morphism");

    for cap in [4u64, 6, 8] {
        group.bench_with_input(
            BenchmarkId::new("homomorphism/cap", cap),
            &cap,
            |b, &cap| {
                let cfg = MatchConfig {
                    morphism: Morphism::Homomorphism,
                    var_length_cap: cap,
                };
                b.iter(|| run_reference_with(&g, q, &params, cfg).unwrap())
            },
        );
    }
    // Edge isomorphism needs no cap: bounded by edge distinctness.
    group.bench_function("edge_isomorphism/unbounded", |b| {
        let cfg = MatchConfig {
            morphism: Morphism::EdgeIsomorphism,
            var_length_cap: 8,
        };
        // Bound the pattern to the same depth for a fair comparison.
        let q_bounded = "MATCH (x)-[:E*1..8]->(y) RETURN count(*) AS c";
        b.iter(|| run_reference_with(&g, q_bounded, &params, cfg).unwrap())
    });
    group.bench_function("node_isomorphism/bounded", |b| {
        let cfg = MatchConfig {
            morphism: Morphism::NodeIsomorphism,
            var_length_cap: 8,
        };
        let q_bounded = "MATCH (x)-[:E*1..8]->(y) RETURN count(*) AS c";
        b.iter(|| run_reference_with(&g, q_bounded, &params, cfg).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
