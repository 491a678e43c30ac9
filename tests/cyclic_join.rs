//! Differential testing of the **worst-case-optimal multiway intersection
//! join**: every query of a grammar-driven cyclic-pattern workload
//! (triangles, diamonds, 4-cycles) must produce
//!
//! * the **same row sequence** at every thread count and morsel size
//!   *within* one plan policy (`CYPHER_WCO_JOIN` force / off / auto) —
//!   morsel-order merging makes parallel output bit-identical to
//!   sequential output, intersection operators included;
//! * the **same sorted multiset** *across* plan policies and against the
//!   reference oracle — intersection and expand plans bind variables in
//!   different orders, so only bag equality is meaningful across plans.
//!
//! Both are the differential harness's contract (`cypher_tck::diff`) over
//! its [`CYCLIC`] cells.
//!
//! Substrates: the uniform `random_graph` the other differential suites
//! fuzz on, and the preferential-attachment `powerlaw_social` graph whose
//! dense core is the workload the intersection join exists for. A third
//! test churns the graph with generated updates between corpus slices, so
//! the sorted-adjacency snapshot cache must invalidate correctly.

use cypher::workload::{powerlaw_social, QueryGenerator, QueryVocabulary};
use cypher_tck::diff::{generated, Diff, Sweep, CYCLIC};

fn social_vocabulary() -> QueryVocabulary {
    QueryVocabulary {
        labels: vec!["Person".into(), "Bot".into()],
        types: vec!["FOLLOWS".into()],
        int_props: vec!["v".into(), "i".into()],
    }
}

#[test]
fn cyclic_corpus_agrees_across_plans_threads_and_oracle() {
    let rows: Vec<usize> = (0..3u64)
        .flat_map(|seed| {
            let stream = generated(None, 5000 + seed, 1, 50, QueryGenerator::next_cyclic_query);
            Diff::new(CYCLIC).sweep(Sweep::new(20, 60, 400 + seed, stream))
        })
        .collect();
    let (total, nonempty) = (rows.len(), rows.iter().filter(|&&n| n > 0).count());
    assert!(total >= 150, "only {total} cyclic queries generated");
    // Dense 20-node substrates close plenty of cycles: the corpus must
    // exercise real intersections, not prove that empty equals empty.
    assert!(
        nonempty * 4 >= total,
        "cyclic workload too vacuous: {nonempty}/{total} queries returned rows"
    );
}

#[test]
fn powerlaw_corpus_agrees_across_plans_threads_and_oracle() {
    let mut nonempty = 0usize;
    for seed in 0..2u64 {
        let g = powerlaw_social(60, 3, 600 + seed);
        let mut gen = QueryGenerator::with_vocabulary(6000 + seed, social_vocabulary());
        for _ in 0..40 {
            let q = gen.next_cyclic_query();
            if !Diff::new(CYCLIC).rows(&g, &q).is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(
        nonempty >= 10,
        "power-law workload too vacuous: only {nonempty} queries returned rows"
    );
}

#[test]
fn cyclic_corpus_agrees_after_graph_mutations() {
    // Updates bump the graph version; the sorted-adjacency snapshot the
    // intersection operators read must be rebuilt, never served stale.
    let stream = generated(Some(7777), 8000, 6, 12, QueryGenerator::next_cyclic_query);
    Diff::new(CYCLIC).sweep(Sweep::new(18, 50, 123, stream));
}
