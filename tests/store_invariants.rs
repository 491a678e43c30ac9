//! Property-based tests for the storage substrate: random update
//! sequences (through the Cypher update language and through the raw API)
//! must preserve the structural invariants of the native store —
//! adjacency lists agree with `src`/`tgt` and are strictly `(node, rel)`-
//! ordered, the label index agrees with `λ`, and cardinality counters
//! agree with live entity counts.

use cypher::{run, Params, PropertyGraph, Value};
use cypher_graph::{Direction, Neighbor};
use proptest::prelude::*;

/// Full structural audit of a graph.
fn audit(g: &PropertyGraph) {
    // Counters agree with iteration.
    assert_eq!(g.nodes().count(), g.node_count());
    assert_eq!(g.rels().count(), g.rel_count());

    // Every relationship is in exactly the right adjacency lists.
    for r in g.rels() {
        let s = g.src(r).unwrap();
        let t = g.tgt(r).unwrap();
        assert!(g.contains_node(s), "src of {r} is live");
        assert!(g.contains_node(t), "tgt of {r} is live");
        let (out, inc) = (Neighbor { node: t, rel: r }, Neighbor { node: s, rel: r });
        assert!(g.out_neighbors(s).contains(&out), "{r} in out({s})");
        assert!(g.in_neighbors(t).contains(&inc), "{r} in in({t})");
    }
    // Adjacency lists contain only live incident relationships, each
    // with its other endpoint, strictly ordered by `(node, rel)`.
    for n in g.nodes() {
        for e in g.out_neighbors(n) {
            assert_eq!((g.src(e.rel), g.tgt(e.rel)), (Some(n), Some(e.node)));
        }
        for e in g.in_neighbors(n) {
            assert_eq!((g.src(e.rel), g.tgt(e.rel)), (Some(e.node), Some(n)));
        }
        for list in [g.out_neighbors(n), g.in_neighbors(n)] {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "{n}: {list:?}");
        }
        // Degree identity.
        let loops = g.out_neighbors(n).iter().filter(|e| e.node == n).count();
        assert_eq!(
            g.degree(n, Direction::Both),
            g.out_neighbors(n).len() + g.in_neighbors(n).len() - loops
        );
    }
    // Label index ↔ λ agreement, both directions.
    let labels: Vec<_> = g.interner().iter().map(|(s, _)| s).collect();
    for l in labels {
        for &n in g.nodes_with_label(l) {
            assert!(g.contains_node(n), "indexed node is live");
            assert!(g.has_label(n, l), "indexed node carries the label");
        }
        assert_eq!(g.label_cardinality(l), g.nodes_with_label(l).len());
    }
    for n in g.nodes() {
        for &l in g.labels(n) {
            assert!(
                g.nodes_with_label(l).contains(&n),
                "labelled node is indexed"
            );
        }
    }
    // Type counters.
    let mut by_type = std::collections::BTreeMap::new();
    for r in g.rels() {
        *by_type.entry(g.rel_type(r).unwrap()).or_insert(0usize) += 1;
    }
    for (t, count) in by_type {
        assert_eq!(g.type_cardinality(t), count);
    }
}

/// One random raw-API mutation.
#[derive(Debug, Clone)]
enum Op {
    AddNode(u8),
    AddRel(u8, u8, u8),
    DeleteRel(u8),
    DetachDeleteNode(u8),
    AddLabel(u8, u8),
    RemoveLabel(u8, u8),
    SetProp(u8, i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AddNode),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, t)| Op::AddRel(a, b, t)),
        any::<u8>().prop_map(Op::DeleteRel),
        any::<u8>().prop_map(Op::DetachDeleteNode),
        (any::<u8>(), any::<u8>()).prop_map(|(n, l)| Op::AddLabel(n, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(n, l)| Op::RemoveLabel(n, l)),
        (any::<u8>(), any::<i64>()).prop_map(|(n, v)| Op::SetProp(n, v)),
    ]
}

fn pick_node(g: &PropertyGraph, salt: u8) -> Option<cypher::NodeId> {
    let nodes: Vec<_> = g.nodes().collect();
    if nodes.is_empty() {
        None
    } else {
        Some(nodes[salt as usize % nodes.len()])
    }
}

fn pick_rel(g: &PropertyGraph, salt: u8) -> Option<cypher::RelId> {
    let rels: Vec<_> = g.rels().collect();
    if rels.is_empty() {
        None
    } else {
        Some(rels[salt as usize % rels.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn raw_api_sequences_preserve_invariants(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let labels = ["L0", "L1", "L2"];
        let types = ["T0", "T1"];
        let mut g = PropertyGraph::new();
        for op in ops {
            match op {
                Op::AddNode(l) => {
                    g.add_node(&[labels[l as usize % 3]], []);
                }
                Op::AddRel(a, b, t) => {
                    if let (Some(x), Some(y)) = (pick_node(&g, a), pick_node(&g, b)) {
                        g.add_rel(x, y, types[t as usize % 2], []).unwrap();
                    }
                }
                Op::DeleteRel(r) => {
                    if let Some(r) = pick_rel(&g, r) {
                        g.delete_rel(r).unwrap();
                    }
                }
                Op::DetachDeleteNode(n) => {
                    if let Some(n) = pick_node(&g, n) {
                        g.detach_delete_node(n).unwrap();
                    }
                }
                Op::AddLabel(n, l) => {
                    if let Some(n) = pick_node(&g, n) {
                        let sym = g.intern(labels[l as usize % 3]);
                        g.add_label(n, sym).unwrap();
                    }
                }
                Op::RemoveLabel(n, l) => {
                    if let Some(n) = pick_node(&g, n) {
                        if let Some(sym) = g.interner().get(labels[l as usize % 3]) {
                            g.remove_label(n, sym).unwrap();
                        }
                    }
                }
                Op::SetProp(n, v) => {
                    if let Some(n) = pick_node(&g, n) {
                        let k = g.intern("p");
                        g.set_node_prop(n, k, Value::int(v)).unwrap();
                    }
                }
            }
            audit(&g);
        }
    }
}

#[test]
fn cypher_update_sequences_preserve_invariants() {
    let params = Params::new();
    let mut g = PropertyGraph::new();
    let steps: &[&str] = &[
        "UNWIND range(0, 9) AS i CREATE (:P {i: i})",
        "MATCH (a:P), (b:P) WHERE a.i + 1 = b.i CREATE (a)-[:NEXT]->(b)",
        // One CREATE links every node into and out of one hub, in
        // descending id order: the hub's lists are appended out of order.
        "MATCH (a:P), (h:P {i: 4}) WITH a, h ORDER BY a.i DESC CREATE (a)-[:TO]->(h), (h)-[:FROM]->(a)",
        "MATCH (a:P {i: 0}) SET a:Head, a.first = true",
        "MATCH (a:P)-[r:NEXT]->(b:P) WHERE a.i >= 7 DELETE r",
        "MATCH (a:P) WHERE a.i = 9 DETACH DELETE a",
        "MATCH (a:P) WHERE a.i < 3 MERGE (a)-[:TAGGED]->(:Tag {of: a.i})",
        "MATCH (a:P {i: 1}) REMOVE a.i",
        "MATCH (t:Tag) SET t += {seen: 1}",
        "MATCH (a:Head) REMOVE a:Head",
        "MATCH (a:P)-[r:TAGGED]->(t) DELETE r, t",
    ];
    for (i, q) in steps.iter().enumerate() {
        run(&mut g, q, &params).unwrap_or_else(|e| panic!("step {i} ({q}) failed: {e}"));
        audit(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn tri_logic_laws(a in 0u8..3, b in 0u8..3, c in 0u8..3) {
        use cypher::Tri;
        let t = |x: u8| match x { 0 => Tri::True, 1 => Tri::False, _ => Tri::Null };
        let (a, b, c) = (t(a), t(b), t(c));
        // Kleene-logic algebra (§4.3 "the rules … are exactly the same as
        // in SQL").
        prop_assert_eq!(a.and(b), b.and(a));
        prop_assert_eq!(a.or(b), b.or(a));
        prop_assert_eq!(a.and(b.and(c)), a.and(b).and(c));
        prop_assert_eq!(a.or(b.or(c)), a.or(b).or(c));
        // De Morgan.
        prop_assert_eq!(a.and(b).not(), a.not().or(b.not()));
        prop_assert_eq!(a.or(b).not(), a.not().and(b.not()));
        // Double negation.
        prop_assert_eq!(a.not().not(), a);
        // Distributivity.
        prop_assert_eq!(a.and(b.or(c)), a.and(b).or(a.and(c)));
        // XOR symmetry and null absorption.
        prop_assert_eq!(a.xor(b), b.xor(a));
        prop_assert_eq!(a.xor(Tri::Null), Tri::Null);
    }
}
