//! Graph generators. Every generator takes explicit size parameters and a
//! seed, and produces the same graph for the same inputs on every run.

use cypher_graph::{NodeId, PropertyGraph, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The data graph of **Figure 1**: researchers Nils, Elin and Thor,
/// students Sten and Linda, five publications, and the `AUTHORS` /
/// `SUPERVISES` / `CITES` relationships exactly as drawn (r1–r11).
pub fn figure1() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let n1 = g.add_node(&["Researcher"], [("name", Value::str("Nils"))]);
    let n2 = g.add_node(&["Publication"], [("acmid", Value::int(220))]);
    let n3 = g.add_node(&["Publication"], [("acmid", Value::int(190))]);
    let n4 = g.add_node(&["Publication"], [("acmid", Value::int(235))]);
    let n5 = g.add_node(&["Publication"], [("acmid", Value::int(240))]);
    let n6 = g.add_node(&["Researcher"], [("name", Value::str("Elin"))]);
    let n7 = g.add_node(&["Student"], [("name", Value::str("Sten"))]);
    let n8 = g.add_node(&["Student"], [("name", Value::str("Linda"))]);
    let n9 = g.add_node(&["Publication"], [("acmid", Value::int(269))]);
    let n10 = g.add_node(&["Researcher"], [("name", Value::str("Thor"))]);
    g.add_rel(n1, n2, "AUTHORS", []).unwrap(); // r1
    g.add_rel(n2, n3, "CITES", []).unwrap(); // r2
    g.add_rel(n4, n2, "CITES", []).unwrap(); // r3
    g.add_rel(n5, n2, "CITES", []).unwrap(); // r4
    g.add_rel(n6, n5, "AUTHORS", []).unwrap(); // r5
    g.add_rel(n6, n7, "SUPERVISES", []).unwrap(); // r6
    g.add_rel(n6, n8, "SUPERVISES", []).unwrap(); // r7
    g.add_rel(n10, n7, "SUPERVISES", []).unwrap(); // r8
    g.add_rel(n9, n4, "CITES", []).unwrap(); // r9
    g.add_rel(n6, n9, "AUTHORS", []).unwrap(); // r10
    g.add_rel(n9, n5, "CITES", []).unwrap(); // r11
    g
}

/// The property graph of **Figure 4**: teachers n1, n3, n4, student n2,
/// with `KNOWS` relationships n1→n2→n3→n4.
pub fn figure4() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let n1 = g.add_node(&["Teacher"], []);
    let n2 = g.add_node(&["Student"], []);
    let n3 = g.add_node(&["Teacher"], []);
    let n4 = g.add_node(&["Teacher"], []);
    g.add_rel(n1, n2, "KNOWS", []).unwrap();
    g.add_rel(n2, n3, "KNOWS", []).unwrap();
    g.add_rel(n3, n4, "KNOWS", []).unwrap();
    g
}

/// A data-center dependency graph for the Section 3 network-management
/// query: `services` nodes labelled `Service`, arranged in layers, each
/// depending (`DEPENDS_ON`, pointing *at* the dependency) on `deps_per`
/// services from lower layers. The lowest layer contains shared
/// infrastructure that accumulates the most transitive dependents.
pub fn datacenter(services: usize, layers: usize, deps_per: usize, seed: u64) -> PropertyGraph {
    assert!(layers >= 1, "need at least one layer");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let mut by_layer: Vec<Vec<NodeId>> = vec![Vec::new(); layers];
    for i in 0..services {
        // Exponentially fewer nodes in lower (more fundamental) layers.
        let layer = (i * layers) / services;
        let kind = match layer {
            0 => "core-switch",
            1 => "database",
            2 => "backend",
            _ => "frontend",
        };
        let n = g.add_node(
            &["Service"],
            [
                ("name", Value::str(format!("{kind}-{i}"))),
                ("layer", Value::int(layer as i64)),
            ],
        );
        by_layer[layer].push(n);
    }
    for layer in 1..layers {
        for &svc in &by_layer[layer].clone() {
            for _ in 0..deps_per {
                let target_layer = rng.gen_range(0..layer);
                if by_layer[target_layer].is_empty() {
                    continue;
                }
                let dep = by_layer[target_layer][rng.gen_range(0..by_layer[target_layer].len())];
                g.add_rel(svc, dep, "DEPENDS_ON", []).unwrap();
            }
        }
    }
    g
}

/// A fraud-detection graph for the Section 3 fraud query: `holders`
/// account holders each `HAS` personal-information nodes (`SSN`,
/// `PhoneNumber`, `Address`); `rings` groups of `ring_size` holders share
/// a single piece of information — the rings the query must surface.
pub fn fraud_rings(holders: usize, rings: usize, ring_size: usize, seed: u64) -> PropertyGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let holder_ids: Vec<NodeId> = (0..holders)
        .map(|i| {
            g.add_node(
                &["AccountHolder"],
                [("uniqueId", Value::str(format!("acct-{i}")))],
            )
        })
        .collect();
    // Honest holders: personal info of their own.
    for (i, &h) in holder_ids.iter().enumerate() {
        let ssn = g.add_node(&["SSN"], [("value", Value::str(format!("ssn-{i}")))]);
        g.add_rel(h, ssn, "HAS", []).unwrap();
        let phone = g.add_node(
            &["PhoneNumber"],
            [("value", Value::str(format!("phone-{i}")))],
        );
        g.add_rel(h, phone, "HAS", []).unwrap();
    }
    // Fraud rings: `ring_size` distinct holders share one address or SSN.
    for ring in 0..rings {
        let label = if ring % 2 == 0 { "Address" } else { "SSN" };
        let shared = g.add_node(&[label], [("value", Value::str(format!("shared-{ring}")))]);
        let mut members = Vec::new();
        while members.len() < ring_size.min(holders) {
            let h = holder_ids[rng.gen_range(0..holder_ids.len())];
            if !members.contains(&h) {
                members.push(h);
            }
        }
        for h in members {
            g.add_rel(h, shared, "HAS", []).unwrap();
        }
    }
    g
}

/// A social network for the Cypher 10 composition example (Example 6.1):
/// `persons` nodes labelled `Person` living in `cities` cities (`IN`
/// edges), with roughly `avg_friends` undirected `FRIEND` relationships
/// each, carrying a `since` year.
pub fn social_network(
    persons: usize,
    cities: usize,
    avg_friends: usize,
    seed: u64,
) -> PropertyGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let city_ids: Vec<NodeId> = (0..cities.max(1))
        .map(|i| g.add_node(&["City"], [("name", Value::str(format!("city-{i}")))]))
        .collect();
    let person_ids: Vec<NodeId> = (0..persons)
        .map(|i| {
            let p = g.add_node(&["Person"], [("name", Value::str(format!("p{i}")))]);
            let c = city_ids[rng.gen_range(0..city_ids.len())];
            g.add_rel(p, c, "IN", []).unwrap();
            p
        })
        .collect();
    let total_friend_edges = persons * avg_friends / 2;
    for _ in 0..total_friend_edges {
        let a = person_ids[rng.gen_range(0..person_ids.len())];
        let b = person_ids[rng.gen_range(0..person_ids.len())];
        if a != b {
            let since = 1990 + rng.gen_range(0..30);
            g.add_rel(a, b, "FRIEND", [("since", Value::int(since))])
                .unwrap();
        }
    }
    g
}

/// A citation network scaling up Figure 1: `researchers` researchers,
/// `pubs` publications authored by random researchers, students supervised
/// by researchers, and a citation DAG where each publication cites up to
/// `cites_per` strictly older publications (so `CITES*` terminates).
pub fn citation_network(
    researchers: usize,
    pubs: usize,
    cites_per: usize,
    seed: u64,
) -> PropertyGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let researcher_ids: Vec<NodeId> = (0..researchers)
        .map(|i| g.add_node(&["Researcher"], [("name", Value::str(format!("r{i}")))]))
        .collect();
    // Students: one per two researchers.
    for (i, chunk) in researcher_ids.chunks(2).enumerate() {
        let s = g.add_node(&["Student"], [("name", Value::str(format!("s{i}")))]);
        g.add_rel(chunk[0], s, "SUPERVISES", []).unwrap();
    }
    let mut pub_ids: Vec<NodeId> = Vec::with_capacity(pubs);
    for i in 0..pubs {
        let p = g.add_node(&["Publication"], [("acmid", Value::int(i as i64))]);
        let author = researcher_ids[rng.gen_range(0..researcher_ids.len().max(1))];
        g.add_rel(author, p, "AUTHORS", []).unwrap();
        // Cite older publications only: acyclic by construction.
        if !pub_ids.is_empty() {
            for _ in 0..rng.gen_range(0..=cites_per) {
                let older = pub_ids[rng.gen_range(0..pub_ids.len())];
                g.add_rel(p, older, "CITES", []).unwrap();
            }
        }
        pub_ids.push(p);
    }
    g
}

/// A preferential-attachment ("rich get richer") social graph: `persons`
/// nodes labelled `Person` (every seventh also `Bot`), each following
/// `edges_per` earlier accounts with probability proportional to current
/// degree — the classic Barabási–Albert construction, yielding a
/// power-law degree distribution whose dense, triangle-rich core is the
/// worst case for binary expand chains and the showcase for multiway
/// intersection joins. Nodes carry the differential substrate's integer
/// properties (`i` unique, `v` collision-heavy); `FOLLOWS` edges carry
/// `w`.
pub fn powerlaw_social(persons: usize, edges_per: usize, seed: u64) -> PropertyGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let mut ids: Vec<NodeId> = Vec::with_capacity(persons);
    // One entry per edge endpoint: drawing uniformly from this list is
    // drawing nodes proportional to their degree.
    let mut endpoints: Vec<NodeId> = Vec::new();
    for i in 0..persons {
        let labels: &[&str] = if i % 7 == 0 {
            &["Person", "Bot"]
        } else {
            &["Person"]
        };
        let n = g.add_node(
            labels,
            [
                ("name", Value::str(format!("u{i}"))),
                ("v", Value::int(rng.gen_range(0..10))),
                ("i", Value::int(i as i64)),
            ],
        );
        for _ in 0..edges_per {
            if ids.is_empty() {
                break;
            }
            // Uniform until enough degree mass exists to attach to.
            let target = if endpoints.is_empty() {
                ids[rng.gen_range(0..ids.len())]
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            g.add_rel(
                n,
                target,
                "FOLLOWS",
                [("w", Value::int(rng.gen_range(0..100)))],
            )
            .unwrap();
            endpoints.push(n);
            endpoints.push(target);
        }
        ids.push(n);
    }
    g
}

/// A simple directed chain of `n` nodes (`NEXT` edges), the worst case for
/// deep variable-length traversal benchmarks.
pub fn chain(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut prev: Option<NodeId> = None;
    for i in 0..n {
        let node = g.add_node(&["Item"], [("i", Value::int(i as i64))]);
        if let Some(p) = prev {
            g.add_rel(p, node, "NEXT", []).unwrap();
        }
        prev = Some(node);
    }
    g
}

/// A uniformly random directed graph with `n` nodes and `m` edges over
/// `labels` node labels and `types` relationship types — the fuzzing
/// substrate for the differential property tests.
pub fn random_graph(
    n: usize,
    m: usize,
    labels: &[&str],
    types: &[&str],
    seed: u64,
) -> PropertyGraph {
    assert!(!types.is_empty());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let mut node_labels: Vec<&str> = Vec::new();
            for l in labels {
                if rng.gen_bool(0.4) {
                    node_labels.push(l);
                }
            }
            g.add_node(
                &node_labels,
                [
                    ("v", Value::int(rng.gen_range(0..10))),
                    ("i", Value::int(i as i64)),
                ],
            )
        })
        .collect();
    if n == 0 {
        return g;
    }
    for _ in 0..m {
        let a = ids[rng.gen_range(0..ids.len())];
        let b = ids[rng.gen_range(0..ids.len())];
        let t = types[rng.gen_range(0..types.len())];
        g.add_rel(a, b, t, [("w", Value::int(rng.gen_range(0..100)))])
            .unwrap();
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.rel_count(), 11);
        let researcher = g.interner().get("Researcher").unwrap();
        assert_eq!(g.label_cardinality(researcher), 3);
        let cites = g.interner().get("CITES").unwrap();
        assert_eq!(g.type_cardinality(cites), 5);
    }

    #[test]
    fn figure4_shape() {
        let g = figure4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.rel_count(), 3);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = datacenter(100, 4, 2, 42);
        let b = datacenter(100, 4, 2, 42);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.rel_count(), b.rel_count());
        let ra: Vec<_> = a.rels().map(|r| (a.src(r), a.tgt(r))).collect();
        let rb: Vec<_> = b.rels().map(|r| (b.src(r), b.tgt(r))).collect();
        assert_eq!(ra, rb);
        // Different seed, different wiring.
        let c = datacenter(100, 4, 2, 43);
        let rc: Vec<_> = c.rels().map(|r| (c.src(r), c.tgt(r))).collect();
        assert_ne!(ra, rc);
    }

    #[test]
    fn datacenter_is_layered_dag() {
        let g = datacenter(200, 4, 3, 7);
        assert_eq!(g.node_count(), 200);
        let layer_key = g.interner().get("layer").unwrap();
        for r in g.rels() {
            let src_layer = g
                .node_prop(g.src(r).unwrap(), layer_key)
                .and_then(|v| v.as_int())
                .unwrap();
            let tgt_layer = g
                .node_prop(g.tgt(r).unwrap(), layer_key)
                .and_then(|v| v.as_int())
                .unwrap();
            assert!(tgt_layer < src_layer, "dependencies point downwards");
        }
    }

    #[test]
    fn fraud_rings_share_info() {
        let g = fraud_rings(50, 3, 4, 1);
        // Each ring's shared node has ring_size HAS edges pointing at it.
        let mut shared_with_many = 0;
        for n in g.nodes() {
            let incoming = g.in_neighbors(n).len();
            if incoming >= 4 {
                shared_with_many += 1;
            }
        }
        assert_eq!(shared_with_many, 3);
    }

    #[test]
    fn citation_network_is_acyclic() {
        let g = citation_network(10, 100, 3, 9);
        let cites = g.interner().get("CITES").unwrap();
        for r in g.rels() {
            if g.rel_type(r) == Some(cites) {
                // Citations point from newer (higher id) to older.
                assert!(g.src(r).unwrap() > g.tgt(r).unwrap());
            }
        }
    }

    #[test]
    fn chain_shape() {
        let g = chain(10);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.rel_count(), 9);
    }

    #[test]
    fn social_network_shape() {
        let g = social_network(100, 5, 4, 3);
        let person = g.interner().get("Person").unwrap();
        assert_eq!(g.label_cardinality(person), 100);
        let friend = g.interner().get("FRIEND").unwrap();
        assert!(g.type_cardinality(friend) > 100);
    }

    #[test]
    fn powerlaw_social_is_deterministic_and_skewed() {
        let a = powerlaw_social(300, 3, 11);
        let b = powerlaw_social(300, 3, 11);
        let ra: Vec<_> = a.rels().map(|r| (a.src(r), a.tgt(r))).collect();
        let rb: Vec<_> = b.rels().map(|r| (b.src(r), b.tgt(r))).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.node_count(), 300);
        // Every node after the first creates exactly `edges_per` edges.
        assert_eq!(a.rel_count(), 299 * 3);
        // Preferential attachment concentrates degree: the most-followed
        // node collects far more than its fair share.
        let max_in = a.nodes().map(|n| a.in_neighbors(n).len()).max().unwrap();
        let avg = a.rel_count() as f64 / a.node_count() as f64;
        assert!(
            max_in as f64 > 3.0 * avg,
            "max in-degree {max_in} not skewed over average {avg:.1}"
        );
        // Both labels exist for mixed-label cyclic queries.
        let person = a.interner().get("Person").unwrap();
        let bot = a.interner().get("Bot").unwrap();
        assert_eq!(a.label_cardinality(person), 300);
        assert!(a.label_cardinality(bot) > 0);
    }

    #[test]
    fn random_graph_bounds() {
        let g = random_graph(50, 200, &["A", "B"], &["X", "Y"], 5);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.rel_count(), 200);
    }
}
