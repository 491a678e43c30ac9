//! Experiment E19: multiple named graphs and query composition (paper
//! Section 6, Example 6.1): project a `SHARE_FRIEND` graph out of a social
//! network, then compose a follow-up query that joins it with a citizen
//! register.

use cypher::{run_on_catalog, run_read, Catalog, MultiResult, Params, PropertyGraph, Value};

/// A social network in which a–b share friend c, and d is isolated; plus a
/// register assigning cities.
fn setup() -> Catalog {
    let mut soc = PropertyGraph::new();
    let a = soc.add_node(&["Person"], [("name", Value::str("a"))]);
    let b = soc.add_node(&["Person"], [("name", Value::str("b"))]);
    let c = soc.add_node(&["Person"], [("name", Value::str("c"))]);
    let d = soc.add_node(&["Person"], [("name", Value::str("d"))]);
    soc.add_rel(a, c, "FRIEND", [("since", Value::int(2000))])
        .unwrap();
    soc.add_rel(b, c, "FRIEND", [("since", Value::int(2002))])
        .unwrap();
    soc.add_rel(d, a, "FRIEND", [("since", Value::int(1990))])
        .unwrap();

    let mut register = PropertyGraph::new();
    let houston = register.add_node(&["City"], [("name", Value::str("Houston"))]);
    for name in ["a", "b"] {
        let p = register.add_node(&["Person"], [("name", Value::str(name))]);
        register.add_rel(p, houston, "IN", []).unwrap();
    }

    let mut cat = Catalog::new();
    cat.register("soc_net", soc);
    cat.register("register", register);
    cat
}

#[test]
fn e19_example_6_1_projection_then_composition() {
    let mut cat = setup();
    let mut params = Params::new();
    params.insert("duration".into(), Value::int(5));

    // Step 1 (Example 6.1): friends-of-friends whose friendships started
    // within $duration years of each other become directly connected in a
    // new graph `friends`.
    let res = run_on_catalog(
        &mut cat,
        "soc_net",
        "FROM GRAPH soc_net AT 'hdfs://cluster/soc_network'
         MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b)
         WHERE abs(r2.since - r1.since) < $duration
         WITH DISTINCT a, b
         RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)",
        &params,
    )
    .unwrap();
    let MultiResult::Graph(name) = res else {
        panic!("expected a graph result")
    };
    assert_eq!(name, "friends");
    assert!(cat.contains("friends"));
    {
        let friends = cat.get("friends").unwrap();
        let g = friends.read();
        // Pairs within the window: (a, b) and (b, a) via shared friend c
        // (|2002 − 2000| < 5); d's 1990 friendship is out of range of
        // nothing — d has no shared friends at all.
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 2);
    }

    // Step 2: compose with the register — friend-sharing pairs living in
    // the same city.
    let res2 = run_on_catalog(
        &mut cat,
        "friends",
        "MATCH (x)-[:SHARE_FRIEND]->(y)
         WITH x.name AS xn, y.name AS yn
         FROM GRAPH register
         MATCH (p1:Person {name: xn})-[:IN]->(c:City)<-[:IN]-(p2:Person {name: yn})
         RETURN xn, yn, c.name AS city",
        &params,
    )
    .unwrap();
    let MultiResult::Table(t) = res2 else {
        panic!()
    };
    assert_eq!(t.len(), 2, "a and b share a city, both orders");
    assert_eq!(t.cell(0, "city"), Some(&Value::str("Houston")));
}

#[test]
fn from_graph_requires_known_name() {
    let mut cat = setup();
    let params = Params::new();
    assert!(run_on_catalog(
        &mut cat,
        "soc_net",
        "FROM GRAPH unknown MATCH (n) RETURN n",
        &params
    )
    .is_err());
}

#[test]
fn constructed_graph_copies_labels_and_props() {
    let mut cat = setup();
    let params = Params::new();
    run_on_catalog(
        &mut cat,
        "soc_net",
        "MATCH (a:Person {name: 'a'})-[:FRIEND]-(b)
         RETURN GRAPH pairs OF (a)-[:PAIRED {w: 1}]->(b)",
        &params,
    )
    .unwrap();
    let pairs = cat.get("pairs").unwrap();
    let g = pairs.read();
    // a, c, d are involved; each copied once with Person label + name.
    assert_eq!(g.node_count(), 3);
    let person = g.interner().get("Person").unwrap();
    assert_eq!(g.label_cardinality(person), 3);
    let r = g.rels().next().unwrap();
    assert_eq!(g.rel_prop_by_name(r, "w"), Some(&Value::int(1)));
}

#[test]
fn fresh_nodes_for_unbound_construct_vars() {
    let mut cat = setup();
    let params = Params::new();
    run_on_catalog(
        &mut cat,
        "soc_net",
        "MATCH (a:Person)
         RETURN GRAPH tagged OF (a)-[:TAGGED]->(:Tag {kind: 'person'})",
        &params,
    )
    .unwrap();
    let tagged = cat.get("tagged").unwrap();
    let g = tagged.read();
    // 4 persons copied once each + 4 fresh Tag nodes (one per row).
    assert_eq!(g.node_count(), 8);
    assert_eq!(g.rel_count(), 4);
}

#[test]
fn replacing_a_graph_updates_catalog() {
    let mut cat = setup();
    let params = Params::new();
    run_on_catalog(
        &mut cat,
        "soc_net",
        "MATCH (a:Person {name: 'a'}) RETURN GRAPH only_a OF (a)-[:SELF]->(a)",
        &params,
    )
    .unwrap();
    let first = cat.get("only_a").unwrap().read().node_count();
    assert_eq!(first, 1);
    // Re-project under the same name with a different pattern.
    run_on_catalog(
        &mut cat,
        "soc_net",
        "MATCH (a:Person) RETURN GRAPH only_a OF (a)-[:SELF]->(a)",
        &params,
    )
    .unwrap();
    assert_eq!(cat.get("only_a").unwrap().read().node_count(), 4);
}

/// The catalog path and the single-graph read path run the same clause
/// loop, so the same query gets the same answer (rows compared as bags)
/// or the same error text through either.
#[test]
fn catalog_and_single_graph_paths_answer_alike() {
    let mut cat = Catalog::new();
    for (name, range) in [("g", 0..6), ("h", 10..13)] {
        let mut g = PropertyGraph::new();
        for i in range {
            g.add_node(&["P"], [("i", Value::int(i))]);
        }
        cat.register(name, g);
    }
    let params = Params::new();
    let catalog = |cat: &mut Catalog, q: &str| match run_on_catalog(cat, "g", q, &params) {
        Ok(MultiResult::Table(t)) => Ok(t),
        Ok(MultiResult::Graph(name)) => panic!("{q} built graph {name}"),
        Err(e) => Err(e.to_string()),
    };
    let (g, h) = (cat.get("g").unwrap(), cat.get("h").unwrap());
    let read =
        |graph: &PropertyGraph, q: &str| run_read(graph, q, &params).map_err(|e| e.to_string());
    for q in [
        "RETURN *",
        "MATCH (a:P) RETURN a.i AS i UNION MATCH (a:P) RETURN a.i AS i",
        "MATCH (a:P) WITH a.i % 2 AS k, count(*) AS c \
         MATCH (b:P) WHERE b.i % 2 = k RETURN k, c, b.i AS i",
    ] {
        match (catalog(&mut cat, q), read(&g.read(), q)) {
            (Ok(c), Ok(r)) => assert!(c.bag_eq(&r), "{q}\ncatalog:\n{c}\nread:\n{r}"),
            (Err(c), Err(r)) => assert_eq!(c, r, "{q}"),
            (c, r) => panic!("{q}: catalog {c:?}, read {r:?}"),
        }
    }

    // Each `FROM GRAPH` branch reads its own graph.
    let both = catalog(
        &mut cat,
        "FROM GRAPH g MATCH (a:P) RETURN a.i AS i \
         UNION ALL FROM GRAPH h MATCH (a:P) RETURN a.i AS i",
    )
    .unwrap();
    let branch = "MATCH (a:P) RETURN a.i AS i";
    let apart = read(&g.read(), branch)
        .unwrap()
        .bag_union(read(&h.read(), branch).unwrap());
    assert!(both.bag_eq(&apart), "catalog:\n{both}\nbranches:\n{apart}");

    let err = catalog(
        &mut cat,
        "MATCH (a:P) RETURN GRAPH loops OF (a)-[:SELF]->(a) \
         UNION MATCH (a:P) RETURN a.i AS i",
    )
    .unwrap_err();
    assert!(
        err.contains("RETURN GRAPH cannot be combined with UNION"),
        "{err}"
    );
    assert!(!cat.contains("loops"));
}
