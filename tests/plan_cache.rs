//! The `Database` parse+plan cache: hit/miss accounting, LRU eviction,
//! statistics-driven invalidation (witnessed through `EXPLAIN`), and the
//! guarantee that cached plans honor fresh parameters.

use cypher::{Database, EngineConfig, MatchConfig, Params, Value, WcoJoinMode};
use cypher_tck::diff::{config, Cell, Policy, LIGHT};

/// An in-memory database at `cell` with an explicit cache capacity. The
/// tests whose rows come from cached plans sweep the cells of `LIGHT`;
/// pure accounting (eviction, a disabled cache) runs the built-in cell.
fn db_with_cache(capacity: usize, cell: Cell) -> Database {
    let cfg = EngineConfig {
        persistence: None,
        plan_cache_size: capacity,
        ..config(cell, MatchConfig::default())
    };
    Database::open_with(cfg).unwrap()
}

#[test]
fn repeated_query_hits_the_cache() {
    for &cell in LIGHT {
        let params = Params::new();
        let mut db = db_with_cache(16, cell);
        db.query("CREATE (:P {v: 1}), (:P {v: 2})", &params)
            .unwrap();
        let q = "MATCH (n:P) RETURN n.v AS v ORDER BY v";
        let first = db.query(q, &params).unwrap();
        let s = db.plan_cache_stats();
        assert_eq!((s.hits, s.invalidations), (0, 0), "{s:?}");
        // The CREATE moved the statistics fingerprint? No — the entry for
        // this text was created *after* the CREATE ran; repeated runs with an
        // unchanged graph must be pure hits.
        let second = db.query(q, &params).unwrap();
        let third = db.query(q, &params).unwrap();
        assert!(second.ordered_eq(&first) && third.ordered_eq(&first));
        let s = db.plan_cache_stats();
        assert!(s.hits >= 2, "repeated hot query did not hit: {s:?}");
        // Distinct texts miss independently.
        db.query("MATCH (n:P) RETURN count(*) AS c", &params)
            .unwrap();
        assert!(db.plan_cache_stats().misses >= 3);
    }
}

#[test]
fn lru_evicts_under_capacity() {
    let params = Params::new();
    let mut db = db_with_cache(2, LIGHT[0]);
    db.query("CREATE (:P {v: 1})", &params).unwrap(); // entry 1
    let qa = "MATCH (a:P) RETURN a.v AS v";
    let qb = "MATCH (b:P) RETURN b.v AS v";
    let qc = "MATCH (c:P) RETURN c.v AS v";
    db.query(qa, &params).unwrap(); // evicts the CREATE (LRU)
    db.query(qb, &params).unwrap(); // evicts…
    db.query(qa, &params).unwrap(); // refresh A
    db.query(qc, &params).unwrap(); // evicts B (least recently used)
    assert!(db.plan_cache_len() <= 2, "capacity not enforced");
    let before = db.plan_cache_stats();
    assert!(before.evictions >= 2, "{before:?}");
    // A stayed (recently used): hit. B was evicted: miss.
    db.query(qa, &params).unwrap();
    assert_eq!(db.plan_cache_stats().hits, before.hits + 1);
    db.query(qb, &params).unwrap();
    assert_eq!(db.plan_cache_stats().misses, before.misses + 1);
}

#[test]
fn statistics_drift_invalidates_and_replans() {
    for &cell in LIGHT {
        let params = Params::new();
        let mut db = db_with_cache(16, cell);
        // Parameterized updates keep each statement one cache entry — the
        // point of the test is statistics invalidation, not LRU churn.
        let with_i = |i: i64| {
            let mut p = Params::new();
            p.insert("i".into(), Value::int(i));
            p
        };
        // Label A is tiny, label B is big: the anchor of the path must be A.
        for i in 0..4 {
            db.query("CREATE (:A {i: $i})-[:X]->(:B {i: $i})", &with_i(i))
                .unwrap();
        }
        for i in 0..96 {
            db.query("CREATE (:B {i: $i})", &with_i(100 + i)).unwrap();
        }
        let q = "MATCH (a:A)-[:X]->(b:B) RETURN count(*) AS c";
        let before = db.explain(q).unwrap();
        assert!(
            before.contains("NodeIndexScan(a:A)"),
            "expected the A anchor before growth:\n{before}"
        );
        let out = db.query(q, &params).unwrap();
        assert_eq!(out.cell(0, "c"), Some(&Value::int(4)));
        db.query(q, &params).unwrap();
        let warm = db.plan_cache_stats();
        assert!(warm.hits >= 1, "{warm:?}");

        // Blow label A up far past B: the anchor decision flips, so the
        // bucketed statistics fingerprint must move and the cached plans must
        // be dropped (the parse is kept — invalidation, not a miss).
        for i in 0..1000 {
            db.query("CREATE (:A {i: $i})", &with_i(10_000 + i))
                .unwrap();
        }
        let after = db.explain(q).unwrap();
        assert!(
            after.contains("NodeIndexScan(b:B)"),
            "expected the anchor to flip to B after growth:\n{after}"
        );
        assert_ne!(before, after, "EXPLAIN witness did not change");
        let pre = db.plan_cache_stats();
        let out = db.query(q, &params).unwrap();
        assert_eq!(out.cell(0, "c"), Some(&Value::int(4)));
        let post = db.plan_cache_stats();
        assert!(
            post.invalidations > pre.invalidations,
            "statistics drift did not invalidate: {pre:?} → {post:?}"
        );
    }
}

#[test]
fn statistics_drift_flips_intersect_and_expand_plans() {
    // The worst-case-optimal join decision is cost-based: on a sparse
    // graph the expand chain wins (estimates tie at the anchor scan); as
    // the graph densifies, chain intermediates blow up quadratically and
    // Auto mode flips the cached plan to the multiway intersection. The
    // flip must ride the statistics-fingerprint invalidation protocol
    // and be witnessed through EXPLAIN.
    let params = Params::new();
    let cfg = EngineConfig {
        persistence: None,
        plan_cache_size: 16,
        // The flip is the cost-based policy's own.
        wco_join: WcoJoinMode::Auto,
        ..EngineConfig::default()
    };
    let mut db = Database::open_with(cfg).unwrap();
    let with_ij = |i: i64, j: i64| {
        let mut p = Params::new();
        p.insert("i".into(), Value::int(i));
        p.insert("j".into(), Value::int(j));
        p
    };
    for i in 0..100 {
        db.query("CREATE (:P {i: $i})", &with_ij(i, 0)).unwrap();
    }
    // Sparse wiring: a 60-edge chain, average degree well under 1.
    for i in 0..60 {
        db.query(
            "MATCH (a:P {i: $i}), (b:P {i: $j}) CREATE (a)-[:X]->(b)",
            &with_ij(i, i + 1),
        )
        .unwrap();
    }
    let q = "MATCH (a)-[:X]->(b)-[:X]->(c), (a)-[:X]->(c) RETURN count(*) AS n";
    let before = db.explain(q).unwrap();
    assert!(
        !before.contains("MultiwayIntersect"),
        "sparse graph must keep the expand chain:\n{before}"
    );
    assert!(before.contains("Expand"), "{before}");
    let sparse = db.query(q, &params).unwrap();
    let oracle = db.query_reference(q, &params).unwrap();
    assert!(sparse.bag_eq(&oracle), "chain plan wrong on sparse graph");
    db.query(q, &params).unwrap();
    assert!(db.plan_cache_stats().hits >= 1);

    // Densify to average degree ~10: the rel-count bucket moves (60 →
    // 1000 crosses several powers of two), so the fingerprint flips.
    for k in 0i64..940 {
        let i = k % 100;
        let mut j = (k * 13 + 7) % 100;
        if j == i {
            j = (j + 1) % 100;
        }
        db.query(
            "MATCH (a:P {i: $i}), (b:P {i: $j}) CREATE (a)-[:X]->(b)",
            &with_ij(i, j),
        )
        .unwrap();
    }
    let after = db.explain(q).unwrap();
    assert!(
        after.contains("MultiwayIntersect"),
        "dense graph must flip to the intersection plan:\n{after}"
    );
    assert_ne!(before, after, "EXPLAIN witness did not change");
    // The flip is an invalidation (replan), not a parse miss.
    let pre = db.plan_cache_stats();
    let dense = db.query(q, &params).unwrap();
    let post = db.plan_cache_stats();
    assert!(
        post.invalidations > pre.invalidations,
        "statistics drift did not invalidate: {pre:?} → {post:?}"
    );
    assert_eq!(post.misses, pre.misses, "parse must be kept");
    let oracle = db.query_reference(q, &params).unwrap();
    assert!(
        dense.bag_eq(&oracle),
        "intersection plan wrong on dense graph"
    );
}

#[test]
fn cached_plans_honor_fresh_params() {
    for &cell in LIGHT {
        let mut db = db_with_cache(16, cell);
        let none = Params::new();
        db.query(
            "CREATE (:P {v: 1, i: 10}), (:P {v: 2, i: 20}), (:P {v: 2, i: 21})",
            &none,
        )
        .unwrap();
        let q = "MATCH (n:P {v: $x}) RETURN n.i AS i ORDER BY i";
        let mut p1 = Params::new();
        p1.insert("x".into(), Value::int(1));
        let mut p2 = Params::new();
        p2.insert("x".into(), Value::int(2));
        let r1 = db.query(q, &p1).unwrap();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1.cell(0, "i"), Some(&Value::int(10)));
        let hits_before = db.plan_cache_stats().hits;
        // Same text, different parameters: must be a cache hit AND produce
        // the rows of the *new* parameters (plans embed the parameter
        // expression, never its value).
        let r2 = db.query(q, &p2).unwrap();
        assert_eq!(db.plan_cache_stats().hits, hits_before + 1);
        assert_eq!(r2.len(), 2);
        assert_eq!(r2.cell(0, "i"), Some(&Value::int(20)));
        assert_eq!(r2.cell(1, "i"), Some(&Value::int(21)));
    }
}

#[test]
fn zero_capacity_disables_the_cache() {
    let params = Params::new();
    let mut db = db_with_cache(0, LIGHT[0]);
    db.query("CREATE (:P {v: 1})", &params).unwrap();
    db.query("MATCH (n:P) RETURN n.v AS v", &params).unwrap();
    db.query("MATCH (n:P) RETURN n.v AS v", &params).unwrap();
    assert_eq!(db.plan_cache_stats(), Default::default());
    assert_eq!(db.plan_cache_len(), 0);
}

#[test]
fn concurrent_sessions_share_one_hot_plan() {
    for &cell in LIGHT {
        // Many sessions across threads hammer the same query text: after the
        // first session plans it, every other execution must be a cache hit
        // (no invalidation churn — the graph, hence the statistics
        // fingerprint, is unchanged throughout), and every session must get
        // identical rows.
        let params = Params::new();
        let mut db = db_with_cache(16, cell);
        for i in 0..64 {
            db.query(&format!("CREATE (:P {{v: {}, i: {i}}})", i % 8), &params)
                .unwrap();
        }
        let q = "MATCH (n:P) WHERE n.v = 3 RETURN n.i AS i ORDER BY i";
        let expected = db.query(q, &params).unwrap();
        let after_first = db.plan_cache_stats();
        let threads = 6;
        let per_thread = 25;
        let sessions: Vec<_> = (0..threads).map(|_| db.session()).collect();
        std::thread::scope(|sc| {
            for mut s in sessions {
                let expected = &expected;
                let params = &params;
                sc.spawn(move || {
                    for _ in 0..per_thread {
                        let t = s.query(q, params).unwrap();
                        assert!(t.ordered_eq(expected), "session saw different rows");
                    }
                });
            }
        });
        let s = db.plan_cache_stats();
        assert_eq!(
            s.hits,
            after_first.hits + (threads * per_thread) as u64,
            "every concurrent execution must hit the shared entry: {s:?}"
        );
        assert_eq!(
            s.invalidations, after_first.invalidations,
            "an unchanged graph must not invalidate: {s:?}"
        );
        assert_eq!(s.misses, after_first.misses, "{s:?}");
    }
}

#[test]
fn session_pinned_before_a_mutation_keeps_its_own_plans() {
    for &cell in LIGHT {
        // A session pins its snapshot, *then* a big mutation flips the
        // statistics fingerprint. The pinned session must (a) still answer
        // from its frozen version, and (b) observe the invalidation protocol:
        // its fingerprint differs from the head's, so the cache holds one
        // memo per fingerprint and neither session thrashes the other.
        let params = Params::new();
        let mut db = db_with_cache(16, cell);
        // Parameterized updates: one cache entry per statement *shape*, so
        // the hot read entry below is never LRU-evicted by the setup.
        let with_i = |i: i64| {
            let mut p = Params::new();
            p.insert("i".into(), Value::int(i));
            p
        };
        for i in 0..4 {
            db.query("CREATE (:A {i: $i})-[:X]->(:B {i: $i})", &with_i(i))
                .unwrap();
        }
        for i in 0..96 {
            db.query("CREATE (:B {i: $i})", &with_i(100 + i)).unwrap();
        }
        let q = "MATCH (a:A)-[:X]->(b:B) RETURN count(*) AS c";
        let mut pinned = db.session();
        let pinned_version = pinned.begin_read();
        // Warm the cache at the pinned fingerprint.
        assert_eq!(
            pinned.query(q, &params).unwrap().cell(0, "c"),
            Some(&Value::int(4))
        );

        // Mutation big enough to flip the anchor (A outgrows B), committed
        // *after* the pin.
        let before = db.explain(q).unwrap();
        for i in 0..1000 {
            db.query("CREATE (:A {i: $i})", &with_i(10_000 + i))
                .unwrap();
        }
        let after = db.explain(q).unwrap();
        assert_ne!(before, after, "anchor flip must be EXPLAIN-visible");

        // A head session replans under the new fingerprint: invalidation,
        // not a miss (the parse is kept). Deltas are measured around the
        // read query alone — the parameterized CREATEs above are cache
        // entries too and rack up their own invalidations while the graph
        // grows through fingerprint buckets.
        let mut head = db.session();
        let pre_head = db.plan_cache_stats();
        assert_eq!(
            head.query(q, &params).unwrap().cell(0, "c"),
            Some(&Value::int(4))
        );
        let post_head = db.plan_cache_stats();
        assert_eq!(
            post_head.invalidations,
            pre_head.invalidations + 1,
            "statistics drift must invalidate for the head session: {post_head:?}"
        );
        assert_eq!(post_head.misses, pre_head.misses, "parse must be kept");

        // The pinned session still reads its frozen version — and its plans
        // (cached under the *old* fingerprint) are hits, not churn.
        assert_eq!(pinned.version(), Some(pinned_version));
        assert_eq!(
            pinned.query(q, &params).unwrap().cell(0, "c"),
            Some(&Value::int(4)),
            "pinned session must not see the 1000 new nodes' effect on the join"
        );
        let post_pinned = db.plan_cache_stats();
        assert_eq!(
            post_pinned.invalidations, post_head.invalidations,
            "the pinned session's old-fingerprint plans must still be cached: {post_pinned:?}"
        );
        assert_eq!(post_pinned.hits, post_head.hits + 1);

        // And both fingerprints' plans now coexist: alternating sessions hit.
        head.query(q, &params).unwrap();
        pinned.query(q, &params).unwrap();
        let final_stats = db.plan_cache_stats();
        assert_eq!(final_stats.hits, post_pinned.hits + 2);
        assert_eq!(final_stats.invalidations, post_pinned.invalidations);
        pinned.commit();
        // Released: the session follows the head again.
        let now = pinned
            .query("MATCH (a:A) RETURN count(*) AS c", &params)
            .unwrap();
        assert_eq!(now.cell(0, "c"), Some(&Value::int(1004)));
    }
}

#[test]
fn cached_aggregate_queries_stay_correct_under_pushdown() {
    // The plan cache composes with the partial-aggregation pushdown: the
    // fused path plans through the same memo.
    let params = Params::new();
    let cfg = EngineConfig {
        persistence: None,
        plan_cache_size: 8,
        ..config((Policy::Builtin, 4, 2), MatchConfig::default())
    };
    let mut db = Database::open_with(cfg).unwrap();
    for i in 0..40 {
        db.query(&format!("CREATE (:P {{v: {}, i: {i}}})", i % 4), &params)
            .unwrap();
    }
    let q = "MATCH (n:P) RETURN n.v AS g, count(*) AS c, sum(n.i) AS s ORDER BY g";
    let first = db.query(q, &params).unwrap();
    assert_eq!(first.len(), 4);
    let hits_before = db.plan_cache_stats().hits;
    let second = db.query(q, &params).unwrap();
    assert!(second.ordered_eq(&first));
    assert!(db.plan_cache_stats().hits > hits_before);
    // The reference oracle agrees.
    let oracle = db.query_reference(q, &params).unwrap();
    assert!(first.bag_eq(&oracle));
}
