//! Differential harness for **incremental view maintenance**: standing
//! queries registered with [`Database::create_view`] must stay exactly
//! equal (as a bag) to cold re-evaluation of the same query at every
//! published version — whatever their maintenance mode (delta-folded
//! aggregates, counted row bags, or the full-recompute fallback) and
//! whatever the update stream does to the rows they materialized.
//!
//! Four layers:
//!
//! * **Generated views × generated update streams** — a fixed panel of
//!   maintainable and fallback-shaped views plus grammar-generated ones,
//!   driven by the default update mix and by the delete-heavy churn
//!   preset, checked against cold re-evaluation after every commit —
//!   under the default morphism, homomorphism and node isomorphism, all
//!   three on the delta path;
//! * **Fold plans and fold work** — `EXPLAIN VIEW` shows one anchored
//!   plan per node position, and the executor rows one commit's fold
//!   produces are the same at 1 000 and 4 000 unrelated persons;
//! * **Concurrent writers × pinned readers** — writer sessions race
//!   while readers pin snapshots and demand the view at the pinned
//!   version equals the pinned cold re-evaluation;
//! * **TCP subscription replay** — a remote subscriber's `ViewChange`
//!   frames, applied in version order to the subscribe-time contents,
//!   must reproduce the final maintained table bit-for-bag.
//!
//! The engine knobs (threads, morsel size) come from the environment
//! via `EngineConfig::default()`, so CI can sweep the matrix without
//! code changes; group commit is a field the tests set themselves.

use cypher::workload::QueryGenerator;
use cypher::{Database, EngineConfig, Morphism, Params, Record, Session, Table};
use cypher_client::Client;
use cypher_server::{Server, ServerConfig};
use std::time::Duration;

fn memory_cfg() -> EngineConfig {
    EngineConfig {
        persistence: None,
        ..EngineConfig::default()
    }
}

/// The fixed view panel: names with the query and whether the classifier
/// is expected to maintain it incrementally (`true`) or fall back to
/// full recomputation (`false`) — asserted via `EXPLAIN VIEW` so a
/// classifier regression cannot silently turn the whole suite into a
/// test of the fallback path only.
fn view_panel() -> Vec<(&'static str, &'static str, bool)> {
    vec![
        (
            "agg_by_v",
            "MATCH (n:A) RETURN n.v AS v, count(*) AS c, sum(n.i) AS total",
            true,
        ),
        (
            "edge_rows",
            "MATCH (a:A)-[r:X]->(b) RETURN a.v AS av, r.w AS w, b.v AS bv",
            true,
        ),
        (
            "avg_per_pair",
            "MATCH (a)-[:Y]->(b:B) RETURN a.v AS av, b.v AS bv, avg(a.i) AS m",
            true,
        ),
        // min/max without DISTINCT cannot be retracted exactly: fallback.
        (
            "extrema",
            "MATCH (n:B) RETURN min(n.i) AS lo, max(n.i) AS hi",
            false,
        ),
        // Variable-length paths are outside the delta fragment: fallback.
        (
            "reach2",
            "MATCH (a:A)-[:X*1..2]->(b) RETURN b.v AS v, count(*) AS c",
            false,
        ),
        // LIMIT truncates: fallback.
        (
            "top3",
            "MATCH (n:A) RETURN n.i AS i ORDER BY n.i DESC LIMIT 3",
            false,
        ),
    ]
}

fn check_view_matches_cold(session: &mut Session, name: &str, query: &str, after: &str) {
    let maintained = session
        .view(name)
        .unwrap_or_else(|e| panic!("view {name} unreadable after {after:?}: {e}"));
    let cold = session
        .query(query, &Params::new())
        .unwrap_or_else(|e| panic!("cold re-evaluation of {name} failed after {after:?}: {e}"));
    assert!(
        maintained.bag_eq(&cold),
        "view {name} drifted from cold re-evaluation after {after:?}\n\
         maintained:\n{maintained:?}\ncold:\n{cold:?}"
    );
}

#[test]
fn generated_views_track_generated_update_streams() {
    track_update_streams(memory_cfg(), true);
}

/// Homomorphism stays on the delta path, whose enumeration runs on the
/// engine's driver like any `MATCH`.
#[test]
fn homomorphism_views_track_generated_update_streams() {
    let mut cfg = memory_cfg();
    cfg.match_config.morphism = Morphism::Homomorphism;
    track_update_streams(cfg, true);
}

/// Node isomorphism stays on the delta path too: every anchored plan
/// ends in the `DistinctNodes` filter, which reads only the row's own
/// bindings.
#[test]
fn node_isomorphism_views_track_generated_update_streams() {
    let mut cfg = memory_cfg();
    cfg.match_config.morphism = Morphism::NodeIsomorphism;
    track_update_streams(cfg, true);
}

/// The panel and generated views under `cfg`, checked against cold
/// re-evaluation after every step of the generated update stream.
/// `delta` says whether the panel's maintainable views are expected to
/// take the delta path at all under `cfg`.
fn track_update_streams(cfg: EngineConfig, delta: bool) {
    let params = Params::new();
    let db = Database::open_with(cfg).unwrap();
    let mut session = db.session();
    let mut gen = QueryGenerator::new(0x1ea5);
    for _ in 0..30 {
        let u = gen.next_update();
        session.query(&u, &params).unwrap();
    }

    let mut views: Vec<(String, String)> = Vec::new();
    for (name, query, incremental) in view_panel() {
        db.create_view(name, query)
            .unwrap_or_else(|e| panic!("create_view({name}) failed: {e}"));
        let explain = db.explain_view(name).unwrap();
        assert_eq!(
            !explain.contains("full recomputation"),
            incremental && delta,
            "classifier surprise for {name}:\n{explain}"
        );
        views.push((name.to_string(), query.to_string()));
    }
    // Grammar-generated views on top: whatever shape comes out, the
    // registry must classify it safely and keep it exact.
    let mut viewgen = QueryGenerator::new(0xbeef);
    for k in 0..3 {
        let q = viewgen.next_aggregate_query();
        let name = format!("gen_agg_{k}");
        db.create_view(&name, &q).unwrap();
        views.push((name, q));
    }
    for k in 0..3 {
        let q = viewgen.next_query();
        let name = format!("gen_match_{k}");
        db.create_view(&name, &q).unwrap();
        views.push((name, q));
    }

    // Creation materialized every view at the current version.
    for (name, query) in &views {
        check_view_matches_cold(&mut session, name, query, "creation");
    }

    // Phase 1: the default update mix. Phase 2: the delete/retraction-
    // heavy churn preset — the stream that actually exercises the
    // retraction algebra and the diverged-state rebuild path.
    for step in 0..60 {
        let u = if step < 30 {
            gen.next_update()
        } else {
            gen.next_churn_update()
        };
        session.query(&u, &params).unwrap();
        for (name, query) in &views {
            check_view_matches_cold(&mut session, name, query, &u);
        }
    }
}

#[test]
fn pinned_readers_see_exact_views_under_concurrent_writers() {
    pinned_readers_see_exact_views(memory_cfg());
}

/// The same race with every transaction sealed as its own group: the
/// publisher then folds one single-commit delta per version instead of
/// one delta per coalesced group. (This case and
/// `serial_commit_mode_matches_the_oracle_too` in `concurrent_writers`
/// set the field directly; they cover what the CI matrix's former
/// `CYPHER_GROUP_COMMIT=off` cells ran.)
#[test]
fn pinned_readers_see_exact_views_without_group_commit() {
    let mut cfg = memory_cfg();
    cfg.group_commit = false;
    pinned_readers_see_exact_views(cfg);
}

fn pinned_readers_see_exact_views(cfg: EngineConfig) {
    let params = Params::new();
    let db = Database::open_with(cfg).unwrap();
    let mut seed_session = db.session();
    let mut gen = QueryGenerator::new(7);
    for _ in 0..20 {
        let u = gen.next_update();
        seed_session.query(&u, &params).unwrap();
    }
    let views = [
        ("w_agg", "MATCH (n:A) RETURN n.v AS v, count(*) AS c"),
        (
            "w_rows",
            "MATCH (a:A)-[:X]->(b:B) RETURN a.v AS av, b.v AS bv",
        ),
    ];
    for (name, query) in views {
        db.create_view(name, query).unwrap();
    }

    const WRITERS: usize = 2;
    const EACH: usize = 25;
    const READ_ROUNDS: usize = 15;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let mut session = db.session();
            let mut wgen = QueryGenerator::new(100 + w as u64);
            scope.spawn(move || {
                for i in 0..EACH {
                    let u = if i % 2 == 0 {
                        wgen.next_update()
                    } else {
                        wgen.next_churn_update()
                    };
                    session.query(&u, &Params::new()).unwrap();
                }
            });
        }
        for r in 0..2 {
            let mut session = db.session();
            scope.spawn(move || {
                for round in 0..READ_ROUNDS {
                    let pinned = session.begin_read();
                    for (name, query) in views {
                        check_view_matches_cold(
                            &mut session,
                            name,
                            query,
                            &format!("reader {r} round {round} pinned at {pinned}"),
                        );
                    }
                    session.commit();
                }
            });
        }
    });

    // Quiesced: the final maintained tables equal final cold state too.
    let mut session = db.session();
    for (name, query) in views {
        check_view_matches_cold(&mut session, name, query, "all writers joined");
    }
}

/// Applies one subscription frame (a bag delta) to `rows`, panicking if
/// a removed row was not present — a frame that retracts a row the
/// subscriber never saw means the server's diffs are not replayable.
fn apply_frame(rows: &mut Vec<Record>, added: &Table, removed: &Table, version: u64) {
    for gone in removed.rows() {
        let at = rows
            .iter()
            .position(|r| r.equivalent(gone))
            .unwrap_or_else(|| panic!("frame v{version} removed a row the replay never had"));
        rows.swap_remove(at);
    }
    rows.extend(added.rows().iter().cloned());
}

#[test]
fn tcp_subscription_frames_replay_to_the_maintained_table() {
    let params = Params::new();
    let db = Database::open_with(memory_cfg()).unwrap();
    {
        let mut seed = db.session();
        let mut gen = QueryGenerator::new(21);
        for _ in 0..15 {
            let u = gen.next_update();
            seed.query(&u, &params).unwrap();
        }
    }
    db.create_view("sub", "MATCH (n:A) RETURN n.v AS v, count(*) AS c")
        .unwrap();

    let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut writer = Client::connect(addr).unwrap();
    let subscriber = Client::connect(addr).unwrap();
    // No writes happen between this baseline read and the subscribe, so
    // the frame stream continues exactly from `baseline`.
    let (v0, baseline) = writer.read_view("sub").unwrap();
    let mut sub = subscriber.subscribe("sub").unwrap();

    let mut gen = QueryGenerator::new(22);
    for i in 0..30 {
        let u = if i % 2 == 0 {
            gen.next_update()
        } else {
            gen.next_churn_update()
        };
        writer.query(&u, &params).unwrap();
    }
    let (v_final, final_table) = writer.read_view("sub").unwrap();
    assert!(v_final > v0, "the writer committed versions");

    let mut rows: Vec<Record> = baseline.rows().to_vec();
    let mut last_version = v0;
    while let Some(frame) = sub.next_timeout(Duration::from_secs(5)).unwrap() {
        assert_eq!(frame.name, "sub");
        assert!(
            frame.version > last_version,
            "frames must arrive in strictly increasing version order \
             ({} after {last_version})",
            frame.version
        );
        assert!(
            frame.added.len() + frame.removed.len() > 0,
            "v{}: empty frames are never pushed",
            frame.version
        );
        last_version = frame.version;
        apply_frame(&mut rows, &frame.added, &frame.removed, frame.version);
        if frame.version >= v_final {
            break;
        }
    }
    // Commits after the last view-changing one push no frame, so
    // `last_version` may stop short of `v_final`: the replay is judged
    // by whether it reproduces the final maintained table.
    let mut replayed = Table::empty(final_table.schema().clone());
    for r in rows {
        replayed.push(r);
    }
    assert!(
        replayed.bag_eq(&final_table),
        "replaying {last_version}-v{v0} frames over the baseline did not \
         reproduce the maintained table\nreplayed:\n{replayed:?}\n\
         maintained:\n{final_table:?}"
    );

    drop(writer);
    server.shutdown();
}

/// The two view shapes `cybench`'s `read_write_cycle` maintains.
const BY_V: &str = "MATCH (p:Person) RETURN p.v AS v, count(*) AS c";
const HEAVY_EDGES: &str =
    "MATCH (a:Person)-[f:FOLLOWS]->(b:Person) WHERE f.w > 98 RETURN a.i AS a, b.i AS b";

/// `n` persons in `n / 2` disjoint `FOLLOWS` pairs, plus a three-person
/// gadget cycle (keys -1, -2, -3) no pair touches.
fn persons_with_gadget(n: i64, morphism: Morphism) -> Database {
    let mut cfg = memory_cfg();
    cfg.match_config.morphism = morphism;
    cfg.metrics_enabled = true;
    let db = Database::open_with(cfg).unwrap();
    let mut session = db.session();
    let mut params = Params::new();
    params.insert("n".into(), cypher::Value::int(n / 2 - 1));
    session
        .query(
            "UNWIND range(0, $n) AS i CREATE (:Person {i: 2 * i, v: i % 7})\
             -[:FOLLOWS {w: i % 100}]->(:Person {i: 2 * i + 1, v: i % 5})",
            &params,
        )
        .unwrap();
    session
        .query(
            "CREATE (a:Person {i: -1, v: 1})-[:FOLLOWS {w: 50}]->(b:Person {i: -2, v: 2}), \
             (b)-[:FOLLOWS {w: 99}]->(c:Person {i: -3, v: 1}), (c)-[:FOLLOWS {w: 99}]->(a)",
            &Params::new(),
        )
        .unwrap();
    drop(session);
    db
}

#[test]
fn explain_view_prints_the_anchored_plans_the_fold_runs() {
    let db = persons_with_gadget(200, Morphism::default());
    db.create_view("heavy_edges", HEAVY_EDGES).unwrap();
    let explain = db.explain_view("heavy_edges").unwrap();
    let anchors: Vec<&str> = explain
        .lines()
        .filter_map(|l| l.trim().strip_prefix("anchor "))
        .collect();
    assert_eq!(anchors.len(), 2, "one plan per node position:\n{explain}");
    for (line, var) in anchors.iter().zip(["a", "b"]) {
        let plan = line.strip_prefix(&format!("{var}: ")).unwrap_or_else(|| {
            panic!("anchor {var} expected:\n{explain}");
        });
        assert!(plan.starts_with(&format!("Argument({var})")), "{explain}");
        for scan in ["NodeIndexScan", "AllNodesScan", "RelScan"] {
            assert!(!plan.contains(scan), "anchored plan scans:\n{explain}");
        }
    }
}

/// ROADMAP 4a's gate as an exact count: the rows the executor produces
/// for one commit's view fold are the same at 1 000 and 4 000 unrelated
/// persons, under edge and under node isomorphism, and no fold falls back
/// to full recomputation. The commit's own `MATCH` is measured alone
/// first, by the same pattern as a read, so the difference is the fold's
/// rows. Reading either view afterwards produces no executor rows at all.
#[test]
fn fold_work_does_not_grow_with_the_base_graph() {
    for morphism in [Morphism::EdgeIsomorphism, Morphism::NodeIsomorphism] {
        fold_work_is_flat_under(morphism);
    }
}

fn fold_work_is_flat_under(morphism: Morphism) {
    let find = "MATCH (a:Person {i: -1})-[f:FOLLOWS]->(b:Person {i: -2})";
    let fold_rows = |n: i64| {
        let db = persons_with_gadget(n, morphism);
        db.create_view("by_v", BY_V).unwrap();
        db.create_view("heavy_edges", HEAVY_EDGES).unwrap();
        assert!(db
            .explain_view("by_v")
            .unwrap()
            .contains("grouped-aggregate"));
        assert!(db
            .explain_view("heavy_edges")
            .unwrap()
            .contains("counted-bag"));
        let rows = || db.exec_metrics().unwrap().rows.get();
        let recomputes = db.metrics().view_full_recomputes.get();
        let mut session = db.session();
        let r0 = rows();
        session
            .query(&format!("{find} RETURN f"), &Params::new())
            .unwrap();
        let r1 = rows();
        session
            .query(&format!("{find} SET f.w = 99"), &Params::new())
            .unwrap();
        let commit_rows = rows() - r1;
        assert_eq!(db.metrics().view_full_recomputes.get(), recomputes);
        assert_eq!(
            recomputes, 0,
            "a view was recomputed in full ({morphism:?})"
        );
        check_view_matches_cold(&mut session, "by_v", BY_V, "gadget SET");
        check_view_matches_cold(&mut session, "heavy_edges", HEAVY_EDGES, "gadget SET");
        // A view read serves the published table: no plan runs.
        for name in ["by_v", "heavy_edges"] {
            let before = rows();
            session.view(name).unwrap();
            assert_eq!(rows(), before, "reading view {name} ran a plan");
        }
        commit_rows - (r1 - r0)
    };
    let small = fold_rows(1_000);
    assert!(small > 0, "the fold runs on the executor ({morphism:?})");
    assert_eq!(
        small,
        fold_rows(4_000),
        "fold rows grew with the base graph ({morphism:?})"
    );
}
