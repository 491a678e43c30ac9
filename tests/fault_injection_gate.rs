//! `Database::inject_fsync_failures` is a test hook, not a production
//! surface: without the `CYPHER_TEST_FAULTS` environment variable it
//! must arm nothing and report so. This lives in its own test binary —
//! the suites that *do* arm faults set the variable process-wide, and
//! this assertion needs a process where nothing ever set it.

use cypher::{Database, EngineConfig, FsyncMode, Params, Value};

#[test]
fn fault_injection_is_inert_without_the_env_guard() {
    assert!(
        std::env::var_os("CYPHER_TEST_FAULTS").is_none(),
        "this binary must run without CYPHER_TEST_FAULTS; the inertness \
         assertion below would be vacuous"
    );
    let dir = std::env::temp_dir().join(format!("cypher-fault-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        persistence: Some(dir.clone()),
        group_commit: false,
        fsync_mode: FsyncMode::Sync,
        ..EngineConfig::default()
    };
    let db = Database::open_with(cfg).expect("open durable");
    let params = Params::new();

    assert!(
        !db.inject_fsync_failures(3),
        "injection must refuse to arm without CYPHER_TEST_FAULTS"
    );
    // And it really armed nothing: writes keep committing.
    let mut s = db.session();
    for i in 0..5 {
        s.query(&format!("CREATE (:G {{i: {i}}})"), &params)
            .expect("writes must succeed — no fault was armed");
    }
    let t = s
        .query("MATCH (n:G) RETURN count(*) AS c", &params)
        .expect("read");
    assert_eq!(t.cell(0, "c"), Some(&Value::int(5)));
    db.close().expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);
}
