//! Cache-parity suite for the plan/result caching tier.
//!
//! * All 22 TPC-H goldens must be byte-identical with caches off, with
//!   caches on (cold), and on the second (cache-hit) execution.
//! * Counters prove the fast paths really fire: a plan-cache hit skips
//!   bind+optimize (`plan_cache_hits`), a result-cache hit skips
//!   execution entirely (`result_cache_hits`). Keys carry literals, and
//!   a plan is stored only when its result is not.
//! * Stale-plan coverage: DROP/CREATE of a same-named table or view,
//!   INSERTs bumping the table `version`, stats-mode flips, and
//!   `ExecOptions` changes must all prevent stale replays.
//! * Interrupt-then-cached-hit regression: a pending interrupt raised
//!   while the connection is idle must not poison a cached statement.

use monetlite::exec::ExecOptions;
use monetlite::opt::StatsMode;
use monetlite_tests::fmt_golden_rows;
use monetlite_tpch::{generate, load_monet, queries};
use std::path::PathBuf;

const GOLDEN_SF: f64 = 0.02;
const GOLDEN_SEED: u64 = 20260727;

fn golden_path(n: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("q{n:02}.tbl"))
}

fn cached_opts() -> ExecOptions {
    ExecOptions { use_plan_cache: true, use_result_cache: true, ..Default::default() }
}

fn uncached_opts() -> ExecOptions {
    ExecOptions { use_plan_cache: false, use_result_cache: false, ..Default::default() }
}

/// Fresh single-table corpus for the invalidation tests.
fn tiny_db() -> (monetlite::Database, monetlite::Connection) {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.set_exec_options(cached_opts());
    conn.execute("CREATE TABLE t (x INTEGER, s VARCHAR)").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'a'), (5, 'b'), (10, 'c'), (50, 'd')").unwrap();
    (db, conn)
}

fn one_col(conn: &mut monetlite::Connection, sql: &str) -> Vec<String> {
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (0..r.nrows()).map(|i| r.value(i, 0).to_string()).collect()
}

#[test]
fn all_22_goldens_byte_identical_cache_on_off_and_hit() {
    if std::env::var("MONETLITE_BLESS").as_deref() == Ok("1") {
        return; // goldens are blessed by tpch_golden.rs
    }
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    let mut off = db.connect();
    off.set_exec_options(uncached_opts());
    let mut on = db.connect();
    on.set_exec_options(cached_opts());
    for (n, sql) in queries::all() {
        let want = std::fs::read_to_string(golden_path(n)).expect("answer goldens checked in");
        if let Some(s) = queries::setup_sql(n) {
            off.execute(s).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
        }
        let got_off = fmt_golden_rows(&off.query(sql).unwrap_or_else(|e| panic!("Q{n} off: {e}")));
        let got_cold = fmt_golden_rows(&on.query(sql).unwrap_or_else(|e| panic!("Q{n} cold: {e}")));
        let got_hit = fmt_golden_rows(&on.query(sql).unwrap_or_else(|e| panic!("Q{n} hit: {e}")));
        if let Some(s) = queries::teardown_sql(n) {
            off.execute(s).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
        }
        assert_eq!(got_off, want, "Q{n}: caches-off answer diverged from golden");
        assert_eq!(got_cold, want, "Q{n}: cold cached answer diverged from golden");
        assert_eq!(got_hit, want, "Q{n}: cache-hit answer diverged from golden");
        // The second execution of the identical read must be a result
        // hit: execution was skipped, not redone.
        let counters = on.last_exec_counters().expect("counters after Q{n}");
        assert_eq!(counters.result_cache_hits, 1, "Q{n}: second run was not a result-cache hit");
    }
}

#[test]
fn plan_cache_hits_exact_repeats_only_when_result_not_cached() {
    let (db, mut conn) = tiny_db();
    conn.set_exec_options(ExecOptions { use_result_cache: false, ..cached_opts() });
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    // Cold: parse+bind+optimize, plan stored.
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    let cold = conn.last_exec_counters().unwrap();
    assert_eq!(cold.plan_cache_hits, 0);
    assert_eq!(db.plan_cache().len(), 1);
    // Exact repeat with the result cache off: a plan hit, and execution
    // still runs.
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    let hit = conn.last_exec_counters().unwrap();
    assert_eq!(hit.plan_cache_hits, 1, "exact repeat must hit the plan cache");
    assert_eq!(hit.result_cache_hits, 0);
    // A new literal is a new key: a miss that answers for its own literal.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 2 ORDER BY x"), ["5", "10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().plan_cache_hits, 0, "new literal must miss");
    // With the result cache on, a repeat is a result hit and no plan is
    // stored: the plan could never be used while its result is cached.
    db.plan_cache().clear();
    conn.set_exec_options(cached_opts());
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 1, "repeat must be a result hit");
    assert_eq!(c.plan_cache_hits, 0);
    assert_eq!(db.plan_cache().len(), 0, "no plan stored beside a cached result");
}

#[test]
fn result_cache_hit_skips_execution_entirely() {
    let (db, mut conn) = tiny_db();
    let sql = "SELECT s FROM t WHERE x >= 5 ORDER BY s";
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 1, "identical repeat must be a result hit");
    // A result hit reports no fresh execution work besides the hit
    // itself (rows_scanned etc. stay zero in the snapshot).
    assert_eq!(c.plan_cache_hits, 0);
    assert!(!db.result_cache().is_empty());
}

#[test]
fn drop_create_same_named_table_is_not_stale() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 0 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["1", "5", "10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["1", "5", "10", "50"]); // primes both caches
    conn.execute("DROP TABLE t").unwrap();
    conn.execute("CREATE TABLE t (x INTEGER, s VARCHAR)").unwrap();
    conn.execute("INSERT INTO t VALUES (7, 'z')").unwrap();
    // Same name, new table id: both caches must miss, not replay.
    assert_eq!(one_col(&mut conn, sql), ["7"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 0, "stale result served after DROP/CREATE");
}

#[test]
fn drop_create_same_named_view_is_not_stale() {
    let (_db, mut conn) = tiny_db();
    conn.execute("CREATE VIEW v AS SELECT x FROM t WHERE x > 7").unwrap();
    let sql = "SELECT x FROM v ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    conn.execute("DROP VIEW v").unwrap();
    conn.execute("CREATE VIEW v AS SELECT x FROM t WHERE x < 7").unwrap();
    // Identical statement text, new view definition: the views epoch
    // moved, so the old entry must not answer.
    assert_eq!(one_col(&mut conn, sql), ["1", "5"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 0);
}

#[test]
fn appends_bump_version_and_invalidate() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    conn.execute("INSERT INTO t VALUES (99, 'e')").unwrap();
    // The INSERT bumped the table version: the cached result is stale
    // and must be recomputed with the new row.
    assert_eq!(one_col(&mut conn, sql), ["10", "50", "99"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 0);
    // ...and the recomputed result is cacheable again.
    assert_eq!(one_col(&mut conn, sql), ["10", "50", "99"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
}

#[test]
fn stats_mode_flip_moves_the_key_space() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // A stats flip can change the chosen plan; entries keyed under the
    // old mode must not answer.
    conn.set_stats_mode(StatsMode::TableRowsOnly);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 0, "stats flip must not serve the old entry");
    assert_eq!(c.plan_cache_hits, 0, "stats flip must re-optimize");
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
}

#[test]
fn exec_options_change_moves_the_key_space() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // One more than the current vector size, so the options really change
    // under every MONETLITE_VECTOR_SIZE leg.
    let vector_size = cached_opts().vector_size + 1;
    conn.set_exec_options(ExecOptions { vector_size, ..cached_opts() });
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(
        conn.last_exec_counters().unwrap().result_cache_hits,
        0,
        "an ExecOptions change must not serve entries from the old configuration"
    );
}

#[test]
fn interrupt_then_cached_hit_succeeds() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT s FROM t WHERE x >= 5 ORDER BY s";
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // An interrupt raised while the connection is idle targets no
    // statement; the next statement — even a pure cache hit — must
    // clear it and answer normally, like any real statement would.
    conn.interrupt_handle().interrupt();
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // And the flag really was consumed: a fresh (uncached) statement
    // afterwards is not interrupted either.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x = 1"), ["1"]);
}

#[test]
fn explain_reports_cache_status_tags() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    let explain = |conn: &mut monetlite::Connection| {
        let r = conn.query(&format!("EXPLAIN {sql}")).unwrap();
        (0..r.nrows()).map(|i| r.value(i, 0).to_string() + "\n").collect::<String>()
    };
    // Cold cache: no tags — the EXPLAIN text matches the uncached one.
    let cold = explain(&mut conn);
    assert!(!cold.contains("[plan-cache]"), "cold EXPLAIN must not claim a cached plan");
    assert!(!cold.contains("[result-cache]"), "cold EXPLAIN must not claim a cached result");
    // Prime the result cache, then EXPLAIN again: the result tag appears
    // (no plan is stored beside a cached result).
    conn.query(sql).unwrap();
    let hot = explain(&mut conn);
    assert!(hot.contains("[result-cache]"), "primed EXPLAIN should report the cached result");
    assert!(!hot.contains("[plan-cache]"), "no plan is cached beside a cached result");
    // EXPLAIN itself must not have populated or consumed the result
    // cache: the next real execution is still a hit.
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // With the result cache off, priming stores the plan instead.
    conn.set_exec_options(ExecOptions { use_result_cache: false, ..cached_opts() });
    assert!(!explain(&mut conn).contains("[plan-cache]"), "new options, cold plan cache");
    conn.query(sql).unwrap();
    let hot = explain(&mut conn);
    assert!(hot.contains("[plan-cache]"), "primed EXPLAIN should report the cached plan");
    assert!(!hot.contains("[result-cache]"), "result cache is off");
}

#[test]
fn writes_in_open_transaction_are_never_cached() {
    let (db, mut conn) = tiny_db();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t VALUES (99, 'e')").unwrap();
    // Reads inside a writing transaction see the txn-local state and
    // must bypass both caches entirely.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 50 ORDER BY x"), ["99"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 0);
    assert_eq!(db.result_cache().len(), 0, "dirty read must not be published to the cache");
    conn.execute("ROLLBACK").unwrap();
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 50 ORDER BY x"), Vec::<String>::new());
}
