//! Plan/result cache hot-loop benchmarks: the query-as-a-service
//! pattern the caching tier targets — the same TPC-H statements issued
//! over and over.
//!
//! Legs per shape:
//! * `cold` — both caches off: every iteration pays parse + bind +
//!   optimize + execute (the pre-cache behaviour).
//! * `plan_hit` — plan cache on, result cache off, the exact same
//!   statement every iteration: the cached optimized plan is replayed,
//!   so parse/bind/optimize are skipped and execution still runs. Keys
//!   carry their literals, so only exact repeats hit.
//! * `hot` — both caches on, cycling a small set of parameter variants
//!   (Q5's region): steady state serves Arc-shared results without
//!   re-execution.
//!
//! Run with `MONETLITE_BENCH_JSON=BENCH_cache.json cargo bench --bench
//! cache` to record results; CI runs `cargo bench --bench cache --
//! --test` as a smoke check.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite_tpch::{generate, load_monet, queries};

const REGIONS: [&str; 5] = ["ASIA", "AMERICA", "EUROPE", "AFRICA", "MIDDLE EAST"];

fn opts(plan: bool, result: bool) -> ExecOptions {
    ExecOptions {
        threads: 1,
        vector_size: 64 * 1024,
        use_plan_cache: plan,
        use_result_cache: result,
        ..Default::default()
    }
}

fn connect(db: &monetlite::Database, plan: bool, result: bool) -> monetlite::Connection {
    let mut conn = db.connect();
    conn.set_exec_options(opts(plan, result));
    conn
}

fn q5_region(region: &str) -> String {
    queries::sql(5).replace("'ASIA'", &format!("'{region}'"))
}

fn q5_date(i: usize) -> String {
    // 72 distinct dates: the tiny cold leg cycles literals.
    let (y, m) = (1992 + i % 6, 1 + (i / 6) % 12);
    queries::sql(5).replace("1994-01-01", &format!("{y}-{m:02}-01"))
}

fn bench_cache(c: &mut Criterion) {
    let data = generate(0.05, 1);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    drop(load_conn);

    let mut g = c.benchmark_group("cache_hot_loop");
    g.sample_size(10);

    // Cold baseline: the identical variant cycle with caches disabled.
    let mut cold = connect(&db, false, false);
    let mut i = 0usize;
    g.bench_function("q5_variants_cold", |b| {
        b.iter(|| {
            let sql = q5_region(REGIONS[i % REGIONS.len()]);
            i += 1;
            cold.query(&sql).unwrap()
        })
    });

    // Plan-cache-only: an exact repeat with the result cache off, so
    // execution runs while bind + optimize are skipped.
    let mut plan_only = connect(&db, true, false);
    let q5 = q5_date(0);
    plan_only.query(&q5).unwrap(); // prime the plan
    plan_only.query(&q5).unwrap();
    let counters = plan_only.last_exec_counters().unwrap();
    assert_eq!(counters.plan_cache_hits, 1, "leg must measure plan-cache hits");
    assert_eq!(counters.result_cache_hits, 0, "result cache is off");
    g.bench_function("q5_repeat_plan_hit", |b| b.iter(|| plan_only.query(&q5).unwrap()));

    // Hot loop: both caches on, cycling the five region variants. After
    // one warm pass every iteration is a result hit.
    let mut hot = connect(&db, true, true);
    for r in REGIONS {
        hot.query(&q5_region(r)).unwrap();
    }
    hot.query(&q5_region(REGIONS[0])).unwrap();
    assert_eq!(
        hot.last_exec_counters().unwrap().result_cache_hits,
        1,
        "leg must measure result-cache hits"
    );
    let mut i = 1usize;
    g.bench_function("q5_variants_hot", |b| {
        b.iter(|| {
            let sql = q5_region(REGIONS[i % REGIONS.len()]);
            i += 1;
            hot.query(&sql).unwrap()
        })
    });

    // Tiny corpus: execution is nearly free, so the cold leg is
    // dominated by parse + bind + DPsize join ordering — the work a
    // plan-cache hit elides.
    let tiny_data = generate(0.001, 1);
    let tiny_db = monetlite::Database::open_in_memory();
    let mut tiny_load = tiny_db.connect();
    load_monet(&mut tiny_load, &tiny_data).unwrap();
    drop(tiny_load);
    let mut tiny_cold = connect(&tiny_db, false, false);
    let mut i = 0usize;
    g.bench_function("q5_tiny_cold", |b| {
        b.iter(|| {
            let sql = q5_date(i);
            i += 1;
            tiny_cold.query(&sql).unwrap()
        })
    });
    let mut tiny_plan = connect(&tiny_db, true, false);
    tiny_plan.query(&q5).unwrap();
    g.bench_function("q5_tiny_plan_hit", |b| b.iter(|| tiny_plan.query(&q5).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
