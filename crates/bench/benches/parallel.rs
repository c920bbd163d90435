//! Parallel-execution benches on the streaming engine.
//!
//! * `fig2_parallel` — the paper's Figure 2, SELECT MEDIAN(SQRT(i*2))
//!   FROM tbl (parallelizable scan and arithmetic, blocking median), at
//!   1/2/4/8 morsel threads and as one whole-table morsel
//!   (operator-at-a-time).
//! * `pipeline` — morsel parallelism on shapes the paper's mitosis could
//!   not split: a grouped aggregation, a join probe, and a LIMIT that
//!   exits early; each also as one whole-table morsel.
//!
//! Run with `MONETLITE_BENCH_JSON=BENCH_pipeline.json cargo bench --bench
//! parallel` to record results.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite_types::ColumnBuffer;

/// `threads` morsel workers over the default 64Ki-row vectors.
fn morsels(threads: usize) -> ExecOptions {
    ExecOptions { threads, vector_size: 64 * 1024, ..monetlite_bench::uncached_opts() }
}

/// One whole-table morsel on one thread: operator-at-a-time execution.
fn one_morsel() -> ExecOptions {
    ExecOptions { threads: 1, vector_size: usize::MAX, ..monetlite_bench::uncached_opts() }
}

fn bench_fig2(c: &mut Criterion) {
    let n = 1_000_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE tbl (i INTEGER NOT NULL)").unwrap();
    conn.append("tbl", vec![ColumnBuffer::Int((0..n).map(|x| x % 65_536).collect())]).unwrap();
    let sql = "SELECT median(sqrt(i * 2)) FROM tbl";
    let mut g = c.benchmark_group("fig2_parallel");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        conn.set_exec_options(morsels(threads));
        g.bench_function(format!("median_sqrt_{threads}threads"), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }
    conn.set_exec_options(one_morsel());
    g.bench_function("median_sqrt_one_morsel", |b| b.iter(|| conn.query(sql).unwrap()));
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let n: i32 = 2_000_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE facts (g INTEGER NOT NULL, v INTEGER NOT NULL, d DOUBLE)").unwrap();
    conn.append(
        "facts",
        vec![
            ColumnBuffer::Int((0..n).map(|x| x % 1_000).collect()),
            ColumnBuffer::Int((0..n).map(|x| x % 10_000).collect()),
            ColumnBuffer::Double((0..n).map(|x| x as f64 * 0.5).collect()),
        ],
    )
    .unwrap();
    // Grouped aggregation over a filtered scan: per-thread partial hash
    // aggregation with a mapped merge.
    let sql = "SELECT g, count(*), sum(v), avg(d) FROM facts WHERE v < 9000 GROUP BY g";
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);

    conn.set_exec_options(one_morsel());
    g.bench_function("grouped_agg_one_morsel", |b| b.iter(|| conn.query(sql).unwrap()));
    for threads in [1usize, 2, 4, 8] {
        conn.set_exec_options(morsels(threads));
        g.bench_function(format!("grouped_agg_streaming_{threads}threads"), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }

    // A join-probe pipeline: build on the small side, parallel probe.
    conn.execute("CREATE TABLE dim (g INTEGER NOT NULL, w INTEGER NOT NULL)").unwrap();
    conn.append(
        "dim",
        vec![
            ColumnBuffer::Int((0..1_000).collect()),
            ColumnBuffer::Int((0..1_000).map(|x| x * 3).collect()),
        ],
    )
    .unwrap();
    let join_sql = "SELECT count(*), sum(w) FROM facts, dim WHERE facts.g = dim.g AND v < 5000";
    conn.set_exec_options(one_morsel());
    g.bench_function("join_agg_one_morsel", |b| b.iter(|| conn.query(join_sql).unwrap()));
    for threads in [1usize, 2, 4] {
        conn.set_exec_options(morsels(threads));
        g.bench_function(format!("join_agg_streaming_{threads}threads"), |b| {
            b.iter(|| conn.query(join_sql).unwrap())
        });
    }

    // Limit early-exit: one whole-table morsel scans and filters all 2M
    // rows before slicing; 64Ki-row morsels stop after the first one.
    let limit_sql = "SELECT g, v FROM facts WHERE v < 5000 LIMIT 100";
    conn.set_exec_options(one_morsel());
    g.bench_function("limit_scan_one_morsel", |b| b.iter(|| conn.query(limit_sql).unwrap()));
    conn.set_exec_options(morsels(1));
    g.bench_function("limit_scan_streaming", |b| b.iter(|| conn.query(limit_sql).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_fig2, bench_pipeline);
criterion_main!(benches);
