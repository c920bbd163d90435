//! `tpch_hot` and `tpch_ooc`: TPC-H Q1–Q22 in streams, each stream in its
//! own seeded order, over one connection in a closed loop.
//!
//! The data is fixed (scale factor [`SF`], generator seed [`DATA_SEED`])
//! so its answers, recorded once from the row-store oracle, can be
//! checked on every run; the run seed picks the query order of every
//! stream. `tpch_hot` runs in memory; `tpch_ooc` reopens a checkpointed
//! database with a paging budget of a quarter of the data and an
//! operator memory budget of [`ooc_memory_budget`], so columns page and
//! breakers spill. Both
//! check against the same answers, so they also agree with each other.
//! Plan and result caches are off: every stream repeats the same texts,
//! and a cached result would replace the execution being measured.

use crate::common::{repeat_setup, secs, timing, Report, Rng, RunCfg, SetupTimes, SETUP_REPS};
use crate::json::Json;
use crate::{alloc, answers, env, layers, stats};
use monetlite::exec::{CountersSnapshot, ExecOptions};
use monetlite::{Database, DbOptions, QueryResult};
use monetlite_tpch::{generate, load_rowdb, queries, TpchData};
use std::path::PathBuf;
use std::time::Instant;

/// Generator seed of the benchmark's TPC-H data (also the seed of the
/// repository's answer goldens).
pub const DATA_SEED: u64 = 20260727;
/// Scale factor of the benchmark runs.
pub const SF: f64 = 0.05;

/// Operator memory budget of `tpch_ooc`: 16 MiB per 0.1 of scale factor
/// (8 MiB at [`SF`]), so Q9 and Q13 spill at every scale.
pub fn ooc_memory_budget(sf: f64) -> usize {
    ((16 << 20) as f64 * sf / 0.1) as usize
}
/// Below this scale factor answers are computed by the oracle at run
/// time instead of read from recorded files.
const ORACLE_LIVE_SF: f64 = 0.05;

/// Directory of the recorded answers at `sf`.
pub fn expected_dir(sf: f64) -> PathBuf {
    env::bench_dir().join("expected").join(format!("tpch-sf{sf}-seed{DATA_SEED}"))
}

/// The row-store oracle's answers to Q1–Q22 at `sf` (index 0 = Q1).
pub fn oracle_answers(sf: f64) -> Vec<String> {
    let data = generate(sf, DATA_SEED);
    let rdb = monetlite_rowstore::RowDb::in_memory();
    load_rowdb(&rdb, &data).expect("row store loads the TPC-H data");
    drop(data);
    (1..=22)
        .map(|n| {
            if let Some(s) = queries::setup_sql(n) {
                rdb.execute(s).expect("oracle setup");
            }
            let r = rdb.query(queries::sql(n)).expect("oracle answers every query");
            if let Some(s) = queries::teardown_sql(n) {
                rdb.execute(s).expect("oracle teardown");
            }
            answers::fmt_rows(r.rows.into_iter())
        })
        .collect()
}

/// Expected answers at `sf`: the recorded files, or the oracle run now
/// at small scale factors.
pub fn expected(sf: f64) -> Result<Vec<String>, String> {
    let dir = expected_dir(sf);
    if dir.is_dir() {
        (1..=22)
            .map(|n| {
                let p = dir.join(format!("q{n:02}.tbl"));
                std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    } else if sf < ORACLE_LIVE_SF {
        Ok(oracle_answers(sf))
    } else {
        Err(format!("no recorded answers in {} (run `record-expected {sf}`)", dir.display()))
    }
}

/// Record the oracle's answers at `sf` (slow: minutes at SF 0.1).
pub fn record_expected(sf: f64) -> Result<(), String> {
    let dir = expected_dir(sf);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for (i, text) in oracle_answers(sf).iter().enumerate() {
        let p = dir.join(format!("q{:02}.tbl", i + 1));
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    eprintln!("recorded 22 answers in {}", dir.display());
    Ok(())
}

/// The answer check at the goldens' scale: the oracle's answers must
/// equal `tests/golden/` byte for byte, and the engine's answers (hot
/// and out-of-core settings) must pass the benchmark's check against
/// them.
pub fn check_golden() -> Result<(), String> {
    const GOLDEN_SF: f64 = 0.02;
    let oracle = oracle_answers(GOLDEN_SF);
    let golden_dir = env::repo_root().join("tests").join("golden");
    let mut bad = Vec::new();
    for (i, got) in oracle.iter().enumerate() {
        let p = golden_dir.join(format!("q{:02}.tbl", i + 1));
        let want = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        if got != &want {
            bad.push(format!("oracle Q{} differs from {}", i + 1, p.display()));
        }
    }
    let data = generate(GOLDEN_SF, DATA_SEED);
    for ooc in [false, true] {
        let mut opts = DbOptions { exec: exec_options(ooc, GOLDEN_SF), ..Default::default() };
        if ooc {
            opts.vmem_budget = data.bytes() / 4;
        }
        let db = Database::open_with(opts).map_err(|e| e.to_string())?;
        let mut conn = db.connect();
        monetlite_tpch::load_monet(&mut conn, &data).map_err(|e| e.to_string())?;
        for n in 1..=22 {
            let r = run_query(&mut conn, n)?;
            if let Some(d) = answers::diff(&answers::fmt_result(&r), &oracle[n - 1]) {
                bad.push(format!("engine (ooc={ooc}) Q{n}: {d}"));
            }
        }
    }
    if bad.is_empty() {
        println!("golden check passed: oracle == tests/golden for Q1-Q22 at SF {GOLDEN_SF}, engine answers pass the check");
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// Engine options of both TPC-H workloads: defaults with both caches off
/// (and the operator memory budget out of core).
pub fn exec_options(ooc: bool, sf: f64) -> ExecOptions {
    let mut o =
        ExecOptions { use_plan_cache: false, use_result_cache: false, ..ExecOptions::default() };
    if ooc {
        o.memory_budget = ooc_memory_budget(sf);
    }
    o
}

fn run_query(conn: &mut monetlite::Connection, n: usize) -> Result<QueryResult, String> {
    if let Some(s) = queries::setup_sql(n) {
        conn.execute(s).map_err(|e| format!("Q{n} setup: {e}"))?;
    }
    let r = conn.query(queries::sql(n)).map_err(|e| format!("Q{n}: {e}"));
    if let Some(s) = queries::teardown_sql(n) {
        conn.execute(s).map_err(|e| format!("Q{n} teardown: {e}"))?;
    }
    r
}

/// One timed set-up: open, bulk load (host buffers are copied before the
/// clock starts), and out of core also checkpoint, close and reopen with
/// the workload's budgets.
fn set_up(cfg: &RunCfg, data: &TpchData, ooc: bool) -> Result<(Database, SetupTimes), String> {
    let e = |e: monetlite::types::MlError| e.to_string();
    let dir = ooc.then(|| cfg.fresh_dir("tpch-db"));
    let t = Instant::now();
    let db = Database::open_with(DbOptions {
        path: dir.clone(),
        exec: exec_options(false, cfg.sf),
        ..Default::default()
    })
    .map_err(e)?;
    let mut conn = db.connect();
    conn.run_script(queries::DDL).map_err(e)?;
    let mut open_s = secs(t);
    let mut append_s = 0.0;
    for table in data.tables() {
        let cols = table.cols.clone();
        let t = Instant::now();
        conn.append(table.name, cols).map_err(e)?;
        append_s += secs(t);
    }
    let mut total_s = open_s + append_s;
    let Some(dir) = dir else {
        let times = SetupTimes { total_s, append_s, checkpoint_s: 0.0, open_s, disk_bytes: 0 };
        return Ok((db, times));
    };
    let t = Instant::now();
    db.checkpoint().map_err(e)?;
    drop(conn);
    drop(db);
    let checkpoint_s = secs(t);
    let disk_bytes = env::dir_bytes(&dir);
    let t = Instant::now();
    let db = Database::open_with(DbOptions {
        path: Some(dir),
        vmem_budget: data.bytes() / 4,
        exec: exec_options(true, cfg.sf),
        ..Default::default()
    })
    .map_err(e)?;
    open_s = secs(t);
    total_s += checkpoint_s + open_s;
    Ok((db, SetupTimes { total_s, append_s, checkpoint_s, open_s, disk_bytes }))
}

/// Bytes the in-memory engine holds for the loaded columns.
fn engine_bytes(db: &Database) -> u64 {
    let snap = db.store().snapshot();
    let mut total = 0u64;
    for t in snap.tables.values() {
        for c in &t.data.cols {
            if let Ok(b) = c.entry().and_then(|e| e.bat()) {
                total += b.mem_bytes() as u64;
            }
        }
    }
    total
}

/// Counters summed over one stream.
#[derive(Default, Clone, Copy)]
struct StreamCounters {
    c: CountersSnapshot,
    vmem_loads: u64,
    vmem_evictions: u64,
    vmem_bytes: u64,
}

/// The query order of stream `i`.
fn stream_order(seed: u64, i: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (1..=22).collect();
    Rng::new(seed.wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))).shuffle(&mut order);
    order
}

pub fn run(cfg: &RunCfg, ooc: bool) -> Result<Report, String> {
    let mut report = Report::new(cfg.trace);
    let mut expected = expected(cfg.sf)?;
    if cfg.corrupt {
        expected[0].push_str("corrupted|row\n");
    }

    // Set-up, repeated; the last database is measured.
    let data = generate(cfg.sf, DATA_SEED);
    let user_bytes = data.bytes() as f64;
    let (db, setup_s, disk_bytes) =
        repeat_setup(&mut report, SETUP_REPS, || set_up(cfg, &data, ooc))?;
    drop(data);
    let stored = if ooc { disk_bytes } else { engine_bytes(&db) } as f64 / user_bytes;

    let mut conn = db.connect();
    let (plan0, result0) = layers::cache_counts(&db);

    // Streams: one cold stream (discarded from the timings, as in the
    // paper's protocol), then measured streams until the time is up.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); 23];
    let mut traced_q: Vec<Vec<f64>> = vec![Vec::new(); 23];
    let mut untraced_q: Vec<Vec<f64>> = vec![Vec::new(); 23];
    let mut exec_q: Vec<Vec<f64>> = vec![Vec::new(); 23];
    let mut qerror = [0.0f64; 23];
    let mut alloc_peak = [0u64; 23];
    let (mut explain_total, mut query_total, mut traced_stmts) = (0.0, 0.0, 0u64);
    let mut stream_s = Vec::new();
    let mut per_stream: Vec<StreamCounters> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let (mut stmts, mut repeats) = (0u64, 0u64);
    let mut cold_s = 0.0;
    let started = Instant::now();
    let mut round = 0usize;
    let mut op = 0u64;
    loop {
        let cold = op == 0;
        if !cold && !cfg.more(started, round) {
            break;
        }
        let traced = !cold && cfg.traced_round(round);
        report.tracer.set_on(traced);
        alloc::set_counting(traced);
        let vm0 = db.vmem_stats();
        let mut sc = StreamCounters::default();
        let mut results = Vec::with_capacity(22);
        let span = report.tracer.begin("stream", op);
        let t_stream = Instant::now();
        for n in stream_order(cfg.seed, if cold { 0 } else { round + 1 }) {
            op += 1;
            stmts += 1;
            repeats += u64::from(!seen.insert(n));
            if let Some(s) = queries::setup_sql(n) {
                let _ = conn.execute(s);
            }
            let mut explain_s = 0.0;
            if traced {
                let e = report.tracer.begin("plan.explain", op);
                let r = conn.query(&format!("EXPLAIN {}", queries::sql(n)));
                explain_s = report.tracer.end(e);
                if let Err(err) = r {
                    report.outcome(Err(format!("EXPLAIN Q{n}: {err}")));
                }
            }
            let a0 = alloc::window_start();
            let s = report.tracer.begin("stmt", op);
            let t = Instant::now();
            let q = report.tracer.begin("engine.query", op);
            let r = conn.query(queries::sql(n)).map_err(|e| format!("Q{n}: {e}"));
            report.tracer.end(q);
            let dt = secs(t);
            let counters = if traced { conn.last_exec_counters() } else { None };
            report.tracer.end(s);
            if let Some(s) = queries::teardown_sql(n) {
                let _ = conn.execute(s);
            }
            if cold {
                results.push((n, r));
                continue;
            }
            times[n].push(dt);
            if cfg.trace {
                if traced {
                    traced_q[n].push(dt);
                    exec_q[n].push((dt - explain_s).max(0.0));
                    explain_total += explain_s;
                    query_total += dt;
                    traced_stmts += 1;
                    alloc_peak[n] = alloc_peak[n].max(alloc::window_peak(a0));
                    if let (Some(c), Ok(res)) = (counters, &r) {
                        layers::add_counters(&mut sc.c, &c);
                        let est = (c.estimated_rows as f64).max(1.0);
                        let act = (res.nrows() as f64).max(1.0);
                        qerror[n] = (est / act).max(act / est);
                    }
                } else {
                    untraced_q[n].push(dt);
                }
            }
            results.push((n, r));
        }
        let wall = secs(t_stream);
        report.tracer.end(span);
        alloc::set_counting(false);
        if cold {
            cold_s = wall;
        } else {
            stream_s.push(wall);
            round += 1;
            if traced {
                let vm1 = db.vmem_stats();
                sc.vmem_loads = vm1.loads - vm0.loads;
                sc.vmem_evictions = vm1.evictions - vm0.evictions;
                sc.vmem_bytes = vm1.bytes_loaded - vm0.bytes_loaded;
                per_stream.push(sc);
            }
        }
        // Answers are checked after the stream's clock stopped.
        for (n, r) in results {
            report.outcome(r.and_then(|r| {
                answers::diff(&answers::fmt_result(&r), &expected[n - 1])
                    .map_or(Ok(()), |d| Err(format!("Q{n}: {d}")))
            }));
        }
    }
    report.tracer.set_on(false);

    // End-to-end.
    let all_ms: Vec<f64> = times.iter().flatten().map(|t| t * 1e3).collect();
    let per_query_ms: Vec<f64> = (1..=22).map(|n| stats::median(&times[n]) * 1e3).collect();
    report.e2e.insert("setup_s", stats::median(&setup_s));
    report.e2e.insert("round_s", stats::mean(&stream_s));
    report.e2e.insert("stmt_ms.geomean", stats::geomean_of_kinds(&times) * 1e3);
    report.e2e.insert("stored_bytes_per_user_byte", stored);
    let mut per_query = Json::obj();
    for (n, t) in times.iter().enumerate().skip(1) {
        per_query.set(&format!("q{n:02}"), stats::median(t) * 1e3);
    }
    report.detail = Json::obj()
        .with("setup_s", timing(&setup_s, "s"))
        .with("stream_s", timing(&stream_s, "s"))
        .with("cold_stream_s", cold_s)
        .with("query_ms.geomean", stats::geomean(&per_query_ms))
        .with("query_ms", timing(&all_ms, "ms"))
        .with("query_ms.per_query_median", per_query)
        .with("stored_bytes_per_user_byte", stored)
        .with("user_bytes", user_bytes)
        .with("streams", stream_s.len());
    if ooc {
        report.detail.set("vmem_budget", user_bytes / 4.0);
    }

    // Per layer (traced rounds).
    if cfg.trace {
        report.layer("plan.ms", explain_total / traced_stmts.max(1) as f64 * 1e3);
        report
            .layer("plan.share", if query_total > 0.0 { explain_total / query_total } else { 0.0 });
        let qe: Vec<f64> = qerror[1..].to_vec();
        report.layer("opt.qerror.p50", stats::median(&qe));
        report.layer("opt.qerror.max", qe.iter().copied().fold(0.0, f64::max));
        let exec_all: Vec<f64> = exec_q.iter().flatten().copied().collect();
        report.layer("exec.ms", exec_all.iter().sum::<f64>() / exec_all.len().max(1) as f64 * 1e3);
        for (n, t) in exec_q.iter().enumerate().skip(1) {
            report.layer(&format!("q{n:02}.ms"), stats::median(t) * 1e3);
        }
        let counters: Vec<CountersSnapshot> = per_stream.iter().map(|s| s.c).collect();
        layers::exec_counter_metrics(&mut report, &counters);
        let vm = |f: fn(&StreamCounters) -> u64| {
            stats::median(&per_stream.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        report.layer("vmem.loads", vm(|s| s.vmem_loads));
        report.layer("vmem.evictions", vm(|s| s.vmem_evictions));
        report.layer("vmem.bytes_loaded", vm(|s| s.vmem_bytes));
        layers::cache_metrics(&mut report, &db, plan0, result0, stmts, repeats);
        let peak = alloc_peak.iter().copied().max().unwrap_or(0) as f64;
        report.layer("alloc.peak_mb", peak / (1 << 20) as f64);
        report.layer(
            "alloc.peak_over_budget",
            if ooc { peak / ooc_memory_budget(cfg.sf) as f64 } else { 0.0 },
        );
        let mut alloc_q = Json::obj();
        for (n, peak) in alloc_peak.iter().enumerate().skip(1) {
            alloc_q.set(&format!("q{n:02}"), *peak as f64 / (1 << 20) as f64);
        }
        report.detail.set("alloc.peak_mb.per_query", alloc_q);
        let ratios: Vec<f64> = (1..=22)
            .filter(|&n| !traced_q[n].is_empty() && !untraced_q[n].is_empty())
            .map(|n| stats::median(&traced_q[n]) / stats::median(&untraced_q[n]))
            .collect();
        report.layer("trace.overhead_frac", stats::geomean(&ratios) - 1.0);
        let stmt_s = report.tracer.total_s("stmt");
        report.layer(
            "trace.accounted_frac",
            if stmt_s > 0.0 { report.tracer.total_s("engine.query") / stmt_s } else { 0.0 },
        );
    }
    Ok(report)
}
