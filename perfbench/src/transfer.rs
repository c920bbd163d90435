//! `transfer`: the paper's Fig. 5 and Fig. 6 operations, repeated.
//!
//! One operation ingests the TPC-H `lineitem` host buffers into a fresh
//! persistent database and checkpoints it (`dbWriteTable`), then exports
//! the table with `SELECT * FROM lineitem` and imports the result into a
//! host frame without copying fixed-width columns (`dbReadTable`). The
//! database is new every time, so no cached result is ever reused. The
//! exported frame must round-trip the ingested buffers: same row count,
//! same per-column checksum.

use crate::common::{repeat_setup, secs, timing, Report, RunCfg, SetupTimes, SETUP_REPS};
use crate::json::Json;
use crate::tpch::DATA_SEED;
use crate::{alloc, env, layers, stats};
use monetlite::host::{HostFrame, TransferMode};
use monetlite::types::ColumnBuffer;
use monetlite::{Database, DbOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Order-sensitive checksum of one column's values and NULLs.
fn checksum(c: &ColumnBuffer) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3).rotate_left(5);
    };
    match c {
        ColumnBuffer::Bool(v) => v.iter().for_each(|x| mix(*x as u64)),
        ColumnBuffer::Int(v) | ColumnBuffer::Date(v) => v.iter().for_each(|x| mix(*x as u64)),
        ColumnBuffer::Bigint(v) => v.iter().for_each(|x| mix(*x as u64)),
        ColumnBuffer::Decimal { data, scale } => {
            mix(u64::from(*scale));
            data.iter().for_each(|x| mix(*x as u64));
        }
        ColumnBuffer::Double(v) => v.iter().for_each(|x| mix(x.to_bits())),
        ColumnBuffer::Varchar(v) => v.iter().for_each(|s| match s {
            None => mix(u64::MAX),
            Some(s) => {
                mix(s.len() as u64);
                s.bytes().for_each(|b| mix(u64::from(b)));
            }
        }),
    }
    h
}

fn lineitem_ddl() -> &'static str {
    monetlite_tpch::queries::DDL
        .lines()
        .find(|l| l.starts_with("CREATE TABLE lineitem"))
        .expect("the TPC-H DDL creates lineitem")
}

/// One ingest (open, create, append, checkpoint) and its step timings.
struct Ingest {
    db: Database,
    append_s: f64,
    checkpoint_s: f64,
}

fn ingest(dir: PathBuf, cols: Vec<ColumnBuffer>) -> Result<Ingest, String> {
    let e = |e: monetlite::types::MlError| e.to_string();
    let db = Database::open_with(DbOptions { path: Some(dir), ..Default::default() }).map_err(e)?;
    let mut conn = db.connect();
    conn.execute(lineitem_ddl()).map_err(e)?;
    let t = Instant::now();
    conn.append("lineitem", cols).map_err(e)?;
    let append_s = secs(t);
    let t = Instant::now();
    db.checkpoint().map_err(e)?;
    let checkpoint_s = secs(t);
    Ok(Ingest { db, append_s, checkpoint_s })
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::new(cfg.trace);
    let lineitem = monetlite_tpch::generate(cfg.sf, DATA_SEED).lineitem;
    let rows = lineitem.rows();
    let user = lineitem.bytes() as f64;
    let mut want: Vec<u64> = lineitem.cols.iter().map(checksum).collect();
    if cfg.corrupt {
        want[0] ^= 1;
    }

    // Set-up: ingest, close and reopen, repeated.
    let (_, setup_s, _) = repeat_setup(&mut report, SETUP_REPS, || {
        let dir = cfg.fresh_dir("transfer-setup-db");
        let cols = lineitem.cols.clone();
        let t = Instant::now();
        let ing = ingest(dir.clone(), cols)?;
        drop(ing.db);
        let ingest_s = secs(t);
        let disk_bytes = env::dir_bytes(&dir);
        let t = Instant::now();
        let db = Database::open_with(DbOptions { path: Some(dir.clone()), ..Default::default() })
            .map_err(|e| e.to_string())?;
        let open_s = secs(t);
        let times = SetupTimes {
            total_s: ingest_s + open_s,
            append_s: ing.append_s,
            checkpoint_s: ing.checkpoint_s,
            open_s,
            disk_bytes,
        };
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(((), times))
    })?;

    let (mut ingest_s, mut export_s, mut op_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut append_ms, mut checkpoint_ms, mut query_ms, mut import_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_op, mut untraced_op) = (Vec::new(), Vec::new());
    let mut disk_bytes = 0u64;
    let (mut bytes_copied, mut converted) = (0usize, 0usize);
    let mut alloc_peak = 0u64;
    let mut counters = Vec::new();
    let started = Instant::now();
    let mut round = 0usize;
    while cfg.more(started, round) {
        let traced = cfg.traced_round(round);
        report.tracer.set_on(traced);
        alloc::set_counting(traced);
        let dir = cfg.fresh_dir("transfer-db");
        let cols = lineitem.cols.clone();
        let a0 = alloc::window_start();
        let op = report.tracer.begin("op", round as u64);
        let t = Instant::now();
        let s = report.tracer.begin("ingest", round as u64);
        let ing = ingest(dir.clone(), cols);
        report.tracer.end(s);
        let ing = match ing {
            Ok(i) => i,
            Err(err) => {
                report.tracer.end(op);
                report.outcome(Err(format!("ingest: {err}")));
                round += 1;
                continue;
            }
        };
        let t_ingest = secs(t);
        let t = Instant::now();
        let s = report.tracer.begin("export", round as u64);
        let q = report.tracer.begin("engine.query", round as u64);
        let mut conn = ing.db.connect();
        let result = conn.query("SELECT * FROM lineitem");
        let t_query = secs(t);
        if traced {
            counters.extend(conn.last_exec_counters());
        }
        report.tracer.end(q);
        let t_imp = Instant::now();
        let h = report.tracer.begin("host.import", round as u64);
        let frame = result.as_ref().map(|r| HostFrame::import(r, TransferMode::ZeroCopy));
        report.tracer.end(h);
        let t_import = secs(t_imp);
        report.tracer.end(s);
        let t_export = secs(t);
        report.tracer.end(op);
        alloc::set_counting(false);
        if traced {
            alloc_peak = alloc_peak.max(alloc::window_peak(a0));
        }
        round += 1;

        // Check the round trip after the clock stopped.
        disk_bytes = env::dir_bytes(&dir);
        report.outcome(match frame {
            Err(err) => Err(format!("export: {err}")),
            Ok(f) => {
                bytes_copied = f.stats.bytes_copied;
                converted = f.stats.converted;
                let got: Vec<u64> = f.cols.iter().map(|c| checksum(&c.native())).collect();
                if f.rows != rows {
                    Err(format!("exported {} rows, ingested {rows}", f.rows))
                } else if got != want {
                    let bad = got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(0);
                    Err(format!("column {} ({}) checksum differs", bad, f.names[bad]))
                } else {
                    Ok(())
                }
            }
        });
        ingest_s.push(t_ingest);
        export_s.push(t_export);
        op_s.push(t_ingest + t_export);
        if cfg.trace {
            if traced { &mut traced_op } else { &mut untraced_op }.push(t_ingest + t_export);
        }
        if !cfg.trace || traced {
            append_ms.push(ing.append_s * 1e3);
            checkpoint_ms.push(ing.checkpoint_s * 1e3);
            query_ms.push(t_query * 1e3);
            import_ms.push(t_import * 1e3);
        }
        drop(result);
        drop(conn);
        drop(ing.db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.tracer.set_on(false);

    let stored = disk_bytes as f64 / user;
    report.e2e.insert("setup_s", stats::median(&setup_s));
    report.e2e.insert("round_s", stats::mean(&op_s));
    report.e2e.insert(
        "stmt_ms.geomean",
        stats::geomean_of_kinds(&[ingest_s.clone(), export_s.clone()]) * 1e3,
    );
    report.e2e.insert("stored_bytes_per_user_byte", stored);
    report.detail = Json::obj()
        .with("setup_s", timing(&setup_s, "s"))
        .with("ingest_s", timing(&ingest_s, "s"))
        .with("export_s", timing(&export_s, "s"))
        .with("stored_bytes_per_user_byte", stored)
        .with("rows", rows)
        .with("user_bytes", user)
        .with("operations", op_s.len());

    if cfg.trace {
        report.layer("storage.append_ms", stats::median(&append_ms));
        report.layer("storage.checkpoint_ms", stats::median(&checkpoint_ms));
        report.layer("storage.disk_bytes", disk_bytes as f64);
        report.layer("export.query_ms", stats::median(&query_ms));
        report.layer("host.import_ms", stats::median(&import_ms));
        report.layer("host.bytes_copied", bytes_copied as f64);
        report.layer("host.converted_cols", converted as f64);
        report.layer("alloc.peak_mb", alloc_peak as f64 / (1 << 20) as f64);
        report.layer("alloc.peak_over_budget", 0.0);
        layers::exec_counter_metrics(&mut report, &counters);
        report.layer(
            "trace.overhead_frac",
            if untraced_op.is_empty() {
                0.0
            } else {
                stats::median(&traced_op) / stats::median(&untraced_op) - 1.0
            },
        );
        let op_total = report.tracer.total_s("op");
        let inner = report.tracer.total_s("ingest") + report.tracer.total_s("export");
        report.layer("trace.accounted_frac", if op_total > 0.0 { inner / op_total } else { 0.0 });
    }
    Ok(report)
}
