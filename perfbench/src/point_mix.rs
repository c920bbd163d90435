//! `point_mix`: short statements at default options (plan and result
//! caches on) against a persistent database, over one connection in a
//! closed loop.
//!
//! Two tables: `accounts` (static) and `events` (appended to during the
//! run). Of every hundred statements, on average 30 are point lookups of
//! an account, 25 point lookups of an event, 20 narrow range aggregates
//! over event time, 15 top-k queries over accounts of one region, and 10
//! small autocommit appends of 1–4 rows to `events`. Each read draws its
//! literal from a small hot set with probability [`HOT_SHARE`] (top-k
//! always does: there are only 20 regions), so a known share of reads
//! repeats an earlier statement exactly; appends to `events` invalidate
//! cached results that read it.
//!
//! Answers: a seeded sample of reads is replayed against the row-store
//! oracle after the run, with every append applied in the same order.

use crate::common::{
    repeat_setup, secs, timing, Report, Rng, RunCfg, SetupTimes, SHORT_SETUP_REPS,
};
use crate::json::Json;
use crate::{alloc, answers, env, layers, stats};
use monetlite::exec::CountersSnapshot;
use monetlite::types::{ColumnBuffer, Value};
use monetlite::{Database, DbOptions, QueryResult};
use std::time::Instant;

const DDL: &str = "
CREATE TABLE accounts (a_id INTEGER NOT NULL, a_region INTEGER NOT NULL, a_balance DECIMAL(12,2), a_name VARCHAR(20));
CREATE TABLE events (e_id BIGINT NOT NULL, e_account INTEGER NOT NULL, e_ts INTEGER NOT NULL, e_amount DECIMAL(12,2), e_kind VARCHAR(8));
";

/// Rows at the benchmark's scale factor; smaller runs scale down.
const ACCOUNTS_AT_SF: f64 = 10_000.0;
const EVENTS_AT_SF: f64 = 100_000.0;
const REGIONS: u64 = 20;
/// Event timestamps advance by this much per row (clustered), so a range
/// predicate on `e_ts` selects a narrow run of rows.
const TS_STEP: i64 = 10;
/// Width of a range aggregate, in timestamp units (~20 rows).
const RANGE_WIDTH: i64 = 200;
/// Share of reads whose literal comes from the hot set.
pub const HOT_SHARE: f64 = 0.3;
const HOT_SET: usize = 16;
/// Statements per measured round.
const ROUND: usize = 250;
/// Rounds per second of `--seconds`. The database changes with every
/// append and statements get slower as appends accumulate, so a run does
/// a fixed amount of work (about `--seconds` on a 2-core host) instead
/// of stopping on time: every run and every commit then measures the same
/// trajectory.
const ROUNDS_PER_SECOND: f64 = 4.0;
/// Share of reads replayed against the oracle, and their cap.
const CHECK_SHARE: f64 = 0.125;
const MAX_CHECKS: usize = 48;
const KINDS: [&str; 5] = ["account_point", "event_point", "range_agg", "topk", "append"];
const APPEND: usize = 4;
const EVENT_KINDS: [&str; 4] = ["buy", "sell", "fee", "refund"];

struct Data {
    accounts: Vec<ColumnBuffer>,
    events: Vec<ColumnBuffer>,
}

fn generate(rng: &mut Rng, n_acc: usize, n_ev: usize) -> Data {
    let accounts = vec![
        ColumnBuffer::Int((0..n_acc as i32).collect()),
        ColumnBuffer::Int((0..n_acc).map(|_| rng.below(REGIONS) as i32).collect()),
        ColumnBuffer::Decimal {
            data: (0..n_acc).map(|_| rng.below(10_000_000) as i64).collect(),
            scale: 2,
        },
        ColumnBuffer::Varchar((0..n_acc).map(|i| Some(format!("acct-{i:06}"))).collect()),
    ];
    let events = event_rows(rng, 0, n_ev, n_acc);
    Data { accounts, events }
}

/// `n` event rows with ids from `first`.
fn event_rows(rng: &mut Rng, first: usize, n: usize, n_acc: usize) -> Vec<ColumnBuffer> {
    let ids = first as i64..(first + n) as i64;
    vec![
        ColumnBuffer::Bigint(ids.clone().collect()),
        ColumnBuffer::Int((0..n).map(|_| rng.below(n_acc as u64) as i32).collect()),
        ColumnBuffer::Int(
            ids.map(|i| (i * TS_STEP + rng.below(TS_STEP as u64) as i64) as i32).collect(),
        ),
        ColumnBuffer::Decimal {
            data: (0..n).map(|_| rng.below(100_000) as i64).collect(),
            scale: 2,
        },
        ColumnBuffer::Varchar(
            (0..n).map(|_| Some(EVENT_KINDS[rng.below(4) as usize].to_string())).collect(),
        ),
    ]
}

fn rows_of(cols: &[ColumnBuffer]) -> Vec<Vec<Value>> {
    (0..cols[0].len()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect()
}

fn user_bytes(cols: &[ColumnBuffer]) -> usize {
    cols.iter().map(|c| c.size_bytes()).sum()
}

enum Stmt {
    Read { kind: usize, sql: String },
    Append(Vec<ColumnBuffer>),
}

/// The seeded statement stream.
struct Gen {
    rng: Rng,
    n_acc: usize,
    n_ev: usize,
    next_id: usize,
    hot: [Vec<u64>; 3],
}

impl Gen {
    fn new(seed: u64, n_acc: usize, n_ev: usize) -> Gen {
        let mut rng = Rng::new(seed ^ 0x005e_ed0f_57a7);
        let max_ts = (n_ev as i64 * TS_STEP - RANGE_WIDTH).max(1) as u64;
        let hot = [
            (0..HOT_SET).map(|_| rng.below(n_acc as u64)).collect(),
            (0..HOT_SET).map(|_| rng.below(n_ev as u64)).collect(),
            (0..HOT_SET).map(|_| rng.below(max_ts)).collect(),
        ];
        Gen { rng, n_acc, n_ev, next_id: n_ev, hot }
    }

    fn literal(&mut self, kind: usize, domain: u64) -> u64 {
        if self.rng.chance(HOT_SHARE) {
            self.hot[kind][self.rng.below(HOT_SET as u64) as usize]
        } else {
            self.rng.below(domain)
        }
    }

    fn next(&mut self) -> Stmt {
        let roll = self.rng.below(100);
        let max_ts = (self.n_ev as i64 * TS_STEP - RANGE_WIDTH).max(1) as u64;
        let (kind, sql) = match roll {
            0..=29 => {
                let k = self.literal(0, self.n_acc as u64);
                (
                    0,
                    format!(
                        "SELECT a_id, a_region, a_balance, a_name FROM accounts WHERE a_id = {k}"
                    ),
                )
            }
            30..=54 => {
                let k = self.literal(1, self.n_ev as u64);
                (1, format!("SELECT e_id, e_account, e_ts, e_amount, e_kind FROM events WHERE e_id = {k}"))
            }
            55..=74 => {
                let a = self.literal(2, max_ts);
                let b = a as i64 + RANGE_WIDTH;
                (2, format!("SELECT count(*), sum(e_amount), min(e_id), max(e_id) FROM events WHERE e_ts >= {a} AND e_ts < {b}"))
            }
            75..=89 => {
                let r = self.rng.below(REGIONS);
                (3, format!("SELECT a_id, a_balance FROM accounts WHERE a_region = {r} ORDER BY a_balance DESC, a_id LIMIT 10"))
            }
            _ => {
                let n = 1 + self.rng.below(APPEND as u64) as usize;
                let cols = event_rows(&mut self.rng, self.next_id, n, self.n_acc);
                self.next_id += n;
                return Stmt::Append(cols);
            }
        };
        Stmt::Read { kind, sql }
    }
}

/// What the oracle replays, in statement order.
enum Logged {
    Append(Vec<Vec<Value>>),
    Check { sql: String, got: String },
}

fn set_up(cfg: &RunCfg, data: &Data) -> Result<(Database, SetupTimes), String> {
    let e = |e: monetlite::types::MlError| e.to_string();
    let dir = cfg.fresh_dir("point-mix-db");
    let opts = || DbOptions { path: Some(dir.clone()), ..Default::default() };
    let (acc, ev) = (data.accounts.clone(), data.events.clone());
    let t = Instant::now();
    let db = Database::open_with(opts()).map_err(e)?;
    let mut conn = db.connect();
    conn.run_script(DDL).map_err(e)?;
    let create_s = secs(t);
    let t_app = Instant::now();
    conn.append("accounts", acc).map_err(e)?;
    conn.append("events", ev).map_err(e)?;
    let append_s = secs(t_app);
    let t_ck = Instant::now();
    db.checkpoint().map_err(e)?;
    drop(conn);
    drop(db);
    let checkpoint_s = secs(t_ck);
    let disk_bytes = env::dir_bytes(&dir);
    let t_open = Instant::now();
    let db = Database::open_with(opts()).map_err(e)?;
    let open_s = secs(t_open);
    let total_s = create_s + append_s + checkpoint_s + open_s;
    Ok((db, SetupTimes { total_s, append_s, checkpoint_s, open_s, disk_bytes }))
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::new(cfg.trace);
    let scale = cfg.sf / crate::tpch::SF;
    let n_acc = ((ACCOUNTS_AT_SF * scale) as usize).max(200);
    let n_ev = ((EVENTS_AT_SF * scale) as usize).max(1000);
    let data = generate(&mut Rng::new(cfg.seed), n_acc, n_ev);
    let user = (user_bytes(&data.accounts) + user_bytes(&data.events)) as f64;

    let (db, setup_s, disk_bytes) =
        repeat_setup(&mut report, SHORT_SETUP_REPS, || set_up(cfg, &data))?;

    let mut conn = db.connect();
    let (plan0, result0) = layers::cache_counts(&db);
    let mut gen = Gen::new(cfg.seed, n_acc, n_ev);
    let mut sampler = Rng::new(cfg.seed ^ 0xc4ec_5a3b_1e00_0001);
    let mut log: Vec<Logged> = Vec::new();
    let mut checks = 0usize;

    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut traced_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut untraced_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let (mut explain_total, mut read_total, mut exec_total, mut traced_reads) =
        (0.0, 0.0, 0.0, 0u64);
    let mut qerrors = Vec::new();
    let mut per_round: Vec<CountersSnapshot> = Vec::new();
    let mut vmem_rounds: Vec<(u64, u64, u64)> = Vec::new();
    let mut alloc_peak = 0u64;
    let mut round_s = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let (mut reads, mut repeats) = (0u64, 0u64);
    let mut appended = 0usize;
    let mut op = 0u64;
    let mut busy_s = 0.0;
    let rounds = cfg.rounds.unwrap_or(((cfg.seconds * ROUNDS_PER_SECOND).ceil() as usize).max(2));
    let mut round = 0usize;
    while round < rounds {
        let traced = cfg.traced_round(round);
        report.tracer.set_on(traced);
        alloc::set_counting(traced);
        let vm0 = db.vmem_stats();
        let mut rc = CountersSnapshot::default();
        let mut sampled: Vec<(usize, QueryResult)> = Vec::new();
        let span = report.tracer.begin("round", round as u64);
        let t_round = Instant::now();
        for _ in 0..ROUND {
            op += 1;
            match gen.next() {
                Stmt::Read { kind, sql } => {
                    reads += 1;
                    repeats += u64::from(!seen.insert(sql.clone()));
                    let mut explain_s = 0.0;
                    if traced {
                        let e = report.tracer.begin("plan.explain", op);
                        let r = conn.query(&format!("EXPLAIN {sql}"));
                        explain_s = report.tracer.end(e);
                        if let Err(err) = r {
                            report.outcome(Err(format!("EXPLAIN {sql}: {err}")));
                        }
                    }
                    let a0 = alloc::window_start();
                    let s = report.tracer.begin("stmt", op);
                    let t = Instant::now();
                    let q = report.tracer.begin("engine.query", op);
                    let r = conn.query(&sql);
                    report.tracer.end(q);
                    let dt = secs(t);
                    let counters = if traced { conn.last_exec_counters() } else { None };
                    report.tracer.end(s);
                    by_kind[kind].push(dt);
                    if cfg.trace {
                        if traced {
                            traced_kind[kind].push(dt);
                            explain_total += explain_s;
                            read_total += dt;
                            exec_total += (dt - explain_s).max(0.0);
                            traced_reads += 1;
                            alloc_peak = alloc_peak.max(alloc::window_peak(a0));
                            if let (Some(c), Ok(res)) = (counters, &r) {
                                layers::add_counters(&mut rc, &c);
                                let est = (c.estimated_rows as f64).max(1.0);
                                let act = (res.nrows() as f64).max(1.0);
                                qerrors.push((est / act).max(act / est));
                            }
                        } else {
                            untraced_kind[kind].push(dt);
                        }
                    }
                    match r {
                        Err(e) => report.outcome(Err(format!("{sql}: {e}"))),
                        Ok(res) => {
                            if checks < MAX_CHECKS && sampler.chance(CHECK_SHARE) {
                                checks += 1;
                                log.push(Logged::Check { sql, got: String::new() });
                                sampled.push((log.len() - 1, res));
                            } else {
                                report.outcome(Ok(()));
                            }
                        }
                    }
                }
                Stmt::Append(cols) => {
                    let rows = rows_of(&cols);
                    let s = report.tracer.begin("stmt", op);
                    let t = Instant::now();
                    let a = report.tracer.begin("storage.append", op);
                    let r = conn.append("events", cols);
                    report.tracer.end(a);
                    let dt = secs(t);
                    report.tracer.end(s);
                    by_kind[4].push(dt);
                    if cfg.trace {
                        if traced { &mut traced_kind[4] } else { &mut untraced_kind[4] }.push(dt);
                    }
                    match r {
                        Ok(()) => {
                            appended += rows.len();
                            log.push(Logged::Append(rows));
                            report.outcome(Ok(()));
                        }
                        Err(e) => report.outcome(Err(format!("append: {e}"))),
                    }
                }
            }
        }
        let wall = secs(t_round);
        report.tracer.end(span);
        alloc::set_counting(false);
        busy_s += wall;
        round_s.push(wall);
        round += 1;
        if traced {
            let vm1 = db.vmem_stats();
            vmem_rounds.push((
                vm1.loads - vm0.loads,
                vm1.evictions - vm0.evictions,
                vm1.bytes_loaded - vm0.bytes_loaded,
            ));
            per_round.push(rc);
        }
        for (i, res) in sampled {
            if let Logged::Check { got, .. } = &mut log[i] {
                *got = answers::fmt_result(&res);
            }
        }
    }
    report.tracer.set_on(false);
    let statements = op;
    if cfg.trace {
        layers::cache_metrics(&mut report, &db, plan0, result0, reads, repeats);
    }

    // The engine's final row count, then the oracle replay.
    let final_rows = conn
        .query("SELECT count(*) FROM events")
        .map(|r| answers::fmt_result(&r))
        .map_err(|e| e.to_string());
    report.outcome(final_rows.and_then(|got| {
        let want = format!("{}\n", n_ev + appended);
        answers::diff(&got, &want).map_or(Ok(()), |d| Err(format!("events row count: {d}")))
    }));
    drop(conn);
    drop(db);
    replay_on_oracle(&mut report, cfg, &data, log)?;

    // End-to-end.
    report.e2e.insert("setup_s", stats::median(&setup_s));
    report.e2e.insert("round_s", stats::mean(&round_s));
    report.e2e.insert("stmt_ms.geomean", stats::geomean_of_kinds(&by_kind) * 1e3);
    report.e2e.insert("stored_bytes_per_user_byte", disk_bytes as f64 / user);
    let read_us: Vec<f64> = by_kind[..4].iter().flatten().map(|t| t * 1e6).collect();
    let write_us: Vec<f64> = by_kind[4].iter().map(|t| t * 1e6).collect();
    let mut per_kind = Json::obj();
    for (k, name) in KINDS.iter().enumerate() {
        per_kind.set(name, timing(&by_kind[k].iter().map(|t| t * 1e6).collect::<Vec<_>>(), "us"));
    }
    report.detail.set("setup_s", timing(&setup_s, "s"));
    report.detail.set("round_s", timing(&round_s, "s"));
    let quarter = (round_s.len() / 4).max(1);
    report.detail.set("round_s.first_quarter", stats::median(&round_s[..quarter]));
    report.detail.set("round_s.last_quarter", stats::median(&round_s[round_s.len() - quarter..]));
    report.detail.set("read_us", timing(&read_us, "us"));
    report.detail.set("write_us", timing(&write_us, "us"));
    report.detail.set("read_us.p50", stats::median(&read_us));
    report.detail.set("read_us.p99", stats::percentile(&read_us, 99.0));
    report.detail.set("write_us.p50", stats::median(&write_us));
    report.detail.set("write_us.p99", stats::percentile(&write_us, 99.0));
    report.detail.set("stmts_per_s", statements as f64 / busy_s.max(1e-9));
    report.detail.set("per_kind_us", per_kind);
    report.detail.set("statements", statements);
    report.detail.set("rows_appended", appended);
    report.detail.set("oracle_checks", checks);
    report.detail.set("stored_bytes_per_user_byte", disk_bytes as f64 / user);
    report.detail.set("tables", Json::obj().with("accounts", n_acc).with("events", n_ev));

    if cfg.trace {
        report.layer("plan.ms", explain_total / traced_reads.max(1) as f64 * 1e3);
        report.layer("plan.share", if read_total > 0.0 { explain_total / read_total } else { 0.0 });
        report.layer("opt.qerror.p50", stats::median(&qerrors));
        report.layer("opt.qerror.max", qerrors.iter().copied().fold(0.0, f64::max));
        report.layer("exec.ms", exec_total / traced_reads.max(1) as f64 * 1e3);
        layers::exec_counter_metrics(&mut report, &per_round);
        let vm = |f: fn(&(u64, u64, u64)) -> u64| {
            stats::median(&vmem_rounds.iter().map(|v| f(v) as f64).collect::<Vec<_>>())
        };
        report.layer("vmem.loads", vm(|v| v.0));
        report.layer("vmem.evictions", vm(|v| v.1));
        report.layer("vmem.bytes_loaded", vm(|v| v.2));
        report.layer("storage.append_ms", stats::median(&by_kind[4]) * 1e3);
        report.layer("alloc.peak_mb", alloc_peak as f64 / (1 << 20) as f64);
        report.layer("alloc.peak_over_budget", 0.0);
        let ratios: Vec<f64> = (0..KINDS.len())
            .filter(|&k| !traced_kind[k].is_empty() && !untraced_kind[k].is_empty())
            .map(|k| stats::median(&traced_kind[k]) / stats::median(&untraced_kind[k]))
            .collect();
        report.layer("trace.overhead_frac", stats::geomean(&ratios) - 1.0);
        let stmt_s = report.tracer.total_s("stmt");
        let inner = report.tracer.total_s("engine.query") + report.tracer.total_s("storage.append");
        report.layer("trace.accounted_frac", if stmt_s > 0.0 { inner / stmt_s } else { 0.0 });
    }
    Ok(report)
}

/// Replay the run on the row-store oracle: the same base data, every
/// append in order, and each sampled read compared with the engine's
/// answer.
fn replay_on_oracle(
    report: &mut Report,
    cfg: &RunCfg,
    data: &Data,
    log: Vec<Logged>,
) -> Result<(), String> {
    let e = |e: monetlite::types::MlError| e.to_string();
    let rdb = monetlite_rowstore::RowDb::in_memory();
    rdb.run_script(DDL).map_err(e)?;
    rdb.insert_rows("accounts", rows_of(&data.accounts)).map_err(e)?;
    rdb.insert_rows("events", rows_of(&data.events)).map_err(e)?;
    let mut first = true;
    for entry in log {
        match entry {
            Logged::Append(rows) => {
                rdb.insert_rows("events", rows).map_err(e)?;
            }
            Logged::Check { sql, got } => {
                let mut want = match rdb.query(&sql) {
                    Ok(r) => answers::fmt_rows(r.rows.into_iter()),
                    Err(err) => return Err(format!("oracle failed on {sql}: {err}")),
                };
                if cfg.corrupt && first {
                    want.push_str("corrupted|row\n");
                }
                first = false;
                report.outcome(
                    answers::diff(&got, &want).map_or(Ok(()), |d| Err(format!("{sql}: {d}"))),
                );
            }
        }
    }
    Ok(())
}
