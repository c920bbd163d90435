//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <tpch_hot|tpch_ooc|point_mix|transfer|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <parent.jsonl> <change.jsonl>
//! perfbench smoke
//! perfbench check-golden
//! perfbench record-expected <scale factor>
//! ```
//!
//! A workload run prints one detail line (environment header, the
//! workload's own figures, failures, trace summary) and, last, the
//! result line: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Each run also appends its record to
//! `perfbench/runs/results.jsonl`, which `compare` reads. See README.md.

mod alloc;
mod answers;
mod common;
mod compare;
mod env;
mod json;
mod layers;
mod point_mix;
mod smoke;
mod stats;
mod tpch;
mod trace;
mod transfer;

use common::{per_layer, Report, RunCfg, E2E};
use json::Json;
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = ["tpch_hot", "tpch_ooc", "point_mix", "transfer"];

/// Arguments of a workload run.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <tpch_hot|tpch_ooc|point_mix|transfer|all> --seed <n> \
     --seconds <s> --trace <0|1>\n       perfbench compare <parent.jsonl> \
     <change.jsonl>\n       perfbench smoke | check-golden | record-expected <sf>"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = val()?.clone(),
            "--seed" => r.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => r.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                r.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.workload != "all" && !WORKLOADS.contains(&r.workload.as_str()) {
        return Err(format!("unknown workload '{}'", r.workload));
    }
    if r.seconds.is_nan() || r.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(r)
}

/// Refuse to run with engine overrides in the environment.
fn hermetic() -> Result<(), String> {
    let vars = env::engine_overrides();
    if vars.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; the benchmark measures the engine's defaults",
            vars.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("smoke") => hermetic().and_then(|()| smoke::run()),
        Some("check-golden") => {
            hermetic().and_then(|()| env::in_work_dir("golden", |_| tpch::check_golden()))
        }
        Some("record-expected") if args.len() == 2 => hermetic().and_then(|()| {
            let sf = args[1].parse().map_err(|e| format!("scale factor: {e}"))?;
            env::in_work_dir("record", |_| tpch::record_expected(sf))
        }),
        _ => hermetic().and_then(|()| parse_run(&args)).and_then(|r| {
            if r.workload == "all" {
                run_all(&r)
            } else {
                run_one(&r)
            }
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            if msg.starts_with("unknown") || msg.contains("needs a value") {
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

/// Options recorded in the header, per workload.
fn options_json(workload: &str, sf: f64, report: &Report) -> Json {
    let db = monetlite::DbOptions::default();
    let exec = match workload {
        "tpch_hot" => tpch::exec_options(false, sf),
        "tpch_ooc" => tpch::exec_options(true, sf),
        _ => monetlite::exec::ExecOptions::default(),
    };
    let vmem = report.detail.get("vmem_budget").cloned().unwrap_or(Json::from("unlimited"));
    Json::obj()
        .with("exec", format!("{exec:?}"))
        .with("opt_flags", format!("{:?}", db.opt_flags))
        .with("vmem_budget", vmem)
        .with("wal_autocheckpoint", db.wal_autocheckpoint)
        .with("persistent", workload != "tpch_hot")
}

/// Run one workload in this process and print its result.
fn run_one(r: &RunArgs) -> Result<(), String> {
    let runs = env::bench_dir().join("runs");
    let started_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_millis() as f64);
    let report = env::in_work_dir("work", |work| {
        let cfg = RunCfg {
            seed: r.seed,
            seconds: r.seconds,
            trace: r.trace,
            sf: tpch::SF,
            rounds: None,
            corrupt: false,
            work: work.to_path_buf(),
        };
        run_workload(&r.workload, &cfg)
    })?;
    let header = env::header(
        &r.workload,
        r.seed,
        tpch::SF,
        r.trace,
        options_json(&r.workload, tpch::SF, &report),
    );
    let (metrics, detail) = result_parts(&report, r.trace)?;
    if r.trace {
        let path =
            runs.join(format!("{}-seed{}-{}.spans.jsonl", r.workload, r.seed, std::process::id()));
        report.tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let record = Json::obj()
        .with("workload", r.workload.as_str())
        .with("seed", r.seed)
        .with("trace", r.trace)
        .with("started_unix_ms", started_ms)
        .with("correct", report.failed == 0 && report.attempted > 0)
        .with("attempted", report.attempted)
        .with("failed", report.failed)
        .with("metrics", metrics.clone())
        .with("env", header.clone());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(runs.join("results.jsonl"))
        .map_err(|e| e.to_string())?;
    writeln!(f, "{}", record.render()).map_err(|e| e.to_string())?;
    let detail_line = Json::obj().with("env", header).with("detail", detail);
    println!("{}", detail_line.render());
    println!("{}", result_line(&report, metrics).render());
    Ok(())
}

pub fn run_workload(workload: &str, cfg: &RunCfg) -> Result<Report, String> {
    match workload {
        "tpch_hot" => tpch::run(cfg, false),
        "tpch_ooc" => tpch::run(cfg, true),
        "point_mix" => point_mix::run(cfg),
        "transfer" => transfer::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The metrics object of the result line, and the detail object.
pub fn result_parts(report: &Report, trace: bool) -> Result<(Json, Json), String> {
    let mut metrics = Json::obj();
    if trace {
        for (name, unit) in per_layer() {
            let v = report.layer.get(&name).copied().unwrap_or(0.0);
            metrics.set(&name, Json::obj().with("value", v).with("unit", unit));
        }
    } else {
        for (name, unit) in E2E {
            let v = if *name == "peak_rss_mb" {
                env::peak_rss_mb()
            } else {
                *report.e2e.get(name).ok_or_else(|| format!("metric {name} was not measured"))?
            };
            metrics.set(name, Json::obj().with("value", v).with("unit", *unit));
        }
    }
    let mut detail = report.detail.clone();
    detail.set("failed_frac", report.failed as f64 / report.attempted.max(1) as f64);
    detail.set("peak_rss_mb", env::peak_rss_mb());
    detail.set(
        "failures",
        report.failures.iter().map(|s| Json::from(s.as_str())).collect::<Vec<_>>(),
    );
    if trace {
        detail.set("spans", report.tracer.summary_json());
    }
    Ok((metrics, detail))
}

pub fn result_line(report: &Report, metrics: Json) -> Json {
    Json::obj()
        .with("correct", report.failed == 0 && report.attempted > 0)
        .with("attempted", report.attempted.max(1))
        .with("failed", report.failed)
        .with("metrics", metrics)
}

/// Run every workload, each in its own process (so `peak_rss_mb` is its
/// own), and print the figures side by side.
fn run_all(r: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut summary = Json::obj();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &r.seed.to_string()])
            .args(["--seconds", &r.seconds.to_string(), "--trace", if r.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        if !out.status.success() || lines.len() < 2 {
            return Err(format!("{w} failed ({})", out.status));
        }
        let detail = Json::parse(lines[lines.len() - 2])?;
        let result = Json::parse(lines[lines.len() - 1])?;
        all_ok &= result.get("correct") == Some(&Json::Bool(true));
        println!("== {w}");
        for (name, m) in result.get("metrics").map_or(&[][..], Json::members) {
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<32} {v:>14.4} {unit}");
        }
        if let Some(d) = detail.get("detail") {
            for (name, v) in d.members() {
                match v {
                    Json::Num(x) => println!("  {name:<32} {x:>14.4}"),
                    Json::Obj(_) if v.get("median").is_some() => {
                        let med = v.get("median").and_then(Json::as_f64).unwrap_or(0.0);
                        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                        let n = v.get("n").and_then(Json::as_f64).unwrap_or(0.0);
                        let tail = match (v.get("tail_pct"), v.get("tail")) {
                            (Some(Json::Num(p)), Some(Json::Num(t))) => format!(", p{p} {t:.4}"),
                            _ => String::new(),
                        };
                        println!("  {name:<32} {med:>14.4} {unit} (median{tail}, n={n})");
                    }
                    _ => {}
                }
            }
        }
        summary.set(w, result);
    }
    println!("{}", Json::obj().with("correct", all_ok).with("workloads", summary).render());
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::smoke::run().expect("smoke test");
    }
}
