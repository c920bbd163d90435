//! Smoke test of the benchmark at a tiny scale factor, with a fixed
//! number of rounds instead of a time budget. It checks that
//! - `BENCHMARK.json` names exactly the metrics the runs emit, with the
//!   same units;
//! - every workload emits every end-to-end metric (untraced) and every
//!   per-layer metric (traced), and answers correctly;
//! - a corrupted expected answer is reported as a failed operation;
//! - two traced runs with the same seed give identical counts.

use crate::common::{per_layer, RunCfg, E2E};
use crate::json::Json;
use crate::{env, result_parts, run_workload, WORKLOADS};

const SMOKE_SF: f64 = 0.002;

/// Per-layer metrics that must repeat exactly between same-seed runs.
fn is_count(name: &str) -> bool {
    let counted = ["exec.", "spill.", "vmem.", "host."];
    (counted.iter().any(|p| name.starts_with(p)) && !name.ends_with("_ms") && name != "exec.ms")
        || name == "plan_cache.hit_ratio"
        || name == "result_cache.hit_ratio"
}

fn check_benchmark_json() -> Result<(), String> {
    let p = env::repo_root().join("BENCHMARK.json");
    let j =
        Json::parse(&std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?)?;
    let listed = |key: &str| -> Vec<(String, String)> {
        j.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> =
        E2E.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    let layer: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    if listed("end_to_end") != e2e {
        return Err(format!(
            "BENCHMARK.json end_to_end {:?} != emitted {e2e:?}",
            listed("end_to_end")
        ));
    }
    if listed("per_layer") != layer {
        return Err("BENCHMARK.json per_layer differs from the emitted per-layer metrics".into());
    }
    let workloads: Vec<String> = j
        .get("workloads")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"));
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    check_benchmark_json()?;
    env::in_work_dir("smoke", smoke_all)
}

fn smoke_all(work: &std::path::Path) -> Result<(), String> {
    let cfg = |trace, corrupt| RunCfg {
        seed: 7,
        seconds: 1.0,
        trace,
        sf: SMOKE_SF,
        rounds: Some(2),
        corrupt,
        work: work.to_path_buf(),
    };
    for w in WORKLOADS {
        // Untraced: every end-to-end metric, nothing failed.
        let rep = run_workload(w, &cfg(false, false))?;
        let (metrics, _) = result_parts(&rep, false)?;
        for (name, unit) in E2E {
            let m = metrics.get(name).ok_or_else(|| format!("{w}: {name} missing"))?;
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            if m.get("unit").and_then(Json::as_str) != Some(unit) || v <= 0.0 || v.is_nan() {
                return Err(format!("{w}: {name} = {} (must be > 0, in {unit})", m.render()));
            }
        }
        if rep.failed != 0 || rep.attempted == 0 {
            return Err(format!(
                "{w}: {}/{} failed: {:?}",
                rep.failed, rep.attempted, rep.failures
            ));
        }

        // Traced twice with one seed: every per-layer metric, equal counts.
        let a = run_workload(w, &cfg(true, false))?;
        let b = run_workload(w, &cfg(true, false))?;
        let (ma, _) = result_parts(&a, true)?;
        let (mb, _) = result_parts(&b, true)?;
        for (name, _) in per_layer() {
            let va = ma.get(&name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            let vb = mb.get(&name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            if va.is_none() {
                return Err(format!("{w}: per-layer {name} missing"));
            }
            if is_count(&name) && va != vb {
                return Err(format!(
                    "{w}: {name} differs between same-seed runs: {va:?} vs {vb:?}"
                ));
            }
        }
        if a.failed != 0 {
            return Err(format!("{w} (traced): {:?}", a.failures));
        }

        // A corrupted expected answer is a failed operation.
        let c = run_workload(w, &cfg(false, true))?;
        if c.failed == 0 {
            return Err(format!("{w}: a corrupted expected answer went unnoticed"));
        }
        eprintln!(
            "smoke {w}: ok ({} operations; corrupted answer caught as {} failure(s))",
            rep.attempted, c.failed
        );
    }
    println!("smoke test passed");
    Ok(())
}
