//! Compare mode: two sets of untraced runs (parent and change), read
//! from the records the runs append to `perfbench/runs/results.jsonl`,
//! give one verdict per workload and end-to-end metric.
//!
//! The i-th parent run is paired with the i-th change run; the runs of a
//! pair should have been made back to back, alternating which side went
//! first. Verdicts:
//! - `improved`: at least ten pairs, the change better in at least nine
//!   tenths of them (ties count for neither), and the medians differing
//!   by more than the parent's interquartile range;
//! - `unresolved`: either side's interquartile range, as a share of its
//!   median, exceeds the metric's bound, unless every change run is
//!   better than every parent run;
//! - `worse`: the change's median is worse than the parent's by more
//!   than the bound in `BENCHMARK.json`;
//! - `no worse`: otherwise.

use crate::json::Json;
use crate::{env, stats};
use std::collections::BTreeMap;

struct Metric {
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<BTreeMap<String, Metric>, String> {
    let p = env::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let j = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in j.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
        out.insert(
            name.to_string(),
            Metric {
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?,
            },
        );
    }
    Ok(out)
}

/// Untraced records by workload, in file order.
fn load(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = Json::parse(line)?;
        if rec.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let w = rec.get("workload").and_then(Json::as_str).ok_or("record without a workload")?;
        out.entry(w.to_string()).or_default().push(rec);
    }
    Ok(out)
}

fn value(rec: &Json, metric: &str) -> Option<f64> {
    rec.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// The verdict on one metric from paired values.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let worse_by = |c: f64, p: f64| if lower_is_better { c - p } else { p - c };
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let (pq1, pq3) = stats::quartiles(parent);
    let (cq1, cq3) = stats::quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| worse_by(**c, **p) < 0.0).count();
    if pairs >= 10
        && wins * 10 >= pairs * 9
        && worse_by(cm, pm) < 0.0
        && (cm - pm).abs() > pq3 - pq1
    {
        return "improved";
    }
    let spread = ((pq3 - pq1) / pm.abs().max(1e-12)).max((cq3 - cq1) / cm.abs().max(1e-12));
    let all_better = change.iter().all(|c| parent.iter().all(|p| worse_by(*c, *p) < 0.0));
    if spread > bound && !all_better {
        "unresolved"
    } else if worse_by(cm, pm) > bound * pm.abs() {
        "worse"
    } else {
        "no worse"
    }
}

pub fn run(parent_path: &str, change_path: &str) -> Result<(), String> {
    let bounds = bounds()?;
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut rows = Vec::new();
    println!(
        "{:<10} {:<28} {:>5} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "pairs", "parent p50", "change p50", "bound"
    );
    for (w, prec) in &parent {
        let Some(crec) = change.get(w) else { continue };
        for (name, m) in &bounds {
            let p: Vec<f64> = prec.iter().filter_map(|r| value(r, name)).collect();
            let c: Vec<f64> = crec.iter().filter_map(|r| value(r, name)).collect();
            let n = p.len().min(c.len());
            if n == 0 {
                continue;
            }
            let v = verdict(&p[..n], &c[..n], m.lower_is_better, m.bound);
            let (pm, cm) = (stats::median(&p[..n]), stats::median(&c[..n]));
            println!("{w:<10} {name:<28} {n:>5} {pm:>14.4} {cm:>14.4} {:>7}  {v}", m.bound);
            rows.push(
                Json::obj()
                    .with("workload", w.as_str())
                    .with("metric", name.as_str())
                    .with("pairs", n)
                    .with("parent_median", pm)
                    .with("change_median", cm)
                    .with("verdict", v),
            );
        }
    }
    println!("{}", Json::obj().with("verdicts", rows).render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.15), "improved");
        assert_eq!(verdict(&parent, &slower, true, 0.15), "worse");
        assert_eq!(verdict(&parent, &parent, true, 0.15), "no worse");
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
        assert_eq!(verdict(&noisy, &noisy, true, 0.15), "unresolved");
        // Higher is better: a lower change is a regression.
        assert_eq!(verdict(&parent, &faster, false, 0.15), "worse");
    }
}
