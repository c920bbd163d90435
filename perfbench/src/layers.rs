//! Per-layer figures read from the engine's public counters, shared by
//! the workloads.

use crate::common::Report;
use crate::json::Json;
use crate::stats;
use monetlite::exec::CountersSnapshot;
use monetlite::Database;

/// Add one statement's execution counters to a running sum.
pub fn add_counters(acc: &mut CountersSnapshot, c: &CountersSnapshot) {
    acc.pipelines += c.pipelines;
    acc.morsels += c.morsels;
    acc.vectors += c.vectors;
    acc.vectors_skipped += c.vectors_skipped;
    acc.sel_vectors += c.sel_vectors;
    acc.dict_hits += c.dict_hits;
    acc.bloom_pruned += c.bloom_pruned;
    acc.imprint_selects += c.imprint_selects;
    acc.spilled_partitions += c.spilled_partitions;
    acc.spill_bytes += c.spill_bytes;
}

/// Execution-layer counters as per-layer metrics (medians over `per`).
pub fn exec_counter_metrics(report: &mut Report, per: &[CountersSnapshot]) {
    let med = |f: fn(&CountersSnapshot) -> u64| {
        stats::median(&per.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let vectors = med(|c| c.vectors);
    let skipped = med(|c| c.vectors_skipped);
    report.layer("exec.pipelines", med(|c| c.pipelines));
    report.layer("exec.morsels", med(|c| c.morsels));
    report.layer("exec.vectors", vectors);
    report.layer("exec.vectors_skipped", skipped);
    report.layer(
        "exec.skip_ratio",
        if vectors + skipped > 0.0 { skipped / (vectors + skipped) } else { 0.0 },
    );
    report.layer("exec.sel_vectors", med(|c| c.sel_vectors));
    report.layer("exec.dict_hits", med(|c| c.dict_hits));
    report.layer("exec.bloom_pruned", med(|c| c.bloom_pruned));
    report.layer("exec.imprint_selects", med(|c| c.imprint_selects));
    report.layer("spill.bytes", med(|c| c.spill_bytes));
    report.layer("spill.partitions", med(|c| c.spilled_partitions));
}

/// Plan- and result-cache counters `(hits, misses, invalidations)`.
pub type CacheCounts = (u64, u64, u64);

pub fn cache_counts(db: &Database) -> (CacheCounts, CacheCounts) {
    use std::sync::atomic::Ordering::Relaxed;
    let p = db.plan_cache();
    let r = db.result_cache();
    (
        (p.hits.load(Relaxed), p.misses.load(Relaxed), p.invalidations.load(Relaxed)),
        (r.hits.load(Relaxed), r.misses.load(Relaxed), r.invalidations.load(Relaxed)),
    )
}

/// Cache-layer metrics from the counter deltas since `plan0`/`result0`,
/// and the input's repeat share.
pub fn cache_metrics(
    report: &mut Report,
    db: &Database,
    plan0: CacheCounts,
    result0: CacheCounts,
    stmts: u64,
    repeats: u64,
) {
    let (p1, r1) = cache_counts(db);
    let ratio = |h: u64, m: u64| if h + m > 0 { h as f64 / (h + m) as f64 } else { 0.0 };
    report.layer("plan_cache.hit_ratio", ratio(p1.0 - plan0.0, p1.1 - plan0.1));
    report.layer("result_cache.hit_ratio", ratio(r1.0 - result0.0, r1.1 - result0.1));
    report.layer("result_cache.invalidations", (r1.2 - result0.2) as f64);
    let rc = db.result_cache();
    report.layer(
        "result_cache.bytes_per_entry",
        if rc.is_empty() { 0.0 } else { rc.bytes() as f64 / rc.len() as f64 },
    );
    report.layer("input.repeat_share", if stmts > 0 { repeats as f64 / stmts as f64 } else { 0.0 });
    report.detail.set(
        "caches",
        Json::obj()
            .with("plan_hits", p1.0 - plan0.0)
            .with("plan_misses", p1.1 - plan0.1)
            .with("plan_invalidations", p1.2 - plan0.2)
            .with("result_hits", r1.0 - result0.0)
            .with("result_misses", r1.1 - result0.1)
            .with("result_invalidations", r1.2 - result0.2)
            .with("result_entries", db.result_cache().len())
            .with("result_bytes", db.result_cache().bytes()),
    );
}
