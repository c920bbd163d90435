//! What every workload shares: run settings, the report it fills, metric
//! names and units, and the seeded generator its inputs come from.

use crate::json::Json;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, reported by every workload from the untraced run:
/// `(name, unit)`. `peak_rss_mb` is read by `main`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_s", "s"),
    ("stmt_ms.geomean", "ms"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload from the traced run
/// (0 where the workload does not exercise the layer): `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("plan.ms", "ms"),
        ("plan.share", "ratio"),
        ("opt.qerror.p50", "ratio"),
        ("opt.qerror.max", "ratio"),
        ("plan_cache.hit_ratio", "ratio"),
        ("result_cache.hit_ratio", "ratio"),
        ("result_cache.invalidations", "count"),
        ("result_cache.bytes_per_entry", "bytes"),
        ("input.repeat_share", "ratio"),
        ("exec.ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    v.extend((1..=22).map(|q| (format!("q{q:02}.ms"), "ms")));
    v.extend(
        [
            ("exec.pipelines", "count"),
            ("exec.morsels", "count"),
            ("exec.vectors", "count"),
            ("exec.vectors_skipped", "count"),
            ("exec.skip_ratio", "ratio"),
            ("exec.sel_vectors", "count"),
            ("exec.dict_hits", "count"),
            ("exec.bloom_pruned", "count"),
            ("exec.imprint_selects", "count"),
            ("spill.bytes", "bytes"),
            ("spill.partitions", "count"),
            ("vmem.loads", "count"),
            ("vmem.evictions", "count"),
            ("vmem.bytes_loaded", "bytes"),
            ("storage.append_ms", "ms"),
            ("storage.checkpoint_ms", "ms"),
            ("storage.open_ms", "ms"),
            ("storage.disk_bytes", "bytes"),
            ("export.query_ms", "ms"),
            ("host.import_ms", "ms"),
            ("host.bytes_copied", "bytes"),
            ("host.converted_cols", "count"),
            ("alloc.peak_mb", "MB"),
            ("alloc.peak_over_budget", "ratio"),
            ("trace.overhead_frac", "ratio"),
            ("trace.accounted_frac", "ratio"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    v
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups per run where one set-up takes well under a second.
pub const SHORT_SETUP_REPS: usize = 9;
/// Rounds measured at least, whatever the time budget.
const MIN_ROUNDS: usize = 2;

/// Settings of one run.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// TPC-H scale factor (the smoke test runs a tiny one).
    pub sf: f64,
    /// A fixed number of measured rounds instead of a time budget, so
    /// two runs do identical work (smoke test).
    pub rounds: Option<usize>,
    /// Corrupt one expected answer (smoke test of the answer checks).
    pub corrupt: bool,
    /// Working directory inside the checkout (databases, spill files).
    pub work: PathBuf,
}

impl RunCfg {
    /// Whether to start another measured round.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        match self.rounds {
            Some(n) => done < n,
            None => done < MIN_ROUNDS || started.elapsed().as_secs_f64() < self.seconds,
        }
    }

    /// The traced run alternates traced and untraced rounds, starting
    /// traced; the untraced ones measure the tracing overhead.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round.is_multiple_of(2)
    }

    /// A fresh directory under the working directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.work.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

/// Timings of one set-up.
pub struct SetupTimes {
    pub total_s: f64,
    pub append_s: f64,
    pub checkpoint_s: f64,
    /// Reopen time of a persistent database; open time in memory.
    pub open_s: f64,
    /// Database directory size after the checkpoint (0 in memory).
    pub disk_bytes: u64,
}

/// Set up `reps` times, keeping only the last database. Records the
/// storage-layer medians and returns the database, every set-up time and
/// the last set-up's bytes on disk.
pub fn repeat_setup<T>(
    report: &mut Report,
    reps: usize,
    mut set_up: impl FnMut() -> Result<(T, SetupTimes), String>,
) -> Result<(T, Vec<f64>, u64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (db, t) = set_up()?;
        times.push(t);
        last = Some(db);
    }
    let med =
        |f: fn(&SetupTimes) -> f64| crate::stats::median(&times.iter().map(f).collect::<Vec<_>>());
    report.layer("storage.append_ms", med(|s| s.append_s) * 1e3);
    report.layer("storage.checkpoint_ms", med(|s| s.checkpoint_s) * 1e3);
    report.layer("storage.open_ms", med(|s| s.open_s) * 1e3);
    let disk_bytes = times.last().map_or(0, |s| s.disk_bytes);
    report.layer("storage.disk_bytes", disk_bytes as f64);
    let total = times.iter().map(|s| s.total_s).collect();
    Ok((last.expect("at least one set-up"), total, disk_bytes))
}

/// What a workload measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end values by name (all of [`E2E`] but `peak_rss_mb`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run only); a metric the workload
    /// does not exercise is absent and reported as 0.
    pub layer: BTreeMap<String, f64>,
    /// Workload-specific figures: timings with median, tail and sample
    /// count, and the counts behind the ratios.
    pub detail: Json,
    pub tracer: Tracer,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            detail: Json::obj(),
            tracer: Tracer::new(trace),
        }
    }

    /// Count one operation; `Err` carries why its answer was wrong.
    pub fn outcome(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = r {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(msg);
            }
        }
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_string(), v);
    }
}

/// Timing samples of one kind, summarised as the guide asks: median, the
/// highest percentile with ten samples beyond it, and the count.
pub fn timing(samples: &[f64], unit: &str) -> Json {
    let mut j = Json::obj()
        .with("median", crate::stats::median(samples))
        .with("n", samples.len())
        .with("unit", unit);
    if let Some((p, v)) = crate::stats::tail(samples) {
        j.set("tail_pct", p);
        j.set("tail", v);
    }
    if samples.len() <= 32 {
        j.set("samples", samples.iter().map(|x| Json::Num(*x)).collect::<Vec<_>>());
    }
    j
}

/// splitmix64: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
