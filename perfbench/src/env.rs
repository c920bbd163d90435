//! Hermetic configuration and the environment header every result
//! carries.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Root of the repository checkout (the benchmark package's parent).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package has a parent").to_path_buf()
}

/// The benchmark's own directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Run `f` in a fresh working directory under `perfbench/runs/`, with
/// `TMPDIR` pointed inside it so spill and other temporary files stay in
/// the checkout; the directory is removed afterwards.
pub fn in_work_dir<T>(name: &str, f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let work = bench_dir().join("runs").join(format!("{name}-{}", std::process::id()));
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let r = f(&work);
    let _ = std::fs::remove_dir_all(&work);
    r
}

/// `MONETLITE_*` variables in the environment. `ExecOptions::default()`
/// reads a dozen of them, so a run with any of them set would measure a
/// different configuration than its header claims.
pub fn engine_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MONETLITE_"))
        .collect()
}

/// Logical cores visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, read from `.git` directly (no `git`
/// process); `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(str::to_string)
}

/// FNV-1a digest of the engine sources (`Cargo.toml`, `Cargo.lock`,
/// `crates/`, `vendor/`), so a result identifies the code it measured
/// even in a checkout without `.git`.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for f in &files {
        feed(f.strip_prefix(&root).unwrap_or(f).to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            if e.file_name() != "target" {
                collect_files(&e.path(), out);
            }
        }
    }
}

/// Bytes of all files under `p`.
pub fn dir_bytes(p: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(p, &mut files);
    files.iter().filter_map(|f| f.metadata().ok()).map(|m| m.len()).sum()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit policy of the engine's write-ahead log, as the benchmark
/// exercises it (stated so both sides of a comparison use the same one).
pub const FLUSH_POLICY: &str =
    "WAL buffer flushed to the OS at every autocommit; no fsync (engine default)";

/// The environment header of one run.
pub fn header(workload: &str, seed: u64, sf: f64, trace: bool, options: Json) -> Json {
    Json::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("trace", trace)
        .with("git_rev", git_rev())
        .with("source_digest", source_digest())
        .with("nproc", nproc())
        .with("scale_factor", sf)
        .with("data_seed", crate::tpch::DATA_SEED)
        .with("flush_policy", FLUSH_POLICY)
        .with("client", "one process, one connection, closed loop")
        .with("options", options)
}
