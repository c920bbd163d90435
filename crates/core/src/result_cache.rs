//! Result cache: full result sets for identical read-only statements,
//! keyed, like the plan cache, on the canonical statement with its
//! literals plus the option/stats/view fingerprint.
//!
//! A hit returns the stored columns by `Arc` clone — no parse, bind,
//! optimize, or execution. Correctness comes from the same lazy
//! `(name, id, version)` dependency validation as the plan cache: any
//! committed change to an input table (append, delete, compaction,
//! DROP/CREATE) moves the fingerprint and the entry is discarded on the
//! next lookup. Entries are byte-accounted via [`Bat::mem_bytes`] and
//! evicted least-recently-used past the configured budget
//! (`MONETLITE_RESULT_CACHE_BYTES`).

use crate::plan_cache::{deps_valid, Dep, Lru};
use monetlite_storage::bat::Bat;
use monetlite_storage::catalog::TableMeta;
use monetlite_types::LogicalType;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached result set.
pub struct ResultEntry {
    /// Output column names.
    pub names: Vec<String>,
    /// Output column types.
    pub types: Vec<LogicalType>,
    /// Result columns, shared with every hit.
    pub cols: Vec<Arc<Bat>>,
    /// Row count.
    pub rows: usize,
    /// Optimizer cardinality estimate recorded at store time (replayed
    /// into the hit's counter snapshot).
    pub estimated_rows: u64,
    /// Input-table fingerprints at store time.
    pub deps: Vec<Dep>,
}

impl ResultEntry {
    fn mem_bytes(&self) -> usize {
        let data: usize = self.cols.iter().map(|b| b.mem_bytes()).sum();
        let names: usize = self.names.iter().map(|n| n.len() + 24).sum();
        data + names + 256
    }
}

/// The shared result cache.
#[derive(Default)]
pub struct ResultCache {
    entries: Lru<ResultEntry>,
    /// Hits (execution skipped entirely).
    pub hits: AtomicU64,
    /// Misses (statement executed).
    pub misses: AtomicU64,
    /// Hits rejected because a dependency's id/version moved.
    pub invalidations: AtomicU64,
}

impl ResultCache {
    /// Fetch a result if its dependencies still hold for `tables`.
    pub fn get_valid(
        &self,
        key: &str,
        tables: &HashMap<String, Arc<TableMeta>>,
    ) -> Option<Arc<ResultEntry>> {
        let entry = self.entries.get(key)?;
        if deps_valid(&entry.deps, tables) {
            Some(entry)
        } else {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.entries.remove(key);
            None
        }
    }

    /// Store a result under `key` within `budget` bytes. Returns false
    /// when the result alone is over the budget and was not stored.
    pub fn put(&self, key: String, entry: ResultEntry, budget: usize) -> bool {
        let bytes = key.len() + entry.mem_bytes();
        self.entries.put(key, Arc::new(entry), bytes, budget)
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Total accounted bytes.
    pub fn bytes(&self) -> usize {
        self.entries.bytes()
    }

    /// Drop everything (tests).
    pub fn clear(&self) {
        self.entries.clear();
    }
}
