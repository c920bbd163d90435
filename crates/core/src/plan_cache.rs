//! Plan cache: optimized plans keyed on the canonical statement,
//! shared by every connection of a [`crate::Database`].
//!
//! The paper's embedded-use argument (§1, §4.2) is that the same process
//! re-issues many small queries, so per-query overheads — parse, bind,
//! optimize — matter at scale. The key is the result cache's key: the
//! canonical statement with its type-tagged literals in place, plus the
//! option/stats/view fingerprint. A hit skips bind + optimize. Plans
//! are stored only for statements whose result the result cache did not
//! keep (it is off, or the result is over its budget): both entries
//! depend on the same table versions, so a plan whose result is cached
//! could never be used.
//!
//! Soundness rules shared with the result cache:
//! * Entries are consulted/stored only by transactions with **no
//!   uncommitted writes**: a txn-local append bumps `version` in its
//!   private view, so uncommitted `(id, version)` pairs can collide with
//!   committed pairs of different content.
//! * Every dependency must carry a **committed** table id
//!   (`id < TEMP_TABLE_ID_BASE`); temp ids are reused across
//!   transactions.
//! * At hit time each stored `(name, id, version)` is revalidated
//!   against the transaction's snapshot — DROP/CREATE changes the id,
//!   appends/deletes/compaction bump the version, so any content change
//!   (and any stats-sidecar change, which rides on the same writes)
//!   invalidates lazily. Option/stats/view changes never need
//!   invalidation at all: the optimizer flags, stats mode, `ExecOptions`
//!   and the view epoch are part of the key.

use crate::plan::Plan;
use monetlite_sql::ast::SelectStmt;
use monetlite_sql::canon;
use monetlite_storage::catalog::TableMeta;
use monetlite_storage::store::TEMP_TABLE_ID_BASE;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Dependency fingerprints
// ---------------------------------------------------------------------------

/// One input table's content fingerprint at store time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Lower-cased catalog name.
    pub table: String,
    /// Committed table id (DROP + CREATE of the same name changes it).
    pub id: u64,
    /// Version counter (bumped by appends, deletes, compaction).
    pub version: u64,
}

/// Fingerprint the plan's base-table inputs against the transaction's
/// snapshot. `None` when a scanned table is missing or carries a
/// temporary (uncommitted) id — such a statement must not be cached.
pub fn collect_deps(plan: &Plan, tables: &HashMap<String, Arc<TableMeta>>) -> Option<Vec<Dep>> {
    let mut names = Vec::new();
    collect_scans(plan, &mut names);
    names.sort();
    names.dedup();
    let mut deps = Vec::with_capacity(names.len());
    for n in names {
        let meta = tables.get(&n)?;
        if meta.id >= TEMP_TABLE_ID_BASE {
            return None;
        }
        deps.push(Dep { table: n, id: meta.id, version: meta.version });
    }
    Some(deps)
}

/// True when every stored dependency still matches the snapshot exactly.
pub fn deps_valid(deps: &[Dep], tables: &HashMap<String, Arc<TableMeta>>) -> bool {
    deps.iter()
        .all(|d| tables.get(&d.table).is_some_and(|m| m.id == d.id && m.version == d.version))
}

fn collect_scans(p: &Plan, out: &mut Vec<String>) {
    match p {
        Plan::Scan { table, .. } => out.push(table.clone()),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopN { input, .. }
        | Plan::Distinct { input } => collect_scans(input, out),
        Plan::Join { left, right, .. } => {
            collect_scans(left, out);
            collect_scans(right, out);
        }
        Plan::Values { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// LRU with a byte budget
// ---------------------------------------------------------------------------

struct Slot<V> {
    v: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A mutex-guarded LRU map with a byte budget, shared by both caches.
pub(crate) struct Lru<V> {
    inner: Mutex<LruInner<V>>,
}

struct LruInner<V> {
    map: HashMap<String, Slot<V>>,
    tick: u64,
    bytes: usize,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru { inner: Mutex::new(LruInner { map: HashMap::new(), tick: 0, bytes: 0 }) }
    }
}

impl<V> Lru<V> {
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let mut g = self.inner.lock().expect("cache lock");
        g.tick += 1;
        let tick = g.tick;
        let slot = g.map.get_mut(key)?;
        slot.last_used = tick;
        Some(slot.v.clone())
    }

    /// Insert `v`, evicting least-recently-used entries past `budget`.
    /// Returns false when the entry alone is over the budget and was not
    /// stored.
    pub fn put(&self, key: String, v: Arc<V>, bytes: usize, budget: usize) -> bool {
        let mut g = self.inner.lock().expect("cache lock");
        // One entry larger than the whole budget is not cacheable.
        if bytes > budget {
            return false;
        }
        g.tick += 1;
        let tick = g.tick;
        if let Some(old) = g.map.insert(key, Slot { v, bytes, last_used: tick }) {
            g.bytes -= old.bytes;
        }
        g.bytes += bytes;
        while g.bytes > budget {
            let Some(victim) =
                g.map.iter().min_by_key(|(_, s)| s.last_used).map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(s) = g.map.remove(&victim) {
                g.bytes -= s.bytes;
            }
        }
        true
    }

    pub fn remove(&self, key: &str) {
        let mut g = self.inner.lock().expect("cache lock");
        if let Some(s) = g.map.remove(key) {
            g.bytes -= s.bytes;
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("cache lock").bytes
    }

    pub fn clear(&self) {
        let mut g = self.inner.lock().expect("cache lock");
        g.map.clear();
        g.bytes = 0;
    }
}

// ---------------------------------------------------------------------------
// Statement memo and the plan cache proper
// ---------------------------------------------------------------------------

/// Per-text statement memo entry: the parsed SELECT and its canonical
/// key. Both derive from the SQL text alone (no catalog state), so an
/// entry can never go stale; a repeat of the exact text skips the parser.
pub struct StmtMemo {
    /// Canonical rendering with type-tagged literals (the key material
    /// of both caches).
    pub key: String,
    /// The parsed statement.
    pub stmt: SelectStmt,
}

impl StmtMemo {
    /// Memoize a parsed SELECT.
    pub fn build(stmt: SelectStmt) -> StmtMemo {
        StmtMemo { key: canon::canon_select_full(&stmt), stmt }
    }
}

/// One cached optimized plan.
pub struct PlanEntry {
    /// The optimized plan, literals in place.
    pub plan: Plan,
    /// Input-table fingerprints at store time.
    pub deps: Vec<Dep>,
}

/// The shared plan cache: a text → statement memo plus the plan store.
/// Hit/miss/invalidation counters aggregate across connections.
#[derive(Default)]
pub struct PlanCache {
    memo: Mutex<HashMap<String, Arc<StmtMemo>>>,
    plans: Lru<PlanEntry>,
    /// Plan hits (bind+optimize skipped).
    pub hits: AtomicU64,
    /// Plan misses (statement fully planned).
    pub misses: AtomicU64,
    /// Hits rejected because a dependency's id/version moved.
    pub invalidations: AtomicU64,
}

/// Cap on distinct statement texts memoized; past it the memo is cleared
/// wholesale (entries are pure functions of the text, so dropping them
/// only costs a re-parse).
const MEMO_CAP: usize = 4096;

impl PlanCache {
    /// The memoized statement for `sql`, if this exact text was seen.
    pub fn memo_get(&self, sql: &str) -> Option<Arc<StmtMemo>> {
        self.memo.lock().expect("memo lock").get(sql).cloned()
    }

    /// Memoize a statement under its exact text.
    pub fn memo_put(&self, sql: &str, m: Arc<StmtMemo>) {
        let mut g = self.memo.lock().expect("memo lock");
        if g.len() >= MEMO_CAP {
            g.clear();
        }
        g.insert(sql.to_string(), m);
    }

    /// Fetch a plan if its dependencies still hold for `tables`.
    pub fn get_valid(
        &self,
        key: &str,
        tables: &HashMap<String, Arc<TableMeta>>,
    ) -> Option<Arc<PlanEntry>> {
        let entry = self.plans.get(key)?;
        if deps_valid(&entry.deps, tables) {
            Some(entry)
        } else {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.plans.remove(key);
            None
        }
    }

    /// Store a plan under `key` within `budget` bytes.
    pub fn put(&self, key: String, entry: PlanEntry, budget: usize) {
        // Plans are small trees; a coarse per-node proxy keeps the LRU
        // honest without a deep byte count.
        let bytes = key.len() + plan_weight(&entry.plan) + entry.deps.len() * 64 + 128;
        self.plans.put(key, Arc::new(entry), bytes, budget);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.plans.len() == 0
    }

    /// Drop everything (tests).
    pub fn clear(&self) {
        self.plans.clear();
        self.memo.lock().expect("memo lock").clear();
    }
}

fn plan_weight(p: &Plan) -> usize {
    let mut nodes = 0usize;
    fn walk(p: &Plan, n: &mut usize) {
        *n += 1;
        match p {
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Distinct { input } => walk(input, n),
            Plan::Join { left, right, .. } => {
                walk(left, n);
                walk(right, n);
            }
            Plan::Scan { .. } | Plan::Values { .. } => {}
        }
    }
    walk(p, &mut nodes);
    nodes * 512
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::LogicalType;

    fn meta(id: u64, version: u64) -> Arc<TableMeta> {
        use monetlite_storage::catalog::TableData;
        use monetlite_types::{Field, Schema};
        let schema = Schema::new(vec![Field::new("a", LogicalType::Int)]).unwrap();
        let data = TableData::empty(&schema);
        Arc::new(TableMeta {
            id,
            name: "t".into(),
            schema,
            data,
            version,
            ordered_cols: Vec::new(),
        })
    }

    #[test]
    fn deps_track_id_and_version() {
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), meta(3, 7));
        let plan =
            Plan::Scan { table: "t".into(), projected: vec![0], filters: vec![], schema: vec![] };
        let deps = collect_deps(&plan, &tables).unwrap();
        assert_eq!(deps, vec![Dep { table: "t".into(), id: 3, version: 7 }]);
        assert!(deps_valid(&deps, &tables));
        tables.insert("t".to_string(), meta(3, 8));
        assert!(!deps_valid(&deps, &tables), "version bump invalidates");
        tables.insert("t".to_string(), meta(4, 1));
        assert!(!deps_valid(&deps, &tables), "drop+create invalidates");
        tables.remove("t");
        assert!(!deps_valid(&deps, &tables), "drop invalidates");
    }

    #[test]
    fn temp_ids_are_not_cacheable() {
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), meta(TEMP_TABLE_ID_BASE + 1, 1));
        let plan =
            Plan::Scan { table: "t".into(), projected: vec![0], filters: vec![], schema: vec![] };
        assert!(collect_deps(&plan, &tables).is_none());
    }

    #[test]
    fn lru_evicts_by_bytes() {
        let lru: Lru<u32> = Lru::default();
        lru.put("a".into(), Arc::new(1), 400, 1000);
        lru.put("b".into(), Arc::new(2), 400, 1000);
        assert!(lru.get("a").is_some()); // refresh a
        lru.put("c".into(), Arc::new(3), 400, 1000); // evicts b (LRU)
        assert!(lru.get("b").is_none());
        assert!(lru.get("a").is_some());
        assert!(lru.get("c").is_some());
        assert!(lru.bytes() <= 1000);
        // Oversized entries are refused outright.
        assert!(!lru.put("huge".into(), Arc::new(9), 2000, 1000));
        assert!(lru.get("huge").is_none());
    }
}
