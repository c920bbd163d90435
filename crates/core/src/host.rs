//! The native-language interface (paper §3.3): moving result sets into the
//! host "analytical environment" with zero-copy, eager, or lazy
//! conversion.
//!
//! The paper's three mechanisms map to safe Rust as follows:
//!
//! | paper                                   | here                        |
//! |-----------------------------------------|-----------------------------|
//! | share pointer + `mprotect` copy-on-write| [`SharedArray`] (`Arc` + clone-on-first-write) |
//! | header forgery (`mmap MAP_FIXED`)       | host metadata out-of-line — cost is O(1) either way |
//! | `PROT_NONE` + SIGSEGV-driven conversion | [`LazyColumn`] materialising on first access |
//!
//! Zero copy applies only when the host representation is bit-compatible
//! ("contiguous C-style arrays containing four-byte signed integers"):
//! every fixed-width type qualifies; VARCHAR always converts.

use monetlite_storage::Bat;
use monetlite_types::{ColumnBuffer, LogicalType, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::QueryResult;

/// How a result set crosses the embedding boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Share fixed-width columns, convert only strings (the MonetDBLite
    /// default).
    ZeroCopy,
    /// Convert every column up front (what a conventional driver does).
    Eager,
    /// Build empty facades; convert a column the first time it is read.
    Lazy,
}

/// Transfer statistics, the quantities Figures 5/6 measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Columns shared without copying.
    pub zero_copied: usize,
    /// Columns converted (copied) during import.
    pub converted: usize,
    /// Columns deferred for lazy conversion.
    pub deferred: usize,
    /// Bytes actually copied.
    pub bytes_copied: usize,
}

/// One column as seen by the host environment.
pub enum HostColumn {
    /// Shared with the engine: reads are free, the first write clones
    /// (copy-on-write — the `mprotect` discipline of §3.3 enforced by the
    /// type system instead of the MMU).
    Shared(SharedArray),
    /// Fully materialised native array.
    Native(ColumnBuffer),
    /// Facade that converts on first access (§3.3 *Lazy Conversion*).
    Lazy(LazyColumn),
}

impl HostColumn {
    /// Row count.
    pub fn len(&self) -> usize {
        match self {
            HostColumn::Shared(s) => s.bat.len(),
            HostColumn::Native(b) => b.len(),
            HostColumn::Lazy(l) => l.bat.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one value (triggers lazy conversion).
    pub fn get(&self, row: usize) -> Value {
        match self {
            HostColumn::Shared(s) => s.view().get(row),
            HostColumn::Native(b) => b.get(row),
            HostColumn::Lazy(l) => l.materialized().get(row),
        }
    }

    /// View as a fully native buffer (triggers conversion where needed).
    pub fn native(&self) -> ColumnBuffer {
        match self {
            HostColumn::Shared(s) => s.view().to_buffer(None),
            HostColumn::Native(b) => b.clone(),
            HostColumn::Lazy(l) => l.materialized().clone(),
        }
    }
}

/// A column shared between database and host with copy-on-write.
pub struct SharedArray {
    bat: Arc<Bat>,
    /// Local copy created on first write (copy-on-write).
    local: Option<Box<Bat>>,
    cow_events: Arc<AtomicU64>,
}

impl SharedArray {
    fn new(bat: Arc<Bat>, cow_events: Arc<AtomicU64>) -> SharedArray {
        SharedArray { bat, local: None, cow_events }
    }

    /// Read-only view (no copy ever).
    pub fn view(&self) -> &Bat {
        match &self.local {
            Some(l) => l,
            None => &self.bat,
        }
    }

    /// True while still physically sharing the database's array.
    pub fn is_shared(&self) -> bool {
        self.local.is_none()
    }

    /// Mutable access: the first call copies the data into host-owned
    /// memory ("If code from the target environment attempts to write into
    /// the shared data area, the data should be copied within the target
    /// environment and only the copy modified", §3.3). The database's copy
    /// is never touched.
    pub fn make_mut(&mut self) -> &mut Bat {
        if self.local.is_none() {
            self.cow_events.fetch_add(1, Ordering::Relaxed);
            self.local = Some(Box::new((*self.bat).clone()));
        }
        self.local.as_mut().unwrap()
    }
}

/// A lazily converted column: conversion cost is paid only if the host
/// actually touches the data.
pub struct LazyColumn {
    bat: Arc<Bat>,
    cache: OnceLock<ColumnBuffer>,
    conversions: Arc<AtomicU64>,
}

impl LazyColumn {
    /// Whether conversion has happened yet.
    pub fn is_materialized(&self) -> bool {
        self.cache.get().is_some()
    }

    fn materialized(&self) -> &ColumnBuffer {
        self.cache.get_or_init(|| {
            self.conversions.fetch_add(1, Ordering::Relaxed);
            self.bat.to_buffer(None)
        })
    }
}

/// A host-side data frame: what `dbReadTable`/`dbGetQuery` hand to R.
pub struct HostFrame {
    /// Column names.
    pub names: Vec<String>,
    /// Column data.
    pub cols: Vec<HostColumn>,
    /// Rows.
    pub rows: usize,
    /// What the import did.
    pub stats: TransferStats,
    /// Copy-on-write events observed on shared columns.
    pub cow_events: Arc<AtomicU64>,
    /// Lazy conversions performed so far.
    pub lazy_conversions: Arc<AtomicU64>,
}

impl HostFrame {
    /// Import a query result into the host environment.
    pub fn import(result: &QueryResult, mode: TransferMode) -> HostFrame {
        let cow_events = Arc::new(AtomicU64::new(0));
        let lazy_conversions = Arc::new(AtomicU64::new(0));
        let mut stats = TransferStats::default();
        let mut cols = Vec::with_capacity(result.ncols());
        for i in 0..result.ncols() {
            let bat = result.col_shared(i);
            let fixed = result.types()[i] != LogicalType::Varchar;
            let col = match (mode, fixed) {
                (TransferMode::ZeroCopy, true) => {
                    stats.zero_copied += 1;
                    HostColumn::Shared(SharedArray::new(bat, cow_events.clone()))
                }
                (TransferMode::ZeroCopy, false) | (TransferMode::Eager, _) => {
                    stats.converted += 1;
                    let buf = bat.to_buffer(None);
                    stats.bytes_copied += buf.size_bytes();
                    HostColumn::Native(buf)
                }
                (TransferMode::Lazy, _) => {
                    stats.deferred += 1;
                    HostColumn::Lazy(LazyColumn {
                        bat,
                        cache: OnceLock::new(),
                        conversions: lazy_conversions.clone(),
                    })
                }
            };
            cols.push(col);
        }
        HostFrame {
            names: result.names().to_vec(),
            cols,
            rows: result.nrows(),
            stats,
            cow_events,
            lazy_conversions,
        }
    }

    /// Column by name.
    pub fn col(&self, name: &str) -> Option<&HostColumn> {
        self.names.iter().position(|n| n == name).map(|i| &self.cols[i])
    }

    /// Mutable column by index.
    pub fn col_mut(&mut self, i: usize) -> &mut HostColumn {
        &mut self.cols[i]
    }

    /// Number of lazy conversions that have fired.
    pub fn lazy_conversions(&self) -> u64 {
        self.lazy_conversions.load(Ordering::Relaxed)
    }

    /// Number of copy-on-write events.
    pub fn cow_count(&self) -> u64 {
        self.cow_events.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn result() -> (Database, QueryResult) {
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.run_script(
            "CREATE TABLE t (a INT, b VARCHAR(10), c DOUBLE);
             INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), (3, NULL, 3.5);",
        )
        .unwrap();
        let r = conn.query("SELECT a, b, c FROM t").unwrap();
        (db, r)
    }

    #[test]
    fn zero_copy_shares_fixed_width_only() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!(f.stats.zero_copied, 2, "int and double share");
        assert_eq!(f.stats.converted, 1, "varchar converts");
        match &f.cols[0] {
            HostColumn::Shared(s) => assert!(s.is_shared()),
            other => panic!("expected shared, got {:?}", other.len()),
        }
        assert_eq!(f.cols[1].get(0), Value::Str("x".into()));
    }

    #[test]
    fn zero_copy_is_o1_in_data_size() {
        // Transfer stats must show zero bytes copied for fixed columns.
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::ZeroCopy);
        // Only the varchar column contributes copied bytes.
        let varchar_bytes = r.col_shared(1).to_buffer(None).size_bytes();
        assert_eq!(f.stats.bytes_copied, varchar_bytes);
    }

    #[test]
    fn copy_on_write_isolates_the_database() {
        let (_db, r) = result();
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!(f.cow_count(), 0);
        // Host mutates column 0.
        if let HostColumn::Shared(s) = f.col_mut(0) {
            let local = s.make_mut();
            if let Bat::Int(v) = local {
                v[0] = 999;
            }
            assert!(!s.is_shared());
        } else {
            panic!("expected shared column");
        }
        assert_eq!(f.cow_count(), 1);
        // The host sees the change; the database copy is untouched.
        assert_eq!(f.cols[0].get(0), Value::Int(999));
        assert_eq!(r.value(0, 0), Value::Int(1), "database data must be unmodified");
        // A second write does not copy again.
        if let HostColumn::Shared(s) = f.col_mut(0) {
            s.make_mut();
        }
        assert_eq!(f.cow_count(), 1);
    }

    #[test]
    fn eager_converts_everything() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::Eager);
        assert_eq!(f.stats.converted, 3);
        assert_eq!(f.stats.zero_copied, 0);
        assert!(f.stats.bytes_copied > 0);
        assert_eq!(f.cols[2].get(2), Value::Double(3.5));
    }

    #[test]
    fn lazy_pays_only_for_touched_columns() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::Lazy);
        assert_eq!(f.stats.deferred, 3);
        assert_eq!(f.lazy_conversions(), 0, "nothing converted yet");
        // Touch only column 0 (the SELECT * / use-one-column pattern).
        assert_eq!(f.cols[0].get(1), Value::Int(2));
        assert_eq!(f.lazy_conversions(), 1);
        match &f.cols[1] {
            HostColumn::Lazy(l) => assert!(!l.is_materialized()),
            _ => panic!(),
        }
        // Repeated access converts nothing further.
        assert_eq!(f.cols[0].get(2), Value::Int(3));
        assert_eq!(f.lazy_conversions(), 1);
    }

    #[test]
    fn frame_lookup_by_name() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert!(f.col("b").is_some());
        assert!(f.col("zzz").is_none());
        assert_eq!(f.rows, 3);
    }
}
