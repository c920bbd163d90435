//! Grouped aggregation kernels.
//!
//! Grouping hashes composite keys (NULLs group together, SQL semantics),
//! assigning each row a dense group id; the per-function accumulators then
//! run column-at-a-time over the group-id vector. MEDIAN is the blocking
//! aggregate of the paper's Figure 2: its per-morsel partials buffer every
//! value and only the merged state finalises; SUM/COUNT/MIN/MAX/AVG keep
//! constant-size partials. Every function has the partial/merge form the
//! streaming engine's morsel workers use.

use crate::expr::PAggFunc;
use crate::rows::{col_eq, row_hash, rows_eq};
use monetlite_storage::Bat;
use monetlite_types::nulls::{NULL_I32, NULL_I64};
use monetlite_types::{LogicalType, MlError, Result, Value};
use std::collections::{HashMap, HashSet};

/// Result of hashing group keys: per-row dense group ids plus one
/// representative row per group.
#[derive(Debug)]
pub struct Grouping {
    /// Dense group id per input row.
    pub group_ids: Vec<u32>,
    /// Representative input row per group (for key materialisation).
    pub repr_rows: Vec<u32>,
}

/// Hash rows into dense groups over the key columns.
pub fn hash_group(keys: &[&Bat]) -> Grouping {
    let rows = keys.first().map_or(0, |k| k.len());
    let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut group_ids = Vec::with_capacity(rows);
    let mut repr_rows: Vec<u32> = Vec::new();
    for row in 0..rows {
        let h = row_hash(keys, row);
        let bucket = table.entry(h).or_default();
        let mut gid = None;
        for &g in bucket.iter() {
            if rows_eq(keys, row, keys, repr_rows[g as usize] as usize, true) {
                gid = Some(g);
                break;
            }
        }
        let gid = match gid {
            Some(g) => g,
            None => {
                let g = repr_rows.len() as u32;
                repr_rows.push(row as u32);
                bucket.push(g);
                g
            }
        };
        group_ids.push(gid);
    }
    Grouping { group_ids, repr_rows }
}

/// Candidate-list twin of [`hash_group`]: group only the `sel` positions
/// of the key columns, reading the base arrays in place (no gather). The
/// returned `group_ids`/`repr_rows` are indexed in the *logical*
/// (selection) domain — `repr_rows[g] == i` names physical row
/// `sel[i]` — so callers gather representatives with the selection-aware
/// `Chunk::take`, touching only the survivors.
pub fn hash_group_at(keys: &[&Bat], sel: &[u32]) -> Grouping {
    let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut group_ids = Vec::with_capacity(sel.len());
    let mut repr_rows: Vec<u32> = Vec::new();
    for (li, &pi) in sel.iter().enumerate() {
        let h = row_hash(keys, pi as usize);
        let bucket = table.entry(h).or_default();
        let mut gid = None;
        for &g in bucket.iter() {
            let repr_phys = sel[repr_rows[g as usize] as usize] as usize;
            if rows_eq(keys, pi as usize, keys, repr_phys, true) {
                gid = Some(g);
                break;
            }
        }
        let gid = match gid {
            Some(g) => g,
            None => {
                let g = repr_rows.len() as u32;
                repr_rows.push(li as u32);
                bucket.push(g);
                g
            }
        };
        group_ids.push(gid);
    }
    Grouping { group_ids, repr_rows }
}

/// An incremental grouping table for the streaming engine: group keys are
/// interned vector-at-a-time into dense ids, with representative key
/// values accumulated as they are first seen (NULLs group together, SQL
/// semantics). Unlike [`hash_group`], which needs the whole input
/// materialised, this grows as vectors arrive — the per-thread state of
/// morsel-parallel partial aggregation.
#[derive(Debug)]
pub struct GroupTable {
    /// Representative key values, one row per group, in first-seen order.
    keys: Vec<Bat>,
    /// Key hash → candidate group ids.
    buckets: HashMap<u64, Vec<u32>>,
}

impl GroupTable {
    /// Empty table for the given key column types.
    pub fn new(key_types: &[LogicalType]) -> GroupTable {
        GroupTable {
            keys: key_types.iter().map(|&t| Bat::new(t)).collect(),
            buckets: HashMap::new(),
        }
    }

    /// Number of distinct groups seen so far.
    pub fn n_groups(&self) -> usize {
        self.keys.first().map_or(0, |k| k.len())
    }

    /// The accumulated representative key columns.
    pub fn keys(&self) -> &[Bat] {
        &self.keys
    }

    /// Consume the table, returning the representative key columns (the
    /// group-by output columns, in first-seen order).
    pub fn into_keys(self) -> Vec<Bat> {
        self.keys
    }

    /// Approximate resident bytes (representative keys + bucket map) —
    /// the quantity the spill budget checks against.
    pub fn mem_bytes(&self) -> usize {
        let keys: usize = self.keys.iter().map(|k| k.mem_bytes()).sum();
        // Bucket map: hash key + Vec header + ~one group id per entry.
        keys + self.buckets.len() * (8 + 24 + 8)
    }

    /// Intern a block of key rows, returning each row's dense group id.
    pub fn intern_block(&mut self, block: &[&Bat], rows: usize) -> Result<Vec<u32>> {
        debug_assert_eq!(block.len(), self.keys.len());
        let mut gids = Vec::with_capacity(rows);
        for row in 0..rows {
            let h = row_hash(block, row);
            let mut found = None;
            if let Some(bucket) = self.buckets.get(&h) {
                for &g in bucket {
                    let eq = self
                        .keys
                        .iter()
                        .zip(block)
                        .all(|(k, b)| col_eq(b, row, k, g as usize, true));
                    if eq {
                        found = Some(g);
                        break;
                    }
                }
            }
            let gid = match found {
                Some(g) => g,
                None => {
                    let g = self.n_groups() as u32;
                    for (k, b) in self.keys.iter_mut().zip(block) {
                        k.push(&b.get(row))?;
                    }
                    self.buckets.entry(h).or_default().push(g);
                    g
                }
            };
            gids.push(gid);
        }
        Ok(gids)
    }
}

/// One aggregate's state across groups; supports partial merge for the
/// decomposable functions.
#[derive(Debug, Clone)]
pub enum AggState {
    /// COUNT: per-group counts.
    Count(Vec<i64>),
    /// SUM over integers (i128 to detect overflow at the end).
    SumInt(Vec<i128>, Vec<bool>),
    /// SUM over doubles.
    SumF64(Vec<f64>, Vec<bool>),
    /// SUM over decimals (scale carried).
    SumDec(Vec<i128>, Vec<bool>, u8),
    /// AVG: sum + count.
    Avg(Vec<f64>, Vec<i64>),
    /// MIN/MAX keep the best value per group.
    Best(Vec<Value>, bool /* is_max */),
    /// MEDIAN buffers all non-null values (blocking).
    Median(Vec<Vec<f64>>),
    /// COUNT(DISTINCT x): per-group set of value images.
    CountDistinct(Vec<HashSet<String>>),
}

impl AggState {
    /// Initial state for `func` over `n` groups.
    pub fn new(
        func: PAggFunc,
        input_ty: Option<LogicalType>,
        distinct: bool,
        n: usize,
    ) -> Result<AggState> {
        if distinct && func != PAggFunc::Count {
            return Err(MlError::Unsupported("DISTINCT is only supported with COUNT".into()));
        }
        Ok(match func {
            PAggFunc::Count if distinct => AggState::CountDistinct(vec![HashSet::new(); n]),
            PAggFunc::Count => AggState::Count(vec![0; n]),
            PAggFunc::Sum => match input_ty {
                Some(LogicalType::Int) | Some(LogicalType::Bigint) => {
                    AggState::SumInt(vec![0; n], vec![false; n])
                }
                Some(LogicalType::Decimal { scale, .. }) => {
                    AggState::SumDec(vec![0; n], vec![false; n], scale)
                }
                _ => AggState::SumF64(vec![0.0; n], vec![false; n]),
            },
            PAggFunc::Avg => AggState::Avg(vec![0.0; n], vec![0; n]),
            PAggFunc::Min => AggState::Best(vec![Value::Null; n], false),
            PAggFunc::Max => AggState::Best(vec![Value::Null; n], true),
            PAggFunc::Median => AggState::Median(vec![Vec::new(); n]),
        })
    }

    /// Accumulate a column (aligned with `group_ids`).
    pub fn update(&mut self, arg: Option<&Bat>, group_ids: &[u32]) -> Result<()> {
        match self {
            AggState::Count(c) => match arg {
                None => {
                    for &g in group_ids {
                        c[g as usize] += 1;
                    }
                }
                Some(b) => {
                    for (row, &g) in group_ids.iter().enumerate() {
                        if !b.is_null_at(row) {
                            c[g as usize] += 1;
                        }
                    }
                }
            },
            AggState::CountDistinct(sets) => {
                let b = arg.ok_or_else(|| {
                    MlError::Execution("COUNT(DISTINCT) needs an argument".into())
                })?;
                for (row, &g) in group_ids.iter().enumerate() {
                    if !b.is_null_at(row) {
                        sets[g as usize].insert(b.get(row).to_string());
                    }
                }
            }
            AggState::SumInt(sums, seen) => {
                let b = arg.ok_or_else(|| MlError::Execution("SUM needs an argument".into()))?;
                match b {
                    Bat::Int(v) => {
                        for (row, &g) in group_ids.iter().enumerate() {
                            if v[row] != NULL_I32 {
                                sums[g as usize] += v[row] as i128;
                                seen[g as usize] = true;
                            }
                        }
                    }
                    Bat::Bigint(v) => {
                        for (row, &g) in group_ids.iter().enumerate() {
                            if v[row] != NULL_I64 {
                                sums[g as usize] += v[row] as i128;
                                seen[g as usize] = true;
                            }
                        }
                    }
                    other => {
                        return Err(MlError::Execution(format!(
                            "integer SUM over {}",
                            other.logical_type()
                        )))
                    }
                }
            }
            AggState::SumDec(sums, seen, _) => {
                let b = arg.ok_or_else(|| MlError::Execution("SUM needs an argument".into()))?;
                match b {
                    Bat::Decimal { data, .. } => {
                        for (row, &g) in group_ids.iter().enumerate() {
                            if data[row] != NULL_I64 {
                                sums[g as usize] += data[row] as i128;
                                seen[g as usize] = true;
                            }
                        }
                    }
                    other => {
                        return Err(MlError::Execution(format!(
                            "decimal SUM over {}",
                            other.logical_type()
                        )))
                    }
                }
            }
            AggState::SumF64(sums, seen) => {
                let b = arg.ok_or_else(|| MlError::Execution("SUM needs an argument".into()))?;
                match b {
                    Bat::Double(v) => {
                        for (row, &g) in group_ids.iter().enumerate() {
                            if !v[row].is_nan() {
                                sums[g as usize] += v[row];
                                seen[g as usize] = true;
                            }
                        }
                    }
                    other => {
                        return Err(MlError::Execution(format!(
                            "SUM over {}",
                            other.logical_type()
                        )))
                    }
                }
            }
            AggState::Avg(sums, counts) => {
                let b = arg.ok_or_else(|| MlError::Execution("AVG needs an argument".into()))?;
                for (row, &g) in group_ids.iter().enumerate() {
                    if !b.is_null_at(row) {
                        sums[g as usize] += numeric_f64(b, row)?;
                        counts[g as usize] += 1;
                    }
                }
            }
            AggState::Best(best, is_max) => {
                let b = arg.ok_or_else(|| MlError::Execution("MIN/MAX need an argument".into()))?;
                for (row, &g) in group_ids.iter().enumerate() {
                    if b.is_null_at(row) {
                        continue;
                    }
                    let v = b.get(row);
                    let cur = &best[g as usize];
                    let replace = match cur {
                        Value::Null => true,
                        c => {
                            let ord = v.cmp_sql(c);
                            if *is_max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        best[g as usize] = v;
                    }
                }
            }
            AggState::Median(bufs) => {
                let b = arg.ok_or_else(|| MlError::Execution("MEDIAN needs an argument".into()))?;
                for (row, &g) in group_ids.iter().enumerate() {
                    if !b.is_null_at(row) {
                        bufs[g as usize].push(numeric_f64(b, row)?);
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge a partial state computed over a disjoint chunk (same group
    /// mapping). Only decomposable states support this; MEDIAN merges by
    /// concatenating buffers (it still sorts once at the end, so the sort
    /// is the blocking step — exactly Figure 2's structure).
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (AggState::SumInt(a, sa), AggState::SumInt(b, sb)) => {
                for ((x, y), (s1, s2)) in a.iter_mut().zip(b).zip(sa.iter_mut().zip(sb)) {
                    *x += y;
                    *s1 = *s1 || s2;
                }
            }
            (AggState::SumF64(a, sa), AggState::SumF64(b, sb)) => {
                for ((x, y), (s1, s2)) in a.iter_mut().zip(b).zip(sa.iter_mut().zip(sb)) {
                    *x += y;
                    *s1 = *s1 || s2;
                }
            }
            (AggState::SumDec(a, sa, _), AggState::SumDec(b, sb, _)) => {
                for ((x, y), (s1, s2)) in a.iter_mut().zip(b).zip(sa.iter_mut().zip(sb)) {
                    *x += y;
                    *s1 = *s1 || s2;
                }
            }
            (AggState::Avg(a, ca), AggState::Avg(b, cb)) => {
                for ((x, y), (c1, c2)) in a.iter_mut().zip(b).zip(ca.iter_mut().zip(cb)) {
                    *x += y;
                    *c1 += c2;
                }
            }
            (AggState::Best(a, is_max), AggState::Best(b, _)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    let replace = match (&x, &y) {
                        (_, Value::Null) => false,
                        (Value::Null, _) => true,
                        (cur, new) => {
                            let ord = new.cmp_sql(cur);
                            if *is_max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        *x = y;
                    }
                }
            }
            (AggState::Median(a), AggState::Median(b)) => {
                for (x, mut y) in a.iter_mut().zip(b) {
                    x.append(&mut y);
                }
            }
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.extend(y);
                }
            }
            _ => return Err(MlError::Execution("mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// Grow the state to cover `n` groups (new groups start empty). The
    /// streaming engine's group tables grow as vectors arrive, so states
    /// must be resizable — the batch constructor fixes `n` up front.
    pub fn ensure_groups(&mut self, n: usize) {
        match self {
            AggState::Count(c) => c.resize(n, 0),
            AggState::SumInt(s, seen) | AggState::SumDec(s, seen, _) => {
                s.resize(n, 0);
                seen.resize(n, false);
            }
            AggState::SumF64(s, seen) => {
                s.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggState::Avg(s, c) => {
                s.resize(n, 0.0);
                c.resize(n, 0);
            }
            AggState::Best(b, _) => b.resize(n, Value::Null),
            AggState::Median(b) => b.resize(n, Vec::new()),
            AggState::CountDistinct(s) => s.resize(n, HashSet::new()),
        }
    }

    /// Approximate resident bytes of the accumulator — drives the
    /// spill-or-not decision of the streaming engine's partial hash
    /// aggregation. Holistic states (MEDIAN buffers, COUNT(DISTINCT)
    /// sets) grow with input, not group count, so they are measured by
    /// content.
    pub fn mem_bytes(&self) -> usize {
        fn value_bytes(v: &Value) -> usize {
            16 + match v {
                Value::Str(s) => s.len(),
                _ => 8,
            }
        }
        match self {
            AggState::Count(c) => c.len() * 8,
            AggState::SumInt(s, seen) | AggState::SumDec(s, seen, _) => s.len() * 16 + seen.len(),
            AggState::SumF64(s, seen) => s.len() * 8 + seen.len(),
            AggState::Avg(s, c) => s.len() * 8 + c.len() * 8,
            AggState::Best(b, _) => b.iter().map(value_bytes).sum(),
            AggState::Median(bufs) => bufs.iter().map(|b| 24 + b.len() * 8).sum(),
            AggState::CountDistinct(sets) => {
                sets.iter().map(|s| 48 + s.iter().map(|x| 48 + x.len()).sum::<usize>()).sum()
            }
        }
    }

    /// Current group capacity.
    pub fn n_groups(&self) -> usize {
        match self {
            AggState::Count(c) => c.len(),
            AggState::SumInt(s, _) | AggState::SumDec(s, _, _) => s.len(),
            AggState::SumF64(s, _) => s.len(),
            AggState::Avg(s, _) => s.len(),
            AggState::Best(b, _) => b.len(),
            AggState::Median(b) => b.len(),
            AggState::CountDistinct(s) => s.len(),
        }
    }

    /// Merge a partial state whose group ids map through `gid_map`
    /// (`other`'s group `g` corresponds to `self`'s group `gid_map[g]`).
    /// This is the cross-thread merge of morsel-parallel grouped
    /// aggregation, where each worker interned groups independently.
    pub fn merge_mapped(&mut self, other: AggState, gid_map: &[u32]) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => {
                for (g, y) in b.into_iter().enumerate() {
                    a[gid_map[g] as usize] += y;
                }
            }
            (AggState::SumInt(a, sa), AggState::SumInt(b, sb))
            | (AggState::SumDec(a, sa, _), AggState::SumDec(b, sb, _)) => {
                for (g, (y, s2)) in b.into_iter().zip(sb).enumerate() {
                    let t = gid_map[g] as usize;
                    a[t] += y;
                    sa[t] = sa[t] || s2;
                }
            }
            (AggState::SumF64(a, sa), AggState::SumF64(b, sb)) => {
                for (g, (y, s2)) in b.into_iter().zip(sb).enumerate() {
                    let t = gid_map[g] as usize;
                    a[t] += y;
                    sa[t] = sa[t] || s2;
                }
            }
            (AggState::Avg(a, ca), AggState::Avg(b, cb)) => {
                for (g, (y, c2)) in b.into_iter().zip(cb).enumerate() {
                    let t = gid_map[g] as usize;
                    a[t] += y;
                    ca[t] += c2;
                }
            }
            (AggState::Best(a, is_max), AggState::Best(b, _)) => {
                let is_max = *is_max;
                for (g, y) in b.into_iter().enumerate() {
                    let t = gid_map[g] as usize;
                    let replace = match (&a[t], &y) {
                        (_, Value::Null) => false,
                        (Value::Null, _) => true,
                        (cur, new) => {
                            let ord = new.cmp_sql(cur);
                            if is_max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        a[t] = y;
                    }
                }
            }
            (AggState::Median(a), AggState::Median(b)) => {
                for (g, mut y) in b.into_iter().enumerate() {
                    a[gid_map[g] as usize].append(&mut y);
                }
            }
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => {
                for (g, y) in b.into_iter().enumerate() {
                    a[gid_map[g] as usize].extend(y);
                }
            }
            _ => return Err(MlError::Execution("mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// Finalise into an output column of `out_ty`.
    pub fn finish(self, out_ty: LogicalType) -> Result<Bat> {
        Ok(match self {
            AggState::Count(c) => Bat::Bigint(c),
            AggState::CountDistinct(sets) => {
                Bat::Bigint(sets.into_iter().map(|s| s.len() as i64).collect())
            }
            AggState::SumInt(sums, seen) => {
                let mut out = Vec::with_capacity(sums.len());
                for (s, ok) in sums.into_iter().zip(seen) {
                    if !ok {
                        out.push(NULL_I64);
                    } else if s > i64::MAX as i128 || s < (i64::MIN + 1) as i128 {
                        return Err(MlError::Execution("SUM overflow".into()));
                    } else {
                        out.push(s as i64);
                    }
                }
                Bat::Bigint(out)
            }
            AggState::SumDec(sums, seen, scale) => {
                let mut out = Vec::with_capacity(sums.len());
                for (s, ok) in sums.into_iter().zip(seen) {
                    if !ok {
                        out.push(NULL_I64);
                    } else if s > i64::MAX as i128 || s < (i64::MIN + 1) as i128 {
                        return Err(MlError::Execution("SUM overflow".into()));
                    } else {
                        out.push(s as i64);
                    }
                }
                Bat::Decimal { data: out, scale }
            }
            AggState::SumF64(sums, seen) => Bat::Double(
                sums.into_iter().zip(seen).map(|(s, ok)| if ok { s } else { f64::NAN }).collect(),
            ),
            AggState::Avg(sums, counts) => Bat::Double(
                sums.into_iter()
                    .zip(counts)
                    .map(|(s, c)| if c == 0 { f64::NAN } else { s / c as f64 })
                    .collect(),
            ),
            AggState::Best(best, _) => {
                let mut out = Bat::with_capacity(out_ty, best.len());
                for v in best {
                    out.push(&v)?;
                }
                out
            }
            AggState::Median(bufs) => Bat::Double(
                bufs.into_iter()
                    .map(|mut vals| {
                        if vals.is_empty() {
                            return f64::NAN;
                        }
                        // O(n) selection instead of a full sort: this is
                        // still the blocking step of Figure 2, just a
                        // cheaper one.
                        let n = vals.len();
                        let (lo, mid, _) =
                            vals.select_nth_unstable_by(n / 2, |a, b| a.total_cmp(b));
                        let upper = *mid;
                        if n % 2 == 1 {
                            upper
                        } else {
                            let lower = lo.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                            (lower + upper) / 2.0
                        }
                    })
                    .collect(),
            ),
        })
    }
}

fn numeric_f64(b: &Bat, row: usize) -> Result<f64> {
    Ok(match b {
        Bat::Int(v) => v[row] as f64,
        Bat::Bigint(v) => v[row] as f64,
        Bat::Double(v) => v[row],
        Bat::Decimal { data, scale } => {
            data[row] as f64 / monetlite_types::decimal::POW10[*scale as usize] as f64
        }
        Bat::Date(v) => v[row] as f64,
        other => {
            return Err(MlError::Execution(format!(
                "numeric aggregate over {}",
                other.logical_type()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::{ColumnBuffer, Decimal};

    #[test]
    fn grouping_basic() {
        let keys = Bat::Int(vec![1, 2, 1, 3, 2]);
        let g = hash_group(&[&keys]);
        assert_eq!(g.repr_rows.len(), 3);
        assert_eq!(g.group_ids[0], g.group_ids[2]);
        assert_eq!(g.group_ids[1], g.group_ids[4]);
        assert_ne!(g.group_ids[0], g.group_ids[3]);
    }

    #[test]
    fn grouping_multi_key_with_nulls() {
        let a = Bat::Int(vec![1, 1, NULL_I32, NULL_I32]);
        let b = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("x".into()),
            Some("x".into()),
            None,
            None,
        ]));
        let g = hash_group(&[&a, &b]);
        assert_eq!(g.repr_rows.len(), 2, "NULL keys group together");
    }

    #[test]
    fn count_and_count_star() {
        let gids = vec![0, 0, 1];
        let mut star = AggState::new(PAggFunc::Count, None, false, 2).unwrap();
        star.update(None, &gids).unwrap();
        assert_eq!(star.finish(LogicalType::Bigint).unwrap().get(0), Value::Bigint(2));
        let arg = Bat::Int(vec![1, NULL_I32, 5]);
        let mut cnt = AggState::new(PAggFunc::Count, Some(LogicalType::Int), false, 2).unwrap();
        cnt.update(Some(&arg), &gids).unwrap();
        let out = cnt.finish(LogicalType::Bigint).unwrap();
        assert_eq!(out.get(0), Value::Bigint(1), "NULL not counted");
        assert_eq!(out.get(1), Value::Bigint(1));
    }

    #[test]
    fn sum_decimal_keeps_scale() {
        let arg = Bat::Decimal { data: vec![150, 250, NULL_I64], scale: 2 };
        let gids = vec![0, 0, 0];
        let mut s = AggState::new(
            PAggFunc::Sum,
            Some(LogicalType::Decimal { width: 15, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        s.update(Some(&arg), &gids).unwrap();
        let out = s.finish(LogicalType::Decimal { width: 18, scale: 2 }).unwrap();
        assert_eq!(out.get(0), Value::Decimal(Decimal::new(400, 2)));
    }

    #[test]
    fn sum_of_all_nulls_is_null() {
        let arg = Bat::Int(vec![NULL_I32]);
        let mut s = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 1).unwrap();
        s.update(Some(&arg), &[0]).unwrap();
        assert_eq!(s.finish(LogicalType::Bigint).unwrap().get(0), Value::Null);
    }

    #[test]
    fn avg_and_median() {
        let arg = Bat::Int(vec![1, 2, 3, 10]);
        let gids = vec![0, 0, 0, 1];
        let mut a = AggState::new(PAggFunc::Avg, Some(LogicalType::Int), false, 2).unwrap();
        a.update(Some(&arg), &gids).unwrap();
        let out = a.finish(LogicalType::Double).unwrap();
        assert_eq!(out.get(0), Value::Double(2.0));
        assert_eq!(out.get(1), Value::Double(10.0));
        let mut m = AggState::new(PAggFunc::Median, Some(LogicalType::Int), false, 2).unwrap();
        m.update(Some(&arg), &gids).unwrap();
        let out = m.finish(LogicalType::Double).unwrap();
        assert_eq!(out.get(0), Value::Double(2.0));
    }

    #[test]
    fn median_even_count_averages() {
        let arg = Bat::Int(vec![1, 2, 3, 4]);
        let mut m = AggState::new(PAggFunc::Median, Some(LogicalType::Int), false, 1).unwrap();
        m.update(Some(&arg), &[0, 0, 0, 0]).unwrap();
        assert_eq!(m.finish(LogicalType::Double).unwrap().get(0), Value::Double(2.5));
    }

    #[test]
    fn min_max_strings() {
        let arg = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("pear".into()),
            Some("apple".into()),
            None,
        ]));
        let gids = vec![0, 0, 0];
        let mut mn = AggState::new(PAggFunc::Min, Some(LogicalType::Varchar), false, 1).unwrap();
        mn.update(Some(&arg), &gids).unwrap();
        assert_eq!(mn.finish(LogicalType::Varchar).unwrap().get(0), Value::Str("apple".into()));
        let mut mx = AggState::new(PAggFunc::Max, Some(LogicalType::Varchar), false, 1).unwrap();
        mx.update(Some(&arg), &gids).unwrap();
        assert_eq!(mx.finish(LogicalType::Varchar).unwrap().get(0), Value::Str("pear".into()));
    }

    #[test]
    fn partial_merge_equals_single_pass() {
        let arg = Bat::Int(vec![5, 7, 11, 13]);
        let gids = vec![0, 1, 0, 1];
        // Single pass.
        let mut whole = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 2).unwrap();
        whole.update(Some(&arg), &gids).unwrap();
        // Two chunks merged.
        let c1 = Bat::Int(vec![5, 7]);
        let c2 = Bat::Int(vec![11, 13]);
        let mut p1 = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 2).unwrap();
        p1.update(Some(&c1), &[0, 1]).unwrap();
        let mut p2 = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 2).unwrap();
        p2.update(Some(&c2), &[0, 1]).unwrap();
        p1.merge(p2).unwrap();
        let a = whole.finish(LogicalType::Bigint).unwrap();
        let b = p1.finish(LogicalType::Bigint).unwrap();
        assert_eq!(a.to_buffer(None), b.to_buffer(None));
    }

    // -----------------------------------------------------------------
    // Overflow audit: integer and decimal SUM must accumulate in i128 and
    // report "SUM overflow" at finish instead of silently wrapping —
    // exercised at i64::MAX-adjacent magnitudes, including the streaming
    // engine's partial-merge path.
    // -----------------------------------------------------------------

    #[test]
    fn bigint_sum_overflow_is_an_error_not_a_wrap() {
        let arg = Bat::Bigint(vec![i64::MAX, 1]);
        let mut s = AggState::new(PAggFunc::Sum, Some(LogicalType::Bigint), false, 1).unwrap();
        s.update(Some(&arg), &[0, 0]).unwrap();
        match s.finish(LogicalType::Bigint) {
            Err(MlError::Execution(m)) => assert!(m.contains("SUM overflow"), "{m}"),
            other => panic!("expected SUM overflow, got {other:?}"),
        }
    }

    #[test]
    fn decimal_sum_near_i64_max_is_exact() {
        // i64::MAX - 10 plus 10 lands exactly on i64::MAX: representable,
        // must not error and must not lose precision to a float path.
        let arg = Bat::Decimal { data: vec![i64::MAX - 10, 10], scale: 2 };
        let mut s = AggState::new(
            PAggFunc::Sum,
            Some(LogicalType::Decimal { width: 18, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        s.update(Some(&arg), &[0, 0]).unwrap();
        let out = s.finish(LogicalType::Decimal { width: 18, scale: 2 }).unwrap();
        assert_eq!(out.get(0), Value::Decimal(Decimal::new(i64::MAX, 2)));
    }

    #[test]
    fn decimal_sum_overflow_is_an_error_not_a_wrap() {
        let arg = Bat::Decimal { data: vec![i64::MAX, 1], scale: 2 };
        let mut s = AggState::new(
            PAggFunc::Sum,
            Some(LogicalType::Decimal { width: 18, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        s.update(Some(&arg), &[0, 0]).unwrap();
        match s.finish(LogicalType::Decimal { width: 18, scale: 2 }) {
            Err(MlError::Execution(m)) => assert!(m.contains("SUM overflow"), "{m}"),
            other => panic!("expected SUM overflow, got {other:?}"),
        }
    }

    #[test]
    fn decimal_sum_overflow_detected_across_partial_merge() {
        // Each partial is in range; only their merged total overflows —
        // the i128 widening must carry through merge() and merge_mapped().
        let dec_ty = LogicalType::Decimal { width: 18, scale: 0 };
        let mk = |raw: i64| -> AggState {
            let mut s = AggState::new(PAggFunc::Sum, Some(dec_ty), false, 1).unwrap();
            s.update(Some(&Bat::Decimal { data: vec![raw], scale: 0 }), &[0]).unwrap();
            s
        };
        let mut merged = mk(i64::MAX - 1);
        merged.merge(mk(i64::MAX - 1)).unwrap();
        assert!(merged.finish(dec_ty).is_err(), "merged overflow must surface");
        let mut mapped = mk(i64::MAX - 1);
        mapped.merge_mapped(mk(i64::MAX - 1), &[0]).unwrap();
        assert!(mapped.finish(dec_ty).is_err(), "mapped-merge overflow must surface");
    }

    #[test]
    fn decimal_sum_negative_overflow_and_null_sentinel_guard() {
        // The decimal NULL sentinel is i64::MIN: a sum landing exactly on
        // it must error rather than materialise as NULL.
        let dec_ty = LogicalType::Decimal { width: 18, scale: 0 };
        let mut s = AggState::new(PAggFunc::Sum, Some(dec_ty), false, 1).unwrap();
        s.update(Some(&Bat::Decimal { data: vec![i64::MIN + 1, -1], scale: 0 }), &[0, 0]).unwrap();
        assert!(s.finish(dec_ty).is_err(), "sum == NULL sentinel must not round-trip as NULL");
    }

    #[test]
    fn decimal_avg_near_i64_max_stays_finite() {
        // AVG finalises to DOUBLE; near-sentinel magnitudes must neither
        // wrap nor produce NULL/NaN for non-empty groups.
        let arg = Bat::Decimal { data: vec![i64::MAX - 1, i64::MAX - 1], scale: 2 };
        let mut a = AggState::new(
            PAggFunc::Avg,
            Some(LogicalType::Decimal { width: 18, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        a.update(Some(&arg), &[0, 0]).unwrap();
        match a.finish(LogicalType::Double).unwrap().get(0) {
            Value::Double(v) => {
                let expect = (i64::MAX - 1) as f64 / 100.0;
                assert!(v.is_finite() && (v - expect).abs() <= 1e-3 * expect, "{v}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_distinct() {
        let arg = Bat::Int(vec![1, 1, 2, NULL_I32]);
        let mut s = AggState::new(PAggFunc::Count, Some(LogicalType::Int), true, 1).unwrap();
        s.update(Some(&arg), &[0, 0, 0, 0]).unwrap();
        assert_eq!(s.finish(LogicalType::Bigint).unwrap().get(0), Value::Bigint(2));
    }

    #[test]
    fn distinct_sum_unsupported() {
        assert!(AggState::new(PAggFunc::Sum, Some(LogicalType::Int), true, 1).is_err());
    }
}
