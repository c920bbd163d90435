//! Join kernels: hash join (inner/left/semi/anti) and cross products.
//!
//! The hash join "builds" on the right input once ([`build_hash_map`])
//! and probes it vector-at-a-time ([`probe_hash`]). When the build side
//! is a bare persistent column, the executor probes its automatically
//! maintained [`HashIndex`] instead ([`probe_index`]; paper §3.1: "Hash
//! tables are also automatically created for persistent columns when they
//! are used in groupings or as join keys in equi-joins") — the build
//! phase then disappears entirely.

use crate::plan::PJoinKind;
use crate::rows::{any_null, row_hash, rows_eq, NO_ROW};
use monetlite_storage::index::{key_at, HashIndex};
use monetlite_storage::Bat;
use monetlite_types::{MlError, Result};
use std::collections::HashMap;

/// Row-id pairs produced by a join; `rsel` entries may be [`NO_ROW`]
/// (left outer). For semi/anti joins `rsel` is empty.
#[derive(Debug, Default)]
pub struct JoinSel {
    /// Left row ids.
    pub lsel: Vec<u32>,
    /// Right row ids (empty for semi/anti).
    pub rsel: Vec<u32>,
}

impl JoinSel {
    /// Rewrite probe-side row ids through a candidate list: each `lsel`
    /// entry was a *logical* position into the probe vector's selection
    /// (the probe keys were compacted through it); afterwards it is the
    /// physical row id in the underlying columns, so the output gather
    /// is the candidate chain's single materialisation.
    pub fn compose_lsel(&mut self, sel: &[u32]) {
        for l in &mut self.lsel {
            *l = sel[*l as usize];
        }
    }
}

/// The hash-join build phase: bucket every non-NULL build row by its
/// composite key hash.
pub fn build_hash_map(rkeys: &[&Bat]) -> HashMap<u64, Vec<u32>> {
    let rrows = rkeys.first().map_or(0, |k| k.len());
    let mut table: HashMap<u64, Vec<u32>> = HashMap::with_capacity(rrows);
    for r in 0..rrows {
        if any_null(rkeys, r) {
            continue; // NULL keys never match
        }
        table.entry(row_hash(rkeys, r)).or_default().push(r as u32);
    }
    table
}

/// Probe a transient build table with a block of probe-side keys.
/// `lsel` entries index the probe block; `rsel` entries index the full
/// build side.
pub fn probe_hash(
    lkeys: &[&Bat],
    rkeys: &[&Bat],
    table: &HashMap<u64, Vec<u32>>,
    kind: PJoinKind,
) -> JoinSel {
    let lrows = lkeys.first().map_or(0, |k| k.len());
    let mut out = JoinSel::default();
    for l in 0..lrows {
        if any_null(lkeys, l) {
            finish_probe(&mut out, kind, l as u32, false);
            continue;
        }
        let mut matched = false;
        if let Some(bucket) = table.get(&row_hash(lkeys, l)) {
            for &r in bucket {
                if rows_eq(lkeys, l, rkeys, r as usize, false) {
                    matched = true;
                    match kind {
                        PJoinKind::Inner | PJoinKind::Left => {
                            out.lsel.push(l as u32);
                            out.rsel.push(r);
                        }
                        PJoinKind::Semi | PJoinKind::Anti => break,
                        // xlint: allow(panic, planner never routes cross joins through key probes)
                        PJoinKind::Cross => unreachable!(),
                    }
                }
            }
        }
        finish_probe(&mut out, kind, l as u32, matched);
    }
    out
}

/// Probe an automatically maintained per-column [`HashIndex`] (single-key
/// joins over bare persistent columns; the build phase disappears).
pub fn probe_index(lkeys: &[&Bat], rkeys: &[&Bat], idx: &HashIndex, kind: PJoinKind) -> JoinSel {
    let lrows = lkeys.first().map_or(0, |k| k.len());
    let mut out = JoinSel::default();
    for l in 0..lrows {
        if any_null(lkeys, l) {
            if kind == PJoinKind::Anti {
                out.lsel.push(l as u32);
            }
            if kind == PJoinKind::Left {
                out.lsel.push(l as u32);
                out.rsel.push(NO_ROW);
            }
            continue;
        }
        let key = key_at(lkeys[0], l);
        let mut matched = false;
        for &r in idx.lookup(key) {
            if rows_eq(lkeys, l, rkeys, r as usize, false) {
                matched = true;
                match kind {
                    PJoinKind::Inner | PJoinKind::Left => {
                        out.lsel.push(l as u32);
                        out.rsel.push(r);
                    }
                    PJoinKind::Semi => break,
                    PJoinKind::Anti => break,
                    // xlint: allow(panic, planner never routes cross joins through key probes)
                    PJoinKind::Cross => unreachable!(),
                }
            }
        }
        finish_probe(&mut out, kind, l as u32, matched);
    }
    out
}

#[inline]
fn finish_probe(out: &mut JoinSel, kind: PJoinKind, l: u32, matched: bool) {
    match kind {
        PJoinKind::Left if !matched => {
            out.lsel.push(l);
            out.rsel.push(NO_ROW);
        }
        PJoinKind::Semi if matched => out.lsel.push(l),
        PJoinKind::Anti if !matched => out.lsel.push(l),
        _ => {}
    }
}

/// Pairs of a **scalar join** — a key-less LEFT join as planned by the
/// binder for uncorrelated scalar subqueries: the right side must hold at
/// most one row; zero rows pad every probe row with NULL (SQL's empty
/// scalar subquery answer), more than one row is the SQL error.
pub fn scalar_left_pairs(lrows: usize, rrows: usize) -> Result<JoinSel> {
    if rrows > 1 {
        return Err(MlError::Execution(format!(
            "scalar subquery returned {rrows} rows (at most one expected)"
        )));
    }
    let rid = if rrows == 0 { NO_ROW } else { 0 };
    Ok(JoinSel { lsel: (0..lrows as u32).collect(), rsel: vec![rid; lrows] })
}

/// Cross product row-id pairs.
pub fn cross_join(lrows: usize, rrows: usize) -> JoinSel {
    let mut out = JoinSel {
        lsel: Vec::with_capacity(lrows * rrows),
        rsel: Vec::with_capacity(lrows * rrows),
    };
    for l in 0..lrows {
        for r in 0..rrows {
            out.lsel.push(l as u32);
            out.rsel.push(r as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::nulls::NULL_I32;

    /// Build then probe in one call: the prebuilt-index probe for a
    /// single key when `idx` is given, the transient build table
    /// otherwise.
    fn build_and_probe(
        lkeys: &[&Bat],
        rkeys: &[&Bat],
        kind: PJoinKind,
        idx: Option<&HashIndex>,
    ) -> JoinSel {
        match idx {
            Some(idx) => probe_index(lkeys, rkeys, idx, kind),
            None => probe_hash(lkeys, rkeys, &build_hash_map(rkeys), kind),
        }
    }

    fn pairs(sel: &JoinSel) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> =
            sel.lsel.iter().copied().zip(sel.rsel.iter().copied()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn inner_join_basic() {
        let l = Bat::Int(vec![1, 2, 3, 2]);
        let r = Bat::Int(vec![2, 4, 1]);
        let out = build_and_probe(&[&l], &[&r], PJoinKind::Inner, None);
        assert_eq!(pairs(&out), vec![(0, 2), (1, 0), (3, 0)]);
    }

    #[test]
    fn left_join_pads() {
        let l = Bat::Int(vec![1, 9]);
        let r = Bat::Int(vec![1]);
        let out = build_and_probe(&[&l], &[&r], PJoinKind::Left, None);
        assert_eq!(out.lsel, vec![0, 1]);
        assert_eq!(out.rsel, vec![0, NO_ROW]);
    }

    #[test]
    fn semi_and_anti() {
        let l = Bat::Int(vec![1, 2, 3]);
        let r = Bat::Int(vec![2, 2, 5]);
        let semi = build_and_probe(&[&l], &[&r], PJoinKind::Semi, None);
        assert_eq!(semi.lsel, vec![1]);
        assert!(semi.rsel.is_empty());
        let anti = build_and_probe(&[&l], &[&r], PJoinKind::Anti, None);
        assert_eq!(anti.lsel, vec![0, 2]);
    }

    #[test]
    fn null_keys_never_match() {
        let l = Bat::Int(vec![NULL_I32, 1]);
        let r = Bat::Int(vec![NULL_I32, 1]);
        let out = build_and_probe(&[&l], &[&r], PJoinKind::Inner, None);
        assert_eq!(pairs(&out), vec![(1, 1)]);
        // Anti keeps NULL-keyed left rows (no match possible).
        let anti = build_and_probe(&[&l], &[&r], PJoinKind::Anti, None);
        assert_eq!(anti.lsel, vec![0]);
        // Left join pads NULL-keyed rows.
        let left = build_and_probe(&[&l], &[&r], PJoinKind::Left, None);
        assert_eq!(left.rsel, vec![NO_ROW, 1]);
    }

    #[test]
    fn multi_key_join() {
        let l1 = Bat::Int(vec![1, 1, 2]);
        let l2 = Bat::Int(vec![10, 20, 10]);
        let r1 = Bat::Int(vec![1, 2]);
        let r2 = Bat::Int(vec![20, 10]);
        let out = build_and_probe(&[&l1, &l2], &[&r1, &r2], PJoinKind::Inner, None);
        assert_eq!(pairs(&out), vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn prebuilt_index_path_matches_general_path() {
        let l = Bat::Int(vec![3, 1, 4, 1, 5]);
        let r = Bat::Int(vec![1, 5, 9, 1]);
        let idx = HashIndex::build(&(0..r.len()).map(|i| key_at(&r, i)).collect::<Vec<_>>());
        for kind in [PJoinKind::Inner, PJoinKind::Left, PJoinKind::Semi, PJoinKind::Anti] {
            let with_idx = build_and_probe(&[&l], &[&r], kind, Some(&idx));
            let without = build_and_probe(&[&l], &[&r], kind, None);
            assert_eq!(pairs(&with_idx), pairs(&without), "{kind:?}");
            assert_eq!(with_idx.lsel.len(), without.lsel.len());
        }
    }

    #[test]
    fn cross_join_counts() {
        let out = cross_join(3, 2);
        assert_eq!(out.lsel.len(), 6);
        assert_eq!(pairs(&out).len(), 6);
    }

    #[test]
    fn string_keys_join() {
        use monetlite_types::ColumnBuffer;
        let l = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("FRANCE".into()),
            Some("GERMANY".into()),
            None,
        ]));
        let r = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("GERMANY".into()),
            Some("FRANCE".into()),
        ]));
        let out = build_and_probe(&[&l], &[&r], PJoinKind::Inner, None);
        assert_eq!(pairs(&out), vec![(0, 1), (1, 0)]);
    }
}
