//! Answer text and answer comparison.
//!
//! Results are rendered in the format of the repository's TPC-H answer
//! goldens (`tests/golden/qNN.tbl`): one row per line, cells joined by
//! `|`, NULL spelled out, DOUBLE at 4 decimal places. Two renderings
//! agree when every cell is byte-equal or, for numeric cells, equal
//! within the rounding of that format.

use monetlite::types::Value;

/// One cell in golden format.
pub fn fmt_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Double(d) => format!("{d:.4}"),
        other => other.to_string(),
    }
}

/// Rows of values in golden format.
pub fn fmt_rows<'a>(rows: impl Iterator<Item = Vec<Value>> + 'a) -> String {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(fmt_value).collect();
        out.push_str(&cells.join("|"));
        out.push('\n');
    }
    out
}

/// A columnar engine result in golden format.
pub fn fmt_result(r: &monetlite::QueryResult) -> String {
    fmt_rows((0..r.nrows()).map(|i| r.row(i)))
}

/// Whether two cells agree: byte-equal, or both numeric and equal within
/// the 4-decimal rounding plus float reassociation on large sums.
fn cell_eq(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1.5e-4 + 1e-12 * x.abs().max(y.abs()),
        _ => false,
    }
}

/// Compare two renderings; `None` when they agree, else the first
/// difference.
pub fn diff(got: &str, want: &str) -> Option<String> {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    if g.len() != w.len() {
        return Some(format!("row count {} vs expected {}", g.len(), w.len()));
    }
    for (i, (gl, wl)) in g.iter().zip(&w).enumerate() {
        let (gc, wc): (Vec<&str>, Vec<&str>) = (gl.split('|').collect(), wl.split('|').collect());
        if gc.len() != wc.len() || gc.iter().zip(&wc).any(|(a, b)| !cell_eq(a, b)) {
            return Some(format!("row {i}: got `{gl}`, expected `{wl}`"));
        }
    }
    None
}
