//! Canonical (injective) statement rendering: the key material of the
//! plan and result caches.
//!
//! The `Display` impls on [`crate::ast`] exist for *diagnostics*: they
//! elide subqueries (`(select ...)`) and render values without type
//! tags, so two distinct ASTs can print identically. Cache keys need
//! the opposite guarantee — distinct ASTs must render distinctly — so
//! this module renders every statement fully, case-folds identifiers,
//! and tags every literal with its type ([`canon_value`]).

use crate::ast::{Expr, IntervalUnit, OrderItem, SelectItem, SelectStmt, TableRef};
use monetlite_types::Value;
use std::fmt::Write as _;

/// Injective, type-tagged rendering of a [`Value`].
///
/// Distinct values — including equal-looking values of different types
/// (`Int(1)` vs `Bigint(1)` vs `Double(1.0)` vs `Decimal(1, 0)` vs
/// `Str("1")`) — always render to distinct strings. Doubles render via
/// their bit pattern, decimals as `raw.scale`, dates as the raw day
/// count, and strings with `''`-escaped quotes.
pub fn canon_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => format!("bool:{b}"),
        Value::Int(i) => format!("int:{i}"),
        Value::Bigint(i) => format!("bigint:{i}"),
        Value::Double(d) => format!("double:{:016x}", d.to_bits()),
        Value::Decimal(d) => format!("dec:{}.{}", d.raw, d.scale),
        Value::Str(s) => format!("str:'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("date:{}", d.0),
    }
}

/// Canonical rendering of a whole SELECT, the plan- and result-cache
/// key material: literals are rendered in place via [`canon_value`].
pub fn canon_select_full(stmt: &SelectStmt) -> String {
    let mut out = String::new();
    write_select(&mut out, stmt);
    out
}

fn write_select(out: &mut String, s: &SelectStmt) {
    if !s.ctes.is_empty() {
        out.push_str("with ");
        for (i, cte) in s.ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&fold(&cte.name));
            if let Some(cols) = &cte.columns {
                let folded: Vec<String> = cols.iter().map(|c| fold(c)).collect();
                let _ = write!(out, " ({})", folded.join(", "));
            }
            out.push_str(" as (");
            write_select(out, &cte.query);
            out.push(')');
        }
        out.push(' ');
    }
    out.push_str("select ");
    if s.distinct {
        out.push_str("distinct ");
    }
    for (i, item) in s.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                let _ = write!(out, "{}.*", fold(t));
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr);
                if let Some(a) = alias {
                    let _ = write!(out, " as {}", fold(a));
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" from ");
        for (i, tr) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_table_ref(out, tr);
        }
    }
    if let Some(w) = &s.where_clause {
        out.push_str(" where ");
        write_expr(out, w);
    }
    if !s.group_by.is_empty() {
        out.push_str(" group by ");
        for (i, e) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, e);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" having ");
        write_expr(out, h);
    }
    if !s.order_by.is_empty() {
        out.push_str(" order by ");
        for (i, OrderItem { expr, desc }) in s.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, expr);
            if *desc {
                out.push_str(" desc");
            }
        }
    }
    if let Some(l) = s.limit {
        let _ = write!(out, " limit {l}");
    }
}

fn write_table_ref(out: &mut String, tr: &TableRef) {
    match tr {
        TableRef::Table { name, alias } => {
            out.push_str(&fold(name));
            if let Some(a) = alias {
                let _ = write!(out, " as {}", fold(a));
            }
        }
        TableRef::Subquery { query, alias, columns } => {
            out.push('(');
            write_select(out, query);
            let _ = write!(out, ") as {}", fold(alias));
            if let Some(cols) = columns {
                let folded: Vec<String> = cols.iter().map(|c| fold(c)).collect();
                let _ = write!(out, " ({})", folded.join(", "));
            }
        }
        TableRef::Join { left, right, kind, on } => {
            out.push('(');
            write_table_ref(out, left);
            let _ = write!(out, " {:?} join ", kind);
            write_table_ref(out, right);
            if let Some(on) = on {
                out.push_str(" on ");
                write_expr(out, on);
            }
            out.push(')');
        }
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Column { table: Some(t), name } => {
            let _ = write!(out, "{}.{}", fold(t), fold(name));
        }
        Expr::Column { table: None, name } => out.push_str(&fold(name)),
        Expr::Literal(v) => out.push_str(&canon_value(v)),
        Expr::Interval { value, unit } => {
            let u = match unit {
                IntervalUnit::Day => "day",
                IntervalUnit::Month => "month",
                IntervalUnit::Year => "year",
            };
            let _ = write!(out, "interval {value} {u}");
        }
        Expr::Binary { op, left, right } => {
            let _ = write!(out, "({:?} ", op);
            write_expr(out, left);
            out.push(' ');
            write_expr(out, right);
            out.push(')');
        }
        Expr::Not(inner) => {
            out.push_str("(not ");
            write_expr(out, inner);
            out.push(')');
        }
        Expr::Neg(inner) => {
            out.push_str("(neg ");
            write_expr(out, inner);
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            let _ = write!(out, "(is{}null ", if *negated { "not" } else { "" });
            write_expr(out, expr);
            out.push(')');
        }
        Expr::Like { expr, pattern, negated } => {
            let _ = write!(out, "({}like ", if *negated { "not" } else { "" });
            write_expr(out, expr);
            let _ = write!(out, " '{}')", pattern.replace('\'', "''"));
        }
        Expr::Between { expr, low, high, negated } => {
            let _ = write!(out, "({}between ", if *negated { "not" } else { "" });
            write_expr(out, expr);
            out.push(' ');
            write_expr(out, low);
            out.push(' ');
            write_expr(out, high);
            out.push(')');
        }
        Expr::InList { expr, list, negated } => {
            let _ = write!(out, "({}in ", if *negated { "not" } else { "" });
            write_expr(out, expr);
            out.push_str(" [");
            for (i, m) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, m);
            }
            out.push_str("])");
        }
        Expr::InSubquery { expr, query, negated } => {
            let _ = write!(out, "({}in ", if *negated { "not" } else { "" });
            write_expr(out, expr);
            out.push_str(" (");
            write_select(out, query);
            out.push_str("))");
        }
        Expr::Exists { query, negated } => {
            let _ = write!(out, "({}exists (", if *negated { "not" } else { "" });
            write_select(out, query);
            out.push_str("))");
        }
        Expr::ScalarSubquery(q) => {
            out.push_str("(scalar (");
            write_select(out, q);
            out.push_str("))");
        }
        Expr::Case { branches, else_expr } => {
            out.push_str("(case");
            for (c, v) in branches {
                out.push_str(" when ");
                write_expr(out, c);
                out.push_str(" then ");
                write_expr(out, v);
            }
            if let Some(e) = else_expr {
                out.push_str(" else ");
                write_expr(out, e);
            }
            out.push_str(" end)");
        }
        Expr::Agg { func, arg, distinct } => {
            let _ = write!(out, "({:?}", func);
            if *distinct {
                out.push_str(" distinct");
            }
            match arg {
                None => out.push_str(" *"),
                Some(a) => {
                    out.push(' ');
                    write_expr(out, a);
                }
            }
            out.push(')');
        }
        Expr::Extract { field, expr } => {
            let _ = write!(out, "(extract {:?} ", field);
            write_expr(out, expr);
            out.push(')');
        }
        Expr::Cast { expr, ty } => {
            out.push_str("(cast ");
            write_expr(out, expr);
            let _ = write!(out, " {ty})");
        }
        Expr::Function { name, args } => {
            let _ = write!(out, "({}", fold(name));
            for a in args {
                out.push(' ');
                write_expr(out, a);
            }
            out.push(')');
        }
    }
}

fn fold(ident: &str) -> String {
    ident.to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use monetlite_types::Decimal;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn canon_value_is_type_tagged() {
        // Same surface text, different types — the old Display rendered
        // all of these identically ("1" / "5").
        let collide = [
            Value::Int(5),
            Value::Bigint(5),
            Value::Double(5.0),
            Value::Decimal(Decimal::new(5, 0)),
            Value::Str("5".into()),
        ];
        for (i, a) in collide.iter().enumerate() {
            for b in &collide[i + 1..] {
                assert_ne!(canon_value(a), canon_value(b), "{a:?} vs {b:?}");
            }
        }
        assert_ne!(
            canon_value(&Value::Decimal(Decimal::new(10, 1))),
            canon_value(&Value::Decimal(Decimal::new(1, 0))),
            "1.0 vs 1 must not alias"
        );
        assert_ne!(canon_value(&Value::Str("a''b".into())), canon_value(&Value::Str("a'b".into())));
    }

    #[test]
    fn canon_renders_subqueries_fully() {
        // The diagnostic Display elides subqueries; the canonical
        // rendering must not.
        let a = canon_select_full(&sel("select a from t where x in (select k from u)"));
        let b = canon_select_full(&sel("select a from t where x in (select k from v)"));
        assert_ne!(a, b);
        // Identifier case folds.
        let c = canon_select_full(&sel("SELECT A FROM T WHERE X IN (SELECT K FROM U)"));
        assert_eq!(a, c);
    }

    #[test]
    fn typed_literals_key_differently() {
        // int 5 vs decimal 5.0 in WHERE → different type-tagged keys.
        let a = canon_select_full(&sel("select a from t where b = 5"));
        let b = canon_select_full(&sel("select a from t where b = 5.0"));
        assert_ne!(a, b);
    }
}
