//! Abstract syntax tree for the monetlite SQL dialect.

use monetlite_types::{LogicalType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select(Box<SelectStmt>),
    /// CREATE VIEW name [(columns)] AS SELECT ... — the view's text is
    /// expanded at bind time like a named derived table (Q15's shape).
    CreateView {
        /// View name.
        name: String,
        /// Optional output column rename list.
        columns: Option<Vec<String>>,
        /// The defining query.
        query: Box<SelectStmt>,
    },
    /// DROP VIEW.
    DropView {
        /// View name.
        name: String,
        /// IF EXISTS given.
        if_exists: bool,
    },
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column name, type, nullable.
        columns: Vec<ColumnDef>,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS given.
        if_exists: bool,
    },
    /// INSERT INTO ... VALUES.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Value rows.
        rows: Vec<Vec<Expr>>,
    },
    /// DELETE FROM.
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        filter: Option<Expr>,
    },
    /// UPDATE ... SET.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Optional predicate.
        filter: Option<Expr>,
    },
    /// CREATE \[ORDER\] INDEX (paper §3.1: ORDER INDEX is user-created;
    /// plain INDEX is accepted as a hint — MonetDB builds indexes
    /// automatically anyway).
    CreateIndex {
        /// Index name.
        name: String,
        /// Target table.
        table: String,
        /// Indexed column.
        column: String,
        /// True for CREATE ORDER INDEX.
        ordered: bool,
    },
    /// BEGIN / START TRANSACTION.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// EXPLAIN: show the optimized plan / MAL program.
    Explain(Box<Statement>),
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Logical type.
    pub ty: LogicalType,
    /// NULLs admitted.
    pub nullable: bool,
}

/// One `WITH name [(cols)] AS (SELECT ...)` common table expression.
/// Non-recursive: a CTE may reference only CTEs defined before it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name.
    pub name: String,
    /// Optional output column rename list.
    pub columns: Option<Vec<String>>,
    /// The defining query.
    pub query: SelectStmt,
}

/// A SELECT query body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// Leading WITH clause (visible to this query and its subqueries).
    pub ctes: Vec<Cte>,
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// FROM clause (empty = single-row SELECT of constants).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// One projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// AS alias.
        alias: Option<String>,
    },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Table {
        /// Table name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// Derived table.
    Subquery {
        /// The inner query.
        query: Box<SelectStmt>,
        /// Mandatory alias.
        alias: String,
        /// Optional output column rename list: `(SELECT ...) AS t (a, b)`
        /// (TPC-H Q13's shape).
        columns: Option<Vec<String>>,
    },
    /// Explicit JOIN.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (None only for CROSS JOIN).
        on: Option<Expr>,
    },
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
    /// CROSS JOIN.
    Cross,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression (may be a 1-based output ordinal).
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(expr) / COUNT(*) when arg is None.
    Count,
    /// SUM.
    Sum,
    /// AVG.
    Avg,
    /// MIN.
    Min,
    /// MAX.
    Max,
    /// MEDIAN — MonetDB supports it natively; it is the blocking operator
    /// of the paper's Figure 2 example.
    Median,
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// OR
    Or,
    /// AND
    And,
    /// =
    Eq,
    /// <>
    NotEq,
    /// <
    Lt,
    /// <=
    LtEq,
    /// >
    Gt,
    /// >=
    GtEq,
    /// +
    Add,
    /// -
    Sub,
    /// *
    Mul,
    /// /
    Div,
    /// %
    Mod,
}

/// EXTRACT fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DateField {
    /// EXTRACT(YEAR ...)
    Year,
    /// EXTRACT(MONTH ...)
    Month,
    /// EXTRACT(DAY ...)
    Day,
}

/// Interval units for date arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Days.
    Day,
    /// Months.
    Month,
    /// Years.
    Year,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified.
    Column {
        /// Table qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Constant.
    Literal(Value),
    /// `INTERVAL '90' DAY`.
    Interval {
        /// Signed magnitude.
        value: i32,
        /// Unit.
        unit: IntervalUnit,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (pattern is a literal string; MonetDBLite
    /// re-implemented LIKE without PCRE — see §3.4 *Dependencies* — and so
    /// do we, in the engines).
    Like {
        /// Operand.
        expr: Box<Expr>,
        /// Pattern with `%` and `_` wildcards.
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// NOT IN.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Operand.
        expr: Box<Expr>,
        /// Subquery producing one column.
        query: Box<SelectStmt>,
        /// NOT IN.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        query: Box<SelectStmt>,
        /// NOT EXISTS.
        negated: bool,
    },
    /// Scalar subquery in expression position.
    ScalarSubquery(Box<SelectStmt>),
    /// Searched CASE.
    Case {
        /// WHEN cond THEN value pairs.
        branches: Vec<(Expr, Expr)>,
        /// ELSE value.
        else_expr: Option<Box<Expr>>,
    },
    /// Aggregate call (only valid in SELECT/HAVING/ORDER BY of a grouped
    /// query).
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument (None = COUNT(*)).
        arg: Option<Box<Expr>>,
        /// DISTINCT modifier.
        distinct: bool,
    },
    /// EXTRACT(field FROM expr).
    Extract {
        /// Date part.
        field: DateField,
        /// Date expression.
        expr: Box<Expr>,
    },
    /// CAST(expr AS type).
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        ty: LogicalType,
    },
    /// Scalar function call (sqrt, abs, substring, ...).
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience: unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, name: name.to_string() }
    }

    /// Convenience: integer literal.
    pub fn int(v: i32) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// True if the expression (recursively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column { .. } | Expr::Literal(_) | Expr::Interval { .. } => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, .. } => expr.contains_aggregate(),
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
            Expr::Case { branches, else_expr } => {
                branches.iter().any(|(c, v)| c.contains_aggregate() || v.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            Expr::Extract { expr, .. } => expr.contains_aggregate(),
            Expr::Cast { expr, .. } => expr.contains_aggregate(),
            Expr::Function { args, .. } => args.iter().any(|e| e.contains_aggregate()),
        }
    }
}

/// Render expressions back as SQL text. Used by binder diagnostics so an
/// unsupported construct is reported as the SQL fragment the user wrote,
/// not a debug dump of the AST.
impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Column { table: Some(t), name } => write!(f, "{t}.{name}"),
            Expr::Column { table: None, name } => write!(f, "{name}"),
            Expr::Literal(v) => match v {
                // Embedded quotes must re-escape as '' or two distinct
                // literals render identically (and the text is unparseable).
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                // Bare `1995-03-15` does not parse back as a date literal.
                Value::Date(_) => write!(f, "date '{v}'"),
                other => write!(f, "{other}"),
            },
            Expr::Interval { value, unit } => {
                let u = match unit {
                    IntervalUnit::Day => "day",
                    IntervalUnit::Month => "month",
                    IntervalUnit::Year => "year",
                };
                write!(f, "interval '{value}' {u}")
            }
            Expr::Binary { op, left, right } => {
                let o = match op {
                    BinOp::Or => "or",
                    BinOp::And => "and",
                    BinOp::Eq => "=",
                    BinOp::NotEq => "<>",
                    BinOp::Lt => "<",
                    BinOp::LtEq => "<=",
                    BinOp::Gt => ">",
                    BinOp::GtEq => ">=",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                };
                write!(f, "({left} {o} {right})")
            }
            Expr::Not(e) => write!(f, "not {e}"),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} is {}null", if *negated { "not " } else { "" })
            }
            Expr::Like { expr, pattern, negated } => {
                write!(
                    f,
                    "{expr} {}like '{}'",
                    if *negated { "not " } else { "" },
                    pattern.replace('\'', "''")
                )
            }
            Expr::Between { expr, low, high, negated } => {
                write!(f, "{expr} {}between {low} and {high}", if *negated { "not " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "{expr} {}in (", if *negated { "not " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery { expr, negated, .. } => {
                write!(f, "{expr} {}in (select ...)", if *negated { "not " } else { "" })
            }
            Expr::Exists { negated, .. } => {
                write!(f, "{}exists (select ...)", if *negated { "not " } else { "" })
            }
            Expr::ScalarSubquery(_) => write!(f, "(select ...)"),
            Expr::Case { branches, else_expr } => {
                write!(f, "case")?;
                for (c, v) in branches {
                    write!(f, " when {c} then {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " else {e}")?;
                }
                write!(f, " end")
            }
            Expr::Agg { func, arg, distinct } => {
                let name = format!("{func:?}").to_ascii_lowercase();
                match arg {
                    None => write!(f, "{name}(*)"),
                    Some(a) => {
                        write!(f, "{name}({}{a})", if *distinct { "distinct " } else { "" })
                    }
                }
            }
            Expr::Extract { field, expr } => {
                let p = match field {
                    DateField::Year => "year",
                    DateField::Month => "month",
                    DateField::Day => "day",
                };
                write!(f, "extract({p} from {expr})")
            }
            Expr::Cast { expr, ty } => write!(f, "cast({expr} as {ty})"),
            Expr::Function { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_is_sql() {
        let e = Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::Column { table: Some("l2".into()), name: "l_orderkey".into() }),
            right: Box::new(Expr::col("l_orderkey")),
        };
        assert_eq!(e.to_string(), "(l2.l_orderkey = l_orderkey)");
        let like = Expr::Like {
            expr: Box::new(Expr::col("s_comment")),
            pattern: "%Customer%Complaints%".into(),
            negated: true,
        };
        assert_eq!(like.to_string(), "s_comment not like '%Customer%Complaints%'");
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg =
            Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::col("x"))), distinct: false };
        let e = Expr::Binary { op: BinOp::Add, left: Box::new(Expr::int(1)), right: Box::new(agg) };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        let case = Expr::Case {
            branches: vec![(
                Expr::col("c"),
                Expr::Agg { func: AggFunc::Count, arg: None, distinct: false },
            )],
            else_expr: None,
        };
        assert!(case.contains_aggregate());
    }
}
