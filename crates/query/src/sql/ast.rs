//! Unbound SQL AST.

use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            Self::Eq => "=",
            Self::Neq => "<>",
            Self::Lt => "<",
            Self::Le => "<=",
            Self::Gt => ">",
            Self::Ge => ">=",
        }
    }

    /// The operator with its operands flipped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> Self {
        match self {
            Self::Eq => Self::Eq,
            Self::Neq => Self::Neq,
            Self::Lt => Self::Gt,
            Self::Le => Self::Ge,
            Self::Gt => Self::Lt,
            Self::Ge => Self::Le,
        }
    }
}

/// A literal value in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Int(v) => write!(f, "{v}"),
            Self::Float(v) => write!(f, "{v}"),
            Self::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// An unbound `alias.column` reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnName {
    /// Table alias (or table name when no alias was given).
    pub(crate) qualifier: String,
    /// Column name.
    pub column: String,
}

impl fmt::Display for ColumnName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.qualifier, self.column)
    }
}

/// Aggregate functions in the select list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            Self::Count => "COUNT",
            Self::Sum => "SUM",
            Self::Min => "MIN",
            Self::Max => "MAX",
            Self::Avg => "AVG",
        }
    }
}

/// One item in the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A plain column.
    Column(ColumnName),
    /// An aggregate over a column, or `COUNT(*)` when `column` is `None`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated column; `None` only for `COUNT(*)`.
        column: Option<ColumnName>,
    },
}

/// A table in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Catalog table name.
    pub table: String,
    /// Alias; defaults to the table name.
    pub alias: String,
}

/// One conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum WherePred {
    /// `a.x <op> b.y` — a join predicate once bound.
    ColCol {
        /// Left column.
        left: ColumnName,
        /// Operator.
        op: CompareOp,
        /// Right column.
        right: ColumnName,
    },
    /// `a.x <op> literal` — a selection predicate.
    ColLit {
        /// Column.
        left: ColumnName,
        /// Operator.
        op: CompareOp,
        /// Literal.
        lit: Literal,
    },
}

/// A parsed (unbound) SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM clause, in declaration order.
    pub from: Vec<TableRef>,
    /// WHERE conjuncts.
    pub(crate) predicates: Vec<WherePred>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnName>,
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.items.is_empty() {
            write!(f, "*")?;
        } else {
            for (i, item) in self.items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match item {
                    SelectItem::Wildcard => write!(f, "*")?,
                    SelectItem::Column(c) => write!(f, "{c}")?,
                    SelectItem::Aggregate { func, column } => match column {
                        Some(c) => write!(f, "{}({c})", func.sql())?,
                        None => write!(f, "{}(*)", func.sql())?,
                    },
                }
            }
        }
        write!(f, " FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if t.alias == t.table {
                write!(f, "{}", t.table)?;
            } else {
                write!(f, "{} AS {}", t.table, t.alias)?;
            }
        }
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                match p {
                    WherePred::ColCol { left, op, right } => {
                        write!(f, "{left} {} {right}", op.sql())?
                    }
                    WherePred::ColLit { left, op, lit } => write!(f, "{left} {} {lit}", op.sql())?,
                }
            }
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        write!(f, ";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_flip() {
        assert_eq!(CompareOp::Lt.flipped(), CompareOp::Gt);
        assert_eq!(CompareOp::Ge.flipped(), CompareOp::Le);
        assert_eq!(CompareOp::Eq.flipped(), CompareOp::Eq);
    }

    #[test]
    fn literal_display_escapes() {
        assert_eq!(Literal::Str("it's".into()).to_string(), "'it''s'");
        assert_eq!(Literal::Int(-3).to_string(), "-3");
    }

    #[test]
    fn stmt_display() {
        let stmt = SelectStmt {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None,
            }],
            from: vec![
                TableRef {
                    table: "title".into(),
                    alias: "t".into(),
                },
                TableRef {
                    table: "cast_info".into(),
                    alias: "cast_info".into(),
                },
            ],
            predicates: vec![
                WherePred::ColCol {
                    left: ColumnName {
                        qualifier: "t".into(),
                        column: "id".into(),
                    },
                    op: CompareOp::Eq,
                    right: ColumnName {
                        qualifier: "cast_info".into(),
                        column: "movie_id".into(),
                    },
                },
                WherePred::ColLit {
                    left: ColumnName {
                        qualifier: "t".into(),
                        column: "year".into(),
                    },
                    op: CompareOp::Gt,
                    lit: Literal::Int(1990),
                },
            ],
            group_by: vec![],
        };
        assert_eq!(
            stmt.to_string(),
            "SELECT COUNT(*) FROM title AS t, cast_info \
             WHERE t.id = cast_info.movie_id AND t.year > 1990;"
        );
    }
}
