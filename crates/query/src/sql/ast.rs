//! Unbound SQL AST. It borrows its names and string literals from the
//! statement text it was parsed from.

use std::borrow::Cow;
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
pub enum Literal<'a> {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(Cow<'a, str>),
}

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Int(v) => write!(f, "{v}"),
            // `f64`'s `Display` writes no exponent and the shortest
            // digits that read back as the same value, but drops the
            // point of a whole number — which would re-lex as an integer.
            Self::Float(v) if v.fract() == 0.0 && v.is_finite() => write!(f, "{v}.0"),
            Self::Float(v) => write!(f, "{v}"),
            Self::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// An unbound `alias.column` reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnName<'a> {
    /// Table alias (or table name when no alias was given).
    pub(crate) qualifier: &'a str,
    /// Column name.
    pub column: &'a str,
}

impl fmt::Display for ColumnName<'_> {
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
pub enum SelectItem<'a> {
    /// `*`
    Wildcard,
    /// A plain column.
    Column(ColumnName<'a>),
    /// An aggregate over a column, or `COUNT(*)` when `column` is `None`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated column; `None` only for `COUNT(*)`.
        column: Option<ColumnName<'a>>,
    },
}

/// A table in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef<'a> {
    /// Catalog table name.
    pub table: &'a str,
    /// Alias; defaults to the table name.
    pub alias: &'a str,
}

/// One conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum WherePred<'a> {
    /// `a.x <op> b.y` — a join predicate once bound.
    ColCol {
        /// Left column.
        left: ColumnName<'a>,
        /// Operator.
        op: CompareOp,
        /// Right column.
        right: ColumnName<'a>,
    },
    /// `a.x <op> literal` — a selection predicate.
    ColLit {
        /// Column.
        left: ColumnName<'a>,
        /// Operator.
        op: CompareOp,
        /// Literal.
        lit: Literal<'a>,
    },
}

/// A parsed (unbound) SELECT statement, borrowing from its text.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt<'a> {
    /// Select list.
    pub items: Vec<SelectItem<'a>>,
    /// FROM clause, in declaration order.
    pub from: Vec<TableRef<'a>>,
    /// WHERE conjuncts.
    pub(crate) predicates: Vec<WherePred<'a>>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnName<'a>>,
}

impl fmt::Display for SelectStmt<'_> {
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

    /// A float prints with a decimal point, whole or not, and without an
    /// exponent, so it re-lexes as the same float — never as an integer
    /// and never as a malformed number.
    #[test]
    fn float_literals_print_with_a_point() {
        for (v, printed) in [
            (2.0, "2.0"),
            (-0.0, "-0.0"),
            (-3.0, "-3.0"),
            (2.5, "2.5"),
            (1e20, "100000000000000000000.0"),
            (0.1, "0.1"),
            (1.5e-7, "0.00000015"),
        ] {
            let lit = Literal::Float(v);
            assert_eq!(lit.to_string(), printed);
            let tokens = crate::sql::tokenize(printed).unwrap();
            assert_eq!(tokens, [crate::sql::Token::Float(v)], "{printed}");
        }
        let max = Literal::Float(f64::MAX).to_string();
        assert_eq!(
            crate::sql::tokenize(&max),
            Ok(vec![crate::sql::Token::Float(f64::MAX)])
        );
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
                    table: "title",
                    alias: "t",
                },
                TableRef {
                    table: "cast_info",
                    alias: "cast_info",
                },
            ],
            predicates: vec![
                WherePred::ColCol {
                    left: ColumnName {
                        qualifier: "t",
                        column: "id",
                    },
                    op: CompareOp::Eq,
                    right: ColumnName {
                        qualifier: "cast_info",
                        column: "movie_id",
                    },
                },
                WherePred::ColLit {
                    left: ColumnName {
                        qualifier: "t",
                        column: "year",
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
