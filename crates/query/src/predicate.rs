//! Bound predicates: selections, join edges, aggregates.

use crate::graph::RelId;
use crate::sql::AggFunc;
pub use crate::sql::CompareOp;
use hfqo_storage::catalog::ColumnId;
use std::fmt;

/// A literal in a bound predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
}

impl Lit {
    /// Numeric proxy consistent with the storage layer's
    /// `Value::numeric_proxy` — used by selectivity estimation.
    pub fn numeric_proxy(&self) -> f64 {
        match self {
            Lit::Int(v) => *v as f64,
            Lit::Float(v) => *v,
            Lit::Str(s) => {
                let mut acc = 0.0f64;
                let mut scale = 1.0f64;
                for &b in s.as_bytes().iter().take(6) {
                    scale /= 256.0;
                    acc += (b as f64) * scale;
                }
                acc
            }
        }
    }
}

/// The bound value of a parsed literal: a string is copied out of the
/// statement text here, into the graph that owns it.
impl From<&crate::sql::Literal<'_>> for Lit {
    fn from(l: &crate::sql::Literal<'_>) -> Self {
        match l {
            crate::sql::Literal::Int(v) => Lit::Int(*v),
            crate::sql::Literal::Float(v) => Lit::Float(*v),
            crate::sql::Literal::Str(s) => Lit::Str(s.to_string()),
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(v) => write!(f, "{v}"),
            // A whole float keeps its point, as `sql::Literal` prints
            // it: `2.0` is not the integer `2`.
            Lit::Float(v) if v.fract() == 0.0 && v.is_finite() => write!(f, "{v}.0"),
            Lit::Float(v) => write!(f, "{v}"),
            Lit::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A column of a *query relation* (not a catalog table): the same catalog
/// table may appear several times in one query under different aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundColumn {
    /// Relation position in the FROM clause.
    pub rel: RelId,
    /// Column position within the relation's table.
    pub column: ColumnId,
}

impl BoundColumn {
    /// Creates a bound column.
    pub fn new(rel: RelId, column: ColumnId) -> Self {
        Self { rel, column }
    }
}

impl fmt::Display for BoundColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.c{}", self.rel.0, self.column.0)
    }
}

/// A selection predicate: `column <op> literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The filtered column.
    pub column: BoundColumn,
    /// Comparison operator.
    pub op: CompareOp,
    /// Comparison literal.
    pub value: Lit,
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op.sql(), self.value)
    }
}

/// A join predicate between two relations: `left <op> right`.
///
/// Stored with `left.rel < right.rel` (normalised by the binder) so edge
/// identity is canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    /// Column on the lower-numbered relation.
    pub left: BoundColumn,
    /// Comparison operator (as written for `left <op> right`).
    pub op: CompareOp,
    /// Column on the higher-numbered relation.
    pub right: BoundColumn,
}

impl fmt::Display for JoinEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op.sql(), self.right)
    }
}

/// An aggregate output expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Aggregated column; `None` only for `COUNT(*)`.
    pub column: Option<BoundColumn>,
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.column {
            Some(c) => write!(f, "{}({c})", self.func.sql()),
            None => write!(f, "{}(*)", self.func.sql()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_proxy_matches_kinds() {
        assert_eq!(Lit::Int(5).numeric_proxy(), 5.0);
        assert_eq!(Lit::Float(2.5).numeric_proxy(), 2.5);
        assert!(Lit::Str("a".into()).numeric_proxy() < Lit::Str("b".into()).numeric_proxy());
    }

    #[test]
    fn lit_from_sql() {
        assert_eq!(Lit::from(&crate::sql::Literal::Int(3)), Lit::Int(3));
        assert_eq!(
            Lit::from(&crate::sql::Literal::Str("x".into())),
            Lit::Str("x".into())
        );
    }

    /// A whole float reads as a float, not as the integer of the same
    /// value; a fractional one is unchanged.
    #[test]
    fn whole_floats_keep_their_point() {
        assert_eq!(Lit::Float(2.0).to_string(), "2.0");
        assert_eq!(Lit::Int(2).to_string(), "2");
        assert_eq!(Lit::Float(-3.0).to_string(), "-3.0");
        assert_eq!(Lit::Float(2.5).to_string(), "2.5");
    }

    #[test]
    fn displays() {
        let c = BoundColumn::new(RelId(1), ColumnId(2));
        assert_eq!(c.to_string(), "r1.c2");
        let s = Selection {
            column: c,
            op: CompareOp::Le,
            value: Lit::Int(10),
        };
        assert_eq!(s.to_string(), "r1.c2 <= 10");
        let e = JoinEdge {
            left: BoundColumn::new(RelId(0), ColumnId(0)),
            op: CompareOp::Eq,
            right: c,
        };
        assert_eq!(e.to_string(), "r0.c0 = r1.c2");
        let a = AggExpr {
            func: AggFunc::Count,
            column: None,
        };
        assert_eq!(a.to_string(), "COUNT(*)");
    }
}
