//! Per-node projections: which columns each plan node's output carries.
//!
//! A `Projection` is the ordered set of bound columns a plan node
//! outputs. The evaluator ([`crate::parallel`]) computes one per node
//! from the columns the query graph references *above* that node:
//!
//! * the facade's required output (every column for a plain query, the
//!   `GROUP BY` keys plus aggregate inputs for an aggregated one, none
//!   for pure counting runs such as the true-cardinality oracle),
//! * plus, at every join, the columns of the join conditions applied
//!   there (pushed down to the inputs, dropped again immediately above
//!   the join when nothing else references them).
//!
//! Projection order is always *leaf order, column-id order within a
//! leaf*, so a fully-required projection is slot-identical to the row
//! engine's [`Layout`](crate::row::Layout) and the two engines emit rows
//! with identical column ordering.

use hfqo_query::{BoundColumn, QueryGraph, RelId};
use hfqo_storage::catalog::{Catalog, ColumnType};
use hfqo_storage::Database;

/// The ordered set of `(relation, column)` pairs a plan node outputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Projection {
    cols: Vec<BoundColumn>,
}

impl Projection {
    /// A projection over the given columns (caller fixes the order).
    pub fn new(cols: Vec<BoundColumn>) -> Self {
        Self { cols }
    }

    /// The projected columns, in output order.
    pub fn columns(&self) -> &[BoundColumn] {
        &self.cols
    }

    /// Number of projected columns.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// The output slot of a bound column, if projected.
    #[inline]
    pub fn slot(&self, col: BoundColumn) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// The storage types of the projected columns.
    pub(crate) fn column_types(&self, graph: &QueryGraph, catalog: &Catalog) -> Vec<ColumnType> {
        self.cols
            .iter()
            .map(|c| {
                catalog
                    .table(graph.relation(c.rel).table)
                    .ok()
                    .and_then(|t| t.column(c.column))
                    .map(|col| col.ty())
                    // Unknown columns cannot be read; Int keeps the chunk
                    // well-formed until validation rejects the plan.
                    .unwrap_or(ColumnType::Int)
            })
            .collect()
    }
}

/// An unordered set of bound columns (small; stored as a vector to avoid
/// requiring `Ord` on [`BoundColumn`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ColSet {
    cols: Vec<BoundColumn>,
}

impl ColSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a column.
    pub fn insert(&mut self, col: BoundColumn) {
        if !self.cols.contains(&col) {
            self.cols.push(col);
        }
    }

    /// Membership test.
    pub fn contains(&self, col: BoundColumn) -> bool {
        self.cols.contains(&col)
    }

    /// A copy with `extra` added.
    pub fn with(&self, extra: impl IntoIterator<Item = BoundColumn>) -> Self {
        let mut s = self.clone();
        for c in extra {
            s.insert(c);
        }
        s
    }
}

/// Every column of every relation in `graph` — the facade's required set
/// for plain (non-aggregated) queries, which makes the evaluator's
/// output column-identical to the row engine's.
pub(crate) fn all_columns(graph: &QueryGraph, db: &Database) -> ColSet {
    let mut set = ColSet::new();
    for (i, rel) in graph.relations().iter().enumerate() {
        let arity = db
            .catalog()
            .table(rel.table)
            .map(|t| t.arity())
            .unwrap_or(0);
        for c in 0..arity {
            set.insert(BoundColumn::new(
                RelId(i as u32),
                hfqo_storage::catalog::ColumnId(c as u32),
            ));
        }
    }
    set
}

/// The required set for an aggregation input: `GROUP BY` keys plus
/// aggregate input columns.
pub(crate) fn aggregate_inputs(graph: &QueryGraph) -> ColSet {
    let mut set = ColSet::new();
    for c in graph.group_by() {
        set.insert(*c);
    }
    for a in graph.aggregates() {
        if let Some(c) = a.column {
            set.insert(c);
        }
    }
    set
}

/// A scan's output projection: the required columns of `rel`, in
/// column-id order.
pub(crate) fn scan_projection(
    graph: &QueryGraph,
    db: &Database,
    rel: RelId,
    required: &ColSet,
) -> Projection {
    let arity = db
        .catalog()
        .table(graph.relation(rel).table)
        .map(|t| t.arity())
        .unwrap_or(0);
    let cols = (0..arity)
        .map(|c| BoundColumn::new(rel, hfqo_storage::catalog::ColumnId(c as u32)))
        .filter(|&c| required.contains(c))
        .collect();
    Projection::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::Relation;
    use hfqo_storage::catalog::{Column, ColumnId, TableSchema};

    #[test]
    fn projection_slots_and_types() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(TableSchema::new(
                "t",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("b", ColumnType::Text),
                ],
            ))
            .unwrap();
        let graph = QueryGraph::new(
            vec![Relation {
                table: t,
                alias: "t".into(),
            }],
            vec![],
            vec![],
            vec![],
            vec![],
        );
        let a = BoundColumn::new(RelId(0), ColumnId(0));
        let b = BoundColumn::new(RelId(0), ColumnId(1));
        let p = Projection::new(vec![b, a]);
        assert_eq!(p.width(), 2);
        assert_eq!(p.slot(b), Some(0));
        assert_eq!(p.slot(a), Some(1));
        assert_eq!(
            p.column_types(&graph, &cat),
            vec![ColumnType::Text, ColumnType::Int]
        );
        assert_eq!(p.slot(BoundColumn::new(RelId(1), ColumnId(0))), None);
    }

    #[test]
    fn colset_deduplicates() {
        let c = BoundColumn::new(RelId(0), ColumnId(0));
        let mut s = ColSet::new();
        s.insert(c);
        s.insert(c);
        assert!(s.contains(c));
        let s2 = s.with([BoundColumn::new(RelId(1), ColumnId(2)), c]);
        assert!(s2.contains(BoundColumn::new(RelId(1), ColumnId(2))));
        assert!(!s.contains(BoundColumn::new(RelId(1), ColumnId(2))));
    }
}
