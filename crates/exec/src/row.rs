//! Rows and the layout that maps bound columns to row slots.

use hfqo_query::{BoundColumn, Lit, PlanNode, QueryGraph, RelId};
use hfqo_storage::catalog::Catalog;
use hfqo_storage::Value;

/// A materialised row: the concatenated column values of every relation in
/// the producing subplan, in the subplan's leaf order.
pub type Row = Vec<Value>;

/// Maps `(relation, column)` to a slot in rows produced by a plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `(relation, starting offset, arity)` per leaf, in leaf order.
    entries: Vec<(RelId, usize, usize)>,
    /// Total row width.
    width: usize,
}

impl Layout {
    /// Layout of rows produced by `node` (leaf order, full table arity per
    /// relation — the engine does not project early).
    pub(crate) fn for_node(node: &PlanNode, graph: &QueryGraph, catalog: &Catalog) -> Self {
        let mut entries = Vec::new();
        let mut offset = 0usize;
        collect(node, graph, catalog, &mut entries, &mut offset);
        Layout {
            entries,
            width: offset,
        }
    }

    /// Layout for a single relation.
    pub(crate) fn for_rel(rel: RelId, graph: &QueryGraph, catalog: &Catalog) -> Self {
        let arity = catalog
            .table(graph.relation(rel).table)
            .map(|t| t.arity())
            .unwrap_or(0);
        Layout {
            entries: vec![(rel, 0, arity)],
            width: arity,
        }
    }

    /// Concatenation of two layouts (left then right), as produced by a
    /// join node.
    pub fn concat(&self, right: &Layout) -> Layout {
        let mut entries = self.entries.clone();
        entries.extend(
            right
                .entries
                .iter()
                .map(|(rel, off, ar)| (*rel, off + self.width, *ar)),
        );
        Layout {
            entries,
            width: self.width + right.width,
        }
    }

    /// Slot of a bound column, if its relation is in this layout.
    #[inline]
    pub fn slot(&self, col: BoundColumn) -> Option<usize> {
        self.entries.iter().find_map(|(rel, off, ar)| {
            (*rel == col.rel && col.column.index() < *ar).then(|| off + col.column.index())
        })
    }

    /// Total number of slots.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Relations covered, in leaf order.
    pub fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.entries.iter().map(|(rel, _, _)| *rel)
    }
}

fn collect(
    node: &PlanNode,
    graph: &QueryGraph,
    catalog: &Catalog,
    entries: &mut Vec<(RelId, usize, usize)>,
    offset: &mut usize,
) {
    match node {
        PlanNode::Scan { rel, .. } => {
            let arity = catalog
                .table(graph.relation(*rel).table)
                .map(|t| t.arity())
                .unwrap_or(0);
            entries.push((*rel, *offset, arity));
            *offset += arity;
        }
        PlanNode::Join { left, right, .. } => {
            collect(left, graph, catalog, entries, offset);
            collect(right, graph, catalog, entries, offset);
        }
        PlanNode::Aggregate { input, .. } => collect(input, graph, catalog, entries, offset),
    }
}

/// Converts a predicate literal into a runtime value.
pub(crate) fn lit_to_value(lit: &Lit) -> Value {
    match lit {
        Lit::Int(v) => Value::Int(*v),
        Lit::Float(v) => Value::Float(*v),
        Lit::Str(s) => Value::str(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::{AccessPath, Relation};
    use hfqo_storage::catalog::{Column, ColumnId, ColumnType, TableSchema};

    fn setup() -> (Catalog, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![
                    Column::new("x", ColumnType::Int),
                    Column::new("y", ColumnType::Int),
                ],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![Column::new("z", ColumnType::Int)],
            ))
            .unwrap();
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![],
            vec![],
            vec![],
            vec![],
        );
        (cat, graph)
    }

    #[test]
    fn join_layout_concatenates() {
        let (cat, graph) = setup();
        let node = PlanNode::Join {
            algo: hfqo_query::JoinAlgo::NestedLoop,
            conds: vec![],
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::SeqScan,
            }),
            right: Box::new(PlanNode::Scan {
                rel: RelId(1),
                path: AccessPath::SeqScan,
            }),
        };
        let layout = Layout::for_node(&node, &graph, &cat);
        assert_eq!(layout.width(), 3);
        assert_eq!(
            layout.slot(BoundColumn::new(RelId(0), ColumnId(1))),
            Some(1)
        );
        assert_eq!(
            layout.slot(BoundColumn::new(RelId(1), ColumnId(0))),
            Some(2)
        );
        assert_eq!(layout.slot(BoundColumn::new(RelId(1), ColumnId(5))), None);
        assert_eq!(
            layout.relations().collect::<Vec<_>>(),
            vec![RelId(0), RelId(1)]
        );
    }

    #[test]
    fn concat_matches_join_order() {
        let (cat, graph) = setup();
        let la = Layout::for_rel(RelId(0), &graph, &cat);
        let lb = Layout::for_rel(RelId(1), &graph, &cat);
        let ba = lb.concat(&la);
        assert_eq!(ba.slot(BoundColumn::new(RelId(1), ColumnId(0))), Some(0));
        assert_eq!(ba.slot(BoundColumn::new(RelId(0), ColumnId(0))), Some(1));
    }

    #[test]
    fn lit_conversion() {
        assert_eq!(lit_to_value(&Lit::Int(3)), Value::Int(3));
        assert_eq!(lit_to_value(&Lit::Float(0.5)), Value::Float(0.5));
        assert_eq!(lit_to_value(&Lit::Str("s".into())), Value::str("s"));
    }
}
