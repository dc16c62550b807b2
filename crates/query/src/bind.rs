//! Binding: parsed SQL → query graph.

use crate::error::QueryError;
use crate::graph::{QueryGraph, RelId, Relation};
use crate::predicate::{AggExpr, BoundColumn, JoinEdge, Lit, Selection};
use crate::sql::{ColumnName, SelectItem, SelectStmt, WherePred};
use hfqo_storage::catalog::{Catalog, ColumnType};
use std::collections::HashMap;

/// Binds a parsed SELECT against a catalog, producing a [`QueryGraph`].
///
/// Performs alias resolution, column resolution, and comparison type
/// checking (numeric with numeric, text with text).
pub fn bind_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<QueryGraph, QueryError> {
    if stmt.from.len() > 64 {
        return Err(QueryError::TooManyRelations(stmt.from.len()));
    }

    // Resolve FROM.
    let mut relations = Vec::with_capacity(stmt.from.len());
    let mut by_alias: HashMap<&str, RelId> = HashMap::with_capacity(stmt.from.len());
    for (i, tref) in stmt.from.iter().enumerate() {
        let table = catalog.table_by_name(&tref.table)?;
        if by_alias
            .insert(tref.alias.as_str(), RelId(i as u32))
            .is_some()
        {
            return Err(QueryError::DuplicateAlias(tref.alias.clone()));
        }
        relations.push(Relation {
            table,
            alias: tref.alias.clone(),
        });
    }

    let resolve = |name: &ColumnName| -> Result<(BoundColumn, ColumnType), QueryError> {
        let rel = *by_alias
            .get(name.qualifier.as_str())
            .ok_or_else(|| QueryError::UnknownAlias(name.qualifier.clone()))?;
        let table = relations[rel.index()].table;
        let column = catalog.resolve_column(table, &name.column)?;
        let ty = catalog
            .table(table)?
            .column(column)
            .expect("resolved column exists")
            .ty();
        Ok((BoundColumn::new(rel, column), ty))
    };

    // Resolve WHERE.
    let mut joins = Vec::new();
    let mut selections = Vec::new();
    for pred in &stmt.predicates {
        match pred {
            WherePred::ColCol { left, op, right } => {
                let (lcol, lty) = resolve(left)?;
                let (rcol, rty) = resolve(right)?;
                check_types(lty, rty, || format!("{left} vs {right}"))?;
                if lcol.rel == rcol.rel {
                    // Same-relation column comparison: treat as a selection
                    // the estimator handles with default selectivity. The
                    // workloads do not produce these, but binding must not
                    // mis-classify them as joins.
                    return Err(QueryError::TypeMismatch(format!(
                        "self-comparison `{left} {} {right}` within one relation \
                         is not supported",
                        op.sql()
                    )));
                }
                // Normalise edge orientation: lower relation id on the left.
                let (l, o, r) = if lcol.rel <= rcol.rel {
                    (lcol, *op, rcol)
                } else {
                    (rcol, op.flipped(), lcol)
                };
                joins.push(JoinEdge {
                    left: l,
                    op: o,
                    right: r,
                });
            }
            WherePred::ColLit { left, op, lit } => {
                let (col, ty) = resolve(left)?;
                let lit: Lit = lit.clone().into();
                let lit_ty = match lit {
                    Lit::Int(_) => ColumnType::Int,
                    Lit::Float(_) => ColumnType::Float,
                    Lit::Str(_) => ColumnType::Text,
                };
                check_types(ty, lit_ty, || format!("{left} vs literal {lit}"))?;
                selections.push(Selection {
                    column: col,
                    op: *op,
                    value: lit,
                });
            }
        }
    }

    // Resolve select list and GROUP BY.
    let mut aggregates = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard | SelectItem::Column(_) => {
                // Plain projections do not affect optimization decisions in
                // this engine; columns are still validated.
                if let SelectItem::Column(c) = item {
                    resolve(c)?;
                }
            }
            SelectItem::Aggregate { func, column } => {
                let column = match column {
                    Some(c) => Some(resolve(c)?.0),
                    None => None,
                };
                aggregates.push(AggExpr {
                    func: *func,
                    column,
                });
            }
        }
    }
    let mut group_by = Vec::with_capacity(stmt.group_by.len());
    for c in &stmt.group_by {
        group_by.push(resolve(c)?.0);
    }

    Ok(QueryGraph::new(
        relations, joins, selections, aggregates, group_by,
    ))
}

/// `ctx` names the comparison for the error message; it is built only
/// on a mismatch, so a predicate that type-checks formats nothing.
fn check_types(
    a: ColumnType,
    b: ColumnType,
    ctx: impl FnOnce() -> String,
) -> Result<(), QueryError> {
    let numeric = |t: ColumnType| matches!(t, ColumnType::Int | ColumnType::Float);
    let compatible = (numeric(a) && numeric(b)) || (a == ColumnType::Text && b == ColumnType::Text);
    if compatible {
        Ok(())
    } else {
        Err(QueryError::TypeMismatch(format!(
            "cannot compare {} with {} ({})",
            a.name(),
            b.name(),
            ctx()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_select;
    use hfqo_storage::catalog::{Column, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(TableSchema::new(
            "title",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("year", ColumnType::Int),
                Column::new("name", ColumnType::Text),
            ],
        ))
        .unwrap();
        c.add_table(TableSchema::new(
            "cast_info",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("movie_id", ColumnType::Int),
                Column::new("note", ColumnType::Text),
            ],
        ))
        .unwrap();
        c
    }

    fn bind(sql: &str) -> Result<QueryGraph, QueryError> {
        bind_select(&parse_select(sql).unwrap(), &catalog())
    }

    #[test]
    fn binds_join_query() {
        let g = bind(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.year > 1990 AND ci.note = 'actor'",
        )
        .unwrap();
        assert_eq!(g.relation_count(), 2);
        assert_eq!(g.joins().len(), 1);
        assert_eq!(g.selections().len(), 2);
        assert_eq!(g.aggregates().len(), 1);
        // Edge is normalised with the lower rel on the left.
        assert_eq!(g.joins()[0].left.rel, RelId(0));
        assert_eq!(g.joins()[0].right.rel, RelId(1));
    }

    #[test]
    fn normalises_reversed_edge() {
        let g = bind("SELECT * FROM title t, cast_info ci WHERE ci.movie_id = t.id").unwrap();
        assert_eq!(g.joins()[0].left.rel, RelId(0));
    }

    #[test]
    fn self_join_aliases_are_distinct_relations() {
        let g = bind("SELECT * FROM cast_info a, cast_info b WHERE a.id = b.movie_id").unwrap();
        assert_eq!(g.relation_count(), 2);
        assert_eq!(g.relation(RelId(0)).table, g.relation(RelId(1)).table);
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(matches!(
            bind("SELECT * FROM title t, cast_info t"),
            Err(QueryError::DuplicateAlias(_))
        ));
    }

    #[test]
    fn unknown_alias_rejected() {
        assert!(matches!(
            bind("SELECT * FROM title t WHERE x.id = 3"),
            Err(QueryError::UnknownAlias(_))
        ));
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(matches!(
            bind("SELECT * FROM title t WHERE t.nope = 3"),
            Err(QueryError::Catalog(_))
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(matches!(
            bind("SELECT * FROM title t WHERE t.name > 3"),
            Err(QueryError::TypeMismatch(_))
        ));
        assert!(matches!(
            bind("SELECT * FROM title t, cast_info ci WHERE t.year = ci.note"),
            Err(QueryError::TypeMismatch(_))
        ));
    }

    #[test]
    fn same_relation_comparison_rejected() {
        assert!(bind("SELECT * FROM title t WHERE t.id = t.year").is_err());
    }

    #[test]
    fn group_by_binds() {
        let g = bind(
            "SELECT MIN(t.year) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id GROUP BY t.name",
        )
        .unwrap();
        assert_eq!(g.group_by().len(), 1);
        assert_eq!(g.aggregates()[0].func, crate::sql::AggFunc::Min);
    }
}
