//! Shared fixtures for the optimizer's unit tests: small chain/star
//! databases with data, indexes, and statistics.

use hfqo_query::sql::CompareOp;
use hfqo_query::{BoundColumn, JoinEdge, Lit, QueryGraph, RelId, Relation, Selection};
use hfqo_stats::{build_database_stats, StatsCatalog};
use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType};
use hfqo_storage::{ColumnGen, Database, Distribution, TableGen};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated database plus its statistics.
pub struct TestDb {
    /// The database.
    pub db: Database,
    /// Statistics over its tables.
    pub stats: StatsCatalog,
}

impl TestDb {
    /// `n` tables in a chain: `t0(id, val)`, `t_i(id, fk→t_{i-1}, val)`.
    /// Every table has `rows` rows, a B-tree on `id`, and zipf-skewed
    /// `val`.
    pub fn chain(n: usize, rows: usize) -> Self {
        let mut cat = Catalog::new();
        for i in 0..n {
            let mut cols = vec![Column::new("id", ColumnType::Int)];
            if i > 0 {
                cols.push(Column::new("fk", ColumnType::Int));
            }
            cols.push(Column::new("val", ColumnType::Int));
            let t = cat
                .add_table(hfqo_storage::catalog::TableSchema::new(
                    format!("t{i}"),
                    cols,
                ))
                .expect("fresh name");
            cat.add_index(format!("t{i}_id"), t, ColumnId(0), true)
                .expect("fresh index");
        }
        let mut db = Database::new(cat);
        let mut rng = StdRng::seed_from_u64(7 + n as u64);
        for i in 0..n {
            let tid = hfqo_storage::catalog::TableId(i as u32);
            let mut columns = vec![ColumnGen::new(Distribution::Sequential)];
            if i > 0 {
                columns.push(ColumnGen::new(Distribution::FkZipf {
                    target_rows: rows as u64,
                    s: 0.8,
                }));
            }
            columns.push(ColumnGen::new(Distribution::Zipf { n: 100, s: 1.0 }));
            let schema = db.catalog().table(tid).expect("exists").clone();
            let table = TableGen { columns, rows }
                .generate(&schema, &mut rng)
                .expect("generator matches schema");
            db.load_table(tid, table).expect("schema matches");
        }
        db.build_indexes().expect("indexes valid");
        let stats = build_database_stats(&db);
        Self { db, stats }
    }

    /// A star: `t0` is the fact table with `n - 1` FK columns; tables
    /// `t1..t_{n-1}` are dimensions with `rows / 10` rows each.
    pub fn star(n: usize, rows: usize) -> Self {
        assert!(n >= 2);
        let dim_rows = (rows / 10).max(10);
        let mut cat = Catalog::new();
        let mut fact_cols = vec![Column::new("id", ColumnType::Int)];
        for d in 1..n {
            fact_cols.push(Column::new(format!("fk{d}"), ColumnType::Int));
        }
        fact_cols.push(Column::new("val", ColumnType::Int));
        let fact = cat
            .add_table(hfqo_storage::catalog::TableSchema::new("t0", fact_cols))
            .expect("fresh name");
        cat.add_index("t0_id", fact, ColumnId(0), true)
            .expect("fresh index");
        for d in 1..n {
            let t = cat
                .add_table(hfqo_storage::catalog::TableSchema::new(
                    format!("t{d}"),
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("val", ColumnType::Int),
                    ],
                ))
                .expect("fresh name");
            cat.add_index(format!("t{d}_id"), t, ColumnId(0), true)
                .expect("fresh index");
        }
        let mut db = Database::new(cat);
        let mut rng = StdRng::seed_from_u64(99 + n as u64);
        // Fact table.
        let mut fact_gens = vec![ColumnGen::new(Distribution::Sequential)];
        for _ in 1..n {
            fact_gens.push(ColumnGen::new(Distribution::FkZipf {
                target_rows: dim_rows as u64,
                s: 0.7,
            }));
        }
        fact_gens.push(ColumnGen::new(Distribution::Zipf { n: 50, s: 1.1 }));
        let schema = db.catalog().table(fact).expect("exists").clone();
        let table = TableGen {
            columns: fact_gens,
            rows,
        }
        .generate(&schema, &mut rng)
        .expect("generator matches schema");
        db.load_table(fact, table).expect("schema matches");
        // Dimensions.
        for d in 1..n {
            let tid = hfqo_storage::catalog::TableId(d as u32);
            let schema = db.catalog().table(tid).expect("exists").clone();
            let table = TableGen {
                columns: vec![
                    ColumnGen::new(Distribution::Sequential),
                    ColumnGen::new(Distribution::Zipf { n: 20, s: 1.0 }),
                ],
                rows: dim_rows,
            }
            .generate(&schema, &mut rng)
            .expect("generator matches schema");
            db.load_table(tid, table).expect("schema matches");
        }
        db.build_indexes().expect("indexes valid");
        let stats = build_database_stats(&db);
        Self { db, stats }
    }
}

/// A chain query over the first `n` tables of a [`TestDb::chain`]
/// database: `t0 ⋈ t1 ⋈ … ⋈ t_{n-1}` with one selection on `t0.val`.
pub fn chain_query(db: &TestDb, n: usize) -> QueryGraph {
    let _ = db;
    let relations = (0..n)
        .map(|i| Relation {
            table: hfqo_storage::catalog::TableId(i as u32),
            alias: format!("t{i}"),
        })
        .collect();
    let joins = (1..n)
        .map(|i| JoinEdge {
            left: BoundColumn::new(RelId(i as u32 - 1), ColumnId(0)),
            op: CompareOp::Eq,
            right: BoundColumn::new(RelId(i as u32), ColumnId(1)),
        })
        .collect();
    let val_col = |i: usize| if i == 0 { 1 } else { 2 };
    let selections = vec![Selection {
        column: BoundColumn::new(RelId(0), ColumnId(val_col(0))),
        op: CompareOp::Lt,
        value: Lit::Int(20),
    }];
    QueryGraph::new(relations, joins, selections, vec![], vec![])
}

/// `q` with a single `COUNT(*)` output appended (relations, joins,
/// selections, and grouping unchanged) — the aggregate shape most
/// executor and environment tests need.
pub fn with_count(q: QueryGraph) -> QueryGraph {
    let label = q.label.clone();
    let g = QueryGraph::new(
        q.relations().to_vec(),
        q.joins().to_vec(),
        q.selections().to_vec(),
        vec![hfqo_query::AggExpr {
            func: hfqo_query::sql::AggFunc::Count,
            column: None,
        }],
        q.group_by().to_vec(),
    );
    match label {
        Some(l) => g.with_label(l),
        None => g,
    }
}

/// A star query over a [`TestDb::star`] database: the fact table joined
/// with every dimension, with a selection on one dimension.
pub fn star_query(db: &TestDb, n: usize) -> QueryGraph {
    let _ = db;
    let relations = (0..n)
        .map(|i| Relation {
            table: hfqo_storage::catalog::TableId(i as u32),
            alias: format!("t{i}"),
        })
        .collect();
    let joins = (1..n)
        .map(|d| JoinEdge {
            left: BoundColumn::new(RelId(0), ColumnId(d as u32)),
            op: CompareOp::Eq,
            right: BoundColumn::new(RelId(d as u32), ColumnId(0)),
        })
        .collect();
    let selections = vec![Selection {
        column: BoundColumn::new(RelId(1), ColumnId(1)),
        op: CompareOp::Lt,
        value: Lit::Int(5),
    }];
    QueryGraph::new(relations, joins, selections, vec![], vec![])
}

/// A random query over `n` relations drawn, with repeats, from the
/// first three tables of a [`TestDb::chain`] fixture — so equal-cost ties
/// are common. Each pair is joined with probability `p`, by `=` or, one
/// time in four, by `<`, so a small `p` leaves the graph disconnected; a
/// few relations get a selection.
#[cfg(test)]
pub(crate) fn random_query(n: usize, p: f64, rng: &mut StdRng) -> QueryGraph {
    use rand::Rng;
    let relations = (0..n)
        .map(|i| Relation {
            table: hfqo_storage::catalog::TableId(rng.gen_range(0..3u32)),
            alias: format!("r{i}"),
        })
        .collect();
    let mut joins = Vec::new();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            if rng.gen_bool(p) {
                let op = if rng.gen_range(0..4) == 0 {
                    CompareOp::Lt
                } else {
                    CompareOp::Eq
                };
                joins.push(JoinEdge {
                    left: BoundColumn::new(RelId(a), ColumnId(0)),
                    op,
                    right: BoundColumn::new(RelId(b), ColumnId(1)),
                });
            }
        }
    }
    let mut selections = Vec::new();
    for rel in 0..n as u32 {
        if rng.gen_range(0..3) == 0 {
            selections.push(Selection {
                column: BoundColumn::new(RelId(rel), ColumnId(0)),
                op: CompareOp::Lt,
                value: Lit::Int(rng.gen_range(1..300)),
            });
        }
    }
    QueryGraph::new(relations, joins, selections, vec![], vec![])
}

/// A cardinality source that counts how often each set's rows are
/// asked for.
#[cfg(test)]
pub(crate) struct CountingCardinality<'a> {
    inner: hfqo_stats::EstimatedCardinality<'a>,
    pub(crate) asked: std::cell::RefCell<std::collections::HashMap<hfqo_query::RelSet, usize>>,
}

#[cfg(test)]
impl<'a> CountingCardinality<'a> {
    pub(crate) fn new(inner: hfqo_stats::EstimatedCardinality<'a>) -> Self {
        Self {
            inner,
            asked: Default::default(),
        }
    }
}

#[cfg(test)]
impl hfqo_stats::CardinalitySource for CountingCardinality<'_> {
    fn base_rows(&self, graph: &QueryGraph, rel: RelId) -> f64 {
        self.inner.base_rows(graph, rel)
    }

    fn set_rows(&self, graph: &QueryGraph, set: hfqo_query::RelSet) -> f64 {
        *self.asked.borrow_mut().entry(set).or_default() += 1;
        self.inner.set_rows(graph, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_fixture_is_consistent() {
        let t = TestDb::chain(3, 500);
        assert_eq!(t.db.catalog().table_count(), 3);
        assert_eq!(
            t.db.table(hfqo_storage::catalog::TableId(0))
                .unwrap()
                .row_count(),
            500
        );
        let q = chain_query(&t, 3);
        assert_eq!(q.relation_count(), 3);
        assert_eq!(q.joins().len(), 2);
        assert!(q.is_connected(q.all_rels()));
    }

    #[test]
    fn star_fixture_is_consistent() {
        let t = TestDb::star(4, 1000);
        assert_eq!(t.db.catalog().table_count(), 4);
        let q = star_query(&t, 4);
        assert_eq!(q.joins().len(), 3);
        assert!(q.is_connected(q.all_rels()));
    }
}
