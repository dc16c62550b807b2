//! Parameterised synthetic databases and queries.
//!
//! Used where the experiments need precise control over query size and
//! shape: the planning-time sweep of Figure 3c (4–17 relations), the
//! §5.3.2 relations curriculum (which needs 1-, 2-, 3-relation queries —
//! rare in real workloads, as the paper notes), and property tests.

use hfqo_catalog::{Catalog, Column, ColumnId, ColumnType, IndexKind, TableId};
use hfqo_query::{BoundColumn, JoinEdge, Lit, QueryGraph, RelId, Relation, Selection};
use hfqo_sql::CompareOp;
use hfqo_stats::{build_database_stats, StatsCatalog};
use hfqo_storage::{ColumnGen, Database, Distribution, TableGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Join-graph shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `t0 – t1 – … – t_{n-1}`.
    Chain,
    /// `t0` joined with every other relation.
    Star,
    /// A chain closed into a cycle.
    Cycle,
}

/// Configuration for the synthetic database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthConfig {
    /// Number of tables generated (max query size).
    pub tables: usize,
    /// Rows per table.
    pub rows: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            tables: 17,
            rows: 2_000,
            seed: 0x5F,
        }
    }
}

/// A synthetic database: `tables` identical-schema tables
/// `s{i}(id, fk, val)`, where `fk` is zipf-distributed over the id range
/// (so any pair of tables can be equi-joined on `id = fk`).
pub struct SynthDb {
    /// The database.
    pub db: Database,
    /// Its statistics.
    pub stats: StatsCatalog,
    config: SynthConfig,
}

impl SynthDb {
    /// Generates the database.
    pub fn build(config: SynthConfig) -> Self {
        assert!(config.tables >= 1);
        let mut cat = Catalog::new();
        for i in 0..config.tables {
            let schema = hfqo_catalog::TableSchema::new(
                format!("s{i}"),
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("fk", ColumnType::Int),
                    Column::new("val", ColumnType::Int),
                ],
            )
            .with_primary_key(ColumnId(0));
            let t = cat.add_table(schema).expect("unique names");
            cat.add_index(format!("s{i}_pk"), t, ColumnId(0), IndexKind::BTree, true)
                .expect("unique index names");
        }
        let mut db = Database::new(cat);
        let mut rng = StdRng::seed_from_u64(config.seed);
        for i in 0..config.tables {
            let tid = TableId(i as u32);
            let schema = db.catalog().table(tid).expect("exists").clone();
            let table = TableGen {
                columns: vec![
                    ColumnGen::new(Distribution::Sequential),
                    ColumnGen::new(Distribution::FkZipf {
                        target_rows: config.rows as u64,
                        s: 0.6 + 0.05 * (i % 5) as f64,
                    }),
                    ColumnGen::new(Distribution::Zipf { n: 200, s: 1.0 }),
                ],
                rows: config.rows,
            }
            .generate(&schema, &mut rng)
            .expect("matches schema");
            db.load_table(tid, table).expect("schema matches");
        }
        db.build_indexes().expect("valid indexes");
        let stats = build_database_stats(&db);
        Self { db, stats, config }
    }

    /// The configuration used.
    pub fn config(&self) -> SynthConfig {
        self.config
    }

    /// Builds an `n`-relation query of the given shape, with one range
    /// selection per `sel_every` relations. `seed` varies constants.
    pub fn query(&self, shape: Shape, n: usize, sel_every: usize, seed: u64) -> QueryGraph {
        assert!(n >= 1 && n <= self.config.tables);
        let mut rng = StdRng::seed_from_u64(seed);
        let relations: Vec<Relation> = (0..n)
            .map(|i| Relation {
                table: TableId(i as u32),
                alias: format!("s{i}"),
            })
            .collect();
        let mut joins = Vec::new();
        let edge = |a: usize, b: usize| JoinEdge {
            // a.id = b.fk, normalised to lower rel on the left.
            left: BoundColumn::new(RelId(a.min(b) as u32), ColumnId(if a < b { 0 } else { 1 })),
            op: CompareOp::Eq,
            right: BoundColumn::new(RelId(a.max(b) as u32), ColumnId(if a < b { 1 } else { 0 })),
        };
        match shape {
            Shape::Chain => {
                for i in 1..n {
                    joins.push(edge(i - 1, i));
                }
            }
            Shape::Star => {
                for i in 1..n {
                    joins.push(edge(0, i));
                }
            }
            Shape::Cycle => {
                for i in 1..n {
                    joins.push(edge(i - 1, i));
                }
                if n > 2 {
                    joins.push(edge(n - 1, 0));
                }
            }
        }
        let mut selections = Vec::new();
        if sel_every > 0 {
            for i in (0..n).step_by(sel_every) {
                selections.push(Selection {
                    column: BoundColumn::new(RelId(i as u32), ColumnId(2)),
                    op: CompareOp::Lt,
                    value: Lit::Int(rng.gen_range(20..150)),
                });
            }
        }
        QueryGraph::new(relations, joins, selections, vec![], vec![])
            .with_label(format!("{shape:?}{n}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SynthDb {
        SynthDb::build(SynthConfig {
            tables: 8,
            rows: 300,
            seed: 1,
        })
    }

    #[test]
    fn database_builds() {
        let s = db();
        assert_eq!(s.db.catalog().table_count(), 8);
        assert_eq!(s.stats.table(TableId(3)).row_count, 300.0);
    }

    #[test]
    fn shapes_have_expected_edges() {
        let s = db();
        let chain = s.query(Shape::Chain, 5, 2, 0);
        assert_eq!(chain.joins().len(), 4);
        assert!(chain.is_connected(chain.all_rels()));
        let star = s.query(Shape::Star, 5, 0, 0);
        assert_eq!(star.joins().len(), 4);
        assert_eq!(star.neighbor_masks()[0].len(), 4);
        let cycle = s.query(Shape::Cycle, 5, 1, 0);
        assert_eq!(cycle.joins().len(), 5);
    }

    #[test]
    fn selections_spacing() {
        let s = db();
        let q = s.query(Shape::Chain, 6, 2, 0);
        assert_eq!(q.selections().len(), 3); // relations 0, 2, 4
        let q0 = s.query(Shape::Chain, 6, 0, 0);
        assert!(q0.selections().is_empty());
    }

    #[test]
    fn single_relation_query_allowed() {
        let s = db();
        let q = s.query(Shape::Chain, 1, 1, 0);
        assert_eq!(q.relation_count(), 1);
        assert!(q.joins().is_empty());
    }

    #[test]
    fn label_and_determinism() {
        let s = db();
        let a = s.query(Shape::Star, 4, 1, 9);
        let b = s.query(Shape::Star, 4, 1, 9);
        assert_eq!(a, b);
        assert_eq!(a.label.as_deref(), Some("Star4"));
        let c = s.query(Shape::Star, 4, 1, 10);
        assert_ne!(a, c);
    }
}
