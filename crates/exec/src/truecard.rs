//! Execution-backed true cardinalities.

use crate::error::ExecError;
use crate::executor::ExecConfig;
use hfqo_query::sql::CompareOp;
use hfqo_query::{AccessPath, JoinAlgo, PhysicalPlan, PlanNode, QueryGraph, RelId, RelSet};
use hfqo_stats::CardinalitySource;
use hfqo_storage::Database;
use std::cell::RefCell;
use std::collections::HashMap;

/// A [`CardinalitySource`] that *executes* sub-joins to count their true
/// output sizes, memoising per relation subset.
///
/// One oracle is bound to one query: construct it per [`QueryGraph`] (the
/// memo is keyed by [`RelSet`], which is only meaningful within a single
/// query). Counting plans are built greedily along join edges and run with
/// a work budget; a subset whose true size busts the budget reports the
/// budget itself — a deliberate floor that keeps catastrophic plans
/// looking catastrophic without unbounded counting work.
/// The memo's `RefCell` makes the oracle `Send` but **not** `Sync`:
/// each training worker owns its own oracle over the shared (`Sync`)
/// `Database`, which is exactly the sharing model the parallel trainer
/// uses.
pub struct TrueCardinality<'a> {
    db: &'a Database,
    config: ExecConfig,
    cache: RefCell<HashMap<RelSet, f64>>,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TrueCardinality<'static>>();
};

impl<'a> TrueCardinality<'a> {
    /// Creates an oracle for queries against `db`.
    ///
    /// Uses a 1M-unit counting budget: tight enough that a catastrophic
    /// subset aborts in milliseconds (reporting the budget as a floor),
    /// generous enough that every sane sub-join at experiment scales
    /// counts exactly.
    pub fn new(db: &'a Database) -> Self {
        Self {
            db,
            config: ExecConfig::with_budget(1_000_000),
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Overrides the counting budget.
    pub fn with_config(db: &'a Database, config: ExecConfig) -> Self {
        Self {
            db,
            config,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Number of memoised subsets.
    #[cfg(test)]
    fn cached_subsets(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Builds a counting plan for `set`: a left-deep tree joined greedily
    /// along join edges (hash joins where an equality edge exists, nested
    /// loops otherwise).
    fn counting_plan(&self, graph: &QueryGraph, set: RelSet) -> PhysicalPlan {
        let mut remaining: Vec<RelId> = set.iter().collect();
        // Start from the relation with the most selections (cheap side).
        let first = remaining[0];
        let mut covered = RelSet::single(first);
        remaining.retain(|&r| r != first);
        let mut node = PlanNode::Scan {
            rel: first,
            path: AccessPath::SeqScan,
        };
        while !remaining.is_empty() {
            // Prefer a relation connected to the covered set.
            let pos = remaining
                .iter()
                .position(|&r| graph.sets_connected(covered, RelSet::single(r)))
                .unwrap_or(0);
            let next = remaining.remove(pos);
            let conds = graph.joins_between(covered, RelSet::single(next));
            let has_eq = conds.iter().any(|&c| graph.joins()[c].op == CompareOp::Eq);
            let algo = if has_eq {
                JoinAlgo::Hash
            } else {
                JoinAlgo::NestedLoop
            };
            node = PlanNode::Join {
                algo,
                conds,
                left: Box::new(node),
                right: Box::new(PlanNode::Scan {
                    rel: next,
                    path: AccessPath::SeqScan,
                }),
            };
            covered.insert(next);
        }
        PhysicalPlan::new(node)
    }

    fn count(&self, graph: &QueryGraph, set: RelSet) -> f64 {
        if let Some(&v) = self.cache.borrow().get(&set) {
            return v;
        }
        let plan = self.counting_plan(graph, set);
        let rows = match self.count_unvalidated(graph, &plan) {
            Ok(n) => n,
            Err(ExecError::BudgetExceeded { budget, .. }) => budget as f64,
            Err(_) => 0.0,
        };
        self.cache.borrow_mut().insert(set, rows);
        rows
    }

    fn count_unvalidated(&self, graph: &QueryGraph, plan: &PhysicalPlan) -> Result<f64, ExecError> {
        // Subset plans are structurally valid by construction (each
        // relation scanned once, conditions span inputs), so bypass the
        // full-coverage validation `execute` performs. Counting runs
        // through the same evaluator with an *empty* required column
        // set: only join-condition columns flow, and no output is ever
        // materialised — the oracle just reads the root's row count.
        let (rows, _work) =
            crate::executor::count_rows_unvalidated(self.db, graph, plan, self.config)?;
        Ok(rows as f64)
    }
}

impl CardinalitySource for TrueCardinality<'_> {
    fn base_rows(&self, graph: &QueryGraph, rel: RelId) -> f64 {
        self.count(graph, RelSet::single(rel)).max(0.0)
    }

    fn set_rows(&self, graph: &QueryGraph, set: RelSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        self.count(graph, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::{BoundColumn, JoinEdge, Lit, Relation, Selection};
    use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType, TableSchema};
    use hfqo_storage::Value;

    /// dim: 10 rows; fact: 100 rows, fk = i % 10; selection keeps half of
    /// dim. A third table, tag (70 rows, nullable fact_id hitting every
    /// third fact id twice), is loaded but outside the graph.
    fn setup() -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let dim = cat
            .add_table(TableSchema::new(
                "dim",
                vec![Column::new("id", ColumnType::Int)],
            ))
            .unwrap();
        let fact = cat
            .add_table(TableSchema::new(
                "fact",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("dim_id", ColumnType::Int),
                ],
            ))
            .unwrap();
        let tag = cat
            .add_table(TableSchema::new(
                "tag",
                vec![Column::nullable("fact_id", ColumnType::Int)],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for i in 0..10i64 {
            db.table_mut(dim)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
        }
        for i in 0..70i64 {
            let fact_id = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i / 2 * 3)
            };
            db.table_mut(tag).unwrap().append_row(&[fact_id]).unwrap();
        }
        for i in 0..100i64 {
            db.table_mut(fact)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: dim,
                    alias: "d".into(),
                },
                Relation {
                    table: fact,
                    alias: "f".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(1)),
            }],
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Lt,
                value: Lit::Int(5),
            }],
            vec![],
            vec![],
        );
        (db, graph)
    }

    #[test]
    fn base_rows_are_exact() {
        let (db, graph) = setup();
        let oracle = TrueCardinality::new(&db);
        assert_eq!(oracle.base_rows(&graph, RelId(0)), 5.0);
        assert_eq!(oracle.base_rows(&graph, RelId(1)), 100.0);
    }

    #[test]
    fn join_rows_are_exact() {
        let (db, graph) = setup();
        let oracle = TrueCardinality::new(&db);
        // 5 dims × 10 fact rows each.
        assert_eq!(oracle.set_rows(&graph, RelSet::full(2)), 50.0);
    }

    #[test]
    fn results_are_memoised() {
        let (db, graph) = setup();
        let oracle = TrueCardinality::new(&db);
        let _ = oracle.set_rows(&graph, RelSet::full(2));
        let n = oracle.cached_subsets();
        let _ = oracle.set_rows(&graph, RelSet::full(2));
        assert_eq!(oracle.cached_subsets(), n);
    }

    #[test]
    fn budget_caps_runaway_counts() {
        let (db, graph) = setup();
        let oracle = TrueCardinality::with_config(&db, ExecConfig::with_budget(20));
        let capped = oracle.set_rows(&graph, RelSet::full(2));
        assert_eq!(capped, 20.0);
    }

    /// Subset plans skip validation and enter the evaluator directly
    /// (connected or not — {dim, tag} is a cross join): every subset's
    /// count must equal the row oracle's count of the same counting
    /// plan, at any team size.
    #[test]
    fn subset_counts_match_row_oracle() {
        let (db, graph) = setup();
        // Add the `tag` relation so that proper subsets include joins.
        let tag = db.catalog().table_by_name("tag").unwrap();
        let mut relations = graph.relations().to_vec();
        relations.push(Relation {
            table: tag,
            alias: "t".into(),
        });
        let mut joins = graph.joins().to_vec();
        joins.push(JoinEdge {
            left: BoundColumn::new(RelId(1), ColumnId(0)),
            op: CompareOp::Eq,
            right: BoundColumn::new(RelId(2), ColumnId(0)),
        });
        let graph = QueryGraph::new(
            relations,
            joins,
            graph.selections().to_vec(),
            vec![],
            vec![],
        );

        for threads in [1, 4] {
            let config = ExecConfig::default().threads(threads).morsel_rows(8);
            let oracle = TrueCardinality::with_config(&db, config);
            for bits in 1u32..8 {
                let mut set = RelSet::EMPTY;
                for r in (0..3).filter(|r| bits & (1 << r) != 0) {
                    set.insert(RelId(r));
                }
                let plan = oracle.counting_plan(&graph, set);
                let mut budget = crate::ops::Budget::new(config.work_budget);
                let (rows, _) =
                    crate::rowexec::run_node(&db, &graph, &plan.root, &mut budget).unwrap();
                assert_eq!(
                    oracle.set_rows(&graph, set),
                    rows.len() as f64,
                    "{set:?} t={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_set_is_zero() {
        let (db, graph) = setup();
        let oracle = TrueCardinality::new(&db);
        assert_eq!(oracle.set_rows(&graph, RelSet::EMPTY), 0.0);
    }
}
