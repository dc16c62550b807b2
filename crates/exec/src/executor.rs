//! The plan executor facade.
//!
//! [`execute`] runs a validated physical plan through the evaluator
//! (see [`crate::parallel`]) and materialises its output into rows for
//! the caller. The reference row engine remains available as
//! [`crate::rowexec::execute_rows`] with the same signature and
//! identical results and work totals.

use crate::error::ExecError;
use crate::ops::agg::agg_output_type;
use crate::parallel::{evaluate, Chunk};
use crate::row::{Layout, Row};
use crate::stages::Carry;
use hfqo_query::sql::AggFunc;
use hfqo_query::{BoundColumn, PhysicalPlan, PlanNode, QueryGraph};
use hfqo_storage::catalog::{Catalog, ColumnType};
use std::fmt;
use std::time::{Duration, Instant};

/// Execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum units of work (row visits + comparisons + emitted rows)
    /// before the execution aborts. This is the "timeout" that makes
    /// catastrophic plans cheap to observe instead of hour-long runs.
    pub work_budget: u64,
    /// Worker threads for intra-query parallelism. There is one
    /// evaluator ([`crate::parallel`]) with the row oracle
    /// ([`crate::rowexec`]) beside it: every stage runs on a team of up
    /// to `threads` workers, and `1` (the default) is the same code
    /// running inline on the calling thread. Results, row order and
    /// work totals are identical at any thread count. Worker teams are
    /// capped at the machine's available parallelism — oversubscribing
    /// cores only adds scheduling overhead.
    pub threads: usize,
    /// Rows per morsel — the unit of work a stage's workers claim. Any
    /// positive value yields identical results.
    pub morsel_rows: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        // Emitted rows count against the budget, so this also bounds
        // materialised memory (a few hundred MB worst case at typical row
        // widths) — large enough for every legitimate workload plan,
        // small enough that runaway cross joins abort quickly.
        Self {
            work_budget: 5_000_000,
            threads: 1,
            morsel_rows: 4096,
        }
    }
}

impl ExecConfig {
    /// A configuration with the given budget.
    pub fn with_budget(work_budget: u64) -> Self {
        Self {
            work_budget,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the morsel size in rows (clamped to at least 1).
    pub fn morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }
}

/// Statistics of one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Total units of work performed.
    pub work: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// One column of a query's output.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputColumn {
    /// A base-table column carried to the output.
    Column {
        /// The bound column.
        col: BoundColumn,
        /// `alias.column` rendering.
        name: String,
        /// Storage type.
        ty: ColumnType,
    },
    /// A computed aggregate value.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Input column (`None` for `COUNT(*)`).
        input: Option<BoundColumn>,
        /// `func(alias.column)` rendering.
        name: String,
        /// Storage type of the aggregate's value.
        ty: ColumnType,
    },
}

impl OutputColumn {
    /// The display name (`"f.val"`, `"count(*)"`, …).
    pub fn name(&self) -> &str {
        match self {
            OutputColumn::Column { name, .. } | OutputColumn::Aggregate { name, .. } => name,
        }
    }

    /// The column's storage type.
    pub fn ty(&self) -> ColumnType {
        match self {
            OutputColumn::Column { ty, .. } | OutputColumn::Aggregate { ty, .. } => *ty,
        }
    }
}

/// The real output schema of an executed plan: one entry per output row
/// slot. For aggregated queries this is the `GROUP BY` keys followed by
/// the aggregate values — the shape the row data actually has (the
/// historical `layout` field was meaningless there).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSchema {
    /// Output columns, in row slot order.
    pub columns: Vec<OutputColumn>,
}

impl OutputSchema {
    /// The schema `plan` produces over `graph`.
    pub(crate) fn for_plan(graph: &QueryGraph, catalog: &Catalog, plan: &PhysicalPlan) -> Self {
        let col_name = |c: BoundColumn| -> String {
            let rel = graph.relation(c.rel);
            let col = catalog
                .table(rel.table)
                .ok()
                .and_then(|t| t.column(c.column))
                .map(|col| col.name().to_string())
                .unwrap_or_else(|| format!("#{}", c.column.0));
            format!("{}.{}", rel.alias, col)
        };
        let col_ty = |c: BoundColumn| -> ColumnType {
            catalog
                .table(graph.relation(c.rel).table)
                .ok()
                .and_then(|t| t.column(c.column))
                .map(|col| col.ty())
                .unwrap_or(ColumnType::Int)
        };
        let columns = if matches!(plan.root, PlanNode::Aggregate { .. }) {
            let mut cols: Vec<OutputColumn> = graph
                .group_by()
                .iter()
                .map(|&c| OutputColumn::Column {
                    col: c,
                    name: col_name(c),
                    ty: col_ty(c),
                })
                .collect();
            cols.extend(graph.aggregates().iter().map(|a| {
                let func_name = match a.func {
                    AggFunc::Count => "count",
                    AggFunc::Sum => "sum",
                    AggFunc::Min => "min",
                    AggFunc::Max => "max",
                    AggFunc::Avg => "avg",
                };
                let name = match a.column {
                    Some(c) => format!("{func_name}({})", col_name(c)),
                    None => format!("{func_name}(*)"),
                };
                OutputColumn::Aggregate {
                    func: a.func,
                    input: a.column,
                    name,
                    ty: agg_output_type(a.func, a.column.map(col_ty)),
                }
            }));
            cols
        } else {
            // Non-aggregated plans output every column of every relation,
            // leaf order, column order — the row engine's layout.
            let layout = Layout::for_node(&plan.root, graph, catalog);
            let mut cols = Vec::with_capacity(layout.width());
            for rel in layout.relations() {
                let arity = catalog
                    .table(graph.relation(rel).table)
                    .map(|t| t.arity())
                    .unwrap_or(0);
                for i in 0..arity {
                    let c = BoundColumn::new(rel, hfqo_storage::catalog::ColumnId(i as u32));
                    cols.push(OutputColumn::Column {
                        col: c,
                        name: col_name(c),
                        ty: col_ty(c),
                    });
                }
            }
            cols
        };
        Self { columns }
    }
}

impl fmt::Display for OutputSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", c.name())?;
        }
        Ok(())
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Output rows, shaped as described by `schema`.
    pub rows: Vec<Row>,
    /// Layout of the *relational* output (leaf order, full arity). For
    /// aggregated plans the row shape is `schema`, not this — kept for
    /// callers that resolve bound columns on non-aggregated results.
    pub layout: Layout,
    /// The true output schema: base columns, or group keys + aggregate
    /// values for aggregated plans.
    pub schema: OutputSchema,
    /// Work and timing statistics.
    pub stats: ExecStats,
}

/// Executes a physical plan against a database with the vectorized
/// evaluator.
///
/// The plan is validated first; execution then either completes within
/// the work budget or aborts with [`ExecError::BudgetExceeded`]. Results
/// (row multisets) and work totals are identical to the reference row
/// engine ([`crate::rowexec::execute_rows`]); only the `work_done`
/// overshoot reported on abort and hash-group emission order may
/// differ.
pub fn execute(
    db: &hfqo_storage::Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    let start = Instant::now();
    // The evaluator's derivation pass makes `validate`'s checks.
    let carry = (Carry::Everything, true);
    let (rows, work) = evaluate(db, graph, &plan.root, carry, config, Chunk::to_rows)?;

    Ok(ExecOutcome {
        rows,
        layout: Layout::for_node(&plan.root, graph, db.catalog()),
        schema: OutputSchema::for_plan(graph, db.catalog(), plan),
        stats: ExecStats {
            work,
            elapsed: start.elapsed(),
        },
    })
}

/// Executes `plan` for its side observations only: returns the output
/// row count and the work performed, materialising nothing. The
/// evaluator carries zero columns beyond what joins and aggregates need
/// internally, and work charges are column-independent, so the work
/// total is identical to a full [`execute`]. Validates the plan like
/// [`execute`].
pub fn execute_for_stats(
    db: &hfqo_storage::Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
) -> Result<(usize, u64), ExecError> {
    let carry = (Carry::Nothing, true);
    evaluate(db, graph, &plan.root, carry, config, |out| out.rows)
}

/// [`execute_for_stats`] without the check that the plan covers the
/// whole graph: the true-cardinality oracle builds structurally-valid
/// subset plans. Every other check of `validate` is still made.
pub(crate) fn count_subplan_rows(
    db: &hfqo_storage::Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
) -> Result<(usize, u64), ExecError> {
    let carry = (Carry::Nothing, false);
    evaluate(db, graph, &plan.root, carry, config, |out| out.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowexec::execute_rows;
    use hfqo_query::sql::{AggFunc, CompareOp};
    use hfqo_query::{
        AccessPath, AggAlgo, AggExpr, BoundColumn, JoinAlgo, JoinEdge, Lit, RelId, Relation,
        Selection,
    };
    use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType, TableSchema};
    use hfqo_storage::{Database, Value};

    /// Two tables: dim (20 rows, pk) and fact (200 rows, fk = i % 20).
    fn setup() -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let dim = cat
            .add_table(TableSchema::new(
                "dim",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("attr", ColumnType::Int),
                ],
            ))
            .unwrap();
        let fact = cat
            .add_table(TableSchema::new(
                "fact",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("dim_id", ColumnType::Int),
                    Column::new("val", ColumnType::Int),
                ],
            ))
            .unwrap();
        cat.add_index("dim_id_idx", dim, ColumnId(0), true).unwrap();
        let mut db = Database::new(cat);
        for i in 0..20i64 {
            db.table_mut(dim)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 5)])
                .unwrap();
        }
        for i in 0..200i64 {
            db.table_mut(fact)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 20), Value::Int(i)])
                .unwrap();
        }
        db.build_indexes().unwrap();
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
                column: BoundColumn::new(RelId(0), ColumnId(1)),
                op: CompareOp::Eq,
                value: Lit::Int(0),
            }],
            vec![AggExpr {
                func: AggFunc::Count,
                column: None,
            }],
            vec![],
        );
        (db, graph)
    }

    fn scan_node(rel: u32) -> PlanNode {
        PlanNode::Scan {
            rel: RelId(rel),
            path: AccessPath::SeqScan,
        }
    }

    #[test]
    fn join_then_aggregate_counts_correctly() {
        let (db, graph) = setup();
        // dim.attr = 0 matches ids {0, 5, 10, 15}; each id has 10 fact rows.
        let plan = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(scan_node(1)),
                right: Box::new(scan_node(0)),
            }),
        });
        let out = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(40));
        assert!(out.stats.work > 0);
    }

    #[test]
    fn all_join_algorithms_give_same_count() {
        let (db, graph) = setup();
        let mut counts = Vec::new();
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge] {
            let plan = PhysicalPlan::new(PlanNode::Join {
                algo,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            });
            let out = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
            counts.push(out.rows.len());
        }
        assert_eq!(counts, vec![40, 40, 40]);
    }

    #[test]
    fn budget_aborts_bad_plans_quickly() {
        let (db, graph) = setup();
        let cross = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![],
            left: Box::new(scan_node(0)),
            right: Box::new(scan_node(1)),
        });
        // Cross product would need 4 * 200 = 800 comparisons at minimum.
        let err = execute(&db, &graph, &cross, ExecConfig::with_budget(300)).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }));
    }

    #[test]
    fn invalid_plans_rejected_before_running() {
        let (db, graph) = setup();
        let incomplete = PhysicalPlan::new(scan_node(0));
        assert!(matches!(
            execute(&db, &graph, &incomplete, ExecConfig::default()),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn index_scan_plan_executes() {
        let (db, mut graph) = setup();
        // Add a pk selection so the index has a driving predicate.
        graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Lt,
                value: Lit::Int(10),
            }],
            graph.aggregates().to_vec(),
            vec![],
        );
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::IndexScan {
                    index: hfqo_storage::catalog::IndexId(0),
                    driving_selection: 0,
                },
            }),
            right: Box::new(scan_node(1)),
        });
        let out = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        // 10 dim rows × 10 fact rows each.
        assert_eq!(out.rows.len(), 100);
    }

    #[test]
    fn execution_is_deterministic() {
        let (db, graph) = setup();
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Merge,
            conds: vec![0],
            left: Box::new(scan_node(0)),
            right: Box::new(scan_node(1)),
        });
        let a = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        let b = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.stats.work, b.stats.work);
    }

    #[test]
    fn evaluator_matches_row_engine_exactly() {
        let (db, graph) = setup();
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge] {
            let plan = PhysicalPlan::new(PlanNode::Join {
                algo,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            });
            let vect = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
            let rows = execute_rows(&db, &graph, &plan, ExecConfig::default()).unwrap();
            let mut b = vect.rows.clone();
            let mut r = rows.rows.clone();
            b.sort();
            r.sort();
            assert_eq!(b, r, "{algo:?} multiset");
            assert_eq!(vect.stats.work, rows.stats.work, "{algo:?} work");
            assert_eq!(vect.layout, rows.layout);
            assert_eq!(vect.schema, rows.schema);
        }
    }

    /// Two tables with nullable, string-typed join keys: a(k text?, v),
    /// b(k text?, w). NULLs on both sides; keys "x" (1×2) and "y" (1×1).
    fn null_setup() -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![
                    Column::nullable("k", ColumnType::Text),
                    Column::nullable("v", ColumnType::Int),
                ],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![
                    Column::nullable("k", ColumnType::Text),
                    Column::new("w", ColumnType::Int),
                ],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for row in [
            [Value::str("x"), Value::Int(1)],
            [Value::Null, Value::Int(2)],
            [Value::str("y"), Value::Null],
        ] {
            db.table_mut(a).unwrap().append_row(&row).unwrap();
        }
        for row in [
            [Value::str("x"), Value::Int(10)],
            [Value::str("x"), Value::Int(11)],
            [Value::Null, Value::Int(12)],
            [Value::str("y"), Value::Int(13)],
            [Value::str("z"), Value::Int(14)],
        ] {
            db.table_mut(b).unwrap().append_row(&row).unwrap();
        }
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
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    column: None,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    column: Some(BoundColumn::new(RelId(0), ColumnId(1))),
                },
            ],
            vec![],
        );
        (db, graph)
    }

    #[test]
    fn null_keys_never_match_in_any_join_algorithm() {
        let (db, graph) = null_setup();
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge] {
            let plan = PhysicalPlan::new(PlanNode::Join {
                algo,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            });
            let out = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
            // "x": 1×2, "y": 1×1; the NULLs on both sides match nothing.
            assert_eq!(out.rows.len(), 3, "{algo:?}");
            assert!(
                out.rows.iter().all(|r| !r[0].is_null() && !r[2].is_null()),
                "{algo:?} emitted a NULL-keyed match"
            );
            // And the row engine agrees bit-for-bit.
            let rows = execute_rows(&db, &graph, &plan, ExecConfig::default()).unwrap();
            let (mut bs, mut rs) = (out.rows.clone(), rows.rows.clone());
            bs.sort();
            rs.sort();
            assert_eq!(bs, rs, "{algo:?}");
            assert_eq!(out.stats.work, rows.stats.work, "{algo:?}");
            // As does a team of four, in exact row order — NULL
            // build/probe keys must stay unmatched when partitioned too.
            let cfg = ExecConfig::default().threads(4).morsel_rows(1);
            let par = execute(&db, &graph, &plan, cfg).unwrap();
            assert_eq!(par.rows, out.rows, "{algo:?} parallel");
            assert_eq!(par.stats.work, out.stats.work, "{algo:?} parallel work");
        }
    }

    #[test]
    fn aggregates_skip_null_inputs() {
        let (db, graph) = null_setup();
        let plan = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            }),
        });
        let out = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 1);
        // COUNT(*) counts all 3 joined rows; SUM(a.v) skips the NULL v
        // of the "y" row: 1 + 1 = 2.
        assert_eq!(out.rows[0][0], Value::Int(3));
        assert_eq!(out.rows[0][1], Value::Float(2.0));
    }

    #[test]
    fn unbuilt_index_surfaces_index_not_built() {
        let (db, mut graph) = setup();
        graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Lt,
                value: Lit::Int(10),
            }],
            graph.aggregates().to_vec(),
            vec![],
        );
        // Same catalog, fresh database whose indexes were never built.
        let unbuilt = Database::new(db.catalog().clone());
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::IndexScan {
                    index: hfqo_storage::catalog::IndexId(0),
                    driving_selection: 0,
                },
            }),
            right: Box::new(scan_node(1)),
        });
        let err = execute(&unbuilt, &graph, &plan, ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::IndexNotBuilt(_)));
    }

    #[test]
    fn sum_over_text_surfaces_bad_aggregate() {
        let (db, graph) = null_setup();
        // SUM over the Text key column.
        let graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                column: Some(BoundColumn::new(RelId(0), ColumnId(0))),
            }],
            vec![],
        );
        let plan = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            }),
        });
        let err = execute(&db, &graph, &plan, ExecConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::BadAggregate(_)));
    }

    /// The one evaluator behind both facades, against the row oracle:
    /// `execute_for_stats` sees the same `(rows, work)` as `execute` and
    /// `execute_rows` at every team size and morsel geometry, and a
    /// budget aborts one iff it aborts all.
    #[test]
    fn stats_and_full_execution_match_row_oracle_at_every_team_size() {
        let (db, graph) = setup();
        let join = |algo| PlanNode::Join {
            algo,
            conds: vec![0],
            left: Box::new(scan_node(0)),
            right: Box::new(scan_node(1)),
        };
        let mut plans: Vec<PhysicalPlan> = [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge]
            .into_iter()
            .map(|algo| PhysicalPlan::new(join(algo)))
            .collect();
        plans.push(PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Sort,
            input: Box::new(join(JoinAlgo::Hash)),
        }));
        for plan in &plans {
            let oracle = execute_rows(&db, &graph, plan, ExecConfig::default()).unwrap();
            let exact = oracle.stats.work;
            for threads in [1, 2, 4] {
                for morsel in [1, 64, 4096] {
                    let tag = format!("{:?} t={threads} m={morsel}", plan.root);
                    let cfg = ExecConfig::default().threads(threads).morsel_rows(morsel);
                    let full = execute(&db, &graph, plan, cfg).unwrap();
                    let (rows, work) = execute_for_stats(&db, &graph, plan, cfg).unwrap();
                    // Work charges are column-independent: the
                    // zero-column run must observe the identical totals.
                    assert_eq!((rows, work), (oracle.rows.len(), exact), "{tag}");
                    assert_eq!((full.rows.len(), full.stats.work), (rows, work), "{tag}");
                    for budget in [0, 50, 300, exact - 1, exact, exact + 1] {
                        let cfg = ExecConfig {
                            work_budget: budget,
                            ..cfg
                        };
                        let aborts = execute_rows(&db, &graph, plan, cfg).is_err();
                        assert_eq!(aborts, budget < exact, "{tag} b={budget}");
                        for err in [
                            execute(&db, &graph, plan, cfg).err(),
                            execute_for_stats(&db, &graph, plan, cfg).err(),
                        ] {
                            assert_eq!(err.is_some(), aborts, "{tag} b={budget}");
                            assert!(
                                matches!(err, None | Some(ExecError::BudgetExceeded { .. })),
                                "{tag} b={budget}"
                            );
                        }
                    }
                }
            }
        }
        // Stats-only execution still validates.
        let incomplete = PhysicalPlan::new(scan_node(0));
        assert!(matches!(
            execute_for_stats(&db, &graph, &incomplete, ExecConfig::default()),
            Err(ExecError::Plan(_))
        ));
    }

    #[test]
    fn aggregate_schema_names_keys_and_values() {
        let (db, graph) = setup();
        let plan = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            }),
        });
        let out = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.schema.columns.len(), 1);
        assert_eq!(out.schema.columns[0].name(), "count(*)");
        assert_eq!(out.schema.columns[0].ty(), ColumnType::Int);
        assert_eq!(out.schema.to_string(), "count(*)");
        // Non-aggregated plans list base columns.
        let join_only = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: Box::new(scan_node(0)),
            right: Box::new(scan_node(1)),
        });
        let out = execute(&db, &graph, &join_only, ExecConfig::default()).unwrap();
        let names: Vec<&str> = out.schema.columns.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["d.id", "d.attr", "f.id", "f.dim_id", "f.val"]);
        assert_eq!(out.rows[0].len(), out.schema.columns.len());
    }

    #[test]
    fn parallel_join_is_bit_identical_to_serial() {
        let (db, graph) = setup();
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge] {
            let plan = PhysicalPlan::new(PlanNode::Join {
                algo,
                conds: vec![0],
                left: Box::new(scan_node(0)),
                right: Box::new(scan_node(1)),
            });
            let serial = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
            for threads in [2, 4] {
                for morsel in [1, 7, 64, 4096] {
                    let cfg = ExecConfig::default().threads(threads).morsel_rows(morsel);
                    let par = execute(&db, &graph, &plan, cfg).unwrap();
                    // Exact row ORDER, not just the multiset: stages
                    // reassemble morsel outputs in order, so the full
                    // result must match bitwise.
                    assert_eq!(par.rows, serial.rows, "{algo:?} t={threads} m={morsel}");
                    assert_eq!(
                        par.stats.work, serial.stats.work,
                        "{algo:?} t={threads} m={morsel}"
                    );
                    assert_eq!(par.layout, serial.layout);
                    assert_eq!(par.schema, serial.schema);
                }
            }
        }
    }

    /// `ExecStats::work` is part of the reward signal, so it must not
    /// depend on the thread count.
    #[test]
    fn work_is_identical_across_thread_counts() {
        let (db, graph) = setup();
        let plan = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(scan_node(1)),
                right: Box::new(scan_node(0)),
            }),
        });
        let outs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&t| execute(&db, &graph, &plan, ExecConfig::default().threads(t)).unwrap())
            .collect();
        for out in &outs[1..] {
            assert_eq!(out.rows, outs[0].rows);
            assert_eq!(out.stats.work, outs[0].stats.work);
        }
    }

    #[test]
    fn parallel_aggregate_matches_serial_bitwise() {
        let (db, graph) = null_setup();
        for algo in [AggAlgo::Hash, AggAlgo::Sort] {
            let plan = PhysicalPlan::new(PlanNode::Aggregate {
                algo,
                input: Box::new(PlanNode::Join {
                    algo: JoinAlgo::Hash,
                    conds: vec![0],
                    left: Box::new(scan_node(0)),
                    right: Box::new(scan_node(1)),
                }),
            });
            let serial = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
            let cfg = ExecConfig::default().threads(4).morsel_rows(2);
            let par = execute(&db, &graph, &plan, cfg).unwrap();
            // One output row (no GROUP BY); the float SUM bits must
            // match exactly because the fold order is preserved.
            assert_eq!(par.rows, serial.rows, "{algo:?}");
            assert_eq!(par.stats.work, serial.stats.work, "{algo:?}");
        }
    }

    #[test]
    fn parallel_index_scan_matches_serial() {
        let (db, mut graph) = setup();
        graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Lt,
                value: Lit::Int(10),
            }],
            graph.aggregates().to_vec(),
            vec![],
        );
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::IndexScan {
                    index: hfqo_storage::catalog::IndexId(0),
                    driving_selection: 0,
                },
            }),
            right: Box::new(scan_node(1)),
        });
        let serial = execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        let par = execute(&db, &graph, &plan, ExecConfig::default().threads(4)).unwrap();
        assert_eq!(serial.rows.len(), 100);
        assert_eq!(par.rows, serial.rows);
        assert_eq!(par.stats.work, serial.stats.work);
    }

    #[test]
    fn parallel_budget_abort_matches_serial() {
        let (db, graph) = setup();
        let cross = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![],
            left: Box::new(scan_node(0)),
            right: Box::new(scan_node(1)),
        });
        assert!(matches!(
            execute(&db, &graph, &cross, ExecConfig::with_budget(300)),
            Err(ExecError::BudgetExceeded { budget: 300, .. })
        ));
        // A team of four charges the same totals, so it aborts exactly
        // when the inline team of one does.
        let err =
            execute(&db, &graph, &cross, ExecConfig::with_budget(300).threads(4)).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { budget: 300, .. }));
    }
}
