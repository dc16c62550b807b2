//! The reference row-at-a-time engine.
//!
//! This is the original materialising executor: every operator consumes
//! and produces whole `Vec<Row>`s of full-arity rows. It is kept —
//! unchanged in semantics — as the *reference* implementation the
//! evaluator is verified against: the equivalence suite asserts identical
//! row multisets and identical [`ExecStats::work`] totals, and the repo
//! benchmark checks its runs against it while timing the evaluator
//! (`exec.execute.us_per_op`).
//!
//! New callers should use [`crate::execute`] (the evaluator); use
//! [`execute_rows`] only to cross-check results.
//!
//! [`ExecStats::work`]: crate::executor::ExecStats

use crate::error::ExecError;
use crate::executor::{ExecConfig, ExecOutcome, ExecStats, OutputSchema};
use crate::ops::agg::Acc;
use crate::ops::{eval_cmp, first_eq, resolve_conds, Budget};
use crate::row::{lit_to_value, Layout, Row};
use hfqo_query::{
    AccessPath, AggAlgo, JoinAlgo, PhysicalPlan, PlanNode, QueryError, QueryGraph, RelId, Selection,
};
use hfqo_storage::{Database, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Executes a physical plan with the reference row engine. Same
/// validation, budget semantics, and outcome shape as
/// [`crate::execute`].
pub fn execute_rows(
    db: &Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    plan.validate(graph)?;
    let start = Instant::now();
    let mut budget = Budget::new(config.work_budget);
    let (rows, layout) = run_node(db, graph, &plan.root, &mut budget)?;
    Ok(ExecOutcome {
        rows,
        layout,
        schema: OutputSchema::for_plan(graph, db.catalog(), plan),
        stats: ExecStats {
            work: budget.work,
            elapsed: start.elapsed(),
        },
    })
}

/// Runs a plan node to full materialisation (also used by the oracle's
/// subset counting in tests).
pub(crate) fn run_node(
    db: &Database,
    graph: &QueryGraph,
    node: &PlanNode,
    budget: &mut Budget,
) -> Result<(Vec<Row>, Layout), ExecError> {
    match node {
        PlanNode::Scan { rel, path } => scan_rows(db, graph, *rel, path, budget),
        PlanNode::Join {
            algo,
            conds,
            left,
            right,
        } => {
            let (l_rows, l_layout) = run_node(db, graph, left, budget)?;
            let (r_rows, r_layout) = run_node(db, graph, right, budget)?;
            join_rows(
                graph, *algo, conds, &l_rows, &l_layout, &r_rows, &r_layout, budget,
            )
        }
        PlanNode::Aggregate { algo, input } => {
            let (rows, layout) = run_node(db, graph, input, budget)?;
            let out = aggregate_rows(graph, *algo, &rows, &layout, budget)?;
            Ok((out, layout))
        }
    }
}

/// Executes a scan of `rel` with the given access path, applying every
/// selection predicate on that relation.
pub(crate) fn scan_rows(
    db: &Database,
    graph: &QueryGraph,
    rel: RelId,
    path: &AccessPath,
    budget: &mut Budget,
) -> Result<(Vec<Row>, Layout), ExecError> {
    let table_id = graph.relation(rel).table;
    let table = db.table(table_id)?;
    let layout = Layout::for_rel(rel, graph, db.catalog());
    let sel_indices: Vec<usize> = graph.selections_on(rel).collect();
    let selections: Vec<&Selection> = sel_indices
        .iter()
        .map(|&i| &graph.selections()[i])
        .collect();

    let mut out = Vec::new();
    let mut row_buf: Row = Vec::with_capacity(table.schema().arity());

    match path {
        AccessPath::SeqScan => {
            for r in 0..table.row_count() {
                budget.charge(1)?;
                table.read_row_into(r, &mut row_buf);
                if passes_all(&row_buf, &selections, &layout) {
                    out.push(row_buf.clone());
                }
            }
        }
        AccessPath::IndexScan {
            index,
            driving_selection,
        } => {
            let row_ids = crate::ops::index_row_ids(db, graph, rel, *index, *driving_selection)?;
            // Residual predicates: everything except the driving one.
            let residual: Vec<&Selection> = sel_indices
                .iter()
                .filter(|&&i| i != *driving_selection)
                .map(|&i| &graph.selections()[i])
                .collect();
            for &rid in &row_ids {
                budget.charge(1)?;
                table.read_row_into(rid as usize, &mut row_buf);
                if passes_all(&row_buf, &residual, &layout) {
                    out.push(row_buf.clone());
                }
            }
        }
    }
    budget.charge(out.len() as u64)?;
    Ok((out, layout))
}

fn passes_all(row: &[Value], selections: &[&Selection], layout: &Layout) -> bool {
    selections.iter().all(|sel| {
        let Some(slot) = layout.slot(sel.column) else {
            return false;
        };
        eval_cmp(sel.op, &row[slot], &lit_to_value(&sel.value))
    })
}

/// Executes a join of two materialised inputs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_rows(
    graph: &QueryGraph,
    algo: JoinAlgo,
    conds: &[usize],
    left_rows: &[Row],
    left_layout: &Layout,
    right_rows: &[Row],
    right_layout: &Layout,
    budget: &mut Budget,
) -> Result<(Vec<Row>, Layout), ExecError> {
    let out_layout = left_layout.concat(right_layout);
    let slot_conds = resolve_conds(
        graph,
        conds,
        |c| left_layout.slot(c),
        |c| right_layout.slot(c),
    )?;
    let mut out: Vec<Row> = Vec::new();

    let emit = |l: &Row, r: &Row, out: &mut Vec<Row>| {
        let mut row = Vec::with_capacity(l.len() + r.len());
        row.extend_from_slice(l);
        row.extend_from_slice(r);
        out.push(row);
    };

    match algo {
        JoinAlgo::NestedLoop => {
            for l in left_rows {
                for r in right_rows {
                    budget.charge(1)?;
                    if slot_conds
                        .iter()
                        .all(|c| eval_cmp(c.op, &l[c.l_slot], &r[c.r_slot]))
                    {
                        emit(l, r, &mut out);
                    }
                }
            }
        }
        JoinAlgo::Hash => {
            let key = first_eq(&slot_conds).ok_or_else(|| {
                QueryError::InvalidPlan("hash join requires an equality condition".into())
            })?;
            // Build on the right input.
            let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
            for (i, r) in right_rows.iter().enumerate() {
                budget.charge(1)?;
                let k = &r[key.r_slot];
                if !k.is_null() {
                    table.entry(k).or_default().push(i);
                }
            }
            // Probe with the left input.
            for l in left_rows {
                budget.charge(1)?;
                let k = &l[key.l_slot];
                if k.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(k) {
                    for &i in matches {
                        budget.charge(1)?;
                        let r = &right_rows[i];
                        if slot_conds
                            .iter()
                            .all(|c| eval_cmp(c.op, &l[c.l_slot], &r[c.r_slot]))
                        {
                            emit(l, r, &mut out);
                        }
                    }
                }
            }
        }
        JoinAlgo::Merge => {
            let key = first_eq(&slot_conds).ok_or_else(|| {
                QueryError::InvalidPlan("merge join requires an equality condition".into())
            })?;
            // Sort index vectors by key (non-null keys only; NULL never
            // matches an equality).
            let mut li: Vec<usize> = (0..left_rows.len())
                .filter(|&i| !left_rows[i][key.l_slot].is_null())
                .collect();
            let mut ri: Vec<usize> = (0..right_rows.len())
                .filter(|&i| !right_rows[i][key.r_slot].is_null())
                .collect();
            let sort_work = (li.len() + ri.len()) as u64;
            budget.charge(sort_work.max(1))?;
            li.sort_by(|&a, &b| left_rows[a][key.l_slot].total_cmp(&left_rows[b][key.l_slot]));
            ri.sort_by(|&a, &b| right_rows[a][key.r_slot].total_cmp(&right_rows[b][key.r_slot]));
            let (mut i, mut j) = (0usize, 0usize);
            while i < li.len() && j < ri.len() {
                budget.charge(1)?;
                let lv = &left_rows[li[i]][key.l_slot];
                let rv = &right_rows[ri[j]][key.r_slot];
                match lv.total_cmp(rv) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        // Find the equal blocks on both sides.
                        let i_end = (i..li.len())
                            .take_while(|&x| left_rows[li[x]][key.l_slot] == *lv)
                            .last()
                            .unwrap_or(i)
                            + 1;
                        let j_end = (j..ri.len())
                            .take_while(|&x| right_rows[ri[x]][key.r_slot] == *rv)
                            .last()
                            .unwrap_or(j)
                            + 1;
                        for &lx in &li[i..i_end] {
                            for &rx in &ri[j..j_end] {
                                budget.charge(1)?;
                                let l = &left_rows[lx];
                                let r = &right_rows[rx];
                                if slot_conds
                                    .iter()
                                    .all(|c| eval_cmp(c.op, &l[c.l_slot], &r[c.r_slot]))
                                {
                                    emit(l, r, &mut out);
                                }
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
            }
        }
    }
    budget.charge(out.len() as u64)?;
    Ok((out, out_layout))
}

/// Executes the aggregation at the plan root: output rows are the GROUP BY
/// key columns followed by one value per aggregate expression.
///
/// Hash and sort aggregation produce the same groups; sort aggregation
/// additionally emits them in key order (and charges the sort).
pub(crate) fn aggregate_rows(
    graph: &QueryGraph,
    algo: AggAlgo,
    input: &[Row],
    layout: &Layout,
    budget: &mut Budget,
) -> Result<Vec<Row>, ExecError> {
    let key_slots: Vec<usize> = graph
        .group_by()
        .iter()
        .map(|c| {
            layout.slot(*c).ok_or_else(|| {
                QueryError::InvalidPlan(format!("group-by column {c} not in input")).into()
            })
        })
        .collect::<Result<_, ExecError>>()?;
    let agg_slots: Vec<Option<usize>> = graph
        .aggregates()
        .iter()
        .map(|a| match a.column {
            None => Ok(None),
            Some(c) => layout.slot(c).map(Some).ok_or_else(|| -> ExecError {
                QueryError::InvalidPlan(format!("aggregate column {c} not in input")).into()
            }),
        })
        .collect::<Result<_, ExecError>>()?;

    if algo == AggAlgo::Sort {
        // Model the sort's cost; grouping itself then proceeds hash-style
        // over the sorted input (same result, ordered output).
        budget.charge(input.len() as u64)?;
    }

    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    for row in input {
        budget.charge(1)?;
        let key: Vec<Value> = key_slots.iter().map(|&s| row[s].clone()).collect();
        let accs = groups.entry(key).or_insert_with(|| {
            graph
                .aggregates()
                .iter()
                .map(|a| Acc::new(a.func))
                .collect()
        });
        for (acc, slot) in accs.iter_mut().zip(&agg_slots) {
            acc.update(slot.map(|s| &row[s]))?;
        }
    }
    // An aggregate over zero rows with no GROUP BY still yields one row
    // (SQL semantics: COUNT(*) = 0).
    if groups.is_empty() && key_slots.is_empty() {
        groups.insert(
            Vec::new(),
            graph
                .aggregates()
                .iter()
                .map(|a| Acc::new(a.func))
                .collect(),
        );
    }

    let mut out: Vec<Row> = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.into_iter().map(Acc::finish));
            key
        })
        .collect();
    if algo == AggAlgo::Sort {
        out.sort();
    }
    budget.charge(out.len() as u64)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::sql::{AggFunc, CompareOp};
    use hfqo_query::{AggExpr, BoundColumn, JoinEdge, Lit, Relation};
    use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType, TableId, TableSchema};

    // ---- scan ----

    fn db_with_index() -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(TableSchema::new(
                "t",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("v", ColumnType::Int),
                ],
            ))
            .unwrap();
        cat.add_index("t_id", t, ColumnId(0), true).unwrap();
        let mut db = Database::new(cat);
        for i in 0..100i64 {
            db.table_mut(t)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        db.build_indexes().unwrap();
        let graph = QueryGraph::new(
            vec![Relation {
                table: t,
                alias: "t".into(),
            }],
            vec![],
            vec![
                Selection {
                    column: BoundColumn::new(RelId(0), ColumnId(0)),
                    op: CompareOp::Lt,
                    value: Lit::Int(50),
                },
                Selection {
                    column: BoundColumn::new(RelId(0), ColumnId(1)),
                    op: CompareOp::Eq,
                    value: Lit::Int(3),
                },
            ],
            vec![],
            vec![],
        );
        (db, graph)
    }

    #[test]
    fn seq_scan_applies_all_selections() {
        let (db, graph) = db_with_index();
        let mut budget = Budget::new(1_000_000);
        let (rows, layout) =
            scan_rows(&db, &graph, RelId(0), &AccessPath::SeqScan, &mut budget).unwrap();
        // id < 50 and id % 10 == 3 → 5 rows (3, 13, 23, 33, 43).
        assert_eq!(rows.len(), 5);
        assert_eq!(layout.width(), 2);
        assert!(rows.iter().all(|r| r[0].as_int().unwrap() < 50));
    }

    #[test]
    fn index_scan_matches_seq_scan() {
        let (db, graph) = db_with_index();
        let mut b1 = Budget::new(1_000_000);
        let (seq_rows, _) =
            scan_rows(&db, &graph, RelId(0), &AccessPath::SeqScan, &mut b1).unwrap();
        let mut b2 = Budget::new(1_000_000);
        let (idx_rows, _) = scan_rows(
            &db,
            &graph,
            RelId(0),
            &AccessPath::IndexScan {
                index: hfqo_storage::catalog::IndexId(0),
                driving_selection: 0,
            },
            &mut b2,
        )
        .unwrap();
        let mut a = seq_rows.clone();
        let mut b = idx_rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The index scan touches fewer rows than the full scan.
        assert!(b2.work < b1.work, "idx work {} vs seq {}", b2.work, b1.work);
    }

    #[test]
    fn budget_aborts_scan() {
        let (db, graph) = db_with_index();
        let mut budget = Budget::new(10);
        let err = scan_rows(&db, &graph, RelId(0), &AccessPath::SeqScan, &mut budget).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }));
    }

    #[test]
    fn unbuilt_index_errors() {
        let (mut db, graph) = db_with_index();
        // Recreate the database without building indexes.
        db = Database::new(db.catalog().clone());
        let mut budget = Budget::new(1000);
        let err = scan_rows(
            &db,
            &graph,
            RelId(0),
            &AccessPath::IndexScan {
                index: hfqo_storage::catalog::IndexId(0),
                driving_selection: 0,
            },
            &mut budget,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::IndexNotBuilt(_)));
    }

    #[test]
    fn mismatched_index_rejected() {
        let (db, graph) = db_with_index();
        // Driving selection #1 is on column v, but the index covers id.
        let mut budget = Budget::new(1000);
        let err = scan_rows(
            &db,
            &graph,
            RelId(0),
            &AccessPath::IndexScan {
                index: hfqo_storage::catalog::IndexId(0),
                driving_selection: 1,
            },
            &mut budget,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Plan(_)));
    }

    // ---- join ----

    fn join_setup() -> (QueryGraph, Layout, Layout) {
        let mut cat = Catalog::new();
        for n in ["a", "b"] {
            cat.add_table(TableSchema::new(
                n,
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::new("v", ColumnType::Int),
                ],
            ))
            .unwrap();
        }
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: TableId(0),
                    alias: "a".into(),
                },
                Relation {
                    table: TableId(1),
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![],
            vec![],
            vec![],
        );
        let la = Layout::for_rel(RelId(0), &graph, &cat);
        let lb = Layout::for_rel(RelId(1), &graph, &cat);
        (graph, la, lb)
    }

    fn rows(pairs: &[(i64, i64)]) -> Vec<Row> {
        pairs
            .iter()
            .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
            .collect()
    }

    fn run_join(algo: JoinAlgo, conds: Vec<usize>) -> Vec<Row> {
        let (graph, la, lb) = join_setup();
        let left = rows(&[(1, 10), (2, 20), (2, 21), (3, 30)]);
        let right = rows(&[(2, 200), (3, 300), (3, 301), (4, 400)]);
        let mut budget = Budget::new(1_000_000);
        let (mut out, layout) =
            join_rows(&graph, algo, &conds, &left, &la, &right, &lb, &mut budget).unwrap();
        assert_eq!(layout.width(), 4);
        out.sort();
        out
    }

    #[test]
    fn all_algorithms_agree() {
        let nl = run_join(JoinAlgo::NestedLoop, vec![0]);
        let hash = run_join(JoinAlgo::Hash, vec![0]);
        let merge = run_join(JoinAlgo::Merge, vec![0]);
        // k=2 matches 2 left × 1 right, k=3 matches 1 × 2 → 4 rows.
        assert_eq!(nl.len(), 4);
        assert_eq!(nl, hash);
        assert_eq!(nl, merge);
    }

    #[test]
    fn cross_join_via_nested_loop() {
        let out = run_join(JoinAlgo::NestedLoop, vec![]);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn hash_without_equality_errors() {
        let (graph, la, lb) = join_setup();
        let mut budget = Budget::new(1000);
        let err = join_rows(
            &graph,
            JoinAlgo::Hash,
            &[],
            &rows(&[(1, 1)]),
            &la,
            &rows(&[(1, 1)]),
            &lb,
            &mut budget,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Plan(_)));
    }

    #[test]
    fn nulls_never_match() {
        let (graph, la, lb) = join_setup();
        let left = vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(2), Value::Int(2)],
        ];
        let right = vec![
            vec![Value::Null, Value::Int(9)],
            vec![Value::Int(2), Value::Int(8)],
        ];
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge] {
            let mut budget = Budget::new(100_000);
            let (out, _) =
                join_rows(&graph, algo, &[0], &left, &la, &right, &lb, &mut budget).unwrap();
            assert_eq!(out.len(), 1, "{algo:?}");
            assert_eq!(out[0][0], Value::Int(2));
        }
    }

    #[test]
    fn budget_aborts_cross_join() {
        let (graph, la, lb) = join_setup();
        let left = rows(&(0..100).map(|i| (i, i)).collect::<Vec<_>>());
        let right = rows(&(0..100).map(|i| (i, i)).collect::<Vec<_>>());
        let mut budget = Budget::new(500);
        let err = join_rows(
            &graph,
            JoinAlgo::NestedLoop,
            &[],
            &left,
            &la,
            &right,
            &lb,
            &mut budget,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }));
    }

    #[test]
    fn reversed_layout_flips_condition() {
        // Join with b as the left input: the condition must flip.
        let (graph, la, lb) = join_setup();
        let left = rows(&[(2, 200)]);
        let right = rows(&[(2, 20)]);
        let mut budget = Budget::new(1000);
        let (out, _) = join_rows(
            &graph,
            JoinAlgo::Hash,
            &[0],
            &left,
            &lb,
            &right,
            &la,
            &mut budget,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    // ---- aggregate ----

    fn agg_setup(group: bool) -> (QueryGraph, Layout) {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("g", ColumnType::Int),
                Column::nullable("v", ColumnType::Int),
            ],
        ))
        .unwrap();
        let graph = QueryGraph::new(
            vec![Relation {
                table: TableId(0),
                alias: "t".into(),
            }],
            vec![],
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
                AggExpr {
                    func: AggFunc::Min,
                    column: Some(BoundColumn::new(RelId(0), ColumnId(1))),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    column: Some(BoundColumn::new(RelId(0), ColumnId(1))),
                },
            ],
            if group {
                vec![BoundColumn::new(RelId(0), ColumnId(0))]
            } else {
                vec![]
            },
        );
        let layout = Layout::for_rel(RelId(0), &graph, &cat);
        (graph, layout)
    }

    fn agg_input() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(2), Value::Int(7)],
        ]
    }

    #[test]
    fn global_aggregate() {
        let (graph, layout) = agg_setup(false);
        let mut budget = Budget::new(1000);
        let out =
            aggregate_rows(&graph, AggAlgo::Hash, &agg_input(), &layout, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        // COUNT(*) = 4, SUM = 22, MIN = 5, AVG = 22/3.
        assert_eq!(out[0][0], Value::Int(4));
        assert_eq!(out[0][1], Value::Float(22.0));
        assert_eq!(out[0][2], Value::Int(5));
        assert!(matches!(out[0][3], Value::Float(f) if (f - 22.0/3.0).abs() < 1e-12));
    }

    #[test]
    fn grouped_aggregate_sorted() {
        let (graph, layout) = agg_setup(true);
        let mut budget = Budget::new(1000);
        let out =
            aggregate_rows(&graph, AggAlgo::Sort, &agg_input(), &layout, &mut budget).unwrap();
        assert_eq!(out.len(), 2);
        // Sorted by group key.
        assert_eq!(out[0][0], Value::Int(1));
        assert_eq!(out[0][1], Value::Int(2)); // COUNT(*) includes the NULL row
        assert_eq!(out[1][0], Value::Int(2));
        assert_eq!(out[1][2], Value::Float(12.0)); // SUM for group 2
    }

    #[test]
    fn hash_and_sort_agree() {
        let (graph, layout) = agg_setup(true);
        let mut b1 = Budget::new(1000);
        let mut h = aggregate_rows(&graph, AggAlgo::Hash, &agg_input(), &layout, &mut b1).unwrap();
        let mut b2 = Budget::new(1000);
        let s = aggregate_rows(&graph, AggAlgo::Sort, &agg_input(), &layout, &mut b2).unwrap();
        h.sort();
        assert_eq!(h, s);
    }

    #[test]
    fn empty_input_global_yields_zero_count() {
        let (graph, layout) = agg_setup(false);
        let mut budget = Budget::new(1000);
        let out = aggregate_rows(&graph, AggAlgo::Hash, &[], &layout, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(0));
        assert!(out[0][2].is_null()); // MIN of nothing
        assert!(out[0][3].is_null()); // AVG of nothing
    }

    #[test]
    fn empty_input_grouped_yields_no_rows() {
        let (graph, layout) = agg_setup(true);
        let mut budget = Budget::new(1000);
        let out = aggregate_rows(&graph, AggAlgo::Sort, &[], &layout, &mut budget).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sum_over_text_errors() {
        let (graph, layout) = agg_setup(false);
        let rows = vec![vec![Value::Int(1), Value::str("oops")]];
        let mut budget = Budget::new(1000);
        // Build a layout-compatible row with a string where SUM expects a
        // number; the executor reports BadAggregate.
        let err = aggregate_rows(&graph, AggAlgo::Hash, &rows, &layout, &mut budget).unwrap_err();
        assert!(matches!(err, ExecError::BadAggregate(_)));
    }
}
