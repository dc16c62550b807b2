//! Building blocks shared by the evaluator and the row oracle.
//!
//! Comparison kernels, join-condition and index-probe resolution, scan
//! and aggregate specs, and the serial `Budget`. The evaluator's
//! stages ([`crate::parallel`]) and the reference row engine
//! ([`crate::rowexec`]) both build on these, so the two cannot drift:
//! every unit of work (row visits, comparisons, emitted rows) is charged
//! by the same rules and charge *totals* are identical — the equivalence
//! suite asserts it — so budget semantics, catastrophic-plan aborts, and
//! reward shaping do not depend on the engine.

pub(crate) mod agg;
pub(crate) mod filter;
pub(crate) mod scan;

use crate::error::ExecError;
use hfqo_query::sql::CompareOp;
use hfqo_storage::Value;
use std::cmp::Ordering;

/// Whether `ord` satisfies `op`.
#[inline]
fn ord_satisfies(op: CompareOp, ord: Ordering) -> bool {
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Neq => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

/// Evaluates a SQL comparison with three-valued logic collapsed to a
/// boolean (NULL comparisons are false, as in a WHERE clause).
#[inline]
pub(crate) fn eval_cmp(op: CompareOp, a: &Value, b: &Value) -> bool {
    match a.sql_cmp(b) {
        None => false,
        Some(ord) => ord_satisfies(op, ord),
    }
}

/// [`eval_cmp`] directly over column storage — no [`Value`]
/// materialisation (and no `Arc` clone for text) per comparison. The
/// join operators compare integer columns on their typed slices
/// themselves; this is what they call for every other operand pair
/// (floats, text, mixed numerics).
#[inline]
pub(crate) fn eval_cmp_cols(
    op: CompareOp,
    a: &hfqo_storage::ColumnVector,
    a_row: usize,
    b: &hfqo_storage::ColumnVector,
    b_row: usize,
) -> bool {
    match a.sql_cmp_at(a_row, b, b_row) {
        None => false,
        Some(ord) => ord_satisfies(op, ord),
    }
}

/// A join condition resolved to input slots: `left[l_slot] <op>
/// right[r_slot]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotCond {
    pub(crate) l_slot: usize,
    pub(crate) r_slot: usize,
    pub op: CompareOp,
}

/// Resolves plan-level join-condition indices to input slots, flipping
/// edges whose endpoints sit on opposite inputs, and appends them to
/// `out`. Generic over the slot resolver so the evaluator's derivation
/// pass ([`crate::stages`]) and the reference row engine
/// (`Layout::slot`) share one implementation — the engines must resolve
/// conditions identically for the equivalence contract to hold.
pub(crate) fn resolve_conds(
    graph: &hfqo_query::QueryGraph,
    conds: &[usize],
    left_slot: impl Fn(hfqo_query::BoundColumn) -> Option<usize>,
    right_slot: impl Fn(hfqo_query::BoundColumn) -> Option<usize>,
    out: &mut Vec<SlotCond>,
) -> Result<(), ExecError> {
    use hfqo_query::QueryError;
    for &c in conds {
        let edge = graph
            .joins()
            .get(c)
            .ok_or_else(|| QueryError::InvalidPlan(format!("join cond #{c} out of range")))?;
        out.push(
            if let (Some(l), Some(r)) = (left_slot(edge.left), right_slot(edge.right)) {
                SlotCond {
                    l_slot: l,
                    r_slot: r,
                    op: edge.op,
                }
            } else if let (Some(l), Some(r)) = (left_slot(edge.right), right_slot(edge.left)) {
                SlotCond {
                    l_slot: l,
                    r_slot: r,
                    op: edge.op.flipped(),
                }
            } else {
                return Err(QueryError::InvalidPlan(format!(
                    "join cond #{c} does not span the two inputs"
                ))
                .into());
            },
        );
    }
    Ok(())
}

/// The first equality condition, if any (hash/merge join key).
pub(crate) fn first_eq(conds: &[SlotCond]) -> Option<SlotCond> {
    conds.iter().copied().find(|c| c.op == CompareOp::Eq)
}

/// Validates an index-scan access path against the graph and catalog,
/// probes the index with the driving predicate, and appends the
/// matching row ids to `row_ids`. Shared by both engines so their index
/// behaviour (and error surface) cannot drift.
pub(crate) fn index_row_ids(
    db: &hfqo_storage::Database,
    graph: &hfqo_query::QueryGraph,
    rel: hfqo_query::RelId,
    index: hfqo_storage::catalog::IndexId,
    driving_selection: usize,
    row_ids: &mut Vec<u32>,
) -> Result<(), ExecError> {
    use hfqo_query::QueryError;
    let table_id = graph.relation(rel).table;
    let driving = graph.selections().get(driving_selection).ok_or_else(|| {
        QueryError::InvalidPlan(format!(
            "driving selection #{driving_selection} out of range"
        ))
    })?;
    let def = db.catalog().index(index).map_err(QueryError::from)?;
    if def.table() != table_id || def.column() != driving.column.column {
        return Err(QueryError::InvalidPlan(format!(
            "index `{}` does not cover driving predicate {driving}",
            def.name()
        ))
        .into());
    }
    let btree = db
        .index_storage(index)
        .ok_or_else(|| ExecError::IndexNotBuilt(def.name().to_string()))?;
    let key = crate::row::lit_to_value(&driving.value);
    match driving.op {
        CompareOp::Eq => {
            row_ids.extend_from_slice(btree.lookup_eq(&key));
        }
        CompareOp::Lt => btree.lookup_range(None, true, Some(&key), false, row_ids),
        CompareOp::Le => btree.lookup_range(None, true, Some(&key), true, row_ids),
        CompareOp::Gt => btree.lookup_range(Some(&key), false, None, true, row_ids),
        CompareOp::Ge => btree.lookup_range(Some(&key), true, None, true, row_ids),
        op @ CompareOp::Neq => {
            return Err(QueryError::InvalidPlan(format!(
                "index `{}` cannot serve operator {}",
                def.name(),
                op.sql()
            ))
            .into());
        }
    }
    Ok(())
}

/// Serial work-budget accountant (the row engine's; the evaluator
/// charges the same totals through its shared atomic counter).
#[derive(Debug)]
pub(crate) struct Budget {
    /// Work performed so far (row visits, comparisons, emitted rows).
    pub work: u64,
    /// Maximum allowed work.
    pub(crate) limit: u64,
}

impl Budget {
    /// A budget with the given limit.
    pub fn new(limit: u64) -> Self {
        Self { work: 0, limit }
    }

    /// Charges `n` units, failing when the budget is exhausted.
    #[inline]
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.work += n;
        if self.work > self.limit {
            Err(ExecError::BudgetExceeded {
                work_done: self.work,
                budget: self.limit,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_semantics() {
        assert!(eval_cmp(CompareOp::Eq, &Value::Int(1), &Value::Int(1)));
        assert!(eval_cmp(CompareOp::Lt, &Value::Int(1), &Value::Int(2)));
        assert!(eval_cmp(CompareOp::Ge, &Value::Int(2), &Value::Int(2)));
        assert!(!eval_cmp(CompareOp::Eq, &Value::Null, &Value::Null));
        assert!(!eval_cmp(CompareOp::Neq, &Value::Null, &Value::Int(1)));
        assert!(eval_cmp(CompareOp::Neq, &Value::str("a"), &Value::str("b")));
    }

    #[test]
    fn budget_charges_and_trips() {
        let mut b = Budget::new(10);
        assert!(b.charge(5).is_ok());
        assert!(b.charge(5).is_ok());
        let err = b.charge(1).unwrap_err();
        assert!(matches!(
            err,
            ExecError::BudgetExceeded {
                work_done: 11,
                budget: 10
            }
        ));
    }
}
