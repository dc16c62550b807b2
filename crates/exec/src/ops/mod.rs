//! Building blocks shared by the evaluator and the row oracle.
//!
//! Comparison kernels, join-condition and index-probe resolution, scan
//! and aggregate specs, and the serial [`Budget`]. The evaluator's
//! stages ([`crate::parallel`]) and the reference row engine
//! ([`crate::rowexec`]) both build on these, so the two cannot drift:
//! every unit of work (row visits, comparisons, emitted rows) is charged
//! by the same rules and charge *totals* are identical — the equivalence
//! suite asserts it — so budget semantics, catastrophic-plan aborts, and
//! reward shaping do not depend on the engine.

pub(crate) mod agg;
pub(crate) mod filter;
pub(crate) mod join;
pub(crate) mod scan;

use crate::error::ExecError;
use hfqo_sql::CompareOp;
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
pub fn eval_cmp(op: CompareOp, a: &Value, b: &Value) -> bool {
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
pub fn eval_cmp_cols(
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
    pub l_slot: usize,
    pub r_slot: usize,
    pub op: CompareOp,
}

/// Resolves plan-level join-condition indices to input slots, flipping
/// edges whose endpoints sit on opposite inputs. Generic over the slot
/// resolver so the evaluator (`Projection::slot`) and the reference
/// row engine (`Layout::slot`) share one implementation — the engines
/// must resolve conditions identically for the equivalence contract to
/// hold.
pub(crate) fn resolve_conds(
    graph: &hfqo_query::QueryGraph,
    conds: &[usize],
    left_slot: impl Fn(hfqo_query::BoundColumn) -> Option<usize>,
    right_slot: impl Fn(hfqo_query::BoundColumn) -> Option<usize>,
) -> Result<Vec<SlotCond>, ExecError> {
    use hfqo_query::QueryError;
    conds
        .iter()
        .map(|&c| {
            let edge = graph
                .joins()
                .get(c)
                .ok_or_else(|| QueryError::InvalidPlan(format!("join cond #{c} out of range")))?;
            if let (Some(l), Some(r)) = (left_slot(edge.left), right_slot(edge.right)) {
                Ok(SlotCond {
                    l_slot: l,
                    r_slot: r,
                    op: edge.op,
                })
            } else if let (Some(l), Some(r)) = (left_slot(edge.right), right_slot(edge.left)) {
                Ok(SlotCond {
                    l_slot: l,
                    r_slot: r,
                    op: edge.op.flipped(),
                })
            } else {
                Err(
                    QueryError::InvalidPlan(format!("join cond #{c} does not span the two inputs"))
                        .into(),
                )
            }
        })
        .collect()
}

/// The first equality condition, if any (hash/merge join key).
pub(crate) fn first_eq(conds: &[SlotCond]) -> Option<SlotCond> {
    conds.iter().copied().find(|c| c.op == CompareOp::Eq)
}

/// Validates an index-scan access path against the graph and catalog,
/// probes the index with the driving predicate, and returns the
/// matching row ids. Shared by both engines so their index behaviour
/// (and error surface) cannot drift.
pub(crate) fn index_row_ids(
    db: &hfqo_storage::Database,
    graph: &hfqo_query::QueryGraph,
    rel: hfqo_query::RelId,
    index: hfqo_catalog::IndexId,
    driving_selection: usize,
) -> Result<Vec<u32>, ExecError> {
    use hfqo_query::QueryError;
    use hfqo_storage::database::IndexStorage;
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
    let storage = db
        .index_storage(index)
        .ok_or_else(|| ExecError::IndexNotBuilt(def.name().to_string()))?;
    let key = crate::row::lit_to_value(&driving.value);
    let mut row_ids: Vec<u32> = Vec::new();
    match (storage, driving.op) {
        (IndexStorage::BTree(b), CompareOp::Eq) => {
            row_ids.extend_from_slice(b.lookup_eq(&key));
        }
        (IndexStorage::BTree(b), CompareOp::Lt) => {
            b.lookup_range(None, true, Some(&key), false, &mut row_ids)
        }
        (IndexStorage::BTree(b), CompareOp::Le) => {
            b.lookup_range(None, true, Some(&key), true, &mut row_ids)
        }
        (IndexStorage::BTree(b), CompareOp::Gt) => {
            b.lookup_range(Some(&key), false, None, true, &mut row_ids)
        }
        (IndexStorage::BTree(b), CompareOp::Ge) => {
            b.lookup_range(Some(&key), true, None, true, &mut row_ids)
        }
        (IndexStorage::Hash(h), CompareOp::Eq) => {
            row_ids.extend_from_slice(h.lookup_eq(&key));
        }
        (_, op) => {
            return Err(QueryError::InvalidPlan(format!(
                "index `{}` ({}) cannot serve operator {}",
                def.name(),
                def.kind().name(),
                op.sql()
            ))
            .into());
        }
    }
    // Hash indexes never serve ranges; double-check kind semantics.
    debug_assert!(
        def.kind() != hfqo_catalog::IndexKind::Hash || driving.op == CompareOp::Eq,
        "validated above"
    );
    Ok(row_ids)
}

/// Serial work-budget accountant (the row engine's; the evaluator
/// charges the same totals through its shared atomic counter).
#[derive(Debug)]
pub struct Budget {
    /// Work performed so far (row visits, comparisons, emitted rows).
    pub work: u64,
    /// Maximum allowed work.
    pub limit: u64,
}

impl Budget {
    /// A budget with the given limit.
    pub fn new(limit: u64) -> Self {
        Self { work: 0, limit }
    }

    /// Charges `n` units, failing when the budget is exhausted.
    #[inline]
    pub fn charge(&mut self, n: u64) -> Result<(), ExecError> {
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
