//! Aggregate accumulators and slot resolution.
//!
//! The accumulator type `Acc` is shared by the evaluator's aggregation
//! stage ([`crate::parallel`]) and the reference row engine, so both
//! agree on aggregate semantics to the bit; [`fold_column`] is the
//! evaluator's global fold, one accumulator over its whole column.
//! Output rows are *group keys followed by aggregate values*.

use crate::error::ExecError;
use crate::projection::Projection;
use hfqo_query::sql::AggFunc;
use hfqo_query::{QueryError, QueryGraph};
use hfqo_storage::catalog::{Catalog, ColumnType};
use hfqo_storage::{ColumnVector, Value};

/// One aggregate accumulator.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl Acc {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0.0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) -> Result<(), ExecError> {
        match self {
            Acc::Count(c) => {
                // COUNT(*) (v = None) counts rows; COUNT(col) counts
                // non-null values.
                match v {
                    None => *c += 1,
                    Some(val) if !val.is_null() => *c += 1,
                    Some(_) => {}
                }
            }
            Acc::Sum(s) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *s += val.as_float().ok_or_else(|| {
                            ExecError::BadAggregate(format!("SUM over non-numeric value {val}"))
                        })?;
                    }
                }
            }
            Acc::Min(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val.total_cmp(cur).is_lt()) {
                        *m = Some(val.clone());
                    }
                }
            }
            Acc::Max(m) => {
                if let Some(val) = v {
                    if !val.is_null() && m.as_ref().is_none_or(|cur| val.total_cmp(cur).is_gt()) {
                        *m = Some(val.clone());
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *sum += val.as_float().ok_or_else(|| {
                            ExecError::BadAggregate(format!("AVG over non-numeric value {val}"))
                        })?;
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(c) => Value::Int(c as i64),
            Acc::Sum(s) => Value::Float(s),
            Acc::Min(m) => m.unwrap_or(Value::Null),
            Acc::Max(m) => m.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// One aggregate over a whole input column (`None`: `COUNT(*)`) — the
/// global, non-`GROUP BY` fold. `COUNT(*)` is the row count; every other
/// aggregate is an [`Acc`] updated with the column's rows in order.
pub(crate) fn fold_column(
    func: AggFunc,
    col: Option<&ColumnVector>,
    rows: usize,
) -> Result<Value, ExecError> {
    let mut acc = Acc::new(func);
    match (&mut acc, col) {
        (Acc::Count(n), None) => *n = rows as u64,
        (acc, col) => {
            for row in 0..rows {
                acc.update(col.map(|c| c.get(row)).as_ref())?;
            }
        }
    }
    Ok(acc.finish())
}

/// The column type an aggregate's output takes.
pub(crate) fn agg_output_type(func: AggFunc, input: Option<ColumnType>) -> ColumnType {
    match func {
        AggFunc::Count => ColumnType::Int,
        AggFunc::Sum | AggFunc::Avg => ColumnType::Float,
        // MIN/MAX echo a value of the input column.
        AggFunc::Min | AggFunc::Max => input.unwrap_or(ColumnType::Int),
    }
}

/// The graph's aggregation resolved against an input projection: where
/// the `GROUP BY` keys and aggregate inputs live in the input's slots,
/// and the output column types (keys first, then aggregate values).
pub(crate) struct AggSpec {
    pub(crate) key_slots: Vec<usize>,
    pub(crate) agg_slots: Vec<Option<usize>>,
    pub(crate) agg_funcs: Vec<AggFunc>,
    pub(crate) out_types: Vec<ColumnType>,
}

impl AggSpec {
    /// Resolves the graph's `GROUP BY` keys and aggregate input columns
    /// against `proj`, which must carry all of them.
    pub(crate) fn resolve(
        graph: &QueryGraph,
        catalog: &Catalog,
        proj: &Projection,
    ) -> Result<Self, ExecError> {
        let key_slots: Vec<usize> = graph
            .group_by()
            .iter()
            .map(|c| {
                proj.slot(*c).ok_or_else(|| {
                    QueryError::InvalidPlan(format!("group-by column {c} not in input")).into()
                })
            })
            .collect::<Result<_, ExecError>>()?;
        let agg_slots: Vec<Option<usize>> = graph
            .aggregates()
            .iter()
            .map(|a| match a.column {
                None => Ok(None),
                Some(c) => proj.slot(c).map(Some).ok_or_else(|| -> ExecError {
                    QueryError::InvalidPlan(format!("aggregate column {c} not in input")).into()
                }),
            })
            .collect::<Result<_, ExecError>>()?;
        let agg_funcs: Vec<AggFunc> = graph.aggregates().iter().map(|a| a.func).collect();

        let input_types = proj.column_types(graph, catalog);
        let mut out_types: Vec<ColumnType> = key_slots.iter().map(|&s| input_types[s]).collect();
        out_types.extend(
            agg_funcs
                .iter()
                .zip(&agg_slots)
                .map(|(&f, &slot)| agg_output_type(f, slot.map(|s| input_types[s]))),
        );

        Ok(Self {
            key_slots,
            agg_slots,
            agg_funcs,
            out_types,
        })
    }

    /// A fresh accumulator row, one per aggregate expression.
    pub(crate) fn new_accs(&self) -> Vec<Acc> {
        self.agg_funcs.iter().map(|&f| Acc::new(f)).collect()
    }
}
