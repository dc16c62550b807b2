//! Selection selectivity estimation.

use crate::cardinality::StatsCatalog;
use hfqo_query::sql::CompareOp;
use hfqo_query::{QueryGraph, Selection};

/// Fallback equality selectivity when no statistics exist (PostgreSQL uses
/// 0.005 for `eqsel` defaults).
pub(crate) const DEFAULT_EQ_SELECTIVITY: f64 = 0.005;

/// Fallback range selectivity when no statistics exist (PostgreSQL's
/// `DEFAULT_INEQ_SEL` is 1/3).
pub(crate) const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Minimum selectivity returned, to keep cost estimates positive.
const MIN_SEL: f64 = 1e-9;

/// Estimates the fraction of a relation's rows satisfying `sel`.
pub fn selection_selectivity(stats: &StatsCatalog, graph: &QueryGraph, sel: &Selection) -> f64 {
    let table = graph.relation(sel.column.rel).table;
    let tstats = stats.table(table);
    let Some(col) = tstats.columns.get(sel.column.column.index()) else {
        return default_for(sel.op);
    };
    if col.meta.ndv <= 0.0 {
        // No non-null data: nothing matches a non-null comparison.
        return MIN_SEL;
    }
    let proxy = sel.value.numeric_proxy();
    let non_null = 1.0 - col.meta.null_frac;
    let sel_frac = match sel.op {
        CompareOp::Eq => eq_fraction(col, proxy),
        CompareOp::Neq => (1.0 - eq_fraction(col, proxy)).max(0.0),
        CompareOp::Lt => range_fraction(col, None, Some(proxy)),
        CompareOp::Le => range_fraction(col, None, Some(proxy)) + eq_fraction(col, proxy),
        CompareOp::Gt => range_fraction(col, Some(proxy), None) - eq_fraction(col, proxy),
        CompareOp::Ge => range_fraction(col, Some(proxy), None),
    };
    (sel_frac.clamp(0.0, 1.0) * non_null).max(MIN_SEL)
}

/// Estimates every selection slot's selectivity, in stored (slot)
/// order: the per-parameter signature the serving layer's template
/// cache records at planning time and compares on every probe.
pub fn selection_selectivities(stats: &StatsCatalog, graph: &QueryGraph) -> Vec<f64> {
    graph
        .selections()
        .iter()
        .map(|sel| selection_selectivity(stats, graph, sel))
        .collect()
}

/// Fraction of non-null rows equal to `proxy`.
fn eq_fraction(col: &crate::ColumnStats, proxy: f64) -> f64 {
    if let Some(f) = col.mcv_frac(proxy) {
        // MCV fractions are of *all* rows; convert to non-null fraction.
        let non_null = 1.0 - col.meta.null_frac;
        if non_null > 0.0 {
            return f / non_null;
        }
        return f;
    }
    // Uniformity over the non-MCV remainder.
    let mcv_mass = col.mcv_mass();
    let remaining_ndv = (col.meta.ndv - col.mcvs.len() as f64).max(1.0);
    // Out-of-range constants match nothing.
    if proxy < col.meta.min || proxy > col.meta.max {
        return 0.0;
    }
    ((1.0 - mcv_mass) / remaining_ndv).clamp(0.0, 1.0)
}

/// Fraction of non-null rows strictly inside the range (exclusive of the
/// endpoints' own mass; `Le`/`Ge` add the equality mass back).
fn range_fraction(col: &crate::ColumnStats, lo: Option<f64>, hi: Option<f64>) -> f64 {
    match &col.histogram {
        Some(h) => h.frac_between(lo, hi),
        None => DEFAULT_RANGE_SELECTIVITY,
    }
}

fn default_for(op: CompareOp) -> f64 {
    match op {
        CompareOp::Eq => DEFAULT_EQ_SELECTIVITY,
        CompareOp::Neq => 1.0 - DEFAULT_EQ_SELECTIVITY,
        _ => DEFAULT_RANGE_SELECTIVITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_table_stats;
    use crate::cardinality::StatsCatalog;
    use hfqo_query::{BoundColumn, Lit, QueryGraph, RelId, Relation};
    use hfqo_storage::catalog::{Column, ColumnId, ColumnType, TableId, TableSchema};
    use hfqo_storage::{Table, Value};

    fn setup() -> (StatsCatalog, QueryGraph) {
        let schema = TableSchema::new("t", vec![Column::new("v", ColumnType::Int)]);
        let mut table = Table::new(schema);
        for i in 0..1000 {
            table.append_row(&[Value::Int(i % 100)]).unwrap();
        }
        let stats = StatsCatalog::new(vec![build_table_stats(&table, 50, 8)]);
        let graph = QueryGraph::new(
            vec![Relation {
                table: TableId(0),
                alias: "t".into(),
            }],
            vec![],
            vec![],
            vec![],
            vec![],
        );
        (stats, graph)
    }

    fn sel(op: CompareOp, v: i64) -> Selection {
        Selection {
            column: BoundColumn::new(RelId(0), ColumnId(0)),
            op,
            value: Lit::Int(v),
        }
    }

    #[test]
    fn equality_uses_ndv() {
        let (stats, graph) = setup();
        let s = selection_selectivity(&stats, &graph, &sel(CompareOp::Eq, 42));
        assert!((s - 0.01).abs() < 0.005, "got {s}");
    }

    #[test]
    fn range_uses_histogram() {
        let (stats, graph) = setup();
        let s = selection_selectivity(&stats, &graph, &sel(CompareOp::Lt, 50));
        assert!((s - 0.5).abs() < 0.05, "got {s}");
        let s = selection_selectivity(&stats, &graph, &sel(CompareOp::Ge, 90));
        assert!((s - 0.1).abs() < 0.05, "got {s}");
    }

    #[test]
    fn out_of_range_equality_is_tiny() {
        let (stats, graph) = setup();
        let s = selection_selectivity(&stats, &graph, &sel(CompareOp::Eq, 5000));
        assert!(s <= 1e-6, "got {s}");
    }

    #[test]
    fn neq_complements_eq() {
        let (stats, graph) = setup();
        let eq = selection_selectivity(&stats, &graph, &sel(CompareOp::Eq, 42));
        let neq = selection_selectivity(&stats, &graph, &sel(CompareOp::Neq, 42));
        assert!((eq + neq - 1.0).abs() < 0.01, "eq={eq} neq={neq}");
    }

    #[test]
    fn le_at_max_is_everything() {
        let (stats, graph) = setup();
        let s = selection_selectivity(&stats, &graph, &sel(CompareOp::Le, 99));
        assert!(s > 0.95, "got {s}");
    }

    /// Rebinds the graph's single selection slot to `v`.
    fn with_value(graph: &QueryGraph, op: CompareOp, v: i64) -> QueryGraph {
        QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![sel(op, v)],
            graph.aggregates().to_vec(),
            graph.group_by().to_vec(),
        )
    }

    #[test]
    fn selectivities_follow_slot_order() {
        let (stats, graph) = setup();
        let bound = with_value(&graph, CompareOp::Lt, 50);
        let sels = selection_selectivities(&stats, &bound);
        assert_eq!(sels.len(), 1);
        assert_eq!(
            sels[0],
            selection_selectivity(&stats, &bound, &bound.selections()[0])
        );
        let empty = selection_selectivities(&stats, &graph);
        assert!(empty.is_empty(), "no slots, no signature");
    }
}
