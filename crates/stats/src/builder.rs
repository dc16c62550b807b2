//! Building statistics by scanning stored tables.

use crate::column_stats::{ColumnStats, TableStats};
use crate::histogram::Histogram;
use hfqo_catalog::{ColumnId, ColumnStatsMeta, TableId};
use hfqo_storage::{Database, Table};
use std::collections::HashMap;

/// Default histogram bucket count (PostgreSQL's
/// `default_statistics_target` is 100; we match it).
pub const DEFAULT_BUCKETS: usize = 100;

/// Default most-common-values list length.
pub const DEFAULT_MCVS: usize = 16;

/// Scans one table and builds statistics for every column.
pub fn build_table_stats(table: &Table, buckets: usize, mcv_k: usize) -> TableStats {
    let rows = table.row_count();
    let schema = table.schema();
    let mut columns = Vec::with_capacity(schema.arity());
    for c in 0..schema.arity() {
        let col = table
            .column(ColumnId(c as u32))
            .expect("column within arity");
        let mut proxies: Vec<f64> = Vec::with_capacity(rows);
        let mut nulls = 0usize;
        // Exact frequency map on proxy bits: fine at the experiment scales
        // (≤ a few million rows) and exact ndv beats sketches for tests.
        let mut freq: HashMap<u64, (f64, usize)> = HashMap::new();
        for r in 0..rows {
            let v = col.get(r);
            match v.numeric_proxy() {
                Some(p) => {
                    proxies.push(p);
                    let e = freq.entry(p.to_bits()).or_insert((p, 0));
                    e.1 += 1;
                }
                None => nulls += 1,
            }
        }
        let meta = if proxies.is_empty() {
            ColumnStatsMeta {
                ndv: 0.0,
                min: 0.0,
                max: 0.0,
                null_frac: if rows > 0 { 1.0 } else { 0.0 },
            }
        } else {
            let min = proxies.iter().copied().fold(f64::INFINITY, f64::min);
            let max = proxies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            ColumnStatsMeta {
                ndv: freq.len() as f64,
                min,
                max,
                null_frac: nulls as f64 / rows.max(1) as f64,
            }
        };
        // MCVs: the top-k values that each cover more than an average
        // value would (PostgreSQL's rule of thumb).
        let mut entries: Vec<(f64, usize)> = freq.into_values().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.total_cmp(&b.0)));
        let avg_count = if meta.ndv > 0.0 {
            proxies.len() as f64 / meta.ndv
        } else {
            0.0
        };
        let mcvs: Vec<(f64, f64)> = entries
            .iter()
            .take(mcv_k)
            .filter(|(_, count)| (*count as f64) > avg_count)
            .map(|(p, count)| (*p, *count as f64 / rows.max(1) as f64))
            .collect();
        let histogram = Histogram::build(proxies, buckets);
        columns.push(ColumnStats {
            meta,
            histogram,
            mcvs,
        });
    }
    TableStats {
        row_count: rows as f64,
        row_width: hfqo_catalog::stats::estimated_row_width(schema),
        columns,
    }
}

/// Builds statistics for every table of a database, producing the
/// [`StatsCatalog`](crate::StatsCatalog) the estimators consume.
pub fn build_database_stats(db: &Database) -> crate::cardinality::StatsCatalog {
    let tables = db
        .catalog()
        .tables()
        .map(|(id, _)| database_table_stats(db, id))
        .collect();
    crate::cardinality::StatsCatalog::new(tables)
}

/// One table's entry of [`build_database_stats`]: the same scan at the
/// same sizes, so re-scanning only the tables that changed yields the
/// catalog a full rebuild would.
pub fn database_table_stats(db: &Database, id: TableId) -> TableStats {
    let table = db.table(id).expect("table exists for catalog id");
    build_table_stats(table, DEFAULT_BUCKETS, DEFAULT_MCVS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_catalog::{Catalog, Column, ColumnType, TableSchema};
    use hfqo_storage::Value;

    fn table_with(values: Vec<Value>) -> Table {
        let schema = TableSchema::new("t", vec![Column::nullable("v", ColumnType::Int)]);
        let mut t = Table::new(schema);
        for v in values {
            t.append_row(&[v]).unwrap();
        }
        t
    }

    #[test]
    fn basic_stats() {
        let t = table_with((0..100).map(Value::Int).collect());
        let s = build_table_stats(&t, 10, 4);
        assert_eq!(s.row_count, 100.0);
        let c = &s.columns[0];
        assert_eq!(c.meta.ndv, 100.0);
        assert_eq!(c.meta.min, 0.0);
        assert_eq!(c.meta.max, 99.0);
        assert_eq!(c.meta.null_frac, 0.0);
        assert!(c.histogram.is_some());
        // Uniform data: no value qualifies as "most common".
        assert!(c.mcvs.is_empty());
    }

    #[test]
    fn null_fraction_counted() {
        let mut vals: Vec<Value> = (0..80).map(Value::Int).collect();
        vals.extend(std::iter::repeat_n(Value::Null, 20));
        let t = table_with(vals);
        let s = build_table_stats(&t, 10, 4);
        assert!((s.columns[0].meta.null_frac - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mcvs_capture_skew() {
        let mut vals = vec![Value::Int(7); 500];
        vals.extend((0..100).map(Value::Int));
        let t = table_with(vals);
        let s = build_table_stats(&t, 10, 4);
        let c = &s.columns[0];
        assert_eq!(c.mcvs.first().map(|(v, _)| *v), Some(7.0));
        let f = c.mcvs[0].1;
        assert!((f - 500.0 / 600.0).abs() < 0.01, "got {f}");
    }

    #[test]
    fn empty_table_stats() {
        let t = table_with(vec![]);
        let s = build_table_stats(&t, 10, 4);
        assert_eq!(s.row_count, 0.0);
        assert_eq!(s.columns[0].meta.ndv, 0.0);
        assert!(s.columns[0].histogram.is_none());
    }

    #[test]
    fn all_null_column() {
        let t = table_with(vec![Value::Null, Value::Null]);
        let s = build_table_stats(&t, 10, 4);
        assert_eq!(s.columns[0].meta.null_frac, 1.0);
        assert_eq!(s.columns[0].meta.ndv, 0.0);
    }

    #[test]
    fn database_stats_cover_all_tables() {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![Column::new("x", ColumnType::Int)],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![Column::new("y", ColumnType::Int)],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for i in 0..10 {
            db.table_mut(a)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
        }
        for i in 0..5 {
            db.table_mut(b)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
        }
        let sc = build_database_stats(&db);
        assert_eq!(sc.table(a).row_count, 10.0);
        assert_eq!(sc.table(b).row_count, 5.0);
    }
}
