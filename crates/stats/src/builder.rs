//! Building statistics by scanning stored tables.
//!
//! One sort per column. Each non-NULL row's numeric proxy (see
//! `Value::numeric_proxy`) is read from the typed column: `x as f64` for
//! integers, one `string_ordinal` per dictionary entry or per text row,
//! one proxy per run of a run-length-encoded column. The proxies are
//! sorted once by [`f64::total_cmp`] and counted per distinct bit
//! pattern; ndv, min/max, the most common values and the histogram all
//! read those counts.

use crate::column_stats::{ColumnStats, TableStats};
use crate::histogram::{bit_runs, Histogram};
use hfqo_storage::catalog::{ColumnStatsMeta, TableId};
use hfqo_storage::value::string_ordinal;
use hfqo_storage::{ColumnVector, Database, RleValues, Table};

/// Default histogram bucket count (PostgreSQL's
/// `default_statistics_target` is 100; we match it).
pub(crate) const DEFAULT_BUCKETS: usize = 100;

/// Default most-common-values list length.
pub(crate) const DEFAULT_MCVS: usize = 16;

/// Scans one table and builds statistics for every column.
pub(crate) fn build_table_stats(table: &Table, buckets: usize, mcv_k: usize) -> TableStats {
    let rows = table.row_count();
    TableStats {
        row_count: rows as f64,
        row_width: hfqo_storage::catalog::estimated_row_width(table.schema()),
        columns: table
            .columns()
            .iter()
            .map(|col| column_stats(&proxy_counts(col), rows, buckets, mcv_k))
            .collect(),
    }
}

/// One column's statistics from its [`proxy_counts`] over `rows` rows.
fn column_stats(counts: &[(f64, usize)], rows: usize, buckets: usize, mcv_k: usize) -> ColumnStats {
    let present: usize = counts.iter().map(|&(_, count)| count).sum();
    let meta = if counts.is_empty() {
        ColumnStatsMeta {
            ndv: 0.0,
            min: 0.0,
            max: 0.0,
            null_frac: if rows > 0 { 1.0 } else { 0.0 },
        }
    } else {
        let proxies = || counts.iter().map(|&(p, _)| p);
        ColumnStatsMeta {
            ndv: counts.len() as f64,
            min: proxies().fold(f64::INFINITY, f64::min),
            max: proxies().fold(f64::NEG_INFINITY, f64::max),
            null_frac: (rows - present) as f64 / rows.max(1) as f64,
        }
    };
    // MCVs: the top-k values that each cover more than an average
    // value would (PostgreSQL's rule of thumb). The order is by count
    // descending, so those values are a prefix of it: filtering before
    // ordering keeps the sort to the few values that qualify.
    let avg_count = if meta.ndv > 0.0 {
        present as f64 / meta.ndv
    } else {
        0.0
    };
    let mut common: Vec<(f64, usize)> = counts
        .iter()
        .filter(|&&(_, count)| (count as f64) > avg_count)
        .copied()
        .collect();
    common.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.total_cmp(&b.0)));
    let mcvs = common
        .iter()
        .take(mcv_k)
        .map(|&(p, count)| (p, count as f64 / rows.max(1) as f64))
        .collect();
    ColumnStats {
        meta,
        histogram: Histogram::from_sorted_counts(counts, buckets),
        mcvs,
    }
}

/// The column's non-NULL proxies, one entry per distinct bit pattern
/// with its row count, ascending by [`f64::total_cmp`]. One sort: of
/// the integers themselves for a plain integer column (`x as f64` is
/// monotone and never NaN or `-0.0`), of one weighted proxy per
/// dictionary entry or per run for dictionary and run-length-encoded
/// columns, of one proxy per row otherwise.
fn proxy_counts(col: &ColumnVector) -> Vec<(f64, usize)> {
    let by_row = |mut proxies: Vec<f64>| {
        proxies.sort_unstable_by(f64::total_cmp);
        bit_runs(proxies.into_iter().map(|p| (p, 1)))
    };
    let weighted = |mut proxies: Vec<(f64, usize)>| {
        proxies.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        bit_runs(proxies)
    };
    match col {
        ColumnVector::Int(vals, valid) => {
            let mut ints: Vec<i64> = present(vals, valid).copied().collect();
            ints.sort_unstable();
            bit_runs(ints.into_iter().map(|x| (x as f64, 1)))
        }
        ColumnVector::Float(vals, valid) => by_row(present(vals, valid).copied().collect()),
        ColumnVector::Str(vals, valid) => {
            by_row(present(vals, valid).map(|s| string_ordinal(s)).collect())
        }
        ColumnVector::Dict(codes, valid, dict) => {
            let mut per_code = vec![0usize; dict.len()];
            for &code in present(codes, valid) {
                per_code[code as usize] += 1;
            }
            weighted(
                dict.iter()
                    .zip(per_code)
                    .filter(|&(_, count)| count > 0)
                    .map(|(s, count)| (string_ordinal(s), count))
                    .collect(),
            )
        }
        ColumnVector::Rle(r) => {
            let proxy = |k: usize| match &r.values {
                RleValues::Int(vals) => vals[k] as f64,
                RleValues::Dict(codes, dict) => string_ordinal(&dict[codes[k] as usize]),
            };
            weighted(
                (0..r.ends.len())
                    .filter(|&k| r.valid[k])
                    .map(|k| (proxy(k), r.run_end(k) - r.run_start(k)))
                    .collect(),
            )
        }
    }
}

/// The values of the rows `valid` marks present.
fn present<'a, T>(vals: &'a [T], valid: &'a [bool]) -> impl Iterator<Item = &'a T> {
    vals.iter().zip(valid).filter(|(_, &ok)| ok).map(|(v, _)| v)
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
pub(crate) mod tests {
    use super::*;
    use crate::histogram::tests::{parts, reference_build};
    use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType, TableSchema};
    use hfqo_storage::{Encoding, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The builder as it was before the one-sort scan: a `Value` per
    /// cell, a hash map of proxy bits to counts, and the per-row
    /// histogram. [`build_table_stats`] must give the same bits on every
    /// column without NaN or `-0.0`.
    fn reference_table_stats(table: &Table, buckets: usize, mcv_k: usize) -> TableStats {
        let rows = table.row_count();
        let schema = table.schema();
        let mut columns = Vec::with_capacity(schema.arity());
        for c in 0..schema.arity() {
            let col = table
                .column(ColumnId(c as u32))
                .expect("column within arity");
            let mut proxies: Vec<f64> = Vec::with_capacity(rows);
            let mut nulls = 0usize;
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
            let histogram = reference_build(proxies, buckets);
            columns.push(ColumnStats {
                meta,
                histogram,
                mcvs,
            });
        }
        TableStats {
            row_count: rows as f64,
            row_width: hfqo_storage::catalog::estimated_row_width(schema),
            columns,
        }
    }

    /// Every `f64` of `stats` as its bits, with the lengths and `None`s
    /// that shape them: equal vectors mean equal bits throughout.
    fn stats_bits(stats: &TableStats) -> Vec<u64> {
        let mut bits = vec![stats.row_count.to_bits(), stats.row_width.to_bits()];
        for c in &stats.columns {
            let m = &c.meta;
            bits.extend([m.ndv, m.min, m.max, m.null_frac].map(f64::to_bits));
            match &c.histogram {
                Some(h) => {
                    let (bounds, cums) = parts(h);
                    bits.push(bounds.len() as u64);
                    bits.extend(bounds.iter().chain(cums).map(|v| v.to_bits()));
                }
                None => bits.push(u64::MAX),
            }
            bits.push(c.mcvs.len() as u64);
            bits.extend(c.mcvs.iter().flat_map(|&(p, f)| [p.to_bits(), f.to_bits()]));
        }
        bits
    }

    /// A nullable `(int, float, text)` table of `rows`, in three
    /// layouts: plain; text dictionary-coded; integers and text codes
    /// run-length-encoded.
    fn layouts(rows: &[[Value; 3]]) -> [Table; 3] {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::nullable("i", ColumnType::Int),
                Column::nullable("f", ColumnType::Float),
                Column::nullable("s", ColumnType::Text),
            ],
        );
        let mut plain = Table::new(schema);
        for row in rows {
            plain.append_row(row).unwrap();
        }
        let mut dict = plain.clone();
        dict.dictionary_encode_strings(usize::MAX);
        let mut rle = dict.clone();
        rle.rle_encode_columns(1);
        if !rows.is_empty() {
            assert_eq!(dict.encodings()[2], Encoding::Dict);
            assert_eq!(
                rle.encodings(),
                [Encoding::Rle, Encoding::Plain, Encoding::Rle]
            );
        }
        [plain, dict, rle]
    }

    /// Statistics over every layout of `rows` equal the reference's bit
    /// for bit, at a small and at the default size.
    fn assert_reference_bits(rows: &[[Value; 3]]) {
        for table in layouts(rows) {
            for (buckets, mcv_k) in [(4, 2), (DEFAULT_BUCKETS, DEFAULT_MCVS)] {
                assert_eq!(
                    stats_bits(&build_table_stats(&table, buckets, mcv_k)),
                    stats_bits(&reference_table_stats(&table, buckets, mcv_k)),
                    "{:?} at {buckets} buckets, {mcv_k} MCVs",
                    table.encodings(),
                );
            }
        }
    }

    fn row(i: Option<i64>, f: Option<f64>, s: Option<&str>) -> [Value; 3] {
        [
            i.map_or(Value::Null, Value::Int),
            f.map_or(Value::Null, Value::Float),
            s.map_or(Value::Null, Value::str),
        ]
    }

    #[test]
    fn statistics_bits_equal_the_reference_on_every_layout() {
        // Empty, all-NULL and one row.
        assert_reference_bits(&[]);
        assert_reference_bits(&[row(None, None, None), row(None, None, None)]);
        assert_reference_bits(&[row(Some(3), Some(0.5), Some("x"))]);
        // Skewed, with MCV counts that tie: 7 and 9 five times each, 2
        // and 4 three times, then singletons; ties break by proxy.
        let mut skewed = Vec::new();
        for (v, n) in [(9, 5), (2, 3), (7, 5), (4, 3)] {
            for _ in 0..n {
                skewed.push(row(Some(v), Some(v as f64 / 4.0), Some(&format!("v{v}"))));
            }
        }
        skewed.extend((10..30).map(|v| row(Some(v), Some(-(v as f64)), Some(&format!("w{v}")))));
        skewed.push(row(None, None, None));
        assert_reference_bits(&skewed);
        // A key per row, unsorted, negative too.
        let keys: Vec<_> = (0..300)
            .map(|r: i64| (r * 7919) % 301 - 150)
            .map(|v| row(Some(v), Some(v as f64 * 0.1), Some(&v.to_string())))
            .collect();
        assert_reference_bits(&keys);
        // Values that collide on their proxy: integers past 2^53 round
        // to one `f64`, and strings sharing a six-byte prefix share an
        // ordinal, so distinct values count as one.
        let big = 1i64 << 53;
        let colliding: Vec<_> = [
            (big, "prefix-a"),
            (big + 1, "prefix-b"),
            (big, "prefix-a"),
            (5, "z"),
        ]
        .iter()
        .map(|&(i, s)| row(Some(i), Some(1.0), Some(s)))
        .collect();
        assert_reference_bits(&colliding);
        let stats = build_table_stats(&layouts(&colliding)[1], 4, 2);
        assert_eq!(stats.columns[0].meta.ndv, 2.0);
        assert_eq!(stats.columns[2].meta.ndv, 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random tables, drawn in runs so the integer and text codes
        /// run-length-encode, with NULLs and a small domain so values
        /// repeat and MCV counts tie.
        #[test]
        fn statistics_bits_equal_the_reference_on_random_tables(
            cells in prop::collection::vec((0u8..8, 1usize..5, -6i64..6, 0u8..3), 0..60),
        ) {
            let rows: Vec<[Value; 3]> = cells
                .iter()
                .flat_map(|&(null, run, v, scale)| {
                    let r = if null == 0 {
                        row(None, None, None)
                    } else {
                        let f = v as f64 * [0.5, 3.0, 1e-3][scale as usize];
                        row(Some(v * 1000), Some(f), Some(&format!("s{}", v + 6)))
                    };
                    std::iter::repeat_n(r, run)
                })
                .collect();
            assert_reference_bits(&rows);
        }
    }

    /// 200 floats, one in five NaN, from a fixed LCG stream. Sorted with
    /// `partial_cmp(..).unwrap_or(Equal)`, which is not a total order
    /// once a NaN is present, this input panics inside the standard
    /// library's sort (rustc 1.95).
    pub(crate) fn nan_column() -> Vec<f64> {
        let step = |x: u64| {
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
        };
        let mut x = step(3254);
        (0..200)
            .map(|_| {
                x = step(x);
                if (x >> 33) % 100 < 20 {
                    f64::NAN
                } else {
                    ((x >> 40) % 1000) as f64
                }
            })
            .collect()
    }

    /// A NaN-bearing float column builds statistics, the same bits every
    /// time, and each NaN bit pattern counts as one value.
    #[test]
    fn nan_bearing_column_builds_the_same_bits_twice() {
        let mut rows: Vec<[Value; 3]> = nan_column()
            .into_iter()
            .map(|f| row(None, Some(f), None))
            .collect();
        rows.push(row(None, Some(-f64::NAN), None));
        let [table, ..] = layouts(&rows);
        let stats = build_table_stats(&table, DEFAULT_BUCKETS, DEFAULT_MCVS);
        assert_eq!(
            stats_bits(&stats),
            stats_bits(&build_table_stats(&table, DEFAULT_BUCKETS, DEFAULT_MCVS))
        );
        let patterns: std::collections::HashSet<u64> = rows
            .iter()
            .filter_map(|r| r[1].as_float())
            .map(f64::to_bits)
            .collect();
        let f = &stats.columns[1];
        assert_eq!(f.meta.ndv, patterns.len() as f64);
        assert_eq!(
            f.mcvs[0].0.to_bits(),
            f64::NAN.to_bits(),
            "NaN is the commonest"
        );
    }

    /// `-0.0` and `0.0` are two proxies, as they were two keys of the
    /// map the counts replaced.
    #[test]
    fn signed_zeros_count_as_two_values() {
        let rows = [0.0, -0.0, 0.0, 1.0].map(|f| row(None, Some(f), None));
        let [table, ..] = layouts(&rows);
        let stats = build_table_stats(&table, DEFAULT_BUCKETS, DEFAULT_MCVS);
        assert_eq!(stats.columns[1].meta.ndv, 3.0);
        assert_eq!(stats.columns[1].mcvs, vec![(0.0, 0.5)]);
    }

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
