//! Drift magnitude between two statistics snapshots.
//!
//! The drift harness (`hfqo_workload::drift`) mutates a live database
//! and rebuilds statistics mid-traffic. This module quantifies *how
//! far* the world moved between two [`StatsCatalog`] snapshots of the
//! same catalog, so each shock→recovery report can attach a magnitude
//! to the shock instead of a bare label. The metric is deliberately
//! coarse — a scalar per table built from the row-count ratio, the
//! per-column distinct-count ratio, the null-fraction delta, and the
//! value-range midpoint shift — because its only consumers are reports
//! and assertions of the form "this shock visibly moved the stats".
//!
//! Everything here is a pure function of the two snapshots: no clocks,
//! no randomness, bit-reproducible for fixed inputs.

use crate::cardinality::StatsCatalog;
use crate::column_stats::ColumnStats;
use hfqo_storage::catalog::TableId;

/// Drift of one table between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableDrift {
    /// Which table.
    pub table: TableId,
    /// `new_rows / old_rows`; zero-row sides are clamped so the ratio
    /// stays finite.
    pub(crate) row_ratio: f64,
    /// Largest per-column shift — see [`column_shift`].
    pub(crate) max_column_shift: f64,
}

impl TableDrift {
    /// The table's combined shift: `|log2 row_ratio|` plus the largest
    /// column shift.
    pub(crate) fn shift(&self) -> f64 {
        self.row_ratio.log2().abs() + self.max_column_shift
    }
}

/// Drift between two statistics snapshots of the same catalog, one
/// entry per table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftMagnitude {
    /// Per-table drift, indexed like the catalogs.
    pub(crate) per_table: Vec<TableDrift>,
}

impl DriftMagnitude {
    /// The largest per-table shift (0 for empty catalogs).
    pub fn max_shift(&self) -> f64 {
        self.per_table
            .iter()
            .map(TableDrift::shift)
            .fold(0.0, f64::max)
    }

    /// Whether any table moved beyond floating-point noise.
    pub fn is_significant(&self) -> bool {
        self.max_shift() > 1e-9
    }
}

fn clamped(x: f64) -> f64 {
    if x.is_finite() {
        x.max(1e-9)
    } else {
        1e-9
    }
}

/// A scalar shift between two column snapshots:
/// `|log2(ndv ratio)| + |Δ null fraction| + |Δ range midpoint| / old width`.
/// Zero when nothing moved; grows smoothly with distribution changes.
pub(crate) fn column_shift(old: &ColumnStats, new: &ColumnStats) -> f64 {
    let ndv = (clamped(new.meta.ndv) / clamped(old.meta.ndv)).log2().abs();
    let nulls = (new.meta.null_frac - old.meta.null_frac).abs();
    let old_mid = (old.meta.min + old.meta.max) / 2.0;
    let new_mid = (new.meta.min + new.meta.max) / 2.0;
    let width = clamped((old.meta.max - old.meta.min).abs().max(1.0));
    let mid = if old_mid.is_finite() && new_mid.is_finite() {
        (new_mid - old_mid).abs() / width
    } else {
        0.0
    };
    ndv + nulls + mid
}

/// Computes the drift between two snapshots of the same catalog.
///
/// Panics if the snapshots cover different table counts — drift is only
/// meaningful across rebuilds of one catalog, and arities diverging
/// means the caller compared snapshots of different databases.
pub fn stats_drift(old: &StatsCatalog, new: &StatsCatalog) -> DriftMagnitude {
    assert_eq!(
        old.table_count(),
        new.table_count(),
        "drift requires snapshots of the same catalog"
    );
    let per_table = (0..old.table_count())
        .map(|i| {
            let id = TableId(i as u32);
            let (o, n) = (old.table(id), new.table(id));
            let row_ratio = clamped(n.row_count) / clamped(o.row_count);
            let max_column_shift = o
                .columns
                .iter()
                .zip(&n.columns)
                .map(|(oc, nc)| column_shift(oc, nc))
                .fold(0.0, f64::max);
            TableDrift {
                table: id,
                row_ratio,
                max_column_shift,
            }
        })
        .collect();
    DriftMagnitude { per_table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_stats::TableStats;
    use hfqo_storage::catalog::ColumnStatsMeta;

    fn col(ndv: f64, min: f64, max: f64, null_frac: f64) -> ColumnStats {
        ColumnStats {
            meta: ColumnStatsMeta {
                ndv,
                min,
                max,
                null_frac,
            },
            histogram: None,
            mcvs: Vec::new(),
        }
    }

    fn catalog(rows: f64, c: ColumnStats) -> StatsCatalog {
        StatsCatalog::new(vec![TableStats {
            row_count: rows,
            row_width: 12.0,
            columns: vec![c],
        }])
    }

    #[test]
    fn identical_snapshots_have_zero_drift() {
        let a = catalog(100.0, col(10.0, 0.0, 99.0, 0.1));
        let d = stats_drift(&a, &a.clone());
        assert_eq!(d.per_table.len(), 1);
        assert!(!d.is_significant());
        assert_eq!(d.max_shift(), 0.0);
    }

    #[test]
    fn growth_and_skew_show_up() {
        let old = catalog(100.0, col(10.0, 0.0, 99.0, 0.0));
        let grown = catalog(400.0, col(10.0, 0.0, 99.0, 0.0));
        let d = stats_drift(&old, &grown);
        assert!(d.is_significant());
        assert!((d.per_table[0].row_ratio - 4.0).abs() < 1e-12);
        assert!((d.max_shift() - 2.0).abs() < 1e-12, "log2(4) = 2");
        // A pure distribution shift (same rows, fewer distincts, moved
        // range) registers through the column term.
        let skewed = catalog(100.0, col(2.0, 0.0, 9.0, 0.0));
        let s = stats_drift(&old, &skewed);
        assert!((s.per_table[0].row_ratio - 1.0).abs() < 1e-12);
        assert!(
            s.per_table[0].max_column_shift > 2.0,
            "ndv fell 5x + midpoint moved"
        );
    }

    #[test]
    fn empty_tables_stay_finite() {
        let old = catalog(0.0, ColumnStats::empty());
        let new = catalog(50.0, col(5.0, 0.0, 4.0, 0.0));
        let d = stats_drift(&old, &new);
        assert!(d.max_shift().is_finite());
        assert!(d.is_significant());
    }

    #[test]
    #[should_panic(expected = "same catalog")]
    fn mismatched_catalogs_rejected() {
        let a = catalog(1.0, ColumnStats::empty());
        let b = StatsCatalog::new(vec![]);
        let _ = stats_drift(&a, &b);
    }
}
