//! Per-column and per-table statistics.

use crate::histogram::Histogram;
use hfqo_storage::catalog::{ColumnStatsMeta, PAGE_SIZE_BYTES};

/// Full statistics for one column: summary metadata, an equi-depth
/// histogram, and a most-common-values list.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Summary (ndv, min, max, null fraction).
    pub meta: ColumnStatsMeta,
    /// Histogram over non-null numeric proxies; `None` for empty columns.
    pub histogram: Option<Histogram>,
    /// Most common values as `(proxy, fraction_of_all_rows)`, descending
    /// by fraction.
    pub mcvs: Vec<(f64, f64)>,
}

impl ColumnStats {
    /// Statistics for a column with no data.
    pub fn empty() -> Self {
        Self {
            meta: ColumnStatsMeta::unknown(),
            histogram: None,
            mcvs: Vec::new(),
        }
    }

    /// Total row fraction covered by the MCV list.
    pub(crate) fn mcv_mass(&self) -> f64 {
        self.mcvs.iter().map(|(_, f)| f).sum()
    }

    /// The MCV fraction for `proxy`, if it is a most-common value.
    pub(crate) fn mcv_frac(&self, proxy: f64) -> Option<f64> {
        self.mcvs.iter().find(|(v, _)| *v == proxy).map(|(_, f)| *f)
    }
}

/// Full statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of rows.
    pub row_count: f64,
    /// Estimated bytes per row.
    pub row_width: f64,
    /// Per-column statistics, indexed by column position.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Number of 8 KiB pages (at least 1).
    pub fn pages(&self) -> f64 {
        ((self.row_count * self.row_width) / PAGE_SIZE_BYTES)
            .ceil()
            .max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcv_lookup() {
        let stats = ColumnStats {
            meta: ColumnStatsMeta {
                ndv: 100.0,
                min: 0.0,
                max: 99.0,
                null_frac: 0.0,
            },
            histogram: None,
            mcvs: vec![(1.0, 0.4), (2.0, 0.1)],
        };
        assert_eq!(stats.mcv_frac(1.0), Some(0.4));
        assert_eq!(stats.mcv_frac(3.0), None);
        assert!((stats.mcv_mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pages_scale_with_rows() {
        let t = TableStats {
            row_count: 100_000.0,
            row_width: 40.0,
            columns: vec![],
        };
        assert!((t.pages() - (100_000.0f64 * 40.0 / 8192.0).ceil()).abs() < 1e-9);
        let empty = TableStats {
            row_count: 0.0,
            row_width: 40.0,
            columns: vec![],
        };
        assert_eq!(empty.pages(), 1.0);
    }

    #[test]
    fn empty_column_stats() {
        let c = ColumnStats::empty();
        assert!(c.histogram.is_none());
        assert_eq!(c.mcv_mass(), 0.0);
    }
}
