//! Lightweight statistics metadata containers.
//!
//! The full statistics machinery (histograms, selectivity estimation) lives
//! in the `hfqo-stats` crate; this module only defines the plain-old-data
//! summaries that both the statistics builder and the cost model agree on.

use crate::catalog::schema::{ColumnType, TableSchema};

/// Assumed on-disk page size, matching PostgreSQL's 8 KiB blocks.
pub const PAGE_SIZE_BYTES: f64 = 8192.0;

/// Per-column summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStatsMeta {
    /// Number of distinct non-null values.
    pub ndv: f64,
    /// Minimum value, coerced to `f64` (strings use their length ordering
    /// proxy; see the stats builder).
    pub min: f64,
    /// Maximum value, coerced to `f64`.
    pub max: f64,
    /// Fraction of rows that are NULL in this column, in `[0, 1]`.
    pub null_frac: f64,
}

impl ColumnStatsMeta {
    /// Statistics for a column nothing is known about: one distinct value,
    /// degenerate range, no NULLs. Estimators treat this conservatively.
    pub fn unknown() -> Self {
        Self {
            ndv: 1.0,
            min: 0.0,
            max: 0.0,
            null_frac: 0.0,
        }
    }
}

/// Estimated width in bytes of one row of the given schema.
///
/// Uses fixed widths per type (text uses a representative average); the cost
/// model only needs relative magnitudes.
pub fn estimated_row_width(schema: &TableSchema) -> f64 {
    schema
        .columns()
        .iter()
        .map(|c| match c.ty() {
            ColumnType::Int => 8.0,
            ColumnType::Float => 8.0,
            ColumnType::Text => 32.0,
        })
        .sum::<f64>()
        .max(8.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::schema::Column;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Text),
            ],
        )
    }

    #[test]
    fn row_width_by_type() {
        assert_eq!(estimated_row_width(&schema()), 40.0);
        let empty = TableSchema::new("e", vec![]);
        assert_eq!(estimated_row_width(&empty), 8.0);
    }
}
