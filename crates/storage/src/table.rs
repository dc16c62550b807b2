//! In-memory tables.

use crate::catalog::{ColumnId, TableSchema};
use crate::column::{ColumnVector, Encoding};
use crate::error::StorageError;
use crate::value::Value;

/// An in-memory columnar table instance.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<ColumnVector>,
}

impl Table {
    /// An empty table shaped to `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnVector::new(c.ty()))
            .collect();
        Self { schema, columns }
    }

    /// An empty table with reserved capacity for `rows` rows.
    pub fn with_capacity(schema: TableSchema, rows: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnVector::with_capacity(c.ty(), rows))
            .collect();
        Self { schema, columns }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// The column vector at `col`.
    pub fn column(&self, col: ColumnId) -> Option<&ColumnVector> {
        self.columns.get(col.index())
    }

    /// Appends one row. The row must match the schema's arity and types
    /// (integers widen into float columns), and NULLs are rejected in
    /// non-nullable columns.
    pub fn append_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch(format!(
                "table `{}` expects {} columns, got {}",
                self.schema.name(),
                self.schema.arity(),
                row.len()
            )));
        }
        for (i, value) in row.iter().enumerate() {
            let col_def = &self.schema.columns()[i];
            if value.is_null() && !col_def.is_nullable() {
                return Err(StorageError::NullViolation {
                    table: self.schema.name().to_string(),
                    column: col_def.name().to_string(),
                });
            }
        }
        // Validation passed; now mutate. A type mismatch mid-row would leave
        // ragged columns, so check types up front too.
        for (i, value) in row.iter().enumerate() {
            let ok = type_matches(self.schema.columns()[i].ty(), value);
            if !ok {
                return Err(StorageError::SchemaMismatch(format!(
                    "value {value} does not fit column `{}.{}` of type {}",
                    self.schema.name(),
                    self.schema.columns()[i].name(),
                    self.schema.columns()[i].ty().name()
                )));
            }
        }
        for (i, value) in row.iter().enumerate() {
            let pushed = self.columns[i].push(value);
            debug_assert!(pushed, "type checked above");
        }
        Ok(())
    }

    /// Materialises the row at `row_id` into `out` (cleared first).
    pub fn read_row_into(&self, row_id: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c.get(row_id)));
    }

    /// The value at (`row_id`, `col`).
    #[inline]
    pub fn value_at(&self, row_id: usize, col: ColumnId) -> Value {
        self.columns[col.index()].get(row_id)
    }

    /// All column vectors, in schema order — the batch executor scans
    /// these directly instead of materialising rows.
    #[inline]
    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    /// Appends a batch of pre-built column chunks — the bulk-loader path.
    /// Each chunk must match the schema column's type, all chunks must
    /// have the same length, and non-nullable columns reject chunks
    /// containing NULLs. Validation happens before any mutation, so a
    /// failed append leaves the table unchanged.
    pub(crate) fn append_batch(&mut self, chunk: &[ColumnVector]) -> Result<usize, StorageError> {
        if chunk.len() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch(format!(
                "table `{}` expects {} columns, got a {}-column batch",
                self.schema.name(),
                self.schema.arity(),
                chunk.len()
            )));
        }
        let rows = chunk.first().map_or(0, |c| c.len());
        for (i, col) in chunk.iter().enumerate() {
            let col_def = &self.schema.columns()[i];
            if col.len() != rows {
                return Err(StorageError::SchemaMismatch(format!(
                    "ragged batch for table `{}`: column `{}` has {} rows, expected {rows}",
                    self.schema.name(),
                    col_def.name(),
                    col.len()
                )));
            }
            if col.ty() != col_def.ty() {
                return Err(StorageError::SchemaMismatch(format!(
                    "batch column `{}.{}` is {}, expected {}",
                    self.schema.name(),
                    col_def.name(),
                    col.ty().name(),
                    col_def.ty().name()
                )));
            }
            if !col_def.is_nullable() && (0..rows).any(|r| col.is_null(r)) {
                return Err(StorageError::NullViolation {
                    table: self.schema.name().to_string(),
                    column: col_def.name().to_string(),
                });
            }
        }
        for (dst, src) in self.columns.iter_mut().zip(chunk) {
            dst.append_column(src);
        }
        Ok(rows)
    }

    /// Dictionary-encodes every plain text column whose cardinality is at
    /// most `max_distinct`, returning how many columns were converted.
    /// Queries see identical values either way (the equivalence suite
    /// pins this); the win is memory and scan locality at IMDB scale.
    pub fn dictionary_encode_strings(&mut self, max_distinct: usize) -> usize {
        let mut converted = 0;
        for col in &mut self.columns {
            if let Some(dict) = col.dictionary_encoded(max_distinct) {
                *col = dict;
                converted += 1;
            }
        }
        converted
    }

    /// Run-length-encodes every integer or dictionary-coded column whose
    /// average run length is at least `min_avg_run` (see
    /// [`ColumnVector::rle_encoded`]). Returns the number of columns
    /// converted. Call after [`Table::dictionary_encode_strings`] so text
    /// columns are code-backed and eligible.
    pub fn rle_encode_columns(&mut self, min_avg_run: usize) -> usize {
        let mut converted = 0;
        for col in &mut self.columns {
            if let Some(rle) = col.rle_encoded(min_avg_run) {
                *col = rle;
                converted += 1;
            }
        }
        converted
    }

    /// Decodes every column back to its plain representation
    /// (dictionary → strings, RLE → dense rows) — the test-path inverse
    /// of the two encode passes.
    pub fn decode_columns(&mut self) {
        for col in &mut self.columns {
            *col = col.decoded();
        }
    }

    /// Per-column physical encodings, in schema order.
    pub fn encodings(&self) -> Vec<Encoding> {
        self.columns.iter().map(ColumnVector::encoding).collect()
    }

    /// Keeps only the rows where `keep` is `true`, rebuilding every
    /// column and re-encoding it to the physical layout it had before
    /// the call — the bulk-delete path of the drift harness. `keep`
    /// must hold exactly one entry per row; on error the table is
    /// unchanged. Returns the surviving row count. Indexes built over
    /// this table refer to the *old* row ids afterwards; callers must
    /// rebuild them (`Database::refresh_indexes`).
    pub fn retain_rows(&mut self, keep: &[bool]) -> Result<usize, StorageError> {
        if keep.len() != self.row_count() {
            return Err(StorageError::SchemaMismatch(format!(
                "retain mask for table `{}` has {} entries, expected {}",
                self.schema.name(),
                keep.len(),
                self.row_count()
            )));
        }
        let sel: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i as u32))
            .collect();
        for col in &mut self.columns {
            let mut out = ColumnVector::with_capacity(col.ty(), sel.len());
            col.append_selected(&sel, &mut out);
            *col = out.reencoded(col.encoding());
        }
        Ok(sel.len())
    }

    /// Rewrites one column by mapping every row's current value through
    /// `f`, with the same type/nullability validation as
    /// [`Table::append_row`], then re-encodes the result to the
    /// column's previous physical layout — the skew-shift path of the
    /// drift harness. On error the table is unchanged.
    pub fn rebuild_column(
        &mut self,
        col: ColumnId,
        mut f: impl FnMut(usize, Value) -> Value,
    ) -> Result<(), StorageError> {
        let col_def = self.schema.columns().get(col.index()).ok_or_else(|| {
            StorageError::SchemaMismatch(format!(
                "table `{}` has no column #{}",
                self.schema.name(),
                col.index()
            ))
        })?;
        let src = &self.columns[col.index()];
        let mut out = ColumnVector::with_capacity(col_def.ty(), src.len());
        for row in 0..src.len() {
            let value = f(row, src.get(row));
            if value.is_null() && !col_def.is_nullable() {
                return Err(StorageError::NullViolation {
                    table: self.schema.name().to_string(),
                    column: col_def.name().to_string(),
                });
            }
            if !out.push(&value) {
                return Err(StorageError::SchemaMismatch(format!(
                    "value {value} does not fit column `{}.{}` of type {}",
                    self.schema.name(),
                    col_def.name(),
                    col_def.ty().name()
                )));
            }
        }
        self.columns[col.index()] = out.reencoded(src.encoding());
        Ok(())
    }
}

fn type_matches(ty: crate::catalog::ColumnType, v: &Value) -> bool {
    use crate::catalog::ColumnType::*;
    matches!(
        (ty, v),
        (_, Value::Null)
            | (Int, Value::Int(_))
            | (Float, Value::Float(_) | Value::Int(_))
            | (Text, Value::Str(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, ColumnType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::nullable("b", ColumnType::Text),
            ],
        )
    }

    #[test]
    fn append_and_read() {
        let mut t = Table::new(schema());
        t.append_row(&[Value::Int(1), Value::str("x")]).unwrap();
        t.append_row(&[Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.row_count(), 2);
        let mut row = Vec::new();
        t.read_row_into(1, &mut row);
        assert_eq!(row, vec![Value::Int(2), Value::Null]);
        assert_eq!(t.value_at(0, ColumnId(1)), Value::str("x"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(schema());
        let err = t.append_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn null_violation_rejected() {
        let mut t = Table::new(schema());
        let err = t.append_row(&[Value::Null, Value::Null]).unwrap_err();
        assert!(matches!(err, StorageError::NullViolation { .. }));
    }

    #[test]
    fn retain_rows_keeps_survivors_and_encoding() {
        let mut t = Table::new(schema());
        for i in 0..8 {
            let b = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(if i % 2 == 0 { "even" } else { "odd" })
            };
            t.append_row(&[Value::Int(i), b]).unwrap();
        }
        assert_eq!(t.dictionary_encode_strings(16), 1);
        let before = t.encodings();
        let keep: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        assert_eq!(t.retain_rows(&keep).unwrap(), 4);
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.encodings(), before, "layout preserved");
        assert_eq!(t.value_at(1, ColumnId(0)), Value::Int(2));
        assert_eq!(t.value_at(1, ColumnId(1)), Value::str("even"));
        assert!(t.value_at(3, ColumnId(1)).is_null());
        // Wrong mask length is rejected without mutating.
        let err = t.retain_rows(&[true]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn rebuild_column_validates_and_preserves_layout() {
        let mut t = Table::new(schema());
        for i in 0..6 {
            t.append_row(&[Value::Int(i), Value::str("x")]).unwrap();
        }
        t.rebuild_column(
            ColumnId(0),
            |row, v| {
                if row % 2 == 0 {
                    Value::Int(99)
                } else {
                    v
                }
            },
        )
        .unwrap();
        assert_eq!(t.value_at(0, ColumnId(0)), Value::Int(99));
        assert_eq!(t.value_at(1, ColumnId(0)), Value::Int(1));
        // NULL into the non-nullable column `a` is rejected atomically.
        let err = t
            .rebuild_column(ColumnId(0), |_, _| Value::Null)
            .unwrap_err();
        assert!(matches!(err, StorageError::NullViolation { .. }));
        assert_eq!(t.value_at(0, ColumnId(0)), Value::Int(99), "unchanged");
        // Type mismatches are rejected too.
        let err = t
            .rebuild_column(ColumnId(0), |_, _| Value::str("no"))
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        // Missing column id.
        assert!(t.rebuild_column(ColumnId(9), |_, v| v).is_err());
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut t = Table::new(schema());
        let err = t
            .append_row(&[Value::str("wrong"), Value::str("x")])
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        // No partial row was written.
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column(ColumnId(1)).unwrap().len(), 0);
    }
}
