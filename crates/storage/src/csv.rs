//! Streamed, typed CSV ingestion.
//!
//! The real join-order benchmark ships as 3.7 GiB of IMDB CSV dumps, so
//! the loader must not buffer whole files or materialise a `Value` per
//! cell. [`read_csv_into`] streams records out of any [`BufRead`], parses
//! each field directly into the typed column chunk for its schema column,
//! and appends chunks to the table in batches (one type-check per batch
//! via `Table::append_batch`, not one per value).
//!
//! Dialect: RFC 4180-style quoting (`"` delimits, `""` escapes, quoted
//! fields may contain delimiters and newlines), a configurable delimiter,
//! and the PostgreSQL dump convention that an *unquoted* empty field or
//! `\N` is NULL while a *quoted* empty field is the empty string.

use crate::catalog::ColumnType;
use crate::column::ColumnVector;
use crate::error::StorageError;
use crate::table::Table;
use std::borrow::Cow;
use std::io::BufRead;

/// Dialect and batching knobs for [`read_csv_into`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub(crate) delimiter: u8,
    /// Skip the first record (default `false`; IMDB dumps are headerless).
    pub(crate) has_header: bool,
    /// Rows per batched insert (default 4096).
    pub(crate) batch_rows: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: b',',
            has_header: false,
            batch_rows: 4096,
        }
    }
}

/// What a load did, for throughput reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsvLoadStats {
    /// Data rows appended to the table.
    pub rows: usize,
    /// Batched inserts performed.
    pub(crate) batches: usize,
    /// Bytes of CSV text consumed (including record terminators).
    pub bytes: usize,
}

/// One parsed field, borrowing from the record where possible.
enum Field<'a> {
    /// Unquoted empty or `\N`: SQL NULL.
    Null,
    /// A value (borrowed unless `""` escapes forced a copy).
    Text(Cow<'a, str>),
}

/// Streams CSV records from `reader` into `table`, parsing each field
/// into the table's column types. The whole load is transactional per
/// batch: a malformed record aborts with [`StorageError::Csv`], leaving
/// only previously completed batches appended.
pub fn read_csv_into(
    table: &mut Table,
    reader: impl BufRead,
    opts: &CsvOptions,
) -> Result<CsvLoadStats, StorageError> {
    let arity = table.schema().arity();
    let types: Vec<ColumnType> = table.schema().columns().iter().map(|c| c.ty()).collect();
    let mut chunk: Vec<ColumnVector> = types.iter().map(|&t| ColumnVector::new(t)).collect();
    let mut chunk_rows = 0usize;
    let mut stats = CsvLoadStats::default();

    let mut records = RecordReader::new(reader);
    let mut record_no = 0usize;
    while let Some(record) = records.next_record()? {
        record_no += 1;
        if record.is_empty() {
            continue;
        }
        if opts.has_header && record_no == 1 {
            continue;
        }
        // Fields parse straight into the chunk columns. A mid-record
        // failure leaves the chunk ragged, but the error aborts the load
        // before the ragged chunk could ever be appended.
        let mut idx = 0usize;
        let seen = split_record(record, opts.delimiter, &mut |field| {
            let i = idx;
            idx += 1;
            if i >= arity {
                return Err(format!(
                    "expected {arity} fields for table `{}`, got more",
                    table.schema().name()
                ));
            }
            push_typed(&mut chunk[i], types[i], &field)
                .map_err(|msg| format!("column `{}`: {msg}", table.schema().columns()[i].name()))
        })
        .map(|()| idx)
        .map_err(|msg| StorageError::Csv {
            record: record_no,
            msg,
        })?;
        if seen != arity {
            return Err(StorageError::Csv {
                record: record_no,
                msg: format!(
                    "expected {arity} fields for table `{}`, got {seen}",
                    table.schema().name()
                ),
            });
        }
        chunk_rows += 1;
        if chunk_rows >= opts.batch_rows {
            stats.rows += table.append_batch(&chunk)?;
            stats.batches += 1;
            for col in &mut chunk {
                col.clear();
            }
            chunk_rows = 0;
        }
    }
    if chunk_rows > 0 {
        stats.rows += table.append_batch(&chunk)?;
        stats.batches += 1;
    }
    stats.bytes = records.bytes_read;
    Ok(stats)
}

/// Parses one field into the typed chunk column. Integers and floats
/// parse straight from the text — no intermediate [`crate::Value`] for
/// fixed-width data.
fn push_typed(col: &mut ColumnVector, ty: ColumnType, field: &Field<'_>) -> Result<(), String> {
    let text = match field {
        Field::Null => {
            let ok = col.push(&crate::value::Value::Null);
            debug_assert!(ok, "every column type accepts NULL");
            return Ok(());
        }
        Field::Text(t) => t.as_ref(),
    };
    match (col, ty) {
        (ColumnVector::Int(v, n), ColumnType::Int) => {
            let parsed: i64 = text
                .parse()
                .map_err(|_| format!("`{text}` is not an integer"))?;
            v.push(parsed);
            n.push(true);
        }
        (ColumnVector::Float(v, n), ColumnType::Float) => {
            let parsed: f64 = text
                .parse()
                .map_err(|_| format!("`{text}` is not a float"))?;
            v.push(parsed);
            n.push(true);
        }
        (ColumnVector::Str(v, n), ColumnType::Text) => {
            v.push(std::sync::Arc::from(text));
            n.push(true);
        }
        _ => unreachable!("chunk columns are built from the schema types"),
    }
    Ok(())
}

/// Reads one logical CSV record at a time: a record ends at a newline
/// that is *outside* quotes, so quoted fields may span lines. Keeps a
/// single reusable buffer — memory use is bounded by the largest record,
/// not the file.
struct RecordReader<R> {
    reader: R,
    buf: String,
    bytes_read: usize,
}

impl<R: BufRead> RecordReader<R> {
    fn new(reader: R) -> Self {
        Self {
            reader,
            buf: String::new(),
            bytes_read: 0,
        }
    }

    /// The next record with its terminator stripped, or `None` at EOF.
    fn next_record(&mut self) -> Result<Option<&str>, StorageError> {
        self.buf.clear();
        loop {
            let n = self
                .reader
                .read_line(&mut self.buf)
                .map_err(|e| StorageError::Csv {
                    record: 0,
                    msg: format!("I/O error: {e}"),
                })?;
            self.bytes_read += n;
            if n == 0 {
                // EOF: an unterminated quoted field is a format error.
                if self.buf.is_empty() {
                    return Ok(None);
                }
                if in_open_quote(&self.buf) {
                    return Err(StorageError::Csv {
                        record: 0,
                        msg: "unterminated quoted field at end of input".into(),
                    });
                }
                return Ok(Some(trim_terminator(&self.buf)));
            }
            if !in_open_quote(&self.buf) {
                return Ok(Some(trim_terminator(&self.buf)));
            }
            // Inside a quoted field: the newline belongs to the value;
            // keep reading lines into the same record.
        }
    }
}

fn trim_terminator(s: &str) -> &str {
    s.strip_suffix('\n')
        .map(|s| s.strip_suffix('\r').unwrap_or(s))
        .unwrap_or(s)
}

/// Whether `record` ends inside an open quoted field. Quote parity is
/// enough even with `""` escapes: each `"` toggles the state, and an
/// escaped pair toggles twice.
fn in_open_quote(record: &str) -> bool {
    record.bytes().filter(|&b| b == b'"').count() % 2 == 1
}

/// Splits one record into fields, honouring quotes and escapes, handing
/// each field to `emit` as it is scanned (no per-record allocation).
fn split_record(
    record: &str,
    delimiter: u8,
    emit: &mut dyn FnMut(Field<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let bytes = record.as_bytes();
    let mut i = 0usize;
    loop {
        if i < bytes.len() && bytes[i] == b'"' {
            // Quoted field: scan to the closing quote, collapsing "".
            let start = i + 1;
            let mut j = start;
            let mut needs_copy = false;
            loop {
                match bytes.get(j) {
                    None => return Err("unterminated quoted field".into()),
                    Some(b'"') if bytes.get(j + 1) == Some(&b'"') => {
                        needs_copy = true;
                        j += 2;
                    }
                    Some(b'"') => break,
                    Some(_) => j += 1,
                }
            }
            let raw = &record[start..j];
            let value = if needs_copy {
                Cow::Owned(raw.replace("\"\"", "\""))
            } else {
                Cow::Borrowed(raw)
            };
            emit(Field::Text(value))?;
            i = j + 1;
            match bytes.get(i) {
                None => return Ok(()),
                Some(&b) if b == delimiter => i += 1,
                Some(_) => return Err("data after closing quote".into()),
            }
        } else {
            // Unquoted field: runs to the next delimiter.
            let start = i;
            while i < bytes.len() && bytes[i] != delimiter {
                if bytes[i] == b'"' {
                    return Err("quote inside unquoted field".into());
                }
                i += 1;
            }
            let raw = &record[start..i];
            if raw.is_empty() || raw == "\\N" {
                emit(Field::Null)?;
            } else {
                emit(Field::Text(Cow::Borrowed(raw)))?;
            }
            if i == bytes.len() {
                return Ok(());
            }
            i += 1; // consume the delimiter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, ColumnType, TableSchema};
    use crate::value::Value;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("score", ColumnType::Float),
                Column::nullable("note", ColumnType::Text),
            ],
        )
    }

    fn load(input: &str, opts: &CsvOptions) -> Result<(Table, CsvLoadStats), StorageError> {
        let mut table = Table::new(schema());
        let stats = read_csv_into(&mut table, input.as_bytes(), opts)?;
        Ok((table, stats))
    }

    #[test]
    fn parses_typed_rows_with_nulls() {
        let input = "1,2.5,hello\n2,\\N,\n3,,plain\n";
        let (t, stats) = load(input, &CsvOptions::default()).unwrap();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.bytes, input.len());
        assert_eq!(t.row_count(), 3);
        assert_eq!(
            t.value_at(0, crate::catalog::ColumnId(1)),
            Value::Float(2.5)
        );
        assert!(t.value_at(1, crate::catalog::ColumnId(1)).is_null());
        assert!(t.value_at(1, crate::catalog::ColumnId(2)).is_null());
        assert_eq!(
            t.value_at(2, crate::catalog::ColumnId(2)),
            Value::str("plain")
        );
    }

    #[test]
    fn quoted_fields_embed_delimiters_newlines_and_escapes() {
        let input = "1,1.0,\"a,b\"\n2,2.0,\"line\nbreak\"\n3,3.0,\"say \"\"hi\"\"\"\n4,4.0,\"\"\n";
        let (t, stats) = load(input, &CsvOptions::default()).unwrap();
        assert_eq!(stats.rows, 4);
        let col = crate::catalog::ColumnId(2);
        assert_eq!(t.value_at(0, col), Value::str("a,b"));
        assert_eq!(t.value_at(1, col), Value::str("line\nbreak"));
        assert_eq!(t.value_at(2, col), Value::str("say \"hi\""));
        // Quoted empty is the empty string, not NULL.
        assert_eq!(t.value_at(3, col), Value::str(""));
    }

    #[test]
    fn header_crlf_and_blank_lines() {
        let input = "id,score,note\r\n1,1.5,x\r\n\r\n2,2.5,y\r\n";
        let opts = CsvOptions {
            has_header: true,
            ..CsvOptions::default()
        };
        let (t, stats) = load(input, &opts).unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(t.value_at(1, crate::catalog::ColumnId(2)), Value::str("y"));
    }

    #[test]
    fn batches_are_honoured() {
        let input: String = (0..10).map(|i| format!("{i},1.0,n{i}\n")).collect();
        let opts = CsvOptions {
            batch_rows: 3,
            ..CsvOptions::default()
        };
        let (t, stats) = load(&input, &opts).unwrap();
        assert_eq!(t.row_count(), 10);
        assert_eq!(stats.batches, 4); // 3+3+3+1
    }

    #[test]
    fn malformed_records_are_rejected_with_position() {
        for (input, needle) in [
            ("1,1.0,ok\nnope,2.0,x\n", "not an integer"),
            ("1,abc,x\n", "not a float"),
            ("1,1.0\n", "expected 3 fields"),
            ("1,1.0,\"open\n", "unterminated"),
            ("1,1.0,\"x\"y\n", "after closing quote"),
            ("1,1.0,a\"b\"c\n", "quote inside unquoted"),
        ] {
            let err = load(input, &CsvOptions::default()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "`{input}` → `{msg}`");
        }
    }

    #[test]
    fn null_in_non_nullable_column_is_rejected() {
        let err = load("\\N,1.0,x\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, StorageError::NullViolation { .. }), "{err}");
    }
}
