//! Bulk CSV loading for the IMDB schema.
//!
//! Maps a directory of `<table>.csv` files (the layout of the real Join
//! Order Benchmark IMDB dumps) onto the catalog from
//! [`crate::imdb::build_catalog`]: each file streams through the typed
//! batched reader in `hfqo_storage::csv`, low-cardinality text columns
//! are dictionary-encoded, run-structured columns are run-length
//! encoded on top, indexes are built, and statistics are derived
//! — producing the same `(Database, StatsCatalog)` pair the synthetic
//! generator yields, but from real data. Tables without a file stay
//! empty, so partial samples (like the checked-in 1k-row test fixture)
//! load cleanly.

use crate::imdb;
use hfqo_stats::{build_database_stats, StatsCatalog};
use hfqo_storage::csv::{read_csv_into, CsvOptions};
use hfqo_storage::{Database, StorageError, Table};
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Knobs for [`load_imdb_csv_dir`].
#[derive(Debug, Clone)]
pub struct LoaderOptions {
    /// CSV dialect and batch size.
    pub csv: CsvOptions,
    /// Dictionary-encode text columns with at most this many distinct
    /// values (0 disables encoding).
    pub dict_max_distinct: usize,
    /// Run-length-encode integer and dictionary-coded columns whose
    /// average run length is at least this (0 disables encoding).
    pub rle_min_avg_run: usize,
}

impl Default for LoaderOptions {
    fn default() -> Self {
        Self {
            csv: CsvOptions::default(),
            // IMDB's enumeration-like columns (kinds, roles, notes) have
            // hundreds to a few thousand distinct values; near-unique
            // columns (names, titles) stay plain.
            dict_max_distinct: 4096,
            // At an average run of 2+ the run table is already smaller
            // than the dense rows, and run-aware scan kernels start
            // skipping whole runs. Clustered dumps (rows grouped by
            // parent id) clear this easily; uniform columns never do.
            rle_min_avg_run: 2,
        }
    }
}

/// What one table's load did.
#[derive(Debug, Clone)]
pub struct TableLoadReport {
    /// Table name.
    pub table: String,
    /// Rows ingested.
    pub rows: usize,
    /// CSV bytes consumed.
    pub bytes: usize,
    /// Text columns that were dictionary-encoded.
    pub dict_columns: usize,
    /// Columns that were run-length-encoded (after dictionary encoding,
    /// so text columns count here only when their codes form runs).
    pub rle_columns: usize,
}

/// What a whole directory load did.
#[derive(Debug, Clone, Default)]
pub struct CsvLoadReport {
    /// Per-table reports, in load order (tables with a CSV file only).
    pub tables: Vec<TableLoadReport>,
}

impl CsvLoadReport {
    /// Total rows ingested across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Total CSV bytes consumed.
    pub fn total_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.bytes).sum()
    }
}

/// A failed directory load.
#[derive(Debug)]
pub enum LoadError {
    /// Reading a CSV file failed at the filesystem level.
    Io(PathBuf, std::io::Error),
    /// A record failed to parse or violated the schema.
    Storage(String, StorageError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(path, e) => write!(f, "cannot read `{}`: {e}", path.display()),
            Self::Storage(table, e) => write!(f, "loading table `{table}`: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(_, e) => Some(e),
            Self::Storage(_, e) => Some(e),
        }
    }
}

/// Loads every `<table>.csv` under `dir` into a fresh IMDB-schema
/// database, builds indexes and statistics, and reports throughput.
pub fn load_imdb_csv_dir(
    dir: &Path,
    opts: &LoaderOptions,
) -> Result<(Database, StatsCatalog, CsvLoadReport), LoadError> {
    let mut db = Database::new(imdb::build_catalog());
    let mut report = CsvLoadReport::default();
    for &name in imdb::TABLE_NAMES {
        let path = dir.join(format!("{name}.csv"));
        if !path.exists() {
            continue;
        }
        let file = File::open(&path).map_err(|e| LoadError::Io(path.clone(), e))?;
        let tid = db.catalog().table_by_name(name).expect("catalog table");
        let schema = db.catalog().table(tid).expect("catalog table").clone();
        let mut table = Table::new(schema);
        let stats = read_csv_into(&mut table, BufReader::new(file), &opts.csv)
            .map_err(|e| LoadError::Storage(name.to_string(), e))?;
        let dict_columns = if opts.dict_max_distinct > 0 {
            table.dictionary_encode_strings(opts.dict_max_distinct)
        } else {
            0
        };
        // RLE rides on top of dictionary codes for text, so encode
        // order matters: dictionary first, runs second.
        let rle_columns = if opts.rle_min_avg_run > 0 {
            table.rle_encode_columns(opts.rle_min_avg_run)
        } else {
            0
        };
        db.load_table(tid, table)
            .map_err(|e| LoadError::Storage(name.to_string(), e))?;
        report.tables.push(TableLoadReport {
            table: name.to_string(),
            rows: stats.rows,
            bytes: stats.bytes,
            dict_columns,
            rle_columns,
        });
    }
    db.build_indexes()
        .map_err(|e| LoadError::Storage("<indexes>".to_string(), e))?;
    let stats = build_database_stats(&db);
    Ok((db, stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_directory_loads_empty_database() {
        let dir = Path::new("/nonexistent/hfqo-load-test");
        let (db, stats, report) = load_imdb_csv_dir(dir, &LoaderOptions::default()).unwrap();
        assert_eq!(db.catalog().table_count(), 17);
        assert!(report.tables.is_empty());
        assert_eq!(report.total_rows(), 0);
        let t = imdb::table_id(&db, "title");
        assert_eq!(db.table(t).unwrap().row_count(), 0);
        assert_eq!(stats.table(t).row_count, 0.0);
    }
}
