//! Storage error types.

use crate::catalog::CatalogError;
use std::fmt;

/// Errors raised by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A row's arity or a value's type did not match the table schema.
    SchemaMismatch(String),
    /// A referenced table has no materialised data.
    MissingTable(String),
    /// Catalog-level failure.
    Catalog(CatalogError),
    /// A NULL was inserted into a non-nullable column.
    NullViolation {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A CSV record failed to parse or did not fit the target schema.
    Csv {
        /// 1-based record number (header included when present).
        record: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            Self::MissingTable(name) => write!(f, "table `{name}` has no data"),
            Self::Catalog(e) => write!(f, "catalog error: {e}"),
            Self::NullViolation { table, column } => {
                write!(f, "NULL in non-nullable column `{table}.{column}`")
            }
            Self::Csv { record, msg } => write!(f, "CSV record {record}: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Catalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CatalogError> for StorageError {
    fn from(e: CatalogError) -> Self {
        Self::Catalog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StorageError::from(CatalogError::UnknownTableId(3));
        assert!(e.to_string().contains("unknown table id 3"));
        assert!(std::error::Error::source(&e).is_some());
        let n = StorageError::NullViolation {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(n.to_string().contains("t.c"));
    }
}
