//! Compatibility shim: the catalog is the module `hfqo_storage::catalog`.
//! This crate re-exports the names the repository benchmark
//! (`perfbench/`) imports from it, so that package builds unedited.
//! Nothing in the workspace depends on it.

#![forbid(unsafe_code)]

pub use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType, IndexId, TableSchema};
