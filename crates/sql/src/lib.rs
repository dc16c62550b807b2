//! Compatibility shim: the SQL front-end is the module `hfqo_query::sql`.
//! This crate re-exports the names the repository benchmark
//! (`perfbench/`) imports from it, so that package builds unedited.
//! Nothing in the workspace depends on it.

pub use hfqo_query::sql::{parse_select, CompareOp};
