//! # hfqo-query
//!
//! Bound query representation: the *query graph* (relations, join edges,
//! selection predicates) that every optimizer in this project — traditional
//! or learned — searches over, plus logical join trees and physical plan
//! trees, and the binder that produces a graph from a parsed SQL statement
//! and a catalog.
//!
//! Relation subsets are represented as 64-bit bitsets ([`RelSet`]), which
//! caps queries at 64 relations — far above the paper's maximum of 17 — and
//! makes connectivity tests and DP table keys O(1).
//!
//! ```
//! use hfqo_storage::catalog::{Catalog, Column, ColumnType, TableSchema};
//! use hfqo_query::bind_select;
//! use hfqo_query::sql::parse_select;
//!
//! let mut catalog = Catalog::new();
//! for name in ["a", "b"] {
//!     catalog
//!         .add_table(TableSchema::new(name, vec![Column::new("id", ColumnType::Int)]))
//!         .unwrap();
//! }
//! let stmt = parse_select("SELECT COUNT(*) FROM a, b WHERE a.id = b.id").unwrap();
//! let graph = bind_select(&stmt, &catalog).unwrap();
//! assert_eq!(graph.relation_count(), 2);
//! assert_eq!(graph.joins().len(), 1);
//! ```

#![forbid(unsafe_code)]

mod bind;
pub mod display;
pub mod error;
pub mod fingerprint;
pub mod graph;
mod logical;
pub mod physical;
mod predicate;
pub mod sql;
mod substitute;

pub use bind::bind_select;
pub use error::QueryError;
pub use fingerprint::{
    fingerprint, fingerprints, template_fingerprint, ParamVector, QueryFingerprint,
    TemplateFingerprint,
};
pub use graph::{QueryGraph, RelId, RelSet, Relation};
pub use logical::{tree_to_actions, Forest, JoinTree};
pub use physical::{AccessPath, AggAlgo, JoinAlgo, PhysicalPlan, PlanNode};
pub use predicate::{AggExpr, BoundColumn, JoinEdge, Lit, Selection};
pub use substitute::substitute;
