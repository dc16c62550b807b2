//! The catalog: schema metadata for the hands-free query optimizer —
//! tables, columns, types, single-column B-tree index definitions, and
//! the containers that hold per-table statistics.
//!
//! The catalog only describes *shape*, never data: nothing in this
//! module reads a table. Everything downstream (the SQL binder, the
//! cardinality estimator, the cost model, the optimizer, and the RL
//! featurizer) keys off its small, copyable identifiers ([`TableId`],
//! [`ColumnId`], [`ColumnRef`], [`IndexId`]).
//!
//! ```
//! use hfqo_storage::catalog::{Catalog, TableSchema, Column, ColumnType};
//!
//! let mut catalog = Catalog::new();
//! let t = catalog
//!     .add_table(TableSchema::new(
//!         "title",
//!         vec![
//!             Column::new("id", ColumnType::Int),
//!             Column::new("kind_id", ColumnType::Int),
//!             Column::new("production_year", ColumnType::Int),
//!         ],
//!     ))
//!     .unwrap();
//! let col = catalog.resolve_column(t, "id").unwrap();
//! catalog.add_index("title_pkey", t, col, true).unwrap();
//! assert_eq!(catalog.table(t).unwrap().name(), "title");
//! ```

mod error;
mod ids;
mod index;
mod schema;
mod stats;

pub use error::CatalogError;
pub use ids::{ColumnId, ColumnRef, IndexId, TableId};
pub use index::IndexDef;
pub use schema::{Catalog, Column, ColumnType, TableSchema};
pub use stats::{estimated_row_width, ColumnStatsMeta, PAGE_SIZE_BYTES};
