//! # hfqo-catalog
//!
//! Schema metadata for the hands-free query optimizer: tables, columns,
//! types, single-column B-tree index definitions, and the containers
//! that hold per-table statistics.
//!
//! The catalog is deliberately independent of the storage layer: it only
//! describes *shape*, never data. Everything downstream (the SQL binder, the
//! cardinality estimator, the cost model, the optimizer, and the RL
//! featurizer) keys off the small, copyable identifiers defined in [`ids`].
//!
//! ```
//! use hfqo_catalog::{Catalog, TableSchema, Column, ColumnType};
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

pub mod error;
pub mod ids;
pub mod index;
pub mod schema;
pub mod stats;

pub use error::CatalogError;
pub use ids::{ColumnId, ColumnRef, IndexId, TableId};
pub use index::IndexDef;
pub use schema::{Catalog, Column, ColumnType, TableSchema};
pub use stats::{ColumnStatsMeta, PAGE_SIZE_BYTES};
