//! # hfqo-storage
//!
//! In-memory columnar storage for the hands-free query optimizer: typed
//! column vectors, tables, B-tree indexes, the [`Database`]
//! container binding them to a catalog, and a deterministic synthetic data
//! generator (uniform, zipfian, correlated, and foreign-key distributions).
//!
//! The executor (`hfqo-exec`) reads these structures directly; the
//! statistics builder (`hfqo-stats`) scans them to build histograms. Both
//! need the same property from this crate: cheap, allocation-free access to
//! column values by row id.
//!
//! ```
//! use hfqo_storage::catalog::{Catalog, TableSchema, Column, ColumnType};
//! use hfqo_storage::{Database, Value};
//!
//! let mut catalog = Catalog::new();
//! let t = catalog
//!     .add_table(TableSchema::new(
//!         "kv",
//!         vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Text)],
//!     ))
//!     .unwrap();
//! let mut db = Database::new(catalog);
//! db.table_mut(t).unwrap().append_row(&[Value::Int(1), Value::str("one")]).unwrap();
//! assert_eq!(db.table(t).unwrap().row_count(), 1);
//! ```

pub mod btree;
pub mod catalog;
pub mod column;
pub mod csv;
mod database;
mod datagen;
pub mod error;
pub mod table;
pub mod value;

pub use btree::BTreeIndex;
pub use column::{coalesce_spans, ColumnVector, Encoding, RleColumn, RleValues};
pub use csv::{read_csv_into, CsvLoadStats, CsvOptions};
pub use database::Database;
pub use datagen::{ColumnGen, Distribution, TableGen};
pub use error::StorageError;
pub use table::Table;
pub use value::Value;

// The parallel training harness shares one `Database` across worker
// threads by reference; concurrent plan execution is sound only while
// the store stays free of interior mutability. This assertion turns
// any future `Cell`/`RefCell` in the storage layer into a build error
// rather than a data race.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Database>();
    assert_sync::<Table>();
    assert_sync::<ColumnVector>();
};
