//! The database container: catalog + materialised tables + built indexes.
//!
//! **Per-table data versions.** Index row ids are positional, so any
//! change to a table leaves *that table's* indexes stale — and only
//! those. The database therefore counts changes per table: every
//! [`Database::table_mut`] and every [`Database::load_table`] moves the
//! table's version, whether or not a write follows (handing out `&mut
//! Table` is the last moment the container can see). It also remembers
//! the version each table's indexes were built at, so
//! [`Database::refresh_indexes`] rebuilds the indexes of the tables that
//! moved and touches nothing else; [`Database::build_indexes`] is its
//! everything-is-stale case. Readers that derive their own state from
//! table data (a session's statistics) keep a copy of
//! [`Database::table_versions`] and compare. Versions are plain data:
//! a clone carries them, so two copies of one database mutated alike
//! stay in step.

use crate::btree::BTreeIndex;
use crate::catalog::{Catalog, IndexId, TableId};
use crate::error::StorageError;
use crate::table::Table;

/// An in-memory database: one [`Table`] per catalog table, one
/// [`BTreeIndex`] per catalog index.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<Table>,
    indexes: Vec<Option<BTreeIndex>>,
    /// Data version per table; see the [module docs](self).
    versions: Vec<u64>,
    /// The data version each table's indexes were built at (`None`:
    /// never, or declared stale by [`Self::build_indexes`]).
    indexed_at: Vec<Option<u64>>,
}

impl Database {
    /// Creates a database with empty tables shaped to `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        let tables: Vec<Table> = catalog
            .tables()
            .map(|(_, schema)| Table::new(schema.clone()))
            .collect();
        let indexes = vec![None; catalog.index_count()];
        Self {
            versions: vec![0; tables.len()],
            indexed_at: vec![None; tables.len()],
            catalog,
            tables,
            indexes,
        }
    }

    /// The catalog this database is shaped to.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The table with the given id.
    pub fn table(&self, id: TableId) -> Result<&Table, StorageError> {
        self.tables
            .get(id.index())
            .ok_or_else(|| StorageError::MissingTable(format!("{id}")))
    }

    /// Mutable access to the table with the given id. Counts as a change
    /// to the table: its data version moves whether or not the caller
    /// goes on to write.
    pub fn table_mut(&mut self, id: TableId) -> Result<&mut Table, StorageError> {
        let table = self
            .tables
            .get_mut(id.index())
            .ok_or_else(|| StorageError::MissingTable(format!("{id}")))?;
        self.versions[id.index()] += 1;
        Ok(table)
    }

    /// Replaces the data of a table wholesale (used by bulk loaders).
    pub fn load_table(&mut self, id: TableId, table: Table) -> Result<(), StorageError> {
        let slot = self
            .tables
            .get_mut(id.index())
            .ok_or_else(|| StorageError::MissingTable(format!("{id}")))?;
        if slot.schema() != table.schema() {
            return Err(StorageError::SchemaMismatch(format!(
                "loaded table schema does not match catalog entry `{}`",
                slot.schema().name()
            )));
        }
        *slot = table;
        self.versions[id.index()] += 1;
        Ok(())
    }

    /// The data version of every table, indexed by [`TableId`]. A
    /// reader that keeps a copy can later tell which tables moved.
    pub fn table_versions(&self) -> &[u64] {
        &self.versions
    }

    /// Builds (or rebuilds) every index declared in the catalog from the
    /// current table data. Call once after bulk loading.
    pub fn build_indexes(&mut self) -> Result<(), StorageError> {
        self.indexed_at.fill(None);
        self.refresh_indexes()
    }

    /// Rebuilds the indexes of every table whose data moved since they
    /// were built — index row ids are positional, so any append, delete
    /// or rewrite leaves that table's indexes stale, and no other's.
    pub fn refresh_indexes(&mut self) -> Result<(), StorageError> {
        for i in 0..self.catalog.index_count() {
            let def = self.catalog.index(IndexId(i as u32))?;
            let t = def.table().index();
            if self.indexed_at[t] == Some(self.versions[t]) {
                continue;
            }
            let table = self.table(def.table())?;
            let col = table
                .column(def.column())
                .ok_or_else(|| StorageError::SchemaMismatch(format!("index `{}`", def.name())))?;
            let pairs = (0..table.row_count()).map(|r| (r, col.get(r)));
            self.indexes[i] = Some(BTreeIndex::build(pairs));
        }
        for (at, version) in self.indexed_at.iter_mut().zip(&self.versions) {
            *at = Some(*version);
        }
        Ok(())
    }

    /// The built data structure for an index, if [`build_indexes`] ran.
    ///
    /// [`build_indexes`]: Self::build_indexes
    pub fn index_storage(&self, id: IndexId) -> Option<&BTreeIndex> {
        self.indexes.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::row_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, ColumnId, ColumnType, TableSchema};
    use crate::value::Value;

    fn db() -> (Database, TableId) {
        let mut c = Catalog::new();
        let t = c
            .add_table(TableSchema::new(
                "t",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("grp", ColumnType::Int),
                ],
            ))
            .unwrap();
        c.add_index("t_id", t, ColumnId(0), true).unwrap();
        c.add_index("t_grp", t, ColumnId(1), false).unwrap();
        let mut db = Database::new(c);
        for i in 0..10i64 {
            db.table_mut(t)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 3)])
                .unwrap();
        }
        (db, t)
    }

    #[test]
    fn build_and_probe_indexes() {
        let (mut db, _) = db();
        db.build_indexes().unwrap();
        let by_id = db.index_storage(IndexId(0)).unwrap();
        assert_eq!(by_id.lookup_eq(&Value::Int(7)), &[7]);
        let by_grp = db.index_storage(IndexId(1)).unwrap();
        assert_eq!(by_grp.lookup_eq(&Value::Int(0)), &[0, 3, 6, 9]);
    }

    /// A change to one table moves only that table's version, and the
    /// incremental rebuild leaves its indexes equal to a full rebuild's
    /// without touching the other table's.
    #[test]
    fn refresh_rebuilds_only_tables_that_moved() {
        let mut c = Catalog::new();
        let cols = || vec![Column::new("id", ColumnType::Int)];
        let a = c.add_table(TableSchema::new("a", cols())).unwrap();
        let b = c.add_table(TableSchema::new("b", cols())).unwrap();
        c.add_index("a_id", a, ColumnId(0), true).unwrap();
        c.add_index("b_id", b, ColumnId(0), true).unwrap();
        let mut db = Database::new(c);
        for t in [a, b] {
            db.table_mut(t)
                .unwrap()
                .append_row(&[Value::Int(1)])
                .unwrap();
        }
        db.build_indexes().unwrap();
        let before = db.table_versions().to_vec();

        db.table_mut(a)
            .unwrap()
            .append_row(&[Value::Int(2)])
            .unwrap();
        assert_eq!(db.table_versions()[a.index()], before[a.index()] + 1);
        assert_eq!(db.table_versions()[b.index()], before[b.index()]);
        // A stale marker in the untouched table's slot: a rebuild of
        // that table would overwrite it.
        let marker = BTreeIndex::new();
        db.indexes[1] = Some(marker.clone());
        db.refresh_indexes().unwrap();
        assert_eq!(db.index_storage(IndexId(1)), Some(&marker));
        let a_id = db.index_storage(IndexId(0)).unwrap();
        assert_eq!(a_id.lookup_eq(&Value::Int(2)), &[1]);

        let mut full = db.clone();
        assert_eq!(
            full.table_versions(),
            db.table_versions(),
            "a clone carries them"
        );
        full.build_indexes().unwrap();
        assert_ne!(full.index_storage(IndexId(1)), Some(&marker));
        assert_eq!(full.index_storage(IndexId(0)), db.index_storage(IndexId(0)));

        // `load_table` is a change too.
        let reloaded = db.table(b).unwrap().clone();
        db.load_table(b, reloaded).unwrap();
        assert_eq!(db.table_versions()[b.index()], before[b.index()] + 1);
        db.refresh_indexes().unwrap();
        assert_eq!(db.index_storage(IndexId(1)), full.index_storage(IndexId(1)));
    }

    #[test]
    fn indexes_absent_before_build() {
        let (db, _) = db();
        assert!(db.index_storage(IndexId(0)).is_none());
        assert_eq!(db.total_rows(), 10);
    }

    #[test]
    fn load_table_checks_schema() {
        let (mut db, t) = db();
        let wrong = Table::new(TableSchema::new(
            "t",
            vec![Column::new("other", ColumnType::Text)],
        ));
        assert!(db.load_table(t, wrong).is_err());
        let right = Table::new(db.table(t).unwrap().schema().clone());
        db.load_table(t, right).unwrap();
        assert_eq!(db.table(t).unwrap().row_count(), 0);
    }

    #[test]
    fn missing_table_errors() {
        let (db, _) = db();
        assert!(db.table(TableId(99)).is_err());
    }
}
