//! Tables, columns, and the catalog container.

use crate::catalog::error::CatalogError;
use crate::catalog::ids::{ColumnId, ColumnRef, IndexId, TableId};
use crate::catalog::index::IndexDef;

/// Logical type of a column.
///
/// The engine is deliberately small: integers cover keys and dimension
/// attributes, floats cover measures, and strings cover labels. That is
/// enough to express the IMDB-like and synthetic schemas the experiments
/// use while keeping the executor simple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
}

impl ColumnType {
    /// Short lowercase name, as printed by plan explainers.
    pub fn name(self) -> &'static str {
        match self {
            Self::Int => "int",
            Self::Float => "float",
            Self::Text => "text",
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    name: String,
    ty: ColumnType,
    /// Whether NULLs may appear in this column.
    nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    /// Whether the column may hold NULLs.
    pub(crate) fn is_nullable(&self) -> bool {
        self.nullable
    }
}

/// Schema of a single table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    name: String,
    columns: Vec<Column>,
    /// Position of the primary-key column, if any (single-column PKs only).
    primary_key: Option<ColumnId>,
}

impl TableSchema {
    /// Creates a schema with no primary key.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Self {
            name: name.into(),
            columns,
            primary_key: None,
        }
    }

    /// Declares the column at `pk` as the primary key (builder style).
    pub fn with_primary_key(mut self, pk: ColumnId) -> Self {
        self.primary_key = Some(pk);
        self
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The primary-key column, if declared.
    pub fn primary_key(&self) -> Option<ColumnId> {
        self.primary_key
    }

    /// The column at `id`, if in range.
    pub fn column(&self, id: ColumnId) -> Option<&Column> {
        self.columns.get(id.index())
    }

    /// Finds a column position by name.
    pub(crate) fn column_by_name(&self, name: &str) -> Option<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(i as u32))
    }
}

/// The catalog: the set of all tables and indexes known to the system.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableSchema>,
    indexes: Vec<IndexDef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table. Fails if a table with the same name exists.
    pub fn add_table(&mut self, schema: TableSchema) -> Result<TableId, CatalogError> {
        if self.tables.iter().any(|t| t.name() == schema.name()) {
            return Err(CatalogError::DuplicateTable(schema.name().to_string()));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(schema);
        Ok(id)
    }

    /// Registers a single-column B-tree index on `table.column`.
    pub fn add_index(
        &mut self,
        name: impl Into<String>,
        table: TableId,
        column: ColumnId,
        unique: bool,
    ) -> Result<IndexId, CatalogError> {
        let name = name.into();
        // Validate the target exists before registering.
        let schema = self.table(table)?;
        if schema.column(column).is_none() {
            return Err(CatalogError::UnknownColumnId {
                table: schema.name().to_string(),
                column: column.0,
            });
        }
        if self.indexes.iter().any(|i| i.name() == name) {
            return Err(CatalogError::DuplicateIndex(name));
        }
        let id = IndexId(self.indexes.len() as u32);
        self.indexes
            .push(IndexDef::new(name, table, column, unique));
        Ok(id)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// The table with the given id.
    pub fn table(&self, id: TableId) -> Result<&TableSchema, CatalogError> {
        self.tables
            .get(id.index())
            .ok_or(CatalogError::UnknownTableId(id.0))
    }

    /// Looks a table up by name.
    pub fn table_by_name(&self, name: &str) -> Result<TableId, CatalogError> {
        self.tables
            .iter()
            .position(|t| t.name() == name)
            .map(|i| TableId(i as u32))
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))
    }

    /// Resolves `table`.`column_name` to a column position.
    pub fn resolve_column(
        &self,
        table: TableId,
        column_name: &str,
    ) -> Result<ColumnId, CatalogError> {
        let schema = self.table(table)?;
        schema
            .column_by_name(column_name)
            .ok_or_else(|| CatalogError::UnknownColumn {
                table: schema.name().to_string(),
                column: column_name.to_string(),
            })
    }

    /// The index with the given id.
    pub fn index(&self, id: IndexId) -> Result<&IndexDef, CatalogError> {
        self.indexes
            .get(id.index())
            .ok_or(CatalogError::UnknownIndexId(id.0))
    }

    /// All tables paired with their ids.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &TableSchema)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// All indexes on the given column, if any.
    pub fn indexes_on(&self, col: ColumnRef) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.indexes
            .iter()
            .enumerate()
            .filter(move |(_, idx)| idx.table() == col.table && idx.column() == col.column)
            .map(|(i, idx)| (IndexId(i as u32), idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> (Catalog, TableId) {
        let mut c = Catalog::new();
        let t = c
            .add_table(
                TableSchema::new(
                    "title",
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("kind_id", ColumnType::Int),
                        Column::nullable("production_year", ColumnType::Int),
                        Column::new("title", ColumnType::Text),
                    ],
                )
                .with_primary_key(ColumnId(0)),
            )
            .unwrap();
        (c, t)
    }

    #[test]
    fn add_and_resolve_table() {
        let (c, t) = sample_catalog();
        assert_eq!(c.table_by_name("title").unwrap(), t);
        assert_eq!(c.table(t).unwrap().arity(), 4);
        assert_eq!(c.table(t).unwrap().primary_key(), Some(ColumnId(0)));
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut c, _) = sample_catalog();
        let err = c.add_table(TableSchema::new("title", vec![])).unwrap_err();
        assert_eq!(err, CatalogError::DuplicateTable("title".into()));
    }

    #[test]
    fn resolve_column_by_name() {
        let (c, t) = sample_catalog();
        let col = c.resolve_column(t, "production_year").unwrap();
        assert_eq!(col, ColumnId(2));
        assert!(c.table(t).unwrap().column(col).unwrap().is_nullable());
        assert!(c.resolve_column(t, "nope").is_err());
    }

    #[test]
    fn index_registration_and_lookup() {
        let (mut c, t) = sample_catalog();
        let col = c.resolve_column(t, "id").unwrap();
        let idx = c.add_index("title_pkey", t, col, true).unwrap();
        assert_eq!(c.index(idx).unwrap().name(), "title_pkey");
        // Duplicate name rejected.
        assert!(c.add_index("title_pkey", t, col, false).is_err());
        // Out-of-range column rejected.
        assert!(c.add_index("bad", t, ColumnId(99), false).is_err());
    }

    #[test]
    fn unknown_ids_error() {
        let (c, _) = sample_catalog();
        assert!(c.table(TableId(42)).is_err());
        assert!(c.index(crate::catalog::ids::IndexId(9)).is_err());
        assert!(c.table_by_name("missing").is_err());
    }

    #[test]
    fn tables_iterator_pairs_ids() {
        let (mut c, t0) = sample_catalog();
        let t1 = c
            .add_table(TableSchema::new(
                "name",
                vec![Column::new("id", ColumnType::Int)],
            ))
            .unwrap();
        let ids: Vec<TableId> = c.tables().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![t0, t1]);
    }
}
