//! Index definitions.

use crate::catalog::ids::{ColumnId, TableId};

/// A single-column secondary (or primary) B-tree index definition: it
/// serves equality and range predicates, never `<>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    name: String,
    table: TableId,
    column: ColumnId,
    unique: bool,
}

impl IndexDef {
    /// Creates an index definition. Prefer
    /// [`Catalog::add_index`](crate::catalog::Catalog::add_index), which validates
    /// the target.
    pub fn new(name: impl Into<String>, table: TableId, column: ColumnId, unique: bool) -> Self {
        Self {
            name: name.into(),
            table,
            column,
            unique,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Indexed column.
    pub fn column(&self) -> ColumnId {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_accessors() {
        let d = IndexDef::new("idx", TableId(1), ColumnId(2), true);
        assert_eq!(d.name(), "idx");
        assert_eq!(d.table(), TableId(1));
        assert_eq!(d.column(), ColumnId(2));
    }
}
