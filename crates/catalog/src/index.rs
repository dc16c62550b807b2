//! Index definitions.

use crate::ids::{ColumnId, TableId};

/// Physical index kind.
///
/// The optimizer's access-path selection distinguishes the two the same way
/// PostgreSQL does: B-trees serve range and equality predicates, hash
/// indexes serve only equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Ordered index supporting equality and range lookups.
    BTree,
    /// Hash index supporting only equality lookups.
    Hash,
}

impl IndexKind {
    /// Short lowercase name, as printed by plan explainers.
    pub fn name(self) -> &'static str {
        match self {
            Self::BTree => "btree",
            Self::Hash => "hash",
        }
    }

    /// Whether the index can serve a range predicate (`<`, `<=`, `>`, `>=`).
    pub fn supports_range(self) -> bool {
        matches!(self, Self::BTree)
    }
}

/// A single-column secondary (or primary) index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    name: String,
    table: TableId,
    column: ColumnId,
    kind: IndexKind,
    unique: bool,
}

impl IndexDef {
    /// Creates an index definition. Prefer
    /// [`Catalog::add_index`](crate::Catalog::add_index), which validates
    /// the target.
    pub fn new(
        name: impl Into<String>,
        table: TableId,
        column: ColumnId,
        kind: IndexKind,
        unique: bool,
    ) -> Self {
        Self {
            name: name.into(),
            table,
            column,
            kind,
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

    /// Index kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_capabilities() {
        assert!(IndexKind::BTree.supports_range());
        assert!(!IndexKind::Hash.supports_range());
        assert_eq!(IndexKind::BTree.name(), "btree");
        assert_eq!(IndexKind::Hash.name(), "hash");
    }

    #[test]
    fn def_accessors() {
        let d = IndexDef::new("idx", TableId(1), ColumnId(2), IndexKind::Hash, true);
        assert_eq!(d.name(), "idx");
        assert_eq!(d.table(), TableId(1));
        assert_eq!(d.column(), ColumnId(2));
        assert_eq!(d.kind(), IndexKind::Hash);
    }
}
