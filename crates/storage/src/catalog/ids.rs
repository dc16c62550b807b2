//! Small copyable identifiers used throughout the system.
//!
//! All identifiers are dense indexes into the owning [`Catalog`]'s vectors,
//! so lookups are O(1) and the ids can be used directly as array indexes in
//! hot paths (the cost model and the RL featurizer do exactly that).
//!
//! [`Catalog`]: crate::catalog::Catalog

use std::fmt;

/// Identifies a table within a [`Catalog`](crate::catalog::Catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifies a column *within its table* (position in the table schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u32);

/// Identifies an index within a [`Catalog`](crate::catalog::Catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// A fully-qualified column reference: `(table, column)`.
///
/// This is the currency of predicates, statistics lookups, and index
/// matching. It intentionally refers to *catalog* tables; query-level
/// relation aliases are resolved to these by the binder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Owning table.
    pub table: TableId,
    /// Column position within the table.
    pub column: ColumnId,
}

impl ColumnRef {
    /// Creates a column reference.
    pub fn new(table: TableId, column: ColumnId) -> Self {
        Self { table, column }
    }
}

impl TableId {
    /// The id as a `usize`, for indexing into dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ColumnId {
    /// The id as a `usize`, for indexing into dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl IndexId {
    /// The id as a `usize`, for indexing into dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = TableId(1);
        let b = TableId(2);
        assert!(a < b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(TableId(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn column_ref_display() {
        let r = ColumnRef::new(TableId(3), ColumnId(7));
        assert_eq!(r.to_string(), "t3.c7");
        assert_eq!(r.table.index(), 3);
        assert_eq!(r.column.index(), 7);
    }
}
