//! Hash secondary indexes.

use crate::value::Value;
use std::collections::HashMap;

/// A single-column hash index mapping key values to row ids.
///
/// Serves only equality probes; NULL keys are not indexed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HashIndex {
    map: HashMap<Value, Vec<u32>>,
    entries: usize,
}

impl HashIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index over an iterator of `(row_id, key)` pairs.
    pub fn build(pairs: impl Iterator<Item = (usize, Value)>) -> Self {
        let mut idx = Self::new();
        for (row, key) in pairs {
            idx.insert(key, row);
        }
        idx
    }

    /// Inserts one entry; NULL keys are skipped.
    pub fn insert(&mut self, key: Value, row_id: usize) {
        if key.is_null() {
            return;
        }
        self.map.entry(key).or_default().push(row_id as u32);
        self.entries += 1;
    }

    /// Number of indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Row ids with key exactly equal to `key`.
    pub fn lookup_eq(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        self.map.get(key).map_or(&[], |v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_probe() {
        let i = HashIndex::build(
            [
                (0, Value::str("a")),
                (1, Value::str("b")),
                (2, Value::str("a")),
                (3, Value::Null),
            ]
            .into_iter(),
        );
        assert_eq!(i.lookup_eq(&Value::str("a")), &[0, 2]);
        assert_eq!(i.lookup_eq(&Value::str("z")), &[] as &[u32]);
        assert_eq!(i.lookup_eq(&Value::Null), &[] as &[u32]);
        assert_eq!(i.len(), 3);
        assert!(!i.is_empty());
    }
}
