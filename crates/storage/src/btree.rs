//! B-tree secondary indexes.

use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A single-column B-tree index mapping key values to row ids.
///
/// Built once after data load (the workloads are read-only), so the
/// structure favours lookup simplicity over update cost. NULL keys are not
/// indexed, matching the semantics of SQL predicates (a NULL never matches).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<u32>>,
    entries: usize,
}

impl BTreeIndex {
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

    /// Row ids with keys in the given (optional) bounds; `inclusive_*`
    /// controls bound closedness. Visits keys in order.
    pub fn lookup_range(
        &self,
        low: Option<&Value>,
        low_inclusive: bool,
        high: Option<&Value>,
        high_inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        let lo: Bound<&Value> = match low {
            Some(v) if low_inclusive => Bound::Included(v),
            Some(v) => Bound::Excluded(v),
            None => Bound::Unbounded,
        };
        let hi: Bound<&Value> = match high {
            Some(v) if high_inclusive => Bound::Included(v),
            Some(v) => Bound::Excluded(v),
            None => Bound::Unbounded,
        };
        for (_, rows) in self.map.range::<Value, _>((lo, hi)) {
            out.extend_from_slice(rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> BTreeIndex {
        BTreeIndex::build(
            [
                (0, Value::Int(10)),
                (1, Value::Int(20)),
                (2, Value::Int(20)),
                (3, Value::Int(30)),
                (4, Value::Null),
            ]
            .into_iter(),
        )
    }

    #[test]
    fn eq_lookup() {
        let i = idx();
        assert_eq!(i.lookup_eq(&Value::Int(20)), &[1, 2]);
        assert_eq!(i.lookup_eq(&Value::Int(99)), &[] as &[u32]);
        assert_eq!(i.lookup_eq(&Value::Null), &[] as &[u32]);
    }

    #[test]
    fn nulls_not_indexed() {
        let i = idx();
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn range_lookup_bounds() {
        let i = idx();
        let mut out = Vec::new();
        i.lookup_range(
            Some(&Value::Int(10)),
            false,
            Some(&Value::Int(30)),
            false,
            &mut out,
        );
        assert_eq!(out, vec![1, 2]);
        out.clear();
        i.lookup_range(Some(&Value::Int(10)), true, None, true, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        i.lookup_range(None, true, Some(&Value::Int(20)), true, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn empty_index() {
        let i = BTreeIndex::new();
        assert!(i.is_empty());
        assert_eq!(i.lookup_eq(&Value::Int(1)), &[] as &[u32]);
    }
}
