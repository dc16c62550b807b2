//! Sorted-array secondary indexes.

use crate::column::ColumnVector;
use crate::value::Value;
use std::ops::Range;

/// A single-column secondary index: every distinct key once, ascending,
/// each with the ids of the rows that hold it.
///
/// Three flat arrays stand in for a tree. `keys` holds the distinct keys
/// in [`Value`]'s total order; key `i`'s rows are `rows[starts[i] ..
/// starts[i + 1]]` (the last key's run to the end of `rows`), ascending.
/// Since the rows are grouped in key order, an equality probe is one
/// binary search and a one-sided range is one `partition_point` plus one
/// slice copy. Row ids are positional, so the index is rebuilt whole
/// from its column whenever the table moves ([`SortedIndex::build`] sorts
/// once) and never updated in place. NULL keys are not indexed, matching
/// the semantics of SQL predicates (a NULL never matches).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortedIndex {
    keys: Vec<Value>,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl SortedIndex {
    /// Builds the index over every row of `col`. A plain integer column
    /// radix-sorts `(key, row)` pairs (`radix_sort`); a
    /// run-length-encoded column sorts one `(key, rows)` entry per
    /// non-NULL run; other encodings read one key per row.
    pub fn build(col: &ColumnVector) -> Self {
        let mut idx = Self::default();
        match col {
            ColumnVector::Int(vals, valid) => {
                let mut pairs: Vec<(i64, u32)> = (0u32..)
                    .zip(vals.iter().zip(valid))
                    .filter_map(|(row, (&v, &ok))| ok.then_some((v, row)))
                    .collect();
                // Stable: pairs are read in row order, so each key's rows
                // stay ascending.
                radix_sort(&mut pairs);
                idx.rows.reserve_exact(pairs.len());
                let mut last = None;
                for (key, row) in pairs {
                    if last != Some(key) {
                        idx.starts.push(idx.rows.len() as u32);
                        idx.keys.push(Value::Int(key));
                        last = Some(key);
                    }
                    idx.rows.push(row);
                }
            }
            ColumnVector::Rle(r) => idx.push_sorted(
                (0..r.ends.len())
                    .filter(|&k| r.valid[k])
                    .map(|k| (r.run_value(k), r.run_start(k) as u32..r.ends[k]))
                    .collect(),
            ),
            _ => idx.push_sorted(
                (0..col.len() as u32)
                    .filter(|&row| !col.is_null(row as usize))
                    .map(|row| (col.get(row as usize), row..row + 1))
                    .collect(),
            ),
        }
        idx
    }

    /// Appends `entries` after a stable sort by key: row ranges that
    /// share a key stay in the (ascending) order they were read in, and
    /// extend that key's rows.
    fn push_sorted(&mut self, mut entries: Vec<(Value, Range<u32>)>) {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, rows) in entries {
            if self.keys.last() != Some(&key) {
                self.starts.push(self.rows.len() as u32);
                self.keys.push(key);
            }
            self.rows.extend(rows);
        }
    }

    /// Number of indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows of keys `keys.start .. keys.end`, in key order.
    fn rows_of(&self, keys: Range<usize>) -> &[u32] {
        let at = |k: usize| self.starts.get(k).map_or(self.rows.len(), |&s| s as usize);
        &self.rows[at(keys.start)..at(keys.end)]
    }

    /// Row ids with key exactly equal to `key`.
    pub fn lookup_eq(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        match self.keys.binary_search(key) {
            Ok(k) => self.rows_of(k..k + 1),
            Err(_) => &[],
        }
    }

    /// Row ids with keys in the given (optional) bounds; `inclusive_*`
    /// controls bound closedness. Visits keys in order; bounds that
    /// cross select nothing.
    pub fn lookup_range(
        &self,
        low: Option<&Value>,
        low_inclusive: bool,
        high: Option<&Value>,
        high_inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        let lo = low.map_or(0, |v| {
            self.keys
                .partition_point(|k| if low_inclusive { k < v } else { k <= v })
        });
        let hi = high.map_or(self.keys.len(), |v| {
            self.keys
                .partition_point(|k| if high_inclusive { k <= v } else { k < v })
        });
        if lo < hi {
            out.extend_from_slice(self.rows_of(lo..hi));
        }
    }
}

/// Sorts `(key, row)` pairs by key, stably: a least-significant-digit
/// radix sort, one byte of the key a pass, each pass a stable scatter,
/// so pairs that share a key keep the order they came in. The result is
/// the stable comparison sort's, pair for pair. One read of the keys
/// counts every byte's digits; a byte that is the same in every key
/// (the high bytes of small keys) costs no pass.
///
/// A comparison sort was ≈ 70 % of a foreign-key index build: 35 of
/// 48 µs for `cast_info`'s `movie_id` (1 500 rows, 146 keys), where
/// this sort takes ≈ 20.
fn radix_sort(pairs: &mut Vec<(i64, u32)>) {
    let n = pairs.len();
    if n < 2 {
        return;
    }
    // Flipping the sign bit makes unsigned byte order signed order.
    let digits = |key: i64| (key as u64) ^ (1 << 63);
    let mut counts = [[0u32; 256]; 8];
    for &(key, _) in pairs.iter() {
        let key = digits(key);
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * byte)) as usize & 0xff] += 1;
        }
    }
    let mut from = std::mem::take(pairs);
    let mut to = vec![(0i64, 0u32); n];
    for (byte, count) in counts.iter().enumerate() {
        if count.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut at = [0u32; 256];
        let mut sum = 0;
        for (at, &c) in at.iter_mut().zip(count) {
            *at = sum;
            sum += c;
        }
        for &(key, row) in &from {
            let digit = (digits(key) >> (8 * byte)) as usize & 0xff;
            to[at[digit] as usize] = (key, row);
            at[digit] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *pairs = from;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnType;
    use crate::column::Encoding;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    fn column(ty: ColumnType, values: &[Value]) -> ColumnVector {
        let mut col = ColumnVector::new(ty);
        for v in values {
            assert!(col.push(v));
        }
        col
    }

    fn idx() -> SortedIndex {
        SortedIndex::build(&column(
            ColumnType::Int,
            &[
                Value::Int(10),
                Value::Int(20),
                Value::Int(20),
                Value::Int(30),
                Value::Null,
            ],
        ))
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
        out.clear();
        i.lookup_range(
            Some(&Value::Int(30)),
            true,
            Some(&Value::Int(10)),
            true,
            &mut out,
        );
        assert!(out.is_empty(), "crossed bounds select nothing");
    }

    #[test]
    fn empty_index() {
        let i = SortedIndex::default();
        assert!(i.is_empty());
        assert_eq!(i.lookup_eq(&Value::Int(1)), &[] as &[u32]);
        let mut out = Vec::new();
        i.lookup_range(None, true, Some(&Value::Int(1)), true, &mut out);
        assert!(out.is_empty());
    }

    /// The index as a `BTreeMap` from key to rows, built one row at a
    /// time: the answers [`SortedIndex`] must reproduce.
    fn reference(col: &ColumnVector) -> BTreeMap<Value, Vec<u32>> {
        let mut map: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for row in 0..col.len() {
            let key = col.get(row);
            if !key.is_null() {
                map.entry(key).or_default().push(row as u32);
            }
        }
        map
    }

    fn reference_range(
        map: &BTreeMap<Value, Vec<u32>>,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Vec<u32> {
        map.range::<Value, _>((lo, hi))
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect()
    }

    fn bound(v: Option<&Value>, inclusive: bool) -> Bound<&Value> {
        match v {
            Some(v) if inclusive => Bound::Included(v),
            Some(v) => Bound::Excluded(v),
            None => Bound::Unbounded,
        }
    }

    /// Checks every probe the executor makes (equality, and each
    /// one-sided range) at each key, between keys, beyond both ends and
    /// at NULL, plus `len`.
    fn assert_matches_reference(col: &ColumnVector) {
        let index = SortedIndex::build(col);
        let map = reference(col);
        assert_eq!(index.len(), map.values().map(Vec::len).sum::<usize>());
        assert_eq!(index.is_empty(), map.is_empty());
        let mut probes: Vec<Value> = vec![Value::Null];
        for key in map.keys() {
            probes.push(key.clone());
            match key {
                Value::Int(x) => probes.extend([Value::Int(x - 1), Value::Int(x + 1)]),
                Value::Str(s) => probes.extend([Value::str(format!("{s}~")), Value::str("")]),
                _ => {}
            }
        }
        probes.extend([
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::str("zzz"),
        ]);
        let fits = |p: &Value| match p {
            Value::Int(_) => col.ty() == ColumnType::Int,
            Value::Str(_) => col.ty() == ColumnType::Text,
            _ => true,
        };
        for probe in probes.iter().filter(|p| fits(p)) {
            let want: &[u32] = if probe.is_null() {
                &[]
            } else {
                map.get(probe).map_or(&[], Vec::as_slice)
            };
            assert_eq!(index.lookup_eq(probe), want, "= {probe}");
            for (lo_inc, hi_inc, lo, hi) in [
                (true, true, None, Some(probe)),
                (true, false, None, Some(probe)),
                (false, true, Some(probe), None),
                (true, true, Some(probe), None),
            ] {
                let want = reference_range(&map, bound(lo, lo_inc), bound(hi, hi_inc));
                let mut got = Vec::new();
                index.lookup_range(lo, lo_inc, hi, hi_inc, &mut got);
                assert_eq!(got, want, "range {lo:?}({lo_inc}) .. {hi:?}({hi_inc})");
            }
        }
    }

    #[test]
    fn single_row_and_all_null_columns() {
        for values in [vec![], vec![Value::Int(5)], vec![Value::Null, Value::Null]] {
            let col = column(ColumnType::Int, &values);
            assert_matches_reference(&col);
            assert_matches_reference(&col.reencoded(Encoding::Rle));
        }
        let text = column(ColumnType::Text, &[Value::str("x")]);
        for enc in [Encoding::Plain, Encoding::Dict, Encoding::Rle] {
            assert_matches_reference(&text.reencoded(enc));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sorted-array index answers every probe as a
        /// `BTreeMap<Value, Vec<u32>>` over the same rows: same row ids
        /// in the same order, on every encoding. Runs of repeated keys
        /// make the RLE columns' runs; a key domain smaller than the row
        /// count makes duplicates.
        #[test]
        fn sorted_index_answers_as_the_btree_map(
            cells in prop::collection::vec((0u8..10, 1usize..6, -20i64..20), 0..40),
        ) {
            let mut ints = Vec::new();
            let mut texts = Vec::new();
            for &(null, run, key) in &cells {
                let (int, text) = if null == 0 {
                    (Value::Null, Value::Null)
                } else {
                    (Value::Int(key), Value::str(format!("k{key}")))
                };
                ints.extend(std::iter::repeat_n(int, run));
                texts.extend(std::iter::repeat_n(text, run));
            }
            let ints = column(ColumnType::Int, &ints);
            let texts = column(ColumnType::Text, &texts);
            let columns = [
                (ints.clone(), Encoding::Plain),
                (ints.reencoded(Encoding::Rle), Encoding::Rle),
                (texts.clone(), Encoding::Plain),
                (texts.reencoded(Encoding::Dict), Encoding::Dict),
                (texts.reencoded(Encoding::Rle), Encoding::Rle),
            ];
            for (col, enc) in &columns {
                if !col.is_empty() {
                    prop_assert_eq!(col.encoding(), *enc);
                }
                assert_matches_reference(col);
            }
        }

        /// A plain integer column's index is array for array the one a
        /// stable comparison sort of its `(key, row)` pairs gives, on
        /// keys with duplicates, NULLs, both extremes, and bytes that
        /// differ high up as well as low down.
        #[test]
        fn radix_sorted_index_equals_the_stable_sorts(
            cells in prop::collection::vec((0u8..10, 0u8..8, -300i64..300), 0..300),
        ) {
            let values: Vec<Value> = cells
                .iter()
                .map(|&(null, kind, k)| match (null, kind) {
                    (0, _) => Value::Null,
                    (_, 0..=3) => Value::Int(k),
                    (_, 4) => Value::Int(i64::MIN + k.abs() % 3),
                    (_, 5) => Value::Int(i64::MAX - k.abs() % 3),
                    (_, 6) => Value::Int(k << 40),
                    _ => Value::Int(k.wrapping_mul(0x0101_0101_0101_0101)),
                })
                .collect();
            let col = column(ColumnType::Int, &values);
            prop_assert_eq!(SortedIndex::build(&col), stable_sorted(&col));
        }
    }

    /// The index of a plain integer column as the stable comparison sort
    /// of its `(key, row)` pairs builds it.
    fn stable_sorted(col: &ColumnVector) -> SortedIndex {
        let ColumnVector::Int(vals, valid) = col else {
            panic!("a plain integer column")
        };
        let mut pairs: Vec<(i64, u32)> = (0u32..)
            .zip(vals.iter().zip(valid))
            .filter_map(|(row, (&v, &ok))| ok.then_some((v, row)))
            .collect();
        pairs.sort_by_key(|&(key, _)| key);
        let mut idx = SortedIndex::default();
        for (key, row) in pairs {
            if idx.keys.last() != Some(&Value::Int(key)) {
                idx.starts.push(idx.rows.len() as u32);
                idx.keys.push(Value::Int(key));
            }
            idx.rows.push(row);
        }
        idx
    }
}
