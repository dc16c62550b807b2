//! Typed column vectors with null bitmaps.
//!
//! Three physical encodings back the two logical scalar types beyond the
//! plain dense vectors: [`ColumnVector::Dict`] stores low-cardinality text
//! as per-row `u32` codes into a distinct-value dictionary, and
//! [`ColumnVector::Rle`] run-length-encodes integer or dictionary-coded
//! data when adjacent rows repeat. Both are transparent to every accessor
//! (`get`, `is_null`, `str_at`, `sql_cmp_at`, `total_cmp_at`, the bulk
//! copy/gather paths): the logical row sequence, type, and comparison
//! semantics are identical to the plain encoding, so query results and
//! the executor's work accounting never depend on the physical layout.
//!
//! [`RleColumn`] invariants (checked by construction in
//! [`ColumnVector::rle_encoded`] and `RleColumn::push_value`):
//!
//! - `ends` holds the *exclusive* end row of each run, is strictly
//!   increasing, and its last entry equals the row count; run `k` covers
//!   rows `ends[k-1] .. ends[k]` (run 0 starts at row 0).
//! - `valid` and the value vector inside [`RleValues`] have exactly one
//!   entry per run; a run is either all-NULL (`valid[k] == false`) or
//!   all-present — NULL runs keep a placeholder value (0) that is never
//!   dereferenced, mirroring the `Dict` NULL-code rule.
//! - Only integer and dictionary-coded text domains are run-length
//!   encoded ([`RleValues::Int`] / [`RleValues::Dict`]); floats and plain
//!   strings never are, so float bit patterns are never re-derived from a
//!   run representative.

use crate::catalog::ColumnType;
use crate::value::Value;
use std::sync::Arc;

/// Columnar storage for one column.
///
/// Values are stored in dense typed vectors; NULLs are tracked by a
/// separate boolean validity vector (`true` = present). This mirrors the
/// layout of analytical engines and lets scans touch only the bytes of the
/// columns they actually read.
#[derive(Debug, Clone)]
pub enum ColumnVector {
    /// Integer data plus validity.
    Int(Vec<i64>, Vec<bool>),
    /// Float data plus validity.
    Float(Vec<f64>, Vec<bool>),
    /// String data plus validity.
    Str(Vec<Arc<str>>, Vec<bool>),
    /// Dictionary-encoded string data: per-row codes plus validity, and
    /// the distinct string values the codes index into. Low-cardinality
    /// text columns (IMDB's `kind`, `note`, `phonetic_code`, ...) shrink
    /// from one `Arc<str>` per row to 4 bytes per row, and equality
    /// comparisons stay on the decoded strings so the logical type is
    /// still [`ColumnType::Text`]. Codes of NULL rows are always 0 and
    /// must never be dereferenced — every accessor checks validity first.
    Dict(Vec<u32>, Vec<bool>, Vec<Arc<str>>),
    /// Run-length-encoded data over integer values or dictionary codes.
    /// Chosen automatically at load time when the average run length
    /// clears a threshold (see [`ColumnVector::rle_encoded`]); sorted or
    /// blocky columns (foreign keys clustered by parent, enum-ish flags)
    /// shrink to one entry per run and let run-aware scan kernels accept
    /// or reject whole runs at once. See the module docs for the
    /// invariants.
    Rle(RleColumn),
}

/// The physical encoding of a [`ColumnVector`] — the *layout*, distinct
/// from the logical [`ColumnType`]. Mutation paths that rebuild a column
/// (bulk delete, skew shift) use this to hand back the same layout they
/// found, so a drifted database keeps exercising the encoding the loader
/// chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Dense typed vector.
    Plain,
    /// Dictionary-coded text ([`ColumnVector::Dict`]).
    Dict,
    /// Run-length-encoded integers or dictionary codes
    /// ([`ColumnVector::Rle`]).
    Rle,
}

/// The runs of a [`ColumnVector::Rle`] column. See the module docs for
/// the structural invariants.
#[derive(Debug, Clone)]
pub struct RleColumn {
    /// Exclusive end row of each run; strictly increasing, last entry
    /// equals the row count.
    pub ends: Vec<u32>,
    /// Per-run validity (`true` = the run's rows are present).
    pub valid: Vec<bool>,
    /// Per-run values.
    pub values: RleValues,
}

/// Per-run payload of a [`RleColumn`].
#[derive(Debug, Clone)]
pub enum RleValues {
    /// One integer per run.
    Int(Vec<i64>),
    /// One dictionary code per run, plus the shared dictionary. Codes of
    /// NULL runs are 0 and never dereferenced.
    Dict(Vec<u32>, Vec<Arc<str>>),
}

impl RleColumn {
    /// The column's logical type.
    pub fn ty(&self) -> ColumnType {
        match self.values {
            RleValues::Int(_) => ColumnType::Int,
            RleValues::Dict(..) => ColumnType::Text,
        }
    }

    /// Number of rows (not runs).
    pub fn len(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of runs.
    pub(crate) fn run_count(&self) -> usize {
        self.ends.len()
    }

    /// The run covering `row` (binary search over run ends).
    #[inline]
    pub fn run_of(&self, row: usize) -> usize {
        self.ends.partition_point(|&e| e as usize <= row)
    }

    /// First row of run `k`.
    #[inline]
    pub(crate) fn run_start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.ends[k - 1] as usize
        }
    }

    /// One-past-the-last row of run `k`.
    #[inline]
    pub fn run_end(&self, k: usize) -> usize {
        self.ends[k] as usize
    }

    /// The value shared by every row of run `k` (`Value::Null` for a
    /// NULL run).
    pub fn run_value(&self, k: usize) -> Value {
        if !self.valid[k] {
            return Value::Null;
        }
        match &self.values {
            RleValues::Int(vals) => Value::Int(vals[k]),
            RleValues::Dict(codes, dict) => Value::Str(Arc::clone(&dict[codes[k] as usize])),
        }
    }

    /// Advances a run cursor `k` to the run covering `row`. Linear for
    /// forward steps (the common monotone-scan case), binary search when
    /// the target row is behind the cursor.
    #[inline]
    pub fn seek(&self, k: usize, row: usize) -> usize {
        if row < self.run_start(k) {
            return self.run_of(row);
        }
        let mut k = k;
        while self.ends[k] as usize <= row {
            k += 1;
        }
        k
    }

    /// Appends one logical row, extending the last run when the value
    /// matches it. Returns `false` on a type mismatch.
    fn push_value(&mut self, value: &Value) -> bool {
        let last = self.ends.len().checked_sub(1);
        let new_end = self.len() as u32 + 1;
        match (&mut self.values, value) {
            (RleValues::Int(vals), Value::Int(x)) => {
                if let Some(k) = last {
                    if self.valid[k] && vals[k] == *x {
                        self.ends[k] += 1;
                        return true;
                    }
                }
                vals.push(*x);
            }
            (RleValues::Dict(codes, dict), Value::Str(s)) => {
                let code = dict_code(dict, s.as_ref());
                if let Some(k) = last {
                    if self.valid[k] && codes[k] == code {
                        self.ends[k] += 1;
                        return true;
                    }
                }
                codes.push(code);
            }
            (vals, Value::Null) => {
                if let Some(k) = last {
                    if !self.valid[k] {
                        self.ends[k] += 1;
                        return true;
                    }
                }
                match vals {
                    RleValues::Int(vals) => vals.push(0),
                    RleValues::Dict(codes, _) => codes.push(0),
                }
                self.valid.push(false);
                self.ends.push(new_end);
                return true;
            }
            _ => return false,
        }
        self.valid.push(true);
        self.ends.push(new_end);
        true
    }
}

impl ColumnVector {
    /// An empty vector for the given type.
    pub fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Self::Int(Vec::new(), Vec::new()),
            ColumnType::Float => Self::Float(Vec::new(), Vec::new()),
            ColumnType::Text => Self::Str(Vec::new(), Vec::new()),
        }
    }

    /// An empty vector with pre-reserved capacity.
    pub fn with_capacity(ty: ColumnType, cap: usize) -> Self {
        match ty {
            ColumnType::Int => Self::Int(Vec::with_capacity(cap), Vec::with_capacity(cap)),
            ColumnType::Float => Self::Float(Vec::with_capacity(cap), Vec::with_capacity(cap)),
            ColumnType::Text => Self::Str(Vec::with_capacity(cap), Vec::with_capacity(cap)),
        }
    }

    /// The column's logical type.
    pub fn ty(&self) -> ColumnType {
        match self {
            Self::Int(..) => ColumnType::Int,
            Self::Float(..) => ColumnType::Float,
            Self::Str(..) | Self::Dict(..) => ColumnType::Text,
            Self::Rle(r) => r.ty(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Self::Int(v, _) => v.len(),
            Self::Float(v, _) => v.len(),
            Self::Str(v, _) => v.len(),
            Self::Dict(codes, _, _) => codes.len(),
            Self::Rle(r) => r.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value; `Value::Null` appends a NULL. Returns `false` when
    /// the value's type does not match the column type.
    pub fn push(&mut self, value: &Value) -> bool {
        match (self, value) {
            (Self::Int(v, n), Value::Int(x)) => {
                v.push(*x);
                n.push(true);
            }
            (Self::Int(v, n), Value::Null) => {
                v.push(0);
                n.push(false);
            }
            (Self::Float(v, n), Value::Float(x)) => {
                v.push(*x);
                n.push(true);
            }
            (Self::Float(v, n), Value::Int(x)) => {
                v.push(*x as f64);
                n.push(true);
            }
            (Self::Float(v, n), Value::Null) => {
                v.push(0.0);
                n.push(false);
            }
            (Self::Str(v, n), Value::Str(s)) => {
                v.push(Arc::clone(s));
                n.push(true);
            }
            (Self::Str(v, n), Value::Null) => {
                v.push(Arc::from(""));
                n.push(false);
            }
            (Self::Dict(codes, n, values), Value::Str(s)) => {
                codes.push(dict_code(values, s.as_ref()));
                n.push(true);
            }
            (Self::Dict(codes, n, _), Value::Null) => {
                codes.push(0);
                n.push(false);
            }
            (Self::Rle(r), v) => return r.push_value(v),
            _ => return false,
        }
        true
    }

    /// The value at `row`. Panics if out of bounds (callers iterate within
    /// `0..len()`; the executor never indexes past the row count).
    #[inline]
    pub fn get(&self, row: usize) -> Value {
        match self {
            Self::Int(v, n) => {
                if n[row] {
                    Value::Int(v[row])
                } else {
                    Value::Null
                }
            }
            Self::Float(v, n) => {
                if n[row] {
                    Value::Float(v[row])
                } else {
                    Value::Null
                }
            }
            Self::Str(v, n) => {
                if n[row] {
                    Value::Str(Arc::clone(&v[row]))
                } else {
                    Value::Null
                }
            }
            Self::Dict(codes, n, values) => {
                if n[row] {
                    Value::Str(Arc::clone(&values[codes[row] as usize]))
                } else {
                    Value::Null
                }
            }
            Self::Rle(r) => r.run_value(r.run_of(row)),
        }
    }

    /// Appends the value of row `i` onto `out[i]`, for every row — the
    /// executor's bulk row export. One monomorphic loop per variant
    /// (run-aware for RLE) instead of a per-cell [`ColumnVector::get`]
    /// match; results are identical. `out` must hold exactly `len()`
    /// rows.
    pub fn values_onto(&self, out: &mut [Vec<Value>]) {
        debug_assert_eq!(out.len(), self.len());
        match self {
            Self::Int(v, n) => {
                for ((slot, v), ok) in out.iter_mut().zip(v).zip(n) {
                    slot.push(if *ok { Value::Int(*v) } else { Value::Null });
                }
            }
            Self::Float(v, n) => {
                for ((slot, v), ok) in out.iter_mut().zip(v).zip(n) {
                    slot.push(if *ok { Value::Float(*v) } else { Value::Null });
                }
            }
            Self::Str(v, n) => {
                for ((slot, v), ok) in out.iter_mut().zip(v).zip(n) {
                    slot.push(if *ok {
                        Value::Str(Arc::clone(v))
                    } else {
                        Value::Null
                    });
                }
            }
            Self::Dict(codes, n, values) => {
                for ((slot, code), ok) in out.iter_mut().zip(codes).zip(n) {
                    slot.push(if *ok {
                        Value::Str(Arc::clone(&values[*code as usize]))
                    } else {
                        Value::Null
                    });
                }
            }
            Self::Rle(r) => {
                // One value materialisation per run, cloned across it.
                let mut rows = out.iter_mut();
                for k in 0..r.run_count() {
                    let v = r.run_value(k);
                    for slot in rows.by_ref().take(r.run_end(k) - r.run_start(k)) {
                        slot.push(v.clone());
                    }
                }
            }
        }
    }

    /// Whether the value at `row` is NULL.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            Self::Int(_, n) | Self::Float(_, n) | Self::Str(_, n) | Self::Dict(_, n, _) => !n[row],
            Self::Rle(r) => !r.valid[r.run_of(row)],
        }
    }

    /// The decoded string at `row` without cloning an `Arc`; `None` when
    /// NULL or when the column is not a text column.
    #[inline]
    pub(crate) fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            Self::Str(v, n) if n[row] => Some(v[row].as_ref()),
            Self::Dict(codes, n, values) if n[row] => Some(values[codes[row] as usize].as_ref()),
            Self::Rle(r) => match (&r.values, r.run_of(row)) {
                (RleValues::Dict(codes, dict), k) if r.valid[k] => {
                    Some(dict[codes[k] as usize].as_ref())
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Three-valued SQL comparison of `self[row]` against
    /// `other[other_row]` without materialising [`Value`]s — `None` when
    /// either side is NULL. Matches `Value::sql_cmp` semantics exactly
    /// (cross-numeric comparison via `f64`; the rare mixed
    /// numeric/text pair falls back to the `Value` path).
    #[inline]
    pub fn sql_cmp_at(
        &self,
        row: usize,
        other: &ColumnVector,
        other_row: usize,
    ) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        match (self, other) {
            (Self::Int(a, an), Self::Int(b, bn)) => {
                (an[row] && bn[other_row]).then(|| a[row].cmp(&b[other_row]))
            }
            (Self::Float(a, an), Self::Float(b, bn)) => (an[row] && bn[other_row])
                .then(|| a[row].partial_cmp(&b[other_row]).unwrap_or(Ordering::Equal)),
            (Self::Int(a, an), Self::Float(b, bn)) => (an[row] && bn[other_row]).then(|| {
                (a[row] as f64)
                    .partial_cmp(&b[other_row])
                    .unwrap_or(Ordering::Equal)
            }),
            (Self::Float(a, an), Self::Int(b, bn)) => (an[row] && bn[other_row]).then(|| {
                a[row]
                    .partial_cmp(&(b[other_row] as f64))
                    .unwrap_or(Ordering::Equal)
            }),
            (Self::Str(..) | Self::Dict(..), Self::Str(..) | Self::Dict(..)) => {
                match (self.str_at(row), other.str_at(other_row)) {
                    (Some(a), Some(b)) => Some(a.cmp(b)),
                    _ => None,
                }
            }
            // Mixed numeric/text and run-length-encoded operands:
            // delegate to the Value semantics (RLE pairs only appear on
            // cold paths — executor chunks are always plain).
            _ => self.get(row).sql_cmp(&other.get(other_row)),
        }
    }

    /// Total-order comparison (NULLs last, cross-numeric via `f64`) of
    /// `self[row]` against `other[other_row]` without materialising
    /// [`Value`]s — matches `Value::total_cmp` exactly. Sort operators
    /// and merge joins use this as their comparator.
    #[inline]
    pub fn total_cmp_at(
        &self,
        row: usize,
        other: &ColumnVector,
        other_row: usize,
    ) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        // NULLs sort last; two NULLs compare equal.
        let nulls = |a_valid: bool, b_valid: bool| match (a_valid, b_valid) {
            (true, true) => None,
            (false, false) => Some(Ordering::Equal),
            (false, true) => Some(Ordering::Greater),
            (true, false) => Some(Ordering::Less),
        };
        match (self, other) {
            (Self::Int(a, an), Self::Int(b, bn)) => {
                nulls(an[row], bn[other_row]).unwrap_or_else(|| a[row].cmp(&b[other_row]))
            }
            (Self::Float(a, an), Self::Float(b, bn)) => nulls(an[row], bn[other_row])
                .unwrap_or_else(|| a[row].partial_cmp(&b[other_row]).unwrap_or(Ordering::Equal)),
            (Self::Int(a, an), Self::Float(b, bn)) => {
                nulls(an[row], bn[other_row]).unwrap_or_else(|| {
                    (a[row] as f64)
                        .partial_cmp(&b[other_row])
                        .unwrap_or(Ordering::Equal)
                })
            }
            (Self::Float(a, an), Self::Int(b, bn)) => {
                nulls(an[row], bn[other_row]).unwrap_or_else(|| {
                    a[row]
                        .partial_cmp(&(b[other_row] as f64))
                        .unwrap_or(Ordering::Equal)
                })
            }
            (Self::Str(..) | Self::Dict(..), Self::Str(..) | Self::Dict(..)) => {
                match (self.str_at(row), other.str_at(other_row)) {
                    (Some(a), Some(b)) => a.cmp(b),
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => Ordering::Greater,
                    (Some(_), None) => Ordering::Less,
                }
            }
            // Mixed numeric/text and run-length-encoded operands:
            // delegate to the Value semantics.
            _ => self.get(row).total_cmp(&other.get(other_row)),
        }
    }

    /// Clears the vector, keeping its allocation.
    pub fn clear(&mut self) {
        match self {
            Self::Int(v, n) => {
                v.clear();
                n.clear();
            }
            Self::Float(v, n) => {
                v.clear();
                n.clear();
            }
            Self::Str(v, n) => {
                v.clear();
                n.clear();
            }
            Self::Dict(codes, n, values) => {
                codes.clear();
                n.clear();
                values.clear();
            }
            Self::Rle(r) => {
                r.ends.clear();
                r.valid.clear();
                match &mut r.values {
                    RleValues::Int(vals) => vals.clear(),
                    RleValues::Dict(codes, dict) => {
                        codes.clear();
                        dict.clear();
                    }
                }
            }
        }
    }

    /// Appends `src[row]` to `self` without materialising a [`Value`] —
    /// the executor's fast path for copying fixed-width data between
    /// columnar chunks. Panics if the column types differ (batch
    /// pipelines construct their chunks from the same schema, so a
    /// mismatch is a programming error, not a data error).
    #[inline]
    pub(crate) fn push_from(&mut self, src: &ColumnVector, row: usize) {
        match (self, src) {
            (Self::Int(v, n), Self::Int(sv, sn)) => {
                v.push(sv[row]);
                n.push(sn[row]);
            }
            (Self::Float(v, n), Self::Float(sv, sn)) => {
                v.push(sv[row]);
                n.push(sn[row]);
            }
            (Self::Str(v, n), Self::Str(sv, sn)) => {
                v.push(Arc::clone(&sv[row]));
                n.push(sn[row]);
            }
            (Self::Str(v, n), Self::Dict(codes, sn, values)) => {
                if sn[row] {
                    v.push(Arc::clone(&values[codes[row] as usize]));
                    n.push(true);
                } else {
                    v.push(Arc::from(""));
                    n.push(false);
                }
            }
            (Self::Int(v, n), Self::Rle(r)) if matches!(r.values, RleValues::Int(_)) => {
                let k = r.run_of(row);
                let RleValues::Int(vals) = &r.values else {
                    unreachable!("guarded by the match arm")
                };
                v.push(vals[k]);
                n.push(r.valid[k]);
            }
            (Self::Str(v, n), Self::Rle(r)) if r.ty() == ColumnType::Text => {
                let k = r.run_of(row);
                let RleValues::Dict(codes, dict) = &r.values else {
                    unreachable!("guarded by the match arm")
                };
                if r.valid[k] {
                    v.push(Arc::clone(&dict[codes[k] as usize]));
                    n.push(true);
                } else {
                    v.push(Arc::from(""));
                    n.push(false);
                }
            }
            (dst @ Self::Dict(..), src @ (Self::Str(..) | Self::Dict(..) | Self::Rle(..)))
                if src.ty() == ColumnType::Text =>
            {
                let decoded = src.str_at(row);
                let Self::Dict(codes, n, values) = dst else {
                    unreachable!("guarded by the match arm")
                };
                match decoded {
                    Some(s) => {
                        codes.push(dict_code(values, s));
                        n.push(true);
                    }
                    None => {
                        codes.push(0);
                        n.push(false);
                    }
                }
            }
            (dst @ Self::Rle(..), src) if dst.ty() == src.ty() => {
                // RLE destinations re-encode on insert (cold path: the
                // executor never builds RLE chunks, only reads them).
                let ok = dst.push(&src.get(row));
                debug_assert!(ok, "type equality checked by the match guard");
            }
            (dst, src) => panic!(
                "column type mismatch: cannot append {} into {}",
                src.ty().name(),
                dst.ty().name()
            ),
        }
    }

    /// Appends all of `src` to `self` — a bulk column concatenation
    /// (`memcpy` for fixed-width data). Panics on type mismatch, like
    /// `ColumnVector::push_from`.
    pub fn append_column(&mut self, src: &ColumnVector) {
        match (self, src) {
            (Self::Int(v, n), Self::Int(sv, sn)) => {
                v.extend_from_slice(sv);
                n.extend_from_slice(sn);
            }
            (Self::Float(v, n), Self::Float(sv, sn)) => {
                v.extend_from_slice(sv);
                n.extend_from_slice(sn);
            }
            (Self::Str(v, n), Self::Str(sv, sn)) => {
                v.extend(sv.iter().cloned());
                n.extend_from_slice(sn);
            }
            (Self::Dict(codes, n, values), Self::Dict(sc, sn, sv)) if values == sv => {
                codes.extend_from_slice(sc);
                n.extend_from_slice(sn);
            }
            (dst, src) if dst.ty() == src.ty() => {
                // Mixed text representations (plain ↔ dictionary, or two
                // dictionaries with different code spaces): re-encode row
                // by row.
                for row in 0..src.len() {
                    dst.push_from(src, row);
                }
            }
            (dst, src) => panic!(
                "column type mismatch: cannot append {} column into {}",
                src.ty().name(),
                dst.ty().name()
            ),
        }
    }

    /// Appends the contiguous range `src[start .. start + len]` to `self`
    /// — the scan fast path for unfiltered table chunks, a `memcpy` for
    /// fixed-width data instead of a value-by-value gather. Panics on
    /// type mismatch, like `ColumnVector::push_from`.
    pub fn append_range(&mut self, src: &ColumnVector, start: usize, len: usize) {
        let end = start + len;
        match (self, src) {
            (Self::Int(v, n), Self::Int(sv, sn)) => {
                v.extend_from_slice(&sv[start..end]);
                n.extend_from_slice(&sn[start..end]);
            }
            (Self::Float(v, n), Self::Float(sv, sn)) => {
                v.extend_from_slice(&sv[start..end]);
                n.extend_from_slice(&sn[start..end]);
            }
            (Self::Str(v, n), Self::Str(sv, sn)) => {
                v.extend(sv[start..end].iter().cloned());
                n.extend_from_slice(&sn[start..end]);
            }
            (Self::Str(v, n), Self::Dict(codes, sn, values)) => {
                v.extend(
                    codes[start..end]
                        .iter()
                        .zip(&sn[start..end])
                        .map(|(&code, &valid)| {
                            if valid {
                                Arc::clone(&values[code as usize])
                            } else {
                                Arc::from("")
                            }
                        }),
                );
                n.extend_from_slice(&sn[start..end]);
            }
            (Self::Int(v, n), Self::Rle(r)) if matches!(r.values, RleValues::Int(_)) => {
                // Run-aware decode: one repeat-fill per run instead of a
                // binary search per row.
                let RleValues::Int(vals) = &r.values else {
                    unreachable!("guarded by the match arm")
                };
                let mut k = r.run_of(start);
                let mut row = start;
                while row < end {
                    let stop = r.run_end(k).min(end);
                    v.extend(std::iter::repeat_n(vals[k], stop - row));
                    n.extend(std::iter::repeat_n(r.valid[k], stop - row));
                    row = stop;
                    k += 1;
                }
            }
            (Self::Str(v, n), Self::Rle(r)) if r.ty() == ColumnType::Text => {
                let RleValues::Dict(codes, dict) = &r.values else {
                    unreachable!("guarded by the match arm")
                };
                let mut k = r.run_of(start);
                let mut row = start;
                while row < end {
                    let stop = r.run_end(k).min(end);
                    let s: Arc<str> = if r.valid[k] {
                        Arc::clone(&dict[codes[k] as usize])
                    } else {
                        Arc::from("")
                    };
                    v.extend((row..stop).map(|_| Arc::clone(&s)));
                    n.extend(std::iter::repeat_n(r.valid[k], stop - row));
                    row = stop;
                    k += 1;
                }
            }
            (dst, src) if dst.ty() == src.ty() => {
                for row in start..end {
                    dst.push_from(src, row);
                }
            }
            (dst, src) => panic!(
                "column type mismatch: cannot append {} range into {}",
                src.ty().name(),
                dst.ty().name()
            ),
        }
    }

    /// Appends `src[row]` for every row id in `rows` — a gather. The
    /// typed match happens once per call instead of once per value.
    pub fn gather_into(&self, rows: &[u32], out: &mut ColumnVector) {
        match (out, self) {
            (Self::Int(v, n), Self::Int(sv, sn)) => {
                v.extend(rows.iter().map(|&r| sv[r as usize]));
                n.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (Self::Float(v, n), Self::Float(sv, sn)) => {
                v.extend(rows.iter().map(|&r| sv[r as usize]));
                n.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (Self::Str(v, n), Self::Str(sv, sn)) => {
                v.extend(rows.iter().map(|&r| Arc::clone(&sv[r as usize])));
                n.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (Self::Str(v, n), Self::Dict(codes, sn, values)) => {
                v.extend(rows.iter().map(|&r| {
                    if sn[r as usize] {
                        Arc::clone(&values[codes[r as usize] as usize])
                    } else {
                        Arc::from("")
                    }
                }));
                n.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (Self::Int(v, n), Self::Rle(r)) if matches!(r.values, RleValues::Int(_)) => {
                // Selection vectors are (mostly) ascending, so a linear
                // run cursor amortises the per-row run lookup.
                let RleValues::Int(vals) = &r.values else {
                    unreachable!("guarded by the match arm")
                };
                let mut k = 0usize;
                for &row in rows {
                    k = r.seek(k, row as usize);
                    v.push(vals[k]);
                    n.push(r.valid[k]);
                }
            }
            (Self::Str(v, n), Self::Rle(r)) if r.ty() == ColumnType::Text => {
                let RleValues::Dict(codes, dict) = &r.values else {
                    unreachable!("guarded by the match arm")
                };
                let mut k = 0usize;
                for &row in rows {
                    k = r.seek(k, row as usize);
                    if r.valid[k] {
                        v.push(Arc::clone(&dict[codes[k] as usize]));
                        n.push(true);
                    } else {
                        v.push(Arc::from(""));
                        n.push(false);
                    }
                }
            }
            (dst, src) if dst.ty() == src.ty() => {
                for &r in rows {
                    dst.push_from(src, r as usize);
                }
            }
            (dst, src) => panic!(
                "column type mismatch: cannot gather {} into {}",
                src.ty().name(),
                dst.ty().name()
            ),
        }
    }

    /// Whether this column is dictionary-encoded.
    pub fn is_dictionary(&self) -> bool {
        matches!(self, Self::Dict(..))
    }

    /// Dictionary-encodes a plain string column, returning `None` when
    /// the column is not plain text or its cardinality exceeds
    /// `max_distinct` (encoding a near-unique column would waste memory
    /// on the dictionary without shrinking the rows).
    pub fn dictionary_encoded(&self, max_distinct: usize) -> Option<ColumnVector> {
        let Self::Str(v, n) = self else {
            return None;
        };
        let mut lookup: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut values: Vec<Arc<str>> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(v.len());
        for (s, &valid) in v.iter().zip(n.iter()) {
            if !valid {
                codes.push(0);
                continue;
            }
            let code = *lookup.entry(s.as_ref()).or_insert_with(|| {
                values.push(Arc::clone(s));
                (values.len() - 1) as u32
            });
            if values.len() > max_distinct {
                return None;
            }
            codes.push(code);
        }
        Some(Self::Dict(codes, n.clone(), values))
    }

    /// Whether this column is run-length-encoded.
    pub fn is_rle(&self) -> bool {
        matches!(self, Self::Rle(..))
    }

    /// Run-length-encodes an integer or dictionary-coded column,
    /// returning `None` when the column's domain is not run-length
    /// encodable (floats, plain strings, already-RLE), when it is empty,
    /// or when the average run length falls below `min_avg_run` (short
    /// runs would grow the footprint and defeat run skipping). Adjacent
    /// NULLs coalesce into NULL runs. `min_avg_run = 1` forces encoding
    /// of any non-empty eligible column.
    pub fn rle_encoded(&self, min_avg_run: usize) -> Option<ColumnVector> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        let rle = match self {
            Self::Int(v, n) => {
                let mut ends: Vec<u32> = Vec::new();
                let mut valid: Vec<bool> = Vec::new();
                let mut vals: Vec<i64> = Vec::new();
                for row in 0..len {
                    let same = match (valid.last(), n[row]) {
                        (Some(&false), false) => true,
                        (Some(&was), is) => was && is && *vals.last().unwrap() == v[row],
                        (None, _) => false,
                    };
                    if same {
                        *ends.last_mut().unwrap() += 1;
                    } else {
                        ends.push(row as u32 + 1);
                        valid.push(n[row]);
                        vals.push(if n[row] { v[row] } else { 0 });
                    }
                }
                RleColumn {
                    ends,
                    valid,
                    values: RleValues::Int(vals),
                }
            }
            Self::Dict(codes, n, dict) => {
                let mut ends: Vec<u32> = Vec::new();
                let mut valid: Vec<bool> = Vec::new();
                let mut run_codes: Vec<u32> = Vec::new();
                for row in 0..len {
                    let same = match (valid.last(), n[row]) {
                        (Some(&false), false) => true,
                        (Some(&was), is) => was && is && *run_codes.last().unwrap() == codes[row],
                        (None, _) => false,
                    };
                    if same {
                        *ends.last_mut().unwrap() += 1;
                    } else {
                        ends.push(row as u32 + 1);
                        valid.push(n[row]);
                        run_codes.push(if n[row] { codes[row] } else { 0 });
                    }
                }
                RleColumn {
                    ends,
                    valid,
                    values: RleValues::Dict(run_codes, dict.clone()),
                }
            }
            _ => return None,
        };
        if rle.run_count() * min_avg_run.max(1) > len {
            return None;
        }
        Some(Self::Rle(rle))
    }

    /// The column's physical [`Encoding`].
    pub(crate) fn encoding(&self) -> Encoding {
        match self {
            Self::Int(..) | Self::Float(..) | Self::Str(..) => Encoding::Plain,
            Self::Dict(..) => Encoding::Dict,
            Self::Rle(..) => Encoding::Rle,
        }
    }

    /// Re-encodes the column's logical rows into the given physical
    /// layout, forcing the conversion (`max_distinct = usize::MAX` for
    /// dictionaries, `min_avg_run = 1` for runs). When the target is
    /// impossible for the column's domain (RLE or dictionary over a
    /// float column, RLE over an empty column) the plain representation
    /// is returned instead — accessors behave identically either way.
    /// Mutation paths use this to restore a rebuilt column to the
    /// layout it had before the rebuild.
    pub(crate) fn reencoded(&self, target: Encoding) -> ColumnVector {
        let plain = self.decoded();
        match target {
            Encoding::Plain => plain,
            Encoding::Dict => plain.dictionary_encoded(usize::MAX).unwrap_or(plain),
            Encoding::Rle => match plain.ty() {
                ColumnType::Text => plain
                    .dictionary_encoded(usize::MAX)
                    .and_then(|d| d.rle_encoded(1))
                    .unwrap_or(plain),
                _ => plain.rle_encoded(1).unwrap_or(plain),
            },
        }
    }

    /// A fully-decoded plain copy of this column (`Dict` → `Str`,
    /// `Rle` → `Int`/`Str`). Plain columns are cloned as-is.
    pub(crate) fn decoded(&self) -> ColumnVector {
        match self {
            Self::Int(..) | Self::Float(..) | Self::Str(..) => self.clone(),
            Self::Dict(..) | Self::Rle(..) => {
                let mut out = ColumnVector::with_capacity(self.ty(), self.len());
                out.append_range(self, 0, self.len());
                out
            }
        }
    }

    /// Appends `src[row]` for every row id in the selection vector `sel`
    /// — the scan's bulk gather of filter survivors. Dense selections
    /// (average contiguous span of 4+ rows) take the `append_range`
    /// copy path per span; sparse ones fall back to the per-row gather.
    pub(crate) fn append_selected(&self, sel: &[u32], out: &mut ColumnVector) {
        match coalesce_spans(sel) {
            Some(spans) => {
                for &(start, len) in &spans {
                    out.append_range(self, start, len);
                }
            }
            None => self.gather_into(sel, out),
        }
    }
}

/// Splits an ascending selection vector into contiguous `(start, len)`
/// spans when doing so pays off — `None` when the selection is sparse
/// (average span below 4 rows) and a per-row gather is cheaper than the
/// span bookkeeping.
pub fn coalesce_spans(sel: &[u32]) -> Option<Vec<(usize, usize)>> {
    if sel.is_empty() {
        return None;
    }
    let mut spans = 1usize;
    for w in sel.windows(2) {
        if w[1] != w[0] + 1 {
            spans += 1;
        }
    }
    if sel.len() < spans * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(spans);
    let mut start = 0usize;
    for i in 1..=sel.len() {
        if i == sel.len() || sel[i] != sel[i - 1] + 1 {
            out.push((sel[start] as usize, i - start));
            start = i;
        }
    }
    Some(out)
}

/// Looks up `s` in a dictionary, appending it when absent. Linear scan:
/// dictionaries are built for low-cardinality columns, and the engine's
/// hot paths only decode (table columns are the dictionary sources;
/// batch chunks stay plain).
fn dict_code(values: &mut Vec<Arc<str>>, s: &str) -> u32 {
    match values.iter().position(|v| v.as_ref() == s) {
        Some(i) => i as u32,
        None => {
            values.push(Arc::from(s));
            (values.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = ColumnVector::new(ColumnType::Int);
        assert!(c.push(&Value::Int(5)));
        assert!(c.push(&Value::Null));
        assert!(!c.push(&Value::str("no")));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(5));
        assert!(c.get(1).is_null());
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
    }

    #[test]
    fn int_widens_to_float() {
        let mut c = ColumnVector::new(ColumnType::Float);
        assert!(c.push(&Value::Int(3)));
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    fn string_column() {
        let mut c = ColumnVector::with_capacity(ColumnType::Text, 4);
        assert!(c.push(&Value::str("abc")));
        assert!(c.push(&Value::Null));
        assert_eq!(c.get(0).as_str(), Some("abc"));
        assert!(c.get(1).is_null());
        assert_eq!(c.ty(), ColumnType::Text);
    }

    #[test]
    fn push_from_copies_values_and_nulls() {
        let mut src = ColumnVector::new(ColumnType::Int);
        src.push(&Value::Int(4));
        src.push(&Value::Null);
        let mut dst = ColumnVector::new(ColumnType::Int);
        dst.push_from(&src, 1);
        dst.push_from(&src, 0);
        assert!(dst.get(0).is_null());
        assert_eq!(dst.get(1), Value::Int(4));
        dst.clear();
        assert!(dst.is_empty());
    }

    #[test]
    fn gather_collects_row_ids_in_order() {
        let mut src = ColumnVector::new(ColumnType::Text);
        for s in ["a", "b", "c"] {
            src.push(&Value::str(s));
        }
        let mut dst = ColumnVector::new(ColumnType::Text);
        src.gather_into(&[2, 0, 2], &mut dst);
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.get(0), Value::str("c"));
        assert_eq!(dst.get(1), Value::str("a"));
        assert_eq!(dst.get(2), Value::str("c"));
    }

    #[test]
    #[should_panic(expected = "column type mismatch")]
    fn push_from_rejects_type_mismatch() {
        let mut src = ColumnVector::new(ColumnType::Int);
        src.push(&Value::Int(1));
        let mut dst = ColumnVector::new(ColumnType::Text);
        dst.push_from(&src, 0);
    }

    #[test]
    fn column_level_comparisons_match_value_semantics() {
        use std::cmp::Ordering;
        let mut ints = ColumnVector::new(ColumnType::Int);
        let mut floats = ColumnVector::new(ColumnType::Float);
        let mut strs = ColumnVector::new(ColumnType::Text);
        for v in [Value::Int(1), Value::Int(2), Value::Null] {
            ints.push(&v);
        }
        for v in [Value::Float(1.5), Value::Float(2.0), Value::Null] {
            floats.push(&v);
        }
        for v in [Value::str("a"), Value::str("b"), Value::Null] {
            strs.push(&v);
        }
        // sql_cmp_at: NULL on either side is None; cross-numeric via f64.
        assert_eq!(ints.sql_cmp_at(0, &ints, 1), Some(Ordering::Less));
        assert_eq!(ints.sql_cmp_at(0, &ints, 2), None);
        assert_eq!(ints.sql_cmp_at(2, &ints, 2), None);
        assert_eq!(ints.sql_cmp_at(1, &floats, 1), Some(Ordering::Equal));
        assert_eq!(floats.sql_cmp_at(0, &ints, 0), Some(Ordering::Greater));
        assert_eq!(strs.sql_cmp_at(0, &strs, 1), Some(Ordering::Less));
        assert_eq!(strs.sql_cmp_at(0, &strs, 2), None);
        // total_cmp_at: NULLs last, two NULLs equal — and every pair
        // agrees with the Value-level total order.
        assert_eq!(ints.total_cmp_at(0, &ints, 2), Ordering::Less);
        assert_eq!(ints.total_cmp_at(2, &ints, 0), Ordering::Greater);
        assert_eq!(ints.total_cmp_at(2, &ints, 2), Ordering::Equal);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(
                    ints.total_cmp_at(a, &floats, b),
                    ints.get(a).total_cmp(&floats.get(b)),
                    "({a},{b})"
                );
                assert_eq!(
                    strs.sql_cmp_at(a, &strs, b),
                    strs.get(a).sql_cmp(&strs.get(b)),
                    "({a},{b})"
                );
            }
        }
    }

    fn sample_str_column() -> ColumnVector {
        let mut c = ColumnVector::new(ColumnType::Text);
        for v in ["red", "blue", "red", "red"] {
            c.push(&Value::str(v));
        }
        c.push(&Value::Null);
        c.push(&Value::str("blue"));
        c
    }

    #[test]
    fn dictionary_round_trips_values_and_nulls() {
        let plain = sample_str_column();
        let dict = plain.dictionary_encoded(16).expect("low cardinality");
        assert!(dict.is_dictionary());
        assert_eq!(dict.ty(), ColumnType::Text);
        assert_eq!(dict.len(), plain.len());
        for row in 0..plain.len() {
            assert_eq!(dict.get(row), plain.get(row), "row {row}");
            assert_eq!(dict.is_null(row), plain.is_null(row));
            assert_eq!(dict.str_at(row), plain.str_at(row));
        }
    }

    #[test]
    fn dictionary_refuses_high_cardinality() {
        let plain = sample_str_column();
        assert!(plain.dictionary_encoded(1).is_none());
        assert!(plain.dictionary_encoded(2).is_some());
        let ints = ColumnVector::new(ColumnType::Int);
        assert!(ints.dictionary_encoded(16).is_none());
    }

    #[test]
    fn dictionary_comparisons_match_plain() {
        let plain = sample_str_column();
        let dict = plain.dictionary_encoded(16).unwrap();
        for a in 0..plain.len() {
            for b in 0..plain.len() {
                assert_eq!(dict.sql_cmp_at(a, &dict, b), plain.sql_cmp_at(a, &plain, b));
                assert_eq!(
                    dict.sql_cmp_at(a, &plain, b),
                    plain.sql_cmp_at(a, &plain, b)
                );
                assert_eq!(
                    plain.sql_cmp_at(a, &dict, b),
                    plain.sql_cmp_at(a, &plain, b)
                );
                assert_eq!(
                    dict.total_cmp_at(a, &dict, b),
                    plain.total_cmp_at(a, &plain, b)
                );
                assert_eq!(
                    dict.total_cmp_at(a, &plain, b),
                    plain.total_cmp_at(a, &plain, b)
                );
            }
        }
    }

    #[test]
    fn dictionary_interoperates_with_plain_copies() {
        let plain = sample_str_column();
        let dict = plain.dictionary_encoded(16).unwrap();
        // push_from / gather / append_range decode into plain columns.
        let mut out = ColumnVector::new(ColumnType::Text);
        out.push_from(&dict, 0);
        out.push_from(&dict, 4);
        assert_eq!(out.get(0), Value::str("red"));
        assert!(out.get(1).is_null());
        let mut gathered = ColumnVector::new(ColumnType::Text);
        dict.gather_into(&[5, 4, 0], &mut gathered);
        assert_eq!(gathered.get(0), Value::str("blue"));
        assert!(gathered.get(1).is_null());
        let mut ranged = ColumnVector::new(ColumnType::Text);
        ranged.append_range(&dict, 3, 3);
        assert_eq!(ranged.len(), 3);
        assert!(ranged.get(1).is_null());
        assert_eq!(ranged.get(2), Value::str("blue"));
        // Dictionary destinations re-encode on insert.
        let mut dict_dst = ColumnVector::new(ColumnType::Text)
            .dictionary_encoded(16)
            .unwrap();
        dict_dst.append_column(&plain);
        dict_dst.append_column(&dict);
        assert_eq!(dict_dst.len(), 2 * plain.len());
        for row in 0..plain.len() {
            assert_eq!(dict_dst.get(row), plain.get(row));
            assert_eq!(dict_dst.get(plain.len() + row), plain.get(row));
        }
        assert!(dict_dst.push(&Value::str("green")));
        assert!(dict_dst.push(&Value::Null));
        assert!(!dict_dst.push(&Value::Int(1)));
        assert_eq!(dict_dst.get(2 * plain.len()), Value::str("green"));
        assert!(dict_dst.is_null(2 * plain.len() + 1));
    }

    #[test]
    fn append_range_copies_contiguous_chunks() {
        let mut src = ColumnVector::new(ColumnType::Int);
        for v in [Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)] {
            src.push(&v);
        }
        let mut dst = ColumnVector::new(ColumnType::Int);
        dst.append_range(&src, 1, 2);
        assert_eq!(dst.len(), 2);
        assert!(dst.get(0).is_null());
        assert_eq!(dst.get(1), Value::Int(3));
        dst.append_range(&src, 0, 0);
        assert_eq!(dst.len(), 2);
    }

    fn sample_runs_int_column() -> ColumnVector {
        let mut c = ColumnVector::new(ColumnType::Int);
        for v in [7, 7, 7, 3, 3] {
            c.push(&Value::Int(v));
        }
        c.push(&Value::Null);
        c.push(&Value::Null);
        c.push(&Value::Int(3));
        c
    }

    #[test]
    fn rle_round_trips_values_and_nulls() {
        let plain = sample_runs_int_column();
        let rle = plain.rle_encoded(2).expect("avg run length 2");
        assert!(rle.is_rle());
        assert_eq!(rle.ty(), ColumnType::Int);
        assert_eq!(rle.len(), plain.len());
        let ColumnVector::Rle(r) = &rle else {
            unreachable!()
        };
        assert_eq!(r.run_count(), 4);
        assert_eq!(r.ends, vec![3, 5, 7, 8]);
        for row in 0..plain.len() {
            assert_eq!(rle.get(row), plain.get(row), "row {row}");
            assert_eq!(rle.is_null(row), plain.is_null(row));
        }
        let decoded = rle.decoded();
        assert!(!decoded.is_rle());
        for row in 0..plain.len() {
            assert_eq!(decoded.get(row), plain.get(row));
        }
    }

    #[test]
    fn values_onto_matches_get_for_every_encoding() {
        let plain = sample_runs_int_column();
        let rle = plain.rle_encoded(2).expect("avg run length 2");
        let mut text = ColumnVector::new(ColumnType::Text);
        for v in ["a", "a", "b", "b", "b"] {
            text.push(&Value::str(v));
        }
        text.push(&Value::Null);
        text.push(&Value::Null);
        text.push(&Value::str("b"));
        let dict = text.dictionary_encoded(16).unwrap();
        let dict_rle = dict.rle_encoded(2).expect("runs over codes");
        let mut float = ColumnVector::new(ColumnType::Float);
        for v in [Value::Float(1.5), Value::Null, Value::Float(-0.0)] {
            float.push(&v);
        }
        for col in [&plain, &rle, &text, &dict, &dict_rle, &float] {
            let mut rows: Vec<Vec<Value>> = vec![Vec::new(); col.len()];
            col.values_onto(&mut rows);
            for (row, slot) in rows.iter().enumerate() {
                assert_eq!(slot.len(), 1);
                assert_eq!(slot[0], col.get(row), "row {row}");
            }
        }
    }

    #[test]
    fn rle_over_dictionary_codes() {
        let mut plain = ColumnVector::new(ColumnType::Text);
        for v in ["a", "a", "b", "b", "b"] {
            plain.push(&Value::str(v));
        }
        plain.push(&Value::Null);
        let dict = plain.dictionary_encoded(16).unwrap();
        let rle = dict.rle_encoded(2).expect("three runs over six rows");
        assert_eq!(rle.ty(), ColumnType::Text);
        for row in 0..plain.len() {
            assert_eq!(rle.get(row), plain.get(row), "row {row}");
            assert_eq!(rle.str_at(row), plain.str_at(row));
        }
        // Plain strings are never run-length encoded directly.
        assert!(plain.rle_encoded(1).is_none());
    }

    #[test]
    fn rle_refuses_short_runs_floats_and_empty() {
        let mut distinct = ColumnVector::new(ColumnType::Int);
        for v in [1, 2, 3, 4] {
            distinct.push(&Value::Int(v));
        }
        assert!(distinct.rle_encoded(2).is_none());
        assert!(distinct.rle_encoded(1).is_some());
        let mut floats = ColumnVector::new(ColumnType::Float);
        floats.push(&Value::Float(1.0));
        floats.push(&Value::Float(1.0));
        assert!(floats.rle_encoded(1).is_none());
        assert!(ColumnVector::new(ColumnType::Int).rle_encoded(1).is_none());
    }

    #[test]
    fn rle_comparisons_match_plain() {
        let plain = sample_runs_int_column();
        let rle = plain.rle_encoded(1).unwrap();
        for a in 0..plain.len() {
            for b in 0..plain.len() {
                assert_eq!(rle.sql_cmp_at(a, &rle, b), plain.sql_cmp_at(a, &plain, b));
                assert_eq!(rle.sql_cmp_at(a, &plain, b), plain.sql_cmp_at(a, &plain, b));
                assert_eq!(
                    rle.total_cmp_at(a, &rle, b),
                    plain.total_cmp_at(a, &plain, b)
                );
                assert_eq!(
                    rle.total_cmp_at(a, &plain, b),
                    plain.total_cmp_at(a, &plain, b)
                );
            }
        }
    }

    #[test]
    fn rle_interoperates_with_plain_copies() {
        let plain = sample_runs_int_column();
        let rle = plain.rle_encoded(1).unwrap();
        let mut out = ColumnVector::new(ColumnType::Int);
        out.push_from(&rle, 0);
        out.push_from(&rle, 5);
        assert_eq!(out.get(0), Value::Int(7));
        assert!(out.get(1).is_null());
        let mut gathered = ColumnVector::new(ColumnType::Int);
        rle.gather_into(&[7, 6, 0, 4], &mut gathered);
        assert_eq!(gathered.get(0), Value::Int(3));
        assert!(gathered.get(1).is_null());
        assert_eq!(gathered.get(2), Value::Int(7));
        assert_eq!(gathered.get(3), Value::Int(3));
        let mut ranged = ColumnVector::new(ColumnType::Int);
        ranged.append_range(&rle, 2, 4);
        assert_eq!(ranged.len(), 4);
        assert_eq!(ranged.get(0), Value::Int(7));
        assert_eq!(ranged.get(1), Value::Int(3));
        assert!(ranged.get(3).is_null());
        // RLE destinations re-encode on insert and stay run-compressed.
        assert!(ColumnVector::new(ColumnType::Int).rle_encoded(1).is_none());
        let mut rle_dst = sample_runs_int_column().rle_encoded(1).unwrap();
        rle_dst.append_column(&plain);
        assert_eq!(rle_dst.len(), 2 * plain.len());
        for row in 0..plain.len() {
            assert_eq!(rle_dst.get(plain.len() + row), plain.get(row));
        }
        assert!(rle_dst.push(&Value::Int(3)));
        assert!(!rle_dst.push(&Value::str("no")));
        let ColumnVector::Rle(r) = &rle_dst else {
            unreachable!()
        };
        // The trailing Int(3) extends the final run instead of opening
        // a new one.
        assert_eq!(r.run_end(r.run_count() - 1), rle_dst.len());
    }

    #[test]
    fn reencoded_round_trips_every_layout() {
        let text = sample_str_column();
        let ints = sample_runs_int_column();
        let mut floats = ColumnVector::new(ColumnType::Float);
        floats.push(&Value::Float(1.5));
        floats.push(&Value::Null);
        for (col, kind) in [
            (&text, Encoding::Plain),
            (&text, Encoding::Dict),
            (&text, Encoding::Rle),
            (&ints, Encoding::Plain),
            (&ints, Encoding::Rle),
            (&floats, Encoding::Plain),
        ] {
            let re = col.reencoded(kind);
            assert_eq!(re.encoding(), kind, "{kind:?} target honoured");
            assert_eq!(re.len(), col.len());
            for row in 0..col.len() {
                assert_eq!(re.get(row), col.get(row), "{kind:?} row {row}");
                assert_eq!(re.is_null(row), col.is_null(row));
            }
        }
        // Impossible targets degrade to plain, values intact.
        let f_rle = floats.reencoded(Encoding::Rle);
        assert_eq!(f_rle.encoding(), Encoding::Plain);
        assert_eq!(f_rle.get(0), floats.get(0));
        let empty = ColumnVector::new(ColumnType::Int).reencoded(Encoding::Rle);
        assert_eq!(empty.encoding(), Encoding::Plain);
        assert!(empty.is_empty());
        // Re-encoding an already-encoded column preserves it bit-for-bit
        // in the logical sense and structurally in the physical sense.
        let dict = text.dictionary_encoded(16).unwrap();
        let back = dict.reencoded(Encoding::Dict);
        assert!(back.is_dictionary());
        assert_eq!(back.len(), dict.len());
    }

    #[test]
    fn selection_span_coalescing() {
        assert!(coalesce_spans(&[]).is_none());
        assert!(coalesce_spans(&[1, 5, 9]).is_none());
        assert_eq!(
            coalesce_spans(&[2, 3, 4, 5, 10, 11, 12, 13]),
            Some(vec![(2, 4), (10, 4)])
        );
        let plain = sample_runs_int_column();
        let mut dense = ColumnVector::new(ColumnType::Int);
        plain.append_selected(&[1, 2, 3, 4, 5, 6, 7], &mut dense);
        let mut sparse = ColumnVector::new(ColumnType::Int);
        plain.append_selected(&[1, 4, 7], &mut sparse);
        assert_eq!(dense.len(), 7);
        assert_eq!(sparse.len(), 3);
        assert_eq!(dense.get(0), plain.get(1));
        assert_eq!(sparse.get(2), plain.get(7));
    }
}
