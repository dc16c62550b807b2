//! Selection-vector predicate kernels.
//!
//! [`super::scan::ScanSpec`] compiles each resolved selection into a
//! [`Pred`]: a typed kernel bound to one table column's physical
//! encoding. A kernel evaluates a whole column window at a time into a
//! selection vector of passing row ids ([`Pred::filter_range`]);
//! predicate conjunction is selection-vector intersection
//! ([`Pred::refine`]). Literal resolution happens once per scan, not
//! once per row:
//!
//! - a literal against a dictionary-coded column becomes a per-code
//!   verdict mask, so the loop compares `u32` codes and never touches an
//!   `Arc<str>`;
//! - run-length-encoded columns are evaluated once per *run*, accepting
//!   or rejecting whole runs at a time (the selection vector still lists
//!   individual rows, keeping work accounting and output order
//!   encoding-invariant);
//! - numeric literals are unwrapped to `i64`/`f64` so the loops are
//!   monomorphic comparisons over dense slices.
//!
//! Semantics are pinned to the row engine: every kernel decides exactly
//! `eval_cmp(op, column.get(row), literal)` — three-valued logic
//! collapsed to bool (NULL ⇒ false), cross-numeric comparison through
//! `f64`, and `partial_cmp` failures collapsing to `Equal` exactly like
//! `Value::total_cmp`. The last rule is what pins NaN: `x = NaN`
//! accepts every non-NULL numeric row and `x < NaN` accepts none, in
//! both engines, and `-0.0` compares equal to `0.0`.

use super::{eval_cmp, ord_satisfies};
use hfqo_query::sql::CompareOp;
use hfqo_storage::{ColumnVector, RleColumn, RleValues, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A selection compiled against one table column's physical encoding.
#[derive(Debug, Clone)]
pub(crate) struct Pred {
    /// Table column index the kernel reads.
    col: usize,
    kernel: Kernel,
}

#[derive(Debug, Clone)]
enum Kernel {
    /// Integer column (plain or RLE) vs integer literal.
    Int { accept: [bool; 3], lit: i64 },
    /// Integer column vs float literal: compared through `f64`, exactly
    /// like `Value::total_cmp`'s cross-numeric rule.
    IntFloat { accept: [bool; 3], lit: f64 },
    /// Float column vs numeric literal.
    Float { accept: [bool; 3], lit: f64 },
    /// Plain text column vs string literal (byte order).
    Str { accept: [bool; 3], lit: Arc<str> },
    /// Dictionary-coded column (plain or RLE): the literal is resolved
    /// against the dictionary once into a per-code verdict.
    CodeMask { mask: Vec<bool> },
    /// Mixed-type pair (e.g. string literal on an int column): per-row
    /// `Value` semantics, identical to the row engine.
    Generic { op: CompareOp, lit: Value },
}

/// Branch-free acceptance table indexed by [`ord_idx`]: whether `op` is
/// satisfied by Less / Equal / Greater.
fn accepts(op: CompareOp) -> [bool; 3] {
    [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|o| ord_satisfies(op, o))
}

/// Maps an `Ordering` to its [`accepts`] slot (Less/Equal/Greater are
/// -1/0/1 as `i8`).
#[inline]
fn ord_idx(ord: Ordering) -> usize {
    (ord as i8 + 1) as usize
}

impl Pred {
    /// Compiles `column <op> lit` against the column's physical
    /// encoding. `col_idx` is the table column index; `col` the column
    /// itself (encodings are fixed for the lifetime of a scan — the
    /// spec borrows the table).
    pub(crate) fn compile(col_idx: usize, op: CompareOp, lit: Value, col: &ColumnVector) -> Pred {
        let acc = accepts(op);
        let kernel = match (col, &lit) {
            (ColumnVector::Int(..), Value::Int(x)) => Kernel::Int {
                accept: acc,
                lit: *x,
            },
            (ColumnVector::Int(..), Value::Float(x)) => Kernel::IntFloat {
                accept: acc,
                lit: *x,
            },
            (ColumnVector::Float(..), Value::Int(x)) => Kernel::Float {
                accept: acc,
                lit: *x as f64,
            },
            (ColumnVector::Float(..), Value::Float(x)) => Kernel::Float {
                accept: acc,
                lit: *x,
            },
            (ColumnVector::Str(..), Value::Str(s)) => Kernel::Str {
                accept: acc,
                lit: Arc::clone(s),
            },
            (ColumnVector::Dict(_, _, dict), _) => code_mask(op, dict, &lit),
            (ColumnVector::Rle(r), _) => match (&r.values, &lit) {
                (RleValues::Int(_), Value::Int(x)) => Kernel::Int {
                    accept: acc,
                    lit: *x,
                },
                (RleValues::Int(_), Value::Float(x)) => Kernel::IntFloat {
                    accept: acc,
                    lit: *x,
                },
                (RleValues::Dict(_, dict), _) => code_mask(op, dict, &lit),
                _ => Kernel::Generic { op, lit },
            },
            _ => Kernel::Generic { op, lit },
        };
        Pred {
            col: col_idx,
            kernel,
        }
    }

    /// Appends to `sel` the ids of rows in `start..end` that pass the
    /// predicate, in ascending order.
    pub(crate) fn filter_range(
        &self,
        cols: &[ColumnVector],
        start: usize,
        end: usize,
        sel: &mut Vec<u32>,
    ) {
        let col = &cols[self.col];
        match (col, &self.kernel) {
            (ColumnVector::Int(v, n), Kernel::Int { accept, lit }) => {
                push_if(start, end, sel, |i| n[i] && accept[ord_idx(v[i].cmp(lit))]);
            }
            (ColumnVector::Int(v, n), Kernel::IntFloat { accept, lit }) => {
                push_if(start, end, sel, |i| {
                    n[i] && accept[ord_idx(cmp_f64(v[i] as f64, *lit))]
                });
            }
            (ColumnVector::Float(v, n), Kernel::Float { accept, lit }) => {
                push_if(start, end, sel, |i| {
                    n[i] && accept[ord_idx(cmp_f64(v[i], *lit))]
                });
            }
            (ColumnVector::Str(v, n), Kernel::Str { accept, lit }) => {
                push_if(start, end, sel, |i| {
                    n[i] && accept[ord_idx(v[i].as_ref().cmp(lit.as_ref()))]
                });
            }
            (ColumnVector::Dict(codes, n, _), Kernel::CodeMask { mask }) => {
                push_if(start, end, sel, |i| n[i] && mask[codes[i] as usize]);
            }
            (ColumnVector::Rle(r), kernel) => {
                // Run-aware: one verdict per run, whole runs accepted or
                // rejected at once.
                let mut k = r.run_of(start);
                let mut row = start;
                while row < end {
                    let stop = r.run_end(k).min(end);
                    if run_passes(r, k, kernel) {
                        sel.extend(row as u32..stop as u32);
                    }
                    row = stop;
                    k += 1;
                }
            }
            (col, Kernel::Generic { op, lit }) => {
                push_if(start, end, sel, |i| eval_cmp(*op, &col.get(i), lit));
            }
            _ => unreachable!("kernel compiled for a different column encoding"),
        }
    }

    /// Keeps only the selected rows that also pass this predicate — the
    /// conjunction step. Selection vectors are ascending (filter_range
    /// and the index probes produce them that way), which the RLE run
    /// cursor exploits.
    pub(crate) fn refine(&self, cols: &[ColumnVector], sel: &mut Vec<u32>) {
        let col = &cols[self.col];
        match (col, &self.kernel) {
            (ColumnVector::Int(v, n), Kernel::Int { accept, lit }) => {
                keep_if(sel, |i| n[i] && accept[ord_idx(v[i].cmp(lit))]);
            }
            (ColumnVector::Int(v, n), Kernel::IntFloat { accept, lit }) => {
                keep_if(sel, |i| n[i] && accept[ord_idx(cmp_f64(v[i] as f64, *lit))]);
            }
            (ColumnVector::Float(v, n), Kernel::Float { accept, lit }) => {
                keep_if(sel, |i| n[i] && accept[ord_idx(cmp_f64(v[i], *lit))]);
            }
            (ColumnVector::Str(v, n), Kernel::Str { accept, lit }) => {
                keep_if(sel, |i| {
                    n[i] && accept[ord_idx(v[i].as_ref().cmp(lit.as_ref()))]
                });
            }
            (ColumnVector::Dict(codes, n, _), Kernel::CodeMask { mask }) => {
                keep_if(sel, |i| n[i] && mask[codes[i] as usize]);
            }
            (ColumnVector::Rle(r), kernel) => {
                let mut k = 0usize;
                keep_if(sel, |row| {
                    k = r.seek(k, row);
                    run_passes(r, k, kernel)
                });
            }
            (col, Kernel::Generic { op, lit }) => {
                keep_if(sel, |i| eval_cmp(*op, &col.get(i), lit));
            }
            _ => unreachable!("kernel compiled for a different column encoding"),
        }
    }
}

/// Resolves a literal against a dictionary once: `mask[code]` is the
/// row verdict for every row carrying `code`. Works for any literal
/// type because each distinct value goes through [`eval_cmp`], the same
/// comparison the row engine applies per row.
fn code_mask(op: CompareOp, dict: &[Arc<str>], lit: &Value) -> Kernel {
    let mask = dict
        .iter()
        .map(|v| eval_cmp(op, &Value::Str(Arc::clone(v)), lit))
        .collect();
    Kernel::CodeMask { mask }
}

/// One verdict for all rows of run `k`. NULL runs never pass, exactly
/// like NULL rows under `eval_cmp`.
#[inline]
fn run_passes(r: &RleColumn, k: usize, kernel: &Kernel) -> bool {
    if !r.valid[k] {
        return false;
    }
    match (&r.values, kernel) {
        (RleValues::Int(vals), Kernel::Int { accept, lit }) => accept[ord_idx(vals[k].cmp(lit))],
        (RleValues::Int(vals), Kernel::IntFloat { accept, lit }) => {
            accept[ord_idx(cmp_f64(vals[k] as f64, *lit))]
        }
        (RleValues::Dict(codes, _), Kernel::CodeMask { mask }) => mask[codes[k] as usize],
        (_, Kernel::Generic { op, lit }) => eval_cmp(*op, &r.run_value(k), lit),
        _ => unreachable!("kernel compiled for a different column encoding"),
    }
}

/// `Value::total_cmp`'s float rule: incomparable pairs (NaN on either
/// side) collapse to `Equal`; `-0.0 == 0.0` by IEEE comparison.
#[inline]
fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Pushes every `i` in `start..end` passing `test` — monomorphised per
/// call site so each kernel is a tight loop over dense slices.
#[inline]
fn push_if(start: usize, end: usize, sel: &mut Vec<u32>, mut test: impl FnMut(usize) -> bool) {
    for i in start..end {
        if test(i) {
            sel.push(i as u32);
        }
    }
}

/// In-place compaction keeping the selected rows passing `test`.
#[inline]
fn keep_if(sel: &mut Vec<u32>, mut test: impl FnMut(usize) -> bool) {
    let mut w = 0usize;
    for i in 0..sel.len() {
        let rid = sel[i];
        if test(rid as usize) {
            sel[w] = rid;
            w += 1;
        }
    }
    sel.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_storage::catalog::ColumnType;

    fn int_col(vals: &[Option<i64>]) -> ColumnVector {
        let mut c = ColumnVector::new(ColumnType::Int);
        for v in vals {
            c.push(&v.map_or(Value::Null, Value::Int));
        }
        c
    }

    fn expected(col: &ColumnVector, op: CompareOp, lit: &Value) -> Vec<u32> {
        (0..col.len())
            .filter(|&i| eval_cmp(op, &col.get(i), lit))
            .map(|i| i as u32)
            .collect()
    }

    fn kernel_range(col: &ColumnVector, op: CompareOp, lit: Value) -> Vec<u32> {
        let cols = std::slice::from_ref(col);
        let pred = Pred::compile(0, op, lit, col);
        let mut sel = Vec::new();
        pred.filter_range(cols, 0, col.len(), &mut sel);
        sel
    }

    #[test]
    fn kernels_match_row_semantics_per_encoding() {
        use CompareOp::*;
        let plain = int_col(&[
            Some(5),
            Some(5),
            None,
            Some(7),
            Some(7),
            Some(7),
            Some(3),
            None,
        ]);
        let rle = plain.rle_encoded(1).unwrap();
        let mut strs = ColumnVector::new(ColumnType::Text);
        for s in ["b", "b", "a", "c", "c"] {
            strs.push(&Value::str(s));
        }
        strs.push(&Value::Null);
        let dict = strs.dictionary_encoded(16).unwrap();
        let dict_rle = dict.rle_encoded(1).unwrap();
        let ops = [Eq, Neq, Lt, Le, Gt, Ge];
        for op in ops {
            for lit in [Value::Int(5), Value::Int(7), Value::Float(5.5), Value::Null] {
                let want = expected(&plain, op, &lit);
                assert_eq!(kernel_range(&plain, op, lit.clone()), want, "{op:?} {lit}");
                assert_eq!(
                    kernel_range(&rle, op, lit.clone()),
                    want,
                    "rle {op:?} {lit}"
                );
            }
            for lit in [Value::str("b"), Value::str("bb"), Value::Int(1)] {
                let want = expected(&strs, op, &lit);
                assert_eq!(kernel_range(&strs, op, lit.clone()), want, "{op:?} {lit}");
                assert_eq!(
                    kernel_range(&dict, op, lit.clone()),
                    want,
                    "dict {op:?} {lit}"
                );
                assert_eq!(
                    kernel_range(&dict_rle, op, lit.clone()),
                    want,
                    "dict+rle {op:?} {lit}"
                );
            }
        }
    }

    #[test]
    fn nan_and_negative_zero_match_value_semantics() {
        use CompareOp::*;
        let mut floats = ColumnVector::new(ColumnType::Float);
        for v in [1.0, f64::NAN, -0.0, 0.0, -1.5] {
            floats.push(&Value::Float(v));
        }
        floats.push(&Value::Null);
        for op in [Eq, Neq, Lt, Le, Gt, Ge] {
            for lit in [
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Int(0),
            ] {
                let want = expected(&floats, op, &lit);
                assert_eq!(
                    kernel_range(&floats, op, lit.clone()),
                    want,
                    "{op:?} {lit:?}"
                );
            }
        }
        // The pinned behaviour itself: NaN compares Equal to every
        // number (Value::total_cmp collapses incomparable pairs), so
        // `= NaN` accepts all non-NULL rows and `< NaN` none.
        assert_eq!(
            kernel_range(&floats, Eq, Value::Float(f64::NAN)),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(kernel_range(&floats, Lt, Value::Float(f64::NAN)), vec![]);
        // -0.0 == 0.0: IEEE equality, not bit equality.
        assert_eq!(
            kernel_range(&floats, Eq, Value::Float(-0.0)),
            kernel_range(&floats, Eq, Value::Float(0.0))
        );
    }

    #[test]
    fn refine_intersects_selections() {
        let a = int_col(&[Some(1), Some(2), Some(3), Some(4), Some(5)]);
        let b = int_col(&[Some(9), Some(9), Some(0), Some(9), Some(0)]);
        let cols = vec![a, b];
        let ge2 = Pred::compile(0, CompareOp::Ge, Value::Int(2), &cols[0]);
        let eq9 = Pred::compile(1, CompareOp::Eq, Value::Int(9), &cols[1]);
        let mut sel = Vec::new();
        ge2.filter_range(&cols, 0, 5, &mut sel);
        assert_eq!(sel, vec![1, 2, 3, 4]);
        eq9.refine(&cols, &mut sel);
        assert_eq!(sel, vec![1, 3]);
    }
}
