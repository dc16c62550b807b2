//! Join output shape: which input slot each output column gathers from.
//!
//! The join algorithms themselves (hash, nested loops, sort-merge) are
//! stages of the evaluator ([`crate::parallel`]); the build side is
//! always the *right* child, matching the row engine.

use crate::projection::{ColSet, Projection};

/// Where a join output column is gathered from: a slot of the left
/// (probe) input or a slot of the right (build) input.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    Left(usize),
    Right(usize),
}

/// A join's output projection: the children's projected columns
/// restricted to `required`, left columns first — identical slot order
/// to the row engine's concatenated layout when everything is required.
/// Returns the output columns and, per slot, which input it gathers
/// from.
pub(crate) fn join_output(
    l_proj: &Projection,
    r_proj: &Projection,
    required: &ColSet,
) -> (Projection, Vec<Side>) {
    let mut out_cols = Vec::new();
    let mut out_map = Vec::new();
    for (slot, &col) in l_proj.columns().iter().enumerate() {
        if required.contains(col) {
            out_cols.push(col);
            out_map.push(Side::Left(slot));
        }
    }
    for (slot, &col) in r_proj.columns().iter().enumerate() {
        if required.contains(col) {
            out_cols.push(col);
            out_map.push(Side::Right(slot));
        }
    }
    (Projection::new(out_cols), out_map)
}
