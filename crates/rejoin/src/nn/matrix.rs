//! Row-major `f32` matrices, and the kernels training runs on them.
//!
//! ## One ordering rule
//!
//! Three matmul kernels carry the training hot path — `matmul` for
//! forward passes, `matmul_tn_into` for weight gradients (`Xᵀ @ grad`) and
//! `matmul_nt` for input gradients (`grad @ Wᵀ`) — and every sum they
//! take, like every sum of the inference kernel (`nn::infer`), follows
//! **one ordering rule**: an output element is the sum of its products
//! taken strictly in ascending `p` (the depth / batch-row index),
//! starting from `+0.0`, a product whose left factor is exactly `0.0`
//! skipped. That is the order the per-row update path produces when it
//! sums one rank-1 gradient per transition, so a batched gradient is
//! **bit-identical** to the sum of the per-row gradients it replaces.
//! The RL parity tests and both golden logs rest on that guarantee; do
//! not reorder a reduction.
//!
//! Skipping a zero left factor moves no bit of a finite sum. The
//! skipped term is `±0.0`, and adding `±0.0` cannot change a bit of the
//! sum: a non-zero sum absorbs it, and a sum that is zero is `+0.0` — it
//! started there, exact cancellation rounds to `+0.0`, and `-0.0` can
//! only come from adding two `-0.0`s — so `+0.0 + ±0.0 = +0.0`. Against
//! a non-finite right operand the term would be NaN, so the rule names
//! the skip: every kernel skips exactly the terms `matmul` skips.
//!
//! **The one exception is which NaN.** Where two NaNs of different
//! sign or payload meet in one sum (a `−∞` product added to a `+∞`
//! one, say, beside a NaN weight), the NaN the sum returns is the one
//! the CPU's add picks from its operand order — and rustc and LLVM may
//! swap the operands of an add, which is commutative for every other
//! value. So a NaN result is NaN in every kernel and build, but its
//! sign and payload are not part of the rule; every other bit is.
//!
//! ## One register-blocked body
//!
//! What the kernels are free to choose is how *different* output
//! elements are scheduled, and they all choose [`sum_rows`]: [`LANES`]
//! outputs accumulate in registers over the left operand's non-zeros,
//! one row of the right operand streaming through per non-zero, and
//! each output is written once. The kernels differ only in what they
//! list as the non-zeros:
//! - `matmul` lists each row of the left operand;
//! - `matmul_tn_into` lists each *column* of the left operand over the batch
//!   (a column with none zeroes its output row);
//! - `matmul_nt` is `matmul` by the right operand's transpose: the
//!   caller's, when it keeps one (a policy snapshot keeps its output
//!   layer's), or one built per call, [`LANES`] columns at a time.
//!
//! Masked logits and dead ReLUs make gradients mostly zeros, so listing
//! the non-zeros once per row skips most of the work, without a branch
//! per term. The kernels are `#[inline(always)]`: a caller runs them
//! through a [`Build`](crate::nn::build::Build), which compiles them
//! for the CPU's vector width (see `nn::build`).

/// Outputs [`sum_rows`] accumulates side by side: 64 sums are eight
/// AVX2 registers, so a row of the right operand streams through while
/// the sums stay put.
pub(crate) const LANES: usize = 64;

/// Edge of the square tiles [`Matrix::transpose`] copies: a tile's
/// eight rows are read, and its eight columns written, as whole runs.
const TILE: usize = 8;

/// `a · rows[l]` for each of `L` rows, `a` given as its non-zero
/// `(p, a[p])` pairs in ascending `p`: `L` running sums advance
/// together, each in the order it would alone. The form for a sparse
/// row against a matrix read by rows: the inference kernel's output
/// layer.
#[inline(always)]
pub(crate) fn dot_rows<const L: usize>(a: &[(usize, f32)], rows: [&[f32]; L]) -> [f32; L] {
    let mut acc = [0.0f32; L];
    for &(p, x) in a {
        for (sum, row) in acc.iter_mut().zip(&rows) {
            *sum += x * row[p];
        }
    }
    acc
}

/// `out = Σ a · rhs[p]` over `input`'s `(p, a)` pairs, in ascending
/// `p`, where `rhs[p]` is row `p` of the row-major `rhs`, `out.len()`
/// wide. [`LANES`] outputs at a time accumulate in registers over the
/// whole input, then the rest together; `out` is overwritten. The one
/// body of every matmul kernel and of the inference kernel's hidden
/// layers.
#[inline(always)]
pub(crate) fn sum_rows(input: &[(usize, f32)], rhs: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut blocks = out.chunks_exact_mut(LANES);
    for (c, block) in (&mut blocks).enumerate() {
        let base = c * LANES;
        let mut acc = [0.0f32; LANES];
        for &(p, a) in input {
            let row = &rhs[p * n + base..][..LANES];
            for (sum, &x) in acc.iter_mut().zip(row) {
                *sum += a * x;
            }
        }
        block.copy_from_slice(&acc);
    }
    let rest = blocks.into_remainder();
    if !rest.is_empty() {
        let base = n - rest.len();
        rest.fill(0.0);
        for &(p, a) in input {
            let row = &rhs[p * n + base..(p + 1) * n];
            for (sum, &x) in rest.iter_mut().zip(row) {
                *sum += a * x;
            }
        }
    }
}

/// Sets `nonzero` to the non-zeros of `row` as `(p, row[p])` pairs in
/// ascending `p`.
#[inline(always)]
pub(crate) fn compact(row: &[f32], nonzero: &mut Vec<(usize, f32)>) {
    compact_from(row.iter().copied(), nonzero);
}

/// Sets `nonzero` to the non-zeros of `values` as `(p, value)` pairs in
/// ascending `p`. Compacted without a branch — a zero is overwritten by
/// the next element, or cut off at the end — because where the zeros
/// fall is data.
#[inline(always)]
fn compact_from(values: impl ExactSizeIterator<Item = f32>, nonzero: &mut Vec<(usize, f32)>) {
    nonzero.resize(values.len(), (0, 0.0));
    let mut len = 0;
    for (p, a) in values.enumerate() {
        nonzero[len] = (p, a);
        len += usize::from(a != 0.0);
    }
    nonzero.truncate(len);
}

/// Writes the transpose of the row-major `src` (`k × n`) into `dst`
/// (`n × k`), copied in [`TILE`]-square tiles: a tile's rows are read
/// and its columns written as whole runs, so neither side strides
/// through memory one element at a time.
#[inline(always)]
fn transpose_into(src: &[f32], (k, n): (usize, usize), dst: &mut [f32]) {
    assert!(
        src.len() == k * n && dst.len() == k * n,
        "transpose shape mismatch"
    );
    let (k_tiles, n_tiles) = (k - k % TILE, n - n % TILE);
    for p0 in (0..k_tiles).step_by(TILE) {
        for j0 in (0..n_tiles).step_by(TILE) {
            let tile: [&[f32; TILE]; TILE] = std::array::from_fn(|r| {
                let start = (p0 + r) * n + j0;
                src[start..start + TILE].try_into().expect("a whole tile")
            });
            #[allow(clippy::needless_range_loop)] // c picks a column of every row
            for c in 0..TILE {
                let start = (j0 + c) * k + p0;
                let column: &mut [f32; TILE] = (&mut dst[start..start + TILE])
                    .try_into()
                    .expect("a whole tile");
                *column = std::array::from_fn(|r| tile[r][c]);
            }
        }
    }
    // The edges: the columns past the last whole tile, then the rows.
    for p in 0..k {
        let columns = if p < k_tiles { n_tiles } else { 0 };
        for j in columns..n {
            dst[j * k + p] = src[p * n + j];
        }
    }
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix from row-major data.
    ///
    /// Panics if `data.len() != rows * cols` (constructor misuse is a
    /// programming error, not a runtime condition).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            rows: 1,
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major slice.
    #[inline]
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying slice.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` (`[m×k] @ [k×n] → [m×n]`): [`sum_rows`] over each
    /// row's non-zeros. A batched forward row is bit-identical to the
    /// same row pushed through alone.
    #[inline(always)]
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        let mut nonzero = Vec::with_capacity(k);
        for i in 0..m {
            compact(&self.data[i * k..(i + 1) * k], &mut nonzero);
            sum_rows(&nonzero, &other.data, &mut out.data[i * n..(i + 1) * n]);
        }
        out
    }

    /// `selfᵀ @ other` (`[k×m]ᵀ @ [k×n] → [m×n]`) into `out`, without
    /// materialising the transpose; `out` is overwritten.
    ///
    /// This is the weight-gradient kernel (`Xᵀ @ grad`): `k` is the
    /// batch dimension, and every `out[i, j]` accumulates its `k`
    /// rank-1 contributions in ascending row order — exactly the order
    /// `MlpGradients::add` applies per-transition gradients — which is
    /// what makes batched and per-row updates bit-identical. Output row
    /// `i` is [`sum_rows`] over column `i`'s non-zeros; a column with
    /// none (a feature no row sets) zeroes its row.
    #[inline(always)]
    pub(crate) fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        assert!(
            out.rows == m && out.cols == n,
            "matmul_tn output shape mismatch"
        );
        let mut nonzero = Vec::with_capacity(k);
        for i in 0..m {
            compact_from((0..k).map(|p| self.data[p * m + i]), &mut nonzero);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            if nonzero.is_empty() {
                out_row.fill(0.0);
            } else {
                sum_rows(&nonzero, &other.data, out_row);
            }
        }
    }

    /// `self @ otherᵀ` (`[m×k] @ [n×k]ᵀ → [m×n]`), the input-gradient
    /// kernel (`grad_out @ Wᵀ`): [`Self::matmul`] against `otherᵀ`,
    /// which is copied [`LANES`] rows of `other` at a time into one
    /// `k × LANES` panel rather than whole. The panel stays in cache and
    /// is small enough for the allocator to reuse; a whole 128 × 289
    /// copy, allocated afresh per call, page-faulted on every call. A
    /// caller that keeps the whole transpose calls `matmul` with it
    /// instead.
    #[inline(always)]
    pub(crate) fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        let mut panel = vec![0.0; k * LANES.min(n)];
        let mut nonzero = Vec::with_capacity(k);
        for j0 in (0..n).step_by(LANES) {
            let width = LANES.min(n - j0);
            let panel = &mut panel[..k * width];
            transpose_into(&other.data[j0 * k..(j0 + width) * k], (width, k), panel);
            for i in 0..m {
                compact(&self.data[i * k..(i + 1) * k], &mut nonzero);
                sum_rows(&nonzero, panel, &mut out.data[i * n + j0..][..width]);
            }
        }
        out
    }

    /// The transpose (see [`transpose_into`]).
    #[inline(always)]
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        transpose_into(&self.data, (self.rows, self.cols), &mut t.data);
        t
    }

    /// Adds a bias row vector to every row in place.
    #[inline(always)]
    pub(crate) fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Column sums into `out` (bias gradients).
    #[inline(always)]
    pub(crate) fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "column sums length mismatch");
        out.fill(0.0);
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::nn::build::tests::builds;

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32).collect());
        // aᵀ @ b via matmul_tn.
        let tn = tn(&a, &b);
        // Explicit transpose for reference.
        let at = Matrix::from_vec(2, 3, vec![1., 3., 5., 2., 4., 6.]);
        assert_eq!(tn, at.matmul(&b));

        let c = Matrix::from_vec(4, 2, (0..8).map(|i| i as f32).collect());
        // a @ cᵀ via matmul_nt (a is 3×2, cᵀ is 2×4).
        let nt = a.matmul_nt(&c);
        let ct = Matrix::from_vec(2, 4, vec![0., 2., 4., 6., 1., 3., 5., 7.]);
        assert_eq!(nt, a.matmul(&ct));
    }

    /// The compacted row is the row's non-zeros in order, whatever the
    /// buffer held before.
    #[test]
    fn compact_keeps_the_non_zeros_in_order() {
        let mut nonzero = vec![(9, 9.0); 12];
        compact(&[0.0, 1.5, -0.0, 0.0, -2.0, f32::NAN], &mut nonzero);
        assert_eq!(nonzero.len(), 3);
        assert_eq!(nonzero[..2], [(1, 1.5), (4, -2.0)]);
        assert!(nonzero[2].0 == 5 && nonzero[2].1.is_nan());
        compact(&[0.0; 4], &mut nonzero);
        assert!(nonzero.is_empty());
    }

    #[test]
    fn bias_and_col_sums() {
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        m.add_row_bias(&[10., 20.]);
        assert_eq!(m.data(), &[11., 22., 13., 24.]);
        let mut sums = vec![7.0; 2];
        m.col_sums_into(&mut sums);
        assert_eq!(sums, vec![24., 46.]);
    }

    /// Unblocked ikj reference: the pre-blocking `matmul` kernel,
    /// accumulating each output element in ascending `p` order.
    pub(crate) fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows);
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let x = a.data[i * k + p];
                if x == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += x * b.data[p * n + j];
                }
            }
        }
        out
    }

    /// Unblocked reference for `aᵀ @ b`, ascending-`p` accumulation.
    pub(crate) fn reference_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows);
        let (k, m, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            for i in 0..m {
                let x = a.data[p * m + i];
                if x == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += x * b.data[p * n + j];
                }
            }
        }
        out
    }

    /// The serial `a @ bᵀ` kernel `matmul_nt` replaced: one running sum
    /// per output element, every term added, zeros included.
    pub(crate) fn reference_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols);
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data[i * k + p] * b.data[j * k + p];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// `a @ bᵀ` under the ordering rule: one running sum per output
    /// element, from `+0.0`, ascending `p`, a zero left factor skipped.
    pub(crate) fn serial_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols);
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    let x = a.data[i * k + p];
                    if x != 0.0 {
                        acc += x * b.data[j * k + p];
                    }
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// `aᵀ @ b` through `Matrix::matmul_tn_into`, into a buffer of NaNs.
    #[inline(always)]
    fn tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::from_vec(a.cols, b.cols, vec![f32::NAN; a.cols * b.cols]);
        a.matmul_tn_into(b, &mut out);
        out
    }

    pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// `got` has `want`'s bits, except that where `want` is a NaN, `got`
    /// need only be a NaN: which NaN a sum returns is the ordering
    /// rule's one exception (see the module docs). Returns how many
    /// NaNs `want` holds.
    pub(crate) fn assert_bits_nan_as_class(got: &[f32], want: &[f32], what: &str) -> usize {
        assert_eq!(got.len(), want.len(), "{what}: length");
        let mut nans = 0;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{what}[{i}]: {g} where a NaN is due");
                nans += 1;
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
            }
        }
        nans
    }

    /// Deterministic pseudo-random fill with irrational-ish values (so
    /// float addition is genuinely non-associative) and some exact
    /// zeros (so the skip-zero path is exercised).
    pub(crate) fn fill(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state.is_multiple_of(7) {
                    0.0
                } else {
                    ((state >> 8) as f32 / (1 << 24) as f32 - 0.5) * 3.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The kernels must be *bit-identical* to the serial references on
    /// every build, on shapes below, at and past every lane count
    /// (`LANES` 64, `TILE` 8): the batched-vs-per-row training parity
    /// contract (and both golden logs) depends on the accumulation order
    /// being unchanged. `matmul_tn_into` writes into a buffer of NaNs,
    /// so a row it left alone would show.
    #[test]
    fn kernels_are_bit_exact_on_every_build() {
        for build in builds() {
            for &(m, k, n) in &[
                (1usize, 1usize, 1usize),
                (1, 646, 128),
                (3, 63, 5),
                (16, 64, 16),
                (17, 65, 9),
                (33, 130, 21),
                (40, 7, 70),
                (2, 19, 1),
                (18, 64, 7),
                (18, 64, 8),
                (5, 128, 9),
                (1, 128, 289),
                (15, 128, 129),
            ] {
                let a = fill(m, k, (m * 1000 + k) as u32);
                let b = fill(k, n, (k * 1000 + n) as u32);
                assert_eq!(
                    build
                        .run(
                            #[inline(always)]
                            || a.matmul(&b)
                        )
                        .data(),
                    reference_matmul(&a, &b).data(),
                    "{build:?}: matmul {m}x{k}x{n} drifted from the serial kernel"
                );
                // One all-zero column: a feature no batch row sets.
                let mut at = fill(k, m, (m * 31 + n) as u32);
                for p in 0..k {
                    at.set(p, 0, 0.0);
                }
                assert_eq!(
                    build
                        .run(
                            #[inline(always)]
                            || tn(&at, &b)
                        )
                        .data(),
                    reference_matmul_tn(&at, &b).data(),
                    "{build:?}: matmul_tn {m}x{k}x{n} drifted from the serial kernel"
                );
                // `a` already holds exact zeros; one all-zero row on top.
                let mut a = a;
                a.data[..k].fill(0.0);
                let bt = fill(n, k, (n * 77 + k) as u32);
                assert_eq!(
                    bits(
                        build
                            .run(
                                #[inline(always)]
                                || a.matmul_nt(&bt)
                            )
                            .data()
                    ),
                    bits(reference_matmul_nt(&a, &bt).data()),
                    "{build:?}: matmul_nt {m}x{k}x{n} drifted from the serial kernel"
                );
                let t = build.run(
                    #[inline(always)]
                    || b.transpose(),
                );
                assert_eq!((t.rows(), t.cols()), (n, k));
                for p in 0..k {
                    for j in 0..n {
                        assert_eq!(t.get(j, p).to_bits(), b.get(p, j).to_bits());
                    }
                }
            }
        }
    }

    /// A batched forward row equals the same row pushed through alone —
    /// the kernel-level statement of the mini-batch parity contract.
    #[test]
    fn batched_rows_match_single_row_matmul_bitwise() {
        let x = fill(33, 70, 5);
        let w = fill(70, 19, 6);
        let batched = x.matmul(&w);
        for r in 0..x.rows() {
            let row = Matrix::row_vector(x.row(r).to_vec());
            let single = row.matmul(&w);
            assert_eq!(batched.row(r), single.row(0), "row {r} drifted");
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        let rv = Matrix::row_vector(vec![1., 2.]);
        assert_eq!(rv.rows(), 1);
        assert_eq!(rv.cols(), 2);
    }
}
