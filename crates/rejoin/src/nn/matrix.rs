//! Row-major `f32` matrices.
//!
//! Three matmul kernels carry the training hot path — `matmul` for
//! forward passes, `matmul_tn` for weight gradients (`Xᵀ @ grad`) and
//! `matmul_nt` for input gradients (`grad @ Wᵀ`) — under **one ordering
//! rule**: every output element is the sum of its products taken
//! strictly in ascending `p` (the depth / batch-row index), starting
//! from `+0.0`. That is the order the per-row update path produces when
//! it sums one rank-1 gradient per transition, so a batched gradient is
//! **bit-identical** to the sum of the per-row gradients it replaces.
//! The RL parity tests and both golden logs rest on that guarantee; do
//! not reorder a reduction.
//!
//! What the kernels are free to choose is how *different* output
//! elements are scheduled. `matmul` and `matmul_tn` are cache-blocked:
//! the batched update multiplies B×F activations against F×H weights,
//! and tiling keeps the streamed operand resident across a tile of
//! output rows. `matmul_nt` runs a block of output columns side by side
//! so that no element waits on another's add chain.
//!
//! All three skip a left-operand element that is exactly `0.0` (masked
//! logits and dead ReLUs make gradients mostly zeros). The skipped term
//! is `±0.0`, and adding `±0.0` cannot change a bit of the sum: a
//! non-zero sum absorbs it, and a sum that is zero is `+0.0` — it
//! started there, exact cancellation rounds to `+0.0`, and `-0.0` can
//! only come from adding two `-0.0`s — so `+0.0 + ±0.0 = +0.0`. (A
//! non-finite right operand would turn the term into NaN; weights that
//! far gone are already lost.)

/// Output-row tile: how many rows of the result are accumulated
/// together, so a tile of `out` stays hot while the depth dimension
/// streams through.
const BLOCK_ROWS: usize = 16;

/// Depth tile: how many `p` (inner-dimension) steps are applied per
/// tile. At ReJOIN scale (F = 646, H = 128) one depth tile of the
/// weight matrix is 64 × 128 × 4 B = 32 KiB — L1/L2-resident while it
/// is reused across a whole row tile.
const BLOCK_DEPTH: usize = 64;

/// Output columns `matmul_nt` accumulates side by side: enough
/// independent add chains to cover the latency of one.
const NT_LANES: usize = 8;

/// `a · rows[l]` for each of `L` rows, `a` given as its non-zero
/// `(p, a[p])` pairs in ascending `p`: `L` running sums advance
/// together, each in the order it would alone. Inlined, so the
/// inference kernel's AVX2 build compiles it for AVX2 too.
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

/// Sets `nonzero` to the non-zeros of `row` as `(p, row[p])` pairs in
/// ascending `p`. Compacted without a branch — a zero is overwritten by
/// the next element, or cut off at the end — because where the zeros
/// fall is data.
#[inline(always)]
pub(crate) fn compact(row: &[f32], nonzero: &mut Vec<(usize, f32)>) {
    nonzero.resize(row.len(), (0, 0.0));
    let mut len = 0;
    for (p, &a) in row.iter().enumerate() {
        nonzero[len] = (p, a);
        len += usize::from(a != 0.0);
    }
    nonzero.truncate(len);
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
    pub fn data(&self) -> &[f32] {
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

    /// `self @ other` (`[m×k] @ [k×n] → [m×n]`).
    ///
    /// Cache-blocked ikj kernel: the inner loop walks both `other` and
    /// `out` contiguously, and tiles of `BLOCK_ROWS` output rows ×
    /// `BLOCK_DEPTH` depth steps keep the reused `other` slab resident.
    /// Each `out[i, j]` accumulates in strictly ascending `p` order
    /// (tiles ascend, `p` ascends within a tile), so the result is
    /// bit-identical to the unblocked kernel — and a batched forward row
    /// is bit-identical to the same row pushed through alone.
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i0 in (0..m).step_by(BLOCK_ROWS) {
            let i1 = (i0 + BLOCK_ROWS).min(m);
            for p0 in (0..k).step_by(BLOCK_DEPTH) {
                let p1 = (p0 + BLOCK_DEPTH).min(k);
                for i in i0..i1 {
                    let self_row = &self.data[i * k..(i + 1) * k];
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    #[allow(clippy::needless_range_loop)] // p offsets other too
                    for p in p0..p1 {
                        let a = self_row[p];
                        if a == 0.0 {
                            continue;
                        }
                        let other_row = &other.data[p * n..(p + 1) * n];
                        for j in 0..n {
                            out_row[j] += a * other_row[j];
                        }
                    }
                }
            }
        }
        out
    }

    /// `selfᵀ @ other` (`[k×m]ᵀ @ [k×n] → [m×n]`) without materialising
    /// the transpose.
    ///
    /// This is the weight-gradient kernel (`Xᵀ @ grad`): `k` is the
    /// batch dimension, and every `out[i, j]` accumulates its `k`
    /// rank-1 contributions in ascending row order — exactly the order
    /// `MlpGradients::add` applies per-transition gradients — which is
    /// what makes batched and per-row updates bit-identical. Blocking
    /// tiles `BLOCK_ROWS` output rows so the accumulator slab stays hot
    /// while the batch streams through.
    pub(crate) fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i0 in (0..m).step_by(BLOCK_ROWS) {
            let i1 = (i0 + BLOCK_ROWS).min(m);
            for p0 in (0..k).step_by(BLOCK_DEPTH) {
                let p1 = (p0 + BLOCK_DEPTH).min(k);
                for p in p0..p1 {
                    let self_row = &self.data[p * m..(p + 1) * m];
                    let other_row = &other.data[p * n..(p + 1) * n];
                    #[allow(clippy::needless_range_loop)] // i also offsets out
                    for i in i0..i1 {
                        let a = self_row[i];
                        if a == 0.0 {
                            continue;
                        }
                        let out_row = &mut out.data[i * n..(i + 1) * n];
                        for j in 0..n {
                            out_row[j] += a * other_row[j];
                        }
                    }
                }
            }
        }
        out
    }

    /// `self @ otherᵀ` (`[m×k] @ [n×k]ᵀ → [m×n]`) without materialising
    /// the transpose.
    ///
    /// This is the input-gradient kernel (`grad_out @ Wᵀ`). Every
    /// `out[i, j]` is a dot product of two rows, summed in ascending
    /// `p`; a single running sum would make each add wait for the one
    /// before it, so a block of output columns is accumulated side by
    /// side — independent chains, each in the same order as alone. The
    /// zeros of a `self` row are dropped once per row, not tested once
    /// per block: where they fall is data, so a branch on them
    /// mispredicts.
    pub(crate) fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        let mut self_row = Vec::with_capacity(k);
        let row = |j: usize| &other.data[j * k..(j + 1) * k];
        for i in 0..m {
            compact(&self.data[i * k..(i + 1) * k], &mut self_row);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let full = n - n % NT_LANES;
            for j in (0..full).step_by(NT_LANES) {
                let rows = std::array::from_fn(|l| row(j + l));
                out_row[j..j + NT_LANES].copy_from_slice(&dot_rows::<NT_LANES>(&self_row, rows));
            }
            for (j, out) in out_row.iter_mut().enumerate().skip(full) {
                *out = dot_rows::<1>(&self_row, [row(j)])[0];
            }
        }
        out
    }

    /// Adds a bias row vector to every row in place.
    pub(crate) fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Column sums (used for bias gradients).
    pub(crate) fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
        let tn = a.matmul_tn(&b);
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
        assert_eq!(m.col_sums(), vec![24., 46.]);
    }

    /// Unblocked ikj reference: the pre-blocking `matmul` kernel,
    /// accumulating each output element in ascending `p` order.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
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
    fn reference_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
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

    pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
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

    /// The kernels must be *bit-identical* to the unblocked references
    /// on shapes that straddle every tile boundary: the
    /// batched-vs-per-row training parity contract (and both golden
    /// logs) depends on the accumulation order being unchanged.
    #[test]
    fn blocked_kernels_are_bit_exact_across_tile_boundaries() {
        // (m, k, n) spanning below, at, and beyond BLOCK_ROWS (16) and
        // BLOCK_DEPTH (64), including non-multiples; the last five put
        // `n` below, at and one past NT_LANES (8) and at the widest
        // action layer.
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
        ] {
            let a = fill(m, k, (m * 1000 + k) as u32);
            let b = fill(k, n, (k * 1000 + n) as u32);
            assert_eq!(
                a.matmul(&b).data(),
                reference_matmul(&a, &b).data(),
                "matmul {m}x{k}x{n} drifted from the unblocked kernel"
            );
            let at = fill(k, m, (m * 31 + n) as u32);
            assert_eq!(
                at.matmul_tn(&b).data(),
                reference_matmul_tn(&at, &b).data(),
                "matmul_tn {m}x{k}x{n} drifted from the unblocked kernel"
            );
            // `a` already holds exact zeros; one all-zero row on top.
            let mut a = a;
            a.data[..k].fill(0.0);
            let bt = fill(n, k, (n * 77 + k) as u32);
            assert_eq!(
                bits(a.matmul_nt(&bt).data()),
                bits(reference_matmul_nt(&a, &bt).data()),
                "matmul_nt {m}x{k}x{n} drifted from the serial kernel"
            );
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
