//! Batch-1 inference: one sparse input row through a frozen network,
//! for the logits of a few outputs.
//!
//! Acting with a policy is `n − 1` of these per plan, and of a wide
//! action layer only the legal actions' logits are ever read. The
//! kernel ([`Mlp::logits_at`]) therefore computes nothing else and
//! allocates nothing, and it never reads an input's zeros:
//! - the input arrives as its non-zeros, `(p, value)` pairs in ascending
//!   `p` — a rollout state keeps that list as it merges (about 59 of a
//!   646-wide state at 17 relations), and a dense row is compacted once;
//! - each hidden layer is [`sum_rows`] over the previous layer's
//!   non-zeros, [`LANES`](crate::nn::matrix::LANES) outputs at a time
//!   in registers, the activations living in an [`InferScratch`] the
//!   caller keeps across calls;
//! - the output layer is read transposed (see [`transposed_head`]): one
//!   contiguous row per requested output, [`HEAD_LANES`] rows advanced
//!   together. A frozen network builds that layout once, not per call.
//!
//! Every value is [`Mlp::predict`]'s, bit for bit, because every sum is
//! taken under [`crate::nn::matrix`]'s ordering rule: from `+0.0`, in
//! strictly ascending `p`, a term whose left factor is exactly `0.0`
//! skipped. What differs from `matmul` is only which sums are taken and
//! how sums of different outputs are interleaved. The rule's one
//! exception holds here too: where two different NaNs meet in one sum,
//! the result is NaN in both, but which NaN is not fixed.
//!
//! [`Mlp::logits_at`] runs the kernel's one body through [`Build::host`],
//! at the CPU's vector width (see `nn::build`).

use crate::nn::build::Build;
use crate::nn::layer::Dense;
use crate::nn::matrix::{compact, dot_rows, sum_rows, Matrix};
use crate::nn::mlp::Mlp;

/// Output-layer logits accumulated side by side: enough independent
/// add chains to cover the latency of one. A last group of at most half
/// as many runs half as wide.
const HEAD_LANES: usize = 8;

/// The buffers the inference kernel
/// ([`PolicySnapshot::logits_at`](crate::rl::PolicySnapshot::logits_at))
/// reuses from call to call.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// The current hidden layer's non-zero outputs as `(p, value)` pairs.
    nonzero: Vec<(usize, f32)>,
    /// The current hidden layer's output.
    activation: Vec<f32>,
}

/// The output layer's weights of `mlp`, transposed: row `j` holds output
/// `j`'s weight for each input `p`, contiguously. What
/// [`Mlp::logits_at`] reads the output layer from, and what the
/// backward pass multiplies the output gradient by; a frozen network
/// builds it once, so each call reads only the requested rows.
pub(crate) fn transposed_head(mlp: &Mlp, build: Build) -> Matrix {
    let head = mlp.layers().last().expect("non-empty");
    build.run(
        #[inline(always)]
        || head.w.transpose(),
    )
}

impl Mlp {
    /// The logits of one input row at the columns `outputs`, the row
    /// given as its non-zeros `x`, `(p, value)` pairs in ascending `p`,
    /// and the output layer as [`transposed_head`] of `self`:
    /// `logits[i]` is, bit for bit, `self.predict(row)` at column
    /// `outputs[i]`. `logits` is cleared first; nothing is allocated
    /// once `scratch` and `logits` have grown to the network's widths.
    ///
    /// Runs the widest build of the kernel the CPU supports; every
    /// build returns the same bits (see the module docs).
    pub(crate) fn logits_at(
        &self,
        head_t: &[f32],
        x: &[(usize, f32)],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        self.logits_with(Build::host(), head_t, x, outputs, scratch, logits);
    }

    /// [`Self::logits_at`] through the given build.
    fn logits_with(
        &self,
        build: Build,
        head_t: &[f32],
        x: &[(usize, f32)],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        build.run(
            #[inline(always)]
            || self.logits_kernel(head_t, x, outputs, scratch, logits),
        );
    }

    /// The kernel's one body, inlined into each [`Build`].
    #[inline(always)]
    fn logits_kernel(
        &self,
        head_t: &[f32],
        x: &[(usize, f32)],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        debug_assert!(x.is_sorted_by(|a, b| a.0 < b.0), "non-zeros ascend");
        assert!(
            x.last().is_none_or(|&(p, _)| p < self.input_size()),
            "input index beyond the input width"
        );
        let (head, hidden) = self.layers().split_last().expect("non-empty");
        let k = head.input_size();
        assert_eq!(head_t.len(), k * head.output_size(), "head shape mismatch");
        let InferScratch {
            nonzero,
            activation,
        } = scratch;
        let mut compacted = false;
        for layer in hidden {
            let input = if compacted { &nonzero[..] } else { x };
            hidden_sums(layer, input, activation);
            self.hidden_activation.apply(activation);
            compact(activation, nonzero);
            compacted = true;
        }
        let input = if compacted { &nonzero[..] } else { x };
        logits.clear();
        let mut groups = outputs.chunks_exact(HEAD_LANES);
        for group in &mut groups {
            head_logits::<HEAD_LANES>(head, head_t, input, group, logits);
        }
        // The rest in half as many lanes when they fit.
        match groups.remainder() {
            [] => {}
            rest if rest.len() <= HEAD_LANES / 2 => {
                head_logits::<{ HEAD_LANES / 2 }>(head, head_t, input, rest, logits)
            }
            rest => head_logits::<HEAD_LANES>(head, head_t, input, rest, logits),
        }
    }
}

/// Appends to `logits` the output layer's logits at the (at most `L`)
/// columns `outputs`, `L` sums advancing together over `input`, each
/// read from its row of the transposed head `head_t`. A group shorter
/// than `L` repeats its last output to fill the lanes; the repeats are
/// computed and dropped.
#[inline(always)]
fn head_logits<const L: usize>(
    head: &Dense,
    head_t: &[f32],
    input: &[(usize, f32)],
    outputs: &[usize],
    logits: &mut Vec<f32>,
) {
    let k = head.input_size();
    let rows = std::array::from_fn(|l| {
        let j = outputs[l.min(outputs.len() - 1)];
        &head_t[j * k..(j + 1) * k]
    });
    let sums = dot_rows::<L>(input, rows);
    logits.extend(sums.iter().zip(outputs).map(|(sum, &j)| sum + head.b[j]));
}

/// `out = input · layer.w + layer.b` before the activation, `input`
/// given as its non-zeros in ascending `p`.
#[inline(always)]
fn hidden_sums(layer: &Dense, input: &[(usize, f32)], out: &mut Vec<f32>) {
    out.resize(layer.output_size(), 0.0);
    sum_rows(input, layer.w.data(), out);
    for (sum, &bias) in out.iter_mut().zip(&layer.b) {
        *sum += bias;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::build::tests::builds;
    use crate::nn::layer::Activation;
    use crate::nn::matrix::tests::{bits, fill};
    use crate::nn::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `predict`'s logits at `outputs`.
    fn predicted(mlp: &Mlp, x: &[f32], outputs: &[usize]) -> Vec<f32> {
        let full = mlp.predict(&Matrix::row_vector(x.to_vec()));
        outputs.iter().map(|&j| full.get(0, j)).collect()
    }

    /// The non-zeros of `x`.
    fn sparse(x: &[f32]) -> Vec<(usize, f32)> {
        let mut nonzero = Vec::new();
        compact(x, &mut nonzero);
        nonzero
    }

    #[test]
    fn transposed_head_rows_are_output_columns() {
        let mlp = Mlp::new(&[3, 4, 5], Activation::ReLU, &mut StdRng::seed_from_u64(8));
        let t = transposed_head(&mlp, Build::host());
        let w = &mlp.layers()[1].w;
        for j in 0..5 {
            for p in 0..4 {
                assert_eq!(t.get(j, p).to_bits(), w.get(p, j).to_bits());
            }
        }
    }

    /// Every requested logit has `predict`'s bits: at the planner's
    /// widths on a state-like sparse row, on a dense row, through tanh,
    /// with no hidden layer, for a few outputs, all of them, none, and a
    /// repeated one — one scratch serving networks of different widths,
    /// some of them not a multiple of the lane counts.
    #[test]
    fn logits_have_predicts_bits() {
        let mut scratch = InferScratch::default();
        let mut logits = vec![7.0; 3];
        for (sizes, activation, seed) in [
            (&[646usize, 128, 128, 289][..], Activation::ReLU, 1u64),
            (&[40, 9, 70], Activation::Tanh, 2),
            (&[5, 3], Activation::ReLU, 3),
            (&[12, 8, 8, 8, 4], Activation::Linear, 4),
            (&[30, 100, 65, 11], Activation::ReLU, 5),
        ] {
            let mlp = Mlp::new(sizes, activation, &mut StdRng::seed_from_u64(seed));
            let head = transposed_head(&mlp, Build::host());
            let (k, n) = (sizes[0], *sizes.last().unwrap());
            let dense = fill(1, k, seed as u32);
            let mut sparse_row = dense.clone();
            for (p, v) in sparse_row.data_mut().iter_mut().enumerate() {
                if p % 11 != 0 {
                    *v = 0.0;
                }
            }
            let all: Vec<usize> = (0..n).collect();
            let few = [n - 1, 0, n / 2, 0];
            for x in [dense.data(), sparse_row.data(), &vec![0.0; k][..]] {
                for outputs in [&all[..], &few[..], &[][..]] {
                    mlp.logits_at(head.data(), &sparse(x), outputs, &mut scratch, &mut logits);
                    assert_eq!(
                        bits(&logits),
                        bits(&predicted(&mlp, x, outputs)),
                        "{sizes:?} at {outputs:?}"
                    );
                }
            }
        }
    }

    /// Each build, called directly with a row's non-zeros and the
    /// transposed head, has `predict`'s bits: at the planner's
    /// 646→128→128→289 widths through ReLU, Tanh and Linear, on a sparse
    /// state-like row, a dense one and an all-zero one, with a NaN in
    /// the second layer's weights and an ∞ in the head's, with a −∞ in
    /// the first layer's at an input only the dense row sets, and in the
    /// small net of `non_finite_weights_propagate_as_in_predict`.
    #[test]
    fn every_build_has_predicts_bits() {
        let mut scratch = InferScratch::default();
        let mut logits = Vec::new();
        let sizes = [646usize, 128, 128, 289];
        let dense = fill(1, sizes[0], 5);
        let mut sparse_row = dense.clone();
        for (p, v) in sparse_row.data_mut().iter_mut().enumerate() {
            if p % 23 != 0 {
                *v = 0.0;
            }
        }
        let zero = vec![0.0; sizes[0]];
        let all: Vec<usize> = (0..sizes[3]).collect();
        let few = [288, 0, 144, 17, 0];
        let mut nets = Vec::new();
        for (seed, activation) in [Activation::ReLU, Activation::Tanh, Activation::Linear]
            .into_iter()
            .enumerate()
        {
            let mut mlp = Mlp::new(&sizes, activation, &mut StdRng::seed_from_u64(seed as u64));
            nets.push(mlp.clone());
            mlp.layers_mut()[1].w.data_mut()[300] = f32::NAN;
            mlp.layers_mut()[2].w.data_mut()[1000] = f32::INFINITY;
            nets.push(mlp);
        }
        // A −∞ in the first layer at an input the sparse row leaves zero:
        // skipped there, reached by the dense row.
        let mut mlp = nets[0].clone();
        mlp.layers_mut()[0].w.data_mut()[24 * 128 + 5] = f32::NEG_INFINITY;
        nets.push(mlp);
        for build in builds() {
            for (i, mlp) in nets.iter().enumerate() {
                let head = transposed_head(mlp, Build::host());
                for x in [dense.data(), sparse_row.data(), &zero[..]] {
                    for outputs in [&all[..], &few[..]] {
                        mlp.logits_with(
                            build,
                            head.data(),
                            &sparse(x),
                            outputs,
                            &mut scratch,
                            &mut logits,
                        );
                        let want = predicted(mlp, x, outputs);
                        assert_eq!(bits(&logits), bits(&want), "{build:?}, net {i}");
                    }
                }
            }
            let (mlp, x, outputs) = non_finite_net();
            let head = transposed_head(&mlp, Build::host());
            mlp.logits_with(
                build,
                head.data(),
                &sparse(&x),
                &outputs,
                &mut scratch,
                &mut logits,
            );
            assert_eq!(
                bits(&logits),
                bits(&predicted(&mlp, &x, &outputs)),
                "{build:?}"
            );
        }
    }

    /// Where two differently signed NaNs meet in one sum — the NaN/∞
    /// net of `every_build_has_predicts_bits` with a −∞ first-layer
    /// weight its dense row reaches, so a `−∞ + ∞` default NaN meets the
    /// NaN weight's `+NaN` — each build's logit is NaN where
    /// `predict`'s is, and has `predict`'s bits everywhere else.
    #[test]
    fn differently_signed_nans_are_nan_in_every_build() {
        use crate::nn::matrix::tests::assert_bits_nan_as_class;
        let sizes = [646usize, 128, 128, 289];
        let mut mlp = Mlp::new(&sizes, Activation::ReLU, &mut StdRng::seed_from_u64(0));
        mlp.layers_mut()[1].w.data_mut()[300] = f32::NAN;
        mlp.layers_mut()[2].w.data_mut()[1000] = f32::INFINITY;
        mlp.layers_mut()[0].w.data_mut()[24 * 128 + 5] = f32::NEG_INFINITY;
        let dense = fill(1, sizes[0], 5);
        let all: Vec<usize> = (0..sizes[3]).collect();
        let want = predicted(&mlp, dense.data(), &all);
        let (mut scratch, mut logits) = (InferScratch::default(), Vec::new());
        for build in builds() {
            let head = transposed_head(&mlp, build);
            let x = sparse(dense.data());
            mlp.logits_with(build, head.data(), &x, &all, &mut scratch, &mut logits);
            let nans = assert_bits_nan_as_class(&logits, &want, &format!("{build:?}"));
            assert!(nans > 0, "the net must meet NaNs");
        }
    }

    /// A small net with a NaN and an ∞ weight, an input row, and every
    /// output column.
    fn non_finite_net() -> (Mlp, [f32; 6], [usize; 5]) {
        let mut mlp = Mlp::new(&[6, 4, 5], Activation::ReLU, &mut StdRng::seed_from_u64(9));
        mlp.layers_mut()[1].w.data_mut()[7] = f32::NAN;
        mlp.layers_mut()[1].w.data_mut()[3] = f32::INFINITY;
        (mlp, [0.5, -0.25, 0.0, 1.5, 0.0, -2.0], [0, 1, 2, 3, 4])
    }

    /// A NaN weight reaches the logits it reaches in `predict` and no
    /// others: the kernel skips exactly the terms `matmul` skips.
    #[test]
    fn non_finite_weights_propagate_as_in_predict() {
        let (mlp, x, outputs) = non_finite_net();
        let mut logits = Vec::new();
        let head = transposed_head(&mlp, Build::host());
        let mut scratch = InferScratch::default();
        mlp.logits_at(
            head.data(),
            &sparse(&x),
            &outputs,
            &mut scratch,
            &mut logits,
        );
        assert_eq!(bits(&logits), bits(&predicted(&mlp, &x, &outputs)));
    }

    #[test]
    #[should_panic(expected = "input index beyond the input width")]
    fn input_beyond_the_width_panics() {
        let mlp = Mlp::new(&[3, 2], Activation::ReLU, &mut StdRng::seed_from_u64(0));
        let head = transposed_head(&mlp, Build::host());
        let mut scratch = InferScratch::default();
        mlp.logits_at(
            head.data(),
            &[(3, 1.0)],
            &[0],
            &mut scratch,
            &mut Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "head shape mismatch")]
    fn another_nets_head_panics() {
        let mlp = Mlp::new(&[3, 2], Activation::ReLU, &mut StdRng::seed_from_u64(0));
        let other = Mlp::new(&[3, 4, 3], Activation::ReLU, &mut StdRng::seed_from_u64(0));
        let head = transposed_head(&other, Build::host());
        let mut scratch = InferScratch::default();
        mlp.logits_at(
            head.data(),
            &[(0, 1.0)],
            &[0],
            &mut scratch,
            &mut Vec::new(),
        );
    }
}
