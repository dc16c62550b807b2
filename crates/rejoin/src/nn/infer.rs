//! Batch-1 inference: one input row through a frozen network, for the
//! logits of a few outputs.
//!
//! Acting with a policy is `n − 1` of these per plan, and of a wide
//! action layer only the legal actions' logits are ever read.
//! [`Mlp::logits_at`] therefore computes nothing else and allocates
//! nothing: the activations live in an [`InferScratch`] the caller
//! keeps across calls, and the output layer is evaluated at the
//! requested columns only.
//!
//! Every value is [`Mlp::predict`]'s, bit for bit, because every sum is
//! taken under [`crate::nn::matrix`]'s ordering rule: from `+0.0`, in
//! strictly ascending `p`, a term whose left factor is exactly `0.0`
//! skipped. What differs from `matmul` is only which sums are taken and
//! how sums of different outputs are interleaved.
//!
//! ## CPU vector width
//!
//! The kernel is compiled twice from one body: a portable build for the
//! target's baseline (SSE2 on `x86_64`, 4 lanes) and, on `x86_64`, an
//! AVX2 build (8 lanes). [`Mlp::logits_at`] runs the AVX2 build when
//! the CPU reports AVX2, through the crate's one `unsafe` call. The
//! vector width is therefore a property of the host, like the engine,
//! thread count and column encoding, and like them it cannot move a bit,
//! for two reasons:
//! - lanes only ever hold *different outputs'* sums; each sum still
//!   adds its terms one at a time, in ascending `p`, so a wider vector
//!   changes how many sums advance together, never a sum's order;
//! - AVX2 enables no fused multiply-add, and rustc never contracts
//!   `a * w + s` into one on its own, so every product is rounded before
//!   it is added, as in the portable build.
//!
//! No setting chooses the build. A global `-C target-cpu` would make
//! every binary fail with an illegal instruction on older CPUs, and
//! portable SIMD (`std::simd`) is not on stable Rust.

use crate::nn::mlp::Mlp;

/// The buffers [`Mlp::logits_at`] reuses from call to call.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// The current layer's input as `(p, value)` pairs.
    nonzero: Vec<(usize, f32)>,
    /// The current hidden layer's output.
    activation: Vec<f32>,
}

/// Writes the non-zeros of `row` to the front of `nonzero` as
/// `(p, row[p])` pairs in ascending `p` and returns how many there are.
/// Compacted without a branch — a zero is overwritten by the next
/// element, or left beyond the returned length — because where the zeros
/// fall is data.
fn compact(row: &[f32], nonzero: &mut Vec<(usize, f32)>) -> usize {
    if nonzero.len() < row.len() {
        nonzero.resize(row.len(), (0, 0.0));
    }
    let mut len = 0;
    for (p, &a) in row.iter().enumerate() {
        nonzero[len] = (p, a);
        len += usize::from(a != 0.0);
    }
    len
}

/// A compiled copy of [`Mlp::logits_kernel`]'s one body: for the
/// target's baseline CPU, or for CPUs with AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Build {
    /// The widest build the running CPU can execute. `std` probes the
    /// CPU once per process and caches the answer, so this is a load.
    /// The only constructor of [`Build::Avx2`].
    fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }
}

impl Mlp {
    /// The logits of one input row `x` at the columns `outputs`:
    /// `logits[i]` is, bit for bit, `self.predict(x)` at column
    /// `outputs[i]`. `logits` is cleared first; nothing is allocated
    /// once `scratch` and `logits` have grown to the network's widths.
    ///
    /// Runs the widest build of the kernel the CPU supports; every
    /// build returns the same bits (see the module docs).
    pub fn logits_at(
        &self,
        x: &[f32],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        self.logits_with(Build::host(), x, outputs, scratch, logits);
    }

    /// [`Self::logits_at`] through the given build.
    #[allow(unsafe_code)]
    fn logits_with(
        &self,
        build: Build,
        x: &[f32],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        match build {
            Build::Portable => self.logits_kernel(x, outputs, scratch, logits),
            // SAFETY: `Build::Avx2` exists only where `Build::host` saw
            // the CPU report AVX2, the one feature `logits_avx2` is
            // compiled for; it has no other precondition.
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => unsafe { self.logits_avx2(x, outputs, scratch, logits) },
        }
    }

    /// [`Self::logits_kernel`] compiled for AVX2: its loops run 8 lanes
    /// wide instead of 4. AVX2 implies no FMA, and rustc never fuses a
    /// multiply and an add on its own, so every lane rounds as before.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn logits_avx2(
        &self,
        x: &[f32],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        self.logits_kernel(x, outputs, scratch, logits);
    }

    /// The kernel's one body, inlined into each [`Build`].
    #[inline(always)]
    fn logits_kernel(
        &self,
        x: &[f32],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        assert_eq!(x.len(), self.input_size(), "input width mismatch");
        let InferScratch {
            nonzero,
            activation,
        } = scratch;
        let (head, hidden) = self.layers().split_last().expect("non-empty");
        let mut live = compact(x, nonzero);
        for layer in hidden {
            let n = layer.output_size();
            let w = layer.w.data();
            activation.clear();
            activation.resize(n, 0.0);
            for &(p, a) in &nonzero[..live] {
                let row = &w[p * n..(p + 1) * n];
                for (sum, &weight) in activation.iter_mut().zip(row) {
                    *sum += a * weight;
                }
            }
            for (sum, &bias) in activation.iter_mut().zip(&layer.b) {
                *sum += bias;
            }
            self.hidden_activation.apply(activation);
            live = compact(activation, nonzero);
        }
        // Only the requested columns of the output layer: one running
        // sum each, advanced together row by row, so no add waits on
        // another output's chain.
        let n = head.output_size();
        let w = head.w.data();
        logits.clear();
        logits.resize(outputs.len(), 0.0);
        for &(p, a) in &nonzero[..live] {
            let row = &w[p * n..(p + 1) * n];
            for (sum, &j) in logits.iter_mut().zip(outputs) {
                *sum += a * row[j];
            }
        }
        for (sum, &j) in logits.iter_mut().zip(outputs) {
            *sum += head.b[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Every requested logit has `predict`'s bits: at the planner's
    /// widths on a state-like sparse row, on a dense row, through tanh,
    /// with no hidden layer, for a few outputs, all of them, none, and a
    /// repeated one — one scratch serving networks of different widths.
    #[test]
    fn logits_have_predicts_bits() {
        let mut scratch = InferScratch::default();
        let mut logits = vec![7.0; 3];
        for (sizes, activation, seed) in [
            (&[646usize, 128, 128, 289][..], Activation::ReLU, 1u64),
            (&[40, 9, 70], Activation::Tanh, 2),
            (&[5, 3], Activation::ReLU, 3),
            (&[12, 8, 8, 8, 4], Activation::Linear, 4),
        ] {
            let mlp = Mlp::new(sizes, activation, &mut StdRng::seed_from_u64(seed));
            let (k, n) = (sizes[0], *sizes.last().unwrap());
            let dense = fill(1, k, seed as u32);
            let mut sparse = dense.clone();
            for (p, v) in sparse.data_mut().iter_mut().enumerate() {
                if p % 11 != 0 {
                    *v = 0.0;
                }
            }
            let all: Vec<usize> = (0..n).collect();
            let few = [n - 1, 0, n / 2, 0];
            for x in [dense.data(), sparse.data(), &vec![0.0; k][..]] {
                for outputs in [&all[..], &few[..], &[][..]] {
                    mlp.logits_at(x, outputs, &mut scratch, &mut logits);
                    assert_eq!(
                        bits(&logits),
                        bits(&predicted(&mlp, x, outputs)),
                        "{sizes:?} at {outputs:?}"
                    );
                }
            }
        }
    }

    /// The builds this host can run: the portable one, and the AVX2 one
    /// where the CPU reports AVX2.
    fn builds() -> Vec<Build> {
        let mut builds = vec![Build::Portable];
        if Build::host() != Build::Portable {
            builds.push(Build::host());
        }
        builds
    }

    /// Each build, called directly, has `predict`'s bits: at the
    /// planner's 646→128→128→289 widths through ReLU, Tanh and Linear,
    /// on a sparse state-like row, a dense one and an all-zero one, and
    /// with a NaN and an ∞ among the weights — there and in the small
    /// net of `non_finite_weights_propagate_as_in_predict`.
    #[test]
    fn every_build_has_predicts_bits() {
        let mut scratch = InferScratch::default();
        let mut logits = Vec::new();
        let sizes = [646usize, 128, 128, 289];
        let dense = fill(1, sizes[0], 5);
        let mut sparse = dense.clone();
        for (p, v) in sparse.data_mut().iter_mut().enumerate() {
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
        for build in builds() {
            for (i, mlp) in nets.iter().enumerate() {
                for x in [dense.data(), sparse.data(), &zero[..]] {
                    for outputs in [&all[..], &few[..]] {
                        mlp.logits_with(build, x, outputs, &mut scratch, &mut logits);
                        let want = predicted(mlp, x, outputs);
                        assert_eq!(bits(&logits), bits(&want), "{build:?}, net {i}");
                    }
                }
            }
            let (mlp, x, outputs) = non_finite_net();
            mlp.logits_with(build, &x, &outputs, &mut scratch, &mut logits);
            assert_eq!(
                bits(&logits),
                bits(&predicted(&mlp, &x, &outputs)),
                "{build:?}"
            );
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
        mlp.logits_at(&x, &outputs, &mut InferScratch::default(), &mut logits);
        assert_eq!(bits(&logits), bits(&predicted(&mlp, &x, &outputs)));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let mlp = Mlp::new(&[3, 2], Activation::ReLU, &mut StdRng::seed_from_u64(0));
        mlp.logits_at(&[1.0], &[0], &mut InferScratch::default(), &mut Vec::new());
    }
}
