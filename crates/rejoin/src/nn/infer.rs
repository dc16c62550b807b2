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

impl Mlp {
    /// The logits of one input row `x` at the columns `outputs`:
    /// `logits[i]` is, bit for bit, `self.predict(x)` at column
    /// `outputs[i]`. `logits` is cleared first; nothing is allocated
    /// once `scratch` and `logits` have grown to the network's widths.
    pub fn logits_at(
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

    /// A NaN weight reaches the logits it reaches in `predict` and no
    /// others: the kernel skips exactly the terms `matmul` skips.
    #[test]
    fn non_finite_weights_propagate_as_in_predict() {
        let mut mlp = Mlp::new(&[6, 4, 5], Activation::ReLU, &mut StdRng::seed_from_u64(9));
        mlp.layers_mut()[1].w.data_mut()[7] = f32::NAN;
        mlp.layers_mut()[1].w.data_mut()[3] = f32::INFINITY;
        let x = [0.5, -0.25, 0.0, 1.5, 0.0, -2.0];
        let outputs = [0, 1, 2, 3, 4];
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
