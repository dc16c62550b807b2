//! Multi-layer perceptrons.
//!
//! [`Mlp::backward`] returns parameter gradients and nothing else. The
//! chain rule needs each layer's *input* gradient only to reach the
//! layer below, so the first layer computes none: the gradient with
//! respect to the network's input (the features) has no reader, and at
//! ReJOIN's widths it was the largest product of the whole pass.

use crate::layer::{Activation, Dense};
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// A feed-forward network: dense layers with a shared hidden activation
/// and a linear output layer (logits or scalar predictions).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    pub(crate) hidden_activation: Activation,
}

// Policy snapshots ship cloned networks across threads (parallel
// episode collection); forward passes take `&self`, so `Sync` must
// hold too. Owned weight buffers give both for free — this assertion
// keeps it that way.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mlp>();
};

/// Per-layer parameter gradients from one backward pass.
#[derive(Debug, Clone)]
pub struct MlpGradients {
    /// `(grad_w, grad_b)` per layer, in layer order.
    pub layers: Vec<(Matrix, Vec<f32>)>,
}

impl MlpGradients {
    /// Zero gradients shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            layers: mlp
                .layers
                .iter()
                .map(|l| (Matrix::zeros(l.w.rows(), l.w.cols()), vec![0.0; l.b.len()]))
                .collect(),
        }
    }

    /// Accumulates another gradient set (for minibatch averaging).
    pub fn add(&mut self, other: &MlpGradients) {
        for ((w, b), (ow, ob)) in self.layers.iter_mut().zip(&other.layers) {
            for (x, y) in w.data_mut().iter_mut().zip(ow.data()) {
                *x += y;
            }
            for (x, y) in b.iter_mut().zip(ob) {
                *x += y;
            }
        }
    }

    /// Scales all gradients (e.g. by `1 / batch`).
    pub fn scale(&mut self, factor: f32) {
        for (w, b) in &mut self.layers {
            for x in w.data_mut() {
                *x *= factor;
            }
            for x in b.iter_mut() {
                *x *= factor;
            }
        }
    }

    /// Global L2 norm of all gradients.
    pub fn l2_norm(&self) -> f32 {
        let mut acc = 0.0f32;
        for (w, b) in &self.layers {
            acc += w.data().iter().map(|x| x * x).sum::<f32>();
            acc += b.iter().map(|x| x * x).sum::<f32>();
        }
        acc.sqrt()
    }

    /// Clips the global norm to `max_norm` (no-op when already below).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

/// Forward-pass cache required for backpropagation.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input plus every layer's post-activation output, in order
    /// (`activations[0]` is the network input).
    activations: Vec<Matrix>,
}

impl ForwardCache {
    /// The network output.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("non-empty cache")
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[input, 128, 128,
    /// actions]`, ReLU (He-initialised) between hidden layers and a linear
    /// Xavier-initialised output layer.
    pub fn new(sizes: &[usize], hidden_activation: Activation, rng: &mut StdRng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let is_output = i == sizes.len() - 2;
            let layer = if is_output || hidden_activation == Activation::Tanh {
                Dense::xavier(sizes[i], sizes[i + 1], rng)
            } else {
                Dense::new(sizes[i], sizes[i + 1], rng)
            };
            layers.push(layer);
        }
        Self {
            layers,
            hidden_activation,
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers.first().expect("non-empty").input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers.last().expect("non-empty").output_size()
    }

    /// Total parameter count.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.data().len() + l.b.len())
            .sum()
    }

    /// The layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Forward pass, returning the cache needed by [`backward`].
    ///
    /// [`backward`]: Self::backward
    pub fn forward(&self, x: &Matrix) -> ForwardCache {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.clone());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = layer.forward(activations.last().expect("non-empty"));
            if i + 1 < self.layers.len() {
                self.hidden_activation.forward(&mut out);
            }
            activations.push(out);
        }
        ForwardCache { activations }
    }

    /// Convenience forward pass that discards the cache.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        self.forward(x).output().clone()
    }

    /// Backward pass from the gradient w.r.t. the network output;
    /// returns per-layer parameter gradients. The chain stops at the
    /// first layer's parameters: the gradient w.r.t. the network input
    /// (the features) is never computed, because nothing reads it.
    pub fn backward(&self, cache: &ForwardCache, grad_output: Matrix) -> MlpGradients {
        let mut grads = Vec::with_capacity(self.layers.len());
        let mut grad = grad_output;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let input = &cache.activations[i];
            grads.push(layer.backward(input, &grad));
            if i > 0 {
                // The layer's input was the previous layer's output;
                // apply its activation derivative.
                grad = layer.input_grad(&grad);
                self.hidden_activation.backward(input, &mut grad);
            }
        }
        grads.reverse();
        MlpGradients { layers: grads }
    }

    /// Copies all parameters from another identically-shaped network
    /// (used by target-network style updates and re-demonstration).
    pub fn copy_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len(), "shape mismatch");
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.w = theirs.w.clone();
            mine.b = theirs.b.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{bits, fill, reference_matmul_nt};
    use rand::SeedableRng;

    fn tiny() -> Mlp {
        Mlp::new(
            &[3, 5, 4, 2],
            Activation::ReLU,
            &mut StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn shapes_and_counts() {
        let mlp = tiny();
        assert_eq!(mlp.input_size(), 3);
        assert_eq!(mlp.output_size(), 2);
        assert_eq!(mlp.parameter_count(), 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2);
        let x = Matrix::zeros(7, 3);
        let y = mlp.predict(&x);
        assert_eq!(y.rows(), 7);
        assert_eq!(y.cols(), 2);
    }

    /// Full-network gradient check: scalar loss = sum of outputs.
    #[test]
    fn backward_matches_finite_difference() {
        let mut mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut StdRng::seed_from_u64(2));
        let x = Matrix::from_vec(2, 4, vec![0.1, -0.3, 0.2, 0.5, -0.1, 0.4, 0.0, -0.2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let grads = mlp.backward(&cache, grad_out);
        let loss = |m: &Mlp| -> f32 { m.predict(&x).data().iter().sum() };
        let base = loss(&mlp);
        let eps = 1e-3f32;
        for layer_idx in 0..2 {
            // Check a handful of weights per layer.
            for widx in [0usize, 3, 7] {
                if widx >= mlp.layers()[layer_idx].w.data().len() {
                    continue;
                }
                let orig = mlp.layers()[layer_idx].w.data()[widx];
                mlp.layers_mut()[layer_idx].w.data_mut()[widx] = orig + eps;
                let bumped = loss(&mlp);
                mlp.layers_mut()[layer_idx].w.data_mut()[widx] = orig;
                let fd = (bumped - base) / eps;
                let an = grads.layers[layer_idx].0.data()[widx];
                assert!(
                    (fd - an).abs() < 2e-2,
                    "layer {layer_idx} w[{widx}]: fd {fd} vs an {an}"
                );
            }
        }
    }

    /// `backward` as it was when the chain ran to the network input and
    /// every input gradient was one serial dot product per element.
    fn full_chain_backward(mlp: &Mlp, cache: &ForwardCache, grad_output: Matrix) -> MlpGradients {
        let mut grads = Vec::new();
        let mut grad = grad_output;
        for (i, layer) in mlp.layers.iter().enumerate().rev() {
            let input = &cache.activations[i];
            grads.push(layer.backward(input, &grad));
            grad = reference_matmul_nt(&grad, &layer.w);
            if i > 0 {
                mlp.hidden_activation.backward(input, &mut grad);
            }
        }
        grads.reverse();
        MlpGradients { layers: grads }
    }

    /// Dropping the first layer's input gradient and running the others
    /// through the side-by-side kernel moves no bit of any parameter
    /// gradient — on the planner's widest network one row at a time, and
    /// on the drift scenario's at its batch size, with the output
    /// gradient mostly exact zeros as masked logits leave it.
    #[test]
    fn backward_is_bit_identical_to_the_full_serial_chain() {
        for (sizes, batch) in [
            (&[646usize, 128, 128, 289], 1usize),
            (&[160, 128, 128, 64], 18),
        ] {
            let mlp = Mlp::new(sizes, Activation::ReLU, &mut StdRng::seed_from_u64(11));
            let x = fill(batch, sizes[0], 5);
            let mut grad_out = fill(batch, sizes[3], 6);
            for (j, g) in grad_out.data_mut().iter_mut().enumerate() {
                if j % 5 != 0 {
                    *g = 0.0;
                }
            }
            let cache = mlp.forward(&x);
            let got = mlp.backward(&cache, grad_out.clone());
            let want = full_chain_backward(&mlp, &cache, grad_out);
            assert_eq!(got.layers.len(), want.layers.len());
            for (l, ((gw, gb), (ww, wb))) in got.layers.iter().zip(&want.layers).enumerate() {
                assert!(gw.data().iter().any(|g| *g != 0.0), "layer {l} trained");
                assert_eq!(
                    bits(gw.data()),
                    bits(ww.data()),
                    "{sizes:?} layer {l} weights"
                );
                assert_eq!(bits(gb), bits(wb), "{sizes:?} layer {l} biases");
            }
        }
    }

    #[test]
    fn gradient_utilities() {
        let mlp = tiny();
        let mut g = MlpGradients::zeros_like(&mlp);
        assert_eq!(g.l2_norm(), 0.0);
        let x = Matrix::from_vec(1, 3, vec![1.0, -1.0, 0.5]);
        let cache = mlp.forward(&x);
        let real = mlp.backward(&cache, Matrix::from_vec(1, 2, vec![1.0, -1.0]));
        g.add(&real);
        g.add(&real);
        g.scale(0.5);
        // g should now equal real.
        for (a, b) in g.layers.iter().zip(&real.layers) {
            for (x, y) in a.0.data().iter().zip(b.0.data()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
        let norm_before = g.l2_norm();
        g.clip_global_norm(norm_before / 2.0);
        assert!((g.l2_norm() - norm_before / 2.0).abs() < 1e-3);
    }

    #[test]
    fn copy_from_clones_parameters() {
        let a = tiny();
        let mut b = Mlp::new(
            &[3, 5, 4, 2],
            Activation::ReLU,
            &mut StdRng::seed_from_u64(99),
        );
        assert_ne!(a, b);
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a, b);
    }
}
