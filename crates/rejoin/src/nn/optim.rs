//! Gradient-descent optimizers.

use crate::nn::mlp::{Mlp, MlpGradients};

/// Panics unless `grads` is shaped exactly like `mlp`'s parameters.
///
/// The optimizer used to `zip` layers against gradients, which
/// silently *truncates* on a layer-count mismatch and soaks up
/// wrong-network bugs (e.g. stepping a policy with a value-head
/// gradient): the extra layers simply never trained. A mismatch is a
/// programming error, so it fails loudly at the step site.
fn assert_grad_shapes(mlp: &Mlp, grads: &MlpGradients) {
    assert_eq!(
        mlp.layers().len(),
        grads.layers.len(),
        "optimizer gradient shape mismatch: network has {} layers, gradients have {}",
        mlp.layers().len(),
        grads.layers.len()
    );
    for (i, (layer, (gw, gb))) in mlp.layers().iter().zip(&grads.layers).enumerate() {
        assert!(
            layer.w.rows() == gw.rows() && layer.w.cols() == gw.cols() && layer.b.len() == gb.len(),
            "optimizer gradient shape mismatch at layer {i}: weights {}x{} vs gradient {}x{}, \
             bias {} vs gradient {}",
            layer.w.rows(),
            layer.w.cols(),
            gw.rows(),
            gw.cols(),
            layer.b.len(),
            gb.len()
        );
    }
}

/// Adam (Kingma & Ba) with bias correction: applies [`MlpGradients`]
/// to an [`Mlp`].
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First/second moment estimates per layer: `(m_w, v_w, m_b, v_b)`.
    #[allow(clippy::type_complexity)]
    state: Vec<(Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
        }
    }

    fn ensure_state(&mut self, mlp: &Mlp) {
        if self.state.len() != mlp.layers().len() {
            self.state = mlp
                .layers()
                .iter()
                .map(|l| {
                    (
                        vec![0.0; l.w.data().len()],
                        vec![0.0; l.w.data().len()],
                        vec![0.0; l.b.len()],
                        vec![0.0; l.b.len()],
                    )
                })
                .collect();
        }
    }

    /// Applies one update step (gradient *descent*: parameters move
    /// against the gradient).
    pub fn step(&mut self, mlp: &mut Mlp, grads: &MlpGradients) {
        assert_grad_shapes(mlp, grads);
        self.ensure_state(mlp);
        self.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        // Zipped slices, no index: without bounds checks the loop
        // vectorises, and every multiply, divide and `sqrt` is the same
        // IEEE operation at any width, so the bits do not depend on it.
        let update = |params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]| {
            for (((w, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        };
        let layers = mlp.layers_mut().iter_mut().zip(&grads.layers);
        for ((layer, (gw, gb)), (mw, vw, mb, vb)) in layers.zip(&mut self.state) {
            update(layer.w.data_mut(), gw.data(), mw, vw);
            update(&mut layer.b, gb, mb, vb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::layer::Activation;
    use crate::nn::loss::mse_grad;
    use crate::nn::matrix::tests::fill;
    use crate::nn::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trains y = 2x − 1 on a tiny MLP.
    fn train_linear(mut opt: Adam, epochs: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, &mut rng);
        let xs: Vec<f32> = (0..20).map(|i| (i as f32) / 10.0 - 1.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let x = Matrix::from_vec(xs.len(), 1, xs.clone());
        let mut final_loss = f32::MAX;
        for _ in 0..epochs {
            let cache = mlp.forward(&x);
            let (loss, grad) = mse_grad(cache.output(), &ys);
            final_loss = loss;
            let grads = mlp.backward(&cache, grad);
            opt.step(&mut mlp, &grads);
        }
        final_loss
    }

    #[test]
    fn adam_fits_linear_function_faster() {
        let loss = train_linear(Adam::new(0.01), 500);
        assert!(loss < 0.01, "adam final loss {loss}");
    }

    /// Regression (silent-truncation bugfix): stepping with gradients
    /// from a differently-shaped network used to zip-truncate and
    /// silently skip the unmatched layers; it must panic.
    #[test]
    #[should_panic(expected = "optimizer gradient shape mismatch")]
    fn adam_rejects_layer_count_mismatch() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&[2, 4, 3, 1], Activation::ReLU, &mut rng);
        let other = Mlp::new(&[2, 4, 1], Activation::ReLU, &mut rng);
        let grads = crate::nn::mlp::MlpGradients::zeros_like(&other);
        Adam::new(0.1).step(&mut mlp, &grads);
    }

    /// Regression (silent-truncation bugfix): same layer count but
    /// mismatched per-layer shapes must also panic.
    #[test]
    #[should_panic(expected = "optimizer gradient shape mismatch at layer 1")]
    fn adam_rejects_per_layer_shape_mismatch() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&[2, 4, 3], Activation::ReLU, &mut rng);
        let other = Mlp::new(&[2, 4, 5], Activation::ReLU, &mut rng);
        let grads = crate::nn::mlp::MlpGradients::zeros_like(&other);
        Adam::new(0.01).step(&mut mlp, &grads);
    }

    /// The zipped-slice step equals, bit for bit, the indexed scalar
    /// loop it replaced — three steps (so the moments and both bias
    /// corrections are live) over a few thousand weights and biases,
    /// exact-zero gradients among them.
    #[test]
    fn adam_step_is_bit_identical_to_the_indexed_scalar_loop() {
        let (lr, beta1, beta2, eps) = (3e-4f32, 0.9f32, 0.999f32, 1e-8f32);
        let mut rng = StdRng::seed_from_u64(13);
        let mut mlp = Mlp::new(&[37, 61, 19], Activation::ReLU, &mut rng);
        let mut reference: Vec<Vec<f32>> = mlp
            .layers()
            .iter()
            .flat_map(|l| [l.w.data().to_vec(), l.b.clone()])
            .collect();
        let mut moments: Vec<(Vec<f32>, Vec<f32>)> = reference
            .iter()
            .map(|p| (vec![0.0; p.len()], vec![0.0; p.len()]))
            .collect();
        let mut adam = Adam::new(lr);
        for t in 1..=3 {
            let mut grads = crate::nn::mlp::MlpGradients::zeros_like(&mlp);
            for (l, (gw, gb)) in grads.layers.iter_mut().enumerate() {
                *gw = fill(gw.rows(), gw.cols(), (t * 10 + l) as u32);
                let row = fill(1, gb.len(), (t * 100 + l) as u32);
                gb.copy_from_slice(row.data());
            }
            assert!(grads.layers[0].0.data().contains(&0.0), "zeros among them");
            adam.step(&mut mlp, &grads);

            let bc1 = 1.0 - beta1.powi(t as i32);
            let bc2 = 1.0 - beta2.powi(t as i32);
            let flat = grads
                .layers
                .iter()
                .flat_map(|(gw, gb)| [gw.data(), &gb[..]]);
            for ((params, (m, v)), g) in reference.iter_mut().zip(&mut moments).zip(flat) {
                for i in 0..params.len() {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
                    let m_hat = m[i] / bc1;
                    let v_hat = v[i] / bc2;
                    params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            let stepped = mlp
                .layers()
                .iter()
                .flat_map(|l| [l.w.data(), &l.b[..]])
                .flatten();
            let expected = reference.iter().flatten();
            assert!(
                stepped
                    .map(|x| x.to_bits())
                    .eq(expected.map(|x| x.to_bits())),
                "step {t} drifted from the scalar loop"
            );
        }
    }

    #[test]
    fn adam_state_matches_network_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 3, 1], Activation::ReLU, &mut rng);
        let mut adam = Adam::new(0.01);
        let grads = crate::nn::mlp::MlpGradients::zeros_like(&mlp);
        adam.step(&mut mlp, &grads);
        assert_eq!(adam.state.len(), 2);
        assert_eq!(adam.state[0].0.len(), 6);
        assert_eq!(adam.state[1].2.len(), 1);
    }
}
