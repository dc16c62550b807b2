//! Dense layers and activations.
//!
//! A [`Dense`] layer's backward pass comes in two halves:
//! [`Dense::backward`] yields the parameter gradients every layer
//! needs, `Dense::input_grad` the gradient handed to the layer below
//! — which the first layer of a network, having none, never calls.

use crate::nn::init;
use crate::nn::matrix::Matrix;
use rand::rngs::StdRng;

/// Elementwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no activation).
    Linear,
}

impl Activation {
    /// Applies the activation in place.
    pub fn forward(&self, m: &mut Matrix) {
        self.apply(m.data_mut());
    }

    /// Applies the activation to each value in place.
    pub(crate) fn apply(&self, values: &mut [f32]) {
        match self {
            Activation::ReLU => {
                for x in values {
                    if *x < 0.0 {
                        *x = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for x in values {
                    *x = x.tanh();
                }
            }
            Activation::Linear => {}
        }
    }

    /// Multiplies `grad` by the activation derivative, evaluated from the
    /// activation *output* (both ReLU and tanh derivatives are functions
    /// of the output, which avoids caching pre-activations).
    pub fn backward(&self, output: &Matrix, grad: &mut Matrix) {
        debug_assert_eq!(output.rows(), grad.rows());
        debug_assert_eq!(output.cols(), grad.cols());
        match self {
            Activation::ReLU => {
                for (g, y) in grad.data_mut().iter_mut().zip(output.data()) {
                    if *y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for (g, y) in grad.data_mut().iter_mut().zip(output.data()) {
                    *g *= 1.0 - y * y;
                }
            }
            Activation::Linear => {}
        }
    }
}

/// A fully-connected layer: `y = x @ W + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weights, `[input × output]`.
    pub w: Matrix,
    /// Bias, one per output.
    pub b: Vec<f32>,
}

impl Dense {
    /// He-initialised layer (suits the ReLU hidden stacks the agents use).
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        Self {
            w: init::he(input, output, rng),
            b: vec![0.0; output],
        }
    }

    /// Xavier-initialised layer (suits tanh/linear heads).
    pub(crate) fn xavier(input: usize, output: usize, rng: &mut StdRng) -> Self {
        Self {
            w: init::xavier(input, output, rng),
            b: vec![0.0; output],
        }
    }

    /// Input width.
    pub(crate) fn input_size(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub(crate) fn output_size(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass: `x @ W + b`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.w);
        out.add_row_bias(&self.b);
        out
    }

    /// Backward pass, parameter half. Given the layer input `x` and the
    /// loss gradient w.r.t. the layer output, returns `(grad_w, grad_b)`.
    pub fn backward(&self, x: &Matrix, grad_out: &Matrix) -> (Matrix, Vec<f32>) {
        (x.matmul_tn(grad_out), grad_out.col_sums())
    }

    /// Backward pass, input half: the loss gradient w.r.t. the layer
    /// input, `grad_out @ Wᵀ`. Only a layer with a layer below it needs
    /// this — nothing trains on the gradient of the network's input.
    pub(crate) fn input_grad(&self, grad_out: &Matrix) -> Matrix {
        grad_out.matmul_nt(&self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn relu_forward_backward() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        Activation::ReLU.forward(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0; 4]);
        Activation::ReLU.backward(&m, &mut g);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_forward_backward() {
        let mut m = Matrix::from_vec(1, 2, vec![0.0, 100.0]);
        Activation::Tanh.forward(&mut m);
        assert!((m.get(0, 0)).abs() < 1e-6);
        assert!((m.get(0, 1) - 1.0).abs() < 1e-6);
        let mut g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        Activation::Tanh.backward(&m, &mut g);
        assert!((g.get(0, 0) - 1.0).abs() < 1e-6); // derivative 1 at 0
        assert!(g.get(0, 1).abs() < 1e-5); // saturated
    }

    #[test]
    fn dense_forward_shape_and_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 3, &mut rng);
        layer.w = Matrix::from_vec(2, 3, vec![1., 0., 0., 0., 1., 0.]);
        layer.b = vec![0.5, 0.5, 0.5];
        let x = Matrix::from_vec(1, 2, vec![2.0, 3.0]);
        let y = layer.forward(&x);
        assert_eq!(y.data(), &[2.5, 3.5, 0.5]);
        assert_eq!(layer.input_size(), 2);
        assert_eq!(layer.output_size(), 3);
    }

    /// Finite-difference gradient check on a single dense layer with a
    /// scalar sum loss.
    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        // Loss = sum of outputs → grad_out = all ones.
        let grad_out = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let (grad_w, grad_b) = layer.backward(&x, &grad_out);
        let eps = 1e-3f32;
        let base: f32 = layer.forward(&x).data().iter().sum();
        for idx in 0..6 {
            let orig = layer.w.data()[idx];
            layer.w.data_mut()[idx] = orig + eps;
            let bumped: f32 = layer.forward(&x).data().iter().sum();
            layer.w.data_mut()[idx] = orig;
            let fd = (bumped - base) / eps;
            let an = grad_w.data()[idx];
            assert!((fd - an).abs() < 1e-2, "w[{idx}]: fd {fd} vs an {an}");
        }
        #[allow(clippy::needless_range_loop)] // index reads and writes b[i]
        for i in 0..2 {
            let orig = layer.b[i];
            layer.b[i] = orig + eps;
            let bumped: f32 = layer.forward(&x).data().iter().sum();
            layer.b[i] = orig;
            let fd = (bumped - base) / eps;
            assert!((fd - grad_b[i]).abs() < 1e-2, "b[{i}]");
        }
    }
}
