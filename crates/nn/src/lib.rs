//! # hfqo-nn
//!
//! A small, dependency-free neural-network library: row-major `f32`
//! matrices, dense layers with manual backpropagation, ReLU/Tanh
//! activations, masked-softmax policy heads, cross-entropy / MSE /
//! policy-gradient losses, and an Adam optimizer.
//!
//! Scope is deliberately exactly what the paper's agents need (ReJOIN used
//! a two-hidden-layer 128×128 MLP): no autograd graph, no GPU — just
//! gradient-checked dense math that runs deterministically from a seed,
//! which is what makes the experiments in `hfqo-bench` reproducible.

pub mod infer;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;

pub use infer::InferScratch;
pub use layer::{Activation, Dense};
pub use loss::{cross_entropy_grad, masked_softmax, mse_grad, policy_gradient, softmax_in_place};
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpGradients};
pub use optim::{Adam, Optimizer};
