//! A small, dependency-free neural-network library: row-major `f32`
//! matrices, dense layers with manual backpropagation, ReLU/Tanh
//! activations, masked-softmax policy heads, MSE and policy-gradient
//! losses, and an Adam optimizer.
//!
//! Scope is deliberately exactly what the paper's agents need (ReJOIN used
//! a two-hidden-layer 128×128 MLP): no autograd graph, no GPU — just
//! gradient-checked dense math that runs deterministically from a seed,
//! which is what makes the experiments in `hfqo_bench` reproducible.

mod infer;
mod init;
mod layer;
pub(crate) mod loss;
mod matrix;
mod mlp;
mod optim;

pub use infer::InferScratch;
pub use layer::{Activation, Dense};
pub use loss::masked_softmax;
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpGradients};
pub use optim::Adam;
