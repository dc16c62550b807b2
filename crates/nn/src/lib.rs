//! Compatibility shim: the neural-network code is the module
//! `hfqo_rejoin::nn`. This crate re-exports the name the repository
//! benchmark (`perfbench/`) imports from it, so that package builds
//! unedited. Nothing in the workspace depends on it.

#![forbid(unsafe_code)]

pub use hfqo_rejoin::nn::Matrix;
