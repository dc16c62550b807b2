//! Compatibility shim: the reinforcement-learning code is the module
//! `hfqo_rejoin::rl`. The repository benchmark (`perfbench/`) lists this
//! crate in its manifest but imports nothing from it, so it re-exports
//! nothing. Nothing in the workspace depends on it.
