//! # hfqo-bench
//!
//! The paper's figures and its §4/§5 experiments: one module per
//! artifact under [`experiments`], and one binary with a subcommand for
//! each (`cargo run --release -p hfqo_bench -- fig3a --quick --seed 7`).
//! The subcommands and what each reproduces are listed once, in the
//! `EXPERIMENTS` table of `src/main.rs`; `--help` prints it.
//!
//! This crate takes no timing other than Figure 3c's planning-time
//! sweep, which is the figure. Performance is measured by the repo
//! benchmark, `perfbench/` under `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
pub mod report;

pub use args::RunArgs;
