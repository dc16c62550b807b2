//! # hfqo-perfbench
//!
//! The repo's benchmark. `BENCHMARK.json` at the repository root names
//! the command, the workloads and the metrics; `README.md` beside this
//! crate records why each was chosen and how the layers map to them.
//!
//! | Module | What it holds |
//! |---|---|
//! | [`ledger`] | percentile and segment maths, zipf sampler, span tracer, peak RSS, the result line |
//! | [`staged`] | `QuerySession::serve` re-made from its public calls, with a span around each |
//! | [`workloads`] | the five op lists and the worlds that serve them |
//! | [`probes`] | single-layer timings on captured inputs (operators, NN, statistics) |
//! | [`run`] | one run: set-up, timed segments, trace, verification |

pub mod ledger;
pub mod probes;
pub mod run;
pub mod staged;
pub mod workloads;
