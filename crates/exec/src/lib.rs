//! # hfqo-exec
//!
//! The execution engine: **one vectorized evaluator** — stage by stage,
//! morsel-driven, with `threads = 1` as its inline case — plus the
//! original row-at-a-time engine kept beside it as the verification
//! oracle. The executor is the hot path of every training episode and
//! every served query (the paper's reward is observed execution
//! behaviour), so its throughput directly bounds the workload sizes the
//! RL agent can train on.
//!
//! ## Architecture
//!
//! ```text
//!  execute / execute_for_stats / TrueCardinality   ── facade (executor.rs, truecard.rs)
//!    └─ evaluate(root, what the root carries, config) ── the evaluator (parallel.rs)
//!         ├─ derive     checks + a flat stage list, once (stages.rs)
//!         └─ run        the list over an operand stack, from a per-thread arena
//!              ├─ scan       ScanSpec + filter kernels (ops/scan.rs, ops/filter.rs)
//!              ├─ join       hash / nested-loop / sort-merge stages
//!              └─ aggregate  AggSpec + Acc (ops/agg.rs)
//!                   ⇅ one materialised column chunk per stage
//!  execute_rows                                     ── row oracle (rowexec.rs)
//! ```
//!
//! **One derivation, then a flat stage list** ([`stages`]). An execute
//! pays for its plan's shape once: one post-order pass makes the plan
//! checks of `PhysicalPlan::validate` and works out every node's output
//! columns and types, every join's condition slots, output map and key
//! form, into a flat list of stages. The list holds no literal, so two
//! constants of one template derive the same list; the scans read the
//! selections when they run.
//!
//! **Stages** ([`parallel`]). The list runs bottom-up over an explicit
//! operand stack, one stage at a time: a scan, a join's build and probe,
//! the root aggregation. Each stage fans out over a team of up to
//! [`ExecConfig::threads`] workers that claim fixed-size row ranges
//! (**morsels**, [`ExecConfig::morsel_rows`]) from a shared atomic
//! dispenser; hash-join builds and grouped aggregation are
//! radix-partitioned so every partition is owned by one worker. Outputs
//! reassemble in morsel order and budget charges flush to one shared
//! counter, so results, row order, and `ExecStats::work` are
//! bit-identical at any thread count. A team of one runs inline on the
//! calling thread, without partitioning: the default `threads = 1` is
//! the degenerate case of the same code, not a second engine.
//!
//! **A scratch arena per thread.** Stages draw their chunk columns,
//! selection vectors, pair buffers and join tables from a thread-local
//! arena, reused across the stages and the executes on one thread, and
//! give them back; what the arena keeps between executes is bounded, so
//! a large plan's buffers are freed rather than held. A
//! `template_zipf`-shaped execute allocates a handful of times, for its
//! output rows and schema.
//!
//! **Joins** emit `(left row, right row)` id pairs, gathered into the
//! output columns a bounded vector at a time (a zero-width output is
//! only counted); a comparison between two integer columns is resolved
//! once per join to typed slices, so the nested loop scans an `&[i64]`
//! per probe key, the hash probe does not re-check the key it hashed
//! on, and the remaining conditions narrow a probe row's matches a run
//! at a time. A hash join's table holds what its probe reads: with a
//! second integer `=` it files rows per key pair beside a count per
//! first key, and under a zero-width output with nothing left to check
//! it holds only counts; an empty probe side builds nothing. An output
//! column that asks for the build side's integer `=` key of a hash join
//! or a nested loop is read from the probe side's key, which equals it
//! on every emitted pair, so a key-only output reads no build column: a
//! probe row's matches become copies of that row, filled column by
//! column when there are many. A probe morsel whose integer keys come
//! in runs of equal keys is worked a run at a time — one look-up or
//! inner scan and one charge per run — and a build over the whole
//! build side follows long runs a block of rows at a time. Charges
//! are made with the row oracle's totals — a probe row is charged
//! every build row sharing its first key, however few it walks. **Global aggregates** fold an accumulator at a time over a
//! whole column, in row order; `COUNT(*)` is the input's row count.
//!
//! **Intermediate format.** A stage's output is one
//! [`hfqo_storage::ColumnVector`] per projected column (typed vectors
//! with validity bitmaps — ints and floats copy without materialising
//! [`hfqo_storage::Value`]s) plus an explicit row count, so zero-column
//! outputs (pure `COUNT(*)` and counting runs) still carry cardinality.
//! Storage encodings (dictionary, RLE) stop at the scan: intermediates
//! are plain.
//!
//! **Projection rules** ([`stages`]). Each node's output carries
//! only the columns *required above it*: the facade requires every
//! column for plain queries (so results are column-identical to the row
//! engine), only `GROUP BY` keys + aggregate inputs for aggregated
//! queries, and nothing at all for counting runs
//! ([`execute_for_stats`], the true-cardinality oracle). Every join
//! adds its condition columns to its children's requirement and drops
//! them again from its own output unless an ancestor needs them.
//! Selection columns are consumed inside the scan and never leave it
//! unless otherwise referenced.
//!
//! ## The two facilities the paper's experiments need
//!
//! * **Row budgets.** Every stage counts the work it performs against
//!   a budget; catastrophic plans (the cross-join orders an untrained
//!   agent emits) abort with [`ExecError::BudgetExceeded`] instead of
//!   running for hours. Workers flush charges every few thousand units,
//!   so a runaway stage stops within one flush window of the limit, and
//!   charge totals are identical to the row engine's — reward shaping
//!   sees no difference from vectorization or from the thread count.
//!   This reproduces the paper's footnote 2 ("the initial query plans
//!   produced could not be executed in any reasonable amount of time").
//! * **A true-cardinality oracle.** [`TrueCardinality`] executes and
//!   memoises sub-join counts through zero-column counting runs of the
//!   same evaluator, implementing `hfqo_stats::CardinalitySource` so the
//!   cost model can be driven by *actual* intermediate sizes — the
//!   ingredient the RL environment's latency simulator needs to disagree
//!   with the estimate-driven cost model in a realistic way.
//!
//! ## Reference row engine
//!
//! [`rowexec::execute_rows`] is the original materialising executor,
//! result- and work-identical by construction. It exists so the
//! equivalence suite can diff the evaluator against an independent
//! implementation on every workload, and so the repo benchmark can
//! check each run's results against it (what it times is the evaluator,
//! as `exec.execute.us_per_op`). It is a test oracle: nothing on the
//! serving or training path calls it.

#![forbid(unsafe_code)]

pub mod error;
pub mod executor;
pub mod ops;
pub mod parallel;
pub mod row;
pub mod rowexec;
pub mod stages;
pub mod truecard;

pub use error::ExecError;
pub use executor::{
    execute, execute_for_stats, ExecConfig, ExecOutcome, ExecStats, OutputColumn, OutputSchema,
};
pub use row::{Layout, Row};
pub use rowexec::execute_rows;
pub use truecard::TrueCardinality;
