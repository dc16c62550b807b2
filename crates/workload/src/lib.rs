//! # hfqo-workload
//!
//! The workloads the experiments run on. The paper evaluates on one
//! schema, IMDB under the Join Order Benchmark, and so does every
//! figure, golden and benchmark workload here; synthetic schemas cover
//! the sweeps by relation count:
//!
//! * [`imdb`] — a synthetic IMDB-like schema (17 tables around a `title`
//!   hub, zipf-skewed foreign keys, correlated attributes) standing in
//!   for the IMDB dataset of the Join Order Benchmark the paper
//!   evaluates on,
//! * [`job`] — a 113-query JOB-like suite named `1a..33d`, spanning 4–17
//!   relations, including the ten queries Figure 3b reports,
//! * [`loader`] — the bulk CSV loader that reads real IMDB-layout dumps
//!   (such as the checked-in sample) into the same schema,
//! * [`synth`] — parameterised chain/star/cycle query generators used by
//!   the planning-time sweep (Figure 3c) and the incremental-learning
//!   curricula,
//! * [`suite`] — bundles (database + statistics + queries) ready for the
//!   environments,
//! * [`drift`] — deterministic data-mutation operators and the
//!   shock→recovery harness that proves the online loop stays
//!   hands-free while the data underneath it moves.

#![forbid(unsafe_code)]

pub mod drift;
pub mod imdb;
pub mod job;
pub mod loader;
pub mod suite;
pub mod synth;

pub use drift::{
    apply_mutation, with_count_root, DbSnapshots, DriftConfig, DriftError, DriftHarness,
    DriftOutcome, DriftScenario, Mutation, MutationOp, MutationReport, RecoveryReport,
    RecoveryRound, Shock, ShockKind,
};
pub use loader::{load_imdb_csv_dir, CsvLoadReport, LoaderOptions};
pub use suite::WorkloadBundle;
