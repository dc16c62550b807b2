//! # hfqo-stats
//!
//! Statistics and cardinality estimation: equi-depth histograms,
//! most-common-value lists, per-column summaries, and the selectivity /
//! cardinality estimators the traditional optimizer and the cost model use.
//!
//! The estimator deliberately mirrors the classic System-R / PostgreSQL
//! design, *including its weaknesses*: attribute-value independence across
//! predicates and the `1/max(ndv)` equijoin rule. The synthetic workloads
//! contain correlated columns precisely so these assumptions produce the
//! systematic cost-model errors the paper's §4 and §5.2 discuss. "True"
//! cardinalities are exposed through the [`CardinalitySource`] trait, whose
//! execution-backed implementation lives in `hfqo-exec`.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cardinality;
pub mod column_stats;
pub mod drift;
pub mod histogram;
pub mod selectivity;

pub use builder::{build_database_stats, database_table_stats};
pub use cardinality::{CardinalitySource, EstimatedCardinality, QueryCardinality, StatsCatalog};
pub use column_stats::{ColumnStats, TableStats};
pub use drift::{stats_drift, DriftMagnitude};
pub use histogram::Histogram;
pub use selectivity::{selection_selectivities, selection_selectivity};
