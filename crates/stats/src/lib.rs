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

pub mod builder;
pub mod cardinality;
pub mod column_stats;
pub mod drift;
pub mod histogram;
pub mod selectivity;

pub use builder::{build_database_stats, build_table_stats, database_table_stats};
pub use cardinality::{CardinalitySource, EstimatedCardinality, QueryCardinality, StatsCatalog};
pub use column_stats::{ColumnStats, TableStats};
pub use drift::{column_shift, stats_drift, DriftMagnitude, TableDrift};
pub use histogram::Histogram;
pub use selectivity::{
    param_selectivities, selection_selectivities, selection_selectivity, DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
};
