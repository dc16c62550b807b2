//! Cost model parameters ("knobs").
//!
//! The planners price with PostgreSQL's planner cost constants,
//! [`CostParams::POSTGRES_LIKE`]. The paper's §1 complains that DBAs must
//! tune exactly these values per database. They form a struct rather than
//! loose constants because the latency model ([`crate::LatencyModel`])
//! prices the same formulas under a second, *latency* parameterisation
//! that deliberately disagrees with the costing one.

/// Planner cost constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Cost of sequentially reading one page (PostgreSQL: 1.0).
    pub(crate) seq_page_cost: f64,
    /// Cost of randomly reading one page (PostgreSQL: 4.0).
    pub(crate) random_page_cost: f64,
    /// CPU cost of emitting one tuple (PostgreSQL: 0.01).
    pub(crate) cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry (PostgreSQL: 0.005).
    pub(crate) cpu_index_tuple_cost: f64,
    /// CPU cost of one operator/predicate evaluation (PostgreSQL: 0.0025).
    pub(crate) cpu_operator_cost: f64,
    /// Per-tuple cost multiplier for building a hash table.
    pub(crate) hash_build_factor: f64,
    /// Per-comparison cost multiplier for sorting (`n log2 n` model).
    pub(crate) sort_factor: f64,
}

impl CostParams {
    /// PostgreSQL's planner cost constants (disk-resident assumptions):
    /// the one parameterisation the planners price with.
    pub const POSTGRES_LIKE: Self = Self {
        seq_page_cost: 1.0,
        random_page_cost: 4.0,
        cpu_tuple_cost: 0.01,
        cpu_index_tuple_cost: 0.005,
        cpu_operator_cost: 0.0025,
        hash_build_factor: 1.5,
        sort_factor: 1.0,
    };

    /// A parameterisation approximating the *actual* in-memory execution
    /// engine: random access is barely more expensive than sequential,
    /// hashing is relatively cheap, per-tuple CPU dominates. The gap
    /// between this and [`POSTGRES_LIKE`](Self::POSTGRES_LIKE) is the
    /// systematic cost-vs-latency disagreement the paper's §4 discusses
    /// ("a query with a high optimizer cost might outperform a query with
    /// lower optimizer cost").
    pub(crate) fn in_memory_latency() -> Self {
        Self {
            seq_page_cost: 0.1,
            random_page_cost: 0.15,
            cpu_tuple_cost: 0.02,
            cpu_index_tuple_cost: 0.004,
            cpu_operator_cost: 0.005,
            hash_build_factor: 1.2,
            sort_factor: 1.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_postgres() {
        let p = CostParams::POSTGRES_LIKE;
        assert_eq!(p.seq_page_cost, 1.0);
        assert_eq!(p.random_page_cost, 4.0);
        assert_eq!(p.cpu_tuple_cost, 0.01);
    }

    /// `CostModel::join_cost_floor` bounds every join cost only while no
    /// factor can make a join's work negative.
    #[test]
    fn postgres_like_factors_are_non_negative() {
        let p = CostParams::POSTGRES_LIKE;
        let factors = [
            p.seq_page_cost,
            p.random_page_cost,
            p.cpu_tuple_cost,
            p.cpu_index_tuple_cost,
            p.cpu_operator_cost,
            p.hash_build_factor,
            p.sort_factor,
        ];
        assert!(factors.iter().all(|&f| f >= 0.0), "{p:?}");
    }

    #[test]
    fn latency_params_differ() {
        assert_ne!(CostParams::POSTGRES_LIKE, CostParams::in_memory_latency());
    }
}
