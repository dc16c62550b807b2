//! The cost model `M(t)` of the paper: a PostgreSQL-style analytic model
//! over physical plans, generic over a [`CardinalitySource`]. Driven by the
//! histogram estimator under [`CostParams::POSTGRES_LIKE`] it is the
//! traditional optimizer's cost model (and ReJOIN's reward signal, §3);
//! driven by the true-cardinality oracle under
//! [`CostParams::IN_MEMORY_LATENCY`], plus noise, it is the latency
//! simulator the RL environment uses wherever the paper executes plans
//! (§4's evaluation overhead, §5's fine-tuning phases).
//!
//! [`CardinalitySource`]: hfqo_stats::CardinalitySource

mod model;
mod params;

pub use model::{CostEstimate, CostModel};
pub use params::CostParams;
