//! What every planner returns: the planned query, the strategy that
//! produced it, and the errors planning can raise.

use hfqo_query::PhysicalPlan;
use std::fmt;
use std::time::Duration;

/// Which search strategy produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerMethod {
    /// Exhaustive dynamic programming.
    DynamicProgramming,
    /// Greedy bottom-up (at or past the DP threshold, or past DP's
    /// relation cap).
    Greedy,
    /// Uniformly random valid plan (the floor baseline).
    Random,
    /// A frozen learned policy (greedy-argmax ReJOIN inference).
    Learned,
}

impl PlannerMethod {
    /// Short lower-case label, for traces and experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::DynamicProgramming => "dp",
            Self::Greedy => "greedy",
            Self::Random => "random",
            Self::Learned => "learned",
        }
    }
}

impl fmt::Display for PlannerMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Optimizer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The query has no relations.
    EmptyQuery,
    /// The planner cannot handle this query (e.g. a learned policy
    /// sized for fewer relations than the query has).
    Unsupported(String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyQuery => write!(f, "cannot plan a query with no relations"),
            Self::Unsupported(why) => write!(f, "planner cannot handle this query: {why}"),
        }
    }
}

impl std::error::Error for OptError {}

/// A planned query: the plan plus planning metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The chosen plan (aggregate root included when the query needs it).
    pub plan: PhysicalPlan,
    /// Estimated cost of the plan: the total its planner carried up, equal
    /// bit for bit to what [`CostModel::plan_cost`] re-walks under the
    /// planning context's estimates.
    ///
    /// [`CostModel::plan_cost`]: crate::cost::CostModel::plan_cost
    pub cost: f64,
    /// Wall-clock planning time.
    pub planning_time: Duration,
    /// Which strategy ran.
    pub method: PlannerMethod,
}
