//! The optimizer facade.

use crate::dp::{dp_plan, MAX_RELATIONS};
use crate::greedy::greedy_plan;
use crate::physical::best_aggregate_if_needed;
use hfqo_catalog::Catalog;
use hfqo_cost::{CostModel, CostParams};
use hfqo_query::{PhysicalPlan, QueryGraph};
use hfqo_stats::{CardinalitySource, EstimatedCardinality, StatsCatalog};
use std::fmt;
use std::time::{Duration, Instant};

/// Which search strategy produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerMethod {
    /// Exhaustive dynamic programming.
    DynamicProgramming,
    /// Greedy bottom-up (beyond the DP threshold, or the pure-greedy
    /// planner).
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
    /// bit for bit to what [`TraditionalOptimizer::cost_of`] re-walks.
    pub cost: f64,
    /// Wall-clock planning time.
    pub planning_time: Duration,
    /// Which strategy ran.
    pub method: PlannerMethod,
}

/// The traditional cost-based optimizer (the paper's "expert").
#[derive(Debug, Clone)]
pub struct TraditionalOptimizer<'a> {
    catalog: &'a Catalog,
    stats: &'a StatsCatalog,
    params: CostParams,
    /// Relation count at which planning switches from DP to greedy
    /// (PostgreSQL's `geqo_threshold` defaults to 12; DP on our bushy
    /// search space gets slow a little earlier, hence 10). Queries over
    /// more than [`MAX_RELATIONS`] relations are planned greedily whatever
    /// the threshold.
    pub dp_threshold: usize,
}

impl<'a> TraditionalOptimizer<'a> {
    /// Creates an optimizer with PostgreSQL-like cost parameters.
    pub fn new(catalog: &'a Catalog, stats: &'a StatsCatalog) -> Self {
        Self {
            catalog,
            stats,
            params: CostParams::postgres_like(),
            dp_threshold: 10,
        }
    }

    /// Overrides the cost parameters (builder style).
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the DP threshold (builder style).
    pub fn with_dp_threshold(mut self, threshold: usize) -> Self {
        self.dp_threshold = threshold;
        self
    }

    /// The cost model this optimizer prices plans with.
    pub fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(&self.params, self.stats)
    }

    /// The estimated-cardinality source.
    pub fn estimator(&self) -> EstimatedCardinality<'a> {
        EstimatedCardinality::new(self.stats)
    }

    /// Plans a query: DP below the threshold (and at most
    /// [`MAX_RELATIONS`] relations), greedy otherwise, then
    /// operator selection for the aggregate root.
    pub fn plan(&self, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        if graph.relation_count() == 0 {
            return Err(OptError::EmptyQuery);
        }
        let start = Instant::now();
        let model = self.cost_model();
        let cards = self.estimator();
        let n = graph.relation_count();
        let (join_root, method) = if n < self.dp_threshold && n <= MAX_RELATIONS {
            (
                dp_plan(graph, self.catalog, &model, &cards),
                PlannerMethod::DynamicProgramming,
            )
        } else {
            (
                greedy_plan(graph, self.catalog, &model, &cards),
                PlannerMethod::Greedy,
            )
        };
        let (root, cost) = best_aggregate_if_needed(graph, join_root, &model);
        Ok(PlannedQuery {
            plan: PhysicalPlan::new(root),
            cost: cost.total,
            planning_time: start.elapsed(),
            method,
        })
    }

    /// Prices an arbitrary plan with this optimizer's cost model and
    /// estimated cardinalities — the `M(t)` of the paper, used as the RL
    /// reward signal.
    pub fn cost_of(&self, graph: &QueryGraph, plan: &PhysicalPlan) -> f64 {
        self.cost_model()
            .plan_cost(graph, plan, &self.estimator())
            .total
    }

    /// Prices a plan under a caller-provided cardinality source (e.g. the
    /// true-cardinality oracle).
    pub fn cost_with<C: CardinalitySource>(
        &self,
        graph: &QueryGraph,
        plan: &PhysicalPlan,
        cards: &C,
    ) -> f64 {
        self.cost_model().plan_cost(graph, plan, cards).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_query, TestDb};

    #[test]
    fn plans_small_queries_with_dp() {
        let db = TestDb::chain(4, 500);
        let graph = chain_query(&db, 4);
        let opt = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
        let planned = opt.plan(&graph).unwrap();
        assert_eq!(planned.method, PlannerMethod::DynamicProgramming);
        planned.plan.validate(&graph).unwrap();
        assert!(planned.cost > 0.0);
    }

    #[test]
    fn large_queries_fall_back_to_greedy() {
        let db = TestDb::chain(6, 200);
        let graph = chain_query(&db, 6);
        let opt = TraditionalOptimizer::new(db.db.catalog(), &db.stats).with_dp_threshold(5);
        let planned = opt.plan(&graph).unwrap();
        assert_eq!(planned.method, PlannerMethod::Greedy);
        planned.plan.validate(&graph).unwrap();
    }

    /// DP's table has a slot index per subset, so past its cap the
    /// optimizer plans greedily even when the threshold says DP.
    #[test]
    fn queries_past_the_dp_cap_plan_greedily() {
        let n = MAX_RELATIONS + 1;
        let db = TestDb::chain(n, 20);
        let graph = chain_query(&db, n);
        let opt = TraditionalOptimizer::new(db.db.catalog(), &db.stats).with_dp_threshold(64);
        let planned = opt.plan(&graph).unwrap();
        assert_eq!(planned.method, PlannerMethod::Greedy);
        planned.plan.validate(&graph).unwrap();
    }

    #[test]
    fn cost_of_matches_plan_cost() {
        let db = TestDb::chain(3, 300);
        let graph = chain_query(&db, 3);
        let opt = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
        let planned = opt.plan(&graph).unwrap();
        let re_cost = opt.cost_of(&graph, &planned.plan);
        assert_eq!(re_cost.to_bits(), planned.cost.to_bits());
    }

    #[test]
    fn empty_query_rejected() {
        let db = TestDb::chain(2, 100);
        let graph = hfqo_query::QueryGraph::new(vec![], vec![], vec![], vec![], vec![]);
        let opt = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
        assert_eq!(opt.plan(&graph), Err(OptError::EmptyQuery));
    }

    #[test]
    fn planning_time_grows_with_relations() {
        // Not a strict benchmark — just sanity that DP planning time is
        // recorded and nonzero.
        let db = TestDb::chain(7, 100);
        let graph = chain_query(&db, 7);
        let opt = TraditionalOptimizer::new(db.db.catalog(), &db.stats);
        let planned = opt.plan(&graph).unwrap();
        assert!(planned.planning_time.as_nanos() > 0);
    }
}
