//! The unified planning interface.
//!
//! Every planning strategy in this project — the traditional DP/greedy
//! expert, pure greedy, the random floor baseline, and the learned
//! ReJOIN policy (`hfqo_rejoin::LearnedPlanner`) — implements one
//! [`Planner`] trait, so the serving layer, the experiment harness, and
//! the benchmarks can swap strategies behind a `&dyn Planner` without
//! bespoke call sites.
//!
//! Planners are *strategy objects*: they hold only their own
//! configuration (thresholds, seeds, frozen policy weights) and receive
//! the world — catalog, statistics, cost parameters — per call through a
//! [`PlannerContext`]. That keeps every planner `Send + Sync` without
//! lifetime ties to the database, which is what lets a serving session
//! own its statistics and rebuild them without invalidating planner
//! borrows.

use crate::optimizer::{OptError, PlannedQuery, PlannerMethod, TraditionalOptimizer};
use crate::random::random_plan;
use hfqo_catalog::Catalog;
use hfqo_cost::{CostModel, CostParams};
use hfqo_query::{PhysicalPlan, QueryGraph};
use hfqo_stats::{EstimatedCardinality, StatsCatalog};
use hfqo_sync::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The read-only world a planner plans against, handed in per call.
#[derive(Clone)]
pub struct PlannerContext<'a> {
    /// The table catalog.
    pub catalog: &'a Catalog,
    /// Table statistics (cardinality estimation).
    pub stats: &'a StatsCatalog,
    /// Cost-model parameters.
    pub params: CostParams,
}

impl<'a> PlannerContext<'a> {
    /// A context with PostgreSQL-like cost parameters.
    pub fn new(catalog: &'a Catalog, stats: &'a StatsCatalog) -> Self {
        Self {
            catalog,
            stats,
            params: CostParams::postgres_like(),
        }
    }

    /// Overrides the cost parameters (builder style).
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// A cost model over this context.
    pub fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(&self.params, self.stats)
    }

    /// The estimated-cardinality source.
    pub fn estimator(&self) -> EstimatedCardinality<'a> {
        EstimatedCardinality::new(self.stats)
    }
}

/// A query planner: turns a bound [`QueryGraph`] into a [`PlannedQuery`].
///
/// Implementations must be `Send + Sync` — the serving layer shares one
/// planner across its worker threads.
///
/// Strategies swap behind `&dyn Planner` with no bespoke call sites:
///
/// ```
/// use hfqo_opt::test_support::{chain_query, TestDb};
/// use hfqo_opt::{GreedyPlanner, Planner, PlannerContext, RandomPlanner, TraditionalPlanner};
///
/// let fixture = TestDb::chain(4, 200);
/// let graph = chain_query(&fixture, 4);
/// let ctx = PlannerContext::new(fixture.db.catalog(), &fixture.stats);
/// let strategies: [&dyn Planner; 3] = [
///     &TraditionalPlanner::new(),
///     &GreedyPlanner,
///     &RandomPlanner::new(42),
/// ];
/// for planner in strategies {
///     let planned = planner.plan(&ctx, &graph)?;
///     planned.plan.validate(&graph).expect("every strategy plans validly");
/// }
/// # Ok::<(), hfqo_opt::OptError>(())
/// ```
pub trait Planner: Send + Sync {
    /// Short strategy name, for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Plans `graph` against the given world.
    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError>;
}

/// The traditional cost-based strategy: exhaustive DP below a threshold,
/// greedy bottom-up at or above it — [`TraditionalOptimizer`] behind the
/// [`Planner`] trait.
#[derive(Debug, Clone, Copy)]
pub struct TraditionalPlanner {
    /// Relation count at which planning switches from DP to greedy.
    pub dp_threshold: usize,
}

impl TraditionalPlanner {
    /// The default DP/greedy switch (matches [`TraditionalOptimizer`]).
    pub fn new() -> Self {
        Self { dp_threshold: 10 }
    }

    /// Overrides the DP threshold (builder style).
    pub fn with_dp_threshold(mut self, threshold: usize) -> Self {
        self.dp_threshold = threshold;
        self
    }
}

impl Default for TraditionalPlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner for TraditionalPlanner {
    fn name(&self) -> &'static str {
        "traditional"
    }

    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        TraditionalOptimizer::new(ctx.catalog, ctx.stats)
            .with_params(ctx.params.clone())
            .with_dp_threshold(self.dp_threshold)
            .plan(graph)
    }
}

/// Pure greedy bottom-up planning at every query size (the traditional
/// strategy with the DP stage disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPlanner;

impl Planner for GreedyPlanner {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        // Threshold 0 routes every query through the greedy stage.
        TraditionalOptimizer::new(ctx.catalog, ctx.stats)
            .with_params(ctx.params.clone())
            .with_dp_threshold(0)
            .plan(graph)
    }
}

/// The random floor baseline behind the [`Planner`] trait: every call
/// draws a fresh uniformly random valid plan, costed as it is drawn, from
/// a deterministic per-planner RNG stream.
///
/// The RNG sits behind a mutex so the planner stays `Sync`; concurrent
/// callers serialise for the draw, and the stream — hence
/// the plan sequence — is deterministic per seed, though its
/// interleaving across threads is not.
#[derive(Debug)]
pub struct RandomPlanner {
    rng: Mutex<StdRng>,
}

impl RandomPlanner {
    /// A random planner with its own seeded RNG stream.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Mutex::new("opt.random_planner.rng", StdRng::seed_from_u64(seed)),
        }
    }
}

impl Planner for RandomPlanner {
    fn name(&self) -> &'static str {
        "random"
    }

    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        if graph.relation_count() == 0 {
            return Err(OptError::EmptyQuery);
        }
        let start = Instant::now();
        let (model, cards) = (ctx.cost_model(), ctx.estimator());
        let (root, cost) = random_plan(graph, ctx.catalog, &model, &cards, &mut self.rng.lock());
        Ok(PlannedQuery {
            plan: PhysicalPlan::new(root),
            cost: cost.total,
            planning_time: start.elapsed(),
            method: PlannerMethod::Random,
        })
    }
}

// The serving layer shares planners across worker threads; every
// strategy object must stay thread-safe (the trait requires it, the
// assertions pin the concrete types).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TraditionalPlanner>();
    assert_send_sync::<GreedyPlanner>();
    assert_send_sync::<RandomPlanner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_query, TestDb};

    fn fixture() -> (TestDb, QueryGraph) {
        let db = TestDb::chain(4, 300);
        let graph = chain_query(&db, 4);
        (db, graph)
    }

    #[test]
    fn traditional_planner_matches_the_optimizer_facade() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let via_trait = TraditionalPlanner::new().plan(&ctx, &graph).unwrap();
        let direct = TraditionalOptimizer::new(db.db.catalog(), &db.stats)
            .plan(&graph)
            .unwrap();
        assert_eq!(via_trait.plan, direct.plan);
        assert_eq!(via_trait.cost, direct.cost);
        assert_eq!(via_trait.method, PlannerMethod::DynamicProgramming);
    }

    /// `PlannerMethod` attribution: the DP/greedy switch reports which
    /// stage actually ran.
    #[test]
    fn traditional_planner_attributes_greedy_beyond_threshold() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planned = TraditionalPlanner::new()
            .with_dp_threshold(3)
            .plan(&ctx, &graph)
            .unwrap();
        assert_eq!(planned.method, PlannerMethod::Greedy);
        planned.plan.validate(&graph).unwrap();
    }

    /// `PlannerMethod` attribution: pure greedy is `Greedy` at every
    /// size, even ones DP would normally take.
    #[test]
    fn greedy_planner_attributes_greedy_method() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planned = GreedyPlanner.plan(&ctx, &graph).unwrap();
        assert_eq!(planned.method, PlannerMethod::Greedy);
        planned.plan.validate(&graph).unwrap();
        assert!(planned.cost > 0.0);
    }

    /// `PlannerMethod` attribution: random plans are tagged `Random`.
    #[test]
    fn random_planner_attributes_random_method() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planner = RandomPlanner::new(3);
        let planned = planner.plan(&ctx, &graph).unwrap();
        assert_eq!(planned.method, PlannerMethod::Random);
        planned.plan.validate(&graph).unwrap();
        assert!(planned.cost > 0.0);
    }

    #[test]
    fn random_planner_stream_is_deterministic_per_seed_and_varies() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let a: Vec<_> = {
            let p = RandomPlanner::new(9);
            (0..5).map(|_| p.plan(&ctx, &graph).unwrap().plan).collect()
        };
        let b: Vec<_> = {
            let p = RandomPlanner::new(9);
            (0..5).map(|_| p.plan(&ctx, &graph).unwrap().plan).collect()
        };
        assert_eq!(a, b, "same seed, same plan sequence");
        let distinct = a
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 1, "random draws should vary across calls");
    }

    #[test]
    fn planners_reject_empty_queries_as_trait_objects() {
        let (db, _) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let empty = QueryGraph::new(vec![], vec![], vec![], vec![], vec![]);
        let planners: Vec<Box<dyn Planner>> = vec![
            Box::new(TraditionalPlanner::new()),
            Box::new(GreedyPlanner),
            Box::new(RandomPlanner::new(0)),
        ];
        for planner in &planners {
            assert_eq!(
                planner.plan(&ctx, &empty),
                Err(OptError::EmptyQuery),
                "{}",
                planner.name()
            );
        }
    }

    #[test]
    fn method_labels_cover_every_variant() {
        assert_eq!(PlannerMethod::DynamicProgramming.label(), "dp");
        assert_eq!(PlannerMethod::Greedy.label(), "greedy");
        assert_eq!(PlannerMethod::Random.label(), "random");
        assert_eq!(PlannerMethod::Learned.to_string(), "learned");
    }
}
