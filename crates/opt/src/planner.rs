//! The unified planning interface.
//!
//! Every planning strategy in this project — the traditional DP/greedy
//! expert, the random floor baseline, and the learned ReJOIN policy
//! (`hfqo_rejoin::LearnedPlanner`) — implements one [`Planner`] trait, so
//! the serving layer, the RL environment, the experiment harness, and the
//! benchmarks can swap strategies behind a `&dyn Planner` without bespoke
//! call sites.
//!
//! Planners are *strategy objects*: they hold only their own
//! configuration (thresholds, seeds, frozen policy weights) and receive
//! the world — catalog and statistics — per call through a
//! [`PlannerContext`]. That keeps every planner `Send + Sync` without
//! lifetime ties to the database, which is what lets a serving session
//! own its statistics and rebuild them without invalidating planner
//! borrows.

use crate::cost::{CostModel, CostParams};
use crate::dp::{dp_plan, MAX_RELATIONS};
use crate::greedy::greedy_plan;
use crate::optimizer::{OptError, PlannedQuery, PlannerMethod};
use crate::physical::best_aggregate_if_needed;
use crate::random::random_plan;
use hfqo_query::{PhysicalPlan, QueryGraph};
use hfqo_stats::{EstimatedCardinality, QueryCardinality, StatsCatalog};
use hfqo_storage::catalog::Catalog;
use hfqo_sync::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The read-only world a planner plans against, handed in per call.
#[derive(Clone, Copy)]
pub struct PlannerContext<'a> {
    /// The table catalog.
    pub catalog: &'a Catalog,
    /// Table statistics (cardinality estimation).
    pub stats: &'a StatsCatalog,
}

impl<'a> PlannerContext<'a> {
    /// A context over `catalog` and `stats`.
    pub fn new(catalog: &'a Catalog, stats: &'a StatsCatalog) -> Self {
        Self { catalog, stats }
    }

    /// The cost model every planner prices with — the paper's `M(t)`,
    /// under PostgreSQL-like constants ([`CostParams::POSTGRES_LIKE`]).
    pub fn cost_model(&self) -> CostModel<'a> {
        CostModel::new(&CostParams::POSTGRES_LIKE, self.stats)
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
/// use hfqo_opt::{Planner, PlannerContext, RandomPlanner, TraditionalPlanner};
///
/// let fixture = TestDb::chain(4, 200);
/// let graph = chain_query(&fixture, 4);
/// let ctx = PlannerContext::new(fixture.db.catalog(), &fixture.stats);
/// let strategies: [&dyn Planner; 3] = [
///     &TraditionalPlanner::new(),
///     &TraditionalPlanner::new().with_dp_threshold(0),
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

/// The traditional cost-based optimizer, the paper's "expert": exhaustive
/// DP below a relation-count threshold, greedy bottom-up at or above it,
/// then operator selection for the aggregate root. Threshold 0 plans
/// every query greedily. Both searches price from one
/// [`QueryCardinality`], built per query.
#[derive(Debug, Clone, Copy)]
pub struct TraditionalPlanner {
    /// Relation count at which planning switches from DP to greedy
    /// (PostgreSQL's `geqo_threshold` defaults to 12; DP on our bushy
    /// search space gets slow a little earlier, hence 10). Queries over
    /// more than [`MAX_RELATIONS`] relations are planned greedily whatever
    /// the threshold.
    pub(crate) dp_threshold: usize,
}

impl TraditionalPlanner {
    /// The expert at its default DP/greedy switch.
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
        if graph.relation_count() == 0 {
            return Err(OptError::EmptyQuery);
        }
        let start = Instant::now();
        let model = ctx.cost_model();
        let cards = QueryCardinality::new(graph, &ctx.estimator());
        let n = graph.relation_count();
        let (join_root, method) = if n < self.dp_threshold && n <= MAX_RELATIONS {
            (
                dp_plan(graph, ctx.catalog, &model, &cards),
                PlannerMethod::DynamicProgramming,
            )
        } else {
            (
                greedy_plan(graph, ctx.catalog, &model, &cards),
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

    /// Below the threshold the expert runs DP, and the cost it reports
    /// is the one the context's cost model re-walks from its plan, bit
    /// for bit.
    #[test]
    fn plans_small_queries_with_dp_at_the_re_walked_cost() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planned = TraditionalPlanner::new().plan(&ctx, &graph).unwrap();
        assert_eq!(planned.method, PlannerMethod::DynamicProgramming);
        planned.plan.validate(&graph).unwrap();
        let re_walked = ctx
            .cost_model()
            .plan_cost(&graph, &planned.plan, &ctx.estimator());
        assert_eq!(re_walked.total.to_bits(), planned.cost.to_bits());
        assert!(planned.planning_time.as_nanos() > 0);
    }

    /// `PlannerMethod` attribution: the DP/greedy switch reports which
    /// stage actually ran — greedy at the threshold and at 0, where DP
    /// would normally take the query.
    #[test]
    fn traditional_planner_attributes_greedy_at_the_threshold() {
        let (db, graph) = fixture();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        for threshold in [0, 4] {
            let planned = TraditionalPlanner::new()
                .with_dp_threshold(threshold)
                .plan(&ctx, &graph)
                .unwrap();
            assert_eq!(
                planned.method,
                PlannerMethod::Greedy,
                "threshold {threshold}"
            );
            planned.plan.validate(&graph).unwrap();
            assert!(planned.cost > 0.0);
        }
    }

    /// DP's table has a slot index per subset, so past its cap the
    /// expert plans greedily even when the threshold says DP.
    #[test]
    fn queries_past_the_dp_cap_plan_greedily() {
        let n = MAX_RELATIONS + 1;
        let db = TestDb::chain(n, 20);
        let graph = chain_query(&db, n);
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planned = TraditionalPlanner::new()
            .with_dp_threshold(64)
            .plan(&ctx, &graph)
            .unwrap();
        assert_eq!(planned.method, PlannerMethod::Greedy);
        planned.plan.validate(&graph).unwrap();
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
            Box::new(TraditionalPlanner::new().with_dp_threshold(0)),
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
