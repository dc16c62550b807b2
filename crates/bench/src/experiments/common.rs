//! Shared experiment plumbing: scales, bundles, agents, environments,
//! and the planner-trait adapters the unified pipeline runs on.

use crate::args::RunArgs;
use hfqo_opt::PlannerContext;
use hfqo_query::QueryGraph;
use hfqo_rejoin::{
    EnvContext, Featurizer, LearnedPlanner, PlanEnv, PolicyKind, QueryOrder, ReJoinAgent,
    RewardMode, StageSet,
};
use hfqo_rl::{Environment, ReinforceConfig};
use hfqo_workload::imdb::ImdbConfig;
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `title` rows of the IMDB-like database.
    pub base_rows: usize,
    /// Training episodes for convergence experiments.
    pub episodes: usize,
    /// Moving-average window for convergence curves.
    pub ma_window: usize,
}

impl Scale {
    /// Small workload, short training — minutes, suitable for CI.
    pub fn quick() -> Self {
        Self {
            base_rows: 1_500,
            episodes: 3_000,
            ma_window: 100,
        }
    }

    /// Paper-scale: the full 15 000-episode protocol of Figure 3a.
    pub fn full() -> Self {
        Self {
            base_rows: 8_000,
            episodes: 15_000,
            ma_window: 200,
        }
    }

    /// From parsed arguments.
    pub fn from_args(args: RunArgs) -> Self {
        if args.full {
            Self::full()
        } else {
            Self::quick()
        }
    }
}

/// Builds the IMDB + JOB-like bundle at the given scale.
pub fn imdb_bundle(scale: Scale, seed: u64) -> WorkloadBundle {
    WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: scale.base_rows,
            seed,
        },
        seed ^ 0x10B,
    )
}

/// Restricts a bundle to queries of at most `max_rels` relations —
/// used by the latency-reward experiments, whose per-episode latency
/// simulation must count true sub-join cardinalities: beyond ~8
/// relations the counting work dominates a quick run (full-scale runs
/// lift the cap).
pub fn cap_query_size(bundle: WorkloadBundle, max_rels: usize) -> WorkloadBundle {
    let queries = bundle
        .queries
        .into_iter()
        .filter(|q| q.relation_count() <= max_rels)
        .collect();
    WorkloadBundle {
        db: bundle.db,
        stats: bundle.stats,
        queries,
    }
}

/// The default ReJOIN policy configuration: two 128-unit hidden layers
/// (as in the ReJOIN prototype), REINFORCE with baseline.
pub fn default_policy() -> PolicyKind {
    PolicyKind::Reinforce(ReinforceConfig {
        hidden: vec![128, 128],
        lr: 1e-3,
        entropy_coef: 0.01,
        batch_episodes: 8,
        ..Default::default()
    })
}

/// Builds an environment over `queries` of a bundle, as wide as the
/// bundle's largest query whatever `queries` holds, so one agent fits
/// every environment of a bundle.
pub fn plan_env<'a>(
    bundle: &'a WorkloadBundle,
    queries: &'a [QueryGraph],
    order: QueryOrder,
    reward: RewardMode,
    stages: StageSet,
) -> PlanEnv<'a> {
    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let max_rels = bundle.max_rels().max(2);
    let mut env = PlanEnv::new(ctx, queries, max_rels, order, reward, stages);
    // ReJOIN's implementation only offered pairs connected by a join
    // predicate (no cross products), which is why the paper's Figure 3a
    // starts at ~800% rather than the astronomic ratios unrestricted
    // random orders produce. Match it.
    env.require_connected = true;
    env
}

/// Builds a join-order environment over a bundle.
pub fn join_env<'a>(
    bundle: &'a WorkloadBundle,
    order: QueryOrder,
    reward: RewardMode,
) -> PlanEnv<'a> {
    let stages = StageSet::join_order_only();
    plan_env(bundle, &bundle.queries, order, reward, stages)
}

/// Builds an agent shaped to an environment.
pub fn agent_for(env: &PlanEnv<'_>, kind: PolicyKind, rng: &mut StdRng) -> ReJoinAgent {
    ReJoinAgent::new(env.state_dim(), env.action_dim(), kind, rng)
}

/// The planner-trait context over a bundle, with the same
/// PostgreSQL-like cost parameters the environments reward against.
pub fn planner_context(bundle: &WorkloadBundle) -> PlannerContext<'_> {
    PlannerContext::new(bundle.db.catalog(), &bundle.stats)
}

/// Freezes a trained agent into a [`LearnedPlanner`] shaped exactly
/// like [`join_env`]'s environments: same featurizer width, same
/// connected-pair masking. Plans it produces are identical to the
/// environment's greedy evaluation episodes.
pub fn learned_planner(bundle: &WorkloadBundle, agent: &ReJoinAgent) -> LearnedPlanner {
    LearnedPlanner::freeze(agent, Featurizer::new(bundle.max_rels().max(2)))
        .with_require_connected(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scales() {
        assert!(Scale::full().episodes > Scale::quick().episodes);
        let args = RunArgs {
            seed: 1,
            full: true,
            workers: 1,
        };
        assert_eq!(Scale::from_args(args), Scale::full());
    }

    #[test]
    fn env_and_agent_shapes_match() {
        let scale = Scale {
            base_rows: 200,
            episodes: 10,
            ma_window: 5,
        };
        let bundle = imdb_bundle(scale, 3);
        let env = join_env(&bundle, QueryOrder::Cycle, RewardMode::RelativeToExpert);
        let mut rng = StdRng::seed_from_u64(0);
        let agent = agent_for(&env, default_policy(), &mut rng);
        let mut features = Vec::new();
        let mut mask = Vec::new();
        let mut env = env;
        env.reset(&mut rng);
        env.state_features(&mut features);
        env.action_mask(&mut mask);
        let (a, p) = agent.select_action(&features, &mask, &mut rng, false);
        assert!(mask[a]);
        assert!(p > 0.0);
    }
}
