//! §4 "Search Space Size" — the naive full-space agent.
//!
//! The paper reports that a naive extension of ReJOIN to the entire
//! execution-plan search space "did not out-perform random choice even
//! with 72 hours of training", while join-order-only learning became
//! competitive within ~9 000 episodes. This experiment trains (a) a
//! join-order-only agent and (b) a flat full-space agent for the *same*
//! episode budget and compares both against (c) the random planner.

use super::common::{agent_for, default_policy, join_env, plan_env, planner_context, Scale};
use hfqo_opt::{Planner, RandomPlanner, TraditionalPlanner};
use hfqo_rejoin::{train_parallel, QueryOrder, RewardMode, StageSet, TrainerConfig};
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of the search-space experiment.
#[derive(Debug, Clone)]
pub struct NaiveResult {
    /// Final moving-average cost ratio of the join-order-only agent.
    pub join_order_ratio: f64,
    /// Final moving-average cost ratio of the flat full-space agent.
    pub full_space_ratio: f64,
    /// Mean cost ratio of uniformly random plans.
    pub random_ratio: f64,
    /// Episodes trained (each agent).
    pub episodes: usize,
}

/// Runs the experiment, collecting episodes on `workers` threads.
pub fn run(bundle: &WorkloadBundle, scale: Scale, seed: u64, workers: usize) -> NaiveResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = TrainerConfig::new(scale.episodes).with_workers(workers);

    // (a) Join-order-only agent.
    let mut agent = agent_for(
        &join_env(bundle, QueryOrder::Shuffle, RewardMode::LogRelative),
        default_policy(),
        &mut rng,
    );
    let join_log = train_parallel(
        |_w| join_env(bundle, QueryOrder::Shuffle, RewardMode::LogRelative),
        &mut agent,
        config,
        &mut rng,
    );

    // (b) Flat full-space agent, identical budget.
    let make_full_env = |_w: usize| {
        plan_env(
            bundle,
            &bundle.queries,
            QueryOrder::Shuffle,
            RewardMode::LogRelative,
            StageSet::full(),
        )
    };
    let mut full_agent = agent_for(&make_full_env(0), default_policy(), &mut rng);
    let full_log = train_parallel(make_full_env, &mut full_agent, config, &mut rng);

    // (c) Random plans, drawn through the unified `Planner` trait (the
    // same floor baseline the serving layer can mount).
    let ctx = planner_context(bundle);
    let expert: &dyn Planner = &TraditionalPlanner::new();
    let random: &dyn Planner = &RandomPlanner::new(seed ^ 0xF100);
    // Geometric mean, matching the agents' reporting metric.
    let mut random_ln_sum = 0.0f64;
    let mut random_n = 0usize;
    for q in &bundle.queries {
        let expert_cost = expert.plan(&ctx, q).expect("plannable").cost;
        for _ in 0..3 {
            let drawn = random.plan(&ctx, q).expect("plannable").cost;
            random_ln_sum += (drawn / expert_cost).max(1e-12).ln();
            random_n += 1;
        }
    }

    NaiveResult {
        join_order_ratio: join_log
            .final_geo_ratio(scale.ma_window)
            .unwrap_or(f64::NAN),
        full_space_ratio: full_log
            .final_geo_ratio(scale.ma_window)
            .unwrap_or(f64::NAN),
        random_ratio: (random_ln_sum / random_n.max(1) as f64).exp(),
        episodes: scale.episodes,
    }
}

#[cfg(test)]
mod tests {
    use super::super::common::imdb_bundle;
    use super::*;

    #[test]
    fn smoke_runs_and_orders_sanely() {
        let scale = Scale {
            base_rows: 250,
            episodes: 120,
            ma_window: 40,
        };
        let bundle = imdb_bundle(scale, 6);
        let queries: Vec<_> = bundle
            .queries
            .iter()
            .filter(|q| q.relation_count() <= 6)
            .take(10)
            .cloned()
            .collect();
        let small = WorkloadBundle {
            db: bundle.db,
            stats: bundle.stats,
            queries,
        };
        let result = run(&small, scale, 6, 2);
        assert!(result.join_order_ratio.is_finite());
        assert!(result.full_space_ratio.is_finite());
        assert!(
            result.random_ratio > 1.0,
            "random should be worse than expert"
        );
        // Even at this tiny budget, the smaller search space should not
        // be *worse* than the bigger one by a large factor.
        assert!(result.join_order_ratio < result.full_space_ratio * 5.0);
    }
}
