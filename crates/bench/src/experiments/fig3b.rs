//! Figure 3b — cost of generated plans for the ten reported queries.
//!
//! After Figure 3a's training protocol, the trained agent — frozen into
//! a [`LearnedPlanner`] — plans each of the queries `1a, 1b, 1c, 1d,
//! 8c, 12b, 13c, 15a, 16b, 22c` through the unified [`Planner`] trait,
//! against the traditional expert planning the same queries through the
//! same trait. (The learned planner reproduces a greedy evaluation
//! episode exactly, so this is the same measurement the env-based
//! harness used to make, minus the hand-rolled episode loop.) Expected
//! shape: ReJOIN's cost is at or below the expert's on most queries.

use super::common::{learned_planner, planner_context};
use hfqo_opt::{Planner, TraditionalPlanner};
use hfqo_rejoin::{LearnedPlanner, ReJoinAgent};
use hfqo_workload::job::FIGURE3B_LABELS;
use hfqo_workload::WorkloadBundle;

/// One row of Figure 3b.
#[derive(Debug, Clone)]
pub struct Fig3bRow {
    /// Query label.
    pub label: String,
    /// Expert plan cost.
    pub expert_cost: f64,
    /// Trained ReJOIN plan cost.
    pub rejoin_cost: f64,
}

/// Figure 3b result.
#[derive(Debug, Clone)]
pub struct Fig3bResult {
    /// One row per reported query.
    pub rows: Vec<Fig3bRow>,
    /// Number of queries where ReJOIN's plan costs at most the expert's
    /// (within 0.1 % tolerance).
    pub wins_or_ties: usize,
}

/// Evaluates a trained agent on the Figure 3b queries through the
/// [`Planner`] trait.
pub fn run(bundle: &WorkloadBundle, agent: &ReJoinAgent) -> Fig3bResult {
    let ctx = planner_context(bundle);
    let expert = TraditionalPlanner::new();
    let rejoin: LearnedPlanner = learned_planner(bundle, agent);
    let rows: Vec<Fig3bRow> = FIGURE3B_LABELS
        .iter()
        .filter_map(|&label| {
            let query = bundle
                .queries
                .iter()
                .find(|q| q.label.as_deref() == Some(label))?;
            let cost = |p: &dyn Planner| p.plan(&ctx, query).expect("plannable").cost;
            Some(Fig3bRow {
                label: label.to_string(),
                expert_cost: cost(&expert),
                rejoin_cost: cost(&rejoin),
            })
        })
        .collect();
    let wins_or_ties = rows
        .iter()
        .filter(|r| r.rejoin_cost <= r.expert_cost * 1.001)
        .count();
    Fig3bResult { rows, wins_or_ties }
}

#[cfg(test)]
mod tests {
    use super::super::common::{agent_for, default_policy, imdb_bundle, join_env, Scale};
    use super::*;
    use hfqo_rejoin::{evaluate_per_query, QueryOrder, RewardMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_all_ten_rows() {
        let scale = Scale {
            base_rows: 250,
            episodes: 0,
            ma_window: 10,
        };
        let bundle = imdb_bundle(scale, 9);
        let mut rng = StdRng::seed_from_u64(0);
        let env = join_env(&bundle, QueryOrder::Cycle, RewardMode::RelativeToExpert);
        let agent = agent_for(&env, default_policy(), &mut rng);
        drop(env);
        let result = run(&bundle, &agent);
        assert_eq!(result.rows.len(), 10);
        assert!(result.rows.iter().all(|r| r.expert_cost > 0.0));
        assert!(result.rows.iter().all(|r| r.rejoin_cost > 0.0));
        assert_eq!(result.rows[0].label, "1a");
    }

    /// The planner-trait evaluation must agree with the legacy env-based
    /// greedy evaluation it replaced.
    #[test]
    fn matches_env_based_evaluation() {
        let scale = Scale {
            base_rows: 250,
            episodes: 0,
            ma_window: 10,
        };
        let bundle = imdb_bundle(scale, 13);
        let mut rng = StdRng::seed_from_u64(1);
        let mut env = join_env(&bundle, QueryOrder::Cycle, RewardMode::RelativeToExpert);
        let agent = agent_for(&env, default_policy(), &mut rng);
        let records = evaluate_per_query(&mut env, &agent, QueryOrder::Cycle, &mut rng);
        let result = run(&bundle, &agent);
        for row in &result.rows {
            let record = records
                .iter()
                .find(|r| r.label.as_deref() == Some(row.label.as_str()))
                .expect("label evaluated");
            assert!(
                (row.rejoin_cost - record.agent_cost).abs() < 1e-6,
                "{}: planner {} vs env {}",
                row.label,
                row.rejoin_cost,
                record.agent_cost
            );
            assert!((row.expert_cost - record.expert_cost).abs() < 1e-6);
        }
    }
}
