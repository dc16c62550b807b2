//! §4 "Performance Evaluation Overhead" — what latency-as-reward costs.
//!
//! The paper's footnote 2: using query latency as the reward signal from
//! scratch produced initial plans that "could not be executed in any
//! reasonable amount of time". Here we train (a) a tabula-rasa agent on
//! the latency reward — every episode *executes* (simulates) its plan,
//! so the training bill is the sum of all those latencies — and (b) a
//! cost-reward agent that never executes during training. We report the
//! cumulative simulated execution time, its distribution over the first
//! vs last training quarter, and the count of catastrophic episodes.

use super::common::{agent_for, default_policy, join_env, planner_context, Scale};
use hfqo_opt::{Planner, TraditionalPlanner};
use hfqo_rejoin::{train_parallel, QueryOrder, RewardMode, TrainerConfig};
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of the evaluation-overhead experiment.
#[derive(Debug, Clone)]
pub struct LatencyOverheadResult {
    /// Total simulated execution time spent training on latency rewards
    /// (seconds).
    pub latency_training_exec_s: f64,
    /// Execution time of the first training quarter (seconds) — where
    /// the random-policy catastrophes live.
    pub first_quarter_exec_s: f64,
    /// Execution time of the last training quarter (seconds).
    pub last_quarter_exec_s: f64,
    /// Episodes whose latency exceeded 100× the expert mean.
    pub catastrophic_episodes: usize,
    /// Mean expert latency over the workload (milliseconds).
    pub expert_mean_ms: f64,
    /// Worst single episode latency (milliseconds).
    pub worst_ms: f64,
    /// Final cost ratio of the latency-trained agent.
    pub final_ratio: f64,
}

/// Runs the experiment, collecting episodes on `workers` threads.
pub fn run(
    bundle: &WorkloadBundle,
    scale: Scale,
    seed: u64,
    workers: usize,
) -> LatencyOverheadResult {
    let mut rng = StdRng::seed_from_u64(seed);

    // Expert latency baseline, planned through the unified trait.
    let ctx = planner_context(bundle);
    let expert: &dyn Planner = &TraditionalPlanner::new();
    let mut env = join_env(bundle, QueryOrder::Shuffle, RewardMode::InverseLatency);
    let mut expert_sum = 0.0;
    for (i, q) in bundle.queries.iter().enumerate() {
        let planned = expert.plan(&ctx, q).expect("plannable");
        expert_sum += env.simulate_latency(i, &planned.plan, &mut rng);
    }
    let expert_mean_ms = expert_sum / bundle.queries.len().max(1) as f64;

    // Tabula-rasa latency-reward training.
    let mut agent = agent_for(&env, default_policy(), &mut rng);
    drop(env);
    let log = train_parallel(
        |_w| join_env(bundle, QueryOrder::Shuffle, RewardMode::InverseLatency),
        &mut agent,
        TrainerConfig::new(scale.episodes).with_workers(workers),
        &mut rng,
    );
    let latencies: Vec<f64> = log.records.iter().filter_map(|r| r.latency_ms).collect();
    let total_ms: f64 = latencies.iter().sum();
    let quarter = latencies.len() / 4;
    let first_quarter_ms: f64 = latencies.iter().take(quarter).sum();
    let last_quarter_ms: f64 = latencies.iter().rev().take(quarter).sum();
    let catastrophic = latencies
        .iter()
        .filter(|&&l| l > 100.0 * expert_mean_ms)
        .count();

    LatencyOverheadResult {
        latency_training_exec_s: total_ms / 1e3,
        first_quarter_exec_s: first_quarter_ms / 1e3,
        last_quarter_exec_s: last_quarter_ms / 1e3,
        catastrophic_episodes: catastrophic,
        expert_mean_ms,
        worst_ms: log.worst_latency_ms().unwrap_or(0.0),
        final_ratio: log.final_geo_ratio(scale.ma_window).unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::super::common::imdb_bundle;
    use super::*;

    #[test]
    fn overhead_is_front_loaded() {
        let scale = Scale {
            base_rows: 250,
            episodes: 160,
            ma_window: 40,
        };
        let bundle = imdb_bundle(scale, 8);
        let queries: Vec<_> = bundle
            .queries
            .iter()
            .filter(|q| q.relation_count() <= 6)
            .take(8)
            .cloned()
            .collect();
        let small = WorkloadBundle {
            db: bundle.db,
            stats: bundle.stats,
            queries,
        };
        let result = run(&small, scale, 8, 1);
        assert!(result.expert_mean_ms > 0.0);
        assert!(result.latency_training_exec_s > 0.0);
        assert!(result.worst_ms >= result.expert_mean_ms);
        // The untrained first quarter should be at least as expensive to
        // execute as the trained last quarter.
        assert!(
            result.first_quarter_exec_s >= result.last_quarter_exec_s * 0.8,
            "first {} vs last {}",
            result.first_quarter_exec_s,
            result.last_quarter_exec_s
        );
    }
}
