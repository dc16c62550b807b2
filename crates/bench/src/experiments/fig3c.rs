//! Figure 3c — optimization (planning) time vs relation count.
//!
//! For each query size 4–17, measures the traditional planner's
//! planning time (DP below its threshold, greedy above — like
//! PostgreSQL's exhaustive search switching to GEQO at 12) against a
//! trained `LearnedPlanner`'s inference time (one greedy-argmax
//! episode, including featurisation and the operator-selection
//! hand-off). Both strategies are timed through the same `&dyn
//! Planner` call, so the comparison measures exactly what the serving
//! layer pays. The paper's counter-intuitive shape: the learned
//! enumerator's O(n) episodes beat the optimizer's super-linear search
//! once queries grow past a crossover. Here the expert turns greedy at
//! ten relations, so ReJOIN's advantage can end there too: the run
//! reports every size at which it plans faster.

use super::common::{agent_for, default_policy, join_env, learned_planner, planner_context};
use hfqo_opt::{Planner, TraditionalPlanner};
use hfqo_rejoin::{train_parallel, QueryOrder, RewardMode, TrainerConfig};
use hfqo_workload::synth::SynthConfig;
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One row of Figure 3c.
#[derive(Debug, Clone)]
pub struct Fig3cRow {
    /// Relation count.
    pub relations: usize,
    /// Expert planning time, microseconds (mean over repeats).
    pub expert_us: f64,
    /// Trained-ReJOIN planning time, microseconds (mean over repeats).
    pub rejoin_us: f64,
}

/// Figure 3c result.
#[derive(Debug, Clone)]
pub struct Fig3cResult {
    /// One row per relation count.
    pub rows: Vec<Fig3cRow>,
    /// The relation counts at which ReJOIN plans faster than the expert.
    pub rejoin_faster_at: Vec<usize>,
}

/// Runs the sweep, warming the policy on `workers` episode-collection
/// threads. `train_episodes` warms the policy first (planning time is
/// independent of policy quality, but the protocol measures a
/// *trained* agent, as the paper does).
pub fn run(rows_per_table: usize, train_episodes: usize, seed: u64, workers: usize) -> Fig3cResult {
    let sizes: Vec<usize> = (4..=17).collect();
    let bundle = WorkloadBundle::synthetic(
        SynthConfig {
            tables: 17,
            rows: rows_per_table,
            seed,
        },
        &sizes,
        3,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3C);
    let make_env = |_w: usize| join_env(&bundle, QueryOrder::Shuffle, RewardMode::LogRelative);
    let mut agent = agent_for(&make_env(0), default_policy(), &mut rng);
    let _ = train_parallel(
        make_env,
        &mut agent,
        TrainerConfig::new(train_episodes).with_workers(workers),
        &mut rng,
    );

    // Both strategies behind the unified trait: the timings below
    // measure exactly the `Planner::plan` call the serving layer makes.
    let expert = TraditionalPlanner::new();
    let rejoin = learned_planner(&bundle, &agent);
    let planners: [&dyn Planner; 2] = [&expert, &rejoin];
    let ctx = planner_context(&bundle);
    const REPEATS: usize = 15;
    let mut out_rows = Vec::new();
    for &n in &sizes {
        // All workload queries of this size.
        let indices: Vec<usize> = bundle
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.relation_count() == n)
            .map(|(i, _)| i)
            .collect();
        // Mean planning time per strategy, one warm-up per query.
        let mut mean_us = [0.0f64; 2];
        for (pi, planner) in planners.iter().enumerate() {
            let mut total = 0.0f64;
            let mut count = 0usize;
            for &qi in &indices {
                let query = &bundle.queries[qi];
                let _ = planner.plan(&ctx, query).expect("plannable");
                for _ in 0..REPEATS {
                    let start = Instant::now();
                    let planned = planner.plan(&ctx, query).expect("plannable");
                    total += start.elapsed().as_secs_f64() * 1e6;
                    count += 1;
                    std::hint::black_box(planned.cost);
                }
            }
            mean_us[pi] = total / count.max(1) as f64;
        }
        out_rows.push(Fig3cRow {
            relations: n,
            expert_us: mean_us[0],
            rejoin_us: mean_us[1],
        });
    }
    let rejoin_faster_at = out_rows
        .iter()
        .filter(|r| r.rejoin_us < r.expert_us)
        .map(|r| r.relations)
        .collect();
    Fig3cResult {
        rows: out_rows,
        rejoin_faster_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_sizes_and_superlinear_expert() {
        let result = run(300, 40, 3, 1);
        assert_eq!(result.rows.len(), 14);
        assert_eq!(result.rows[0].relations, 4);
        assert_eq!(result.rows[13].relations, 17);
        assert!(result.rows.iter().all(|r| r.expert_us > 0.0));
        assert!(result.rows.iter().all(|r| r.rejoin_us > 0.0));
        // The expert's planning time must grow clearly with query size
        // (Figure 3c's PostgreSQL curve).
        let small = result.rows[0].expert_us;
        let large = result.rows[13].expert_us;
        assert!(
            large > 2.0 * small,
            "expert time not growing: {small:.1}µs → {large:.1}µs"
        );
    }
}
