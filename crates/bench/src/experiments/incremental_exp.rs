//! §5.3 — the three incremental-learning curricula vs flat training.
//!
//! One agent per curriculum walks its phase sequence (growing pipeline
//! stages, growing relation counts, or both); after every curriculum we
//! evaluate the agent greedily on the *full* task — every query, every
//! pipeline stage — and compare against flat full-space training with
//! the same total episode budget.

use super::common::{agent_for, default_policy, plan_env, Scale};
use hfqo_query::QueryGraph;
use hfqo_rejoin::incremental::admitted_queries;
use hfqo_rejoin::{
    evaluate_per_query, train, Curriculum, PlanEnv, QueryOrder, ReJoinAgent, RewardMode, StageSet,
    TrainerConfig,
};
use hfqo_workload::synth::SynthConfig;
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One curriculum's outcome.
#[derive(Debug, Clone)]
pub struct CurriculumRow {
    /// Curriculum name.
    pub curriculum: String,
    /// Number of phases.
    pub phases: usize,
    /// Mean greedy cost ratio on the full task after training.
    pub full_task_ratio: f64,
}

/// Result of the incremental-learning experiment.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// One row per curriculum.
    pub rows: Vec<CurriculumRow>,
    /// Total training episodes per curriculum.
    pub total_episodes: usize,
    /// Workload size.
    pub queries: usize,
}

/// The full-stage environment over `queries`. Every phase's
/// environment is built this wide and narrowed, so the state layout is
/// constant across phases and one agent fits them all.
fn full_env<'a>(
    bundle: &'a WorkloadBundle,
    queries: &'a [QueryGraph],
    order: QueryOrder,
) -> PlanEnv<'a> {
    let reward = RewardMode::LogRelative;
    plan_env(bundle, queries, order, reward, StageSet::full())
}

fn train_curriculum(
    bundle: &WorkloadBundle,
    curriculum: Curriculum,
    total_episodes: usize,
    seed: u64,
) -> (ReJoinAgent, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let phases = curriculum.phases(bundle.max_rels().max(2), total_episodes);
    let probe = full_env(bundle, &bundle.queries, QueryOrder::Shuffle);
    let mut agent = agent_for(&probe, default_policy(), &mut rng);
    drop(probe);
    let n_phases = phases.len();
    for phase in phases {
        let admitted = admitted_queries(&bundle.queries, phase.max_rels);
        if admitted.is_empty() || phase.episodes == 0 {
            continue;
        }
        let phase_queries: Vec<_> = admitted
            .iter()
            .map(|&i| bundle.queries[i].clone())
            .collect();
        let mut env = full_env(bundle, &phase_queries, QueryOrder::Shuffle);
        env.set_stages(phase.stages);
        let _ = train(
            &mut env,
            &mut agent,
            TrainerConfig::new(phase.episodes),
            &mut rng,
        );
    }
    (agent, n_phases)
}

fn full_task_ratio(bundle: &WorkloadBundle, agent: &ReJoinAgent, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ EVAL_SEED);
    let mut env = full_env(bundle, &bundle.queries, QueryOrder::Cycle);
    let records = evaluate_per_query(&mut env, agent, QueryOrder::Cycle, &mut rng);
    records.iter().map(|r| r.cost_ratio()).sum::<f64>() / records.len().max(1) as f64
}

const EVAL_SEED: u64 = 0x9A7;

/// Runs all four curricula on a synthetic workload of 2–8-relation
/// queries (the relations curriculum needs small queries, which real
/// suites lack — the §5.3.2 observation).
pub fn run(scale: Scale, seed: u64) -> IncrementalResult {
    let sizes: Vec<usize> = (2..=8).collect();
    let bundle = WorkloadBundle::synthetic(
        SynthConfig {
            tables: 8,
            rows: scale.base_rows.min(2000),
            seed,
        },
        &sizes,
        4,
    );
    let total_episodes = scale.episodes;
    let mut rows = Vec::new();
    for curriculum in [
        Curriculum::Flat,
        Curriculum::Pipeline,
        Curriculum::Relations,
        Curriculum::Hybrid,
    ] {
        let (agent, phases) = train_curriculum(
            &bundle,
            curriculum,
            total_episodes,
            seed ^ phases_seed(curriculum),
        );
        let ratio = full_task_ratio(&bundle, &agent, seed);
        rows.push(CurriculumRow {
            curriculum: format!("{curriculum:?}"),
            phases,
            full_task_ratio: ratio,
        });
    }
    IncrementalResult {
        rows,
        total_episodes,
        queries: bundle.queries.len(),
    }
}

fn phases_seed(c: Curriculum) -> u64 {
    match c {
        Curriculum::Flat => 1,
        Curriculum::Pipeline => 2,
        Curriculum::Relations => 3,
        Curriculum::Hybrid => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_curricula_produce_finite_ratios() {
        let scale = Scale {
            base_rows: 200,
            episodes: 160,
            ma_window: 40,
        };
        let result = run(scale, 14);
        assert_eq!(result.rows.len(), 4);
        for row in &result.rows {
            assert!(
                row.full_task_ratio.is_finite() && row.full_task_ratio > 0.0,
                "{}: {}",
                row.curriculum,
                row.full_task_ratio
            );
        }
        assert_eq!(result.rows[0].curriculum, "Flat");
        assert!(result.rows[1].phases >= 4);
    }
}
