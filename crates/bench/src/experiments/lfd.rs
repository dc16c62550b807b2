//! §5.1 — learning from demonstration vs tabula rasa.
//!
//! The claim: an agent that first learns to predict the expert's
//! outcomes (and then fine-tunes on its own latencies) masters the task
//! with far less training and — critically — without ever executing the
//! catastrophic plans a tabula-rasa latency learner stumbles through.

use super::common::{agent_for, default_policy, join_env, Scale};
use hfqo_rejoin::{learn_from_demonstration, train, DemonstrationConfig, QueryOrder, RewardMode};
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of the learning-from-demonstration comparison.
#[derive(Debug, Clone)]
pub struct LfdResult {
    /// Fine-tuning episodes the LfD agent ran.
    pub lfd_episodes: usize,
    /// Final cost ratio of the LfD agent.
    pub lfd_final_ratio: f64,
    /// Worst latency the LfD agent caused (ms).
    pub lfd_worst_ms: f64,
    /// Slip re-training events.
    pub lfd_retrains: usize,
    /// Final cost ratio of the tabula-rasa agent (same episode budget,
    /// including the LfD pretraining budget converted to episodes).
    pub tabula_final_ratio: f64,
    /// Worst latency the tabula-rasa agent caused (ms).
    pub tabula_worst_ms: f64,
    /// Mean expert latency (ms).
    pub expert_mean_ms: f64,
}

/// Runs the comparison.
pub fn run(bundle: &WorkloadBundle, scale: Scale, seed: u64) -> LfdResult {
    let episodes = (scale.episodes / 4).max(100);
    let mut rng = StdRng::seed_from_u64(seed);

    // Learning from demonstration.
    let mut env = join_env(bundle, QueryOrder::Cycle, RewardMode::InverseLatency);
    let config = DemonstrationConfig {
        finetune_episodes: episodes,
        pretrain_steps: 600,
        ..Default::default()
    };
    let lfd = learn_from_demonstration(&mut env, &config, &mut rng);

    // Tabula rasa on the same reward with the same episode budget.
    let mut env2 = join_env(bundle, QueryOrder::Cycle, RewardMode::InverseLatency);
    let mut agent = agent_for(&env2, default_policy(), &mut rng);
    let tabula_log = train(&mut env2, &mut agent, episodes, &mut rng);

    let expert_mean_ms =
        lfd.expert_latency_ms.iter().sum::<f64>() / lfd.expert_latency_ms.len().max(1) as f64;
    LfdResult {
        lfd_episodes: episodes,
        lfd_final_ratio: lfd.log.final_geo_ratio(scale.ma_window).unwrap_or(f64::NAN),
        lfd_worst_ms: lfd.worst_latency_ms,
        lfd_retrains: lfd.retrain_events.len(),
        tabula_final_ratio: tabula_log
            .final_geo_ratio(scale.ma_window)
            .unwrap_or(f64::NAN),
        tabula_worst_ms: tabula_log.worst_latency_ms().unwrap_or(0.0),
        expert_mean_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::super::common::imdb_bundle;
    use super::*;

    #[test]
    fn lfd_avoids_the_worst_plans() {
        let scale = Scale {
            base_rows: 250,
            episodes: 320,
            ma_window: 40,
        };
        let bundle = imdb_bundle(scale, 12);
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
        let result = run(&small, scale, 12);
        assert!(result.lfd_final_ratio.is_finite());
        assert!(result.tabula_final_ratio.is_finite());
        assert!(result.expert_mean_ms > 0.0);
        // The demonstration-guided agent's worst plan should be no worse
        // than the tabula-rasa agent's worst (usually far better).
        assert!(
            result.lfd_worst_ms <= result.tabula_worst_ms * 1.5,
            "lfd worst {} vs tabula worst {}",
            result.lfd_worst_ms,
            result.tabula_worst_ms
        );
    }
}
