//! Figure 3a — ReJOIN convergence.
//!
//! Trains ReJOIN on the JOB-like workload with the cost-model reward and
//! reports the moving-average plan cost relative to the expert (the
//! paper's y-axis, in %) against the episode count. The expected shape:
//! starts at several hundred percent, decays over thousands of episodes,
//! and settles at or below 100 %.

use super::common::{agent_for, default_policy, join_env, Scale};
use hfqo_rejoin::{train_parallel, QueryOrder, RewardMode, TrainerConfig};
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Figure 3a result.
#[derive(Debug, Clone)]
pub struct Fig3aResult {
    /// `(episode, moving-average cost / expert cost)` series.
    pub series: Vec<(usize, f64)>,
    /// First episode where the moving average reaches expert parity.
    pub convergence_episode: Option<usize>,
    /// Mean ratio over the final window.
    pub final_ratio: f64,
    /// Mean ratio over the first window (the starting point).
    pub initial_ratio: f64,
    /// Episodes trained.
    pub episodes: usize,
}

/// Runs the experiment, collecting episodes on `workers` threads
/// (1 = the exact legacy sequential run). Also returns the trained
/// agent and its environment workload via the bundle, so `fig3b` can
/// reuse the run.
pub fn run(
    bundle: &WorkloadBundle,
    scale: Scale,
    seed: u64,
    workers: usize,
) -> (Fig3aResult, hfqo_rejoin::rl::ReinforceAgent) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = agent_for(
        &join_env(bundle, QueryOrder::Shuffle, RewardMode::LogRelative),
        default_policy(),
        &mut rng,
    );
    let log = train_parallel(
        |_w| join_env(bundle, QueryOrder::Shuffle, RewardMode::LogRelative),
        &mut agent,
        TrainerConfig::new(scale.episodes).with_workers(workers),
        &mut rng,
    );
    let ma = log.moving_geo_ratio(scale.ma_window);
    // Thin the series for reporting: every ~1% of episodes.
    let stride = (scale.episodes / 100).max(1);
    let series: Vec<(usize, f64)> = ma
        .iter()
        .filter(|(ep, _)| ep % stride == 0 || *ep + 1 == scale.episodes)
        .cloned()
        .collect();
    let initial_ratio = log.initial_geo_ratio(scale.ma_window).unwrap_or(f64::NAN);
    let result = Fig3aResult {
        convergence_episode: log.convergence_episode_geo(1.0, scale.ma_window),
        final_ratio: log.final_geo_ratio(scale.ma_window).unwrap_or(f64::NAN),
        initial_ratio,
        episodes: scale.episodes,
        series,
    };
    (result, agent)
}

#[cfg(test)]
mod tests {
    use super::super::common::imdb_bundle;
    use super::*;

    /// A miniature end-to-end convergence check: on a small workload the
    /// agent must improve substantially from its random start.
    #[test]
    fn miniature_convergence() {
        let scale = Scale {
            base_rows: 300,
            episodes: 400,
            ma_window: 50,
        };
        let bundle = imdb_bundle(scale, 5);
        // Restrict to small queries so 400 episodes suffice.
        let queries: Vec<_> = bundle
            .queries
            .iter()
            .filter(|q| q.relation_count() <= 6)
            .cloned()
            .collect();
        let small = WorkloadBundle {
            db: bundle.db,
            stats: bundle.stats,
            queries,
        };
        let (result, _) = run(&small, scale, 5, 1);
        assert_eq!(result.episodes, 400);
        assert!(!result.series.is_empty());
        assert!(result.final_ratio.is_finite());
        assert!(
            result.final_ratio <= result.initial_ratio * 1.1,
            "no improvement: {} → {}",
            result.initial_ratio,
            result.final_ratio
        );
    }
}
