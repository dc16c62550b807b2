//! §5.2 — cost-model bootstrapping and the reward-scaling ablation.
//!
//! Phase 1 trains on the cost model ("training wheels"), Phase 2
//! switches to latency. The paper predicts that switching to *raw*
//! latency shifts the reward range and destabilises the converged
//! policy, while mapping latency into the observed cost range (the
//! `r_l` formula) keeps it stable. We run both variants and report the
//! post-switch disturbance.

use super::common::{agent_for, default_policy, join_env, Scale};
use hfqo_rejoin::{cost_bootstrap, BootstrapConfig, QueryOrder, RewardMode};
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One bootstrapping run's summary.
#[derive(Debug, Clone)]
pub struct BootstrapRun {
    /// Whether Phase 2 scaled latency into the cost range.
    pub scaled: bool,
    /// Moving-average cost ratio just before the phase switch.
    pub ratio_before_switch: f64,
    /// Worst moving-average cost ratio within the window after the
    /// switch (the "disturbance").
    pub worst_ratio_after_switch: f64,
    /// Final cost ratio at the end of Phase 2.
    pub final_ratio: f64,
    /// Observed Phase-1 cost range.
    pub cost_range: (f64, f64),
    /// Observed Phase-1 latency range (ms).
    pub latency_range: (f64, f64),
}

/// Result of the bootstrapping experiment.
#[derive(Debug, Clone)]
pub struct BootstrapResult {
    /// The scaled (paper-proposal) run.
    pub scaled: BootstrapRun,
    /// The unscaled ablation.
    pub unscaled: BootstrapRun,
    /// Episodes per phase.
    pub phase1_episodes: usize,
}

fn one_run(bundle: &WorkloadBundle, scale: Scale, seed: u64, scale_rewards: bool) -> BootstrapRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = join_env(bundle, QueryOrder::Shuffle, RewardMode::NegLogCost);
    let mut agent = agent_for(&env, default_policy(), &mut rng);
    let config = BootstrapConfig {
        phase1_episodes: scale.episodes / 2,
        observe_episodes: (scale.episodes / 10).max(20),
        phase2_episodes: scale.episodes / 2,
        scale_rewards,
    };
    let outcome = cost_bootstrap(&mut env, &mut agent, &config, &mut rng);
    let window = scale.ma_window.min(config.phase1_episodes / 2).max(10);
    let ma = outcome.log.moving_geo_ratio(window);
    let before = ma
        .iter()
        .rfind(|(ep, _)| *ep < outcome.phase_boundary)
        .map(|(_, r)| *r)
        .unwrap_or(f64::NAN);
    let after_window = outcome.phase_boundary + scale.episodes / 4;
    let worst_after = ma
        .iter()
        .filter(|(ep, _)| *ep >= outcome.phase_boundary && *ep < after_window)
        .map(|(_, r)| *r)
        .fold(f64::NAN, f64::max);
    BootstrapRun {
        scaled: scale_rewards,
        ratio_before_switch: before,
        worst_ratio_after_switch: worst_after,
        final_ratio: outcome.log.final_geo_ratio(window).unwrap_or(f64::NAN),
        cost_range: outcome.scaler.cost_range(),
        latency_range: outcome.scaler.latency_range(),
    }
}

/// Runs both variants.
pub fn run(bundle: &WorkloadBundle, scale: Scale, seed: u64) -> BootstrapResult {
    BootstrapResult {
        scaled: one_run(bundle, scale, seed, true),
        unscaled: one_run(bundle, scale, seed, false),
        phase1_episodes: scale.episodes / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::super::common::imdb_bundle;
    use super::*;

    #[test]
    fn both_variants_run_and_report_ranges() {
        let scale = Scale {
            base_rows: 250,
            episodes: 240,
            ma_window: 40,
        };
        let bundle = imdb_bundle(scale, 13);
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
        let result = run(&small, scale, 13);
        assert!(result.scaled.scaled);
        assert!(!result.unscaled.scaled);
        for run in [&result.scaled, &result.unscaled] {
            assert!(run.final_ratio.is_finite());
            let (c_min, c_max) = run.cost_range;
            let (l_min, l_max) = run.latency_range;
            assert!(c_min <= c_max);
            assert!(l_min <= l_max);
            assert!(l_min > 0.0);
        }
    }
}
