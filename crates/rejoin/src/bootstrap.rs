//! Cost-model bootstrapping (§5.2).
//!
//! Phase 1 trains with the optimizer's cost model as the reward — the
//! "training wheels" that let the agent explore catastrophic strategies
//! without executing them. Once converged, the reward switches to
//! (simulated) execution latency. The paper's warning: the raw reward
//! ranges differ, so the switch must scale latency into the observed cost
//! range via [`RewardScaler`] — exposed here as a switch so the ablation
//! experiment can demonstrate the unscaled failure mode.

use crate::env::PlanEnv;
use crate::metrics::{EpisodeRecord, TrainingLog};
use crate::reward::RewardMode;
use crate::rl::ReinforceAgent;
use crate::scaling::RewardScaler;
use crate::trainer::train;
use rand::rngs::StdRng;

/// Bootstrapping configuration.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// Phase-1 (cost-reward) episodes.
    pub phase1_episodes: usize,
    /// Trailing Phase-1 episodes during which `(cost, latency)` pairs are
    /// observed to fit the scaler ("noting the optimizer cost estimates
    /// and query execution latencies during the end of Phase 1").
    pub observe_episodes: usize,
    /// Phase-2 (latency-reward) episodes.
    pub phase2_episodes: usize,
    /// Whether Phase 2 scales latency into the cost range (the paper's
    /// proposal) or uses raw latency (the ablation).
    pub scale_rewards: bool,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            phase1_episodes: 600,
            observe_episodes: 100,
            phase2_episodes: 400,
            scale_rewards: true,
        }
    }
}

/// Results of a bootstrapped training run.
#[derive(Debug)]
pub struct BootstrapOutcome {
    /// Combined episode log (Phase 1 followed by Phase 2).
    pub log: TrainingLog,
    /// Index of the first Phase-2 episode within [`Self::log`].
    pub phase_boundary: usize,
    /// The fitted scaler (also fitted, but unused, in the unscaled
    /// ablation so the observed ranges can be reported).
    pub scaler: RewardScaler,
}

/// Runs two-phase cost-model bootstrapping. The environment's reward mode
/// is overwritten by each phase.
pub fn cost_bootstrap(
    env: &mut PlanEnv<'_>,
    agent: &mut ReinforceAgent,
    config: &BootstrapConfig,
    rng: &mut StdRng,
) -> BootstrapOutcome {
    // ── Phase 1: cost-model reward (log domain; see `RewardMode`) ──────
    env.set_reward_mode(RewardMode::NegLogCost);
    let warmup = config
        .phase1_episodes
        .saturating_sub(config.observe_episodes);
    let mut log = train(env, agent, warmup, rng);

    // Trailing Phase-1 episodes: keep training, and record cost/latency
    // extrema from the (now mostly good) plans the policy produces.
    let mut scaler = RewardScaler::new();
    for i in 0..config.observe_episodes.min(config.phase1_episodes) {
        let ep = agent.run_episode(env, rng, false);
        if let Some(outcome) = env.last_outcome() {
            let plan = outcome.plan.clone();
            let (query_idx, agent_cost) = (outcome.query_idx, outcome.agent_cost);
            let label = outcome.label.clone();
            let reward = outcome.reward;
            let expert_cost = outcome.expert_cost;
            let (latency, _) = env.observe_latency(query_idx, &plan, rng);
            scaler.observe(agent_cost, latency);
            log.push(EpisodeRecord {
                episode: warmup + i,
                query_idx,
                label,
                agent_cost,
                expert_cost,
                reward,
                latency_ms: Some(latency),
            });
        }
        agent.observe(ep);
    }
    agent.update();
    let phase_boundary = log.len();

    // ── Phase 2: latency reward (scaled or raw) ─────────────────────────
    let phase2_mode = if config.scale_rewards && scaler.is_ready() {
        RewardMode::NegLogScaledLatency(scaler.clone())
    } else {
        RewardMode::NegLogLatency
    };
    env.set_reward_mode(phase2_mode);
    let phase2_log = train(env, agent, config.phase2_episodes, rng);
    log.extend_renumbered(phase2_log);

    BootstrapOutcome {
        log,
        phase_boundary,
        scaler,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvContext, QueryOrder};
    use crate::incremental::StageSet;
    use crate::rl::{Environment as _, ReinforceConfig};
    use hfqo_opt::test_support::{chain_query, TestDb};
    use rand::SeedableRng;

    fn setup() -> (TestDb, Vec<hfqo_query::QueryGraph>) {
        let db = TestDb::chain(4, 300);
        let queries = vec![chain_query(&db, 4), chain_query(&db, 3)];
        (db, queries)
    }

    fn quick_config() -> BootstrapConfig {
        BootstrapConfig {
            phase1_episodes: 60,
            observe_episodes: 20,
            phase2_episodes: 40,
            ..Default::default()
        }
    }

    #[test]
    fn bootstrap_runs_both_phases() {
        let (db, queries) = setup();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig {
                hidden: vec![32],
                batch_episodes: 4,
                ..Default::default()
            },
            &mut rng,
        );
        let outcome = cost_bootstrap(&mut env, &mut agent, &quick_config(), &mut rng);
        assert_eq!(outcome.log.len(), 100);
        assert_eq!(outcome.phase_boundary, 60);
        assert!(outcome.scaler.is_ready());
        // Observation episodes carry latencies; earlier ones do not.
        assert!(outcome.log.records[10].latency_ms.is_none());
        assert!(outcome.log.records[50].latency_ms.is_some());
        // Phase 2 episodes all carry latencies.
        assert!(outcome.log.records[60..]
            .iter()
            .all(|r| r.latency_ms.is_some()));
        // Environment ends in a latency mode.
        assert!(env.reward_mode().needs_latency());
    }

    #[test]
    fn unscaled_ablation_uses_raw_latency() {
        let (db, queries) = setup();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        let config = BootstrapConfig {
            scale_rewards: false,
            ..quick_config()
        };
        let outcome = cost_bootstrap(&mut env, &mut agent, &config, &mut rng);
        assert!(matches!(env.reward_mode(), RewardMode::NegLogLatency));
        // The scaler is still fitted for reporting.
        assert!(outcome.scaler.is_ready());
    }
}
