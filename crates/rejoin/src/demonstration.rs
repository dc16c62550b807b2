//! Learning from demonstration (§5.1).
//!
//! The five-step recipe from the paper, implemented over the join-order
//! environment:
//!
//! 1. run the workload through the traditional optimizer and record each
//!    query's episode history `H_q` (forest-merge actions);
//! 2. execute (here: simulate) the expert plans and record latencies
//!    `L_q`;
//! 3. train a **reward prediction function** to map `(state, action)` to
//!    the eventual latency;
//! 4. plan queries by running every valid action through the predictor
//!    and taking the minimum (with ε-exploration), fine-tuning the
//!    predictor on the observed latencies;
//! 5. if performance *slips* past a threshold, partially re-train on the
//!    stored expert samples.
//!
//! Latencies are learned in `ln(1 + ms)` space: plan latencies span
//! orders of magnitude and the paper's own §5.2 discussion shows why raw
//! ranges destabilise learning; the log transform is monotone, so
//! argmin-selection is unaffected.
//!
//! Every network touch here rides the batched NN path: pretraining and
//! fine-tuning hand whole minibatches to
//! `RewardModel::train_batch` (one B×F forward/backward per
//! minibatch), and plan-time argmin selection scores all valid actions
//! of a state in a single forward via `RewardModel::predict_all` —
//! there is no per-row network loop left in this pipeline.

use crate::env::{PlanEnv, QueryOrder};
use crate::incremental::StageSet;
use crate::metrics::{EpisodeRecord, MovingAverage, TrainingLog};
use crate::rl::{Environment, RewardModel, RewardModelConfig};
use hfqo_opt::expert_actions;
use rand::rngs::StdRng;
use rand::Rng;

/// One `(state, action, ln-latency)` demonstration sample.
type Sample = (Vec<f32>, usize, f32);

/// Exploration probability during fine-tuning.
const EPSILON: f32 = 0.05;

/// Re-train when the agent's average latency exceeds this multiple of
/// the expert average over the same window.
const SLIP_FACTOR: f64 = 1.5;

/// Configuration for learning from demonstration. Fine-tuning explores
/// with probability 0.05, and a slip is an agent average above 1.5× the
/// expert's.
#[derive(Debug, Clone)]
pub struct DemonstrationConfig {
    /// Minibatch passes over the expert samples in Phase 1.
    pub pretrain_steps: usize,
    /// Minibatch size for both phases. Each minibatch is one fused
    /// forward/backward through the reward network, so larger batches
    /// amortise the per-update overhead.
    pub batch_size: usize,
    /// Fine-tuning episodes (Phase 2).
    pub finetune_episodes: usize,
    /// Window for the slip detector's moving averages.
    pub slip_window: usize,
    /// Expert-only minibatches applied on a slip.
    pub retrain_steps: usize,
    /// Reward-model network shape.
    pub model: RewardModelConfig,
}

impl Default for DemonstrationConfig {
    fn default() -> Self {
        Self {
            pretrain_steps: 400,
            batch_size: 32,
            finetune_episodes: 300,
            slip_window: 25,
            retrain_steps: 50,
            model: RewardModelConfig::default(),
        }
    }
}

/// Results of a learning-from-demonstration run.
#[derive(Debug)]
pub struct DemonstrationOutcome {
    /// Pretraining loss curve (one value per minibatch).
    pub pretrain_losses: Vec<f32>,
    /// Fine-tuning episode log.
    pub log: TrainingLog,
    /// Episodes at which slip re-training fired.
    pub retrain_events: Vec<usize>,
    /// Mean expert latency per query (the baseline the slip detector
    /// compares against).
    pub expert_latency_ms: Vec<f64>,
    /// Worst latency the agent ever caused during fine-tuning — the
    /// paper's headline claim is that this stays near the expert's range
    /// instead of the catastrophic latencies of tabula-rasa training.
    pub worst_latency_ms: f64,
}

/// Runs learning from demonstration on a join-order environment.
///
/// The environment's reward mode must be latency-based so fine-tuning
/// episodes carry latency observations (construct it with
/// [`RewardMode::InverseLatency`](crate::reward::RewardMode)), and its
/// stages must be [`StageSet::join_order_only`]: the expert histories
/// are replayed as *pair* actions, which is all such an episode
/// consists of.
pub fn learn_from_demonstration(
    env: &mut PlanEnv<'_>,
    config: &DemonstrationConfig,
    rng: &mut StdRng,
) -> DemonstrationOutcome {
    assert!(
        env.reward_mode().needs_latency(),
        "learning from demonstration requires a latency-based reward mode"
    );
    assert_eq!(
        env.stages(),
        StageSet::join_order_only(),
        "learning from demonstration replays expert pair actions; \
         the environment must decide join order only"
    );
    let featurizer = env.featurizer();
    let n_queries = env.queries().len();

    // ── Steps 1–2: expert histories + latencies ─────────────────────────
    let mut expert_samples: Vec<Sample> = Vec::new();
    let mut expert_latency_ms = Vec::with_capacity(n_queries);
    {
        let ctx = env.context().planner_context();
        let mut features = Vec::new();
        let mut mask = Vec::new();
        for idx in 0..n_queries {
            let episode =
                expert_actions(&ctx, &env.queries()[idx]).expect("workload queries are plannable");
            let (latency, _) = env.observe_latency(idx, &episode.plan, rng);
            expert_latency_ms.push(latency);
            let target = (1.0 + latency).ln() as f32;
            env.set_order(QueryOrder::Fixed(idx));
            env.reset(rng);
            for &(x, y) in &episode.actions {
                env.state_features(&mut features);
                env.action_mask(&mut mask);
                let action = featurizer.encode_pair(x, y);
                debug_assert!(mask[action], "expert action must be valid");
                expert_samples.push((features.clone(), action, target));
                env.step(action, rng);
            }
        }
    }

    // ── Step 3: train the reward prediction function ────────────────────
    let mut model = RewardModel::new(env.state_dim(), env.action_dim(), config.model.clone(), rng);
    let mut pretrain_losses = Vec::with_capacity(config.pretrain_steps);
    for _ in 0..config.pretrain_steps {
        let batch = sample(&expert_samples, config.batch_size, rng);
        pretrain_losses.push(model.train_batch(&batch));
    }

    // ── Steps 4–5: fine-tune on own episodes, re-train on slips ────────
    env.set_order(QueryOrder::Cycle);
    let mut log = TrainingLog::new();
    let mut retrain_events = Vec::new();
    let mut agent_ma = MovingAverage::new(config.slip_window);
    let mut expert_ma = MovingAverage::new(config.slip_window);
    let mut worst_latency: f64 = 0.0;
    let mut features = Vec::new();
    let mut mask = Vec::new();
    for episode in 0..config.finetune_episodes {
        env.reset(rng);
        let mut steps: Vec<(Vec<f32>, usize)> = Vec::new();
        while !env.is_terminal() {
            env.state_features(&mut features);
            env.action_mask(&mut mask);
            let action = model.select_min(&features, &mask, EPSILON, rng);
            steps.push((features.clone(), action));
            env.step(action, rng);
        }
        let outcome = env.last_outcome().expect("episode finished").clone();
        let latency = outcome
            .latency_ms
            .expect("latency-based reward mode records latency");
        worst_latency = worst_latency.max(latency);
        let target = (1.0 + latency).ln() as f32;
        // Fine-tune on this episode plus replayed expert samples (the
        // mix keeps the expert's coverage from washing out).
        let mut batch: Vec<Sample> = steps.into_iter().map(|(f, a)| (f, a, target)).collect();
        batch.extend(sample(&expert_samples, config.batch_size / 2, rng));
        model.train_batch(&batch);
        // Slip detection (step 5).
        agent_ma.push(latency);
        expert_ma.push(expert_latency_ms[outcome.query_idx]);
        if let (Some(agent_avg), Some(expert_avg)) = (agent_ma.value(), expert_ma.value()) {
            if agent_ma.len() >= config.slip_window && agent_avg > SLIP_FACTOR * expert_avg {
                for _ in 0..config.retrain_steps {
                    let batch = sample(&expert_samples, config.batch_size, rng);
                    model.train_batch(&batch);
                }
                retrain_events.push(episode);
                // Restart the window so one slip does not fire repeatedly.
                agent_ma = MovingAverage::new(config.slip_window);
                expert_ma = MovingAverage::new(config.slip_window);
            }
        }
        log.push(EpisodeRecord {
            episode,
            query_idx: outcome.query_idx,
            label: outcome.label.clone(),
            agent_cost: outcome.agent_cost,
            expert_cost: outcome.expert_cost,
            reward: outcome.reward,
            latency_ms: Some(latency),
        });
    }
    DemonstrationOutcome {
        pretrain_losses,
        log,
        retrain_events,
        expert_latency_ms,
        worst_latency_ms: worst_latency,
    }
}

/// `n` samples drawn uniformly with replacement (none from an empty
/// set, which draws nothing from `rng`).
fn sample(samples: &[Sample], n: usize, rng: &mut StdRng) -> Vec<Sample> {
    if samples.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|_| samples[rng.gen_range(0..samples.len())].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvContext;
    use crate::reward::RewardMode;
    use hfqo_opt::test_support::{chain_query, TestDb};
    use rand::SeedableRng;

    fn quick_config() -> DemonstrationConfig {
        DemonstrationConfig {
            pretrain_steps: 60,
            batch_size: 16,
            finetune_episodes: 30,
            slip_window: 10,
            retrain_steps: 5,
            model: RewardModelConfig {
                hidden: vec![32],
                lr: 3e-3,
            },
        }
    }

    #[test]
    fn lfd_runs_and_stays_reasonable() {
        let db = TestDb::chain(4, 300);
        let queries = vec![chain_query(&db, 4), chain_query(&db, 3)];
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::InverseLatency,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = learn_from_demonstration(&mut env, &quick_config(), &mut rng);
        assert_eq!(outcome.log.len(), 30);
        assert_eq!(outcome.expert_latency_ms.len(), 2);
        assert!(outcome.worst_latency_ms > 0.0);
        // Pretraining must reduce the prediction loss.
        let first = outcome.pretrain_losses.first().copied().expect("non-empty");
        let last = outcome.pretrain_losses.last().copied().expect("non-empty");
        assert!(last < first, "pretrain loss {first} → {last}");
        // Demonstration-guided planning on an easy chain must stay clear
        // of *catastrophic* latencies: a budget-capped runaway plan sits
        // orders of magnitude above the expert, while exploration under a
        // slightly-off predictor can cost a couple of orders at worst.
        let expert_worst = outcome
            .expert_latency_ms
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(
            outcome.worst_latency_ms < 1000.0 * expert_worst,
            "worst {} vs expert {}",
            outcome.worst_latency_ms,
            expert_worst
        );
        // And the *typical* episode should track the expert closely by
        // the end of fine-tuning.
        let tail: Vec<f64> = outcome
            .log
            .records
            .iter()
            .rev()
            .take(10)
            .filter_map(|r| r.latency_ms)
            .collect();
        let tail_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        let expert_mean = outcome.expert_latency_ms.iter().sum::<f64>()
            / outcome.expert_latency_ms.len().max(1) as f64;
        assert!(
            tail_mean < 20.0 * expert_mean,
            "tail mean {tail_mean} vs expert mean {expert_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "latency-based reward mode")]
    fn cost_reward_env_rejected() {
        let db = TestDb::chain(3, 100);
        let queries = vec![chain_query(&db, 3)];
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            4,
            QueryOrder::Cycle,
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let _ = learn_from_demonstration(&mut env, &quick_config(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "join order only")]
    fn wider_stage_set_rejected() {
        let db = TestDb::chain(3, 100);
        let queries = vec![chain_query(&db, 3)];
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            4,
            QueryOrder::Cycle,
            RewardMode::InverseLatency,
            StageSet::through_index(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let _ = learn_from_demonstration(&mut env, &quick_config(), &mut rng);
    }
}
