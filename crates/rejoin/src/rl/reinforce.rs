//! REINFORCE with a moving-average baseline.

use crate::nn::build::Build;
use crate::nn::{loss, Activation, Adam, Matrix, Mlp, MlpGradients};
use crate::rl::env::Environment;
use crate::rl::episode::{Episode, Transition};
use crate::rl::rollout::PolicySnapshot;
use rand::rngs::StdRng;

/// Which implementation applies the network update.
///
/// The batched path assembles each update's transitions into one B×F
/// feature matrix and runs a single forward and a single backward per
/// minibatch; the per-row path runs one forward/backward per
/// transition. They are **bit-identical** — the nn matmul kernels
/// accumulate batched gradients in the same row order the per-row path
/// sums them — so `PerRow` survives purely as the verification anchor,
/// the way `execute_rows` anchors the batch executor. Parity is
/// enforced by tests in this crate and by the PR 2 golden training log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePath {
    /// One fused forward/backward per minibatch (the production path).
    #[default]
    Batched,
    /// One forward/backward per transition (the reference path).
    PerRow,
}

/// Stacks per-transition feature vectors into one B×F matrix.
pub(crate) fn stack_features<'a, I>(rows: I, len: usize) -> Matrix
where
    I: Iterator<Item = &'a [f32]>,
{
    let mut data: Vec<f32> = Vec::new();
    let mut cols = 0usize;
    for (i, row) in rows.enumerate() {
        if i == 0 {
            cols = row.len();
            data.reserve(len * cols);
        }
        assert_eq!(row.len(), cols, "transition feature widths differ");
        data.extend_from_slice(row);
    }
    Matrix::from_vec(len, cols, data)
}

/// Discount factor: 1.0 suits the short, sparse-reward episodes of join
/// ordering.
const GAMMA: f32 = 1.0;

/// Entropy bonus coefficient (exploration pressure).
const ENTROPY_COEF: f32 = 0.01;

/// EMA decay for the scalar return baseline.
const BASELINE_DECAY: f32 = 0.95;

/// Global gradient-norm clip, for the policy and the reward model alike.
pub(crate) const GRAD_CLIP: f32 = 5.0;

/// REINFORCE hyperparameters. The discount (1.0), entropy bonus (0.01),
/// baseline decay (0.95) and gradient clip (5.0) are constants, and
/// advantages are always normalised within each batch.
#[derive(Debug, Clone)]
pub struct ReinforceConfig {
    /// Hidden layer widths (ReJOIN used two 128-unit layers).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Episodes accumulated per policy update.
    pub batch_episodes: usize,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        Self {
            hidden: vec![128, 128],
            lr: 3e-4,
            batch_episodes: 8,
        }
    }
}

/// A policy-gradient agent: MLP policy over a masked discrete action
/// space, trained by REINFORCE with an EMA baseline.
pub struct ReinforceAgent {
    /// The policy, kept as the snapshot the agent acts through: every
    /// update re-lays its output layer out for inference once, and
    /// [`Self::snapshot`] is a clone.
    policy: PolicySnapshot,
    optimizer: Adam,
    config: ReinforceConfig,
    update_path: UpdatePath,
    baseline: f32,
    baseline_ready: bool,
    pending: Vec<Episode>,
    episodes_seen: usize,
    /// The policy gradient, kept from update to update so that each
    /// update overwrites it instead of allocating it.
    grads: MlpGradients,
}

impl ReinforceAgent {
    /// Creates an agent for the given state/action dimensions.
    pub fn new(
        state_dim: usize,
        action_dim: usize,
        config: ReinforceConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut sizes = vec![state_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(action_dim);
        let policy = Mlp::new(&sizes, Activation::ReLU, rng);
        let grads = MlpGradients::zeros_like(&policy);
        let policy = PolicySnapshot::new(policy);
        let optimizer = Adam::new(config.lr);
        Self {
            policy,
            optimizer,
            config,
            update_path: UpdatePath::Batched,
            baseline: 0.0,
            baseline_ready: false,
            pending: Vec::new(),
            episodes_seen: 0,
            grads,
        }
    }

    /// Selects the update implementation (the per-row path is retained
    /// for parity verification and benchmarking; results are
    /// bit-identical).
    pub fn set_update_path(&mut self, path: UpdatePath) {
        self.update_path = path;
    }

    /// The policy network.
    pub fn policy(&self) -> &Mlp {
        self.policy.policy()
    }

    /// Episodes observed so far.
    pub fn episodes_seen(&self) -> usize {
        self.episodes_seen
    }

    /// A frozen, `Send + Sync` copy of the current policy for rollout
    /// workers. The snapshot's action selection consumes the RNG stream
    /// exactly as the live agent does.
    pub fn snapshot(&self) -> PolicySnapshot {
        self.policy.clone()
    }

    /// Samples an action (or takes the mode when `greedy`). Returns the
    /// action and its probability under the current policy.
    pub fn select_action(
        &self,
        features: &[f32],
        mask: &[bool],
        rng: &mut StdRng,
        greedy: bool,
    ) -> (usize, f32) {
        self.policy.select_action(features, mask, rng, greedy)
    }

    /// Rolls out one episode in `env` with the current policy.
    pub(crate) fn run_episode<E: Environment>(
        &self,
        env: &mut E,
        rng: &mut StdRng,
        greedy: bool,
    ) -> Episode {
        self.policy.run_episode(env, rng, greedy)
    }

    /// Buffers a finished episode; triggers an update every
    /// `batch_episodes`. Returns `true` when an update ran.
    pub fn observe(&mut self, episode: Episode) -> bool {
        self.episodes_seen += 1;
        self.pending.push(episode);
        if self.pending.len() >= self.config.batch_episodes {
            self.update();
            true
        } else {
            false
        }
    }

    /// Applies one REINFORCE update over the buffered episodes, its
    /// network passes and optimizer step at the CPU's vector width (see
    /// `nn::build`).
    pub fn update(&mut self) {
        self.update_with(Build::host());
    }

    /// [`Self::update`] through the given build.
    fn update_with(&mut self, build: Build) {
        if self.pending.is_empty() {
            return;
        }
        let episodes = std::mem::take(&mut self.pending);
        // Advantages: per-step discounted return minus the EMA baseline.
        // Each episode's first return is kept for the baseline refresh
        // below, so the returns are computed once.
        let mut all: Vec<(&Transition, f32)> = Vec::new();
        let mut first_returns = Vec::with_capacity(episodes.len());
        for ep in &episodes {
            let returns = ep.returns(GAMMA);
            first_returns.push(returns.first().copied().unwrap_or(0.0));
            for (t, g) in ep.transitions.iter().zip(returns) {
                let adv = if self.baseline_ready {
                    g - self.baseline
                } else {
                    g
                };
                all.push((t, adv));
            }
        }
        if all.len() > 1 {
            let mean = all.iter().map(|(_, a)| a).sum::<f32>() / all.len() as f32;
            let var = all
                .iter()
                .map(|(_, a)| (a - mean) * (a - mean))
                .sum::<f32>()
                / all.len() as f32;
            let std = var.sqrt().max(1e-6);
            for (_, a) in &mut all {
                *a = (*a - mean) / std;
            }
        }
        let grads = &mut self.grads;
        match self.update_path {
            UpdatePath::Batched if !all.is_empty() => {
                Self::policy_grads_batched(build, &self.policy, &all, grads)
            }
            // The per-row loop also covers the degenerate all-empty
            // case (every episode had zero transitions): it yields zero
            // gradients, preserving the historical zero-grad optimizer
            // step instead of panicking on a 0×0 forward.
            _ => *grads = Self::policy_grads_per_row(self.policy.policy(), &all),
        }
        grads.scale_with(build, 1.0 / all.len().max(1) as f32);
        grads.clip_global_norm_with(build, GRAD_CLIP);
        let optimizer = &mut self.optimizer;
        self.policy
            .retrain(build, |policy| optimizer.step_with(build, policy, grads));
        // Refresh the baseline from each episode's return from its start.
        for g0 in first_returns {
            if self.baseline_ready {
                self.baseline = BASELINE_DECAY * self.baseline + (1.0 - BASELINE_DECAY) * g0;
            } else {
                self.baseline = g0;
                self.baseline_ready = true;
            }
        }
    }

    /// REINFORCE gradients over a prepared `(transition, advantage)`
    /// batch via one fused forward/backward (the production path), the
    /// output layer's input gradient read from the snapshot's
    /// transposed head.
    fn policy_grads_batched(
        build: Build,
        snapshot: &PolicySnapshot,
        all: &[(&Transition, f32)],
        grads: &mut MlpGradients,
    ) {
        let policy = snapshot.policy();
        let x = stack_features(all.iter().map(|(t, _)| t.features.as_slice()), all.len());
        let cache = policy.forward_with(build, &x);
        let logits = cache.output();
        let masks: Vec<&[bool]> = all.iter().map(|(t, _)| t.mask.as_slice()).collect();
        // One shared softmax per batch feeds both the policy gradient and
        // the entropy bonus.
        let probs = loss::masked_softmax_batch(logits, &masks);
        let cols = logits.cols();
        let mut grad_out = Matrix::zeros(all.len(), cols);
        for (r, (t, adv)) in all.iter().enumerate() {
            let mut grad_row =
                loss::policy_gradient_from_probs(probs.row(r), &t.mask, t.action, *adv);
            add_entropy_grad(&mut grad_row, probs.row(r), &t.mask);
            grad_out.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(&grad_row);
        }
        policy.backward_into(build, &cache, grad_out, Some(snapshot.head()), grads);
    }

    /// The per-transition reference implementation: one forward and one
    /// backward per row, gradients accumulated in transition order.
    /// Retained (like the row executor) as the parity anchor the
    /// batched path is verified against.
    fn policy_grads_per_row(policy: &Mlp, all: &[(&Transition, f32)]) -> MlpGradients {
        let mut grads = MlpGradients::zeros_like(policy);
        for (t, adv) in all {
            let x = Matrix::row_vector(t.features.clone());
            let cache = policy.forward(&x);
            let logits = cache.output().row(0);
            let mut grad_row = loss::policy_gradient(logits, &t.mask, t.action, *adv);
            let probs = loss::masked_softmax(logits, &t.mask);
            add_entropy_grad(&mut grad_row, &probs, &t.mask);
            let g = policy.backward(&cache, Matrix::row_vector(grad_row));
            grads.add(&g);
        }
        grads
    }
}

/// Adds the gradient of `−ENTROPY_COEF · H(π)` w.r.t. the logits to a
/// policy-gradient row (exploration pressure). Shared by both update
/// paths so they cannot drift.
fn add_entropy_grad(grad_row: &mut [f32], probs: &[f32], mask: &[bool]) {
    let h = loss::entropy(probs);
    for (j, g) in grad_row.iter_mut().enumerate() {
        if mask[j] && probs[j] > 0.0 {
            *g += ENTROPY_COEF * probs[j] * (probs[j].ln() + h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rl::env::toy::{Bandit, Corridor};
    use rand::SeedableRng;

    fn small_config() -> ReinforceConfig {
        ReinforceConfig {
            hidden: vec![16],
            lr: 0.02,
            batch_episodes: 8,
        }
    }

    #[test]
    fn learns_best_bandit_arm() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut env = Bandit::new(vec![0.1, 0.9, 0.3]);
        let mut agent = ReinforceAgent::new(1, 3, small_config(), &mut rng);
        let mut updates = 0;
        for _ in 0..600 {
            let ep = agent.run_episode(&mut env, &mut rng, false);
            updates += usize::from(agent.observe(ep));
        }
        let (action, p) = agent.select_action(&[1.0], &[true; 3], &mut rng, true);
        assert_eq!(action, 1, "agent picked arm {action} with prob {p}");
        assert!(p > 0.5, "confidence too low: {p}");
        assert!(updates > 0);
        assert_eq!(agent.episodes_seen(), 600);
    }

    #[test]
    fn learns_corridor_with_multi_step_credit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut env = Corridor::new(4);
        let mut agent = ReinforceAgent::new(5, 2, small_config(), &mut rng);
        for _ in 0..400 {
            let ep = agent.run_episode(&mut env, &mut rng, false);
            agent.observe(ep);
        }
        // Greedy rollout should walk straight to the goal.
        let ep = agent.run_episode(&mut env, &mut rng, true);
        assert_eq!(ep.len(), 4, "greedy path length {}", ep.len());
        assert!(ep.total_reward() > 0.9);
    }

    /// The agent acts through its policy laid out for inference; every
    /// update lays it out again, so after each one the agent's logits
    /// and action stream are those of a snapshot frozen from its current
    /// weights.
    #[test]
    fn updates_refresh_the_acting_policy() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = Corridor::new(4);
        let mut agent = ReinforceAgent::new(5, 2, small_config(), &mut rng);
        let mut updates = 0;
        let (mut live, mut frozen) = (Vec::new(), Vec::new());
        let mut scratch = crate::nn::InferScratch::default();
        for _ in 0..40 {
            let ep = agent.run_episode(&mut env, &mut rng, false);
            if !agent.observe(ep) {
                continue;
            }
            updates += 1;
            let fresh = PolicySnapshot::new(agent.policy().clone());
            let x = [(0, 1.0), (3, -0.5)];
            agent
                .snapshot()
                .logits_at(&x, &[0, 1], &mut scratch, &mut live);
            fresh.logits_at(&x, &[0, 1], &mut scratch, &mut frozen);
            let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&live), bits(&frozen), "after update {updates}");
            let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let features = [1.0, 0.0, 0.0, -0.5, 0.0];
            for _ in 0..10 {
                let a = agent.select_action(&features, &[true, true], &mut rng_a, false);
                let b = fresh.select_action(&features, &[true, true], &mut rng_b, false);
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
        }
        assert!(updates >= 4, "the test must exercise real updates");
    }

    #[test]
    fn respects_action_masks() {
        let mut rng = StdRng::seed_from_u64(2);
        let agent = ReinforceAgent::new(2, 4, small_config(), &mut rng);
        let mask = vec![false, true, false, false];
        for _ in 0..20 {
            let (a, p) = agent.select_action(&[0.5, -0.5], &mask, &mut rng, false);
            assert_eq!(a, 1);
            assert!((p - 1.0).abs() < 1e-6);
        }
    }

    /// The tentpole parity contract: the batched update path (one B×F
    /// forward + one backward per minibatch) must be **bit-identical**
    /// to the per-row reference — same forward logits, same gradients,
    /// same optimizer step — on random rollouts, so that switching the
    /// production path to batched changes nothing but wall-clock.
    #[test]
    fn batched_update_is_bit_identical_to_per_row() {
        let config = ReinforceConfig {
            hidden: vec![16, 8],
            lr: 0.01,
            batch_episodes: 6,
        };
        let mut env = Corridor::new(5);
        for seed in 0..3u64 {
            let mut init_rng = StdRng::seed_from_u64(seed);
            let mut batched = ReinforceAgent::new(6, 2, config.clone(), &mut init_rng);
            let mut init_rng = StdRng::seed_from_u64(seed);
            let mut per_row = ReinforceAgent::new(6, 2, config.clone(), &mut init_rng);
            per_row.set_update_path(UpdatePath::PerRow);
            assert_eq!(batched.policy(), per_row.policy(), "identical init");

            let mut rng_a = StdRng::seed_from_u64(100 + seed);
            let mut rng_b = StdRng::seed_from_u64(100 + seed);
            let mut updates = 0;
            for _ in 0..24 {
                let ea = batched.run_episode(&mut env, &mut rng_a, false);
                let eb = per_row.run_episode(&mut env, &mut rng_b, false);
                let ua = batched.observe(ea);
                let ub = per_row.observe(eb);
                assert_eq!(ua, ub);
                updates += usize::from(ua);
                assert_eq!(
                    batched.policy(),
                    per_row.policy(),
                    "seed {seed}: policies diverged after {} episodes",
                    batched.episodes_seen()
                );
            }
            assert!(updates >= 4, "parity test must exercise real updates");
        }
    }

    /// One update through each build leaves the same weights, bit for
    /// bit: at the drift scenario's widths (160 features, 64 actions,
    /// two 128-unit layers), three updates of 15 sparse transitions, so
    /// Adam's moments and the snapshot's transposed head are live.
    #[test]
    fn every_build_updates_to_the_same_bits() {
        use crate::nn::build::tests::builds;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let rounds: Vec<Vec<Episode>> = (0..3)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let mut episode = Episode::new();
                        for _ in 0..5 {
                            let features = (0..160)
                                .map(|_| {
                                    if rng.gen::<f32>() < 0.2 {
                                        rng.gen::<f32>()
                                    } else {
                                        0.0
                                    }
                                })
                                .collect();
                            let mut mask: Vec<bool> =
                                (0..64).map(|_| rng.gen::<f32>() < 0.3).collect();
                            let action = rng.gen_range(0..64);
                            mask[action] = true;
                            let reward = rng.gen::<f32>() - 0.5;
                            episode.transitions.push(Transition {
                                features,
                                mask,
                                action,
                                reward,
                            });
                        }
                        episode
                    })
                    .collect()
            })
            .collect();
        let agents: Vec<ReinforceAgent> = builds()
            .into_iter()
            .map(|build| {
                let mut agent = ReinforceAgent::new(
                    160,
                    64,
                    ReinforceConfig::default(),
                    &mut StdRng::seed_from_u64(23),
                );
                for episodes in &rounds {
                    agent.pending = episodes.clone();
                    agent.update_with(build);
                }
                agent
            })
            .collect();
        let weights = |agent: &ReinforceAgent| -> Vec<u32> {
            let policy = agent.policy().layers().iter();
            let params = policy.flat_map(|l| l.w.data().iter().chain(&l.b));
            params
                .chain(agent.policy.head().data())
                .map(|x| x.to_bits())
                .collect()
        };
        for agent in &agents[1..] {
            assert_eq!(weights(agent), weights(&agents[0]));
        }
        assert_ne!(
            agents[0].policy(),
            ReinforceAgent::new(
                160,
                64,
                ReinforceConfig::default(),
                &mut StdRng::seed_from_u64(23)
            )
            .policy(),
            "the updates must move the weights"
        );
    }

    /// Regression: an update whose episodes carry zero transitions
    /// (possible when an environment terminates before the first step)
    /// must not panic on a 0×0 batched forward; both paths apply the
    /// historical zero-gradient optimizer step and stay bit-identical.
    #[test]
    fn empty_transition_update_stays_bit_identical() {
        for path in [UpdatePath::Batched, UpdatePath::PerRow] {
            let mut rng = StdRng::seed_from_u64(6);
            let mut agent = ReinforceAgent::new(1, 2, small_config(), &mut rng);
            agent.set_update_path(path);
            let before = agent.policy().clone();
            let updates: usize = (0..agent.config.batch_episodes)
                .map(|_| usize::from(agent.observe(Episode::new())))
                .sum();
            assert_eq!(updates, 1, "{path:?}: update must have run");
            // Zero gradients with fresh Adam state move nothing.
            assert_eq!(&before, agent.policy(), "{path:?}");
        }
    }

    #[test]
    fn update_with_no_pending_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut agent = ReinforceAgent::new(1, 2, small_config(), &mut rng);
        let before = agent.policy().clone();
        agent.update();
        assert_eq!(&before, agent.policy());
    }
}
